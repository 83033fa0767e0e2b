"""Batched monomial formulas and mixed-radix enumeration against plain oracles.

Every batched row must equal the per-element operator and a dense matrix
written straight from the model's defining formula; ``Subgroup.elements``
must equal a breadth-first closure over the generators.
"""

from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weylkit.groups import FinAbGroup, Subgroup
from weylkit.multipliers import Bicharacter
from weylkit.phases import Phase
from weylkit.models import MonomialPart, regular_rep, schrodinger_model, standard_pairing

from conftest import window, window_model

SETTINGS = settings(max_examples=40, deadline=None)
MODULI = st.lists(st.sampled_from([1, 2, 3, 4, 5, 6]), max_size=3)


def e(num, den) -> complex:
    return np.exp(2j * np.pi * num / den)


def rows_of(G: FinAbGroup, data):
    """A (c x rank) block of coordinate rows of G drawn by hypothesis."""
    c = data.draw(st.integers(1, 5))
    return np.array([[data.draw(st.integers(0, n - 1)) for n in G.moduli] for _ in range(c)],
                    dtype=np.int64).reshape(c, G.rank)


def assert_rows(W, Y, dense_of):
    """Batched rows of W on Y equal W.operator(y) and the dense oracle dense_of(y)."""
    den, fn = W.batch
    SRC, NUM = fn(Y)
    assert SRC.shape == NUM.shape == (len(Y), W.dim)
    for y, src, num in zip(Y.tolist(), SRC, NUM):
        row = MonomialPart(W.dim, den, src, num)
        op = W.operator(W.group.element(y))
        assert op.monomial.equals(row)
        assert np.allclose(row.to_dense(), dense_of(y))


@SETTINGS
@given(key=st.sampled_from([(2, 1, 1), (3, 1, 1), (5, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 2)]),
       data=st.data())
def test_window_rows_match_formula(key, data):
    W, w = window_model(*key), window(*key)
    q, d, pt = w.modulus, w.d, w.point_group

    def dense(y):
        # (W(y) f)(s) = e((2 s.y2 + y1.y2) / q) f(s + y1)
        y1, y2 = y[:d], y[d:]
        M = np.zeros((W.dim, W.dim), dtype=complex)
        for s in pt.elements():
            t = pt.element([a + b for a, b in zip(s.coords, y1)])
            M[s.rank, t.rank] = e(2 * sum(a * b for a, b in zip(s.coords, y2))
                                  + sum(a * b for a, b in zip(y1, y2)), q)
        return M

    assert_rows(W, rows_of(W.group, data), dense)


def drawn_pairing(A: FinAbGroup, data):
    """A random pairing on A: standard when data is None, else any nondegenerate one."""
    if data is None:
        return standard_pairing(A)
    n = A.moduli
    mat = [[Phase(data.draw(st.integers(0, gcd(n[i], n[j]) - 1)), gcd(n[i], n[j]))
            for j in range(A.rank)] for i in range(A.rank)]
    pairing = Bicharacter(A, mat)
    assume(pairing.is_nondegenerate)
    return pairing


@SETTINGS
@given(moduli=MODULI, data=st.data())
@example(moduli=[], data=None)
@example(moduli=[1], data=None)
@example(moduli=[2, 1, 3], data=None)
def test_schrodinger_rows_match_formula(moduli, data):
    A = FinAbGroup(moduli)
    pairing = drawn_pairing(A, data)
    W = schrodinger_model(A, pairing)
    r = A.rank

    def dense(y):
        # (W(a, b) f)(t) = <a, t> f(t + b)
        a = A.element(y[:r])
        M = np.zeros((W.dim, W.dim), dtype=complex)
        for t in A.elements():
            M[t.rank, (t + A.element(y[r:])).rank] = pairing(a, t).complex()
        return M

    Y = rows_of(W.group, data) if data is not None else W.group.coords_array()
    assert_rows(W, Y, dense)


@SETTINGS
@given(moduli=MODULI, data=st.data())
@example(moduli=[], data=None)
@example(moduli=[4, 1, 2], data=None)
def test_regular_rows_match_formula(moduli, data):
    G = FinAbGroup(moduli)
    W = regular_rep(G)

    def dense(y):
        # (W(y) f)(x) = f(x + y)
        M = np.zeros((W.dim, W.dim))
        for x in G.elements():
            M[x.rank, (x + G.element(y)).rank] = 1
        return M

    Y = rows_of(G, data) if data is not None else G.coords_array()
    assert_rows(W, Y, dense)


@pytest.mark.parametrize("W", [
    window_model(2, 1, 2),
    schrodinger_model(FinAbGroup([3, 1, 2])),
    regular_rep(FinAbGroup([5, 4])),
], ids=["window-2-1-2", "schrodinger-3x1x2", "regular-5x4"])
def test_blocks_cover_rank_order(W):
    blocks = list(W.blocks())
    assert all(ops is None for ops, _, _, _ in blocks)
    SRC = np.concatenate([S for _, S, _, _ in blocks])
    NUM = np.concatenate([N for _, _, N, _ in blocks])
    (den,) = {d for _, _, _, d in blocks}
    assert len(SRC) == W.group.order
    for x in W.group.elements():
        assert W.operator(x).monomial.equals(MonomialPart(W.dim, den, SRC[x.rank], NUM[x.rank]))


# -- mixed-radix enumeration -------------------------------------------------

def bfs_elements(A: Subgroup):
    """Coordinates of A by closing {0} under its generators, sorted by rank."""
    G = A.ambient
    seen = {G.zero().coords}
    frontier = [G.zero()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in A.generators:
                y = x + g
                if y.coords not in seen:
                    seen.add(y.coords)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen, key=G.rank_of)


@st.composite
def subgroups(draw):
    G = FinAbGroup(draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9]), max_size=3)))
    gens = draw(st.lists(st.tuples(*[st.integers(0, n - 1) for n in G.moduli]), max_size=3))
    return Subgroup.span(G, [G.element(g) for g in gens])


@settings(max_examples=100, deadline=None)
@given(A=subgroups())
def test_elements_match_bfs(A):
    assert [x.coords for x in A.elements()] == bfs_elements(A)


@pytest.mark.parametrize("moduli,gens", [
    ([], []),                                   # trivial ambient group
    ([4, 6], []),                               # trivial subgroup
    ([4, 6], [[1, 0], [0, 1]]),                 # the full group
    ([1, 4, 1], [[0, 1, 0]]),                   # moduli of 1
    ([4, 4], [[2, 0], [0, 2]]),                 # non-cyclic
    ([8, 4, 6], [[2, 2, 0], [4, 0, 3], [0, 2, 2]]),
])
def test_elements_match_bfs_examples(moduli, gens):
    G = FinAbGroup(moduli)
    A = Subgroup.span(G, [G.element(g) for g in gens])
    assert [x.coords for x in A.elements()] == bfs_elements(A)
    assert len(A.elements()) == A.order
