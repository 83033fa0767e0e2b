"""Batched monomial formulas and mixed-radix enumeration against plain oracles.

Every batched row must equal the per-element operator and a dense matrix
written straight from the model's defining formula; the induced model must
equal its scalar formula evaluated one coset at a time; ``Subgroup.elements``
must equal a breadth-first closure over the generators.
"""

from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weylkit.errors import ResourceLimitError
from weylkit.groups import FinAbGroup, Subgroup, subgroup_span
from weylkit.isotropy import extend_maximal
from weylkit.multipliers import (
    Bicharacter,
    PhaseMap,
    antisymmetrize,
    check_splitting,
    split_symmetric,
    twist,
    zero_multiplier,
)
from weylkit.phases import Phase, ZERO
from weylkit.models import (
    Operator,
    induced_model,
    regular_rep,
    schrodinger_model,
    standard_pairing,
)

from conftest import f2_setup, window, window_model, z9_setup

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
    SRC, NUM = W.fn(Y)
    assert SRC.shape == NUM.shape == (len(Y), W.dim)
    for y, src, num in zip(Y.tolist(), SRC, NUM):
        row = Operator(W.dim, W.den, src, num)
        assert W.operator(W.group.element(y)).equals(row)
        assert np.allclose(row.matrix, dense_of(y))


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
    SRC = np.concatenate([S for S, _, _ in blocks])
    NUM = np.concatenate([N for _, N, _ in blocks])
    (den,) = {d for _, _, d in blocks}
    assert len(SRC) == W.group.order
    for x in W.group.elements():
        assert W.operator(x).equals(Operator(W.dim, den, SRC[x.rank], NUM[x.rank]))


# -- induced models ----------------------------------------------------------

def per_coset_operators(G, m, A, c):
    """Every operator of the induced model, built one coset at a time from the scalar formula.

    (W(y) f)(r_i) = e(m(r_i, y) - m(a, r_j) - c(a)) f(r_j), where r_i + y = r_j + a
    with r_j the transversal element of its coset and a in A.
    """
    reps = A.transversal()
    pos = {(r + a).coords: i for i, r in enumerate(reps) for a in A.elements()}
    den = lcm(m.den, c.den)
    ops = []
    for y in G.elements():
        src, num = [], []
        for r in reps:
            z = r + y
            j = pos[z.coords]
            a = z - reps[j]
            src.append(j)
            num.append((m(r, y) - m(a, reps[j]) - c(a)).numerator_at(den))
        ops.append(Operator(len(reps), den, src, num))
    return ops


def assert_induced_matches(G, m, A, c=None):
    """induced_model(G, m, A, c) equals the per-coset oracle on every operator, both routes,
    and ``W.rows`` equals it on a shuffled block, on a block that repeats one coset and on
    a single row."""
    W = induced_model(G, m, A, c)
    cmap = split_symmetric(m, A) if c is None else c
    oracle = per_coset_operators(G, m, A, cmap)
    assert W.den == oracle[0].den
    for x, want in zip(G.elements(), oracle):
        assert W.operator(x).equals(want)
    blocks = list(W.blocks())
    assert all(den == W.den for _, _, den in blocks)
    SRC = np.concatenate([S for S, _, _ in blocks])
    NUM = np.concatenate([N for _, N, _ in blocks])
    for x, want in enumerate(oracle):
        assert Operator(W.dim, W.den, SRC[x], NUM[x]).equals(want)
    X = G.coords_array()
    shuffled = np.random.default_rng(G.order).permutation(G.order)
    coset = np.flatnonzero(A.coset_index(X) == A.coset_index(X[shuffled[:1]])[0])
    for ranks in (shuffled, np.resize(coset, 3 * len(coset)), shuffled[:1]):
        SRC, NUM, den = W.rows(X[ranks])
        assert den == W.den and SRC.shape == NUM.shape == (len(ranks), W.dim)
        for x, src, num in zip(ranks.tolist(), SRC, NUM):
            assert Operator(W.dim, den, src, num).equals(oracle[x])


def block_form(moduli, units, lower=True):
    """m(x, y) = sum_i u_i (x_i y_{i+r} - [lower] x_{i+r} y_i) / n_i on (Z/n_1 x .. x Z/n_r)^2.

    Without the lower corner it is the Weyl product form, whose
    antisymmetrization is nondegenerate for every n_i; with it the form is
    alternating, nondegenerate for odd n_i only.
    """
    r = len(units)
    G = FinAbGroup(list(moduli) + list(moduli))
    B = [[ZERO] * (2 * r) for _ in range(2 * r)]
    for i, (n, u) in enumerate(zip(moduli, units)):
        B[i][i + r] = Phase(u, n)
        if lower:
            B[i + r][i] = Phase(-u, n)
    return G, Bicharacter(G, B)


def span(G, gens):
    return subgroup_span(G, [G.element(g) for g in gens])


def z9_case():
    G, m, L, _ = z9_setup()
    return G, m, L, None


def f2_case(gen):
    G, m = f2_setup(2)
    return G, m, span(G, [gen]), None


def f2_4_case():
    # the maximal isotropic subgroup carries a nonzero symmetric restriction
    G, m = f2_setup(4)
    return G, m, extend_maximal(span(G, []), antisymmetrize(m)), None


def case_7373(gens):
    G, m = block_form([7, 3], [3, 2])
    return G, m, span(G, gens), None


def lagrangian_9595():
    G, m = block_form([9, 5], [2, 3])
    return G, m, span(G, [[3, 0, 0, 0], [0, 0, 3, 0], [0, 1, 0, 0]]), None


def twisted_table():
    # a coboundary twist turns the form into a table that is no bicharacter
    G, m = block_form([4, 3], [1, 2], lower=False)
    rng = np.random.default_rng(5)
    a = PhaseMap(G, {x.coords: Phase(int(rng.integers(0, 12)) if not x.is_zero() else 0, 12)
                     for x in G.elements()})
    return G, twist(m, a), span(G, [[1, 0, 0, 0], [0, 1, 0, 0]]), None


def explicit_splitting():
    # the canonical splitting shifted by a character of L is another splitting
    G, m, L, _ = z9_setup()
    c = split_symmetric(m, L)
    shifted = {a.coords: c(a) + Phase(L.coordinates_of(a)[-1], L.decomposition()[1][-1])
               for a in L.elements()}
    c = PhaseMap(G, shifted)
    check_splitting(m, L, c)
    return G, m, L, c


def full_subgroup():
    G = FinAbGroup([3, 1, 2])
    return G, zero_multiplier(G), Subgroup.full(G), None


def rank_zero():
    G = FinAbGroup([])
    return G, zero_multiplier(G), Subgroup.full(G), None


INDUCED_CASES = {
    "z9": z9_case,
    "f2-position": lambda: f2_case([1, 0]),
    "f2-momentum": lambda: f2_case([0, 1]),
    "f2-4": f2_4_case,
    "7373-position": lambda: case_7373([[1, 0, 0, 0], [0, 1, 0, 0]]),
    "7373-momentum": lambda: case_7373([[0, 0, 1, 0], [0, 0, 0, 1]]),
    "9595-lagrangian": lagrangian_9595,
    "twisted-table": twisted_table,
    "explicit-splitting": explicit_splitting,
    "full-subgroup": full_subgroup,
    "rank-zero": rank_zero,
}


@pytest.mark.parametrize("case", list(INDUCED_CASES), ids=list(INDUCED_CASES))
def test_induced_matches_per_coset(case):
    assert_induced_matches(*INDUCED_CASES[case]())


@settings(max_examples=15, deadline=None)
@given(moduli=st.lists(st.sampled_from([2, 3, 4, 5]), min_size=1, max_size=2), data=st.data())
def test_induced_matches_per_coset_drawn(moduli, data):
    units = [data.draw(st.sampled_from([u for u in range(1, n) if gcd(u, n) == 1]))
             for n in moduli]
    G, m = block_form(moduli, units, lower=False)
    r = len(moduli)
    half = data.draw(st.sampled_from([0, r]))
    A = span(G, [[int(j == half + i) for j in range(2 * r)] for i in range(r)])
    if G.order <= 512 and data.draw(st.booleans()):
        vals = {x.coords: Phase(data.draw(st.integers(0, 5)) if not x.is_zero() else 0, 6)
                for x in G.elements()}
        m = twist(m, PhaseMap(G, vals))
    assert_induced_matches(G, m, A)


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


@settings(max_examples=100, deadline=None)
@given(A=subgroups())
def test_grid_order_matches_coordinates(A):
    _, orders = A.decomposition()
    T = FinAbGroup(orders).coords_array()[A.grid_order()]
    assert [tuple(row) for row in T.tolist()] == [A.coordinates_of(a) for a in A.elements()]


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


@settings(max_examples=100, deadline=None)
@given(A=subgroups())
def test_box_codes_label_cosets(A):
    # one code per coset, labelled by its rank-minimal element, codes fill [0, |G/A|),
    # and the transversal holds the rank-minimal element of every coset
    G = A.ambient
    codes = A.box_codes(G.coords_array()).tolist()
    keys = [coset_minimum(A, x).coords for x in G.elements()]
    assert len(set(zip(codes, keys))) == len(set(codes)) == len(set(keys)) == A.index
    assert sorted(set(codes)) == list(range(A.index))
    assert [x.coords for x in A.transversal()] == sorted(set(keys), key=G.rank_of)


def coset_minimum(A, x):
    """Oracle: the rank-minimal element of x + A, over all of A."""
    return min((x + a for a in A.elements()), key=lambda y: y.rank)


def scan_transversal(A):
    """Oracle: box codes of every element of G in rank order; the first hit of each code."""
    G = A.ambient
    _, first = np.unique(A.box_codes(G.coords_array()), return_index=True)
    return G.coords_array()[np.sort(first)]


def _span(moduli, gens):
    G = FinAbGroup(moduli)
    return Subgroup.span(G, [G.element(g) for g in gens])


@settings(max_examples=200, deadline=None)
@given(A=subgroups())
@example(A=_span([], []))                                  # rank 0
@example(A=_span([1, 4, 1], [[0, 2, 0]]))                  # moduli of 1
@example(A=_span([1, 1], []))                              # only moduli of 1
@example(A=_span([4, 6], []))                              # A trivial
@example(A=_span([4, 6], [[1, 0], [0, 1]]))                # A = G
@example(A=_span([8, 4, 6], [[2, 2, 0], [4, 0, 3], [0, 2, 2]]))
def test_transversal_matches_g_scan(A):
    # the reversed-HNF box equals the first element of each coset in a scan of G
    got = A.transversal_coords()
    assert got.dtype == np.int64 and got.shape == (A.index, A.ambient.rank)
    assert got.tolist() == scan_transversal(A).tolist()


def test_transversal_counts_cosets_not_elements():
    # |G| = 10^6 is past ENTRY_BUDGET; the 10 x 10 box of G/A is not
    G = FinAbGroup([1000, 1000])
    A = Subgroup.span(G, [G.element([10, 0]), G.element([0, 10])])
    assert A.transversal_coords().tolist() == [[a, b] for b in range(10) for a in range(10)]
    with pytest.raises(ResourceLimitError) as exc:
        Subgroup.trivial(G).transversal_coords()
    assert (exc.value.budget, exc.value.size) == ("ENTRY_BUDGET", 10 ** 6)
