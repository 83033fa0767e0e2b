import random
import re
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylkit.errors import (ENTRY_BUDGET, DefectError, InputError, PreconditionError,
                            ResourceLimitError, UnsupportedOperationError)
from weylkit.groups import FinAbGroup, Subgroup, subgroup_span
from weylkit.multipliers import (
    Bicharacter,
    Multiplier,
    PhaseMap,
    TableMultiplier,
    antisymmetrize,
    check_multiplier,
    check_splitting,
    equivalent,
    is_heisenberg,
    split_symmetric,
    sqrt_bicharacter,
    twist,
    zero_multiplier,
)
from weylkit.phases import HALF, Phase, ZERO
from weylkit.vacuum import descend

from conftest import first_splitting_failure, window, window_model


def random_bicharacter(rng, G):
    mat = []
    for ni in G.moduli:
        row = []
        for nj in G.moduli:
            g = gcd(ni, nj)
            row.append(Phase(rng.randrange(0, g), g))
        mat.append(row)
    return Bicharacter(G, mat)


def random_phase_map(rng, G, max_den=12):
    vals = {G.zero().coords: ZERO}
    for x in G.elements():
        if not x.is_zero():
            vals[x.coords] = Phase(rng.randrange(0, max_den), max_den)
    return PhaseMap(G, vals)


def test_trivial_multiplier_passes():
    G = FinAbGroup([3, 3])
    z = zero_multiplier(G)
    assert isinstance(z, Bicharacter) and z.backing() == "bicharacter"
    rep = check_multiplier(z)
    assert rep.passed


def test_bicharacter_is_multiplier():
    rng = random.Random(1)
    for _ in range(10):
        G = FinAbGroup([rng.choice([2, 3, 4, 5]), rng.choice([2, 3, 4])])
        b = random_bicharacter(rng, G)
        assert isinstance(b, Multiplier) and b.bichar is b and b.is_verified()
        table = TableMultiplier.from_multiplier(b)
        assert table.bichar is None
        assert check_multiplier(table).passed


def test_large_moduli_exact_or_refused():
    # on (Z/3^21)^2, x . B . y at (n-1, n-1) is about 1.1e20, beyond int64
    n = 3 ** 21
    G = FinAbGroup([n, n])
    b = Bicharacter(G, [[ZERO, Phase(1, n)], [ZERO, ZERO]])
    top = G.element([n - 1, n - 1])
    assert b(top, top) == Phase(1, n)
    XC = np.array([[n - 1, n - 1]], dtype=np.int64)
    with pytest.raises(InputError, match="int64"):
        b.pair_nums(XC, XC)
    with pytest.raises(InputError, match="int64"):
        b.pair_grid(XC, XC)
    # the form is decided on its matrix, which no int64 sum reads
    rep = check_multiplier(b)
    assert rep.passed and [c.note for c in rep.checks] == [
        "bilinear, well defined on G: decided on its 2 x 2 matrix"] * 2
    # on (Z/3^19)^2 every x . B . y fits in int64, so arrays are still used
    small = FinAbGroup([3 ** 19, 3 ** 19])
    bs = Bicharacter(small, [[ZERO, Phase(1, 3 ** 19)], [ZERO, ZERO]])
    XS = np.array([[3 ** 19 - 1, 3 ** 19 - 1]], dtype=np.int64)
    assert bs.pair_nums(XS, XS).tolist() == [1]
    assert bs.pair_grid(XS, XS).tolist() == [[1]]
    assert check_multiplier(bs).passed


def test_bicharacter_int64_message_built_only_on_refusal(monkeypatch):
    n = 3 ** 21
    big = Bicharacter(FinAbGroup([n, n]), [[ZERO, Phase(1, n)], [ZERO, ZERO]])
    XC = np.array([[n - 1, n - 1]], dtype=np.int64)
    with pytest.raises(InputError) as exc:
        big.pair_nums(XC, XC)
    assert str(exc.value) == (
        "Bicharacter(FinAbGroup(Z/10460353203 x Z/10460353203), den=10460353203): "
        "x . B . y can reach 109418989110591652804, beyond int64 arrays")

    def no_repr(self):
        raise AssertionError("the form's repr was built for a safe form")

    monkeypatch.setattr(Bicharacter, "__repr__", no_repr)
    G = FinAbGroup([3, 3])
    b = random_bicharacter(random.Random(4), G)
    X = G.coords_array()
    assert b.pair_grid(X, X).ravel().tolist() == b.pair_nums(np.repeat(X, 9, axis=0),
                                                             np.tile(X, (9, 1))).tolist()


def test_table_denominator_within_int64():
    # a table keeps numerators below den, and the cocycle check adds two of them
    G = FinAbGroup([2])
    for den in (2 ** 63 + 1, 2 * 10 ** 19):
        with pytest.raises(InputError, match="int64"):
            TableMultiplier(G, den, [[0, 0], [0, den - 1]])
    big = TableMultiplier(G, 2 ** 62 + 1, [[0, 0], [0, 0]])
    with pytest.raises(InputError, match="int64"):
        check_multiplier(big)
    assert check_multiplier(TableMultiplier(G, 2 ** 62, [[0, 0], [0, 2 ** 62 - 1]])).passed


def test_corrupted_table_fails_with_witness():
    G = FinAbGroup([3, 3])
    m = Bicharacter.weyl_product(G, 1, [[Phase(1, 3)]])
    x0, y0 = 4, 5
    den, num = m.num_table()
    num = num.copy() * 2
    num[x0, y0] += den  # adds 1/2 to the single entry at common denominator 2*den
    bad = TableMultiplier(G, 2 * den, num)
    rep = check_multiplier(bad)
    assert not rep.passed
    wit = next(c.witness for c in rep.checks if not c.passed)
    # the corrupted cell is one of the four that dm(y, g, z) reads at the witness
    y, g, z = (G.element(w) for w in wit)
    read = {((y + g).rank, z.rank), (y.rank, g.rank), (y.rank, (g + z).rank), (g.rank, z.rank)}
    assert (x0, y0) in read


# -- the exhaustive cocycle check against the full scan ----------------------

def light_oracle(G, den, num):
    """The first triple (y, g, z) with dm(y, g, z) != 0 mod den by Python loops, in the
    order of Light's test: g over the generators, then y, then z in rank order; None when
    every such triple associates."""
    els = [x.coords for x in G.elements()]
    rank = {c: r for r, c in enumerate(els)}

    def add(a, b):
        return rank[tuple((u + v) % k for u, v, k in zip(els[a], els[b], G.moduli))]

    m = num.tolist()
    for g in (x.rank for x in G.generators()):
        for y in range(G.order):
            for z in range(G.order):
                if (m[add(y, g)][z] + m[y][g] - m[y][add(g, z)] - m[g][z]) % den:
                    return els[y], els[g], els[z]
    return None


def z_major_oracle(G, den, num):
    """(passed, witness) of the cocycle identity over all |G|^3 triples.

    Scans z in rank order and, for each z, the (x, y) grid row by row, so the
    witness is the first bad triple in z-major order.
    """
    S = G.addition_table()
    for z in range(G.order):
        delta = num[S, z] + num - num[:, S[:, z]] - num[:, z][None, :]
        bad = np.argwhere(delta % den != 0)
        if bad.size:
            x, y = map(int, bad[0])
            return False, (G.coords_of(x), G.coords_of(y), G.coords_of(z))
    return True, None


def drawn_table(G: FinAbGroup, kind: str, rng: np.random.Generator):
    """(den, num) of a table on G of the given kind.

    ``cocycle``: a random bicharacter plus the coboundary of a with a(0) = 0;
    ``unnormalized``: the same with a(0) != 0, still a cocycle but not
    normalized; ``constant``: a cocycle plus a nonzero constant, also a
    cocycle that is not normalized; ``corrupted``: a cocycle with one entry
    shifted; ``random``: every entry drawn independently.
    """
    n = G.order
    if kind == "random":
        den = int(rng.integers(1, 13))
        return den, rng.integers(0, den, size=(n, n))
    mat = [[Phase(int(rng.integers(0, gcd(a, b))), gcd(a, b)) for b in G.moduli]
           for a in G.moduli]
    bden, bnum = Bicharacter(G, mat).num_table()
    aden = int(rng.integers(2, 13))
    av = rng.integers(0, aden, size=n)
    av[0] = int(rng.integers(1, aden)) if kind == "unnormalized" else 0
    den = lcm(bden, aden)
    S = G.addition_table()
    num = bnum * (den // bden) + (av[:, None] + av[None, :] - av[S]) * (den // aden)
    if kind == "corrupted":
        x, y = rng.integers(0, n, size=2)
        num[x, y] += int(rng.integers(1, den))
    if kind == "constant":
        num += int(rng.integers(1, den))
    return den, num % den


@settings(max_examples=60, deadline=None)
@given(moduli=st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8]), max_size=3)
       .filter(lambda ms: prod(ms) <= 96),
       kind=st.sampled_from(["cocycle", "unnormalized", "corrupted", "random"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(moduli=[], kind="cocycle", seed=0)
@example(moduli=[], kind="unnormalized", seed=1)
@example(moduli=[1], kind="random", seed=2)
@example(moduli=[1, 1], kind="corrupted", seed=3)
@example(moduli=[8, 1, 8, 8], kind="cocycle", seed=4)
@example(moduli=[2, 16, 16], kind="corrupted", seed=5)
@example(moduli=[4, 3, 1, 6], kind="unnormalized", seed=6)
@example(moduli=[6, 1, 5, 17], kind="random", seed=7)
def test_cocycle_check_matches_full_scan(moduli, kind, seed):
    G = FinAbGroup(moduli)
    assert G.order ** 2 <= ENTRY_BUDGET
    den, num = drawn_table(G, kind, np.random.default_rng(seed))
    rep = check_multiplier(TableMultiplier(G, den, num))
    norm, cocycle = rep.checks
    assert cocycle.name == "cocycle"
    assert cocycle.passed == z_major_oracle(G, den, num)[0]
    assert cocycle.witness == light_oracle(G, den, num)
    assert cocycle.note == f"exhaustive over {G.order}^3 triples"
    assert norm.passed == (not num[0].any() and not num[:, 0].any())
    if kind in ("cocycle", "unnormalized"):
        assert cocycle.passed
    if kind == "unnormalized" and G.order > 1:
        assert not norm.passed


def brute_force_oracle(G, den, num):
    """(passed, witness) of dm(x, y, z) = 0 over all |G|^3 triples by Python loops: the
    first bad triple with z outermost, then x, then y."""
    els = [x.coords for x in G.elements()]
    rank = {c: r for r, c in enumerate(els)}

    def add(a, b):
        return rank[tuple((u + v) % k for u, v, k in zip(els[a], els[b], G.moduli))]

    m = num.tolist()
    for z in range(G.order):
        for x in range(G.order):
            for y in range(G.order):
                if (m[add(x, y)][z] + m[x][y] - m[x][add(y, z)] - m[y][z]) % den:
                    return False, (els[x], els[y], els[z])
    return True, None


@settings(max_examples=80, deadline=None)
@given(moduli=st.lists(st.sampled_from([1, 2, 3, 4, 8, 16]), max_size=4)
       .filter(lambda ms: prod(ms) <= 16),
       kind=st.sampled_from(["cocycle", "unnormalized", "constant", "corrupted"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(moduli=[], kind="constant", seed=0)
@example(moduli=[2, 2, 2, 2], kind="corrupted", seed=1)
@example(moduli=[16], kind="corrupted", seed=2)
@example(moduli=[4, 1, 4], kind="constant", seed=3)
def test_cocycle_check_matches_brute_force_oracle(moduli, kind, seed):
    # Light's test at {0} and the generators decides the identity: the verdict matches the
    # |G|^3 loop, the witness is Light's own, and the addition table is never built
    G = FinAbGroup(moduli)
    den, num = drawn_table(G, kind, np.random.default_rng(seed))
    m = TableMultiplier(G, den, num)
    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FinAbGroup, "addition_table",
                   lambda self, table=FinAbGroup.addition_table: built.append(1) or table(self))
        cocycle = check_multiplier(m).checks[-1]
    assert cocycle.passed == brute_force_oracle(G, den, num)[0]
    assert cocycle.witness == light_oracle(G, den, num)
    assert cocycle.note == f"exhaustive over {G.order}^3 triples"
    assert built == []
    if kind != "corrupted":
        assert cocycle.passed


def _dm(G, num, y, g, z):
    """dm(y, g, z) over the table's denominator, by rank."""
    def add(a, b):
        return G.rank_of(tuple((u + v) % k for u, v, k in zip(G.coords_of(a), G.coords_of(b),
                                                               G.moduli)))
    return int(num[add(y, g), z] + num[y, g] - num[y, add(g, z)] - num[g, z])


@settings(max_examples=60, deadline=None)
@given(moduli=st.lists(st.sampled_from([1, 2, 3, 4, 6, 8]), max_size=3)
       .filter(lambda ms: prod(ms) <= 24),
       kind=st.sampled_from(["cocycle", "unnormalized", "corrupted", "random"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(moduli=[4, 4], kind="corrupted", seed=0)
@example(moduli=[2, 1, 3], kind="random", seed=1)
def test_light_witness_is_its_own_first_failing_triple(moduli, kind, seed):
    # the verdict agrees with both |G|^3 oracles; the witness is the first failing triple of
    # Light's test, where dm is nonzero, and no addition table is built to find it
    G = FinAbGroup(moduli)
    den, num = drawn_table(G, kind, np.random.default_rng(seed))
    m = TableMultiplier(G, den, num)

    def refuse(self):
        raise AssertionError("the cocycle check built an addition table")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FinAbGroup, "addition_table", refuse)
        cocycle = check_multiplier(m).checks[-1]
    passed = z_major_oracle(G, den, num)[0]
    assert cocycle.passed == passed == brute_force_oracle(G, den, num)[0]
    assert cocycle.witness == light_oracle(G, den, num)
    if not passed:
        y, g, z = (G.rank_of(w) for w in cocycle.witness)
        assert _dm(G, num, y, g, z) % den != 0


@settings(max_examples=60, deadline=None)
@given(moduli=st.lists(st.sampled_from([1, 2, 3, 4, 6, 9]), max_size=3)
       .filter(lambda ms: prod(ms) <= 216),
       seed=st.integers(0, 2 ** 32 - 1))
@example(moduli=[], seed=0)
@example(moduli=[1, 4], seed=1)
def test_bicharacter_is_decided_on_its_matrix(moduli, seed):
    # no pair of the form is read, and Light's test on its table agrees
    G = FinAbGroup(moduli)
    b = random_bicharacter(random.Random(seed), G)

    def refuse(self, X, Y):
        raise AssertionError("a bicharacter record read a pair")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Bicharacter, "pair_nums", refuse)
        mp.setattr(Bicharacter, "pair_grid", refuse)
        rep = check_multiplier(b)
    table = check_multiplier(TableMultiplier.from_multiplier(b))
    assert [(c.name, c.passed) for c in rep.checks] == [(c.name, c.passed) for c in table.checks]
    assert rep.passed and table.checks[-1].note == f"exhaustive over {G.order}^3 triples"
    assert {c.note for c in rep.checks} == {
        f"bilinear, well defined on G: decided on its {G.rank} x {G.rank} matrix"}


def test_a_table_past_the_budget_is_refused_by_num_table():
    # a multiplier that is not bilinear is decided on its table, which the budget refuses
    class Sum(Multiplier):
        den = 2

        def backing(self):
            return "sum"

        def pair_nums(self, XC, YC):
            return (XC.sum(axis=1) * YC.sum(axis=1)) % 2

    G = FinAbGroup([2] * 10)
    with pytest.raises(ResourceLimitError, match="table entries 1048576 exceeds ENTRY_BUDGET"):
        check_multiplier(Sum(G))


def test_antisymmetrize_weyl_product():
    G = FinAbGroup([3, 3])
    m = Bicharacter.weyl_product(G, 1, [[Phase(1, 3)]])
    b = antisymmetrize(m)
    for a in range(3):
        for bb in range(3):
            for a2 in range(3):
                for b2 in range(3):
                    x = G.element([a, bb])
                    y = G.element([a2, b2])
                    assert b(x, y) == Phase(a2 * bb - a * b2, 3)
    assert b.is_alternating
    assert b.is_nondegenerate


def test_weyl_product_is_a_tagged_bicharacter():
    G = FinAbGroup([3, 3])
    m = Bicharacter.weyl_product(G, 1, [[Phase(1, 3)]])
    assert m.backing() == "weyl_product" and m.bichar is m
    assert m.matrix == ((ZERO, ZERO), (Phase(1, 3), ZERO))
    plain = Bicharacter(G, [[ZERO, ZERO], [Phase(1, 3), ZERO]])
    assert m == plain and plain.backing() == "bicharacter"
    for left_rank in (-1, 3):
        with pytest.raises(InputError, match="left_rank"):
            Bicharacter.weyl_product(G, left_rank, [[Phase(1, 3)]])


def test_antisymmetrize_once_per_multiplier():
    G = FinAbGroup([3, 3])
    m = Bicharacter.weyl_product(G, 1, [[Phase(1, 3)]])
    assert antisymmetrize(m) is antisymmetrize(m)


def test_antisymmetrize_symmetric_is_zero():
    G = FinAbGroup([5])
    sym = Bicharacter(G, [[Phase(2, 5)]])
    assert antisymmetrize(sym) == Bicharacter.zero(G)


def test_antisymmetrize_alternating_properties_randomized():
    rng = random.Random(77)
    for _ in range(30):
        G = FinAbGroup([rng.choice([2, 3, 4, 6]), rng.choice([2, 3, 4])])
        m = random_bicharacter(rng, G)
        mt = antisymmetrize(m)
        for _ in range(10):
            x = G.element([rng.randrange(0, n) for n in G.moduli])
            y = G.element([rng.randrange(0, n) for n in G.moduli])
            assert mt(x, y) + mt(y, x) == ZERO
            assert mt(x, x) == ZERO


def antisym_pointwise_oracle(m, b):
    """The first pair where b(x, y) != m(x, y) - m(y, x), or None.

    The pointwise check ``antisymmetrize`` ran on its matrix form: over all
    |G|^2 pairs in rank order when they fit ENTRY_BUDGET, else over 20 000 pairs
    drawn with seed 1 (the witness is then the first bad drawn pair).
    """
    G = m.group
    n = G.order
    if n * n <= ENTRY_BUDGET:
        den, num = m.num_table()
        d = lcm(den, b.den)
        mt = (num - num.T) % den * (d // den)
        X = G.coords_array()
        XX, YY = np.repeat(X, n, axis=0), np.tile(X, (n, 1))
        bt = b.pair_nums(XX, YY).reshape(n, n) * (d // b.den)
        bad = np.argwhere(mt % d != bt % d)
        return None if not bad.size else (G.coords_of(int(bad[0][0])), G.coords_of(int(bad[0][1])))
    rng = np.random.default_rng(1)
    moduli = np.array(G.moduli, dtype=np.int64)
    X = rng.integers(0, moduli, size=(20_000, G.rank), dtype=np.int64)
    Y = rng.integers(0, moduli, size=(20_000, G.rank), dtype=np.int64)
    d = lcm(m.den, b.den)
    mt = (m.pair_nums(X, Y) - m.pair_nums(Y, X)) % m.den * (d // m.den)
    bad = np.flatnonzero(mt % d != b.pair_nums(X, Y) * (d // b.den) % d)
    return None if not bad.size else (tuple(X[bad[0]]), tuple(Y[bad[0]]))


def _antisym_cases():
    rng = random.Random(5)
    G = FinAbGroup([4, 6, 3])
    bichar = random_bicharacter(rng, G)
    weyl = Bicharacter.weyl_product(FinAbGroup([3, 9, 9, 3]), 2,
                                 [[Phase(1, 3), ZERO], [Phase(2, 9), Phase(1, 3)]])
    twisted = twist(random_bicharacter(rng, G), random_phase_map(rng, G))
    m0 = descend(window_model(2, 1, 2), window(2, 1, 2).L).m0
    big = window_model(3, 1, 2).multiplier          # |G| = 6561: the sampled branch
    return {"bicharacter": bichar, "weyl_product": weyl, "twisted-table": twisted,
            "m0-2-1-2": m0, "window-3-1-2": big}


@pytest.mark.parametrize("case", ["bicharacter", "weyl_product", "twisted-table", "m0-2-1-2",
                                  "window-3-1-2"])
def test_antisymmetrize_matches_pointwise_oracle(case):
    # the matrix form read on basis pairs agrees with m(x, y) - m(y, x) at every
    # pair; the oracle is not vacuous: it finds a form that is off on one pair
    m = _antisym_cases()[case]
    b = antisymmetrize(m)
    assert b.is_alternating
    assert antisym_pointwise_oracle(m, b) is None
    if m.group.order > 1:
        assert antisym_pointwise_oracle(m, b + _bump(b)) is not None


def _bump(b):
    """A bicharacter that is nonzero at the first basis pair with a modulus above 1."""
    G = b.group
    i = next(k for k, n in enumerate(G.moduli) if n > 1)
    mat = [[ZERO] * G.rank for _ in range(G.rank)]
    mat[i][i] = Phase(1, G.moduli[i])
    return Bicharacter(G, mat)


@settings(max_examples=60, deadline=None)
@given(moduli=st.lists(st.integers(1, 12), max_size=3), data=st.data())
def test_pair_nums_matches_scalar_call(moduli, data):
    G = FinAbGroup(moduli)
    b = Bicharacter(G, [[Phase(data.draw(st.integers(0, gcd(a, c) - 1)), gcd(a, c)) for c in moduli]
                        for a in moduli])
    rows = st.lists(st.tuples(*(st.integers(0, n - 1) for n in moduli)), min_size=1, max_size=8)
    X = data.draw(rows)
    Y = [data.draw(st.tuples(*(st.integers(0, n - 1) for n in moduli))) for _ in X]
    got = b.pair_nums(np.array(X, dtype=np.int64).reshape(len(X), G.rank),
                      np.array(Y, dtype=np.int64).reshape(len(X), G.rank))
    assert [Phase(int(v), b.den) for v in got] == [b(G.element(x), G.element(y))
                                                    for x, y in zip(X, Y)]


def _drawn_multiplier(kind, G, data):
    """A bicharacter, a Weyl product, its table or a coboundary-twisted table on G."""
    def phase(a, b):
        g = gcd(a, b)
        return Phase(data.draw(st.integers(0, g - 1)), g)
    n, r = G.moduli, G.rank
    if kind == "weyl_product":
        left = data.draw(st.integers(0, r))
        return Bicharacter.weyl_product(G, left, [[phase(n[j], n[left + i]) for i in range(r - left)]
                                                  for j in range(left)])
    b = Bicharacter(G, [[phase(a, c) for c in n] for a in n])
    if kind == "table":
        return TableMultiplier.from_multiplier(b)
    if kind == "twisted-table":
        vals = {x.coords: Phase(data.draw(st.integers(0, 5)) if not x.is_zero() else 0, 6)
                for x in G.elements()}
        return twist(b, PhaseMap(G, vals))
    return b


def _grid_oracle(m, X, Y):
    """m(x_i, y_j) for every pair: pair_nums over the repeat/tile copies of the rows."""
    return m.pair_nums(np.repeat(X, len(Y), axis=0), np.tile(Y, (len(X), 1))).tolist()


GRID_KINDS = ["bicharacter", "weyl_product", "table", "twisted-table"]


@settings(max_examples=80, deadline=None)
@given(moduli=st.lists(st.integers(1, 6), max_size=3), kind=st.sampled_from(GRID_KINDS),
       data=st.data())
def test_pair_grid_matches_pair_nums(moduli, kind, data):
    G = FinAbGroup(moduli)
    m = _drawn_multiplier(kind, G, data)
    rows = st.lists(st.tuples(*(st.integers(0, k - 1) for k in moduli)), max_size=6)
    X, Y = (np.array(R, dtype=np.int64).reshape(len(R), G.rank)
            for R in (data.draw(rows), data.draw(rows)))
    got = m.pair_grid(X, Y)
    assert got.shape == (len(X), len(Y))
    assert got.ravel().tolist() == _grid_oracle(m, X, Y)


@pytest.mark.parametrize("kind", GRID_KINDS)
@pytest.mark.parametrize("moduli", [[], [1], [3, 2]])
def test_pair_grid_empty_sides_and_rank_zero(moduli, kind):
    G = FinAbGroup(moduli)
    m = {"bicharacter": random_bicharacter(random.Random(2), G),
         "weyl_product": Bicharacter.weyl_product(G, 0, []),
         "table": TableMultiplier.from_multiplier(random_bicharacter(random.Random(2), G)),
         "twisted-table": twist(random_bicharacter(random.Random(2), G),
                                random_phase_map(random.Random(3), G))}[kind]
    X = G.coords_array()
    none = X[:0]
    for P, Q in ((X, X), (X, none), (none, X), (none, none)):
        got = m.pair_grid(P, Q)
        assert got.shape == (len(P), len(Q))
        assert got.ravel().tolist() == _grid_oracle(m, P, Q)


def test_twist_identity_and_composition():
    G = FinAbGroup([3, 3])
    m = Bicharacter.weyl_product(G, 1, [[Phase(1, 3)]])
    t0 = twist(m, PhaseMap.zero(G))
    den, num = m.num_table()
    den0, num0 = t0.num_table()
    assert (num * (den0 // den) % den0 == num0).all()

    rng = random.Random(3)
    a1 = random_phase_map(rng, G)
    a2 = random_phase_map(rng, G)
    lhs = twist(twist(m, a1), a2)
    asum = PhaseMap(G, {x.coords: a1(x) + a2(x) for x in G.elements()})
    rhs = twist(m, asum)
    d1, n1 = lhs.num_table()
    d2, n2 = rhs.num_table()
    from math import lcm
    d = lcm(d1, d2)
    assert ((n1 * (d // d1) - n2 * (d // d2)) % d == 0).all()


def test_twist_past_int64_sums():
    # a coboundary table on Z/3 over d = 2^62 - 1, twisted by a: the unreduced sum
    # m(x, y) + a(x) + a(y) - a(x + y) reaches 3 (d - 1) > 2^63
    G = FinAbGroup([3])
    for d in (2 ** 62 - 1, 2 ** 62 + 1):
        b, a = [0, d - 1, d - 2], [0, d - 1, d - 1]
        m = TableMultiplier(G, d, [[(b[x] + b[y] - b[(x + y) % 3]) % d for y in range(3)]
                                   for x in range(3)])
        amap = PhaseMap(G, {(x,): Phase(a[x], d) for x in range(3)})
        oracle = [[(int(m.num[x, y]) + a[x] + a[y] - a[(x + y) % 3]) % d for y in range(3)]
                  for x in range(3)]
        try:
            t = twist(m, amap)
        except InputError as exc:
            assert "beyond int64 arrays" in str(exc)
            assert d > 2 ** 62         # 2 (d - 1) reaches 2^63
        else:
            assert t.den == d and t.num.tolist() == oracle
            assert oracle[1][2] == 2 ** 62 - 6


def test_twist_to_alternating_partner():
    # twisting the product pairing on (Z/3)^2 by c(a,b) = 2ab/3 yields the
    # alternating multiplier (2a'b - 2ab')/3
    G = FinAbGroup([3, 3])
    m = Bicharacter.weyl_product(G, 1, [[Phase(1, 3)]])
    c = PhaseMap.from_callable(G, lambda e: Phase(2 * e.coords[0] * e.coords[1], 3))
    alt = twist(m, c)
    for x in G.elements():
        a, b = x.coords
        for y in G.elements():
            a2, b2 = y.coords
            assert alt(x, y) == Phase(2 * a2 * b - 2 * a * b2, 3)
    # twisting does not move the class
    assert antisymmetrize(alt) == antisymmetrize(m)
    assert equivalent(m, alt)


def test_equivalent_examples():
    rng = random.Random(8)
    G = FinAbGroup([3, 3])
    m = Bicharacter.weyl_product(G, 1, [[Phase(1, 3)]])
    assert equivalent(m, twist(m, random_phase_map(rng, G)))

    G9 = FinAbGroup([9, 9])
    b1 = Bicharacter(G9, [[ZERO, Phase(1, 9)], [Phase(-1, 9), ZERO]])
    b2 = b1.scale(2)
    assert not equivalent(b1, b2)


@pytest.mark.parametrize("n,entry", [(9, 1), (3, 2), (15, 7)])
def test_sqrt_bicharacter_roundtrip(n, entry):
    G = FinAbGroup([n])
    b = Bicharacter(G, [[Phase(entry, n)]])
    r = sqrt_bicharacter(b)
    assert r.scale(2) == b


def test_sqrt_example_z9():
    G = FinAbGroup([9])
    b = Bicharacter(G, [[Phase(1, 9)]])
    r = sqrt_bicharacter(b)
    assert r(G.element([1]), G.element([1])) == Phase(5, 9)


def test_sqrt_needs_2_regular():
    G = FinAbGroup([4])
    with pytest.raises(UnsupportedOperationError):
        sqrt_bicharacter(Bicharacter.zero(G))


def test_sqrt_uniqueness_z3_exhaustive():
    # the three forms t*xy/3 have pairwise distinct doubles
    G = FinAbGroup([3])
    doubles = {Bicharacter(G, [[Phase(t, 3)]]).scale(2) for t in range(3)}
    assert len(doubles) == 3


def test_split_symmetric_z2_denominator_growth():
    G = FinAbGroup([2])
    m = TableMultiplier.from_function(G, lambda x, y: Phase(x.coords[0] * y.coords[0], 2))
    c = split_symmetric(m)
    assert c(G.element([1])) == Phase(1, 4)
    assert c(G.zero()) == ZERO


def test_split_symmetric_zero():
    G = FinAbGroup([2, 3])
    c = split_symmetric(zero_multiplier(G))
    for x in G.elements():
        assert c(x) == ZERO


def test_split_symmetric_z3_quadratic_oracle():
    # the quadratic form 2a^2/3 splits ab/3; the canonical solution must too
    G = FinAbGroup([3])
    m = Bicharacter(G, [[Phase(1, 3)]])
    c = split_symmetric(m)
    for a in G.elements():
        for b in G.elements():
            assert m(a, b) == c(a + b) - c(a) - c(b)
    quad = {x.coords: Phase(2 * x.coords[0] ** 2, 3) for x in G.elements()}
    for a in G.elements():
        for b in G.elements():
            assert m(a, b) == quad[(a + b).coords] - quad[a.coords] - quad[b.coords]


def test_split_symmetric_rejects_asymmetric():
    G = FinAbGroup([3, 3])
    m = Bicharacter.weyl_product(G, 1, [[Phase(1, 3)]])
    with pytest.raises(PreconditionError):
        split_symmetric(m)


def test_split_symmetric_canonical_is_lex_min():
    # solutions differ by characters; the returned one minimises the numerator vector
    G = FinAbGroup([2])
    m = TableMultiplier.from_function(G, lambda x, y: Phase(x.coords[0] * y.coords[0], 2))
    c = split_symmetric(m)
    Dp = 4
    vec = tuple(c(x).numerator_at(Dp) for x in G.elements())
    # the other solution is c + chi with chi(1) = 1/2
    other = (0, (Phase(1, 4) + HALF).numerator_at(Dp))
    assert vec < other


def test_split_symmetric_randomized_exact():
    rng = random.Random(2024)
    count = 0
    while count < 40:
        G = FinAbGroup([rng.choice([2, 3, 4, 6]), rng.choice([2, 3, 4])])
        if G.order > 24:
            continue
        # symmetric cocycle = coboundary + symmetric bicharacter
        cmap = random_phase_map(rng, G, max_den=8)
        mat = []
        for i, ni in enumerate(G.moduli):
            row = []
            for j, nj in enumerate(G.moduli):
                g = gcd(ni, nj)
                row.append(Phase(rng.randrange(0, g), g))
            mat.append(row)
        for i in range(len(mat)):
            for j in range(i):
                mat[i][j] = mat[j][i]
        sym = Bicharacter(G, mat)

        def f(x, y, cmap=cmap, sym=sym):
            return cmap(x) + cmap(y) - cmap(x + y) + sym(x, y)

        m = TableMultiplier.from_function(G, f)
        c = split_symmetric(m)
        for a in G.elements():
            for b in G.elements():
                assert m(a, b) == c(a + b) - c(a) - c(b)
        count += 1


def test_split_symmetric_on_subgroup():
    G, = (FinAbGroup([9, 9]),)
    m = Bicharacter(G, [[ZERO, Phase(1, 9)], [Phase(-1, 9), ZERO]])
    A = subgroup_span(G, [G.element([3, 0]), G.element([0, 3])])
    c = split_symmetric(m, A)
    for a in A.elements():
        for b in A.elements():
            assert m(a, b) == c(a + b) - c(a) - c(b)


def split_symmetric_loop(m, A=None):
    """The scalar oracle for ``split_symmetric``: the same tower and canonical shift in ``Phase``."""
    G = m.group
    if A is None:
        A = Subgroup.full(G)
    elems = A.elements()
    D = 1
    for i, a in enumerate(elems):
        for b in elems[i:]:
            vab = m(a, b)
            if vab != m(b, a):
                raise PreconditionError(
                    f"multiplier is not symmetric on the subgroup at {(a.coords, b.coords)}")
            D = lcm(D, vab.den)

    gens, orders = A.decomposition()
    c = {G.zero().coords: ZERO}
    for g, d in zip(gens, orders):
        # splitting on the cyclic factor <g>
        msum = ZERO
        partial = [ZERO]
        for s in range(d):
            term = m(s * g, g)
            msum = msum + term
            partial.append(partial[-1] + term)
        x = Phase(-msum.num, msum.den * d)          # d * x = -msum
        sigma = [t * x + partial[t] for t in range(d)]
        new_c = {}
        for coords, cb in c.items():
            b = G.element(coords)
            for t in range(d):
                e = b + t * g
                new_c[e.coords] = cb + sigma[t] + m(b, t * g)
        c = new_c
    if len(c) != A.order:
        raise DefectError("generator tower did not cover the subgroup")

    for a in elems:
        for b in elems:
            if m(a, b) != c[(a + b).coords] - c[a.coords] - c[b.coords]:
                raise DefectError("splitting residual is nonzero",
                                  witness=(a.coords, b.coords))

    # canonical representative among character shifts
    Dp = D * A.exponent
    order_elems = sorted(elems, key=lambda e: e.rank)
    tcoords = {a.coords: A.coordinates_of(a) for a in elems}
    best = None
    best_vals = None
    for u_rank in range(A.order):
        u = []
        rest = u_rank
        for d in orders:
            rest, ui = divmod(rest, d)
            u.append(ui)
        shifted = {}
        for a in order_elems:
            chi = ZERO
            for ui, ti, d in zip(u, tcoords[a.coords], orders):
                chi = chi + Phase(ui * ti, d)
            shifted[a.coords] = c[a.coords] + chi
        vec = tuple(shifted[a.coords].numerator_at(Dp) for a in order_elems)
        if best is None or vec < best:
            best = vec
            best_vals = shifted
    return PhaseMap(G, best_vals)


def split_outcome(split, m, A):
    """The values of ``split(m, A)`` in key order, or its precondition failure."""
    try:
        return list(split(m, A).values.items())
    except PreconditionError as exc:
        return ("PreconditionError", str(exc))


@st.composite
def split_inputs(draw):
    """(m, A, symmetric): a bicharacter plus a random coboundary, and a subgroup A.

    With ``symmetric`` the bicharacter is symmetric, so m is symmetric on all
    of G; otherwise B[i][j] - B[j][i] is nonzero wherever the moduli allow,
    and m may or may not be symmetric on A.
    """
    symmetric = draw(st.booleans())
    moduli = draw(st.lists(st.sampled_from([2, 3, 4, 6, 8, 1]), min_size=1 if symmetric else 2,
                           max_size=3).filter(lambda ms: prod(ms) <= 48))
    G = FinAbGroup(moduli)
    r = G.rank
    mat = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            g = gcd(G.moduli[i], G.moduli[j])
            if j < i:       # the skew part is nonzero wherever it can be
                skew = 0 if symmetric or g == 1 else draw(st.integers(1, g - 1))
                mat[i][j] = mat[j][i] + Phase(skew, g)
            else:
                mat[i][j] = Phase(draw(st.integers(0, g - 1)), g)
    b = Bicharacter(G, mat)
    if draw(st.booleans()):
        cmap = random_phase_map(random.Random(draw(st.integers(0, 2 ** 32))), G,
                                max_den=draw(st.sampled_from([1, 2, 6, 12])))
        m = TableMultiplier.from_function(G, lambda x, y: b(x, y) + cmap(x) + cmap(y) - cmap(x + y))
    else:
        m = b
    if draw(st.booleans()):
        A = Subgroup.full(G)
    else:
        gens = draw(st.lists(st.tuples(*[st.integers(0, n - 1) for n in moduli]),
                            min_size=1, max_size=2))
        A = Subgroup.span(G, [G.element(g) for g in gens])
    return m, A, symmetric


def edge_case(moduli, gens=None):
    """(m, A, True) with m = a diagonal symmetric form plus a seeded coboundary, for @example."""
    G = FinAbGroup(moduli)
    r = G.rank
    b = Bicharacter(G, [[Phase(1, 2) if i == j and G.moduli[i] % 2 == 0 else ZERO
                         for j in range(r)] for i in range(r)])
    cmap = random_phase_map(random.Random(7), G, max_den=12)
    m = TableMultiplier.from_function(G, lambda x, y: b(x, y) + cmap(x) + cmap(y) - cmap(x + y))
    A = Subgroup.full(G) if gens is None else subgroup_span(G, [G.element(g) for g in gens])
    return m, A, True


@settings(max_examples=80, deadline=None)
@given(case=split_inputs())
@example(case=edge_case([]))                        # trivial group
@example(case=edge_case([1]))                       # moduli of 1
@example(case=edge_case([1, 4, 1]))
@example(case=edge_case([4, 6], []))                # trivial subgroup
@example(case=edge_case([1, 8, 2], [[0, 2, 1]]))
@example(case=edge_case([4, 4], [[2, 0], [0, 2]]))
def test_split_symmetric_matches_loop_oracle(case):
    m, A, symmetric = case
    got = split_outcome(split_symmetric, m, A)
    assert got == split_outcome(split_symmetric_loop, m, A)
    if symmetric:
        assert got[0] != "PreconditionError" and len(got) == A.order


def test_split_symmetric_large_moduli_exact_or_refused():
    # a coboundary table over den: every value is held over D = den * exponent(A)
    # and D * (exponent + 2) must stay below 2^63, so on Z/4 2^58 is the
    # largest power of 2 that is split exactly
    G = FinAbGroup([4])
    S = G.addition_table()
    for den, exact in [(2 ** 58, True), (2 ** 59, False)]:
        c = [0] + [random.Random(den + x).randrange(den) for x in range(1, 4)]
        num = np.array([[(c[x] + c[y] - c[int(S[x, y])]) % den for y in range(4)]
                        for x in range(4)], dtype=np.int64)
        m = TableMultiplier(G, den, num)
        if exact:
            assert split_outcome(split_symmetric, m, None) == \
                split_outcome(split_symmetric_loop, m, None)
        else:
            with pytest.raises(InputError, match=rf"a splitting over denominator {4 * den} on .* "
                                                 rf"can reach {24 * den}, beyond int64 arrays$"):
                split_symmetric(m)
    # a bicharacter whose x . B . y over the whole group leaves int64 is
    # refused by pair_nums, even on a subgroup of order 3
    n = 3 ** 21
    G = FinAbGroup([n, n])
    b = Bicharacter(G, [[ZERO, Phase(1, n)], [ZERO, ZERO]])
    A = subgroup_span(G, [G.element([3 ** 20, 0])])
    with pytest.raises(InputError, match="int64"):
        split_symmetric(b, A)
    # coordinates past int64 are refused before any array is built
    G = FinAbGroup([2 ** 64])
    A = subgroup_span(G, [G.element([2 ** 63])])
    with pytest.raises(InputError, match=rf"a modulus of .* can reach {2 ** 64}, beyond int64 arrays$"):
        split_symmetric(zero_multiplier(G), A)


def test_is_heisenberg():
    G = FinAbGroup([3, 3])
    m = Bicharacter.weyl_product(G, 1, [[Phase(1, 3)]])
    assert is_heisenberg(m)
    assert not is_heisenberg(zero_multiplier(FinAbGroup([2, 2])))
    # mod-4 window: the form is nondegenerate but its antisymmetrization is not
    G4 = FinAbGroup([4, 4])
    mw = Bicharacter(G4, [[ZERO, Phase(1, 4)], [Phase(-1, 4), ZERO]])
    assert mw.bichar.is_nondegenerate
    assert not is_heisenberg(mw)
    rad = antisymmetrize(mw).radical()
    twoG = subgroup_span(G4, [G4.element([2, 0]), G4.element([0, 2])])
    assert rad == twoG


def test_trivial_group_everywhere():
    G = FinAbGroup([])
    m = zero_multiplier(G)
    assert check_multiplier(m).passed
    assert is_heisenberg(m)  # radical of the empty form is trivial
    c = split_symmetric(m)
    assert c(G.zero()) == ZERO


@settings(max_examples=60, deadline=None)
@given(moduli=st.lists(st.sampled_from([1, 2, 3, 4, 6]), max_size=3), data=st.data())
def test_phase_map_nums_at_matches_call(moduli, data):
    """``nums_at`` over a multiple of den equals ``__call__`` on a partial map, and both
    name the first undefined row."""
    G = FinAbGroup(moduli)
    elems = list(G.elements())
    den = data.draw(st.sampled_from([1, 2, 6, 12]))
    keep = data.draw(st.lists(st.booleans(), min_size=len(elems), max_size=len(elems)))
    values = {x.coords: Phase(data.draw(st.integers(0, den - 1)), den)
              for x, k in zip(elems, keep) if k}
    a = PhaseMap(G, values)
    assert a.values == values
    assert a.den == lcm(*(v.den for v in values.values()))
    multiple = a.den * data.draw(st.integers(1, 5))
    ranks = data.draw(st.lists(st.integers(0, G.order - 1), max_size=8))
    X = G.coords_at(np.array(ranks, dtype=np.int64))
    undefined = [G.coords_of(r) for r in ranks if not keep[r]]
    if undefined:
        message = re.escape(f"phase map is undefined at {undefined[0]}")
        with pytest.raises(InputError, match=message + "$"):
            a.nums_at(X, multiple)
        with pytest.raises(InputError, match=message + "$"):
            a(G.element(undefined[0]))
    else:
        assert a.nums_at(X, multiple).tolist() == \
            [a(G.element(x)).numerator_at(multiple) for x in X.tolist()]
    if a.den > 1:
        with pytest.raises(ValueError):
            a.nums_at(X, a.den + 1)


@settings(max_examples=80, deadline=None)
@given(case=split_inputs(), data=st.data())
@example(case=edge_case([]), data=None)
@example(case=edge_case([4, 6], []), data=None)
def test_check_splitting_matches_scalar_oracle(case, data):
    """The one splitting check, decided at A x {A's generators} and scanned only on failure,
    against scalar calls over A x A: same verdict, exception type and message.  On
    bicharacters and coboundary-twisted tables, drawn, trivial and full subgroups (moduli
    of 1 included); the canonical splitting (or zero where m is not symmetric on A),
    shifted at up to three elements, at 0, or where one decomposition coordinate is 1."""
    m, A, _ = case
    G = m.group
    if data and data.draw(st.booleans()):
        A = data.draw(st.sampled_from([Subgroup.trivial(G), Subgroup.full(G)]))
    try:
        values = dict(split_symmetric(m, A).values)
    except PreconditionError:
        values = {a.coords: ZERO for a in A.elements()}
    elems = A.elements()
    for i in data.draw(st.lists(st.integers(0, len(elems) - 1), max_size=3)) if data else []:
        values[elems[i].coords] += Phase(data.draw(st.integers(1, 11)), 12)
    if data and data.draw(st.booleans()):
        values[elems[0].coords] += Phase(data.draw(st.integers(1, 11)), 12)     # c(0) != 0
    if data and A.order > 1 and data.draw(st.booleans()):
        # a shift that one generator h_j of A alone sees: s/12 where a's coordinate on h_j is 1
        j = data.draw(st.integers(0, len(A.decomposition()[0]) - 1))
        s = Phase(data.draw(st.integers(1, 11)), 12)
        for a in elems:
            if A.coordinates_of(a)[j] == 1:
                values[a.coords] += s
    c = PhaseMap(G, values)
    want = first_splitting_failure(m, A, c)
    if want is None:
        check_splitting(m, A, c)
        check_splitting(m, A, c, own=True)
        return
    with pytest.raises(PreconditionError) as exc:
        check_splitting(m, A, c)
    assert str(exc.value) == f"splitting fails at {want}"
    with pytest.raises(DefectError, match="^splitting residual is nonzero$") as exc:
        check_splitting(m, A, c, own=True)
    assert exc.value.witness == want


def test_check_splitting_is_decided_at_generators_past_the_pair_budget():
    # A = (Z/2)^10 x 0 in (Z/2)^11 with the zero form: |A|^2 = 2^20 pairs pass
    # ENTRY_BUDGET, so the splitting that holds is decided at the 1024 x 10 pairs of A x
    # {generators}; one that fails needs the scan of A x A for its witness, which is refused
    G = FinAbGroup([2] * 11)
    m = zero_multiplier(G)
    A = subgroup_span(G, G.generators()[:10])
    ranks = G.ranks_of(A.coords_array())
    check_splitting(m, A, PhaseMap.of_arrays(G, ranks, np.zeros(len(ranks), dtype=np.int64), 1))
    shifted = np.zeros(len(ranks), dtype=np.int64)
    shifted[5] = 1
    with pytest.raises(ResourceLimitError, match=f"table entries {2 ** 20} exceeds ENTRY_BUDGET"):
        check_splitting(m, A, PhaseMap.of_arrays(G, ranks, shifted, 2))


def test_check_splitting_refuses_a_table_that_is_not_a_cocycle():
    # on A = <(1, 0)> this table is 0, so the zero map splits it there; but the generator
    # argument needs a cocycle, and the table is refused before any pair of A is read
    G = FinAbGroup([2, 2])
    num = np.zeros((4, 4), dtype=np.int64)
    num[1, 2] = 1
    m = TableMultiplier(G, 2, num)
    A = subgroup_span(G, [G.element([1, 0])])
    c = PhaseMap(G, {a.coords: ZERO for a in A.elements()})
    assert first_splitting_failure(m, A, c) is None
    with pytest.raises(PreconditionError, match="^not a multiplier: cocycle fails at"):
        check_splitting(m, A, c)
