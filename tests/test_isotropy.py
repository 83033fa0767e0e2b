import random
from math import gcd

import pytest

from weylkit.errors import PreconditionError
from weylkit.groups import FinAbGroup, Subgroup, subgroup_span
from weylkit.isotropy import extend_maximal, is_isotropic, is_maximal_isotropic, polar, polar_tilde
from weylkit.multipliers import Bicharacter, PhaseMap, TableMultiplier, antisymmetrize, twist
from weylkit.phases import HALF, Phase, ZERO


def symplectic(G, den):
    d = G.rank // 2
    mat = [[ZERO] * G.rank for _ in range(G.rank)]
    for i in range(d):
        mat[i][d + i] = Phase(1, den)
        mat[d + i][i] = Phase(-1, den)
    return Bicharacter(G, mat)


def brute_polar(G, m, A):
    members = [x for x in G.elements() if all(m(x, a) == ZERO for a in A.elements())]
    return subgroup_span(G, members)


def test_polar_of_trivial_is_everything():
    G = FinAbGroup([3, 3])
    m = symplectic(G, 3)
    assert polar(subgroup_span(G, []), m).order == 9


def test_polar_line_z3():
    G = FinAbGroup([3, 3])
    m = symplectic(G, 3)
    A = subgroup_span(G, [G.element([1, 0])])
    assert polar(A, m) == A
    assert is_maximal_isotropic(A, m)


def test_polar_window_z4():
    G = FinAbGroup([4, 4])
    m = symplectic(G, 4)
    L = subgroup_span(G, [G.element([2, 0]), G.element([0, 2])])
    assert polar(L, m) == L
    assert is_maximal_isotropic(L, m)


def test_polar_z9_window():
    G = FinAbGroup([9, 9])
    m = symplectic(G, 9)
    A = subgroup_span(G, [G.element([3, 0]), G.element([0, 3])])
    assert is_maximal_isotropic(A, m)


def test_trivial_not_maximal():
    G = FinAbGroup([3, 3])
    m = symplectic(G, 3)
    assert not is_maximal_isotropic(subgroup_span(G, []), m)


def test_polar_matches_bruteforce_randomized():
    rng = random.Random(99)
    for _ in range(25):
        moduli = [rng.choice([2, 3, 4, 6]) for _ in range(rng.randrange(1, 3))]
        G = FinAbGroup(moduli)
        mat = []
        for ni in moduli:
            row = []
            for nj in moduli:
                g = gcd(ni, nj)
                row.append(Phase(rng.randrange(0, g), g))
            mat.append(row)
        m = Bicharacter(G, mat)
        A = subgroup_span(G, [G.element([rng.randrange(0, n) for n in moduli])])
        assert polar(A, m) == brute_polar(G, m, A)


def random_alternating(rng, G):
    mat = [[ZERO] * G.rank for _ in range(G.rank)]
    for i in range(G.rank):
        for j in range(i + 1, G.rank):
            g = gcd(G.moduli[i], G.moduli[j])
            mat[i][j] = Phase(rng.randrange(0, g), g)
            mat[j][i] = -1 * mat[i][j]
    return Bicharacter(G, mat)


def test_polar_antitone_and_idempotent_randomized():
    # double-polar growth and polar^3 = polar are alternating-form statements
    rng = random.Random(4)
    for _ in range(20):
        moduli = [rng.choice([2, 3, 4, 9]) for _ in range(2)]
        G = FinAbGroup(moduli)
        m = random_alternating(rng, G)
        A = subgroup_span(G, [G.element([rng.randrange(0, n) for n in moduli])])
        B = subgroup_span(G, list(A.generators)
                          + [G.element([rng.randrange(0, n) for n in moduli])])
        assert A.is_subset_of(B)
        assert polar(B, m).is_subset_of(polar(A, m))
        assert A.is_subset_of(polar(polar(A, m), m))
        # third polar equals the first
        assert polar(polar(polar(A, m), m), m) == polar(A, m)


def test_polar_antitone_any_form():
    # antitonicity alone needs no symmetry at all
    rng = random.Random(14)
    for _ in range(15):
        moduli = [rng.choice([2, 3, 4, 9]) for _ in range(2)]
        G = FinAbGroup(moduli)
        mat = []
        for ni in moduli:
            row = []
            for nj in moduli:
                g = gcd(ni, nj)
                row.append(Phase(rng.randrange(0, g), g))
            mat.append(row)
        m = Bicharacter(G, mat)
        A = subgroup_span(G, [G.element([rng.randrange(0, n) for n in moduli])])
        B = subgroup_span(G, list(A.generators)
                          + [G.element([rng.randrange(0, n) for n in moduli])])
        assert polar(B, m).is_subset_of(polar(A, m))


def test_duality_count_for_symplectic():
    for moduli, den in [([3, 3], 3), ([4, 4], 4), ([9, 9], 9)]:
        G = FinAbGroup(moduli)
        m = symplectic(G, den)
        rng = random.Random(moduli[0])
        for _ in range(8):
            A = subgroup_span(G, [G.element([rng.randrange(0, n) for n in moduli])])
            assert A.order * polar(A, m).order == G.order


def test_extend_maximal_z3():
    G = FinAbGroup([3, 3])
    m = symplectic(G, 3)
    M = extend_maximal(subgroup_span(G, []), m)
    # the greedy scan reaches (1, 0) first, giving the first-coordinate line
    assert M.order == 3
    assert all(e.coords[1] == 0 for e in M.elements())


def test_extend_maximal_fixed_point(z9):
    G, m, L, _ = z9
    assert extend_maximal(L, m.bichar) == L


def test_extend_maximal_f2_4():
    G = FinAbGroup([2, 2, 2, 2])
    b = Bicharacter(G, [[ZERO if i == j else HALF for j in range(4)] for i in range(4)])
    assert b.is_symplectic
    M = extend_maximal(subgroup_span(G, []), b)
    assert M.order == 4
    assert M.order ** 2 == G.order


def test_extend_maximal_rejects_nonisotropic():
    G = FinAbGroup([3, 3])
    m = symplectic(G, 3)
    B = subgroup_span(G, [G.element([1, 0]), G.element([0, 1])])
    with pytest.raises(PreconditionError):
        extend_maximal(B, m)


def test_polar_tilde_z9():
    G = FinAbGroup([9, 9])
    m = symplectic(G, 9)
    A = subgroup_span(G, [G.element([3, 0]), G.element([0, 3])])
    lhs, rhs = polar_tilde(A, m)
    assert lhs == rhs == A


def test_polar_tilde_window():
    G = FinAbGroup([4, 4])
    m = symplectic(G, 4)
    L = subgroup_span(G, [G.element([2, 0]), G.element([0, 2])])
    lhs, rhs = polar_tilde(L, m)
    assert lhs == rhs
    assert lhs.order == 16  # both sides are the whole group


def test_polar_tilde_full_group():
    G = FinAbGroup([9, 9])
    m = symplectic(G, 9)
    lhs, rhs = polar_tilde(Subgroup.full(G), m)
    assert lhs == rhs


def test_polar_tilde_randomized():
    rng = random.Random(31)
    for _ in range(15):
        moduli = [rng.choice([3, 4, 9]), rng.choice([3, 4])]
        G = FinAbGroup(moduli)
        # random alternating form
        g = gcd(moduli[0], moduli[1])
        off = Phase(rng.randrange(0, g), g)
        m = Bicharacter(G, [[ZERO, off], [-1 * off, ZERO]])
        A = subgroup_span(G, [G.element([rng.randrange(0, n) for n in moduli])])
        lhs, rhs = polar_tilde(A, m)
        assert lhs == rhs


def twisted_table(seed):
    """A random alternating bicharacter on a small group as a table, twisted on odd seeds by
    a random coboundary with values in (1/2)Z, with some subgroups to take polars of."""
    rng = random.Random(seed)
    G = FinAbGroup(rng.choice([[4, 4], [2, 4, 2], [6, 3], [3, 3, 3], [1, 4, 2], [6, 6]]))
    mat = [[Phase(rng.randrange(0, gcd(a, b)), gcd(a, b)) for b in G.moduli] for a in G.moduli]
    m = TableMultiplier.from_multiplier(antisymmetrize(Bicharacter(G, mat)))
    if seed % 2:
        m = twist(m, PhaseMap(G, {x.coords: Phase(rng.randrange(0, 2) * (not x.is_zero()), 2)
                                  for x in G.elements()}))
    elems = list(G.elements())
    subgroups = [subgroup_span(G, []), Subgroup.full(G)]
    subgroups += [subgroup_span(G, rng.sample(elems, min(k, len(elems)))) for k in (1, 1, 2)]
    return G, m, subgroups


@pytest.mark.parametrize("case", ["f2", *range(8)])
def test_polar_table_multiplier(f2, case):
    if case == "f2":
        G, m = f2
        A = subgroup_span(G, [G.element([1, 0])])
        # m vanishes on span{e1} and the polar against m~ is the line itself
        assert is_isotropic(A, m)
        assert polar(A, antisymmetrize(m)) == A
        m, subgroups = TableMultiplier.from_multiplier(m), [A]
    else:
        G, m, subgroups = twisted_table(case)
    assert m.bichar is None
    for A in subgroups:
        # the table branches against the scalar definitions, generators included
        P, want = polar(A, m), brute_polar(G, m, A)
        assert P == want and P.generators == want.generators
        assert is_isotropic(A, m) == all(m(a, b) == ZERO for a in A.elements() for b in A.elements())
