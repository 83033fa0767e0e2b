"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import itertools
import random
import time
from math import gcd

import numpy as np

from weylkit import (
    Bicharacter,
    FinAbGroup,
    PhaseMap,
    TableMultiplier,
    antisymmetrize,
    check_multiplier,
    check_rep_law,
    clifford_basis,
    commutant_d,
    commutator_scalar_check,
    descend,
    double_preimage,
    extend_maximal,
    generated_subspace,
    induced_model,
    intertwiner,
    is_heisenberg,
    normalizer_check,
    permute_check,
    polar,
    schrodinger_model,
    sectors,
    split_symmetric,
    sqrt_bicharacter,
    subgroup_span,
    twist,
)
from weylkit.phases import HALF, Phase, ZERO

from conftest import f2_setup, window, window_model, z9_setup

TOL = 1e-9


def _line(num, desc, ok, detail=""):
    status = "pass" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{status}] {desc}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


# ---------------------------------------------------------------------------

def test_criterion_01_carrier_dimension():
    t0 = time.time()
    ok = True
    details = []
    for k, d in itertools.product((1, 2), (1, 2)):
        prof_w = window(2, k, d)
        S = sectors(window_model(2, k, d), prof_w.L)
        L2 = double_preimage(prof_w.group, prof_w.L)
        v2_order = L2.order // prof_w.L.order
        ok &= S.vacuum_dim == 2 ** d
        ok &= v2_order == 2 ** (2 * d)
        details.append(f"(k={k},d={d}): dim H^L={S.vacuum_dim}, |V2|={v2_order}")
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    _line(1, "carrier dimension 2^d and |(L/2)/L| = 2^(2d) on p=2 windows", ok,
          "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_02_odd_p_vacuum():
    ok = True
    details = []
    for p, k, d in [(3, 1, 1), (3, 1, 2), (5, 1, 1)]:
        w = window(p, k, d)
        S = sectors(window_model(p, k, d), w.L)
        ok &= S.vacuum_dim == 1
        ok &= all(v == 1 for v in S.dims.values())
        details.append(f"({p},{k},{d}): vacuum={S.vacuum_dim}, sectors all 1")
    _line(2, "odd-p windows have a vacuum line and one-dimensional sectors", ok,
          "; ".join(details))


def test_criterion_03_fermionic_relations():
    ok = True
    worst = 0.0
    for k, d in itertools.product((1, 2), (1, 2)):
        w = window(2, k, d)
        D = descend(window_model(2, k, d), w.L)
        C = clifford_basis(D)
        worst = max(worst, C.max_residual)
        ok &= C.max_residual <= TOL
        ok &= len(C.elements) == 2 * d
        if d == 1:
            mats = [E.matrix for E in C.operators]
            def matches(M, target):
                i = np.argmax(np.abs(target))
                lam = M.flat[i] / target.flat[i]
                return abs(abs(lam) - 1) < 1e-9 and np.abs(M - lam * target).max() <= 1e-9
            diag = np.diag([1.0, -1.0])
            swap = np.array([[0.0, 1.0], [1.0, 0.0]])
            pair_ok = (matches(mats[0], diag) and matches(mats[1], swap)) or \
                      (matches(mats[0], swap) and matches(mats[1], diag))
            ok &= pair_ok
    _line(3, "Clifford relations E_i^2 = 1, E_i E_j = -E_j E_i at 1e-9; "
             "d=1 pair is (diag(1,-1), swap) up to phase", ok,
          f"max residual {worst:.2e}")


# ---------------------------------------------------------------------------

def _random_group(rng, choices=(2, 3, 4, 5, 6, 9), max_rank=2, max_order=81):
    while True:
        rank = rng.randrange(1, max_rank + 1)
        moduli = [rng.choice(choices) for _ in range(rank)]
        G = FinAbGroup(moduli)
        if G.order <= max_order:
            return G


def _random_bicharacter(rng, G):
    mat = []
    for ni in G.moduli:
        row = []
        for nj in G.moduli:
            g = gcd(ni, nj)
            row.append(Phase(rng.randrange(0, g), g))
        mat.append(row)
    return Bicharacter(G, mat)


def _random_alternating(rng, G):
    mat = [[ZERO] * G.rank for _ in range(G.rank)]
    for i in range(G.rank):
        for j in range(i + 1, G.rank):
            g = gcd(G.moduli[i], G.moduli[j])
            mat[i][j] = Phase(rng.randrange(0, g), g)
            mat[j][i] = -1 * mat[i][j]
    return Bicharacter(G, mat)


def _random_phase_map(rng, G, max_den=12):
    vals = {x.coords: (Phase(rng.randrange(0, max_den), max_den)
                       if not x.is_zero() else ZERO) for x in G.elements()}
    return PhaseMap(G, vals)


def test_criterion_04_exact_algebra_suite():
    rng = random.Random(41214)
    instances = 0
    ok = True

    # multiplier axioms and alternating antisymmetrization
    for _ in range(120):
        G = _random_group(rng)
        b = _random_bicharacter(rng, G)
        m = b
        # the form is decided on its matrix; its table goes through Light's test and pair_grid
        ok &= check_multiplier(m).passed
        ok &= check_multiplier(TableMultiplier.from_multiplier(b)).passed
        mt = antisymmetrize(m)
        ok &= mt.is_alternating
        x = G.element([rng.randrange(0, n) for n in G.moduli])
        y = G.element([rng.randrange(0, n) for n in G.moduli])
        ok &= mt(x, y) == m(x, y) - m(y, x)
        instances += 1

    # twist invariance of the antisymmetrization
    for _ in range(120):
        G = _random_group(rng, max_order=36)
        m = _random_bicharacter(rng, G)
        a = _random_phase_map(rng, G)
        ok &= antisymmetrize(twist(m, a)) == antisymmetrize(m)
        instances += 1

    # polar antitonicity and polar^3 = polar (alternating forms)
    for _ in range(120):
        G = _random_group(rng, choices=(2, 3, 4, 9), max_rank=2, max_order=81)
        m = _random_alternating(rng, G)
        A = subgroup_span(G, [G.element([rng.randrange(0, n) for n in G.moduli])])
        B = subgroup_span(G, list(A.generators)
                          + [G.element([rng.randrange(0, n) for n in G.moduli])])
        ok &= polar(B, m).is_subset_of(polar(A, m))
        ok &= A.is_subset_of(polar(polar(A, m), m))
        ok &= polar(polar(polar(A, m), m), m) == polar(A, m)
        instances += 1

    # the polar relation for the antisymmetrization
    from weylkit import polar_tilde
    for _ in range(100):
        G = _random_group(rng, choices=(3, 4, 9), max_rank=2, max_order=81)
        m = _random_alternating(rng, G)
        A = subgroup_span(G, [G.element([rng.randrange(0, n) for n in G.moduli])])
        lhs, rhs = polar_tilde(A, m)
        ok &= lhs == rhs
        instances += 1

    # square roots on 2-regular groups
    for _ in range(120):
        G = _random_group(rng, choices=(3, 5, 9, 15, 25, 27), max_rank=2, max_order=81)
        b = _random_bicharacter(rng, G)
        r = sqrt_bicharacter(b)
        ok &= r.scale(2) == b
        ok &= sqrt_bicharacter(b.scale(2)) == b
        instances += 1

    # uniqueness of the square root by exhaustion over all bicharacters
    for moduli in [(3,), (5,), (7,), (9,), (15,), (25,), (27,), (3, 3), (5, 5), (3, 9)]:
        G = FinAbGroup(moduli)
        entry_mods = [gcd(ni, nj) for ni in moduli for nj in moduli]
        doubles = set()
        count = 0
        for nums in itertools.product(*(range(g) for g in entry_mods)):
            doubles.add(tuple((2 * t) % g for t, g in zip(nums, entry_mods)))
            count += 1
        ok &= len(doubles) == count  # doubling is injective: square roots are unique
        instances += count

    _line(4, "exact algebra suite at zero tolerance", ok and instances >= 1000,
          f"{instances} randomized/exhaustive instances, seed pinned")


def test_criterion_05_split_symmetric():
    rng = random.Random(55901)
    ok = True
    count = 0
    while count < 200:
        G = _random_group(rng, choices=(2, 3, 4, 6, 8), max_rank=2, max_order=64)
        cmap = _random_phase_map(rng, G, max_den=8)
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
        m = TableMultiplier.from_function(
            G, lambda x, y: cmap(x) + cmap(y) - cmap(x + y) + sym(x, y))
        c = split_symmetric(m)
        for a in G.elements():
            for b2 in G.elements():
                ok &= m(a, b2) == c(a + b2) - c(a) - c(b2)
        count += 1
    # denominator growth: m(1,1) = 1/2 on Z/2 needs c(1) = 1/4
    G2 = FinAbGroup([2])
    m2 = TableMultiplier.from_function(G2, lambda x, y: Phase(x.coords[0] * y.coords[0], 2))
    c2 = split_symmetric(m2)
    ok &= c2(G2.element([1])) == Phase(1, 4)
    _line(5, "split_symmetric leaves exactly zero residual", ok,
          f"{count} randomized symmetric cocycles; Z/2 growth case c(1)=1/4")


def _suite_models():
    """Models with their sector subgroups; built once per call (small)."""
    out = []
    G9, m9, L9, W9 = z9_setup()
    out.append(("z9", W9, L9))
    Gf, mf = f2_setup(2)
    Af = subgroup_span(Gf, [Gf.element([1, 0])])
    out.append(("f2", induced_model(Gf, mf, Af), Af))
    for key in [(3, 1, 1), (5, 1, 1), (2, 1, 1), (2, 1, 2), (2, 2, 1)]:
        out.append((f"window{key}", window_model(*key), window(*key).L))
    return out


def test_criterion_06_rep_law_and_commutator():
    ok = True
    details = []
    models = []
    models.append(("schrodinger Z/2", schrodinger_model(FinAbGroup([2]))))
    models.append(("schrodinger Z/3", schrodinger_model(FinAbGroup([3]))))
    models.append(("schrodinger Z/4", schrodinger_model(FinAbGroup([4]))))
    for name, W, _ in _suite_models():
        models.append((name, W))
    for two_d in (4, 6):
        G, m = f2_setup(two_d)
        A = extend_maximal(subgroup_span(G, []), antisymmetrize(m))
        models.append((f"f2^{two_d}", induced_model(G, m, A)))
    wm = window_model(3, 1, 2)
    models.append(("window(3,1,2)", wm))
    for name, W in models:
        law = check_rep_law(W)
        comm = commutator_scalar_check(W)
        ok &= law.passed and comm.passed
        assert law.checks[0].note == f"exhaustive over {W.group.order}^2 pairs"
        if not (law.passed and comm.passed):
            details.append(f"FAIL {name}")
    _line(6, "representation law and commutation rule at 1e-9 "
             "(exhaustive for |G| <= 512)", ok, f"{len(models)} models")


def test_criterion_07_irreducibility_uniqueness():
    ok = True
    details = []
    for key in [(3, 1, 1), (5, 1, 1), (3, 1, 2)]:
        cd = commutant_d(window_model(*key))
        ok &= cd == 1
        details.append(f"window{key}: commutant={cd}")
    for two_d in (2, 4, 6):
        G, m = f2_setup(two_d)
        A = extend_maximal(subgroup_span(G, []), antisymmetrize(m))
        cd = commutant_d(induced_model(G, m, A))
        ok &= cd == 1
        details.append(f"f2^{two_d}: commutant={cd}")

    # two distinct maximal isotropic subgroups give a one-dimensional,
    # unitary intertwiner space
    G9, m9, L9, W9 = z9_setup()
    line = extend_maximal(subgroup_span(G9, []), antisymmetrize(m9))
    assert line != L9
    W9b = induced_model(G9, m9, line)
    res = intertwiner(W9, W9b)
    ok &= res["dimension"] == 1 and res["unitary_defect"] <= TOL

    Gf, mf = f2_setup(2)
    Wa = induced_model(Gf, mf, subgroup_span(Gf, [Gf.element([1, 0])]))
    Wb = induced_model(Gf, mf, subgroup_span(Gf, [Gf.element([0, 1])]))
    res2 = intertwiner(Wa, Wb)
    ok &= res2["dimension"] == 1 and res2["unitary_defect"] <= TOL

    WW = W9.direct_sum(W9)
    ok &= commutant_d(WW) == 4
    ok &= intertwiner(WW, W9)["dimension"] == 2
    _line(7, "irreducibility and uniqueness instances "
             "(commutant 1; intertwiner line unitary; 2-copy sums)", ok,
          "; ".join(details))


def test_criterion_08_sector_structure():
    ok = True
    details = []
    for name, W, L in _suite_models():
        S = sectors(W, L)
        ok &= sum(S.dims.values()) == W.dim
        ok &= S.eigen_check().passed
        G = W.group
        xs = G.generators()[:2]
        for x in xs:
            ok &= permute_check(S, x).passed
        ok &= normalizer_check(S).passed
        # the whole vacuum generates a subspace whose projection back is the vacuum
        generated_subspace(W, L, range(S.vacuum_dim))
        details.append(f"{name}: ok")
    # the largest window: completeness and the vacuum eigen-characterization
    w = window(2, 2, 2)
    S = sectors(window_model(2, 2, 2), w.L)
    ok &= sum(S.dims.values()) == 256
    ok &= S.eigen_check().passed
    # orthogonality preservation needs a reducible model
    G9, m9, L9, W9 = z9_setup()
    WW = W9.direct_sum(W9)
    # the two vacuum columns generate disjoint sets of orthonormal sector basis vectors
    S1 = generated_subspace(WW, L9, [0])
    S2 = generated_subspace(WW, L9, [1])
    ok &= len(S1) == len(S2) == W9.dim and not set(S1) & set(S2)
    _line(8, "sector completeness, eigen characterization, permutation, "
             "normalizer, PH(K)=K, orthogonality", ok, f"{len(details) + 1} models")


def test_criterion_09_descended_multiplier_match():
    ok = True
    for k, d in itertools.product((1, 2), (1, 2)):
        w = window(2, k, d)
        D = descend(window_model(2, k, d), w.L)
        p_half = 2 ** (k - 1)
        gens = [w.group.element([p_half if j == i else 0 for j in range(2 * d)])
                for i in range(2 * d)]
        proj = [D.quotient.project(g) for g in gens]
        for i in range(2 * d):
            for j in range(2 * d):
                expected = HALF if abs(i - j) == d else ZERO
                ok &= D.n(proj[i], proj[j]) == expected
    _line(9, "descended antisymmetrization equals chi(b1.a2 - b2.a1) exactly", ok)


def test_criterion_10_negative_scope_checks():
    ok = True
    details = []
    for k, d in itertools.product((1, 2), (1, 2)):
        w = window(2, k, d)
        ok &= not is_heisenberg(w.m)
        rad = antisymmetrize(w.m).radical()
        if k == 1:
            twoG = subgroup_span(w.group, [2 * g for g in w.group.generators()])
            ok &= rad == twoG
        ok &= rad.order == 2 ** (2 * d)
    for key in [(2, 1, 1), (2, 1, 2), (2, 2, 1)]:
        w = window(*key)
        W = window_model(*key)
        cd = commutant_d(W)
        D = descend(W, w.L)
        cd0 = commutant_d(D.rep0)
        ok &= cd > 1 and cd0 == 1
        details.append(f"{key}: window commutant={cd}, descended={cd0}")
    _line(10, "p=2 windows are non-Heisenberg and reducible; "
              "their descended vacuum action is irreducible", ok,
          "; ".join(details))
