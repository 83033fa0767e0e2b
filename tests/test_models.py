import functools
import importlib
import random
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weylkit.errors import (ENTRY_BUDGET, DefectError, InputError, PreconditionError,
                            ResourceLimitError)
from weylkit.groups import FinAbGroup, Subgroup, subgroup_span
from weylkit.isotropy import extend_maximal
from weylkit.models import (
    _intertwining_orbits,
    Operator,
    ProjectiveRep,
    check_rep_law,
    commutant_d,
    commutator_scalar_check,
    identity_operator,
    induced_model,
    intertwiner,
    regular_rep,
    schrodinger_model,
)
from weylkit.multipliers import (Bicharacter, Multiplier, PhaseMap, TableMultiplier, antisymmetrize,
                                 check_splitting, split_symmetric, twist, zero_multiplier)
from weylkit.phases import Phase, ZERO
from weylkit.reports import VerificationReport
from weylkit.vacuum import descend

from conftest import (block_symplectic_model, f2_setup, first_splitting_failure, fresh_rep,
                      same_multiplier_pairs, window, window_model, z9_setup)

# the module, not a name that ``weylkit/__init__.py`` might rebind
models = importlib.import_module("weylkit.models")


def proportional(A, B, tol=1e-9):
    """A = lambda * B for some unit scalar."""
    i = np.unravel_index(np.argmax(np.abs(B)), B.shape)
    if abs(B[i]) < tol:
        return np.abs(A).max() < tol
    lam = A[i] / B[i]
    return abs(abs(lam) - 1) < 1e-6 and np.abs(A - lam * B).max() < 1e-6


# -- Schrodinger -----------------------------------------------------------

def test_schrodinger_z2_matrices():
    W = schrodinger_model(FinAbGroup([2]))
    G = W.group
    U = W.operator(G.element([1, 0])).matrix
    V = W.operator(G.element([0, 1])).matrix
    W11 = W.operator(G.element([1, 1])).matrix
    assert np.allclose(U, np.diag([1, -1]))
    assert np.allclose(V, np.array([[0, 1], [1, 0]]))
    assert np.allclose(W11, np.array([[0, 1], [-1, 0]]))


def test_schrodinger_z3_exhaustive_law():
    W = schrodinger_model(FinAbGroup([3]))
    rep = check_rep_law(W)
    assert rep.passed
    assert rep.max_residual == 0.0  # monomial path is exact


def test_schrodinger_trivial():
    W = schrodinger_model(FinAbGroup([]))
    assert W.dim == 1


def test_schrodinger_needs_nondegenerate_pairing():
    from weylkit.multipliers import Bicharacter
    A = FinAbGroup([2, 2])
    degenerate = Bicharacter(A, [[Phase(1, 2), ZERO], [ZERO, ZERO]])
    with pytest.raises(InputError):
        schrodinger_model(A, degenerate)


# -- induced models --------------------------------------------------------

def test_induced_f2_matrices(f2):
    G, m = f2
    A = subgroup_span(G, [G.element([1, 0])])
    W = induced_model(G, m, A)
    e1, e2, e12 = G.element([1, 0]), G.element([0, 1]), G.element([1, 1])
    assert np.allclose(W.operator(e1).matrix, np.diag([1, -1]))
    assert np.allclose(W.operator(e2).matrix, np.array([[0, 1], [1, 0]]))
    assert np.allclose(W.operator(e12).matrix, np.array([[0, 1], [-1, 0]]))
    M1, M2 = W.operator(e1).matrix, W.operator(e2).matrix
    assert np.allclose(M1 @ M2, -M2 @ M1)


def test_induced_z9(z9):
    G, m, L, W = z9
    assert W.dim == 9
    assert commutant_d(W) == 1
    assert check_rep_law(W).passed


def test_induced_whole_group_scalars():
    G = FinAbGroup([3])
    m = zero_multiplier(G)
    W = induced_model(G, m, Subgroup.full(G))
    assert W.dim == 1


def test_induced_rejects_bad_subgroup(z9):
    G, m, L, _ = z9
    tiny = subgroup_span(G, [])  # not maximal isotropic
    with pytest.raises(PreconditionError):
        induced_model(G, m, tiny)


def test_induced_rejects_bad_splitting(z9):
    G, m, L, _ = z9
    bad = PhaseMap(G, {a.coords: (Phase(1, 3) if not a.is_zero() else ZERO)
                       for a in L.elements()})
    with pytest.raises(PreconditionError):
        induced_model(G, m, L, bad)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_splitting_validation_names_the_first_failing_pair(data):
    # the canonical splitting of the vacuum-9595 Lagrangian, shifted at a few elements
    W = block_symplectic_model(*VACUUM_9595)
    G, m = W.group, W.multiplier
    A = subgroup_span(G, [G.element(g) for g in VACUUM_9595[2]])
    values = dict(split_symmetric(m, A).values)
    elems = A.elements()
    for i in data.draw(st.lists(st.integers(1, len(elems) - 1), max_size=3)):
        values[elems[i].coords] += Phase(data.draw(st.integers(1, 44)), 45)
    c = PhaseMap(G, values)
    want = first_splitting_failure(m, A, c)
    if want is None:
        check_splitting(m, A, c)
    else:
        with pytest.raises(PreconditionError) as exc:
            check_splitting(m, A, c)
        assert str(exc.value) == f"splitting fails at {want}"


def test_splitting_validation_refuses_a_missing_element(z9):
    G, m, L, _ = z9
    values = dict(split_symmetric(m, L).values)
    del values[(3, 6)], values[(0, 3)]
    with pytest.raises(InputError, match=r"undefined at \(0, 3\)"):
        check_splitting(m, L, PhaseMap(G, values))


def test_induced_nontrivial_splitting_f2_4():
    # on F_2^4 the maximal isotropic for m~ carries a symmetric but nonzero
    # restriction, so the splitting must grow denominators
    G, m = f2_setup(4)
    from weylkit.isotropy import extend_maximal
    A = extend_maximal(subgroup_span(G, []), antisymmetrize(m))
    assert A.order == 4
    c = split_symmetric(m, A)
    assert any(c(a).den == 4 for a in A.elements())
    W = induced_model(G, m, A)
    assert W.dim == 4
    assert check_rep_law(W).passed
    assert commutant_d(W) == 1


# -- law and commutator checks ---------------------------------------------

def test_rep_law_fault_injection():
    W = schrodinger_model(FinAbGroup([3]))
    x = W.group.element([1, 0])
    bad = W.with_override(x, identity_operator(W.dim))
    rep = check_rep_law(bad)
    assert not rep.passed
    assert any(c.witness is not None for c in rep.checks if not c.passed)


def _z9_case():
    """The (Z/9)^2 induced model, overridden at (1, 2)."""
    G, _, _, W = z9_setup()
    return W, G.element([1, 2])


def _descended_case():
    """The descended action of window (2,1,1), overridden at (1, 0)."""
    R = descend(window_model(2, 1, 1), window(2, 1, 1).L).rep0
    return R, R.group.element([1, 0])


def _window_312_case():
    """Window (3,1,2), |G| = 6561 > 512, overridden at (0, 8, 5, 7), off the generators."""
    W = window_model(3, 1, 2)
    return W, W.group.element([0, 8, 5, 7])


# (case, checker, check name, witness, note, residual), each with the identity
# operator, a monomial one, as the override.  The pairs of the presentation
# decide the law and report the first failing one in their order; the
# commutator of a rep whose law fails scans all |G|^2 pairs within the budget
# and reports the worst pair.  Window (3,1,2) keeps no rows and its |G|^2 pairs
# pass the budget, so that commutator is refused (note None), not sampled.
FAULTS = [
    (_z9_case, check_rep_law, "law", ((1, 1), (0, 1)),
     "exhaustive over 81^2 pairs", 1.0),
    (_z9_case, commutator_scalar_check, "commutator", ((1, 0), (1, 2)),
     "exhaustive over 81^2 pairs", 1.9696155060244163),
    (_descended_case, check_rep_law, "law", ((1, 0), (0, 1)),
     "exhaustive over 4^2 pairs", 1.0),
    (_descended_case, commutator_scalar_check, "commutator", ((1, 0), (0, 1)),
     "exhaustive over 4^2 pairs", 2.0),
    (_window_312_case, check_rep_law, "law", ((0, 8, 5, 6), (0, 0, 0, 1)),
     "exhaustive over 6561^2 pairs", 1.0),
    (_window_312_case, commutator_scalar_check, "commutator", None, None, None),
]


@pytest.mark.parametrize(
    "case,checker,name,witness,note,residual", FAULTS,
    ids=[f"{f[0].__name__.strip('_')}-monomial-{f[2]}" for f in FAULTS])
def test_identity_fault_injection(case, checker, name, witness, note, residual):
    W, x = case()
    assert checker(W).passed
    faulty = W.with_override(x, identity_operator(W.dim))
    if note is None:
        with pytest.raises(ResourceLimitError, match="commutator pairs 43046721 exceeds"):
            checker(faulty)
        return
    rep = checker(faulty)
    failed = [c for c in rep.checks if not c.passed]
    assert [c.name for c in failed] == [name]
    assert failed[0].witness == witness
    assert failed[0].note == note
    assert failed[0].residual == pytest.approx(residual, abs=1e-9)


def test_w0_must_be_the_identity_exactly():
    # e(1/10^10) is within 1e-9 of 1 as a float, but it is not 1
    G = FinAbGroup([3])
    near = identity_operator(3).scaled(Phase(1, 10 ** 10))
    with pytest.raises(DefectError, match=r"W\(0\) is not the identity"):
        regular_rep(G).with_override(G.zero(), near)


def _window_311_case():
    """Window (3,1,1), |G| = 81, small enough for the exhaustive tier."""
    W = window_model(3, 1, 1)
    return W, W.group.element([2, 5])


@pytest.mark.parametrize("case,note", [
    (_window_312_case, "exhaustive over 6561^2 pairs"),
    (_window_311_case, "exhaustive over 81^2 pairs"),
], ids=["3-1-2-presentation", "3-1-1-exhaustive"])
def test_near_scalar_fault_fails_every_tier(case, note):
    # W(x) scaled by e(1/10^10): every pair through x is off by a distance of
    # 2 pi 10^-10, below any float tolerance, and every tier must still fail it
    W, x = case()
    faulty = W.with_override(x, W.operator(x).scaled(Phase(1, 10 ** 10)))
    law = check_rep_law(faulty)
    assert [c.name for c in law.checks if not c.passed] == ["law"]
    bad = law.checks[-1]
    assert bad.note == note
    assert bad.residual == pytest.approx(2 * np.pi * 1e-10, rel=1e-3)
    wx, wy = (W.group.element(c) for c in bad.witness)
    assert x in (wx, wy, wx + wy)
    # a scalar fault leaves every commutator as it was; past the budget, with the
    # law failing, no exact tier decides it, and it is refused
    if W.group.order ** 2 <= ENTRY_BUDGET:
        assert commutator_scalar_check(faulty).passed
    else:
        with pytest.raises(ResourceLimitError, match="ENTRY_BUDGET"):
            commutator_scalar_check(faulty)


@pytest.mark.parametrize("checker", [check_rep_law, commutator_scalar_check])
@pytest.mark.parametrize("wrong", [False, True], ids=["own-multiplier", "zero-multiplier"])
def test_batched_pair_scan_matches_pairwise(checker, wrong):
    # window (3,1,2) keeps no rows: its pairs P are streamed through the formula in
    # blocks and must report exactly what the pairwise scan of P's operators does; a law
    # that holds decides the commutator, and the commutator of one that fails is refused
    W = window_model(3, 1, 2)
    m = zero_multiplier(W.group) if wrong else W.multiplier
    rep = ProjectiveRep(W.group, m, W.dim, W.fn, W.den)
    if wrong and checker is commutator_scalar_check:
        with pytest.raises(ResourceLimitError, match="commutator pairs 43046721 exceeds"):
            checker(rep)
        return
    got = checker(rep).checks[-1]
    assert got.to_dict() == presentation_oracle(rep, got.name)
    assert got.passed == (not wrong)


def pair_distance(W, phase, swapped, x, y):
    """The largest entry of |W(x) W(y) - e(phase(x, y)) R(x, y)|, from the operators."""
    lhs = W.operator(x).compose(W.operator(y))
    rhs = W.operator(y).compose(W.operator(x)) if swapped else W.operator(x + y)
    return lhs.distance_to(rhs.scaled(phase(x, y)))


def presentation_oracle(W, name):
    """Check ``name`` as a per-pair scan of the law at P reports it: each pair of P, in
    P's order, composed from its operators; the witness is the first failing pair."""
    G = W.group
    rep = VerificationReport("oracle")
    note = f"exhaustive over {G.order}^2 pairs"
    for i, j in presentation_order(G):
        x, y = G.element_by_rank(i), G.element_by_rank(j)
        dist = pair_distance(W, W.multiplier, False, x, y)
        if dist > 0:
            rep.add(name, False, residual=dist, witness=(x.coords, y.coords), note=note)
            return rep.checks[0].to_dict()
    rep.add(name, True, residual=0.0, note=note)
    return rep.checks[0].to_dict()


@pytest.mark.parametrize("checker", [check_rep_law, commutator_scalar_check])
def test_batched_pair_scan_builds_no_operator(checker):
    # on a correct batched model the block formula settles every pair of P
    W = window_model(3, 1, 2)
    seen = []

    def counted(Y):
        seen.append(Y.copy())
        return W.fn(Y)

    strict = ProjectiveRep(W.group, W.multiplier, W.dim, counted, W.den)
    assert checker(strict).passed
    # one-row calls only at 0 and at the generators; the pairs of P are read in whole blocks
    gens = {g.coords for g in W.group.generators()}
    assert all(not Y.any() or tuple(Y[0].tolist()) in gens for Y in seen if len(Y) == 1)
    assert 0 < sum(len(Y) for Y in seen if len(Y) > 1) <= 3 * len(presentation_order(W.group))


def presentation_order(G):
    """The rank pairs of P in the order the law check reads them: the prefix pairs
    (y, g_l) of each generator g_l, then the commutation pairs (g_j, g_i), j > i."""
    gens = G.generators()
    prefix = [(y, g.rank) for g in gens for y in range(G.moduli[g.coords.index(1)] * g.rank)]
    return prefix + [(gj.rank, gi.rank) for j, gj in enumerate(gens) for gi in gens[:j]]


def assert_checks_match_all_pairs(W):
    """Law and commutator verdicts equal ``all_pairs_hold`` over all |G|^2 pairs (|G| <= 512).

    Both checks are exhaustive, and each failing witness is a failing pair,
    measured by ``pair_distance``.  A failing law's witness is the first
    failing pair of P in P's order; a failing commutator's is the worst
    failing pair, so its residual is at least the distance at the first one.
    """
    G = W.group
    mt = antisymmetrize(W.multiplier)
    law, comm = check_rep_law(W), commutator_scalar_check(W)
    law_holds = all_pairs_hold(W, W.multiplier, False)
    comm_holds = all_pairs_hold(W, mt, True)
    for rep, holds, phase, swapped in ((law, law_holds, W.multiplier, False),
                                       (comm, comm_holds, mt, True)):
        [check] = rep.checks
        assert check.passed == holds.all()
        assert check.note == f"exhaustive over {G.order}^2 pairs"
        if check.passed:
            assert (check.witness, check.residual) == (None, 0.0)
            continue
        x, y = (G.element(c) for c in check.witness)
        assert not holds[x.rank, y.rank]
        assert check.residual == pair_distance(W, phase, swapped, x, y)
        if swapped:
            i, j = np.argwhere(~holds)[0].tolist()
            first = pair_distance(W, phase, True, G.element_by_rank(i), G.element_by_rank(j))
            assert check.residual >= first
        else:
            assert (x.rank, y.rank) == next(p for p in presentation_order(G) if not holds[p])
    return law, comm


@st.composite
def faulted_reps(draw):
    """A rep of order <= 512, and maybe a fault: one operator replaced by a random
    monomial one, or one phase of one operator shifted."""
    if draw(st.booleans()):
        W = draw(same_multiplier_pairs())[0]
    else:
        sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=2).filter(
            lambda ms: np.prod(ms) ** 4 <= ENTRY_BUDGET))
        W = schrodinger_model(FinAbGroup(sizes))
    assume(W.group.order ** 2 <= ENTRY_BUDGET)
    return draw_fault(draw, W)


def draw_fault(draw, W):
    """(W, "none"), or W with one operator replaced by a random monomial one or one
    phase of one operator shifted, and the kind of fault."""
    fault = draw(st.sampled_from(["none", "operator", "phase"]))
    if fault == "none" or W.group.order == 1:
        return W, "none"
    x = W.group.element_by_rank(draw(st.integers(1, W.group.order - 1)))
    op = W.operator(x)
    den = 2 * op.den                     # so that a shift by 1 .. den - 1 always moves the phase
    if fault == "operator":
        src = np.array(draw(st.permutations(range(W.dim))))
        num = np.array(draw(st.lists(st.integers(0, den - 1), min_size=W.dim, max_size=W.dim)))
    else:
        src, num = op.src, 2 * op.num
        num[draw(st.integers(0, W.dim - 1))] += draw(st.integers(1, den - 1))
    return W.with_override(x, Operator(W.dim, den, src, num)), fault


@settings(max_examples=60, deadline=None)
@given(case=faulted_reps())
def test_generator_decision_matches_full_scan(case):
    # the law and commutator verdicts equal the scan of all pairs, faulted or not
    W, fault = case
    law, comm = assert_checks_match_all_pairs(W)
    if fault == "none":
        assert law.passed and comm.passed


@st.composite
def twisted_or_unit_factor_reps(draw):
    """A Schrodinger or induced model over a coboundary-twisted table multiplier, on a
    group with a factor of modulus 1, or both; maybe with a fault (``draw_fault``)."""
    kind = draw(st.sampled_from(["twisted", "unit-factor", "both"]))
    moduli = draw(st.lists(st.integers(2, 5), min_size=1, max_size=2).filter(
        lambda ms: np.prod(ms) ** 4 <= ENTRY_BUDGET))
    if kind != "twisted":
        moduli.insert(draw(st.integers(0, len(moduli))), 1)
    W = schrodinger_model(FinAbGroup(moduli))
    if draw(st.booleans()):
        line = extend_maximal(subgroup_span(W.group, []), antisymmetrize(W.multiplier))
        W = induced_model(W.group, W.multiplier, line)
    if kind != "unit-factor":
        den = draw(st.sampled_from([2, 3, 4, 6]))
        W = W.twisted(PhaseMap(W.group, {x.coords: Phase(draw(st.integers(0, den - 1)) if x.rank else 0,
                                                          den) for x in W.group.elements()}))
        assert W.multiplier.backing() == "table"
    return draw_fault(draw, W)


@settings(max_examples=40, deadline=None)
@given(case=twisted_or_unit_factor_reps())
def test_presentation_decision_matches_full_scan_on_tables_and_unit_factors(case):
    W, fault = case
    law, comm = assert_checks_match_all_pairs(W)
    if fault == "none":
        assert law.passed and comm.passed


def normal_form_rep(m, U):
    """The rep W(x) = e(psi(x)) U_1^{x_1} ... U_r^{x_r} of multiplier m, from one operator
    U_l per coordinate: W(y + g_l) = e(-m(y, g_l)) W(y) U_l for the y with y_l < n_l - 1
    and y_{l+1} = ... = y_r = 0, so the prefix pairs of P other than the power pairs hold
    whatever the U_l are."""
    G = m.group
    dim = U[0].dim
    den = lcm(m.den, *(u.den for u in U))
    SRC = np.empty((G.order, dim), dtype=np.intp)
    NUM = np.empty((G.order, dim), dtype=np.int64)
    SRC[0], NUM[0] = np.arange(dim), 0
    for x in range(1, G.order):
        l = max(i for i, c in enumerate(G.coords_of(x)) if c)
        y = x - G._weights[l]
        g = G.element([int(i == l) for i in range(G.rank)])
        s = SRC[y]
        SRC[x] = U[l].src[s]
        NUM[x] = (NUM[y] + U[l]._num_at(den)[s] - m(G.element_by_rank(y), g).numerator_at(den)) % den
    weights = np.array(G._weights, dtype=np.int64)
    return ProjectiveRep(G, m, dim, lambda Y: (SRC[Y @ weights], NUM[Y @ weights]), den)


def presentation_pairs(G):
    """The rank pairs of P by kind: "prefix" (y, g_l), y_{l+1..r} = 0 and y_l < n_l - 1;
    "power" the same with y_l = n_l - 1; "commutation" (g_j, g_i), j > i."""
    kinds = {"prefix": [], "power": [], "commutation": []}
    gens = G.generators()
    for g in gens:
        l = g.coords.index(1)
        w, n = G._weights[l], G.moduli[l]
        kinds["prefix"] += [(y, w) for y in range(n * w - w)]
        kinds["power"] += [(y, w) for y in range(n * w - w, n * w)]
    kinds["commutation"] = [(gj.rank, gi.rank) for j, gj in enumerate(gens) for gi in gens[:j]]
    return kinds


def one_relation_broken(moduli, kind):
    """A rep of the Schrodinger multiplier of Z/moduli at which only the pairs of P of
    one ``kind`` fail: W(x) scaled at an x off the generators and their sums, whose top
    coordinate l has 1 = x_l < n_l - 1; U_l scaled so that U_l^{n_l} moves; or the
    generator operators of the Schrodinger model of the negated standard pairing."""
    A = FinAbGroup(moduli)
    W = schrodinger_model(A)
    G = W.group
    units = [G.element([int(i == l) for i in range(G.rank)]) for l in range(G.rank)]
    if kind == "prefix":
        l = max(i for i, n in enumerate(G.moduli) if n > 2)
        x = G.element([2] + [int(i == l) for i in range(1, G.rank)])
        return W.with_override(x, W.operator(x).scaled(Phase(1, 3)))
    U = [W.operator(u) for u in units]
    if kind == "power":
        U[0] = U[0].scaled(Phase(1, 2 * G.moduli[0]))
    else:
        negated = Bicharacter(A, [[ZERO if i != j else Phase(-1, n) for j in range(A.rank)]
                                  for i, n in enumerate(moduli)])
        U = [schrodinger_model(A, negated).operator(u) for u in units]
    return normal_form_rep(W.multiplier, U)


@pytest.mark.parametrize("moduli", [(5,), (3, 4)])
@pytest.mark.parametrize("kind", ["prefix", "power", "commutation"])
def test_each_relation_of_the_presentation_is_needed(moduli, kind):
    # every other pair of P holds, so P without its pairs of this kind would pass
    # a rep whose law fails; the law fails at the first failing pair of this kind
    W = one_relation_broken(moduli, kind)
    holds = all_pairs_hold(W, W.multiplier, False)
    kinds = presentation_pairs(W.group)
    failing = {k for k, pairs in kinds.items() if not all(holds[x, y] for x, y in pairs)}
    assert failing == {kind}
    law, _ = assert_checks_match_all_pairs(W)
    x, y = (W.group.element(c) for c in law.checks[0].witness)
    assert (x.rank, y.rank) in kinds[kind]
    assert models._presentation_fails(W)[:2] == (x.rank, y.rank)


def test_presentation_pairs_count():
    # sum_l n_1 ... n_l over the factors of modulus > 1, and r(r - 1)/2 commutation pairs
    G = FinAbGroup([9, 5, 1, 9, 5])
    assert sum(map(len, presentation_pairs(G).values())) == 9 + 45 + 405 + 2025 + 6


def test_generator_decision_needs_a_cocycle():
    # m vanishes on the columns of the generators, so the regular rep passes at
    # every pair of P; m is no cocycle, so a rep over it is refused when it is built
    G = FinAbGroup([4, 3])
    R = regular_rep(G)
    num = np.zeros((G.order, G.order), dtype=np.int64)
    num[5:, 7] = 1
    num[3, 11] = 1
    m = TableMultiplier(G, 2, num)
    with pytest.raises(PreconditionError, match="not a multiplier: cocycle fails"):
        ProjectiveRep(G, m, R.dim, R.fn, R.den)
    # with the verification forged, the pairs of P alone would pass this rep
    forged = TableMultiplier(G, 2, num)
    forged._verified = True
    W = ProjectiveRep(G, forged, R.dim, R.fn, R.den)
    assert check_rep_law(W).passed and not all_pairs_hold(W, forged, False).all()


@pytest.mark.parametrize("swapped", [False, True], ids=["law", "commutator"])
def test_generator_decision_with_a_wrong_bicharacter(z9, swapped):
    # W's rows over a bicharacter that is not their multiplier: both checks fail,
    # at the pairs that the scan of all pairs finds
    _, _, _, W = z9
    wrong = Bicharacter(W.group, [[ZERO, Phase(1, 9)], [ZERO, ZERO]])
    law, comm = assert_checks_match_all_pairs(ProjectiveRep(W.group, wrong, W.dim, W.fn, W.den))
    assert not (comm if swapped else law).passed


def count_pairs(monkeypatch) -> list:
    """Make every |G| x |G| table raise; returns the list that gets the number
    of pairs of each call of ``models._pairs_hold``."""
    def refuse(*args, **kwargs):
        raise AssertionError("reached a |G| x |G| table")

    monkeypatch.setattr(Multiplier, "num_table", refuse)
    monkeypatch.setattr(FinAbGroup, "addition_table", refuse)
    pairs = []
    kernel = models._pairs_hold

    def counted(W, phase, swapped, X, Y):
        pairs.append(max(len(X), len(Y)))
        return kernel(W, phase, swapped, X, Y)

    monkeypatch.setattr(models, "_pairs_hold", counted)
    return pairs


def assert_generator_pairs_only(checker, W, pairs):
    # on a fresh rep either check reads the pairs P once: sum_l n_1 ... n_l <= 2 |G|
    # prefix pairs and r(r - 1)/2 commutation pairs, far below the |G|^2 of a full scan
    pairs.clear()
    rep = checker(W)
    assert rep.passed
    assert rep.checks[-1].note == f"exhaustive over {W.group.order}^2 pairs"
    assert sum(pairs) == len(presentation_order(W.group)) <= W.group.order * (W.group.rank + 1)


def assert_commutator_after_law_reads_no_pairs(W, pairs):
    # the rep keeps the law's verdict at P, which decides the commutator too
    assert check_rep_law(W).passed
    pairs.clear()
    check = commutator_scalar_check(W).checks[-1]
    assert check.passed and check.note == f"exhaustive over {W.group.order}^2 pairs"
    assert pairs == []


# the vacuum-9595 model of the benchmark at seed 3: |G| = 2025, |G|^2 past ENTRY_BUDGET, dimension 45
VACUUM_9595 = ((9, 5, 9, 5), (7, 4), ((3, 0, 0, 0), (0, 0, 3, 0), (0, 1, 0, 0)))


def test_correct_model_never_scans_pairs(monkeypatch):
    # the generator pairs decide a correct bicharacter model: no |G|^2 scan,
    # no |G| x |G| multiplier table and no addition table
    W = block_symplectic_model((7, 3, 7, 3), (3, 2), ((1, 0, 0, 0), (0, 1, 0, 0)))
    W1, W2, W3, W4 = (fresh_rep(W) for _ in range(4))
    pairs = count_pairs(monkeypatch)
    assert_generator_pairs_only(check_rep_law, W1, pairs)
    assert_generator_pairs_only(commutator_scalar_check, W2, pairs)
    assert_commutator_after_law_reads_no_pairs(W3, pairs)
    assert_generator_pairs_only(check_rep_law, W4.direct_sum(W4), pairs)


def test_correct_model_beyond_table_cap_never_scans_pairs(monkeypatch):
    # 2025 x 45 monomial entries fit ENTRY_BUDGET: the generator pairs decide
    # both checks exactly, with no sample of 20 000 pairs, |G|^2 scan or |G| x |G| table
    W1, W2, W3 = (fresh_rep(block_symplectic_model(*VACUUM_9595)) for _ in range(3))
    pairs = count_pairs(monkeypatch)
    assert_generator_pairs_only(check_rep_law, W1, pairs)
    assert_generator_pairs_only(commutator_scalar_check, W2, pairs)
    assert_commutator_after_law_reads_no_pairs(W3, pairs)


def test_presentation_reads_at_most_2490_pairs(monkeypatch):
    # P on vacuum-9595: 9 + 45 + 405 + 2025 prefix pairs and 6 commutation pairs, against
    # 5 x 2025 pairs (x, g) for the law; on a fresh rep either check reads P once, and
    # the commutator after the law on the same rep reads no pair
    reps = [fresh_rep(block_symplectic_model(*VACUUM_9595)) for _ in range(3)]
    pairs = count_pairs(monkeypatch)
    for checker, W in zip((check_rep_law, commutator_scalar_check), reps):
        pairs.clear()
        check = checker(W).checks[-1]
        assert check.passed and check.note == "exhaustive over 2025^2 pairs"
        assert sum(pairs) == 2490
    assert_commutator_after_law_reads_no_pairs(reps[2], pairs)


def test_induced_model_keeps_its_law_from_construction(monkeypatch):
    # the model decides its law when it is built, so neither check reads a pair, calls
    # the formula or keeps the |G| x dim rows
    W = block_symplectic_model.__wrapped__(*VACUUM_9595)
    pairs = count_pairs(monkeypatch)
    calls, fn = [], W.fn
    W.fn = lambda Y: calls.append(len(Y)) or fn(Y)
    assert W.law_holds
    for checker in (check_rep_law, commutator_scalar_check):
        check, = checker(W).checks
        assert check.passed and check.note == "exhaustive over 2025^2 pairs"
    assert pairs == [] and calls == [] and W._arrays is None


def test_fault_beyond_table_cap_fails_at_a_generator_pair():
    # scaling W(3, 2, 0, 0) breaks the law at few pairs; P finds one, and so do the pairs (x, g)
    W = fresh_rep(block_symplectic_model(*VACUUM_9595))
    G = W.group
    x0 = G.element([3, 2, 0, 0])
    gens = {g.coords for g in G.generators()}

    def assert_fails(check):
        assert not check.passed and check.residual > 0
        assert check.witness[1] in gens
        assert check.note == "exhaustive over 2025^2 pairs"

    scaled = W.with_override(x0, W.operator(x0).scaled(Phase(1, 3)))
    assert_fails(check_rep_law(scaled).checks[-1])
    # a scalar cannot move a commutator, so that identity holds at every pair; W's own
    # law fails, so the pairs (x, g) prove nothing, and the 2025^2 pairs are refused
    with pytest.raises(ResourceLimitError, match="commutator pairs 4100625 exceeds ENTRY_BUDGET"):
        commutator_scalar_check(scaled)
    # one shifted phase is no scalar, and both identities fail at a pair (x, g)
    op = W.operator(x0)
    num = 3 * op.num
    num[0] += 1
    shifted = W.with_override(x0, Operator(W.dim, 3 * op.den, op.src, num))
    for checker in (check_rep_law, commutator_scalar_check):
        assert_fails(checker(shifted).checks[-1])


def test_override_law_check_reads_whole_blocks():
    # the override patches the parent's formula, so the exact law check reads G in
    # whole blocks once and makes no one-row call: the witness pair's three
    # operators are read from the kept rows
    W = fresh_rep(block_symplectic_model(*VACUUM_9595))
    G = W.group
    x0 = G.element([3, 2, 0, 0])
    scaled = W.with_override(x0, W.operator(x0).scaled(Phase(1, 3)))
    calls, fn = [], scaled.fn
    scaled.fn = lambda Y: calls.append(len(Y)) or fn(Y)
    check = check_rep_law(scaled).checks[-1]
    # the first failing pair of P: the prefix pair (y, g_2) with y + g_2 = x0
    assert (check.passed, check.witness, check.note) == \
        (False, ((3, 1, 0, 0), (0, 1, 0, 0)), "exhaustive over 2025^2 pairs")
    assert check.residual == pytest.approx(3 ** 0.5, abs=1e-12)
    blocks = [n for n in calls if n > 1]
    assert sum(blocks) == G.order
    assert len(blocks) <= -(-G.order // (models.BLOCK_ENTRIES // W.dim))
    assert calls.count(1) == 0


def lookup_rep(W, SRC, NUM, den):
    """A batched rep whose block formula reads the rows (SRC, NUM) over den, in rank order."""
    weights = np.array(W.group._weights, dtype=np.int64)
    return ProjectiveRep(W.group, W.multiplier, W.dim, lambda Y: (SRC[Y @ weights], NUM[Y @ weights]),
                         den)


def all_pairs_hold(W, phase, swapped):
    """(|G| x |G|) mask of the pairs (x, y) where W(x) W(y) = e(phase(x, y)) R(x, y)
    holds exactly, R(x, y) = W(y) W(x) when ``swapped``, else W(x + y).

    Row x at a time from W's kept monomial rows, with no |G| x |G| table.
    """
    G = W.group
    n = G.order
    SRC, NUM, den0 = W.monomial_arrays()
    X = G.coords_array()
    moduli, weights = (np.array(t, dtype=np.int64) for t in (G.moduli, G._weights))
    d = lcm(den0, phase.den)
    NUM = NUM * (d // den0)
    holds = np.empty((n, n), dtype=bool)
    for x in range(n):
        sx, nx = SRC[x], NUM[x]
        src1, num1 = SRC[:, sx], nx[None, :] + NUM[:, sx]
        if swapped:
            src2, num2 = sx[SRC], NUM + nx[SRC]
        else:
            xy = (X[x] + X) % moduli @ weights
            src2, num2 = SRC[xy], NUM[xy]
        P = phase.pair_nums(np.repeat(X[x:x + 1], n, axis=0), X) * (d // phase.den)
        holds[x] = (src1 == src2).all(axis=1) & ((num1 - num2 - P[:, None]) % d == 0).all(axis=1)
    return holds


def assert_verdicts_match_all_pairs(W):
    """Law and commutator verdicts equal ``all_pairs_hold`` over all |G|^2 pairs.

    A failing check's witness is a failing pair (x, g), g a generator.  Only
    the commutator of a rep whose own law fails, and which holds at every
    (x, g), is refused, as |G|^2 passes the budget.
    """
    G = W.group
    n = G.order
    gens = {g.coords for g in G.generators()}
    mt = antisymmetrize(W.multiplier)
    law_holds = all_pairs_hold(W, W.multiplier, False)
    comm_holds = all_pairs_hold(W, mt, True)
    for checker, holds in ((check_rep_law, law_holds), (commutator_scalar_check, comm_holds)):
        if checker is commutator_scalar_check and holds.all() and not law_holds.all():
            with pytest.raises(ResourceLimitError, match=f"commutator pairs {n * n} exceeds"):
                checker(W)
            continue
        check = checker(W).checks[-1]
        assert check.passed == holds.all()
        assert check.note == f"exhaustive over {n}^2 pairs"
        if not check.passed:
            x, g = check.witness
            assert g in gens and not holds[G.rank_of(x), G.rank_of(g)]
    return law_holds.all(), comm_holds.all()


# |G|^2 = 625^2 is past ENTRY_BUDGET, dimension 25
MODEL_5555 = ((5, 5, 5, 5), (1, 2), ((1, 0, 0, 0), (0, 1, 0, 0)))


def test_exhaustive_verdict_beyond_table_cap_matches_all_pairs():
    W = fresh_rep(block_symplectic_model(*MODEL_5555))
    assert W.fits_arrays() and W.group.order ** 2 > ENTRY_BUDGET
    assert assert_verdicts_match_all_pairs(lookup_rep(W, *W.monomial_arrays())) == (True, True)


@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_exhaustive_verdict_beyond_table_cap_matches_all_pairs_under_faults(data):
    # one operator replaced by a random monomial one, one phase shifted, or a scalar applied
    W = fresh_rep(block_symplectic_model(*MODEL_5555))
    SRC, NUM, den0 = W.monomial_arrays()
    den = 2 * den0
    SRC, NUM = SRC.copy(), 2 * NUM
    x = data.draw(st.integers(1, W.group.order - 1))
    fault = data.draw(st.sampled_from(["operator", "phase", "scalar"]))
    if fault == "operator":
        SRC[x] = data.draw(st.permutations(range(W.dim)))
        NUM[x] = data.draw(st.lists(st.integers(0, den - 1), min_size=W.dim, max_size=W.dim))
    elif fault == "phase":
        NUM[x, data.draw(st.integers(0, W.dim - 1))] += data.draw(st.integers(1, den - 1))
    else:
        NUM[x] += data.draw(st.integers(1, den - 1))
    law, comm = assert_verdicts_match_all_pairs(lookup_rep(W, SRC, NUM % den, den))
    assert not law and comm == (fault == "scalar")


def test_coverage_of_each_case(z9):
    # a rep with kept rows: P decides the law, and the witness is P's first failing pair
    G, _, _, W = z9
    W = fresh_rep(W)
    bad = W.with_override(G.element([1, 2]), identity_operator(W.dim))
    law = check_rep_law(bad).checks[0]
    holds = all_pairs_hold(bad, bad.multiplier, False)
    x, g = next(p for p in presentation_order(G) if not holds[p])
    assert law.note == "exhaustive over 81^2 pairs"
    assert law.witness == (G.element_by_rank(x).coords, G.element_by_rank(g).coords)
    # the commutator of a rep whose law fails, |G|^2 within ENTRY_BUDGET: every pair
    assert commutator_scalar_check(bad).checks[0].note == "exhaustive over 81^2 pairs"
    # ... and past it: a failing pair (x, g), g a generator
    W5 = fresh_rep(block_symplectic_model(*MODEL_5555))
    x0 = W5.group.element([1, 2, 3, 4])
    op = W5.operator(x0)
    num = 3 * op.num
    num[0] += 1
    comm = commutator_scalar_check(W5.with_override(x0, Operator(W5.dim, 3 * op.den, op.src, num))
                                   ).checks[0]
    assert (comm.passed, comm.note) == (False, "exhaustive over 625^2 pairs")
    assert comm.witness[1] in {g.coords for g in W5.group.generators()}
    # window (3,1,2) keeps no rows: P, streamed through the formula, decides both checks
    W3 = fresh_rep(window_model(3, 1, 2))
    for checker in (check_rep_law, commutator_scalar_check):
        assert checker(W3).checks[0].note == "exhaustive over 6561^2 pairs"


@pytest.mark.parametrize("fill,failure", [((1, 2), "cocycle"), (None, "normalization")],
                         ids=["not-a-cocycle", "not-normalized"])
def test_rep_refuses_a_table_that_is_not_a_multiplier(fill, failure):
    # m(e1, e2) = 1/2 alone, or the constant 1/2: a cocycle that is not normalized
    G = FinAbGroup([2, 2])
    R = regular_rep(G)
    num = np.ones((4, 4), dtype=np.int64)
    if fill:
        num[:] = 0
        num[fill] = 1
    with pytest.raises(PreconditionError, match=f"not a multiplier: {failure} fails"):
        ProjectiveRep(G, TableMultiplier(G, 2, num), R.dim, R.fn, R.den)


def test_monomial_arrays_budget():
    # window (3,1,2): 6561 elements x dimension 81 = 531 441 entries
    W = window_model(3, 1, 2)
    assert not W.fits_arrays()
    with pytest.raises(ResourceLimitError) as exc:
        W.monomial_arrays()
    assert (exc.value.budget, exc.value.size) == ("ENTRY_BUDGET", 531_441)


def python_int_law(W) -> bool:
    """W(x) W(y) = e(m(x, y)) W(x + y) at every pair, in Python integers."""
    G, m = W.group, W.multiplier
    den_m, table = m.num_table()
    d = lcm(W.den, den_m)
    ops = [W.operator(x) for x in G.elements()]
    rows = [(op.src.tolist(), op.num.tolist(), d // op.den) for op in ops]
    table = table.tolist()
    for x, (sx, nx, kx) in enumerate(rows):
        for y, (sy, ny, ky) in enumerate(rows):
            sz, nz, kz = rows[G.rank_of((G.element_by_rank(x) + G.element_by_rank(y)).coords)]
            for i in range(W.dim):
                if sy[sx[i]] != sz[i] or (nx[i] * kx + ny[sx[i]] * ky - nz[i] * kz
                                          - table[x][y] * (d // den_m)) % d:
                    return False
    return True


@pytest.mark.parametrize("den", [3 * (2 ** 61 // 3), 3 * (2 ** 61 // 3) - 3,
                                 3 * (3 * 2 ** 60 // 3), 3 * (2 ** 62 // 3) - 3])
@pytest.mark.parametrize("fault", [False, True])
def test_law_over_a_coboundary_twist_near_int64(den, fault):
    # the Schrodinger model of Z/3 twisted by a coboundary over den, one phase of one
    # operator shifted by 1/den when ``fault``: the exact law check gives the verdict of
    # Python integers, or refuses with InputError once 3 den leaves int64
    W = schrodinger_model(FinAbGroup([3]))
    G = W.group
    rng = random.Random(den)
    a = PhaseMap(G, {x.coords: Phase(rng.randrange(den) if x.rank else 0, den)
                     for x in G.elements()})
    Wt = W.twisted(a)
    assert Wt.den == den
    if fault:
        x = G.element([1, 2])
        op = Wt.operator(x)
        num = op.num.copy()
        num[1] += 1
        Wt = Wt.with_override(x, Operator(W.dim, op.den, op.src, num))
    if 3 * den >= 2 ** 63:
        with pytest.raises(InputError, match="a law numerator over"):
            check_rep_law(Wt)
    else:
        assert check_rep_law(Wt).passed == python_int_law(Wt) == (not fault)


def test_scalar_twisted_model_passes(z9):
    import random
    G, m, L, W = z9
    rng = random.Random(6)
    a = PhaseMap(G, {x.coords: (Phase(rng.randrange(9), 9) if not x.is_zero() else ZERO)
                     for x in G.elements()})
    Wt = W.twisted(a)
    assert check_rep_law(Wt).passed
    assert commutator_scalar_check(Wt).passed


def test_commutator_values(f2, z9):
    G, m = f2
    A = subgroup_span(G, [G.element([1, 0])])
    W = induced_model(G, m, A)
    assert commutator_scalar_check(W).passed
    mt = antisymmetrize(m)
    e1, e2 = G.element([1, 0]), G.element([0, 1])
    assert mt(e1, e2) == Phase(1, 2)  # the anticommutation sign

    G9, m9, L9, W9 = z9
    mt9 = antisymmetrize(m9)
    x, y = G9.element([1, 0]), G9.element([0, 1])
    assert mt9(x, y) == Phase(2, 9)
    assert commutator_scalar_check(W9).passed


def test_commutator_trivial_multiplier():
    R = regular_rep(FinAbGroup([4]))
    rep = commutator_scalar_check(R)
    assert rep.passed  # abelian image: all commutators are the identity


# -- commutant and intertwiners --------------------------------------------

def test_commutant_direct_sum(z9):
    _, _, _, W = z9
    assert commutant_d(W.direct_sum(W)) == 4


def test_commutant_trivial_rep():
    G = FinAbGroup([3])
    W = induced_model(G, zero_multiplier(G), Subgroup.full(G))
    assert commutant_d(W) == 1


def kron_intertwiner_dim(W1, W2):
    """Oracle: dim {T : T W1(g) = W2(g) T for the generators}, by a Kronecker-system SVD."""
    n1, n2 = W1.dim, W2.dim
    gens = W1.group.generators()
    if not gens:
        return n1 * n2
    # T |-> T W1(g) - W2(g) T, acting on T stacked column by column
    K = np.vstack([np.kron(W1.operator(g).matrix.T, np.eye(n2))
                   - np.kron(np.eye(n1), W2.operator(g).matrix) for g in gens])
    sv = np.linalg.svd(K, compute_uv=False)
    return int((sv <= 1e-8).sum()) + (K.shape[1] - len(sv))


def kron_commutant_dim(W):
    """Oracle: dim {X : X W(g) = W(g) X for the generators}."""
    return kron_intertwiner_dim(W, W)


def trace_commutant_dim(W):
    """Oracle: the trace pass sum_g |tr W(g)|^2 / |G| over every operator."""
    val = sum(abs(np.trace(W.operator(x).matrix)) ** 2 for x in W.group.elements()) / W.group.order
    assert abs(val - round(val)) < 1e-6
    return round(val)


def intertwiner_basis(res):
    """The dense basis element of each solution orbit of an ``intertwiner`` result."""
    pattern = np.exp(2j * np.pi * res["phases"] / res["den"])
    return [np.where(res["orbit"] == k, pattern, 0) for k in range(res["dimension"])]


COMMUTANT_CASES = {
    "z9": lambda: z9_setup()[3],
    "z9-direct-sum": lambda: z9_setup()[3].direct_sum(z9_setup()[3]),
    "descended-2-1-2": lambda: descend(window_model(2, 1, 2), window(2, 1, 2).L).rep0,
    "trivial-group": lambda: regular_rep(FinAbGroup([])),
    "window-2-1-1": lambda: window_model(2, 1, 1),
    "window-2-1-2": lambda: window_model(2, 1, 2),
    "window-2-2-1": lambda: window_model(2, 2, 1),
    "window-3-1-1": lambda: window_model(3, 1, 1),
    "window-5-1-1": lambda: window_model(5, 1, 1),
    "schrodinger-2x3": lambda: schrodinger_model(FinAbGroup([2, 3])),
    # zero multiplier: the radical is all of G and every eigenspace is a line
    "regular-4x2": lambda: regular_rep(FinAbGroup([4, 2])),
    # a seeded twist is nonzero on the radical 2G x 2G: W(r)^2 is a scalar other than 1
    "window-2-1-2-twisted": lambda: window_model(2, 1, 2).twisted(_random_twist(FinAbGroup([4] * 4))),
    # the eigenspaces of the radical carry multiplicities 2 x 2
    "window-2-1-2-direct-sum": lambda: window_model(2, 1, 2).direct_sum(window_model(2, 1, 2)),
    # W(h_1)^2 = W(h_2)^2 = -1 on an orbit where h_2 acts as h_1: the count is 5 only once
    # both are rescaled to square to 1
    "line-plus-swap-twisted": lambda: _line_plus_swap().twisted(
        PhaseMap(FinAbGroup([2, 2]), {(0, 0): ZERO, (1, 0): Phase(1, 4), (0, 1): Phase(1, 4),
                                      (1, 1): ZERO})),
}


def _line_plus_swap():
    """The trivial line (+) the swap X^(x1 + x2) of two points, a rep of Z/2 x Z/2."""
    G = FinAbGroup([2, 2])

    def fn(Y):
        s = (Y[:, 0] + Y[:, 1]) % 2
        SRC = np.column_stack([np.zeros(len(Y), dtype=np.int64), 1 + s, 2 - s])
        return SRC, np.zeros_like(SRC)

    return ProjectiveRep(G, zero_multiplier(G), 3, fn, 1, label="line+swap")


def _random_twist(G, seed=5, den=8):
    """A seeded phase map on G with a(0) = 0."""
    nums = np.random.default_rng(seed).integers(0, den, size=G.order)
    return PhaseMap(G, {x.coords: Phase(int(nums[x.rank]) if x.rank else 0, den) for x in G.elements()})


def _orbit_dim(W):
    """Oracle: the commutant as the n^2 pair solve of ``_intertwining_orbits``."""
    rows = W.rows(W.group.generators())
    return len(_intertwining_orbits([n for n in W.group.moduli if n > 1], rows, rows)[3])


@pytest.mark.parametrize("case", list(COMMUTANT_CASES))
def test_commutant_character_path_agrees(case):
    W = COMMUTANT_CASES[case]()
    cd = commutant_d(W)
    assert cd == kron_commutant_dim(W) == trace_commutant_dim(W) == _orbit_dim(W)
    # the window models of p = 2, the direct sums and the reps of a zero multiplier are reducible
    assert (cd > 1) == case.startswith(("window-2", "z9-direct-sum", "regular", "line"))


@pytest.mark.parametrize("fault", ["repeated source", "source out of range"])
def test_batched_permutation_check_can_fail(fault):
    from weylkit import models
    W = window_model(2, 1, 1)
    fn = W.fn

    def broken(Y):
        SRC, NUM = fn(Y)
        SRC = SRC.copy()
        moved = Y.any(axis=1)               # W(0) stays the identity
        SRC[moved, 0] = SRC[moved, 1] if fault == "repeated source" else W.dim
        return SRC, NUM

    B = models.ProjectiveRep(W.group, W.multiplier, W.dim, broken, W.den)
    with pytest.raises(InputError, match="not a permutation"):
        commutant_d(B)
    with pytest.raises(InputError, match="not a permutation"):
        B.monomial_arrays()
    with pytest.raises(InputError, match="not a permutation"):
        B.operator(B.group.element([1, 0]))
    assert commutant_d(models.ProjectiveRep(W.group, W.multiplier, W.dim, fn, W.den)) \
        == commutant_d(W)


@settings(max_examples=40, deadline=None)
@given(pair=same_multiplier_pairs())
def test_orbit_commutant_matches_oracles(pair):
    for W in pair:
        assert commutant_d(W) == kron_commutant_dim(W) == trace_commutant_dim(W) == _orbit_dim(W)


@settings(max_examples=40, deadline=None)
@given(pair=same_multiplier_pairs())
def test_orbit_intertwiner_matches_oracle(pair):
    W1, W2 = pair
    res = intertwiner(W1, W2)
    assert res["dimension"] == kron_intertwiner_dim(W1, W2)
    basis = intertwiner_basis(res)
    for T in basis:
        assert np.abs(T).max() == 1.0
        for g in W1.group.generators():
            assert np.abs(T @ W1.operator(g).matrix - W2.operator(g).matrix @ T).max() < 1e-9
    if basis:
        # distinct orbits have disjoint supports, so the basis is independent
        assert np.linalg.matrix_rank(np.array([T.ravel() for T in basis])) == len(basis)


def _phase_fault(W):
    """W with the phase of its first generator shifted by 1/den on index 0."""
    g = W.group.generators()[0]
    op = W.operator(g)
    num = op.num.copy()
    num[0] += 1
    return W.with_override(g, Operator(W.dim, op.den, op.src, num))


def test_orbit_check_catches_phase_fault(z9):
    # the shifted phase gives every cycle through index 0 of one copy a nonzero
    # phase sum: the copies of W (+) W no longer intertwine, and W' no longer meets W
    W = fresh_rep(z9[3])
    WW = W.direct_sum(W)
    faulty = _phase_fault(WW)
    assert commutant_d(WW) == 4
    assert intertwiner(faulty, faulty)["dimension"] == kron_commutant_dim(faulty) == 2
    # the fault makes W(g)^9 on the first copy a phase other than a scalar
    with pytest.raises(DefectError, match="not a projective representation") as exc:
        commutant_d(faulty)
    assert exc.value.witness is not None
    bad = _phase_fault(W)
    assert intertwiner(W, W)["dimension"] == 1
    assert intertwiner(bad, W)["dimension"] == kron_intertwiner_dim(bad, W) == 0


def test_faulted_second_model_fails_the_uniqueness_intertwiner(z9):
    # svn_z9's pair of models; W2 times e(1/2) at one generator of order 9 breaks
    # W2(g)^9 = W1(g)^9, so no T has T W1(g) = W2'(g) T and svn's "intertwiner
    # dimension 1" check fails
    G, m, L, W1 = z9
    W2 = induced_model(G, m, subgroup_span(G, [G.element([1, 0])]))
    g = G.generators()[0]
    faulted = W2.with_override(g, W2.operator(g).scaled(Phase(1, 2)))
    assert intertwiner(W1, W2)["dimension"] == 1
    assert intertwiner(W1, faulted)["dimension"] == 0


def test_orbit_solver_refuses_noncommuting_permutations(z9):
    W = fresh_rep(z9[3])
    g = W.group.generators()[0]
    op = W.operator(g)
    src = op.src.copy()
    src[[0, 1]] = src[[1, 0]]
    broken = W.with_override(g, Operator(W.dim, op.den, src, op.num))
    with pytest.raises(DefectError, match="do not commute"):
        intertwiner(broken, broken)
    with pytest.raises(DefectError, match="not a projective representation") as exc:
        commutant_d(broken)
    assert exc.value.witness is not None


def test_orbit_solver_refuses_cycle_beyond_generator_order():
    # translation by (1, 0) on Z/2 x Z/2 with indices 1 and 2 swapped is a 4-cycle
    G = FinAbGroup([2, 2])
    W = regular_rep(G)
    g = G.generators()[0]
    src = W.operator(g).src.copy()
    src[[1, 2]] = src[[2, 1]]
    broken = W.with_override(g, Operator(W.dim, 1, src, np.zeros(4)))
    with pytest.raises(DefectError, match="longer than the generator's order"):
        intertwiner(broken, broken)
    # the square of the 4-cycle is not a scalar: the relation W(g)^2 = c fails at index 0
    with pytest.raises(DefectError, match="not a projective representation") as exc:
        commutant_d(broken)
    assert exc.value.witness == (0, 0, 0)


def test_orbit_solver_pair_budget():
    # 513^2 index pairs exceed ENTRY_BUDGET = 512^2
    with pytest.raises(ResourceLimitError) as exc:
        intertwiner(regular_rep(FinAbGroup([513])), regular_rep(FinAbGroup([513])))
    assert (exc.value.budget, exc.value.size) == ("ENTRY_BUDGET", 513 ** 2)


def test_intertwiner_of_bicharacters_beyond_table_cap():
    # (Z/9)^4 has order 6561, its |G|^2 table past ENTRY_BUDGET: the bicharacters are
    # compared on generator pairs
    G = FinAbGroup([9, 9, 9, 9])
    mat = [[ZERO] * 4 for _ in range(4)]
    for i in range(2):
        mat[i][i + 2], mat[i + 2][i] = Phase(1, 9), Phase(-1, 9)
    m = Bicharacter(G, mat)
    e = [G.element([int(i == j) for j in range(4)]) for i in range(4)]
    W1 = induced_model(G, m, subgroup_span(G, e[:2]))
    W2 = induced_model(G, m, subgroup_span(G, e[2:]))
    res = intertwiner(W1, W2)
    assert res["dimension"] == 1 and res["unitary_defect"] <= 1e-9
    other = Bicharacter(G, [[-b for b in row] for row in mat])
    W3 = induced_model(G, other, subgroup_span(G, e[:2]))
    with pytest.raises(InputError, match="multipliers differ"):
        intertwiner(W1, W3)


def test_intertwiner_self_is_scalar(z9):
    _, _, _, W = z9
    res = intertwiner(W, W)
    assert res["dimension"] == 1
    T = res["normalized"]
    assert proportional(T, np.eye(9))
    assert res["unitary_defect"] <= 1e-9


def test_intertwiner_f2_pair(f2):
    G, m = f2
    W1 = induced_model(G, m, subgroup_span(G, [G.element([1, 0])]))
    W2 = induced_model(G, m, subgroup_span(G, [G.element([0, 1])]))
    res = intertwiner(W1, W2)
    assert res["dimension"] == 1
    T = res["normalized"]
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert proportional(T, H)
    assert res["unitary_defect"] <= 1e-9


def test_intertwiner_direct_sum(z9):
    _, _, _, W = z9
    res = intertwiner(W.direct_sum(W), W)
    assert res["dimension"] == 2


def test_intertwiner_rejects_mismatched_multipliers(f2):
    G, m = f2
    W1 = induced_model(G, m, subgroup_span(G, [G.element([1, 0])]))
    R = regular_rep(G)
    with pytest.raises(InputError):
        intertwiner(W1, R)


def test_schrodinger_vs_induced_same_irreducible():
    # two different constructions of the irreducible model for the same
    # multiplier must be unitarily equivalent through a unique intertwiner
    A = FinAbGroup([3])
    Ws = schrodinger_model(A)
    G = Ws.group
    m = Ws.multiplier
    line = subgroup_span(G, [G.element([1, 0])])
    Wi = induced_model(G, m, line)
    assert Wi.dim == Ws.dim == 3
    res = intertwiner(Ws, Wi)
    assert res["dimension"] == 1
    assert res["unitary_defect"] <= 1e-9


def character_sum(n, ks):
    """(+)_k chi_k on Z/n, chi_k(x) = e(k x / n): each chi_k the model of the zero multiplier
    induced from all of Z/n with the splitting chi_k."""
    G = FinAbGroup([n])
    return functools.reduce(ProjectiveRep.direct_sum, [
        induced_model(G, zero_multiplier(G), Subgroup.full(G),
                      PhaseMap(G, {x.coords: Phase(k * x.coords[0], n) for x in G.elements()}))
        for k in ks])


def _schrodinger_and_induced_z3():
    Ws = schrodinger_model(FinAbGroup([3]))
    G = Ws.group
    return Ws, induced_model(G, Ws.multiplier, subgroup_span(G, [G.element([1, 0])]))


def _f2_lines():
    G, m = f2_setup()
    return tuple(induced_model(G, m, subgroup_span(G, [G.element(g)])) for g in ([1, 0], [0, 1]))


SQUARE_INTERTWINER_PAIRS = {
    "svn-z9": lambda: (block_symplectic_model((9, 9), (1,), ((3, 0), (0, 3))),
                       block_symplectic_model((9, 9), (1,), ((1, 0),))),
    "f2": _f2_lines,
    "7373-position-momentum": lambda: (
        block_symplectic_model((7, 3, 7, 3), (3, 2), ((1, 0, 0, 0), (0, 1, 0, 0))),
        block_symplectic_model((7, 3, 7, 3), (3, 2), ((0, 0, 1, 0), (0, 0, 0, 1)))),
    "schrodinger-induced-z3": _schrodinger_and_induced_z3,
    # chi_0 is the one character both sums share: a one-dimensional intertwiner space
    # whose element is not invertible
    "reducible-z3": lambda: (character_sum(3, (0, 1)), character_sum(3, (0, 2))),
}


@pytest.mark.parametrize("case", sorted(SQUARE_INTERTWINER_PAIRS))
def test_unitarity_by_schur_matches_the_dense_product(case):
    # unitary_defect is 0.0 exactly when W1 is irreducible (n1 = n2 and a one-dimensional
    # intertwiner space here), and None otherwise; the float product That* That agrees
    W1, W2 = SQUARE_INTERTWINER_PAIRS[case]()
    res = intertwiner(W1, W2)
    assert res["dimension"] == 1 and W1.dim == W2.dim
    That = res["normalized"]
    dense = float(np.abs(That.conj().T @ That - np.eye(W1.dim)).max())
    irreducible = kron_commutant_dim(W1) == 1
    assert irreducible == (case != "reducible-z3")
    if irreducible:
        assert res["unitary_defect"] == 0.0 and dense <= 1e-9
    else:
        assert res["unitary_defect"] is None and dense > 1e-9


@pytest.mark.parametrize("dens, fits", [((2 ** 61 - 1, 2 ** 31 - 1), False),
                                        ((2 ** 31 - 1, 2 ** 19 - 1), True)])
@pytest.mark.parametrize("combine", ["direct_sum", "with_override"])
def test_lcm_of_two_denominators_is_bounded_by_int64(combine, dens, fits):
    # the regular rep of Z/2 over two Mersenne-prime denominators: their lcm is their
    # product, past int64 for 2^61 - 1 and 2^31 - 1, which is refused with InputError
    G = FinAbGroup([2])
    R = regular_rep(G)
    W1, W2 = (ProjectiveRep(G, R.multiplier, R.dim, R.fn, den) for den in dens)
    x = G.element([1])

    def combined():
        if combine == "direct_sum":
            return W1.direct_sum(W2)
        return W1.with_override(x, W2.operator(x))

    if fits:
        W = combined()
        assert W.den == dens[0] * dens[1] and check_rep_law(W).passed
    else:
        with pytest.raises(InputError, match="beyond int64"):
            combined()


def _in_presentation(G, y, g):
    """Whether (y, g) is a pair of P: a prefix pair (y, g_l) with y_{l+1} = ... = 0, or a
    commutation pair (g_j, g_l) with j > l, for a generator g_l."""
    units = [x.coords for x in G.generators()]
    if g not in units:
        return False
    l = g.index(1)
    return not any(y[l + 1:]) or (y in units and y.index(1) > l)


def test_window_312_law_is_decided_at_its_presentation(monkeypatch):
    # |G| dim = 6561 * 81 passes the row budget, but P holds 9 + 81 + 729 + 6561 + 6 = 7386
    # pairs, within ENTRY_BUDGET: the law is decided exactly at P, streamed through the
    # formula, and then the commutator follows from it without a pair
    read = []
    pairs_hold = models._pairs_hold

    def counted(W, phase, swapped, X, Y):
        read.append(max(len(X), len(Y)))
        return pairs_hold(W, phase, swapped, X, Y)

    monkeypatch.setattr(models, "_pairs_hold", counted)
    W = fresh_rep(window_model(3, 1, 2))
    G = W.group
    law, = check_rep_law(W).checks
    comm, = commutator_scalar_check(W).checks
    assert sum(read) == 7386 and W._arrays is None and W.law_holds
    for c in (law, comm):
        assert c.passed and c.note == "exhaustive over 6561^2 pairs"
    # a fault at a generator fails at a pair of P, which is the witness
    F = W.with_override(G.element([0, 1, 0, 0]), identity_operator(W.dim))
    fail, = check_rep_law(F).checks
    assert not fail.passed and fail.note == "exhaustive over 6561^2 pairs"
    assert _in_presentation(G, *fail.witness) and F.law_holds is False
    # window (5,1,2): P holds 25 + 625 + 15625 + 390625 + 6 pairs, past the budget, so the
    # law is refused before any pair is read
    W5 = fresh_rep(window_model(5, 1, 2))
    W5.fn = None
    with pytest.raises(ResourceLimitError) as exc:
        check_rep_law(W5)
    assert (exc.value.budget, exc.value.size) == ("ENTRY_BUDGET", 406906)


@pytest.mark.parametrize("site", ["init", "compose", "scaled", "equals"])
def test_operator_numerators_are_bounded_by_int64(site):
    # numerators over 2^64, or sums over the lcm of 2^61 - 1 and 2^31 - 1 (their product),
    # are refused with InputError instead of a bare numpy OverflowError
    a = Operator(2, 2 ** 61 - 1, [1, 0], [1, 2])
    b = Operator(2, 2 ** 31 - 1, [0, 1], [3, 4])
    act = {"init": lambda: Operator(2, 2 ** 64, [0, 1], [0, 0]),
           "compose": lambda: a.compose(b),
           "scaled": lambda: a.scaled(Phase(1, 2 ** 31 - 1)),
           "equals": lambda: a.equals(b)}[site]
    with pytest.raises(InputError, match="beyond int64"):
        act()
    # a common denominator whose sums fit is still exact
    c = Operator(2, 2 ** 31 - 1, [1, 0], [5, 6])
    assert b.compose(c).equals(Operator(2, 2 ** 31 - 1, [1, 0], [8, 10]))


# -- operators --------------------------------------------------------------

def test_monomial_dense_agreement(z9):
    _, _, _, W = z9
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = W.group.element(rng.integers(0, 9, size=2))
        y = W.group.element(rng.integers(0, 9, size=2))
        exact = W.operator(x).compose(W.operator(y)).matrix
        dense = W.operator(x).matrix @ W.operator(y).matrix
        assert np.abs(exact - dense).max() < 1e-12


def test_distance_to_equals_dense_difference():
    # read off the monomial rows, the distance is the dense oracle's float exactly
    rng = np.random.default_rng(1)
    for _ in range(300):
        dim, den = int(rng.integers(1, 9)), int(rng.choice([1, 2, 3, 12, 36]))
        a, b = (Operator(dim, den, rng.permutation(dim), rng.integers(0, den, size=dim))
                for _ in range(2))
        if rng.random() < 0.3:
            b = Operator(dim, den, a.src, b.num)
        assert a.distance_to(b) == float(np.abs(a.matrix - b.matrix).max())


def test_monomial_arrays_cache(f2):
    G, m = f2
    W = induced_model(G, m, subgroup_span(G, [G.element([1, 0])]))
    SRC, NUM, den = W.monomial_arrays()
    assert SRC.shape == (4, 2)
    assert NUM.shape == (4, 2)
    # blocks() hands out the kept rows as one block, without the batch formula
    assert all(a is b for a, b in zip(next(W.blocks()), (SRC, NUM, den)))


def test_operator_reads_kept_rows():
    # once monomial_arrays keeps every row, operator(x) is row x.rank, checked as an Operator
    W = schrodinger_model(FinAbGroup([3, 2]))
    G = W.group
    want = [W.operator(x) for x in G.elements()]
    SRC, NUM, _ = W.monomial_arrays()
    W.fn = None                             # the formula is not called again
    assert all(W.operator(x).equals(w) for x, w in zip(G.elements(), want))
    SRC[5, 0] = SRC[5, 1]
    with pytest.raises(InputError, match="not a permutation"):
        W.operator(G.element_by_rank(5))


# -- kept rows: the one copy of a model's rows --------------------------------

def random_phase_map(G, dens, data):
    """A phase map on G vanishing at 0, its values over a denominator drawn from ``dens``."""
    den = data.draw(st.sampled_from(dens))
    return PhaseMap(G, {x.coords: Phase(data.draw(st.integers(0, den - 1)) if x.rank else 0, den)
                        for x in G.elements()})


def induced_inputs(kind, moduli, data):
    """(G, m, A, c) of an induced model over the Weyl product m of (+) Z/n_i: from a
    random maximal isotropic A with c None (``split_symmetric``), or, for "induced-table",
    with m twisted by a random coboundary (a table multiplier), A the position subgroup
    and the explicit splitting c = -a."""
    S = schrodinger_model(FinAbGroup(moduli))
    G, m = S.group, S.multiplier
    if kind == "induced":
        seed = G.element([data.draw(st.integers(0, n - 1)) for n in G.moduli])
        return G, m, extend_maximal(subgroup_span(G, [seed]), antisymmetrize(m)), None
    a = random_phase_map(G, [2, 3, 4, 6], data)
    r = len(moduli)
    A = subgroup_span(G, [G.element([int(i == j) for i in range(2 * r)]) for j in range(r)])
    return G, twist(m, a), A, PhaseMap(G, {x.coords: -a(x) for x in A.elements()})


def kept_rows_model(kind, data):
    """A model of the given kind, drawn small enough to keep its rows."""
    moduli = data.draw(st.lists(st.sampled_from([1, 2, 3, 4]), min_size=1, max_size=2))
    if kind.startswith("induced"):
        return induced_model(*induced_inputs(kind, moduli, data))
    if kind == "window":
        return window_model(*data.draw(st.sampled_from([(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1)])))
    if kind == "schrodinger":
        return schrodinger_model(FinAbGroup(moduli))
    W = fresh_rep(schrodinger_model(FinAbGroup(moduli)))
    if data.draw(st.booleans()):
        W.monomial_arrays()                 # the derived rep reads the parent's kept rows
    if kind == "direct-sum":
        return W.direct_sum(W)
    return W.twisted(random_phase_map(W.group, [2, 3, 4], data))


def coordinate_rows(G, data):
    c = data.draw(st.integers(1, 6))
    return np.array([[data.draw(st.integers(0, n - 1)) for n in G.moduli] for _ in range(c)],
                    dtype=np.int64).reshape(c, G.rank)


KEPT_KINDS = ["induced", "induced-table", "window", "schrodinger", "twisted", "direct-sum"]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KEPT_KINDS), data=st.data())
def test_kept_rows_equal_the_formula(kind, data):
    # after monomial_arrays, rows gathers from the kept arrays and never calls fn, and
    # they equal the formula of a fresh copy at any block of coordinate rows
    W = kept_rows_model(kind, data)
    kept, fresh = fresh_rep(W), fresh_rep(W)
    kept.monomial_arrays()
    kept.fn = None
    Y = coordinate_rows(W.group, data)
    SRC, NUM, den = kept.rows(Y)
    S2, N2 = fresh.fn(Y)
    assert den == W.den
    assert (SRC == S2).all() and (NUM == N2 % den).all()


@settings(max_examples=18, deadline=None)
@given(kind=st.sampled_from(KEPT_KINDS), data=st.data())
def test_kept_model_answers_without_its_formula(kind, data):
    # fn set to None after monomial_arrays: rows, operator, blocks, the law and the
    # commutator still answer, as the formula does
    W = kept_rows_model(kind, data)
    kept, fresh = fresh_rep(W), fresh_rep(W)
    SRC, NUM, den = kept.monomial_arrays()
    kept.fn = None
    G = W.group
    assert all(kept.operator(x).equals(fresh.operator(x)) for x in G.elements())
    (block,) = kept.blocks()
    assert block[0] is SRC and block[1] is NUM
    assert (kept.rows(G.coords_array())[0] == SRC).all()
    for checker in (check_rep_law, commutator_scalar_check):
        assert checker(kept).checks[-1].to_dict() == checker(fresh).checks[-1].to_dict()


def two_grid_rows(G, m, A, cmap, Y):
    """The induced block formula with W(b)'s phase m(r_i, b) - m(b, r_i) read on two
    c x dim ``pair_grid``s, reduced mod den: the oracle of the m~ product."""
    R = A.transversal_coords()
    dim, rank = R.shape
    den = lcm(m.den, cmap.den)
    elems = A.elements()
    a_ranks = np.array([a.rank for a in elems], dtype=np.int64)
    c_num = np.array([cmap(a).numerator_at(den) for a in elems], dtype=np.int64)
    moduli, weights = (np.array(t, dtype=np.int64) for t in (G.moduli, G._weights))
    scale = den // m.den
    k = A.coset_index(Y)
    b = (Y - R[k]) % moduli
    Z = (R[k][:, None, :] + R).reshape(len(Y) * dim, rank) % moduli
    J = A.coset_index(Z)
    a = (Z - R[J]) % moduli
    ca = c_num[np.searchsorted(a_ranks, a @ weights)]
    cb = c_num[np.searchsorted(a_ranks, b @ weights)]
    NK = ((m.pair_grid(R, R[k]).T.ravel() - m.pair_nums(a, R[J])) * scale - ca).reshape(len(Y), dim)
    shift = cb + m.pair_nums(b, R[k]) * scale
    NB = (m.pair_grid(R, b).T - m.pair_grid(b, R)) * scale - shift[:, None]
    return J.reshape(len(Y), dim), (NK + NB) % den


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["induced", "induced-table"]), data=st.data())
def test_induced_phase_from_antisymmetrization_matches_two_grids(kind, data):
    moduli = data.draw(st.lists(st.sampled_from([1, 2, 3, 4]), min_size=1, max_size=2))
    G, m, A, c = induced_inputs(kind, moduli, data)
    W = induced_model(G, m, A, c)
    Y = coordinate_rows(G, data)
    if data.draw(st.booleans()):
        # a block that touches every coset: the transversal shifted by an element of A
        a = np.array(data.draw(st.sampled_from(A.elements())).coords, dtype=np.int64)
        Y = np.vstack([Y, (A.transversal_coords() + a) % np.array(G.moduli, dtype=np.int64)])
    SRC, NUM = W.fn(Y)
    S2, N2 = two_grid_rows(G, m, A, split_symmetric(m, A) if c is None else c, Y)
    assert (SRC == S2).all() and (NUM % W.den == N2).all()


def coset_table(W):
    """(TS, TN), the coset table of an induced model, as its formula's closure holds it."""
    cells = dict(zip(W.fn.__code__.co_freevars, W.fn.__closure__))
    return cells["TS"].cell_contents, cells["TN"].cell_contents


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["induced", "induced-table"]), data=st.data())
def test_induced_law_verdict_matches_the_presentation(kind, data):
    # a coset-table entry corrupted once the model exists, before its law is decided: one
    # numerator, or two sources of one row swapped (row 0, W(0), stays the identity); the
    # verdict at the pairs (r_k, g) is the one the pairs P give on a fresh copy, and every
    # corruption that changes the table fails
    moduli = data.draw(st.lists(st.sampled_from([1, 2, 3, 4]), min_size=1, max_size=2))
    G, m, A, c = induced_inputs(kind, moduli, data)
    dim = G.order // A.order
    fault = data.draw(st.sampled_from(["none", "numerator", "swap"])) if dim > 1 else "none"
    k, i, j = (data.draw(st.integers(lo, dim - 1)) for lo in (1, 0, 0)) if dim > 1 else (0, 0, 0)
    built = []

    class Faulted(ProjectiveRep):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)
            TS, TN = coset_table(self)
            if fault == "numerator":
                TN[k, i] = (TN[k, i] + data.draw(st.integers(1, self.den - 1))) % self.den
            elif fault == "swap":
                TS[k, [i, j]] = TS[k, [j, i]]

    raised = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "ProjectiveRep", Faulted)
        try:
            W = induced_model(G, m, A, c)
        except DefectError as exc:
            raised = exc
    F = fresh_rep(built[0])
    assert (raised is None) == (models._presentation_fails(F) is None)
    assert (raised is None) == (fault == "none" or (fault == "swap" and i == j))
    if raised is None:
        assert W.law_holds
        return
    r, g = (G.element(x) for x in raised.witness)
    assert r.coords in set(map(tuple, A.transversal_coords().tolist()))
    assert g in G.generators() and pair_distance(F, m, False, r, g) > 0


def test_induced_formula_reduces_each_row_to_its_coset_once(monkeypatch):
    # the coset table is built with the model, so a one-row call of a fresh model runs
    # one coset reduction, of the row itself, and no grid over the cosets
    W = fresh_rep(block_symplectic_model(*VACUUM_9595))
    calls = []
    coset_index = Subgroup.coset_index
    monkeypatch.setattr(Subgroup, "coset_index",
                        lambda A, X: calls.append(len(X)) or coset_index(A, X))
    SRC, NUM, _ = W.rows(W.group.coords_at(np.array([1234])))
    assert calls == [1] and SRC.shape == NUM.shape == (1, W.dim)


def test_induced_formula_refuses_a_denominator_past_int64():
    # (Z/3)^2 over a table twisted by a coboundary over den = 2^61 + 1: the table, its
    # cocycle check and the splitting fit int64, but the formula's den (2 + 4) does not
    S = schrodinger_model(FinAbGroup([3]))
    G = S.group
    den = 2 ** 61 + 1
    a = PhaseMap(G, {x.coords: Phase(x.rank * (den // 9), den) for x in G.elements()})
    m = twist(S.multiplier, a)
    A = subgroup_span(G, [G.element([1, 0])])
    c = PhaseMap(G, {x.coords: -a(x) for x in A.elements()})
    with pytest.raises(InputError, match="induced formula over .* beyond int64"):
        induced_model(G, m, A, c)
    # the same twist over a smaller denominator builds a model whose law holds
    small = 2 ** 20 + 1
    a = PhaseMap(G, {x.coords: Phase(x.rank * (small // 9), small) for x in G.elements()})
    c = PhaseMap(G, {x.coords: -a(x) for x in A.elements()})
    assert check_rep_law(induced_model(G, twist(S.multiplier, a), A, c)).passed


def _scalar_rep(moduli, den):
    """W(x) = e(k (x_1 + ... + x_r) / den) 1 on C^2 with k = den - 3, its numerators read with
    Python integers: a rep of G up to the scalars W(g_i)^{n_i}, so all 4 dimensions of 2 x 2
    matrices commute with it."""
    G = FinAbGroup(moduli)
    k = den - 3

    def fn(Y):
        nums = [[sum(y) * k % den] * 2 for y in Y.tolist()]
        return np.tile(np.arange(2), (len(Y), 1)), np.array(nums, dtype=np.int64)

    return ProjectiveRep(G, zero_multiplier(G), 2, fn, den, label="scalar")


@pytest.mark.parametrize("moduli", [[8], [8, 8]])
@pytest.mark.parametrize("e", range(58, 63))
def test_commutant_over_denominators_near_int64(moduli, e):
    # the radical rows are rescaled over den E, which the walk and the characters sum;
    # each either fits int64 and counts 4, or is refused, never wrapped
    try:
        W = _scalar_rep(moduli, 2 ** e + 1)
        count = commutant_d(W)
    except InputError as exc:
        assert "beyond int64 arrays" in str(exc)
    else:
        assert count == 4
