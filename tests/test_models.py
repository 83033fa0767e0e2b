import functools
import importlib
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
                                 split_symmetric, zero_multiplier)
from weylkit.phases import Phase, ZERO
from weylkit.reports import VerificationReport
from weylkit.vacuum import descend

from conftest import f2_setup, same_multiplier_pairs, window, window_model, z9_setup

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
    rep = check_rep_law(W, tolerance=1e-12)
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
    return W, G.element([1, 2]), 20_000


def _descended_case():
    """The descended action of window (2,1,1), overridden at (1, 0)."""
    R = descend(window_model(2, 1, 1), window(2, 1, 1).L).rep0
    return R, R.group.element([1, 0]), 20_000


def _window_312_case():
    """Window (3,1,2), |G| = 6561 > 512, overridden at the first sampled element."""
    W = window_model(3, 1, 2)
    idx = np.random.default_rng(0).integers(0, W.group.order, size=(4000, 2))
    x = W.group.element_by_rank(int(idx[0][0]))
    assert x.coords == (0, 8, 5, 7)
    return W, x, 4000


# (case, checker, check name, witness, note, residual), each with the identity
# operator, a monomial one, as the override.  The exact scan (|G| <= 512)
# reports the first bad pair in rank order, the sampled pairwise scan the
# worst pair; window (3,1,2) is too large for the exact scan.
FAULTS = [
    (_z9_case, check_rep_law, "law", ((1, 0), (0, 2)),
     "exhaustive over 81^2 pairs", 1.0),
    (_z9_case, commutator_scalar_check, "commutator", ((1, 0), (1, 2)),
     "exhaustive over 81^2 pairs", 1.9696155060244163),
    (_descended_case, check_rep_law, "law", ((1, 0), (0, 1)),
     "exhaustive over 4^2 pairs", 1.0),
    (_descended_case, commutator_scalar_check, "commutator", ((1, 0), (0, 1)),
     "exhaustive over 4^2 pairs", 2.0),
    (_window_312_case, check_rep_law, "law", ((0, 8, 5, 7), (3, 5, 6, 5)),
     "sampled 4000 pairs, seed=0", 1.0),
    (_window_312_case, commutator_scalar_check, "commutator",
     ((0, 8, 5, 7), (3, 5, 6, 5)), "sampled 4000 pairs, seed=0", 1.285575219373079),
]


@pytest.mark.parametrize(
    "case,checker,name,witness,note,residual", FAULTS,
    ids=[f"{f[0].__name__.strip('_')}-monomial-{f[2]}" for f in FAULTS])
def test_identity_fault_injection(case, checker, name, witness, note, residual):
    W, x, samples = case()
    assert checker(W, samples=samples).passed
    rep = checker(W.with_override(x, identity_operator(W.dim)), samples=samples)
    failed = [c for c in rep.checks if not c.passed]
    assert [c.name for c in failed] == [name]
    assert failed[0].witness == witness
    assert failed[0].note == note
    assert failed[0].residual == pytest.approx(residual, abs=1e-9)


@pytest.mark.parametrize("checker", [check_rep_law, commutator_scalar_check])
@pytest.mark.parametrize("wrong", [False, True], ids=["own-multiplier", "zero-multiplier"])
def test_batched_pair_scan_matches_pairwise(checker, wrong):
    # window (3,1,2) is too large for the monomial scan; its batched sampled
    # scan must report exactly what the pairwise scan of the same operators does
    W = window_model(3, 1, 2)
    m = zero_multiplier(W.group) if wrong else W.multiplier
    rep = ProjectiveRep(W.group, m, W.dim, W.fn, W.den)
    got = checker(rep, samples=1000, seed=3)
    swapped = checker is commutator_scalar_check
    phase = antisymmetrize(m).to_multiplier() if swapped else m
    assert got.checks[-1].to_dict() == sampled_pair_oracle(
        rep, got.checks[-1].name, phase, swapped, samples=1000, seed=3)
    assert got.passed == (not wrong)


def sampled_pair_oracle(W, name, phase, swapped, samples, seed, tolerance=1e-9):
    """The sampled check ``name`` as a per-pair scan reports it: every seeded pair is
    composed from its operators, and the witness is the worst pair."""
    G = W.group
    worst, witness = 0.0, None
    for i, j in np.random.default_rng(seed).integers(0, G.order, size=(samples, 2)).tolist():
        x, y = G.element_by_rank(i), G.element_by_rank(j)
        dist = models._pair_distance(W, phase, swapped, x, y)
        if dist > worst:
            worst = dist
            if dist > tolerance:
                witness = (x.coords, y.coords)
    rep = VerificationReport("oracle")
    rep.add(name, worst <= tolerance, residual=worst, tolerance=tolerance, witness=witness,
            note=f"sampled {samples} pairs, seed={seed}")
    return rep.checks[0].to_dict()


@pytest.mark.parametrize("checker", [check_rep_law, commutator_scalar_check])
def test_batched_pair_scan_builds_no_operator(checker):
    # on a correct batched model the block formula settles every sampled pair
    W = window_model(3, 1, 2)
    seen = []

    def counted(Y):
        seen.append(Y.copy())
        return W.fn(Y)

    strict = ProjectiveRep(W.group, W.multiplier, W.dim, counted, W.den)
    assert checker(strict, samples=1000, seed=3).passed
    # one-row calls (operators) only at 0; the sampled pairs are read in whole blocks
    assert all(not Y.any() for Y in seen if len(Y) == 1)
    assert 0 < sum(len(Y) for Y in seen if len(Y) > 1) <= 3 * 1000


def full_scan_oracle(W, name, phase, swapped, tolerance=1e-9):
    """The check ``name`` as the exhaustive scan over all |G|^2 pairs reports it (|G| <= 512).

    Row x at a time, the monomial data of W(x) W(y) and of R(x, y) are
    compared for every y; the witness is the first bad pair in rank order and
    the residual the largest distance at the first bad y of each row.
    """
    G = W.group
    n = G.order
    SRC, NUM, den0 = W.monomial_arrays()
    pden, pnum = phase.num_table()
    d = lcm(den0, pden)
    NUM, pnum = NUM * (d // den0), pnum * (d // pden)
    S = G.addition_table()
    worst, witness = 0.0, None
    for x in range(n):
        sx, nx = SRC[x], NUM[x]
        src1, num1 = SRC[:, sx], nx[None, :] + NUM[:, sx]
        src2, num2 = (sx[SRC], NUM + nx[SRC]) if swapped else (SRC[S[x]], NUM[S[x]])
        bad = (src1 != src2).any(axis=1) | ((num1 - num2 - pnum[x][:, None]) % d != 0).any(axis=1)
        if bad.any():
            wx, wy = G.element_by_rank(x), G.element_by_rank(int(np.flatnonzero(bad)[0]))
            lhs = W.operator(wx).compose(W.operator(wy))
            rhs = W.operator(wy).compose(W.operator(wx)) if swapped else W.operator(wx + wy)
            worst = max(worst, lhs.distance_to(rhs.scaled(phase(wx, wy))))
            witness = witness or (wx.coords, wy.coords)
    rep = VerificationReport("oracle")
    rep.add(name, witness is None and worst <= tolerance, residual=worst, tolerance=tolerance,
            witness=witness, note=f"exhaustive over {n}^2 pairs")
    return rep.checks[0].to_dict()


def assert_checks_match_oracle(W):
    law = check_rep_law(W)
    assert law.checks[-1].to_dict() == full_scan_oracle(W, "law", W.multiplier, False)
    comm = commutator_scalar_check(W)
    mt = antisymmetrize(W.multiplier).to_multiplier()
    assert [c.to_dict() for c in comm.checks] == [full_scan_oracle(W, "commutator", mt, True)]
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
    # the law and commutator reports equal the full scan's, faulted or not
    W, fault = case
    law, comm = assert_checks_match_oracle(W)
    if fault == "none":
        assert law.passed and comm.passed


def test_generator_decision_needs_a_cocycle():
    # m vanishes on the columns of 0 and the generators, so the regular rep
    # passes at every pair (x, g); m is no cocycle, so the full scan must run
    G = FinAbGroup([4, 3])
    R = regular_rep(G)
    num = np.zeros((G.order, G.order), dtype=np.int64)
    num[5:, 7] = 1
    num[3, 11] = 1
    m = TableMultiplier(G, 2, num)
    W = ProjectiveRep(G, m, R.dim, R.fn, R.den)
    assert not m.is_verified()
    law = check_rep_law(W)
    assert law.checks[-1].to_dict() == full_scan_oracle(W, "law", m, False)
    assert not law.passed and law.checks[-1].witness == ((3, 0), (3, 2))
    # with the precondition forged, the pairs (x, g) alone would pass this rep
    forged = TableMultiplier(G, 2, num)
    forged._verified = True
    assert models._generators_decide(W, forged, False, *W.monomial_arrays()) == (None, True)


@pytest.mark.parametrize("swapped", [False, True], ids=["law", "commutator"])
def test_generator_decision_with_a_wrong_bicharacter(z9, swapped):
    # the phase is a cocycle and a bicharacter but not W's own: the pairs
    # (x, g) fail, and the full scan reports what the oracle does
    _, _, _, W = z9
    wrong = Bicharacter(W.group, [[ZERO, Phase(1, 9)], [ZERO, ZERO]]).to_multiplier()
    rep = VerificationReport("wrong phase")
    models._check_pairs(rep, "check", W, wrong, swapped, 1e-9, 20_000, 0)
    assert not rep.passed
    assert rep.checks[0].to_dict() == full_scan_oracle(W, "check", wrong, swapped)


@functools.cache
def block_symplectic_model(moduli, units, gens):
    """The unchecked induced model of sum_i u_i (x_i y_{i+r} - x_{i+r} y_i) / n_i
    on G = Z/moduli, r = len(units), over the subgroup spanned by ``gens``."""
    G = FinAbGroup(moduli)
    r = len(units)
    mat = [[ZERO] * len(moduli) for _ in moduli]
    for i, u in enumerate(units):
        mat[i][i + r], mat[i + r][i] = Phase(u, moduli[i]), Phase(-u, moduli[i])
    m = Bicharacter(G, mat).to_multiplier()
    return induced_model(G, m, subgroup_span(G, [G.element(g) for g in gens]), check=False)


def refuse_pair_scans(monkeypatch, *extra):
    """Make every |G|^2 scan or table, and the attributes ``extra`` of models, raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("reached a |G|^2 scan, table or pair sample")

    for name in ("_scan_pairs",) + extra:
        monkeypatch.setattr(models, name, refuse)
    monkeypatch.setattr(Multiplier, "num_table", refuse)
    monkeypatch.setattr(FinAbGroup, "addition_table", refuse)


# the vacuum-9595 model of the benchmark at seed 3: |G| = 2025, |G|^2 past ENTRY_BUDGET, dimension 45
VACUUM_9595 = ((9, 5, 9, 5), (7, 4), ((3, 0, 0, 0), (0, 0, 3, 0), (0, 1, 0, 0)))


def test_correct_model_never_scans_pairs(monkeypatch):
    # the generator pairs decide a correct bicharacter model: no per-x scan,
    # no |G| x |G| multiplier table and no addition table
    W = block_symplectic_model((7, 3, 7, 3), (3, 2), ((1, 0, 0, 0), (0, 1, 0, 0)))
    refuse_pair_scans(monkeypatch)
    assert check_rep_law(W).passed
    assert commutator_scalar_check(W).passed
    assert check_rep_law(W.direct_sum(W)).passed


def test_correct_model_beyond_table_cap_never_scans_pairs(monkeypatch):
    # 2025 x 45 monomial entries fit ENTRY_BUDGET: the generator pairs decide
    # both checks exactly, with no sampled pair, per-x scan or |G| x |G| table
    W = block_symplectic_model(*VACUUM_9595)
    refuse_pair_scans(monkeypatch, "_batch_pairs_hold")
    for checker in (check_rep_law, commutator_scalar_check):
        rep = checker(W, samples=2000)
        assert rep.passed
        assert rep.checks[-1].note == "exhaustive over 2025^2 pairs"


def test_fault_beyond_table_cap_fails_at_a_generator_pair():
    # the seed-0 sample of 2000 pairs misses every pair at which scaling
    # W(3, 2, 0, 0) breaks the law, so a sampled check passes it; the pairs (x, g) do not
    W = block_symplectic_model(*VACUUM_9595)
    G = W.group
    x0 = G.element([3, 2, 0, 0])
    gens = {g.coords for g in [G.zero()] + G.generators()}

    def assert_fails(check):
        assert not check.passed and check.residual > check.tolerance
        assert check.witness[1] in gens
        assert check.note == "exhaustive over 2025^2 pairs"

    scaled = W.with_override(x0, W.operator(x0).scaled(Phase(1, 3)))
    assert_fails(check_rep_law(scaled, samples=2000).checks[-1])
    # a scalar cannot move a commutator, so that identity holds at every pair
    assert commutator_scalar_check(scaled, samples=2000).passed
    # one shifted phase is no scalar, and both identities fail at a pair (x, g)
    op = W.operator(x0)
    num = 3 * op.num
    num[0] += 1
    shifted = W.with_override(x0, Operator(W.dim, 3 * op.den, op.src, num))
    for checker in (check_rep_law, commutator_scalar_check):
        assert_fails(checker(shifted, samples=2000).checks[-1])


def test_override_law_check_reads_whole_blocks():
    # the override patches the parent's formula, so the exact law check reads G in
    # whole blocks once; only W(0) and the witness pair's three operators are one-row calls
    W = block_symplectic_model(*VACUUM_9595)
    G = W.group
    x0 = G.element([3, 2, 0, 0])
    scaled = W.with_override(x0, W.operator(x0).scaled(Phase(1, 3)))
    calls, fn = [], scaled.fn
    scaled.fn = lambda Y: calls.append(len(Y)) or fn(Y)
    check = check_rep_law(scaled).checks[-1]
    assert (check.passed, check.witness, check.note) == \
        (False, ((2, 2, 0, 0), (1, 0, 0, 0)), "exhaustive over 2025^2 pairs")
    assert check.residual == pytest.approx(3 ** 0.5, abs=1e-12)
    blocks = [n for n in calls if n > 1]
    assert sum(blocks) == G.order
    assert len(blocks) <= -(-G.order // (models.BLOCK_ENTRIES // W.dim))
    assert calls.count(1) == 1 + 3


def lookup_rep(W, SRC, NUM, den):
    """A batched rep whose block formula reads the rows (SRC, NUM) over den, in rank order."""
    weights = np.array(W.group._weights, dtype=np.int64)
    return ProjectiveRep(W.group, W.multiplier, W.dim, lambda Y: (SRC[Y @ weights], NUM[Y @ weights]),
                         den)


def assert_verdicts_match_all_pairs(W):
    """Law and commutator verdicts equal ``_batch_pairs_hold`` over all |G|^2 pairs.

    A failing check's witness is a failing pair (x, g), g in {0} and the
    generators.  Only the commutator of a rep whose own law fails may be
    sampled.
    """
    G = W.group
    n = G.order
    idx = np.stack(np.divmod(np.arange(n * n, dtype=np.int64), n), axis=1)
    gens = {g.coords for g in [G.zero()] + G.generators()}
    mt = antisymmetrize(W.multiplier).to_multiplier()
    law_holds = models._batch_pairs_hold(W, W.multiplier, False, idx).reshape(n, n)
    comm_holds = models._batch_pairs_hold(W, mt, True, idx).reshape(n, n)
    for checker, holds in ((check_rep_law, law_holds), (commutator_scalar_check, comm_holds)):
        check = checker(W).checks[-1]
        assert check.passed == holds.all()
        if not check.passed:
            x, g = check.witness
            assert g in gens and not holds[G.rank_of(x), G.rank_of(g)]
        sampled = checker is commutator_scalar_check and holds.all() and not law_holds.all()
        assert (check.note == f"exhaustive over {n}^2 pairs") != sampled
    return law_holds.all(), comm_holds.all()


# |G|^2 = 625^2 is past ENTRY_BUDGET, dimension 25
MODEL_5555 = ((5, 5, 5, 5), (1, 2), ((1, 0, 0, 0), (0, 1, 0, 0)))


def test_exhaustive_verdict_beyond_table_cap_matches_all_pairs():
    W = block_symplectic_model(*MODEL_5555)
    assert W.fits_arrays() and W.group.order ** 2 > ENTRY_BUDGET
    assert assert_verdicts_match_all_pairs(lookup_rep(W, *W.monomial_arrays())) == (True, True)


@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_exhaustive_verdict_beyond_table_cap_matches_all_pairs_under_faults(data):
    # one operator replaced by a random monomial one, one phase shifted, or a scalar applied
    W = block_symplectic_model(*MODEL_5555)
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


def test_monomial_arrays_budget():
    # window (3,1,2): 6561 elements x dimension 81 = 531 441 entries
    W = window_model(3, 1, 2)
    assert not W.fits_arrays()
    with pytest.raises(ResourceLimitError) as exc:
        W.monomial_arrays()
    assert (exc.value.budget, exc.value.size) == ("ENTRY_BUDGET", 531_441)


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
}


@pytest.mark.parametrize("case", list(COMMUTANT_CASES))
def test_commutant_character_path_agrees(case):
    W = COMMUTANT_CASES[case]()
    cd = commutant_d(W)
    assert cd == kron_commutant_dim(W) == trace_commutant_dim(W)
    # the window models of p = 2 and the direct sum are the reducible ones
    assert (cd > 1) == case.startswith(("window-2", "z9-direct-sum"))


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
        assert commutant_d(W) == kron_commutant_dim(W) == trace_commutant_dim(W)


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
    _, _, _, W = z9
    WW = W.direct_sum(W)
    faulty = _phase_fault(WW)
    assert commutant_d(WW) == 4
    assert commutant_d(faulty) == kron_commutant_dim(faulty) == 2
    bad = _phase_fault(W)
    assert intertwiner(W, W)["dimension"] == 1
    assert intertwiner(bad, W)["dimension"] == kron_intertwiner_dim(bad, W) == 0


def test_orbit_solver_refuses_noncommuting_permutations(z9):
    _, _, _, W = z9
    g = W.group.generators()[0]
    op = W.operator(g)
    src = op.src.copy()
    src[[0, 1]] = src[[1, 0]]
    broken = W.with_override(g, Operator(W.dim, op.den, src, op.num))
    with pytest.raises(DefectError, match="do not commute"):
        commutant_d(broken)


def test_orbit_solver_refuses_cycle_beyond_generator_order():
    # translation by (1, 0) on Z/2 x Z/2 with indices 1 and 2 swapped is a 4-cycle
    G = FinAbGroup([2, 2])
    W = regular_rep(G)
    g = G.generators()[0]
    src = W.operator(g).src.copy()
    src[[1, 2]] = src[[2, 1]]
    broken = W.with_override(g, Operator(W.dim, 1, src, np.zeros(4)))
    with pytest.raises(DefectError, match="longer than the generator's order"):
        commutant_d(broken)


def test_orbit_solver_pair_budget():
    # 513^2 index pairs exceed ENTRY_BUDGET = 512^2
    with pytest.raises(ResourceLimitError) as exc:
        commutant_d(regular_rep(FinAbGroup([513])))
    assert (exc.value.budget, exc.value.size) == ("ENTRY_BUDGET", 513 ** 2)


def test_intertwiner_of_bicharacters_beyond_table_cap():
    # (Z/9)^4 has order 6561, its |G|^2 table past ENTRY_BUDGET: the bicharacters are
    # compared on generator pairs
    G = FinAbGroup([9, 9, 9, 9])
    mat = [[ZERO] * 4 for _ in range(4)]
    for i in range(2):
        mat[i][i + 2], mat[i + 2][i] = Phase(1, 9), Phase(-1, 9)
    m = Bicharacter(G, mat).to_multiplier()
    e = [G.element([int(i == j) for j in range(4)]) for i in range(4)]
    W1 = induced_model(G, m, subgroup_span(G, e[:2]), check=False)
    W2 = induced_model(G, m, subgroup_span(G, e[2:]), check=False)
    res = intertwiner(W1, W2)
    assert res["dimension"] == 1 and res["unitary_defect"] <= 1e-9
    other = Bicharacter(G, [[-b for b in row] for row in mat]).to_multiplier()
    W3 = induced_model(G, other, subgroup_span(G, e[:2]), check=False)
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
