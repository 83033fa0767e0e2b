import ast
import dataclasses
import itertools
import json
from collections import Counter
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit.errors import DefectError, InputError, PreconditionError
from weylkit.groups import FinAbGroup, Subgroup, double_image, double_preimage, subgroup_span
from weylkit.isotropy import is_isotropic, polar
from weylkit.cli import build_model, build_parser, parse_group, parse_multiplier, parse_subgroup
from weylkit.models import (Operator, ProjectiveRep, _intertwining_orbits, check_rep_law,
                            identity_operator, induced_model, regular_rep, schrodinger_model)
from weylkit.padic import vacuum_profile, window_weyl
from weylkit.multipliers import Bicharacter, PhaseMap, TableMultiplier, antisymmetrize
from weylkit.phases import HALF, Phase, ZERO
from weylkit.vacuum import (
    _descended_multiplier,
    _jordan_wigner,
    clifford_basis,
    coherent_states,
    descend,
    generated_subspace,
    normalizer_check,
    permute_check,
    sectors,
    vacuum_normalizer,
)

from conftest import (block_symplectic_model, fresh_rep, same_multiplier_pairs, window, window_model,
                      z9_setup)


# -- sector decomposition ----------------------------------------------------

def test_sectors_z9(z9):
    G, m, L, W = z9
    S = sectors(W, L)
    assert S.labeled
    assert len(S.dims) == 9
    assert all(d == 1 for d in S.dims.values())
    assert S.vacuum_dim == 1
    assert S.eigen_check().passed
    assert set(S.coset_dims().values()) == {1}


def test_sectors_p2_window():
    W = window_model(2, 1, 1)
    w = window(2, 1, 1)
    S = sectors(W, w.L)
    assert S.vacuum_dim == 2
    assert sum(S.dims.values()) == 4
    dims = S.coset_dims()
    assert dims[(0, 0)] == 2
    assert S.eigen_check().passed


def test_sectors_regular_rep_full_group():
    # with L = G and trivial multiplier the sectors are the character lines
    G = FinAbGroup([3])
    R = regular_rep(G)
    S = sectors(R, Subgroup.full(G))
    assert sorted(S.dims.values()) == [1, 1, 1]
    assert not S.labeled
    assert S.eigen_check().passed


def projector(S, u):
    """Oracle: the group-averaged projector sum_a conj(chi_u(a)) W(a) / |L|, one a at a time."""
    elems = S.L.elements()
    nums = S.char_nums(u)
    coeff = np.exp(-2j * np.pi * nums / S.char_exp) / len(elems)
    eye = np.eye(S.rep.dim, dtype=complex)
    P = np.zeros((S.rep.dim, S.rep.dim), dtype=complex)
    for c, a in zip(coeff, elems):
        P += c * S.rep.operator(a).apply(eye)
    return P


def gram_schmidt(P, tol=1e-8):
    """Oracle: modified Gram-Schmidt over the columns of P in index order."""
    basis = []
    for j in range(P.shape[1]):
        v = P[:, j].astype(complex)
        for b in basis:
            v = v - b * (b.conj() @ v)
        nrm = np.linalg.norm(v)
        if nrm > tol:
            basis.append(v / nrm)
    return np.stack(basis, axis=1) if basis else np.zeros((P.shape[0], 0), dtype=complex)


@st.composite
def reps_with_isotropic_subgroups(draw):
    """(W, L): a window with its L, or a rep of ``same_multiplier_pairs`` and a subgroup
    on which its multiplier vanishes, grown from drawn elements and, on small groups,
    sometimes from all of them in rank order (L = G for the regular reps)."""
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from([(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1)]))
        return window_model(*key), window(*key).L
    W = draw(same_multiplier_pairs())[0]
    G, m = W.group, W.multiplier
    L = subgroup_span(G, [])
    ranks = draw(st.lists(st.integers(0, G.order - 1), max_size=8))
    if G.order <= 81 and draw(st.booleans()):
        ranks += range(G.order)
    for r in ranks:
        grown = subgroup_span(G, list(L.generators) + [G.element_by_rank(r)])
        if is_isotropic(grown, m):
            L = grown
    return W, L


@settings(max_examples=40, deadline=None)
@given(case=reps_with_isotropic_subgroups())
def test_exact_sectors_match_projector_oracle(case):
    W, L = case
    S = sectors(W, L)
    assert sum(S.dims.values()) == W.dim
    for u in (x.coords for x in FinAbGroup(S.orders).elements()):
        P = projector(S, u)
        B = S.basis_of(u)
        assert S.dims.get(u, 0) == B.shape[1] == round(np.trace(P).real)
        assert np.allclose(B.conj().T @ B, np.eye(B.shape[1]), rtol=0, atol=1e-9)
        assert np.allclose(B @ B.conj().T, P, rtol=0, atol=1e-9)     # span = range of P
        for h, uk, d in zip(S.gens, u, S.orders):
            assert np.allclose(W.operator(h).apply(B), np.exp(2j * np.pi * uk / d) * B,
                               rtol=0, atol=1e-9)


class PairSolve:
    """Oracle: the n |L| pair solve of the sectors, one ``_intertwining_orbits`` call from
    the diagonal rep of L's |L| characters into W at L's generators, with its per-pair
    label, potential and basis index arrays."""

    def __init__(self, W, L):
        gens, self.orders = L.decomposition()
        E = lcm(*self.orders) if self.orders else 1
        chars = FinAbGroup(self.orders).coords_array()
        chi = chars * np.array([E // d for d in self.orders], dtype=np.int64)
        self.dim, n = W.dim, L.order
        diagonal = (np.broadcast_to(np.arange(n), (len(self.orders), n)), chi.T, E)
        self.label, self.pot, self.den, good = \
            _intertwining_orbits(self.orders, diagonal, W.rows(gens))
        counts = np.bincount(good % n, minlength=n)
        self.dims = {tuple(chars[j].tolist()): int(counts[j]) for j in np.flatnonzero(counts)}
        root = np.zeros(self.label.size, dtype=bool)
        root[good] = True
        root = root.reshape(W.dim, n)
        self.vector = np.where(root, np.cumsum(root, axis=0) - 1, -1).ravel()[self.label]

    def basis_of(self, u):
        n = len(self.vector) // self.dim
        j = FinAbGroup(self.orders).rank_of(u)
        k = self.vector[j::n]
        on = np.flatnonzero(k >= 0)
        B = np.zeros((self.dim, self.dims.get(tuple(u), 0)), dtype=complex)
        B[on, k[on]] = np.exp(2j * np.pi * self.pot[j::n][on] / self.den)
        return B / np.sqrt(np.bincount(k[on], minlength=B.shape[1]))

    def pairs(self, column=None):
        pairs = np.flatnonzero(self.vector >= 0)
        return pairs if column is None else pairs[pairs % (len(self.vector) // self.dim) == column]

    def transport(self, rows, pairs, source=None):
        SRC, NUM, den = rows
        n = len(self.vector) // self.dim
        i, t = np.divmod(pairs, n)
        q = SRC[:, i] * n + (t if source is None else source[t])
        d = lcm(den, self.den)
        src = self.vector[q]
        num = (NUM[:, i] * (d // den) + (self.pot[q] - self.pot[pairs]) * (d // self.den)) % d
        at = np.searchsorted(pairs, self.label[pairs])
        return src, num, d, (src < 0) | (src != src[:, at]) | (num != num[:, at])


def labeled_oracle(S):
    """Oracle: the coset labeling one transversal element at a time in Phase arithmetic,
    as (labeled, coset dims or None), checking m(a, y) = chi_u(a) at every a in L."""
    G, m = S.rep.group, S.rep.multiplier
    if S.L.order ** 2 != G.order or polar(S.L, m) != S.L:
        return False, None
    labels = {}
    for y in S.L.transversal():
        try:
            u = tuple(m(h, y).numerator_at(d) % d for h, d in zip(S.gens, S.orders))
        except ValueError:
            return False, None
        if any(m(a, y) != Phase(int(v), S.char_exp) for a, v in zip(S.L.elements(), S.char_nums(u))):
            return False, None
        labels[y.coords] = u
    if len(set(labels.values())) != S.L.index:
        return False, None
    return True, {y: S.dims.get(u, 0) for y, u in labels.items()}


@settings(max_examples=80, deadline=None)
@given(case=reps_with_isotropic_subgroups(), data=st.data())
def test_one_sided_sectors_match_pair_solve(case, data):
    """Dims, bitwise bases, per-pair data and ``_transport`` equal the pair solve's; with
    one generator of L faulted, sectors refuse exactly when the pair solve's dims fall short."""
    W, L = case
    gens = L.decomposition()[0]
    if gens and data.draw(st.booleans()):
        h, i = data.draw(st.sampled_from(gens)), data.draw(st.integers(0, W.dim - 1))
        W = _faulty(W, h, **data.draw(st.sampled_from([{"row": i}, {"phase": HALF}, {}])))
    try:
        old = PairSolve(W, L)
    except DefectError:
        old = None
    if old is None or sum(old.dims.values()) < W.dim:
        with pytest.raises(DefectError):
            sectors(W, L)
        return
    S = sectors(W, L)
    assert list(S.dims.items()) == list(old.dims.items())
    assert S._den == old.den
    everything = np.arange(W.dim * L.order)
    assert (S._label(everything) == old.label).all()
    assert (S._vector(everything) == old.vector).all()
    assert (S._pot(everything) == old.pot).all()
    for u in FinAbGroup(S.orders).elements():
        assert S.basis_of(u.coords).tobytes() == old.basis_of(u.coords).tobytes()
    labeled, dims = labeled_oracle(S)
    assert S.labeled == labeled
    assert (list(S.coset_dims().items()) if labeled else None) == (list(dims.items()) if labeled else None)
    G = W.group
    ranks = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    elems = L.elements() + G.generators() + [G.element_by_rank(r) for r in ranks]
    rows = W.rows(elems)
    shift = np.array(data.draw(st.permutations(range(L.order))), dtype=np.int64)
    for column, source in [(None, None), (0, None), (None, shift)]:
        pairs = S._pairs(column)
        assert pairs.tolist() == old.pairs(column).tolist()
        for new, want in zip(S._transport(rows, pairs, source), old.transport(rows, pairs, source)):
            assert np.array_equal(new, want)


@pytest.mark.parametrize("key", [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 1, 3), (2, 3, 1), (2, 2, 2)])
def test_vacuum_basis_is_gram_schmidt_bitwise(key):
    S = sectors(window_model(*key), window(*key).L)
    assert S.vacuum_basis().tobytes() == gram_schmidt(projector(S, (0,) * len(S.orders))).tobytes()


def _override_first_generator(W, L, src=None, shift=0):
    """W with the operator at L's first decomposition generator replaced by a faulty monomial."""
    h = L.decomposition()[0][0]
    op = W.operator(h)
    src = op.src if src is None else src(op.src.copy())
    num = op.num.copy()
    num[0] += shift
    return W.with_override(h, Operator(W.dim, op.den, src, num))


def test_sectors_refuse_noncommuting_generators():
    # on Z/2 x Z/2, translation by (1, 0) with indices 0 and 1 swapped back is
    # the transposition (2 3), which does not commute with translation by (0, 1)
    G = FinAbGroup([2, 2])
    L = Subgroup.full(G)

    def swap(src):
        src[[0, 1]] = src[[1, 0]]
        return src

    with pytest.raises(DefectError, match="do not commute"):
        sectors(_override_first_generator(regular_rep(G), L, src=swap), L)


def test_sectors_phase_fault_breaks_dimension_sum(z9):
    # the shifted phase leaves the cycle through index 0 with no character of L
    _, _, L, W = z9
    with pytest.raises(DefectError, match="sector dimensions sum to"):
        sectors(_override_first_generator(W, L, shift=1), L)


def test_sectors_of_regular_rep_beyond_pair_budget():
    # 513 indices x 513 characters exceed ENTRY_BUDGET, but the walk visits 513 indices
    G = FinAbGroup([513])
    S = sectors(regular_rep(G), Subgroup.full(G))
    assert S.dims == {(u,): 1 for u in range(513)}
    B = np.concatenate([S.basis_of((u,)) for u in range(513)], axis=1)
    assert np.allclose(B.conj().T @ B, np.eye(513), rtol=0, atol=1e-9)


def test_sectors_build_only_generator_operators(monkeypatch):
    w = window(2, 2, 1)
    gens = {h.coords for h in w.L.decomposition()[0]}
    W = window_model(2, 2, 1)
    built = []
    R = ProjectiveRep(W.group, W.multiplier, W.dim,
                      lambda Y: built.extend(map(tuple, Y.tolist())) or W.fn(Y), W.den)
    built.clear()
    S = sectors(R, w.L)
    assert set(built) <= gens and S.vacuum_dim == 2
    # the generator rows come from one call of the formula, not from operator()
    B = window_weyl(w)
    calls = []
    operator = ProjectiveRep.operator
    monkeypatch.setattr(ProjectiveRep, "operator", lambda self, x: calls.append(x) or operator(self, x))
    sectors(B, w.L)
    assert calls == []


def test_sectors_match_bruteforce_eigenspaces():
    # oracle: intersect the numeric eigenspaces of the commuting W(a), a in L
    W = window_model(2, 1, 1)
    w = window(2, 1, 1)
    S = sectors(W, w.L)
    for u, d in S.dims.items():
        nums = S.char_nums(u)
        count = 0
        # dimension of the joint eigenspace by rank of the averaged projector,
        # rebuilt here directly from eigen-decompositions
        P = np.eye(W.dim, dtype=complex)
        for k, a in enumerate(S.L.elements()):
            M = W.operator(a).matrix
            lam = np.exp(2j * np.pi * nums[k] / S.char_exp)
            vals, vecs = np.linalg.eig(M)
            keep = vecs[:, np.abs(vals - lam) < 1e-8]
            P = P @ (keep @ np.linalg.pinv(keep))
        count = int(round(np.trace(P).real))
        assert count == d


def test_sectors_require_isotropy(z9):
    G, m, L, W = z9
    full = subgroup_span(G, [G.element([1, 0]), G.element([0, 1])])
    with pytest.raises(PreconditionError):
        sectors(W, full)


# -- vacuum dimensions -------------------------------------------------------

@pytest.mark.parametrize("p,k,d,expected", [
    (3, 1, 1, 1),
    (2, 1, 1, 2),
    (2, 2, 1, 2),
])
def test_vacuum_dims(p, k, d, expected):
    W = window_model(p, k, d)
    B = sectors(W, window(p, k, d).L).vacuum_basis()
    assert B.shape[1] == expected


# -- permutation of sectors --------------------------------------------------

def test_permute_by_subgroup_element_fixes(z9):
    G, m, L, W = z9
    S = sectors(W, L)
    assert permute_check(S, G.element([3, 0])).passed  # x in L: [2x] = [0]


def test_permute_shift_z9(z9):
    G, m, L, W = z9
    S = sectors(W, L)
    rep = permute_check(S, G.element([1, 0]))
    assert rep.passed


def test_permute_p2_window_stays_put():
    # 2x lands in L for the k=1 window, so every sector maps to itself
    W = window_model(2, 1, 1)
    w = window(2, 1, 1)
    S = sectors(W, w.L)
    G = w.group
    mt = antisymmetrize(w.m)
    for x in G.generators():
        assert all(mt(h, x) == ZERO for h in S.gens)  # the character shift is trivial
        assert permute_check(S, x).passed


# -- normalizer ---------------------------------------------------------------

def test_normalizer_z9(z9):
    G, m, L, W = z9
    rep = normalizer_check(sectors(W, L))
    assert rep.passed


def test_normalizer_p2_k1_all_preserve():
    W = window_model(2, 1, 1)
    w = window(2, 1, 1)
    rep = normalizer_check(sectors(W, w.L))
    assert rep.passed
    vacuous = [c for c in rep.checks if c.name == "outside L/2 moves vacuum"]
    assert vacuous and "vacuously" in vacuous[0].note


def test_normalizer_p2_k2_outside_moves():
    W = window_model(2, 2, 1)
    w = window(2, 2, 1)
    rep = normalizer_check(sectors(W, w.L))
    assert rep.passed
    moved = [c for c in rep.checks if c.name == "outside L/2 moves vacuum"]
    assert moved and moved[0].passed


def verdicts(rep):
    return {c.name: c.passed for c in rep.checks}


def eigen_oracle(S, tol=1e-9):
    """Oracle: || W(a) psi - chi(a) psi || <= tol, densely, for every a in L and sector basis vector."""
    worst = 0.0
    for u in S.dims:
        B, nums = S.basis_of(u), S.char_nums(u)
        for k, a in enumerate(S.L.elements()):
            lam = np.exp(2j * np.pi * nums[k] / S.char_exp)
            worst = max(worst, float(np.abs(S.rep.operator(a).apply(B) - lam * B).max()))
    return worst <= tol


def permute_oracle(S, x, tol=1e-9):
    """Oracle: W(x) B_u projects back into the sector of u + m~(., x) whole, with equal dims."""
    mt = antisymmetrize(S.rep.multiplier)
    contained = transported = True
    for u in S.dims:
        t = tuple((ui + mt(h, x).numerator_at(d)) % d for ui, h, d in zip(u, S.gens, S.orders))
        Bt, img = S.basis_of(t), S.rep.operator(x).apply(S.basis_of(u))
        contained &= float(np.abs(img - Bt @ (Bt.conj().T @ img)).max()) <= tol
        transported &= S.dims.get(t, 0) == S.dims[u]
    return {"image containment": contained, "dimension transport": transported}


def normalizer_oracle(W, L, tol=1e-9):
    """Oracle: the dense-projection normalizer check over every element, not a sample."""
    G = W.group
    B0 = sectors(W, L).vacuum_basis()
    if B0.shape[1] == 0:
        raise PreconditionError("vacuum space is zero")
    P0 = B0 @ B0.conj().T
    L2 = vacuum_normalizer(W, L)
    out = {}
    form = W.multiplier.bichar
    if form is not None and form.is_alternating:
        out["normalizer equals L/2"] = L2 == double_preimage(G, L)

    def image(x):
        return W.operator(x).apply(B0)

    def defect(x):
        return float(np.abs(image(x) - P0 @ image(x)).max())

    out["L/2 preserves vacuum"] = all(defect(x) <= tol for x in L2.elements())
    out["outside L/2 moves vacuum"] = all(defect(x) > tol for x in G.elements()
                                          if not L2.contains(x))
    out["2L-periodicity on vacuum"] = all(
        float(np.abs(image(x + a) - image(x)).max()) <= tol
        for x in L2.elements() for a in double_image(G, L).elements())
    return out


@settings(max_examples=40, deadline=None)
@given(case=reps_with_isotropic_subgroups(), fault=st.integers(0, 2 ** 30))
def test_exact_vacuum_checks_match_dense_oracles(case, fault):
    """Exact verdicts equal the dense oracles' on the drawn reps, and on the reps with one
    nonzero element's operator, or one row of it, changed in sign."""
    W, L = case
    kind, r, i = fault % 3, fault // 3 % W.group.order, fault // 3 // W.group.order % W.dim
    if kind and r:
        W = _faulty(W, W.group.element_by_rank(r), **({"phase": HALF} if kind == 1 else {"row": i}))
    try:
        S = sectors(W, L)
    except DefectError:
        return      # a faulty generator of L can leave no consistent sectors
    assert S.eigen_check().passed == eigen_oracle(S)
    for x in W.group.generators():
        assert verdicts(permute_check(S, x)) == permute_oracle(S, x)
    if S.vacuum_dim == 0:
        with pytest.raises(PreconditionError):
            normalizer_check(S)
    else:
        assert verdicts(normalizer_check(S)) == normalizer_oracle(W, L)


# -- fault injection on the (2,2,1) window: L = 4Z^2 < L/2 = 2Z^2 < G = (Z/16)^2 --

def _faulty(W, x, row=None, phase=None):
    """W with W(x) replaced: a sign flip on one row, or a global phase (None: the identity)."""
    if row is None and phase is None:
        return W.with_override(x, identity_operator(W.dim))
    op = W.operator(x)
    if phase is not None:
        return W.with_override(x, op.scaled(phase))
    num = op.num.copy()
    num[row] += op.den // 2
    return W.with_override(x, Operator(W.dim, op.den, op.src, num))


def _window_221():
    """(W, L, i0, i1): the (2,2,1) window and its L, with the vacuum's least index i0 and
    the second index i1 of the orbit through it, an index that no orbit starts at."""
    W, L = fresh_rep(window_model(2, 2, 1)), window(2, 2, 1).L
    orbit = np.flatnonzero(sectors(W, L).vacuum_basis()[:, 0])
    return W, L, int(orbit[0]), int(orbit[1])


def _check(rep, name):
    return next(c for c in rep.checks if c.name == name)


def test_eigen_check_fault_at_non_generator_of_L():
    W, L, _, i = _window_221()
    a = sum(L.decomposition()[0], W.group.zero())
    assert a.coords not in {h.coords for h in L.decomposition()[0]}
    assert sectors(W, L).eigen_check().passed
    rep = sectors(_faulty(W, a, row=i), L).eigen_check()
    assert not rep.passed and _check(rep, "eigenvalue").witness == (a.coords, i)


def test_permute_check_fault():
    W, L, _, i = _window_221()
    x = W.group.generators()[0]
    assert permute_check(sectors(W, L), x).passed
    check = _check(permute_check(sectors(_faulty(W, x, row=i), L), x), "image containment")
    assert not check.passed and check.witness == (x.coords, i)


@pytest.mark.parametrize("kind", ["inside", "outside", "period"])
def test_normalizer_check_faults(kind):
    W, L, i0, i = _window_221()
    G = W.group
    L2, twoL = double_preimage(G, L), double_image(G, L)
    assert L2 == vacuum_normalizer(W, L) and L.order < L2.order < G.order
    assert normalizer_check(sectors(W, L)).passed
    if kind == "inside":
        # a sign on one vacuum row of an element of L/2 \ L
        x = next(x for x in L2.elements() if not L.contains(x))
        name, F, want = "L/2 preserves vacuum", _faulty(W, x, row=i), i
    elif kind == "outside":
        # an element outside L/2 that acts as the identity keeps the vacuum
        x = next(x for x in G.elements() if not L2.contains(x))
        name, F, want = "outside L/2 moves vacuum", _faulty(W, x), i0
    else:
        # x + a, a in 2L, whose vacuum map is the negative of that of x
        x0 = next(x for x in L2.elements() if not L.contains(x))
        x = max((x0 + a for a in twoL.elements()), key=lambda y: y.rank)
        name, F, want = "2L-periodicity on vacuum", _faulty(W, x, phase=HALF), i0
    check = _check(normalizer_check(sectors(F, L)), name)
    assert not check.passed and check.witness == (x.coords, want)


# -- the checks decided at generators once the law holds ----------------------

def _law_checked(W):
    """A fresh rep of W's formula whose law check has passed, its verdict kept."""
    W = fresh_rep(W)
    assert check_rep_law(W).passed
    return W


def _coset_twist(W, L):
    """W twisted by a drawn map that is constant on the cosets of L and 0 on L, so that its
    table multiplier still vanishes on L x L, with the twisted rep's law checked."""
    G = W.group
    codes = L.coset_index(G.coords_array()).tolist()
    rng = np.random.default_rng(7)
    value = {c: int(rng.integers(1, 5)) if c else 0 for c in set(codes)}
    Wt = W.twisted(PhaseMap(G, {x.coords: Phase(value[c], 5) for x, c in zip(G.elements(), codes)}))
    assert check_rep_law(Wt).passed
    return Wt


def _span(W, gens):
    return subgroup_span(W.group, [W.group.element(g) for g in gens])


def _law_proved_case(name):
    """(W, L): a law-checked model, its verdict kept on it, with an isotropic L."""
    if name == "window-2-2-1":
        return _law_checked(window_model(2, 2, 1)), window(2, 2, 1).L
    if name == "7373":
        W = _law_checked(block_symplectic_model((7, 3, 7, 3), (3, 2), ((1, 0, 0, 0), (0, 1, 0, 0))))
        return W, _span(W, ((0, 0, 1, 0), (0, 0, 0, 1)))
    if name == "9595":
        lagrangian = ((3, 0, 0, 0), (0, 0, 3, 0), (0, 1, 0, 0))
        W = _law_checked(block_symplectic_model((9, 5, 9, 5), (7, 4), lagrangian))
        return W, _span(W, lagrangian)
    W = _law_checked(block_symplectic_model((9, 9), (1,), ((3, 0), (0, 3))))
    L = _span(W, ((3, 0), (0, 3)))
    return (_coset_twist(W, L) if name == "z9-table" else W), L


def _spy_rows(W) -> list:
    """Record the coordinate rows of every later ``W.rows`` call."""
    read, rows = [], W.rows
    W.rows = lambda Y: read.extend(map(tuple, np.asarray(Y).tolist())) or rows(Y)
    return read


def _summary(rep):
    return [(c.name, c.passed, c.witness, c.note) for c in rep.checks]


@pytest.mark.parametrize("case", ["z9", "7373", "9595", "window-2-2-1", "z9-table"])
def test_law_proved_vacuum_checks_read_generators(case):
    # once the law holds, eigen_check reads L's decomposition generators, and
    # normalizer_check 0 and L/2's generators, a representative of each nonzero coset
    # of L/2 and, for a bicharacter, x + a_j for those x and 2L's generators a_j; a
    # table multiplier's periodicity reads the rows of L/2.  The reports equal the
    # scans' on a fresh rep of the same formula, whose law is undecided.
    W, L = _law_proved_case(case)
    G = W.group
    assert W.law_holds
    S = sectors(W, L)
    read = _spy_rows(W)
    eigen, norm = S.eigen_check(), normalizer_check(S)
    L2, twoL = vacuum_normalizer(W, L), double_image(G, L)
    X0 = [G.zero()] + list(L2.generators)
    want = [h.coords for h in S.gens] + [x.coords for x in X0] + \
        [tuple(c) for c in L2.transversal_coords()[1:].tolist()]
    if W.multiplier.bichar is not None:
        want += [(x + a).coords for x in X0 for a in twoL.generators]
    else:
        want += [x.coords for x in L2.elements()]
    assert read == want and len(set(read)) < G.order
    F = fresh_rep(W)
    assert F.law_holds is None
    SF = sectors(F, L)
    assert _summary(eigen) == _summary(SF.eigen_check()) and eigen.passed
    assert _summary(norm) == _summary(normalizer_check(SF)) and norm.passed


@pytest.mark.parametrize("case,fault", [("9595", "character"), ("window-2-2-1", "potential")])
def test_fault_in_sector_data_fails_generators_with_the_scan_witness(case, fault):
    # the planted fault fails a generator read, so the scans run and name their witness:
    # the reports equal those of the same fault on a fresh rep, whose law is undecided
    W, L = _law_proved_case(case)
    reports = []
    for rep in (W, fresh_rep(W)):
        S = sectors(rep, L)
        if fault == "character":
            # chi(h_0) of an occurring nonzero character moves by 1/d_0; L fixes every index
            j = FinAbGroup(S.orders).rank_of(max(S.dims))
            S._chi = S._chi.copy()
            S._chi[j, 0] = (S._chi[j, 0] + S.char_exp // S.orders[0]) % S.char_exp
        else:
            # a sign at the second index of the orbit through the least vacuum index
            i = int(np.flatnonzero(S.vacuum_basis()[:, 0])[1])
            S._ipot = S._ipot.copy()
            S._ipot[i] += S._den // 2
        read = _spy_rows(rep)
        reports.append((_summary(S.eigen_check()), _summary(normalizer_check(S))))
        assert len(read) > L.order         # the eigen scan reads every element of L
    assert reports[0] == reports[1]
    eigen, norm = reports[0]
    assert not eigen[0][1] and eigen[0][2] is not None
    assert dict((name, passed) for name, passed, _, _ in norm)["L/2 preserves vacuum"] == \
        (fault == "character")


# -- generated subspaces -------------------------------------------------------

def dense_generated_subspace(W, L, K, tol=1e-9):
    """Oracle: the span of W(x) K over L's coset representatives by float SVDs, for K a
    (dim x k) array in the vacuum space; its projection back onto H^L must be span K."""

    def orthonormal_columns(M, cutoff=1e-8):
        if M.size == 0:
            return np.zeros((M.shape[0], 0), dtype=complex)
        u, sv, _ = np.linalg.svd(M, full_matrices=False)
        return u[:, :int((sv > cutoff).sum())]

    B0 = sectors(W, L).vacuum_basis()
    Kb = orthonormal_columns(np.asarray(K, dtype=complex).reshape(W.dim, -1))
    P0 = B0 @ B0.conj().T
    if Kb.size and float(np.abs(Kb - P0 @ Kb).max()) > tol:
        raise PreconditionError("K is not contained in the vacuum space")
    PK = Kb @ Kb.conj().T
    for x in vacuum_normalizer(W, L).generators:
        img = W.operator(x).apply(Kb) if Kb.size else Kb
        if Kb.size and float(np.abs(img - PK @ img).max()) > tol:
            raise PreconditionError(f"K is not invariant under the vacuum normalizer (witness {x.coords})")
    if not Kb.size:
        return np.zeros((W.dim, 0), dtype=complex)
    span = orthonormal_columns(np.concatenate([W.operator(r).apply(Kb) for r in L.transversal()], axis=1))
    back = orthonormal_columns(P0 @ span)
    if float(np.abs(back @ back.conj().T - PK).max()) > tol:
        raise DefectError("projection of the generated subspace differs from K")
    return span


def span_columns(W, L, span):
    """The dense orthonormal columns of generated_subspace's (character, column) pairs."""
    S = sectors(W, L)
    return np.array([S.basis_of(u)[:, k] for u, k in span], dtype=complex).reshape(len(span), W.dim).T


def test_generated_fills_space_z9(z9):
    G, m, L, W = z9
    span = generated_subspace(W, L, range(sectors(W, L).vacuum_dim))
    assert len(span) == W.dim
    assert sorted(u for u, _ in span) == sorted(sectors(W, L).dims)


def test_generated_gap_p2_k1():
    W = window_model(2, 1, 1)
    w = window(2, 1, 1)
    assert sectors(W, w.L).vacuum_dim == 2
    # generation stalls on the vacuum
    assert generated_subspace(W, w.L, [0, 1]) == [((0, 0), 0), ((0, 0), 1)]


def test_generated_zero():
    W = window_model(2, 1, 1)
    w = window(2, 1, 1)
    assert generated_subspace(W, w.L, []) == []


def test_generated_orthogonality_preserved(z9):
    G, m, L, W = z9
    WW = W.direct_sum(W)
    assert sectors(WW, L).vacuum_dim == 2
    S1 = generated_subspace(WW, L, [0])
    S2 = generated_subspace(WW, L, [1])
    assert len(S1) == len(S2) == W.dim
    # disjoint sets of orthonormal basis vectors span orthogonal subspaces
    assert not set(S1) & set(S2)


def test_generated_rejects_noninvariant():
    W = window_model(2, 2, 1)
    w = window(2, 2, 1)
    # a single vacuum line is moved around by W(L/2) here
    with pytest.raises(PreconditionError, match="not invariant"):
        generated_subspace(W, w.L, [0])


def test_generated_rejects_columns_outside_the_vacuum(z9):
    G, m, L, W = z9
    with pytest.raises(PreconditionError, match="vacuum basis columns"):
        generated_subspace(W, L, [1])


def _generated_case(case):
    if isinstance(case, tuple):
        return window_model(*case), window(*case).L
    G, m, L, W = z9_setup()
    return (W if case == "z9" else W.direct_sum(W)), L


@pytest.mark.parametrize("case", ["z9", "z9+z9", (2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1)], ids=str)
def test_generated_subspace_matches_dense_oracle(case):
    # every subset K of the vacuum columns: the same refusals, and the same span where both accept
    W, L = _generated_case(case)
    B0 = sectors(W, L).vacuum_basis()
    n = B0.shape[1]
    for size in range(n + 1):
        for K in itertools.combinations(range(n), size):
            try:
                dense = dense_generated_subspace(W, L, B0[:, list(K)])
            except PreconditionError:
                dense = None
            if dense is None:
                with pytest.raises(PreconditionError):
                    generated_subspace(W, L, K)
                continue
            span = generated_subspace(W, L, K)
            assert len(span) == dense.shape[1], (case, K)
            B = span_columns(W, L, span)
            assert np.abs(B @ B.conj().T - dense @ dense.conj().T).max() <= 1e-9, (case, K)


def test_generated_subspace_2_1_5_is_the_vacuum():
    # L/2 = G, so every coset representative maps the vacuum to itself and the span is K;
    # a dense check would need 1024 x 1024 projectors, past ENTRY_BUDGET
    w = window(2, 1, 5)
    W = window_model(2, 1, 5)
    assert vacuum_normalizer(W, w.L).order == w.group.order
    zero = (0,) * len(sectors(W, w.L).orders)
    assert generated_subspace(W, w.L, range(32)) == [(zero, k) for k in range(32)]


def test_generated_subspace_names_a_representative_that_breaks_a_vacuum_vector(z9):
    G, m, L, W = z9
    x = G.element([0, 1])
    SRC, NUM, den = W.rows([x])
    # the vacuum is the line of index 0, which W(x) maps to index 6; send it to index 7,
    # where the sector of m~(., x) has no basis vector
    src = SRC[0].copy()
    assert src[6] == 0
    src[[6, 7]] = src[[7, 6]]
    with pytest.raises(DefectError, match="does not carry K") as exc:
        generated_subspace(W.with_override(x, Operator(W.dim, den, src, NUM[0])), L, [0])
    assert exc.value.witness == ((0, 1), 6)


# -- descent -------------------------------------------------------------------

def test_descend_z9_trivial(z9):
    G, m, L, W = z9
    D = descend(W, L)
    assert D.v2.order == 1
    assert D.rep0.dim == 1


def test_descend_p2_k1():
    W = window_model(2, 1, 1)
    w = window(2, 1, 1)
    D = descend(W, w.L)
    assert D.v2.order == 4
    assert D.v2.moduli == (2, 2)
    assert D.rep0.dim == 2
    assert D.report.passed
    # generators act as a Pauli-like pair up to phase
    ops = [D.rep0.operator(v).matrix for v in D.v2.elements() if not v.is_zero()]
    kinds = set()
    for M in ops:
        if np.abs(M - np.diag(np.diag(M))).max() < 1e-9:
            kinds.add("diag")
        elif np.abs(np.diag(M)).max() < 1e-9:
            kinds.add("offdiag")
    assert {"diag", "offdiag"} <= kinds


def test_descend_p2_d2():
    W = window_model(2, 1, 2)
    w = window(2, 1, 2)
    D = descend(W, w.L)
    assert D.v2.order == 16
    assert D.rep0.dim == 4
    assert check_rep_law(D.rep0).passed


def dense_descent(W, D):
    """Oracle: the compressions B0^* W(s(v)) B0 at the section elements, v of V2 in rank order."""
    B0 = D.vacuum_basis
    return [B0.conj().T @ W.operator(s).apply(B0) for _, s in D.quotient.section_list]


def scalar_m0(W, D):
    """Oracle: m0(v, w) = m(s_v, s_w) + m(s_v + s_w - s_{v+w}, s_{v+w}), one pair at a time."""
    q, m = D.quotient, W.multiplier

    def m0(v, w):
        sv, sw, svw = q.section(v), q.section(w), q.section(v + w)
        return m(sv, sw) + m(sv + sw - svw, svw)

    return TableMultiplier.from_function(D.v2, m0)


def _scenario_descent_case():
    path = str(Path(__file__).parent.parent / "scenarios" / "fermion_window_2_1_1.json")
    sc = json.loads(Path(path).read_text())
    G = parse_group(sc["group"])
    args = build_parser().parse_args(["fermion", "--scenario", path])
    return build_model(sc, G, parse_multiplier(sc["multiplier"], G), args), \
        parse_subgroup(sc["subgroup"], G)


def _induced_descent_case(k, d):
    """The induced model of window (2, k, d) on <e_i, 2^(2k-1) e_(d+i)>, with the window's L."""
    w = window(2, k, d)
    G, h = w.group, 2 ** (2 * k - 1)
    A = subgroup_span(G, [G.element([int(j == i) for j in range(2 * d)]) for i in range(d)]
                      + [G.element([h * (j == d + i) for j in range(2 * d)]) for i in range(d)])
    return induced_model(G, w.m, A), w.L


def _gauged_descent_case(k, d):
    """Window (2, k, d) conjugated by a seeded diagonal phase: same multiplier, but the
    vacuum orbit sums carry nonzero potentials."""
    W = window_model(2, k, d)
    phi = np.random.default_rng(k * 10 + d).integers(0, W.den, W.dim)

    def gauged(Y):
        # D W(y) D^-1 for D = diag e(phi / den): same sources, row i gains phi[i] - phi[src[i]]
        SRC, NUM = W.fn(Y)
        return SRC, NUM + phi - phi[SRC]

    return ProjectiveRep(W.group, W.multiplier, W.dim, gauged, W.den), window(2, k, d).L


DESCENT_CASES = {
    **{f"window-{p}-{k}-{d}": (lambda key=(p, k, d): (window_model(*key), window(*key).L))
       for p, k, d in [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 1, 3), (2, 3, 1), (2, 2, 2)]},
    "scenario-fermion-2-1-1": _scenario_descent_case,
    "induced-2-1-1": lambda: _induced_descent_case(1, 1),
    "induced-2-1-2": lambda: _induced_descent_case(1, 2),
    "induced-2-2-1": lambda: _induced_descent_case(2, 1),
    "gauged-2-2-1": lambda: _gauged_descent_case(2, 1),
    "gauged-2-1-2": lambda: _gauged_descent_case(1, 2),
}


@pytest.mark.parametrize("case", list(DESCENT_CASES))
def test_monomial_descent_matches_dense_oracle(case):
    W, L = DESCENT_CASES[case]()
    D = descend(W, L)
    assert D.report.passed
    dense = dense_descent(W, D)
    for v, M in zip(D.v2.elements(), dense):
        assert np.abs(M.conj().T @ M - np.eye(D.rep0.dim)).max() < 1e-12
        assert np.abs(D.rep0.operator(v).matrix - M).max() < 1e-12
    want = scalar_m0(W, D)
    den = lcm(want.den, D.m0.den)
    assert not ((want.num * (den // want.den) - D.m0.num * (den // D.m0.den)) % den).any()
    law = [c for c in D.report.checks if c.name == "W0 law"]
    assert law[0].residual == 0.0 and law[0].note == f"exhaustive over {D.v2.order}^2 pairs"


@pytest.mark.parametrize("fault", ["phase", "index", "orbit"])
def test_descend_refuses_leaking_section_operator(fault):
    # window (2,2,1): 16 carrier indices, a vacuum of two orbit sums over 4 indices each
    W, L = fresh_rep(window_model(2, 2, 1)), window(2, 2, 1).L
    D = descend(W, L)
    s = D.quotient.section_list[1][1]
    orbits = [np.flatnonzero(D.vacuum_basis[:, k]) for k in range(D.rep0.dim)]
    vac = np.concatenate(orbits)
    op = W.operator(s)
    src, num = op.src.copy(), op.num.copy()
    if fault == "phase":
        # row i gains a sign: W(s) no longer carries its orbit sum whole
        num[orbits[0][1]] += op.den // 2
    elif fault == "index":
        # row i reads from a non-vacuum index
        i, j = orbits[0][1], np.setdiff1d(np.arange(W.dim), vac)[0]
        src[[i, j]] = src[[j, i]]
    else:
        # rows of two image orbits trade sources, away from the orbits' least indices
        i, j = orbits[0][1], orbits[1][1]
        src[[i, j]] = src[[j, i]]
    leaky = W.with_override(s, Operator(W.dim, op.den, src, num))
    with pytest.raises(DefectError, match="does not preserve the vacuum space") as exc:
        descend(leaky, L)
    assert exc.value.witness == (s.coords, int(orbits[0][1]))


def test_descend_section_is_canonical():
    W = window_model(2, 1, 1)
    w = window(2, 1, 1)
    D = descend(W, w.L)
    # rank-minimal representatives: exactly the 0/1 coordinate vectors
    assert set(D.section_coords) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_descend_refuses_an_action_that_does_not_factor_through_L():
    # a Weyl product on (Z/8)^2 with L isotropic but m~(L/2, L) != 0; the named pair is the
    # first failing one over the generators of L/2 and of L: ((0, 1), (4, 0))
    G = FinAbGroup([8, 8])
    m = Bicharacter(G, [[ZERO, ZERO], [Phase(1, 8), ZERO]])
    L = subgroup_span(G, [G.element([0, 2]), G.element([4, 0])])
    with pytest.raises(PreconditionError, match="the action does not factor through L") as exc:
        descend(induced_model(G, m, L), L)
    x, a = (G.element(c) for c in ast.literal_eval(str(exc.value).split(" != 0")[0][2:]))
    assert (x.coords, a.coords) == ((0, 1), (4, 0))
    assert L.contains(2 * x) and L.contains(a)
    assert m(x, a) - m(a, x) != ZERO


def test_descent_never_lists_L2_nor_projects_one_element_at_a_time(monkeypatch):
    # the section comes from the 64 cosets of L, not from the 4096 elements of L/2,
    # and every projection is one project_coords call over a whole array
    from weylkit.groups import Quotient
    from weylkit.padic import vacuum_profile
    w = window(2, 1, 3)
    L2 = double_preimage(w.group, w.L)
    listed, projected = [], []
    elements, project = Subgroup.elements, Quotient.project
    monkeypatch.setattr(Subgroup, "elements", lambda self: listed.append(self) or elements(self))
    monkeypatch.setattr(Quotient, "project", lambda self, x: projected.append(x) or project(self, x))
    D = descend(window_model(2, 1, 3), w.L)
    assert D.v2.order == 64 and L2 not in listed
    assert vacuum_profile(w)["report"].passed
    assert L2 not in listed and projected == []


def test_descended_multiplier_sums_are_bounded_by_int64():
    # m(s_v, s_w) + m(a(v, w), s_{v+w}) reaches 2 (den - 1), past int64 for den > 2^62: on
    # Z/4 with the sections 0 and 1 of Z/2, m0(1, 1) = m(1, 1) + m(2, 0), both den - 1 here
    den = 2 ** 62 + 3
    G, V2 = FinAbGroup([4]), FinAbGroup([2])
    num = np.zeros((4, 4), dtype=np.int64)
    num[1, 1] = num[2, 0] = den - 1
    m = TableMultiplier(G, den, num)
    with pytest.raises(InputError, match="beyond int64"):
        _descended_multiplier(m, V2, [G.element([0]), G.element([1])])
    # over 2^62 the sum fits: m0(1, 1) = 2 (den - 1) mod den = den - 2
    small = TableMultiplier(G, 2 ** 62, np.where(num, 2 ** 62 - 1, 0))
    m0 = _descended_multiplier(small, V2, [G.element([0]), G.element([1])])
    assert int(m0.num[1, 1]) == 2 ** 62 - 2


# -- clifford extraction --------------------------------------------------------

def test_clifford_d1_base_case(f2):
    G, m = f2
    # the standard basis of F_2^2 already has the required Gram for m~
    mt = antisymmetrize(m)
    e1, e2 = G.element([1, 0]), G.element([0, 1])
    assert mt(e1, e2) == HALF


def test_clifford_p2_k1():
    W = window_model(2, 1, 1)
    w = window(2, 1, 1)
    D = descend(W, w.L)
    C = clifford_basis(D)
    assert len(C.elements) == 2
    assert C.max_residual <= 1e-9
    assert C.gram == [[0, 1], [1, 0]]
    assert C.commutant_dim == 1
    mats = [E.matrix for E in C.operators]
    # Pauli pair on the canonical vacuum basis
    assert any(np.allclose(M, np.array([[0, 1], [1, 0]])) for M in mats)
    assert any(np.allclose(M, np.diag([1, -1])) for M in mats)


def test_clifford_2d4_search():
    W = window_model(2, 1, 2)
    w = window(2, 1, 2)
    D = descend(W, w.L)
    C = clifford_basis(D)
    assert len(C.elements) == 4
    assert C.max_residual <= 1e-9
    for i in range(4):
        for j in range(4):
            assert C.gram[i][j] == (0 if i == j else 1)
    assert C.commutant_dim == 1


def test_clifford_trivial(z9):
    G, m, L, W = z9
    D = descend(W, L)
    C = clifford_basis(D)
    assert C.elements == []
    assert C.commutant_dim == 1


def test_clifford_degenerate_form_names_the_radical():
    D = descend(window_model(2, 1, 2), window(2, 1, 2).L)
    with pytest.raises(DefectError, match="degenerate") as exc:
        clifford_basis(dataclasses.replace(D, n=Bicharacter.zero(D.v2)))
    # the zero form's radical is all of V2
    assert subgroup_span(D.v2, [D.v2.element(c) for c in exc.value.witness]) == \
        Subgroup.full(D.v2)


def test_clifford_basis_neither_splits_nor_tabulates(monkeypatch):
    import importlib
    modules = [importlib.import_module(f"weylkit.{name}") for name in ("multipliers", "vacuum")]
    D = descend(window_model(2, 1, 2), window(2, 1, 2).L)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in modules:
        if hasattr(module, "split_symmetric"):
            monkeypatch.setattr(module, "split_symmetric",
                                counted("split_symmetric", module.split_symmetric))
    monkeypatch.setattr(TableMultiplier, "from_function",
                        classmethod(counted("from_function", TableMultiplier.from_function.__func__)))
    C = clifford_basis(D)
    assert len(C.elements) == 4 and C.max_residual == 0.0
    assert calls == Counter()


def operator_clifford_residuals(D):
    """Oracle: the residuals of E_i^2 = 1 and E_i E_j = -E_j E_i by monomial composition of
    the operators E_i = e(c_i) W0(gamma_i), c_i = (-m0(gamma_i, gamma_i) mod den) / 2 den."""
    den = D.m0.den
    ops = [D.rep0.operator(e).scaled(Phase(-int(D.m0.num[e.rank, e.rank]) % den, 2 * den))
           for e in _jordan_wigner(D.n)]
    one = identity_operator(D.rep0.dim)
    r_sq = max((E.compose(E).distance_to(one) for E in ops), default=0.0)
    r_ac = max((ops[i].compose(ops[j]).distance_to(ops[j].compose(ops[i]).scaled(HALF))
                for i in range(len(ops)) for j in range(i + 1, len(ops))), default=0.0)
    return r_sq, r_ac


def overridden_rep0(D, x, src, num, den):
    """D.rep0 with its row at x replaced by the monomial row (src, num over den)."""
    return D.rep0.with_override(x, Operator(D.rep0.dim, den, src, num))


@pytest.mark.parametrize("key", [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 1, 3)], ids=str)
def test_clifford_residuals_match_operator_algebra(key):
    D = descend(window_model(*key), window(*key).L)
    C = clifford_basis(D)
    assert (C.residual_squares, C.residual_anticommute) == operator_clifford_residuals(D) == (0.0, 0.0)
    moved = set()
    for s in (1, 3):
        for x in D.v2.generators():
            # W0(x) times the scalar e(s / 8 den): E_i^2 moves when x is some gamma_i
            SRC, NUM, den = D.rep0.rows([x])
            Df = dataclasses.replace(D, rep0=overridden_rep0(D, x, SRC[0], 8 * NUM[0] + s, 8 * den))
            Cf = clifford_basis(Df)
            got = (Cf.residual_squares, Cf.residual_anticommute)
            assert got == operator_clifford_residuals(Df), (key, s, x)
            moved.add(Cf.residual_squares)
    assert len(moved - {0.0}) == 2
    # W0(gamma_2) read at gamma_1 too: a scalar relation, but E_1 E_2 = E_2 E_1
    g1, g2 = C.elements[:2]
    SRC, NUM, den = D.rep0.rows([g2])
    Df = dataclasses.replace(D, rep0=overridden_rep0(D, g1, SRC[0], NUM[0], den))
    Cf = clifford_basis(Df)
    assert Cf.residual_anticommute > 0
    assert (Cf.residual_squares, Cf.residual_anticommute) == operator_clifford_residuals(Df)


def test_clifford_names_a_relation_that_is_not_a_scalar():
    D = descend(window_model(2, 1, 2), window(2, 1, 2).L)
    g = clifford_basis(D).elements[0]
    SRC, NUM, den = D.rep0.rows([g])
    src = SRC[0].copy()
    src[[0, 1]] = src[[1, 0]]
    with pytest.raises(DefectError, match="not a scalar") as exc:
        clifford_basis(dataclasses.replace(D, rep0=overridden_rep0(D, g, src, NUM[0], den)))
    assert g.coords in exc.value.witness[:2]


def test_vacuum_reads_w_only_through_its_exact_kernels(monkeypatch, z9):
    def refuse(*args, **kwargs):
        raise AssertionError("dense or Operator algebra in the vacuum pipeline")

    for name in ("compose", "scaled", "distance_to", "apply"):
        monkeypatch.setattr(Operator, name, refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    prof = vacuum_profile(window(2, 1, 2))
    assert prof["report"].passed and prof["clifford_residual_max"] == 0.0
    G, m, L, W = z9
    assert len(generated_subspace(W.direct_sum(W), L, [0, 1])) == 2 * W.dim


def f2_rank(M: np.ndarray) -> int:
    M = M.copy() % 2
    rank = 0
    for col in range(M.shape[1]):
        pivot = next((r for r in range(rank, M.shape[0]) if M[r, col]), None)
        if pivot is None:
            continue
        M[[rank, pivot]] = M[[pivot, rank]]
        for r in range(M.shape[0]):
            if r != rank and M[r, col]:
                M[r] ^= M[rank]
        rank += 1
    return rank


@settings(max_examples=60, deadline=None)
@given(d=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_jordan_wigner_on_random_symplectic_forms(d, seed):
    # n = P^T J P for the standard symplectic J over F2 and a random invertible P
    rng = np.random.default_rng(seed)
    J = np.kron(np.array([[0, 1], [1, 0]]), np.eye(d, dtype=np.int64))
    P = rng.integers(0, 2, (2 * d, 2 * d))
    while f2_rank(P) < 2 * d:
        P = rng.integers(0, 2, (2 * d, 2 * d))
    F = P.T @ J @ P % 2
    V = FinAbGroup([2] * (2 * d))
    n = Bicharacter(V, [[Phase(int(F[i, j]), 2) for j in range(2 * d)] for i in range(2 * d)])
    gammas = _jordan_wigner(n)
    assert len(gammas) == 2 * d
    for i, a in enumerate(gammas):
        for j, b in enumerate(gammas):
            assert n(a, b) == (ZERO if i == j else HALF)
    assert f2_rank(np.array([g.coords for g in gammas], dtype=np.int64).reshape(2 * d, 2 * d)) \
        == 2 * d


# -- coherent states -------------------------------------------------------------

def test_coherent_states_z9(z9):
    G, m, L, W = z9
    rep, basis = coherent_states(W, L)
    assert rep.passed
    assert basis.shape == (9, 9)


def test_coherent_states_reducible(z9):
    G, m, L, W = z9
    rep, basis = coherent_states(W.direct_sum(W), L)
    assert rep.passed  # the equivalence holds: reducible and vacuum_dim > 1
    assert basis is None


def test_coherent_states_trivial_group():
    G = FinAbGroup([])
    from weylkit.models import induced_model
    from weylkit.multipliers import zero_multiplier
    W = induced_model(G, zero_multiplier(G), Subgroup.full(G))
    rep, basis = coherent_states(W, Subgroup.full(G))
    assert rep.passed
    assert basis.shape == (1, 1)


def test_coherent_states_requires_2_divisible():
    W = window_model(2, 1, 1)
    w = window(2, 1, 1)
    with pytest.raises(PreconditionError):
        coherent_states(W, w.L)


# -- what a proved law implies: sectors, m0 and W0 by argument -------------------

def _position_line(W):
    """The position block A x 0 of a Schrodinger model, where its multiplier vanishes."""
    r = W.group.rank // 2
    return subgroup_span(W.group, [W.group.element([int(j == i) for j in range(2 * r)])
                                   for i in range(r)])


PROVED_SECTOR_CASES = {
    **{f"window-{p}-{k}-{d}": (lambda key=(p, k, d): (window_model(*key), window(*key).L))
       for p, k, d in [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 1, 3), (3, 1, 1), (3, 1, 2),
                       (5, 1, 1)]},
    **{f"schrodinger-{m}": (lambda m=m: (lambda W: (W, _position_line(W)))(
        schrodinger_model(FinAbGroup(m)))) for m in ([4], [2, 2], [3, 9])},
    "regular-4-3": lambda: (regular_rep(FinAbGroup([4, 3])), Subgroup.full(FinAbGroup([4, 3]))),
    "induced-z9": lambda: (z9_setup()[3], z9_setup()[2]),
}


@pytest.mark.parametrize("case", list(PROVED_SECTOR_CASES))
def test_sectors_of_a_proved_law_skip_the_relations_and_agree(case, monkeypatch):
    # a rep whose law holds is a representation of L, so its generator relations are not
    # read; the sectors equal those of a data-less copy, which reads and passes them
    from weylkit import vacuum
    W, L = PROVED_SECTOR_CASES[case]()
    assert W.law_holds is True
    calls, relations = [], vacuum._relation_scalars
    monkeypatch.setattr(vacuum, "_relation_scalars",
                        lambda *a: calls.append(1) or relations(*a))
    S = sectors(W, L)
    assert calls == []
    F = sectors(fresh_rep(W), L)
    assert calls == [1]
    assert S.dims == F.dims
    assert np.array_equal(S._good, F._good) and np.array_equal(S._col, F._col)
    assert np.array_equal(S.vacuum_basis(), F.vacuum_basis())


P2_WINDOWS = [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 1), (2, 2, 2), (2, 3, 1),
              (2, 2, 3), (2, 3, 2)]


@pytest.mark.parametrize("key", P2_WINDOWS, ids=str)
def test_m0_and_w0_laws_by_argument_match_their_checks(key):
    # m0 comes verified by descend's argument and W0 keeps its law by argument; Light's test
    # on a table copy of m0 and the presentation of a fresh copy of W0 agree
    from weylkit import models
    from weylkit.multipliers import check_multiplier
    D = descend(window_model(*key), window(*key).L)
    assert D.m0._verified is True and D.rep0.law_holds is True
    assert check_multiplier(TableMultiplier(D.v2, D.m0.den, D.m0.num.copy())).passed
    assert models._presentation_fails(fresh_rep(D.rep0)) is None


@pytest.mark.parametrize("case", ["gauged-2-1-2", "coset-twist-2-1-2"])
def test_descent_without_a_proved_law_or_bicharacter_checks_m0_and_w0(case, monkeypatch):
    # with no law kept on W, or a multiplier that is not bilinear, W0's law is decided at its
    # presentation, and under a table multiplier m0 gets Light's test
    from weylkit import models, multipliers
    if case == "gauged-2-1-2":
        W, L = DESCENT_CASES[case]()
    else:
        W, L = _coset_twist(window_model(2, 1, 2), window(2, 1, 2).L), window(2, 1, 2).L
    checked, presented = [], []
    check, present = multipliers.check_multiplier, models._presentation_fails
    monkeypatch.setattr(multipliers, "check_multiplier", lambda m: checked.append(m) or check(m))
    monkeypatch.setattr(models, "_presentation_fails", lambda R: presented.append(R) or present(R))
    D = descend(W, L)
    assert D.report.passed and D.rep0.law_holds is True and presented == [D.rep0]
    assert any(m is D.m0 for m in checked) == (W.multiplier.bichar is None)


@pytest.mark.parametrize("check", ["eigen", "permute", "normalizer"])
def test_overrides_of_a_proved_window_fail_every_vacuum_check(check):
    # an override drops the quadratic data and the kept law, so each fault is found by the
    # same reads as on a fresh copy, with the same witness
    W, L = window_model(2, 2, 1), window(2, 2, 1).L
    assert W.law_holds is True
    G = W.group
    i = int(np.flatnonzero(sectors(W, L).vacuum_basis()[:, 0])[1])
    a = sum(L.decomposition()[0], G.zero())
    x0 = next(x for x in double_preimage(G, L).elements() if not L.contains(x))
    x = {"eigen": a, "permute": G.generators()[0], "normalizer": x0}[check]
    reports = []
    for base in (W, fresh_rep(W)):
        F = _faulty(base, x, row=i)
        assert F.law_holds is None and F.quadratic is None
        S = sectors(F, L)
        rep = {"eigen": S.eigen_check, "permute": lambda: permute_check(S, x),
               "normalizer": lambda: normalizer_check(S)}[check]()
        reports.append(_summary(rep))
        assert not rep.passed
    assert reports[0] == reports[1]
