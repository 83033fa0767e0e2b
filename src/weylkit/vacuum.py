"""Vacuum-sector analysis of a representation restricted to a compact-side subgroup.

Given a model W and a subgroup L on which the multiplier vanishes, W|_L is an
ordinary representation of a finite abelian group and splits into joint
eigenspaces, one per character of L.  When L is maximal isotropic the
characters that occur are labelled by cosets [y] through a |-> m(a, y).  The
trivial character gives the vacuum space; its fine structure (normalizer,
descent to (L/2)/L, anticommuting generators) is what this module computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm

import numpy as np

from .errors import ENUMERATION_CAP, DefectError, InputError, PreconditionError
from .groups import FinAbGroup, GroupElement, Quotient, Subgroup, double_image, double_preimage, subquotient
from .isotropy import is_isotropic, polar
from .models import (
    DEFAULT_TOL,
    ProjectiveRep,
    _generator_rows,
    _intertwining_orbits,
    check_rep_law,
    commutant_d,
    identity_operator,
)
from .multipliers import Bicharacter, TableMultiplier, antisymmetrize
from .phases import HALF, Phase, ZERO
from .reports import VerificationReport

SV_ZERO = 1e-8     # norms and singular values at or below this count as zero


def _orthonormal_columns(M: np.ndarray, tol: float = SV_ZERO) -> np.ndarray:
    """Orthonormal basis of the column space of M (SVD rank with absolute cutoff)."""
    if M.size == 0:
        return np.zeros((M.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    k = int((s > tol).sum())
    return u[:, :k]


class SectorDecomposition:
    """Joint eigenspace decomposition of W|_L, indexed by characters of L.

    ``dims`` maps a character index tuple u (coordinates against the
    invariant-factor generators of L) to the multiplicity of that character.
    A sector is the space of intertwiners from its character into W|_L, so
    all of them are one exact call of ``models._intertwining_orbits``: W1 is
    the diagonal rep of the |L| characters, W2 is W at L's generators, and
    each solution orbit lies in one character's column.  The sector's basis
    has one vector per orbit, e(pot / den) / sqrt(|orbit|) on the orbit and
    positive at its least index.
    """

    def __init__(self, rep: ProjectiveRep, L: Subgroup, tol: float = DEFAULT_TOL):
        G = rep.group
        if L.ambient != G:
            raise InputError("subgroup does not live in the representation's group")
        m = rep.multiplier
        if not is_isotropic(L, m):
            raise PreconditionError("the multiplier does not vanish on L x L")
        self.rep = rep
        self.L = L
        self.tol = tol
        self.gens, self.orders = L.decomposition()
        self.char_exp = lcm(*self.orders) if self.orders else 1
        rows = _generator_rows(rep, self.gens)
        # (+)_chi chi, characters in rank order: generator k fixes every index
        # and gives column chi the phase chi(h_k)
        chars = FinAbGroup(self.orders).coords_array()
        n = len(chars)
        scale = np.array([self.char_exp // d for d in self.orders], dtype=np.int64)
        diagonal = (np.broadcast_to(np.arange(n), (len(self.orders), n)),
                    (chars * scale).T, self.char_exp)
        self._label, self._pot, self._den, self._good = \
            _intertwining_orbits(self.orders, diagonal, rows)
        counts = np.bincount(self._good % n, minlength=n)
        self.dims = {tuple(chars[j].tolist()): int(counts[j]) for j in np.flatnonzero(counts)}
        total = sum(self.dims.values())
        if total != rep.dim:
            raise DefectError(f"sector dimensions sum to {total}, expected {rep.dim}")
        self._bases: dict[tuple, np.ndarray] = {}
        self._labeled = None

    @property
    def labeled(self) -> bool:
        """True when y |-> (a |-> m(a, y)) is a bijection of G/L with the dual of L.

        Requires |L|^2 = |G| and injectivity of the labeling, which is checked
        directly: for an alternating bicharacter it is equivalent to L being
        maximal isotropic, but a one-sided polar condition is not enough for
        general multipliers.
        """
        if self._labeled is None:
            G = self.rep.group
            m = self.rep.multiplier
            ok = self.L.order ** 2 == G.order and polar(self.L, m) == self.L
            if ok:
                bilinear = getattr(m, "bichar", None) is not None
                labels = set()
                for y in self.L.transversal():
                    try:
                        u = self.char_of_coset(y)
                    except ValueError:
                        ok = False
                        break
                    if not bilinear:
                        # the label must actually be a character of L
                        for a in self.L.elements():
                            val = ZERO
                            for uj, tj, d in zip(u, self.L.coordinates_of(a), self.orders):
                                val = val + Phase(uj * tj, d)
                            if m(a, y) != val:
                                ok = False
                                break
                        if not ok:
                            break
                    labels.add(u)
                ok = ok and len(labels) == self.L.index
            self._labeled = bool(ok)
        return self._labeled

    # -- characters -------------------------------------------------------
    @cached_property
    def _tcoords(self) -> np.ndarray:
        """Coordinates of the elements of L (element order) against its decomposition."""
        elems = self.L.elements()
        return np.array([self.L.coordinates_of(a) for a in elems],
                        dtype=np.int64).reshape(len(elems), len(self.orders))

    def char_nums(self, u) -> np.ndarray:
        """Numerators of chi_u(a) over char_exp for every a in L (element order)."""
        E = self.char_exp
        if not self.orders:
            return np.zeros(self.L.order, dtype=np.int64)
        w = np.array([ui * (E // d) for ui, d in zip(u, self.orders)], dtype=np.int64)
        return (self._tcoords @ w) % E

    def char_of_coset(self, y: GroupElement) -> tuple:
        """The character a |-> m(a, y) as an index tuple."""
        m = self.rep.multiplier
        u = []
        for h, d in zip(self.gens, self.orders):
            ph = m(h, y)
            u.append(ph.numerator_at(d) % d)
        return tuple(u)

    # -- sectors ----------------------------------------------------------
    def basis_of(self, u) -> np.ndarray:
        """Orthonormal basis of the sector of chi_u: one column per solution orbit, by least index."""
        u = tuple(u)
        if u not in self._bases:
            n = self.L.order
            j = FinAbGroup(self.orders).rank_of(u)
            column = self._label[j::n]                      # orbit labels of the pairs (i, chi_u)
            roots = self._good[self._good % n == j]
            on = np.flatnonzero(np.isin(column, roots))
            k = np.searchsorted(roots, column[on])
            B = np.zeros((self.rep.dim, len(roots)), dtype=complex)
            B[on, k] = np.exp(2j * np.pi * self._pot[j::n][on] / self._den)
            self._bases[u] = B / np.sqrt(np.bincount(k, minlength=len(roots)))
        return self._bases[u]

    def vacuum_basis(self) -> np.ndarray:
        return self.basis_of((0,) * len(self.orders))

    @property
    def vacuum_dim(self) -> int:
        return self.dims.get((0,) * len(self.orders), 0)

    def coset_dims(self) -> dict:
        """Sector dimensions keyed by coset representative coordinates (labeled case)."""
        if not self.labeled:
            raise InputError("sectors are not labeled by cosets here")
        out = {}
        for y in self.L.transversal():
            u = self.char_of_coset(y)
            out[y.coords] = self.dims.get(u, 0)
        return out

    def eigen_check(self, max_sectors: int | None = None) -> VerificationReport:
        """|| W(a) psi - e(chi(a)) psi || <= tol for every a in L and every sector basis vector."""
        rep = VerificationReport("sector eigen-characterization")
        ops = [self.rep.operator(a) for a in self.L.elements()]
        worst = 0.0
        tested = 0
        for u in sorted(self.dims):
            if max_sectors is not None and tested >= max_sectors:
                break
            B = self.basis_of(u)
            nums = self.char_nums(u)
            for k, op in enumerate(ops):
                lam = np.exp(2j * np.pi * nums[k] / self.char_exp)
                worst = max(worst, float(np.abs(op.apply(B) - lam * B).max()))
            tested += 1
        rep.add("eigenvalue", worst <= self.tol, residual=worst, tolerance=self.tol,
                note=f"{tested} sectors")
        return rep


def sectors(W: ProjectiveRep, L: Subgroup, tol: float = DEFAULT_TOL) -> SectorDecomposition:
    """Decompose W|_L into character eigenspaces, exactly, from W at L's generators."""
    return SectorDecomposition(W, L, tol)


def vacuum(W: ProjectiveRep, L: Subgroup, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the L-fixed subspace."""
    return sectors(W, L, tol).vacuum_basis()


def permute_check(S: SectorDecomposition, x: GroupElement,
                  tol: float | None = None) -> VerificationReport:
    """W(x) maps the sector of chi to the sector of chi + m~(., x)."""
    tol = tol if tol is not None else S.tol
    rep = VerificationReport(f"sector permutation by {x.coords}")
    mt = antisymmetrize(S.rep.multiplier)
    Wx = S.rep.operator(x)
    worst = 0.0
    ok_dims = True
    for u in sorted(S.dims):
        target = tuple((ui + mt(h, x).numerator_at(d)) % d
                       for ui, h, d in zip(u, S.gens, S.orders))
        B = S.basis_of(u)
        Bt = S.basis_of(target)
        if S.dims.get(target, 0) != S.dims[u]:
            ok_dims = False
        img = Wx.apply(B)
        resid = float(np.abs(img - Bt @ (Bt.conj().T @ img)).max()) if Bt.size else \
            float(np.abs(img).max())
        worst = max(worst, resid)
    rep.add("image containment", worst <= tol, residual=worst, tolerance=tol)
    rep.add("dimension transport", ok_dims)
    return rep


def vacuum_normalizer(W: ProjectiveRep, L: Subgroup) -> Subgroup:
    """The subgroup whose operators preserve the vacuum space.

    An element x preserves H^L exactly when the character a |-> m~(a, x) is
    trivial on L, i.e. when x lies in the m~-polar of L.  For an alternating
    bicharacter multiplier this is L/2 (the polar relation), which is the
    form the statement usually takes.
    """
    from .isotropy import polar
    return polar(L, antisymmetrize(W.multiplier))


def normalizer_check(W: ProjectiveRep, L: Subgroup, tol: float = DEFAULT_TOL,
                     samples: int = 64, seed: int = 0) -> VerificationReport:
    """L/2 normalizes the vacuum space; nothing else does; W on it is 2L-periodic.

    The normalizer is computed as the m~-polar of L, which equals the double
    preimage L/2 whenever the multiplier is an alternating bicharacter (the
    setting of the statement); the coincidence is asserted there.
    """
    G = W.group
    S = sectors(W, L, tol)
    B0 = S.vacuum_basis()
    if B0.shape[1] == 0:
        raise PreconditionError("vacuum space is zero")
    rep = VerificationReport("vacuum normalizer")
    L2 = vacuum_normalizer(W, L)
    form = getattr(W.multiplier, "bichar", None)
    if form is not None and form.is_alternating:
        rep.add("normalizer equals L/2", L2 == double_preimage(G, L))
    twoL = double_image(G, L)
    P0 = B0 @ B0.conj().T

    rng = np.random.default_rng(seed)

    def pick(elems, cap):
        elems = list(elems)
        if len(elems) <= cap:
            return elems
        idx = rng.choice(len(elems), size=cap, replace=False)
        return [elems[i] for i in idx]

    inside = pick(L2.elements(), samples) if L2.order <= ENUMERATION_CAP else \
        [t for t in L2.generators]
    worst_in = 0.0
    for x in inside:
        img = W.operator(x).apply(B0)
        worst_in = max(worst_in, float(np.abs(img - P0 @ img).max()))
    rep.add("L/2 preserves vacuum", worst_in <= tol, residual=worst_in, tolerance=tol,
            note=f"{len(inside)} elements")

    if L2.order == G.order:
        rep.add("outside L/2 moves vacuum", True, note="L/2 = G; vacuously true")
    else:
        if G.order <= 4096:
            outside = pick((x for x in G.elements() if not L2.contains(x)), samples)
        else:
            # sample the complement, which holds at least half of G
            outside = []
            moduli = np.array(G.moduli, dtype=np.int64)
            while len(outside) < samples:
                cand = G.element(rng.integers(0, moduli))
                if not L2.contains(cand):
                    outside.append(cand)
        min_defect = min(float(np.abs(img - P0 @ img).max())
                         for img in (W.operator(x).apply(B0) for x in outside))
        rep.add("outside L/2 moves vacuum", min_defect > tol, residual=min_defect,
                tolerance=tol, note=f"{len(outside)} elements, defect must exceed tol")

    worst_per = 0.0
    for x in pick(L2.elements(), samples) if L2.order <= ENUMERATION_CAP else L2.generators:
        Wx = W.operator(x).apply(B0)
        for a in pick(twoL.elements(), samples):
            Wxa = W.operator(x + a).apply(B0)
            worst_per = max(worst_per, float(np.abs(Wxa - Wx).max()))
    rep.add("2L-periodicity on vacuum", worst_per <= tol, residual=worst_per, tolerance=tol)
    return rep


def generated_subspace(W: ProjectiveRep, L: Subgroup, K: np.ndarray,
                       tol: float = DEFAULT_TOL) -> np.ndarray:
    """Smallest W-invariant subspace containing K <= H^L; P projects it back onto K.

    K must be contained in the vacuum space and invariant under the vacuum
    normalizer (W(L/2) in the alternating setting); returns an orthonormal
    basis of span{ W(x) K }, x over coset representatives of G/L.
    """
    G = W.group
    B0 = vacuum(W, L, tol)
    K = np.asarray(K, dtype=complex).reshape(W.dim, -1)
    if K.shape[1]:
        Kb = _orthonormal_columns(K)
    else:
        Kb = K
    P0 = B0 @ B0.conj().T
    if Kb.size and float(np.abs(Kb - P0 @ Kb).max()) > tol:
        raise PreconditionError("K is not contained in the vacuum space")
    L2 = vacuum_normalizer(W, L)
    PK = Kb @ Kb.conj().T
    for x in L2.generators:
        img = W.operator(x).apply(Kb) if Kb.size else Kb
        if Kb.size and float(np.abs(img - PK @ img).max()) > tol:
            raise PreconditionError(
                f"K is not invariant under the vacuum normalizer (witness {x.coords})")
    if not Kb.size:
        return np.zeros((W.dim, 0), dtype=complex)
    cols = [W.operator(r).apply(Kb) for r in L.transversal()]
    span = _orthonormal_columns(np.concatenate(cols, axis=1))
    # the projection back to the vacuum space must return exactly K
    back = _orthonormal_columns(P0 @ span)
    PB = back @ back.conj().T
    if float(np.abs(PB - PK).max()) > tol:
        raise DefectError("projection of the generated subspace differs from K")
    return span


@dataclass
class DescendedRep:
    """The vacuum action of W pushed down to the finite 2-group (L/2)/L."""

    source: ProjectiveRep
    L: Subgroup
    quotient: Quotient
    v2: FinAbGroup
    vacuum_basis: np.ndarray
    rep0: ProjectiveRep
    m0: TableMultiplier
    n: Bicharacter
    report: VerificationReport = field(repr=False, default=None)
    sectors: SectorDecomposition = field(repr=False, default=None)   # of W|_L

    @property
    def section_coords(self):
        return [s.coords for _, s in self.quotient.section_list]


def descend(W: ProjectiveRep, L: Subgroup, tol: float = DEFAULT_TOL) -> DescendedRep:
    """Restrict W to the vacuum space and factor it through V2 = (L/2)/L.

    W0(v) = W(s(v))|_{H^L} for the rank-minimal section s.  W(s) commutes with
    W(L), so it maps each vacuum basis vector, an orbit sum, to a phase times
    another: W0 is monomial, and its row at an image vector is read exactly
    at that orbit's least index (``_vacuum_rows``).  The multiplier of W0 is
    m0(v, w) = m(s(v), s(w)) + m(a, s(v+w)) with a = s(v) + s(w) - s(v+w) in
    L, computed from m alone, and the law of W0 is checked exactly against
    it.  Its antisymmetrization must descend from m~ and be nondegenerate on V2.
    """
    G = W.group
    m = W.multiplier
    S = sectors(W, L, tol)
    B0 = S.vacuum_basis()
    if B0.shape[1] == 0:
        raise PreconditionError("vacuum space is zero; nothing to descend")
    L2 = double_preimage(G, L)
    mt = antisymmetrize(m)
    for x in L2.generators:
        for a in L.generators:
            if mt(x, a) != ZERO:
                raise PreconditionError(
                    f"m~({x.coords}, {a.coords}) != 0; the action does not factor through L")
    q = subquotient(L2, L)
    V2 = q.group
    report = VerificationReport("descent to (L/2)/L")
    sections = [s for _, s in q.section_list]
    m0 = _descended_multiplier(m, V2, sections)
    SRC0, NUM0, den0 = _vacuum_rows(S, sections)
    weights = np.array(V2._weights, dtype=np.int64)
    rep0 = ProjectiveRep.from_batch(V2, m0, B0.shape[1], den0,
                                    lambda Y: (SRC0[Y @ weights], NUM0[Y @ weights]),
                                    label="descended")

    law = check_rep_law(rep0, tolerance=tol)
    report.extend(law, prefix="W0 ")
    if not law.passed:
        raise DefectError("descended operators violate the representation law for m0")

    n = antisymmetrize(m0)
    if not n.is_nondegenerate:
        raise DefectError("descended antisymmetrization is degenerate",
                          witness=[g.coords for g in n.radical().generators])
    report.add("n nondegenerate", True)

    # both sides are bicharacters on L/2, so generator pairs decide it
    witness = next(((x.coords, y.coords) for x in L2.generators for y in L2.generators
                    if n(q.project(x), q.project(y)) != mt(x, y)), None)
    lift_ok = witness is None
    report.add("lift of n equals m~ on L/2", lift_ok, witness=witness)
    if not lift_ok:
        raise DefectError("descended form does not lift to m~", witness=witness)
    return DescendedRep(W, L, q, V2, B0, rep0, m0, n, report, S)


def _vacuum_rows(S: SectorDecomposition, sections):
    """(SRC0, NUM0, den): W at each of ``sections`` on the vacuum basis, one monomial row each.

    Vacuum basis vector k is the orbit sum of e(pot / den) over the k-th good
    orbit of the trivial character, from its least index r_k.  W(s) maps the
    vector of the orbit through SRC_s[r] to e(NUM_s[r] + pot[SRC_s[r]]) times
    the vector of the orbit of r.  ``DefectError`` unless, at every vacuum
    index, SRC_s leads to a vacuum index and that orbit and phase agree with
    those at the orbit's least index: exactly when W(s) preserves the vacuum
    space as a monomial map of its basis.
    """
    n = S.L.order                                   # the trivial character is column 0
    roots = S._good[S._good % n == 0] // n
    label, pot = S._label[::n] // n, S._pot[::n]
    column = np.full(S.rep.dim, -1, dtype=np.int64)
    column[roots] = np.arange(len(roots))
    column = column[label]                          # basis vector of each index, -1 off the vacuum
    vac = np.flatnonzero(column >= 0)
    SRC, NUM, den = _generator_rows(S.rep, sections)
    d = lcm(den, S._den)
    src = column[SRC[:, vac]]
    num = (NUM[:, vac] * (d // den) + (pot[SRC[:, vac]] - pot[vac]) * (d // S._den)) % d
    at_root = np.searchsorted(vac, label[vac])
    bad = (src < 0) | (src != src[:, at_root]) | (num != num[:, at_root])
    if bad.any():
        r, i = np.argwhere(bad)[0]
        raise DefectError(f"W({sections[r].coords}) does not preserve the vacuum space",
                          witness=(sections[r].coords, int(vac[i])))
    on_roots = np.searchsorted(vac, roots)
    return src[:, on_roots], num[:, on_roots], d


def _descended_multiplier(m, V2: FinAbGroup, sections) -> TableMultiplier:
    """m0(v, w) = m(s_v, s_w) + m(s_v + s_w - s_{v+w}, s_{v+w}) over all pairs, in one pass."""
    k = V2.order
    Sc = np.array([s.coords for s in sections], dtype=np.int64).reshape(k, -1)
    X, Y = np.repeat(Sc, k, axis=0), np.tile(Sc, (k, 1))
    Z = Sc[V2.addition_table().ravel()]
    A = (X + Y - Z) % np.array(m.group.moduli, dtype=np.int64)
    return TableMultiplier(V2, m.den, (m.pair_nums(X, Y) + m.pair_nums(A, Z)).reshape(k, k))


@dataclass
class CliffordBasis:
    """Anticommuting involutions generating the descended vacuum action."""

    elements: list
    operators: list
    gram: list
    residual_squares: float
    residual_anticommute: float
    commutant_dim: int

    @property
    def max_residual(self) -> float:
        return max(self.residual_squares, self.residual_anticommute)


def _jordan_wigner(n: Bicharacter) -> list:
    """gamma_1..gamma_2d in n's F2 group with n(gamma_i, gamma_j) = 1/2 for every i != j.

    Symplectic Gram-Schmidt over F2 takes the pairs (a_i, b_i) greedily from
    the unit vectors in rank order: a_i is the first vector left, b_i the
    first one paired with it, and the rest are made n-orthogonal to both.
    Then gamma_{2i-1} = a_i + S_i and gamma_{2i} = b_i + S_i with
    S_i = sum_{j<i} (a_j + b_j).  ``DefectError`` with the radical's
    generators as witness when n is degenerate.
    """
    V2 = n.group
    F = np.array([[b.numerator_at(2) for b in row] for row in n.matrix],
                 dtype=np.int64).reshape(V2.rank, V2.rank)
    rest = list(np.eye(V2.rank, dtype=np.int64))
    S = np.zeros(V2.rank, dtype=np.int64)
    gammas = []
    while rest:
        a = rest.pop(0)
        j = next((j for j, v in enumerate(rest) if a @ F @ v % 2), None)
        if j is None:
            raise DefectError("descended form is degenerate; no symplectic partner",
                              witness=[g.coords for g in n.radical().generators])
        b = rest.pop(j)
        rest = [(v + (v @ F @ b) * a + (v @ F @ a) * b) % 2 for v in rest]
        gammas += [V2.element(a + S), V2.element(b + S)]
        S = (S + a + b) % 2
    return gammas


def clifford_basis(D: DescendedRep) -> CliffordBasis:
    """Extract 2d anticommuting involutions from the descended representation.

    The elements gamma_i come from a symplectic F2 basis of n by
    Jordan-Wigner (``_jordan_wigner``), and E_i = e(c_i) W0(gamma_i) with
    c_i the root of 2 c_i = -m0(gamma_i, gamma_i) in [0, 1/2), so that
    E_i^2 = 1.  E_i^2 = 1 and E_i E_j = -E_j E_i are checked exactly by
    monomial composition; the residuals are 0.0 when they hold and the float
    distance of the worst failing pair otherwise.
    """
    V2 = D.v2
    if any(d != 2 for d in V2.moduli):
        raise PreconditionError("descended group is not an elementary 2-group")
    if V2.rank % 2:
        raise DefectError("descended group has odd F2-dimension")
    basis = _jordan_wigner(D.n)
    den = D.m0.den
    ops = [D.rep0.operator(e).scaled(Phase(-int(D.m0.num[e.rank, e.rank]) % den, 2 * den))
           for e in basis]

    # exact monomial identities; distance_to densifies only an identity that fails
    one = identity_operator(D.rep0.dim)
    r_sq = max((E.compose(E).distance_to(one) for E in ops), default=0.0)
    r_ac = max((ops[i].compose(ops[j]).distance_to(ops[j].compose(ops[i]).scaled(HALF))
                for i in range(len(ops)) for j in range(i + 1, len(ops))), default=0.0)
    gram = [[1 if D.n(a, b) == HALF else 0 for b in basis] for a in basis]
    for i, row in enumerate(gram):
        for j, g in enumerate(row):
            if g != (0 if i == j else 1):
                raise DefectError("Gram matrix of the found basis is wrong",
                                  witness=(i, j))
    # each E_i is a scalar times W0(gamma_i) and the gamma_i generate V2: same commutant
    return CliffordBasis(basis, ops, gram, r_sq, r_ac, commutant_d(D.rep0))


def coherent_states(W: ProjectiveRep, L: Subgroup,
                    tol: float = DEFAULT_TOL) -> tuple[VerificationReport, np.ndarray | None]:
    """Sector structure when L = 2L: irreducibility is equivalent to a vacuum line.

    Verifies the equivalence commutant_d(W) = 1  <=>  dim H^L = 1 (and then
    all sectors are one-dimensional coherent states, returned as a basis).
    """
    G = W.group
    if double_image(G, L) != L:
        raise PreconditionError("L != 2L here; use the descent / fermionic path instead")
    S = sectors(W, L, tol)
    rep = VerificationReport("coherent state structure")
    cd = commutant_d(W)
    vdim = S.vacuum_dim
    rep.add("L = 2L", True)
    rep.add("irreducible iff vacuum line", (cd == 1) == (vdim == 1),
            note=f"commutant={cd}, vacuum_dim={vdim}")
    basis = None
    if cd == 1:
        all_one = all(d == 1 for d in S.dims.values())
        rep.add("all sectors one-dimensional", all_one, note=f"{len(S.dims)} sectors")
        cols = [S.basis_of(u) for u in sorted(S.dims)]
        basis = np.concatenate(cols, axis=1)
        rep.extend(S.eigen_check())
    else:
        rep.add("reducible as expected", vdim > 1, note=f"vacuum_dim={vdim}")
    return rep, basis
