"""Vacuum-sector analysis of a representation restricted to a compact-side subgroup.

Given a model W and a subgroup L on which the multiplier vanishes, W|_L is an
ordinary representation of a finite abelian group and splits into joint
eigenspaces, one per character of L.  When L is maximal isotropic the
characters that occur are labelled by cosets [y] through a |-> m(a, y).  The
trivial character gives the vacuum space; its fine structure (normalizer,
descent to (L/2)/L, anticommuting generators) is what this module computes.

The sector, permutation and normalizer checks are exact and exhaustive: they
read W's monomial rows on the sectors' orbit bases, ``eigen_check`` at every
element of L, ``permute_check(S, x)`` at x, ``normalizer_check`` at every x in G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm

import numpy as np

from .errors import DefectError, InputError, PreconditionError
from .groups import FinAbGroup, GroupElement, Quotient, Subgroup, double_image, double_preimage, subquotient
from .isotropy import is_isotropic, polar
from .models import (
    BLOCK_ENTRIES,
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

    def __init__(self, rep: ProjectiveRep, L: Subgroup):
        G = rep.group
        if L.ambient != G:
            raise InputError("subgroup does not live in the representation's group")
        m = rep.multiplier
        if not is_isotropic(L, m):
            raise PreconditionError("the multiplier does not vanish on L x L")
        self.rep = rep
        self.L = L
        self.gens, self.orders = L.decomposition()
        self.char_exp = lcm(*self.orders) if self.orders else 1
        rows = _generator_rows(rep, self.gens)
        # (+)_chi chi, characters in rank order: generator k fixes every index
        # and gives column chi the phase chi(h_k)
        self._chars = chars = FinAbGroup(self.orders).coords_array()
        n = len(chars)
        self._chi = chars * np.array([self.char_exp // d for d in self.orders], dtype=np.int64)
        diagonal = (np.broadcast_to(np.arange(n), (len(self.orders), n)), self._chi.T, self.char_exp)
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
                    # the label must actually be a character of L
                    if not bilinear and any(m(a, y) != Phase(int(v), self.char_exp) for a, v in
                                            zip(self.L.elements(), self.char_nums(u))):
                        ok = False
                        break
                    labels.add(u)
                ok = ok and len(labels) == self.L.index
            self._labeled = bool(ok)
        return self._labeled

    # -- characters -------------------------------------------------------
    @cached_property
    def _tcoords(self) -> np.ndarray:
        """Coordinates of the elements of L (element order) against its decomposition."""
        return FinAbGroup(self.orders).coords_at(self.L.grid_order())

    def char_nums(self, u) -> np.ndarray:
        """Numerators of chi_u(a) over char_exp for every a in L (element order)."""
        return self._tcoords @ self._chi[FinAbGroup(self.orders).rank_of(u)] % self.char_exp

    def char_of_coset(self, y: GroupElement) -> tuple:
        """The character a |-> m(a, y) as an index tuple."""
        m = self.rep.multiplier
        return tuple(m(h, y).numerator_at(d) % d for h, d in zip(self.gens, self.orders))

    # -- sectors ----------------------------------------------------------
    def basis_of(self, u) -> np.ndarray:
        """Orthonormal basis of the sector of chi_u: one column per solution orbit, by least index."""
        u = tuple(u)
        if u not in self._bases:
            n, j = self.L.order, FinAbGroup(self.orders).rank_of(u)
            k = self._vector[j::n]                          # basis vector through each index
            on = np.flatnonzero(k >= 0)
            B = np.zeros((self.rep.dim, self.dims.get(u, 0)), dtype=complex)
            B[on, k[on]] = np.exp(2j * np.pi * self._pot[j::n][on] / self._den)
            self._bases[u] = B / np.sqrt(np.bincount(k[on], minlength=B.shape[1]))
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
        return {y.coords: self.dims.get(self.char_of_coset(y), 0) for y in self.L.transversal()}

    @cached_property
    def _vector(self) -> np.ndarray:
        """For each pair i n + j: the index in sector j's basis of the vector through i, -1 off it."""
        root = np.zeros(self._label.size, dtype=bool)
        root[self._good] = True
        root = root.reshape(self.rep.dim, self.L.order)
        return np.where(root, np.cumsum(root, axis=0) - 1, -1).ravel()[self._label]

    def _transport(self, rows, pairs, source=None):
        """W's monomial rows at c elements, read exactly on the sector bases.

        ``rows`` = (SRC, NUM, den) as ``_generator_rows`` reads them.
        ``pairs`` (ascending) are pairs p = i n + t, n = |L|, with carrier
        index i on a basis vector of the target column t, which reads from
        the source column ``source[t]`` (t itself by default).  Row i of W(x)
        reads index SRC[i]; at row i, W(x) maps the source vector through
        SRC[i] to e(num / d) times the target vector through i.  Returns
        ``(src, num, d, bad)``, each (c x len(pairs)): that source vector's
        basis index (-1 when no source vector passes through SRC[i]), num,
        and ``bad`` where src or num differ from those at the least index of
        i's orbit.  With no bad row and equal source and target columns, W(x)
        preserves the sector, and src, num at the orbits' least indices are
        its monomial matrix on the basis.
        """
        SRC, NUM, den = rows
        n = self.L.order
        i, t = np.divmod(pairs, n)
        q = SRC[:, i] * n + (t if source is None else source[t])
        d = lcm(den, self._den)
        src = self._vector[q]
        num = (NUM[:, i] * (d // den) + (self._pot[q] - self._pot[pairs]) * (d // self._den)) % d
        at = np.searchsorted(pairs, self._label[pairs])
        return src, num, d, (src < 0) | (src != src[:, at]) | (num != num[:, at])

    def _pairs(self, column=None) -> np.ndarray:
        """The pairs on sector basis vectors, of one character column or of all."""
        pairs = np.flatnonzero(self._vector >= 0)
        return pairs if column is None else pairs[pairs % self.L.order == column]

    def eigen_check(self) -> VerificationReport:
        """W(a) psi = chi(a) psi for every a in L and every sector basis vector psi, exactly.

        W's rows at every element of L are read on every sector's basis
        (``_transport``), a block of elements at a time; the witness is the
        first element and carrier index where W(a) does not map the vector
        through it to chi(a) times itself.
        """
        rep = VerificationReport("sector eigen-characterization")
        n, E = self.L.order, self.char_exp
        pairs = self._pairs()
        own, t = self._vector[pairs], pairs % n
        elems = self.L.elements()
        step = max(1, BLOCK_ENTRIES // max(len(pairs), self.rep.dim))
        witness = None
        for start in range(0, n, step):
            part = elems[start:start + step]
            src, num, d, bad = self._transport(_generator_rows(self.rep, part), pairs)
            D = lcm(d, E)
            chi = (self._tcoords[start:start + step] @ self._chi.T)[:, t]
            bad |= (src != own) | ((num * (D // d) - chi * (D // E)) % D != 0)
            witness = _witness([a.coords for a in part], bad, pairs // n)
            if witness is not None:
                break
        rep.add("eigenvalue", witness is None, witness=witness,
                note=f"exhaustive over {n} elements of L and {len(self.dims)} sectors")
        return rep


def sectors(W: ProjectiveRep, L: Subgroup) -> SectorDecomposition:
    """Decompose W|_L into character eigenspaces, exactly, from W at L's generators."""
    return SectorDecomposition(W, L)


def permute_check(S: SectorDecomposition, x: GroupElement) -> VerificationReport:
    """W(x) maps the sector of chi onto the sector of chi + m~(., x), exactly, for every chi.

    W's row at x is read on every sector's basis, each column from the
    column m~(., x) before it (``_transport``); the witness is the first
    carrier index where W(x) does not carry a source basis vector whole.
    """
    rep = VerificationReport(f"sector permutation by {x.coords}")
    mt = antisymmetrize(S.rep.multiplier)
    shift = np.array([mt(h, x).numerator_at(d) for h, d in zip(S.gens, S.orders)], dtype=np.int64)
    C = FinAbGroup(S.orders)
    dest = (S._chars + shift) % np.array(C.moduli, dtype=np.int64) @ np.array(C._weights, dtype=np.int64)
    pairs = S._pairs()
    bad = S._transport(_generator_rows(S.rep, [x]), pairs, np.argsort(dest))[3]
    witness = _witness([x.coords], bad, pairs // C.order)
    rep.add("image containment", witness is None, witness=witness,
            note=f"exhaustive over {len(S.dims)} sectors")
    counts = np.bincount(S._good % C.order, minlength=C.order)
    rep.add("dimension transport", bool((counts[dest] == counts).all()))
    return rep


def vacuum_normalizer(W: ProjectiveRep, L: Subgroup) -> Subgroup:
    """The subgroup whose operators preserve the vacuum space.

    An element x preserves H^L exactly when the character a |-> m~(a, x) is
    trivial on L, i.e. when x lies in the m~-polar of L.  For an alternating
    bicharacter multiplier this is L/2 (the polar relation), which is the
    form the statement usually takes.
    """
    return polar(L, antisymmetrize(W.multiplier))


def normalizer_check(S: SectorDecomposition) -> VerificationReport:
    """L/2 normalizes the vacuum space; nothing else does; W on it is 2L-periodic.

    The normalizer is computed as the m~-polar of L, which equals the double
    preimage L/2 whenever the multiplier is an alternating bicharacter (the
    setting of the statement); the coincidence is asserted there.  One pass
    of ``W.blocks()`` reads W's rows at every x in G on the vacuum basis
    (``_transport``): every x in L/2 must preserve the vacuum space, every x
    outside it must not, and the vacuum rows of every x in L/2 must equal
    those of the least element of x + 2L, which covers every pair of
    L/2 x 2L.  Witnesses are (element, carrier index).
    """
    W, L = S.rep, S.L
    G = W.group
    if S.vacuum_dim == 0:
        raise PreconditionError("vacuum space is zero")
    rep = VerificationReport("vacuum normalizer")
    L2 = vacuum_normalizer(W, L)
    form = getattr(W.multiplier, "bichar", None)
    if form is not None and form.is_alternating:
        rep.add("normalizer equals L/2", L2 == double_preimage(G, L))
    twoL = double_image(G, L)
    X = G.coords_array()
    inL2 = L2.box_codes(X) == 0
    pairs = S._pairs(0)
    carriers = pairs // L.order
    stay = move = None
    maps, start = [], 0
    for rows in W.blocks():
        src, num, d, bad = S._transport(rows, pairs)
        Y, keep = X[start:start + len(bad)], inL2[start:start + len(bad)]
        start += len(bad)
        stay = stay or _witness(Y[keep], bad[keep], carriers)
        move = move or _witness(Y[~keep], ~bad[~keep].any(axis=1, keepdims=True), carriers)
        maps.append((src[keep], num[keep], d))
    rep.add("L/2 preserves vacuum", stay is None, witness=stay,
            note=f"exhaustive over {L2.order} elements of L/2")
    if L2.order == G.order:
        rep.add("outside L/2 moves vacuum", True, note="L/2 = G; vacuously true")
    else:
        rep.add("outside L/2 moves vacuum", move is None, witness=move,
                note=f"exhaustive over {G.order - L2.order} elements outside L/2")

    # the vacuum map of each x in L/2 against that of the least element of x + 2L
    d = lcm(*(d for _, _, d in maps))
    src = np.concatenate([v for v, _, _ in maps])
    num = np.concatenate([v * (d // dv) % d for _, v, dv in maps])
    _, least, coset = np.unique(twoL.box_codes(X[inL2]), return_index=True, return_inverse=True)
    coset = least[coset.ravel()]
    period = _witness(X[inL2], (src != src[coset]) | (src >= 0) & (num != num[coset]), carriers)
    rep.add("2L-periodicity on vacuum", period is None, witness=period,
            note=f"exhaustive over {L2.order} x {twoL.order} pairs of L/2 x 2L")
    return rep


def _witness(coords, bad, carriers):
    """(element coords, carrier index) at the first True of the (c x k) mask ``bad``, or None."""
    if not bad.any():
        return None
    r, k = np.argwhere(bad)[0]
    return tuple(int(c) for c in coords[r]), int(carriers[k])


def generated_subspace(W: ProjectiveRep, L: Subgroup, K: np.ndarray,
                       tol: float = DEFAULT_TOL) -> np.ndarray:
    """Smallest W-invariant subspace containing K <= H^L; P projects it back onto K.

    K must be contained in the vacuum space and invariant under the vacuum
    normalizer (W(L/2) in the alternating setting); returns an orthonormal
    basis of span{ W(x) K }, x over coset representatives of G/L.
    """
    G = W.group
    B0 = sectors(W, L).vacuum_basis()
    Kb = _orthonormal_columns(np.asarray(K, dtype=complex).reshape(W.dim, -1))
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
    at that orbit's least index (``SectorDecomposition._transport``), with
    ``DefectError`` unless W(s) preserves the vacuum space as a monomial map
    of its basis.  The multiplier of W0 is
    m0(v, w) = m(s(v), s(w)) + m(a, s(v+w)) with a = s(v) + s(w) - s(v+w) in
    L, computed from m alone, and the law of W0 is checked exactly against
    it.  Its antisymmetrization must descend from m~ and be nondegenerate on V2.
    """
    G = W.group
    m = W.multiplier
    S = sectors(W, L)
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
    pairs = S._pairs(0)
    src, num, den0, bad = S._transport(_generator_rows(W, sections), pairs)
    witness = _witness([s.coords for s in sections], bad, pairs // L.order)
    if witness is not None:
        raise DefectError(f"W({witness[0]}) does not preserve the vacuum space", witness=witness)
    roots = pairs == S._label[pairs]
    SRC0, NUM0 = src[:, roots], num[:, roots]
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


def coherent_states(W: ProjectiveRep, L: Subgroup) -> tuple[VerificationReport, np.ndarray | None]:
    """Sector structure when L = 2L: irreducibility is equivalent to a vacuum line.

    Verifies the equivalence commutant_d(W) = 1  <=>  dim H^L = 1 (and then
    all sectors are one-dimensional coherent states, returned as a basis).
    """
    G = W.group
    if double_image(G, L) != L:
        raise PreconditionError("L != 2L here; use the descent / fermionic path instead")
    S = sectors(W, L)
    rep = VerificationReport("coherent state structure")
    cd = commutant_d(W)
    vdim = S.vacuum_dim
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
