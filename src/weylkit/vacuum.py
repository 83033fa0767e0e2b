"""Vacuum-sector analysis of a representation restricted to a compact-side subgroup.

Given a model W and a subgroup L on which the multiplier vanishes, W|_L is an
ordinary representation of a finite abelian group and splits into joint
eigenspaces, one per character of L.  When L is maximal isotropic the
characters that occur are labelled by cosets [y] through a |-> m(a, y).  The
trivial character gives the vacuum space; its fine structure (normalizer,
descent to (L/2)/L, anticommuting generators) is what this module computes.

The sector, permutation and normalizer checks are exact and exhaustive: they
read W's monomial rows on the sectors' orbit bases, ``permute_check(S, x)`` at
x, ``eigen_check`` and ``normalizer_check`` at generators once W's law is proved
(``ProjectiveRep.law_holds``), else at every element of L and of G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm

import numpy as np

from .errors import DefectError, InputError, PreconditionError, check_budget, check_int64
from .groups import FinAbGroup, GroupElement, Quotient, Subgroup, double_image, double_preimage, subquotient
from .isotropy import is_isotropic, polar
from .models import (
    BLOCK_ENTRIES,
    Operator,
    ProjectiveRep,
    _character_walk,
    _orbit_characters,
    _relation_scalars,
    check_rep_law,
    commutant_d,
)
from .multipliers import Bicharacter, TableMultiplier, antisymmetrize
from .phases import ZERO
from .reports import VerificationReport


class SectorDecomposition:
    """Joint eigenspace decomposition of W|_L, indexed by characters of L.

    ``dims`` maps a character index tuple u (coordinates against the
    invariant-factor generators h_k of L, of orders d_k) to the multiplicity
    of that character.  One walk over the n carrier indices against the
    trivial character (``models._character_walk``) labels every L-orbit O by its
    least index R and gives each index i the potential P(i) and the element
    a_i of L along its path to R.  W at the h_k must be a representation of
    L: the W(h_k) commute exactly and W(h_k)^d_k = 1.  Else the sector
    dimensions sum to less than n, and ``DefectError`` says so.  Once W's law
    holds (``ProjectiveRep.law_holds``) this is not read: m vanishes on
    L x L, so W is a homomorphism on L, as ``eigen_check`` uses too.  Each
    character chi on O (``_orbit_characters``) gives one basis vector of its
    sector, e((P(i) - chi(a_i)) / den) / sqrt(|O|) at i in O, so nothing has
    n |L| entries.  Pairs p = i |L| + j of a carrier index and a character
    rank are read on demand (``_label``, ``_vector``, ``_pot``); sector
    bases order their vectors by least index.
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
        C = FinAbGroup(self.orders)
        d = np.array(self.orders, dtype=np.int64)
        self._chars = C.coords_array()
        self._chi = self._chars * (self.char_exp // d)
        self._char_weights = np.array(C._weights, dtype=np.int64)
        self._H = np.array([h.coords for h in self.gens], dtype=np.int64).reshape(len(self.gens), G.rank)
        rows = rep.rows(self._H)
        den = rows[2]
        self._den = D = lcm(den, self.char_exp)
        n = rep.dim
        self._root, pot = _character_walk(rows, self.orders)
        if not rep.law_holds:
            c, witness = _relation_scalars(rows, self.orders)
            if witness is None and c.any():
                witness = (*np.argwhere(c)[0], 0)
            if witness is not None:
                raise DefectError(f"sector dimensions sum to less than {n}: W at the generators "
                                  "of L is not a representation of L",
                                  witness=(self.gens[witness[0]].coords, witness[2]))
        self._ipot, self._path = pot[:, 0] * (D // den), pot[:, 1:]
        roots = np.flatnonzero(self._root == np.arange(n))
        orbit, U = _orbit_characters(rows, self.orders, roots, pot)
        j = U @ self._char_weights
        nL = len(self._chars)
        key = roots[orbit] * nL + j
        self._counts = np.bincount(j, minlength=nL)
        # a vector's index in its sector: its rank among the vectors of its character
        by_char = np.lexsort((key, j))
        rank = np.empty_like(key)
        rank[by_char] = np.arange(len(key)) - (np.cumsum(self._counts) - self._counts)[j[by_char]]
        order = np.argsort(key)
        self._good, self._col = key[order], rank[order]     # by least pair of each vector
        occur = np.flatnonzero(self._counts)
        self.dims = dict(zip(map(tuple, self._chars[occur].tolist()), self._counts[occur].tolist()))
        self._bases: dict[tuple, np.ndarray] = {}
        self._labeled = None

    @property
    def labeled(self) -> bool:
        """True when y |-> (a |-> m(a, y)) is a bijection of G/L with the dual of L.

        Requires |L|^2 = |G| and injectivity of the labeling, which is checked
        directly: for an alternating bicharacter it is equivalent to L being
        maximal isotropic, but a one-sided polar condition is not enough for
        general multipliers.  One ``pair_nums`` pass over the transversal
        gives the labels; for a multiplier that is not bilinear, one more over
        L x transversal checks that each label is the map a |-> m(a, y).
        """
        if self._labeled is None:
            G, m = self.rep.group, self.rep.multiplier
            ok = self.L.order ** 2 == G.order and polar(self.L, m) == self.L
            codes = self._coset_chars if ok else None
            ok = codes is not None and np.count_nonzero(
                np.bincount(codes, minlength=len(self._chars))) == self.L.index
            if ok and m.bichar is None:
                Y = self.L.transversal_coords()
                nums = m.pair_grid(self.L.coords_array(), Y)
                E = self.char_exp
                chi = self._tcoords @ self._chi[codes].T % E
                ok = not ((nums * E - chi * m.den) % (m.den * E)).any()
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

    @cached_property
    def _coset_chars(self):
        """Rank of the character a |-> m(a, y) for each transversal element y, from one
        ``pair_nums`` pass; None when some m(h_k, y) is not a multiple of 1/d_k."""
        m, Y = self.rep.multiplier, self.L.transversal_coords()
        nums = m.pair_grid(self._H, Y).T * np.array(self.orders, dtype=np.int64)
        return None if (nums % m.den).any() else (nums // m.den) @ self._char_weights

    # -- sectors ----------------------------------------------------------
    def basis_of(self, u) -> np.ndarray:
        """Orthonormal basis of the sector of chi_u: one column per solution orbit, by least index."""
        u = tuple(u)
        if u not in self._bases:
            n, j = self.L.order, FinAbGroup(self.orders).rank_of(u)
            pairs = np.arange(self.rep.dim) * n + j
            k = self._vector(pairs)                         # basis vector through each index
            on = np.flatnonzero(k >= 0)
            B = np.zeros((self.rep.dim, self.dims.get(u, 0)), dtype=complex)
            B[on, k[on]] = np.exp(2j * np.pi * self._pot(pairs[on]) / self._den)
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
        dims = self._counts[self._coset_chars]
        return dict(zip(map(tuple, self.L.transversal_coords().tolist()), dims.tolist()))

    def _label(self, pairs) -> np.ndarray:
        """The least pair of each pair's orbit: the least index of its L-orbit, same column."""
        i, j = np.divmod(pairs, self.L.order)
        return self._root[i] * self.L.order + j

    def _vector(self, pairs) -> np.ndarray:
        """For each pair i n + j: the index in sector j's basis of the vector through i, -1 off it."""
        label = self._label(pairs)
        at = np.minimum(np.searchsorted(self._good, label), len(self._good) - 1)
        return np.where(self._good[at] == label, self._col[at], -1)

    def _pot(self, pairs) -> np.ndarray:
        """For each pair i n + j: P(i) - chi_j(a_i) over _den, the phase of the vector through i."""
        i, j = np.divmod(pairs, self.L.order)
        chi = np.einsum("...k,...k->...", self._path[i], self._chi[j])
        return (self._ipot[i] - chi * (self._den // self.char_exp)) % self._den

    def _transport(self, rows, pairs, source=None):
        """W's monomial rows at c elements, read exactly on the sector bases.

        ``rows`` = (SRC, NUM, den) as ``ProjectiveRep.rows`` reads them.
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
        src = self._vector(q)
        num = (NUM[:, i] * (d // den) + (self._pot(q) - self._pot(pairs)) * (d // self._den)) % d
        at = np.searchsorted(pairs, self._label(pairs))
        return src, num, d, (src < 0) | (src != src[:, at]) | (num != num[:, at])

    def _pairs(self, column=None) -> np.ndarray:
        """The pairs on sector basis vectors, of one character column or of all, ascending."""
        n = self.L.order
        good = self._good if column is None else self._good[self._good % n == column]
        root = good // n
        lo = np.searchsorted(root, self._root)
        count = np.searchsorted(root, self._root, side="right") - lo
        at = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)
        return np.repeat(np.arange(self.rep.dim), count) * n + good[at] % n

    def eigen_check(self) -> VerificationReport:
        """W(a) psi = chi(a) psi for every a in L and every sector basis vector psi, exactly.

        W's rows are read on every sector's basis (``_transport``).  Once W's
        law is decided and holds (``ProjectiveRep.law_holds``), W on L is a
        homomorphism, as m vanishes on L x L, so the rows at L's decomposition
        generators h_k decide every a = sum_k t_k h_k.  Else, or when a
        generator fails, the rows at every element of L are read, a block of
        elements at a time; the witness is the first element and carrier
        index where W(a) does not map the vector through it to chi(a) times
        itself.
        """
        rep = VerificationReport("sector eigen-characterization")
        n, E = self.L.order, self.char_exp
        pairs = self._pairs()
        own, t = self._vector(pairs), pairs % n

        def bad_at(Y, T):
            # W at the rows Y, whose coordinates against L's decomposition are the rows of T
            src, num, d, bad = self._transport(self.rep.rows(Y), pairs)
            D = lcm(d, E)
            chi = (T @ self._chi.T)[:, t]
            return bad | (src != own) | ((num * (D // d) - chi * (D // E)) % D != 0)

        witness = None
        unit = np.eye(len(self.gens), dtype=np.int64)
        if not (self.rep.law_holds and not bad_at(self._H, unit).any()):
            X = self.L.coords_array()
            step = max(1, BLOCK_ENTRIES // max(len(pairs), self.rep.dim))
            for start in range(0, n, step):
                part, T = X[start:start + step], self._tcoords[start:start + step]
                witness = _witness(part, bad_at(part, T), pairs // n)
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
    dest = C.ranks_of((S._chars + shift) % np.array(C.moduli, dtype=np.int64))
    pairs = S._pairs()
    bad = S._transport(S.rep.rows([x]), pairs, np.argsort(dest))[3]
    witness = _witness([x.coords], bad, pairs // C.order)
    rep.add("image containment", witness is None, witness=witness,
            note=f"exhaustive over {len(S.dims)} sectors")
    rep.add("dimension transport", bool((S._counts[dest] == S._counts).all()))
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
    setting of the statement); the coincidence is asserted there.  W's rows
    are read on the vacuum basis (``_transport``): every x in L/2 must
    preserve the vacuum space, every x outside it must not, and the vacuum
    rows of every x in L/2 must equal those of every x + a, a in 2L.

    Once W's law is decided and holds (``ProjectiveRep.law_holds``),
    W(x + y) is a scalar times W(x) W(y) and W(x) carries the chi-sector to
    the chi + m~(., x) sector, so generators decide
    (``_normalizer_by_generators``): "preserves" at L/2's generators,
    "moves" at one representative of each nonzero coset of L/2 and, for a
    bicharacter m, 2L-periodicity at the generator pairs of L/2 x 2L.
    Otherwise, or when a generator read fails, one pass of ``W.blocks()``
    reads every x in G, and the vacuum rows of every x in L/2 are compared
    with those of the least element of x + 2L, which covers every pair of
    L/2 x 2L; under a multiplier that is not a bicharacter, that comparison
    reads the rows of L/2 after the generators decided the rest.  Witnesses
    are (element, carrier index).
    """
    W, L = S.rep, S.L
    G = W.group
    if S.vacuum_dim == 0:
        raise PreconditionError("vacuum space is zero")
    rep = VerificationReport("vacuum normalizer")
    L2 = vacuum_normalizer(W, L)
    form = W.multiplier.bichar
    if form is not None and form.is_alternating:
        rep.add("normalizer equals L/2", L2 == double_preimage(G, L))
    twoL = double_image(G, L)
    pairs = S._pairs(0)
    carriers = pairs // L.order
    stay = move = maps = None
    by_generators = W.law_holds and _normalizer_by_generators(S, L2, twoL, pairs, form is not None)
    if not by_generators or form is None:
        X = G.coords_array()
        inL2 = L2.coset_index(X) == 0
    if not by_generators:
        maps, start = [], 0
        for rows in W.blocks():
            src, num, d, bad = S._transport(rows, pairs)
            Y, keep = X[start:start + len(bad)], inL2[start:start + len(bad)]
            start += len(bad)
            stay = stay or _witness(Y[keep], bad[keep], carriers)
            move = move or _witness(Y[~keep], ~bad[~keep].any(axis=1, keepdims=True), carriers)
            maps.append((src[keep], num[keep], d))
    elif form is None:
        maps = [S._transport(W.rows(X[inL2]), pairs)[:3]]
    rep.add("L/2 preserves vacuum", stay is None, witness=stay,
            note=f"exhaustive over {L2.order} elements of L/2")
    if L2.order == G.order:
        rep.add("outside L/2 moves vacuum", True, note="L/2 = G; vacuously true")
    else:
        rep.add("outside L/2 moves vacuum", move is None, witness=move,
                note=f"exhaustive over {G.order - L2.order} elements outside L/2")

    period = None
    if maps is not None:
        # the vacuum map of each x in L/2 against that of the least element of x + 2L
        d = lcm(*(d for _, _, d in maps))
        src = np.concatenate([v for v, _, _ in maps])
        num = np.concatenate([v * (d // dv) % d for _, v, dv in maps])
        # the least element of x + 2L, which lies in L/2 as 2L <= L, as a row position in X[inL2]
        least = G.ranks_of(twoL.transversal_coords()[twoL.coset_index(X[inL2])])
        coset = np.searchsorted(np.flatnonzero(inL2), least)
        period = _witness(X[inL2], (src != src[coset]) | (src >= 0) & (num != num[coset]),
                          carriers)
    rep.add("2L-periodicity on vacuum", period is None, witness=period,
            note=f"exhaustive over {L2.order} x {twoL.order} pairs of L/2 x 2L")
    return rep


def _normalizer_by_generators(S: SectorDecomposition, L2: Subgroup, twoL: Subgroup, pairs,
                              periodic: bool) -> bool:
    """Whether W's rows at a few elements prove the first two checks of ``normalizer_check``
    and, when ``periodic``, the third, for a W whose law holds; read on the vacuum ``pairs``.

    * x in L/2 preserves the vacuum space: W(x + y) = e(-m(x, y)) W(x) W(y),
      so the elements that preserve it are closed under sums and L/2's
      generators decide.
    * x outside L/2 moves it: for y in L/2, W(x + y) is a scalar times
      W(x) W(y), and W(y) maps the vacuum basis onto itself up to phases,
      so W(x + y) preserves the space exactly when W(x) does, and one
      representative of each nonzero coset of L/2 decides.
    * 2L-periodicity, for a bicharacter m: W is a homomorphism on 2L <= L,
      so W(a) = 1 on the vacuum for every a in 2L once it is at 2L's
      generators a_j; then W(x + a) = e(-m(x, a)) W(x) there, and m(x, a) = 0
      on L/2 x 2L exactly when it is 0 at the generator pairs, so the rows at
      x + a_j are compared with those at x for x in 0 and L/2's generators.
    """
    W, G = S.rep, S.rep.group
    moduli = np.array(G.moduli, dtype=np.int64)
    X0 = np.array([(0,) * G.rank] + [x.coords for x in L2.generators], dtype=np.int64)
    reps = L2.transversal_coords()[1:]
    gens = [a.coords for a in twoL.generators] if periodic else []
    A = np.array(gens, dtype=np.int64).reshape(len(gens), G.rank)
    XA = ((X0[:, None] + A) % moduli).reshape(len(X0) * len(A), G.rank)
    src, num, _, bad = S._transport(W.rows(np.concatenate([X0, reps, XA])), pairs)
    k, r = len(X0), len(reps)
    if bad[:k].any() or not bad[k:k + r].any(axis=1).all():
        return False
    src0, num0 = np.repeat(src[:k], len(A), axis=0), np.repeat(num[:k], len(A), axis=0)
    return not ((src[k + r:] != src0) | (num[k + r:] != num0)).any()


def _witness(coords, bad, carriers):
    """(element coords, carrier index) at the first True of the (c x k) mask ``bad``, or None."""
    if not bad.any():
        return None
    r, k = np.argwhere(bad)[0]
    return tuple(int(c) for c in coords[r]), int(carriers[k])


def generated_subspace(W: ProjectiveRep, L: Subgroup, K) -> list:
    """Smallest W-invariant subspace containing span K <= H^L, K a set of vacuum basis columns.

    W(x) maps each vacuum basis vector to a phase times a basis vector of the sector of m~(., x)
    (``_transport``, a sector and a block of rows at a time), at the vacuum normalizer's
    generators, which must map K into K (else ``PreconditionError``), and at L's coset
    representatives: the basis vectors reached span the W(x) K, returned as sorted (character,
    column of ``basis_of``) pairs.  ``DefectError`` when their vacuum columns (PH(K)) are not K,
    or with witness (element, carrier index, -1 when a vector of K leaves the sector) when W(x)
    does not carry K onto basis vectors of one sector.
    """
    S = sectors(W, L)
    K = np.unique(np.asarray(K, dtype=np.int64))
    if K.size and not 0 <= K[0] <= K[-1] < S.vacuum_dim:
        raise PreconditionError("K is not a set of vacuum basis columns")
    gens = [x.coords for x in vacuum_normalizer(W, L).generators]
    X = np.array(gens + L.transversal_coords().tolist(), dtype=np.int64)
    # x's sector: t_k = d_k m~(h_k, x), m~(h_k, x)'s numerator a multiple of den / gcd(den, d_k)
    mt, d = antisymmetrize(W.multiplier), np.array(S.orders, dtype=np.int64)
    g = np.gcd(mt.den, d)
    t = FinAbGroup(S.orders).ranks_of(mt.pair_grid(S._H, X).T // (mt.den // g) * (d // g))
    img = np.empty((len(X), len(K)), dtype=np.int64)        # the basis vectors W(x) maps K to
    step = max(1, BLOCK_ENTRIES // W.dim)
    for col in np.unique(t).tolist() if K.size else []:
        pairs = S._pairs(col)
        roots = np.flatnonzero(pairs == S._label(pairs))
        at = np.flatnonzero(t == col)
        for block in np.split(at, range(step, len(at), step)):
            src, _, _, bad = S._transport(W.rows(X[block]), pairs, np.zeros_like(S._counts))
            hit = np.isin(src[:, roots], K)
            lost = hit.sum(axis=1, keepdims=True) != len(K)
            witness = _witness(X[block], np.hstack([bad, lost]), np.append(pairs // L.order, -1))
            if witness is not None:
                raise DefectError(f"W({witness[0]}) does not carry K onto basis vectors of one sector",
                                  witness=witness)
            img[block] = S._vector(pairs[roots])[np.nonzero(hit)[1]].reshape(len(block), len(K))
    moved = np.flatnonzero(~np.isin(img[:len(gens)], K).all(axis=1))
    if moved.size:
        raise PreconditionError(f"K is not invariant under the vacuum normalizer (witness {gens[moved[0]]})")
    reached = np.unique(np.column_stack([np.repeat(t, len(K)), img.ravel()])[len(gens) * len(K):], axis=0)
    if not np.array_equal(reached[reached[:, 0] == 0, 1], K):
        raise DefectError("projection of the generated subspace differs from K")
    return [(tuple(S._chars[j].tolist()), k) for j, k in reached.tolist()]


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

    @cached_property
    def commutant_dim(self) -> int:
        """``commutant_d`` of the descended action ``rep0``, counted once."""
        return commutant_d(self.rep0)


def descend(W: ProjectiveRep, L: Subgroup) -> DescendedRep:
    """Restrict W to the vacuum space and factor it through V2 = (L/2)/L.

    W0(v) = W(s(v))|_{H^L} for the rank-minimal section s.  W(s) commutes with
    W(L), so it maps each vacuum basis vector, an orbit sum, to a phase times
    another: W0 is monomial, and its row at an image vector is read exactly
    at that orbit's least index (``SectorDecomposition._transport``), with
    ``DefectError`` unless W(s) preserves the vacuum space as a monomial map
    of its basis.  The multiplier of W0 is
    m0(v, w) = m(s(v), s(w)) + m(a, s(v+w)) with a = s(v) + s(w) - s(v+w) in
    L, computed from m alone, and the law of W0 is checked exactly against
    it, unless W's law holds and m is a bicharacter: then W0 keeps it by
    argument, as W(s_v) W(s_w) = e(m(s_v, s_w) - m(a, s_{v+w})) W(a) W(s_{v+w}),
    W(a) is 1 on the vacuum space and 2 m(a, s) = m(a, 2 s) = 0.  Its
    antisymmetrization must descend from m~ and be nondegenerate on V2.
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
    src, num, den0, bad = S._transport(W.rows(sections), pairs)
    witness = _witness([s.coords for s in sections], bad, pairs // L.order)
    if witness is not None:
        raise DefectError(f"W({witness[0]}) does not preserve the vacuum space", witness=witness)
    roots = pairs == S._label(pairs)
    SRC0, NUM0 = src[:, roots], num[:, roots]
    rep0 = ProjectiveRep(V2, m0, B0.shape[1], lambda Y: (SRC0[V2.ranks_of(Y)], NUM0[V2.ranks_of(Y)]),
                         den0, label="descended")
    if W.law_holds and m.bichar is not None:
        rep0._law = (None,)
    law = check_rep_law(rep0)
    report.extend(law, prefix="W0 ")
    if not law.passed:
        raise DefectError("descended operators violate the representation law for m0")

    n = antisymmetrize(m0)
    if not n.is_nondegenerate:
        raise DefectError("descended antisymmetrization is degenerate",
                          witness=[g.coords for g in n.radical().generators])
    report.add("n nondegenerate", True)

    # both sides are bicharacters on L/2, so generator pairs decide it
    gens = L2.generators
    proj = [V2.element(c) for c in q.project_coords([x.coords for x in gens]).tolist()]
    witness = next(((x.coords, y.coords) for x, px in zip(gens, proj) for y, py in zip(gens, proj)
                    if n(px, py) != mt(x, y)), None)
    report.add("lift of n equals m~ on L/2", witness is None, witness=witness)
    if witness is not None:
        raise DefectError("descended form does not lift to m~", witness=witness)
    return DescendedRep(W, L, q, V2, B0, rep0, m0, n, report, S)


def _descended_multiplier(m, V2: FinAbGroup, sections) -> TableMultiplier:
    """m0(v, w) = m(s_v, s_w) + m(s_v + s_w - s_{v+w}, s_{v+w}) over all pairs, in one pass;
    the sum of two numerators over m.den must fit int64 (else ``InputError``).

    For a bicharacter m it is returned verified, by argument, under ``descend``'s
    checks: s_0 = 0, 2 s_v and a(v, w) = s_v + s_w - s_{v+w} in L, m(L, L) = 0 and
    m~(L/2, L) = 0.  The coboundary of m0 at (u, v, w) is then
    2 m(a(u, v), s_w) - m(s_u, a(v, w)) - m(a(v, w), s_u), where the first term is
    m(a, 2 s_w) = 0 and the others sum to -m~(s_u, a) - m(a, 2 s_u) = 0.
    """
    k = V2.order
    check_budget("table entries", k * k)
    check_int64(f"a descended numerator over {m.den}", 2 * (m.den - 1))
    r = m.group.rank
    Sc = np.array([s.coords for s in sections], dtype=np.int64).reshape(k, r)
    Z = Sc[V2.addition_table()]
    A = (Sc[:, None] + Sc - Z) % np.array(m.group.moduli, dtype=np.int64)
    corr = m.pair_nums(A.reshape(k * k, r), Z.reshape(k * k, r)).reshape(k, k)
    m0 = TableMultiplier(V2, m.den, m.pair_grid(Sc, Sc) + corr)
    if m.bichar is not None:
        m0._verified = True     # a cocycle by the argument above
    return m0


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

    The gamma_i come from a symplectic F2 basis of n by Jordan-Wigner (``_jordan_wigner``, which
    refuses an odd F2-dimension: n is then degenerate).  E_i = e(c_i) W0(gamma_i), c_i the root of
    2 c_i = -m0(gamma_i, gamma_i) in [0, 1/2).  One read of W0 at the gamma_i decides every
    relation (``_relation_scalars``, ``DefectError`` unless each is a scalar); a residual is 0.0
    when its relations hold, else the largest |e(x) - 1| or |e(x) - e(1/2)| of a failing one.
    """
    if any(n != 2 for n in D.v2.moduli):
        raise PreconditionError("descended group is not an elementary 2-group")
    basis = _jordan_wigner(D.n)
    B = np.array([e.coords for e in basis], dtype=np.int64).reshape(len(basis), D.v2.rank)
    SRC, NUM, den0 = rows = D.rep0.rows(B)
    s, witness = _relation_scalars(rows, [2] * len(basis))
    if witness is not None:
        raise DefectError("a Clifford relation of the descended operators is not a scalar",
                          witness=(basis[witness[0]].coords, basis[witness[1]].coords, witness[2]))
    # every numerator over d; c_i = (-m0(gamma_i, gamma_i) mod den) / 2 den
    den, d = D.m0.den, lcm(den0, 2 * D.m0.den)
    check_int64(f"a Clifford numerator over {d}", 2 * (d - 1))
    c = -D.m0.pair_nums(B, B) % den * (d // (2 * den))
    ops = [Operator(D.rep0.dim, d, SRC[k], NUM[k] * (d // den0) + c[k]) for k in range(len(basis))]

    def residual(num, target):      # 0.0 when num = target mod d everywhere
        far = np.abs(np.exp(2j * np.pi * (num % d) / d) - np.exp(2j * np.pi * target / d))
        return float(far.max()) if ((num - target) % d).any() else 0.0

    r_sq = residual(np.diag(s) * (d // den0) + 2 * c, 0)
    r_ac = residual(-s[np.tril_indices(len(basis), -1)] * (d // den0), d // 2)
    gram = (2 * D.n.pair_grid(B, B) == D.n.den).astype(int)
    wrong = np.argwhere(gram != 1 - np.eye(len(basis), dtype=int))
    if wrong.size:
        raise DefectError("Gram matrix of the found basis is wrong", witness=tuple(wrong[0].tolist()))
    # each E_i is a scalar times W0(gamma_i) and the gamma_i generate V2: same commutant
    return CliffordBasis(basis, ops, gram.tolist(), r_sq, r_ac, D.commutant_dim)


def coherent_states(W: ProjectiveRep, L: Subgroup) -> tuple[VerificationReport, np.ndarray | None]:
    """Sector structure when L = 2L: irreducibility is equivalent to a vacuum line.

    Verifies the equivalence commutant_d(W) = 1  <=>  dim H^L = 1 (and then
    all sectors are one-dimensional coherent states, returned as a basis).
    ``commutant_d`` counts from W's generator relations, which it checks
    exactly: W(g_i) W(g_j) = e(c_ij) W(g_j) W(g_i) and W(g_i)^{n_i} = e(c_ii)
    with scalars c, else ``DefectError``; W's law is not read.
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
        basis = np.concatenate([S.basis_of(u) for u in sorted(S.dims)], axis=1)
        rep.extend(S.eigen_check())
    else:
        rep.add("reducible as expected", vdim > 1, note=f"vacuum_dim={vdim}")
    return rep, basis
