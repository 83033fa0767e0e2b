"""Finite abelian groups, their elements, subgroups and quotients.

A group is a product of cyclic factors Z/n_i given by its modulus list; an
element is a coordinate vector reduced componentwise.  Subgroups are stored
through the column Hermite normal form of their preimage lattice in Z^r, so
membership, cosets and quotients are decided exactly.

Elements are totally ordered by *rank*: the mixed-radix index in which the
first coordinate varies fastest.  Every deterministic choice in the package
(coset representatives, sections, greedy scans) minimises this rank.
"""

from __future__ import annotations

from math import isqrt, lcm, prod

import numpy as np

from .errors import ENUMERATION_CAP, InputError, ResourceLimitError, UnsupportedOperationError
from .intmat import (
    box_reduce,
    column_hnf,
    columns_to_matrix,
    diagonal_of,
    inverse_unimodular,
    kernel_mod,
    mat_vec,
    smith_decompose,
    solve_lower_triangular,
)


class FinAbGroup:
    """Product of Z/n_i, n_i >= 1, in the given (not necessarily canonical) coordinates."""

    __slots__ = ("moduli", "_weights", "_coords_cache")

    def __init__(self, moduli):
        moduli = tuple(int(n) for n in moduli)
        if any(n < 1 for n in moduli):
            raise InputError(f"moduli must be >= 1, got {moduli}")
        self.moduli = moduli
        w = []
        acc = 1
        for n in moduli:
            w.append(acc)
            acc *= n
        self._weights = tuple(w)
        self._coords_cache = None

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        return prod(self.moduli) if self.moduli else 1

    @property
    def exponent(self) -> int:
        return lcm(*self.moduli) if self.moduli else 1

    def element(self, coords) -> "GroupElement":
        coords = tuple(int(c) % n for c, n in zip(coords, self.moduli))
        if len(coords) != self.rank:
            raise InputError(f"expected {self.rank} coordinates, got {len(coords)}")
        return GroupElement(self, coords)

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def generators(self):
        """Unit coordinate vectors for the factors with n_i > 1."""
        out = []
        for i, n in enumerate(self.moduli):
            if n > 1:
                coords = [0] * self.rank
                coords[i] = 1
                out.append(GroupElement(self, tuple(coords)))
        return out

    def rank_of(self, coords) -> int:
        return sum(int(c) * w for c, w in zip(coords, self._weights))

    def coords_of(self, index: int):
        out = []
        for n in self.moduli:
            index, c = divmod(index, n)
            out.append(c)
        return tuple(out)

    def element_by_rank(self, index: int) -> "GroupElement":
        return GroupElement(self, self.coords_of(index))

    def elements(self):
        """All elements in rank order (lazy)."""
        for i in range(self.order):
            yield self.element_by_rank(i)

    def coords_array(self) -> np.ndarray:
        """(order x rank) int64 array of all coordinate vectors, in rank order."""
        if self._coords_cache is None:
            if self.order > ENUMERATION_CAP:
                raise ResourceLimitError("group order", self.order, "ENUMERATION_CAP", ENUMERATION_CAP)
            self._coords_cache = self.coords_range(0, self.order)
        return self._coords_cache

    def coords_range(self, start: int, stop: int) -> np.ndarray:
        """((stop - start) x rank) int64 coordinates of the elements of rank start..stop-1."""
        return self.coords_at(np.arange(start, stop, dtype=np.int64))

    def coords_at(self, r: np.ndarray) -> np.ndarray:
        """(len(r) x rank) int64 coordinates of the elements whose ranks are the entries of r."""
        X = np.empty((len(r), self.rank), dtype=np.int64)
        for i, (n, w) in enumerate(zip(self.moduli, self._weights)):
            X[:, i] = (r // w) % n
        return X

    def addition_table(self) -> np.ndarray:
        """(order x order) table of rank(x + y)."""
        X = self.coords_array()
        s = X[:, None, :] + X[None, :, :]
        s %= np.array(self.moduli, dtype=np.int64)
        w = np.array(self._weights, dtype=np.int64)
        return (s * w).sum(axis=2)

    def invariant_factors(self):
        """Invariant factors d_1 | d_2 | ... (trivial factors dropped)."""
        relation = [[self.moduli[i] if i == j else 0 for j in range(self.rank)]
                    for i in range(self.rank)]
        _, D, _ = smith_decompose(relation)
        return tuple(d for d in diagonal_of(D) if d > 1)

    def canonical(self) -> "FinAbGroup":
        return FinAbGroup(self.invariant_factors())

    def is_p_regular(self, p: int) -> bool:
        return all(n % p for n in self.moduli)

    def __eq__(self, other):
        return isinstance(other, FinAbGroup) and self.moduli == other.moduli

    def __hash__(self):
        return hash(self.moduli)

    def __repr__(self):
        if not self.moduli:
            return "FinAbGroup(trivial)"
        return "FinAbGroup(%s)" % " x ".join(f"Z/{n}" for n in self.moduli)


class GroupElement:
    """Immutable element of a FinAbGroup; coordinates always reduced."""

    __slots__ = ("group", "coords")

    def __init__(self, group: FinAbGroup, coords: tuple):
        self.group = group
        self.coords = coords

    def _check(self, other):
        if not isinstance(other, GroupElement) or other.group != self.group:
            raise InputError("elements belong to different groups")

    def __add__(self, other):
        self._check(other)
        return self.group.element(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other):
        self._check(other)
        return self.group.element(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return self.group.element(-a for a in self.coords)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return self.group.element(k * a for a in self.coords)

    __rmul__ = __mul__

    @property
    def rank(self) -> int:
        return self.group.rank_of(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and other.group == self.group
                and other.coords == self.coords)

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        self._check(other)
        return self.rank < other.rank

    def __repr__(self):
        return f"g{self.coords}"


def halve(G: FinAbGroup, x: GroupElement) -> GroupElement:
    """The unique y with 2y = x; defined only on 2-regular groups."""
    if not G.is_p_regular(2):
        raise UnsupportedOperationError(f"{G} is not 2-regular; halving is undefined")
    halves = [pow(2, -1, n) if n > 1 else 0 for n in G.moduli]
    return G.element(h * c for h, c in zip(halves, x.coords))


def _require_prime(p: int):
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise InputError(f"{p} is not prime")


class Subgroup:
    """Subgroup of a FinAbGroup, canonicalised by the column HNF of its preimage lattice."""

    __slots__ = ("ambient", "generators", "basis", "_elems", "_grid", "_decomp", "_transversal")

    def __init__(self, ambient: FinAbGroup, generators, basis):
        self.ambient = ambient
        self.generators = tuple(generators)
        self.basis = tuple(tuple(row) for row in basis)
        self._elems = None
        self._grid = None
        self._decomp = None
        self._transversal = None

    @classmethod
    def span(cls, ambient: FinAbGroup, gens) -> "Subgroup":
        gens = list(gens)
        for g in gens:
            if not isinstance(g, GroupElement) or g.group != ambient:
                raise InputError("generator does not belong to the ambient group")
        r = ambient.rank
        cols = [list(g.coords) for g in gens]
        for i in range(r):
            rel = [0] * r
            rel[i] = ambient.moduli[i]
            cols.append(rel)
        if r == 0:
            return cls(ambient, gens, [])
        basis = column_hnf(columns_to_matrix(cols, r))
        return cls(ambient, gens, basis)

    @classmethod
    def full(cls, ambient: FinAbGroup) -> "Subgroup":
        return cls.span(ambient, ambient.generators())

    @classmethod
    def trivial(cls, ambient: FinAbGroup) -> "Subgroup":
        return cls.span(ambient, [])

    @property
    def order(self) -> int:
        det = prod(self.basis[i][i] for i in range(len(self.basis))) if self.basis else 1
        q, rem = divmod(self.ambient.order, det)
        assert rem == 0
        return q

    @property
    def index(self) -> int:
        return self.ambient.order // self.order

    def contains(self, x: GroupElement) -> bool:
        if x.group != self.ambient:
            raise InputError("element does not belong to the ambient group")
        if not self.basis:
            return True
        return solve_lower_triangular([list(r) for r in self.basis], list(x.coords)) is not None

    def is_subset_of(self, other: "Subgroup") -> bool:
        if other.ambient != self.ambient:
            raise InputError("subgroups of different ambient groups")
        return all(other.contains(g) for g in self.generators)

    def elements(self):
        """All elements, sorted by rank (cached).

        Enumerated in mixed radix over the decomposition A = (+) Z/d_j * h_j:
        the coefficient grid of Z/d_1 x Z/d_2 x ... times the generators,
        reduced mod the moduli, then sorted by rank.  Arithmetic is int64
        while |G| * |A| * rank < 2^63 bounds every entry, else Python ints.
        """
        if self._elems is None:
            if self.order > ENUMERATION_CAP:
                raise ResourceLimitError("subgroup order", self.order,
                                         "ENUMERATION_CAP", ENUMERATION_CAP)
            G = self.ambient
            gens, orders = self.decomposition()
            dtype = np.int64 if G.order * self.order * max(G.rank, 1) < 2 ** 63 else object
            grid = FinAbGroup(orders).coords_array().astype(dtype)
            H = np.array([g.coords for g in gens], dtype=dtype).reshape(len(gens), G.rank)
            X = grid @ H % np.array(G.moduli, dtype=dtype)
            ranks = X @ np.array(G._weights, dtype=dtype)
            order = np.argsort(ranks, kind="stable")
            assert len(order) == self.order and (np.diff(ranks[order]) > 0).all()
            self._elems = [GroupElement(G, tuple(c)) for c in X[order].tolist()]
            self._grid = order
        return self._elems

    def grid_order(self) -> np.ndarray:
        """Rank in the coefficient grid of ``decomposition()`` of each element of ``elements()``."""
        self.elements()
        return self._grid

    def coset_key(self, x: GroupElement) -> tuple:
        """Canonical label of the coset x + A (box reduction against the lattice basis)."""
        if x.group != self.ambient:
            raise InputError("element does not belong to the ambient group")
        if not self.basis:
            return ()
        return box_reduce([list(r) for r in self.basis], list(x.coords))

    def box_codes(self, X: np.ndarray) -> np.ndarray:
        """Coset codes of the (c x rank) int64 coordinate rows X, as a length-c array.

        Each row is box-reduced against the lattice basis, as in ``coset_key``,
        and the reduced row, with entries in [0, H_ii), is read in mixed radix
        over diag(H).  The code lies in [0, |G/A|) because prod H_ii = |G/A|,
        and two rows share a code exactly when they share a coset.
        """
        X = np.array(X, dtype=np.int64)
        H = np.array(self.basis, dtype=np.int64).reshape(len(self.basis), self.ambient.rank)
        for i in range(len(H)):
            X[:, i:] -= np.outer(X[:, i] // H[i, i], H[i:, i])
        diag = np.diag(H)
        return X @ (np.cumprod(diag) // diag)       # radix prod_{j<i} H_jj

    def transversal_coords(self) -> np.ndarray:
        """(|G/A| x rank) int64 coordinates of the rank-minimal coset representatives (cached).

        Rank compares the last coordinate first.  So take the column HNF H' of
        A's lattice in reversed coordinate order: box reduction against H'
        brings the last coordinate to its least value in the coset, in
        [0, H'_00), then, with it fixed, the one before it, and so on.  The
        reduced element is the coset's rank-minimal one, and the box
        prod [0, H'_ii) holds exactly one element per coset.  Listed in mixed
        radix, the box is in rank order: |G/A| steps, whatever |G| is.
        ``box_codes`` keeps the forward HNF.
        """
        if self._transversal is None:
            if self.index > ENUMERATION_CAP:
                raise ResourceLimitError("subgroup index", self.index,
                                         "ENUMERATION_CAP", ENUMERATION_CAP)
            r = self.ambient.rank
            H = column_hnf(self.basis[::-1]) if r else []
            box = FinAbGroup([H[r - 1 - i][r - 1 - i] for i in range(r)])
            self._transversal = box.coords_array()
        return self._transversal

    def transversal(self):
        """Rank-minimal coset representatives, ordered by rank; covers G exactly once."""
        G = self.ambient
        return [GroupElement(G, tuple(c)) for c in self.transversal_coords().tolist()]

    def decomposition(self):
        """Independent generators and their orders: A = (+) Z/d_j * h_j, d_1 | d_2 | ...

        Returns ``(gens, orders)`` with trivial factors dropped.
        """
        self._ensure_decomp()
        gens, orders, _, _ = self._decomp
        return gens, orders

    def _ensure_decomp(self):
        if self._decomp is not None:
            return
        r = self.ambient.rank
        if r == 0 or self.order == 1:
            self._decomp = ([], [], None, None)
            return
        H = [list(row) for row in self.basis]
        # express the relation lattice N = diag(n) in the basis of the subgroup lattice
        C = []
        for i in range(r):
            col = [self.ambient.moduli[j] if j == i else 0 for j in range(r)]
            t = solve_lower_triangular(H, col)
            assert t is not None
            C.append(t)
        C = columns_to_matrix(C, r)
        U, D, _ = smith_decompose(C)
        Uinv = inverse_unimodular(U)
        # new lattice basis B' = H @ Uinv; subgroup = (+) Z/d_i generated by columns of B'
        gens, orders = [], []
        for i in range(r):
            d = D[i][i]
            if d > 1:
                col = [sum(H[a][b] * Uinv[b][i] for b in range(r)) for a in range(r)]
                gens.append(self.ambient.element(col))
                orders.append(d)
        self._decomp = (gens, orders, U, D)

    @property
    def exponent(self) -> int:
        _, orders = self.decomposition()
        return lcm(*orders) if orders else 1

    def coordinates_of(self, x: GroupElement):
        """Coordinates of x in the decomposition generators (orders as moduli)."""
        self._ensure_decomp()
        gens, orders, U, D = self._decomp
        if not gens:
            if not self.contains(x):
                raise InputError("element not in subgroup")
            return ()
        r = self.ambient.rank
        H = [list(row) for row in self.basis]
        t = solve_lower_triangular(H, list(x.coords))
        if t is None:
            raise InputError("element not in subgroup")
        # the decomposition basis is B' = H @ U^{-1}, so coordinates are U @ t mod d
        y = mat_vec(U, t)
        out = []
        for i in range(r):
            d = D[i][i]
            if d > 1:
                out.append(y[i] % d)
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.ambient == self.ambient
                and other.basis == self.basis)

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.ambient!r})"


def subgroup_span(G: FinAbGroup, gens) -> Subgroup:
    """Smallest subgroup of G containing the given elements."""
    return Subgroup.span(G, gens)


def double_image(G: FinAbGroup, A: Subgroup) -> Subgroup:
    """2A = {2a : a in A}."""
    if A.ambient != G:
        raise InputError("subgroup does not live in G")
    return Subgroup.span(G, [2 * g for g in A.generators])


def double_preimage(G: FinAbGroup, A: Subgroup) -> Subgroup:
    """A/2 = {x in G : 2x in A}."""
    if A.ambient != G:
        raise InputError("subgroup does not live in G")
    r = G.rank
    if r == 0:
        return A
    H = [list(row) for row in A.basis]
    # 2x in lattice(H)  <=>  x = H t / 2 with H t == 0 mod 2
    kern = kernel_mod(H, 2)
    cols = []
    for t in kern:
        col = mat_vec(H, t)
        assert all(v % 2 == 0 for v in col)
        cols.append([v // 2 for v in col])
    gens = [G.element(c) for c in cols]
    return Subgroup.span(G, gens)


class Quotient:
    """Quotient of a group (or of a subgroup pair) with exact project/section maps."""

    __slots__ = ("numerator", "denominator", "group", "_Hnum", "_U", "_dfull",
                 "_section_list", "_section_map")

    def __init__(self, numerator, denominator: Subgroup, group, Hnum, U, dfull,
                 section_list):
        self.numerator = numerator
        self.denominator = denominator
        self.group = group
        self._Hnum = Hnum
        self._U = U
        self._dfull = dfull
        self._section_list = section_list
        self._section_map = {q.coords: s for q, s in section_list}

    def project(self, x: GroupElement) -> GroupElement:
        ambient = self.denominator.ambient
        if x.group != ambient:
            raise InputError("element does not belong to the ambient group")
        t = (list(x.coords) if self._Hnum is None
             else solve_lower_triangular(self._Hnum, list(x.coords)))
        if t is None:
            raise InputError("element is not in the numerator subgroup")
        y = mat_vec(self._U, t)
        coords = [y[i] % d for i, d in enumerate(self._dfull) if d > 1]
        return self.group.element(coords)

    def section(self, q: GroupElement) -> GroupElement:
        if q.group != self.group:
            raise InputError("element does not belong to the quotient group")
        return self._section_map[q.coords]

    @property
    def section_list(self):
        """Pairs (quotient element, rank-minimal representative), in quotient rank order."""
        return list(self._section_list)


def _lattice_quotient(ambient: FinAbGroup, numerator, Hnum, den: Subgroup, num_elements):
    r = ambient.rank
    Hden = [list(row) for row in den.basis]
    if r == 0:
        Q = FinAbGroup(())
        zero = ambient.zero()
        return Quotient(numerator, den, Q, Hnum, [], [], [(Q.zero(), zero)])
    # express the denominator lattice in the numerator basis
    C = []
    for j in range(r):
        col = [Hden[i][j] for i in range(r)]
        t = list(col) if Hnum is None else solve_lower_triangular(Hnum, col)
        if t is None:
            raise InputError("denominator is not contained in the numerator")
        C.append(t)
    C = columns_to_matrix(C, r)
    U, D, _ = smith_decompose(C)
    dfull = [abs(D[i][i]) for i in range(r)]
    Q = FinAbGroup([d for d in dfull if d > 1])
    quo = Quotient(numerator, den, Q, Hnum, U, dfull, [])
    # section: first (rank-minimal) representative reached per class
    seen = {}
    for x in num_elements:
        q = quo.project(x)
        if q.coords not in seen:
            seen[q.coords] = (q, x)
            if len(seen) == Q.order:
                break
    section_list = sorted(seen.values(), key=lambda pair: pair[0].rank)
    quo._section_list = section_list
    quo._section_map = {q.coords: s for q, s in section_list}
    return quo


def quotient(G: FinAbGroup, A: Subgroup) -> Quotient:
    """G/A in invariant-factor form, with a homomorphic projection and a rank-minimal section."""
    if A.ambient != G:
        raise InputError("subgroup does not live in G")
    if G.order > ENUMERATION_CAP:
        raise ResourceLimitError("group order", G.order, "ENUMERATION_CAP", ENUMERATION_CAP)
    return _lattice_quotient(G, G, None, A, G.elements())


def subquotient(B: Subgroup, A: Subgroup) -> Quotient:
    """B/A for nested subgroups A <= B of a common ambient group."""
    if B.ambient != A.ambient:
        raise InputError("subgroups of different ambient groups")
    if not A.is_subset_of(B):
        raise InputError("A is not contained in B")
    Hnum = [list(row) for row in B.basis]
    return _lattice_quotient(B.ambient, B, Hnum, A, B.elements())
