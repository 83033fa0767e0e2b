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

from math import gcd, isqrt, lcm, prod

import numpy as np

from .errors import InputError, UnsupportedOperationError, check_budget, check_int64
from .intmat import (column_hnf, columns_to_matrix, diagonal_of, smith_decompose,
                     solve_lower_triangular)


class FinAbGroup:
    """Product of Z/n_i, n_i >= 1, in the given (not necessarily canonical) coordinates."""

    __slots__ = ("moduli", "_weights", "_coords_cache", "_addition_cache")

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
        self._coords_cache = self._addition_cache = None

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

    def ranks_of(self, X) -> np.ndarray:
        """Rank of each reduced int64 coordinate row of X (the last axis)."""
        return np.asarray(X) @ np.array(self._weights, dtype=np.int64)

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
            check_budget("group order", self.order)
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
        """(order x order) read-only table of rank(x + y), built once and kept.

        Built one coordinate at a time; its |G|^2 entries count against
        ``ENTRY_BUDGET``.
        """
        if self._addition_cache is None:
            check_budget("table entries", self.order ** 2)
            X = self.coords_array()
            S = np.zeros((self.order, self.order), dtype=np.int64)
            for i, (n, w) in enumerate(zip(self.moduli, self._weights)):
                t = np.add.outer(X[:, i], X[:, i])
                t %= n
                t *= w
                S += t
            S.flags.writeable = False
            self._addition_cache = S
        return self._addition_cache

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

    __slots__ = ("ambient", "generators", "basis", "_elems", "_coords", "_grid", "_decomp",
                 "_transversal", "_rhnf")

    def __init__(self, ambient: FinAbGroup, generators, basis):
        self.ambient = ambient
        self.generators = tuple(generators)
        self.basis = tuple(tuple(row) for row in basis)
        self._elems = self._coords = None
        self._grid = None
        self._decomp = None
        self._transversal = None
        self._rhnf = None

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
            check_budget("subgroup order", self.order)
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
            self._coords = X[order]
            self._grid = order
        return self._elems

    def coords_array(self) -> np.ndarray:
        """(|A| x rank) int64 coordinates of ``elements()`` (kept); refuses moduli past int64."""
        self.elements()
        if self._coords.dtype == object:      # Python ints, for a group past int64
            check_int64(f"a modulus of {self.ambient!r}", max(self.ambient.moduli))
            self._coords = self._coords.astype(np.int64)
        return self._coords

    def grid_order(self) -> np.ndarray:
        """Rank in the coefficient grid of ``decomposition()`` of each element of ``elements()``."""
        self.elements()
        return self._grid

    def box_codes(self, X: np.ndarray) -> np.ndarray:
        """Coset codes of the (c x rank) int64 coordinate rows X, as a length-c array.

        Each row is box-reduced against the lattice basis (``_box_reduce``),
        and the reduced row, with entries in [0, H_ii), is read in mixed radix
        over diag(H).  The code lies in [0, |G/A|) because prod H_ii = |G/A|,
        and two rows share a code exactly when they share a coset.
        """
        H = np.array(self.basis, dtype=np.int64).reshape(len(self.basis), self.ambient.rank)
        diag = np.diag(H)
        return _box_reduce(X, H) @ (np.cumprod(diag) // diag)       # radix prod_{j<i} H_jj

    def _reversed_hnf(self) -> np.ndarray:
        """Column HNF of A's lattice with the coordinates in reversed order (cached)."""
        if self._rhnf is None:
            r = self.ambient.rank
            self._rhnf = np.array(column_hnf(self.basis[::-1]) if r else [],
                                  dtype=np.int64).reshape(r, r)
        return self._rhnf

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
            check_budget("subgroup index", self.index)
            box = FinAbGroup(np.diag(self._reversed_hnf())[::-1].tolist())
            self._transversal = box.coords_array()
        return self._transversal

    def coset_index(self, X) -> np.ndarray:
        """Position in ``transversal_coords()`` of the coset of each (c x rank) row of X.

        Box reduction against the reversed HNF takes each row to its coset's
        rank-minimal element, read in the transversal's mixed radix: no table
        over G or over the transversal.
        """
        H = self._reversed_hnf()
        R = _box_reduce(np.asarray(X)[:, ::-1], H)[:, ::-1]
        box = np.diag(H)[::-1]
        return R @ (np.cumprod(box) // box)

    def transversal(self):
        """Rank-minimal coset representatives, ordered by rank; covers G exactly once."""
        G = self.ambient
        return [GroupElement(G, tuple(c)) for c in self.transversal_coords().tolist()]

    def decomposition(self):
        """Independent generators and their orders: A = (+) Z/d_j * h_j, d_1 | d_2 | ...

        Returns ``(gens, orders)`` with trivial factors dropped.  Read off the
        quotient A/0: with H the lattice basis of A, N = diag(moduli) that of
        0, C = H^{-1} N and U C V = D its Smith form, the projection is
        x |-> U H^{-1} x and the generators are the columns of H U^{-1} with
        d_j > 1.  H U^{-1} = N V D^{-1}, so h_j is column j of N V divided by
        d_j: no inverse is formed.
        """
        if self._decomp is None:
            G = self.ambient
            q = Quotient(self, Subgroup.trivial(G))
            r, orders, V = G.rank, list(q.group.moduli), q._V
            gens = [G.element(n * row[j] // d for n, row in zip(G.moduli, V))
                    for j, d in zip(range(r - len(orders), r), orders)]
            self._decomp = (gens, orders, q)
        return self._decomp[:2]

    @property
    def exponent(self) -> int:
        _, orders = self.decomposition()
        return lcm(*orders) if orders else 1

    def coordinates_of(self, x: GroupElement):
        """Coordinates of x in the decomposition generators (orders as moduli)."""
        self.decomposition()
        return self._decomp[2].project(x).coords

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.ambient == self.ambient
                and other.basis == self.basis)

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.ambient!r})"


def _box_reduce(X, H: np.ndarray) -> np.ndarray:
    """Copy of the int64 rows X box-reduced against the lower-triangular H: x_i in [0, H_ii).

    A diagonal H reduces each coordinate on its own: X mod diag(H).
    """
    if not np.tril(H, -1).any():
        return np.asarray(X, dtype=np.int64) % np.diag(H)
    X = np.array(X, dtype=np.int64)
    for i in range(len(H)):
        X[:, i:] -= (X[:, i] // H[i, i])[:, None] * H[i:, i]
    return X


def subgroup_span(G: FinAbGroup, gens) -> Subgroup:
    """Smallest subgroup of G containing the given elements."""
    return Subgroup.span(G, gens)


def double_image(G: FinAbGroup, A: Subgroup) -> Subgroup:
    """2A = {2a : a in A}."""
    if A.ambient != G:
        raise InputError("subgroup does not live in G")
    return Subgroup.span(G, [2 * g for g in A.generators])


def double_preimage(G: FinAbGroup, A: Subgroup) -> Subgroup:
    """A/2 = {x in G : 2x in A}, read off the Smith form U H V = D of A's lattice basis H.

    H Z^r = H V Z^r = U^{-1} D Z^r, so {x : 2x in H Z^r} = U^{-1} diag(d_i / gcd(d_i, 2)) Z^r:
    it is spanned by the columns of H V = U^{-1} D, column i divided by gcd(d_i, 2).
    """
    if A.ambient != G:
        raise InputError("subgroup does not live in G")
    r = G.rank
    _, D, V = smith_decompose(A.basis)
    HV = np.array(A.basis, dtype=object).reshape(r, r) @ np.array(V, dtype=object).reshape(r, r)
    return Subgroup.span(G, [G.element(HV[:, i] // gcd(D[i][i], 2)) for i in range(r)])


def congruence_solution_subgroup(G: FinAbGroup, rows, modulus: int) -> Subgroup:
    """{x in G : K x == 0 (mod M)} for the integer rows K and modulus M, read off the Smith
    form U K V = D.

    With x = V y, K x = U^{-1} D y, so the condition is d_i y_i == 0 (mod M), that is y_i in
    (M / gcd(d_i, M)) Z, with d_i = 0 past the diagonal of D (gcd(0, M) = M: y_i is free).
    The solutions are spanned by the columns of V, column i times M / gcd(d_i, M).
    """
    if not rows:
        return Subgroup.full(G)
    r = G.rank
    _, D, V = smith_decompose(rows)
    d = diagonal_of(D) + [0] * r
    return Subgroup.span(G, [G.element(row[i] * (modulus // gcd(d[i], modulus)) for row in V)
                             for i in range(r)])


class Quotient:
    """B/A for subgroups A <= B of one ambient group, in invariant-factor form.

    With H the lattice basis of B and U C V = diag(d_1, d_2, ...) the Smith
    form of A's lattice C in that basis, x in B projects to U t mod d_i,
    H t = x, over the d_i > 1: a homomorphism onto ``group`` with kernel A.
    The section maps each class to its rank-minimal element of B.
    """

    __slots__ = ("numerator", "denominator", "group", "_H", "_U", "_V", "_sections")

    def __init__(self, numerator: Subgroup, denominator: Subgroup):
        r = numerator.ambient.rank
        H = [list(row) for row in numerator.basis]
        C = columns_to_matrix([solve_lower_triangular(H, [row[j] for row in denominator.basis])
                               for j in range(r)], r)
        self._U, D, self._V = smith_decompose(C)
        self.numerator, self.denominator = numerator, denominator
        self.group = FinAbGroup([D[i][i] for i in range(r) if D[i][i] > 1])
        self._H = np.array(H, dtype=object).reshape(r, r)
        self._sections = None

    def project_coords(self, X) -> np.ndarray:
        """(c x rank of the quotient) int64 coordinates of the images of the (c x r) rows X.

        Rows are reduced mod the moduli, which changes neither membership in
        B nor the image.  One lower-triangular solve H t = x runs over all
        rows, then U t mod d_i over U's last rows, those with d_i > 1, with t
        and U reduced mod the exponent E of G (each d_i divides E).  |t| < E 2^r,
        so every running sum is below (r + 1) 2^r E^2: int64 while that is
        below 2^63, else Python ints.  ``InputError`` for a row outside B.
        """
        G = self.denominator.ambient
        r, E = G.rank, G.exponent
        dtype = np.int64 if (r + 1) * 2 ** r * E * E < 2 ** 63 else object
        X = np.array(X, dtype=dtype)
        X = X.reshape(len(X), r) % np.array(G.moduli, dtype=dtype)
        H = self._H.astype(dtype)
        T = np.zeros_like(X)
        for i in range(r):
            s = X[:, i] - T[:, :i] @ H[i, :i]
            if (s % H[i, i] != 0).any():
                raise InputError("element is not in the numerator subgroup")
            T[:, i] = s // H[i, i]
        U = np.array(self._U, dtype=object).reshape(r, r)[r - self.group.rank:] % E
        Y = (T % E) @ U.astype(dtype).T
        return (Y % np.array(self.group.moduli, dtype=dtype)).astype(np.int64)

    def project(self, x: GroupElement) -> GroupElement:
        if x.group != self.denominator.ambient:
            raise InputError("element does not belong to the ambient group")
        return GroupElement(self.group, tuple(self.project_coords([x.coords])[0].tolist()))

    def _section_rows(self) -> np.ndarray:
        """(|B/A| x r) rank-minimal representatives, in quotient rank order (cached).

        A's transversal holds the rank-minimal element of every A-coset of G,
        and those with B-box code 0 are the cosets in B: one ``project_coords``
        pass places them.  |G/A| steps, counted against ``ENTRY_BUDGET``; B is
        never listed.
        """
        if self._sections is None:
            T = self.denominator.transversal_coords()
            T = T[self.numerator.box_codes(T) == 0]
            self._sections = np.empty_like(T)
            self._sections[self.group.ranks_of(self.project_coords(T))] = T
        return self._sections

    def section(self, q: GroupElement) -> GroupElement:
        if q.group != self.group:
            raise InputError("element does not belong to the quotient group")
        return GroupElement(self.denominator.ambient, tuple(self._section_rows()[q.rank].tolist()))

    @property
    def section_list(self):
        """Pairs (quotient element, rank-minimal representative), in quotient rank order."""
        Q, G = self.group, self.denominator.ambient
        return [(Q.element_by_rank(i), GroupElement(G, tuple(s)))
                for i, s in enumerate(self._section_rows().tolist())]


def quotient(G: FinAbGroup, A: Subgroup) -> Quotient:
    """G/A; see ``subquotient``."""
    if A.ambient != G:
        raise InputError("subgroup does not live in G")
    return subquotient(Subgroup.full(G), A)


def subquotient(B: Subgroup, A: Subgroup) -> Quotient:
    """B/A for nested subgroups A <= B of one ambient group, with its section read.

    The section costs |G/A| steps, whatever |B| is (``Quotient._section_rows``).
    """
    if B.ambient != A.ambient:
        raise InputError("subgroups of different ambient groups")
    if not A.is_subset_of(B):
        raise InputError("A is not contained in B")
    q = Quotient(B, A)
    q._section_rows()
    return q
