"""Multipliers (normalized 2-cocycles valued in Q/Z) and bicharacters.

Two multiplier classes exist, with three backings:

* ``Bicharacter``     -- m(x, y) = x . B . y for a phase matrix B, a normalized
  cocycle by construction (backing "bicharacter");
  ``Bicharacter.weyl_product`` builds m((a,b), (a',b')) = <a', b> for a pairing
  of the two halves of a product group (backing "weyl_product");
* ``TableMultiplier`` -- a full table of integer numerators over a common
  denominator.  Tables are the oracle; the bilinear backings are the fast
  path and must agree with their own tables.

``m.bichar`` is the one test for bilinearity: the form itself for a
``Bicharacter``, None for every other multiplier.

All verification is exact: tables are integer arrays reduced mod a common
denominator, so the cocycle identity is decided without tolerance.
"""

from __future__ import annotations

from math import gcd, lcm

import numpy as np

from .errors import (DefectError, InputError, PreconditionError,
                     UnsupportedOperationError, check_budget, check_int64)
from .groups import FinAbGroup, GroupElement, Subgroup, congruence_solution_subgroup
from .phases import Phase, ZERO, as_phase
from .reports import VerificationReport


class PhaseMap:
    """A finite map from group elements to Q/Z: numerators ``nums`` over one reduced ``den``
    at the elements whose ranks are the sorted ``ranks``, both int64 arrays.

    ``den`` is the lcm of the reduced values' denominators.  ``nums_at`` is the
    one reader of the arrays.  The dict constructor, ``from_callable``,
    ``__call__`` and ``values`` are the ``Phase`` boundary, the last two
    through a {coordinates: Phase} view built on the first scalar read.
    """

    __slots__ = ("group", "den", "ranks", "nums", "_phases")

    def __init__(self, group: FinAbGroup, values: dict):
        phases = [as_phase(v) for v in values.values()]
        den = lcm(*(v.den for v in phases))
        check_int64(f"a phase map numerator over {den}", den - 1)
        ranks = np.array([group.element(k).rank for k in values], dtype=np.int64)
        nums = np.array([v.numerator_at(den) for v in phases], dtype=np.int64)
        order = np.argsort(ranks)
        self.group, self.den, self.ranks, self.nums, self._phases = \
            group, den, ranks[order], nums[order], None

    @classmethod
    def of_arrays(cls, group: FinAbGroup, ranks: np.ndarray, nums: np.ndarray,
                  den: int) -> "PhaseMap":
        """The map rank -> nums / den for sorted ``ranks`` and numerators in [0, den), its den
        reduced to the lcm of the values' denominators."""
        g = gcd(den, *nums.tolist())
        out = cls.__new__(cls)
        out.group, out.den, out.ranks, out.nums, out._phases = group, den // g, ranks, nums // g, None
        return out

    @classmethod
    def from_callable(cls, group: FinAbGroup, fn) -> "PhaseMap":
        check_budget("group order", group.order)
        return cls(group, {x.coords: fn(x) for x in group.elements()})

    @classmethod
    def zero(cls, group: FinAbGroup) -> "PhaseMap":
        return cls.from_callable(group, lambda x: ZERO)

    def nums_at(self, X: np.ndarray, den: int) -> np.ndarray:
        """Numerators over ``den``, a multiple of ``self.den`` below 2^63, at the (c x rank)
        coordinate rows X; ``InputError`` names the first row where the map is undefined."""
        if den % self.den:
            raise ValueError(f"a phase map over {self.den} has no numerators over {den}")
        r = self.group.ranks_of(X)
        at = np.searchsorted(self.ranks, r)
        found = self.ranks[np.minimum(at, len(self.ranks) - 1)] == r if len(self.ranks) else at < 0
        if not found.all():
            raise InputError(f"phase map is undefined at {tuple(X[np.argmin(found)].tolist())}")
        return self.nums[at] * (den // self.den)

    def __call__(self, x) -> Phase:
        key = x.coords if isinstance(x, GroupElement) else tuple(x)
        try:
            return self._view()[key]
        except KeyError:
            raise InputError(f"phase map is undefined at {key}") from None

    @property
    def values(self) -> dict:
        """{coordinates: Phase}, in rank order (a copy)."""
        return dict(self._view())

    def _view(self) -> dict:
        if self._phases is None:
            self._phases = {self.group.coords_of(r): Phase(n, self.den)
                            for r, n in zip(self.ranks.tolist(), self.nums.tolist())}
        return self._phases


class Multiplier:
    """Base class; subclasses provide exact evaluation and vectorised numerators."""

    group: FinAbGroup
    bichar = None       # the form itself for a ``Bicharacter``

    def __init__(self, group: FinAbGroup):
        self.group = group
        self._verified = self._failure = None
        self._table = None
        self._antisym = None

    # -- evaluation ------------------------------------------------------
    @property
    def den(self) -> int:
        raise NotImplementedError

    def phase(self, x: GroupElement, y: GroupElement) -> Phase:
        raise NotImplementedError

    def __call__(self, x, y) -> Phase:
        return self.phase(x, y)

    def pair_nums(self, XC: np.ndarray, YC: np.ndarray) -> np.ndarray:
        """Numerators of m(x_i, y_i) over self.den for coordinate arrays; one row broadcasts."""
        raise NotImplementedError

    def pair_grid(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """(len(X) x len(Y)) numerators of m(x_i, y_j) over self.den: every pair of the two
        row sets of reduced coordinates."""
        nx, ny = len(X), len(Y)
        return self.pair_nums(np.repeat(X, ny, axis=0), np.tile(Y, (nx, 1))).reshape(nx, ny)

    def num_table(self):
        """(den, order x order int64 array), its order^2 entries within ``ENTRY_BUDGET``."""
        if self._table is None:
            n = self.group.order
            check_budget("table entries", n * n)
            X = self.group.coords_array()
            self._table = self.pair_grid(X, X)
        return self.den, self._table

    def backing(self) -> str:
        raise NotImplementedError

    # -- verification ----------------------------------------------------
    def is_verified(self) -> bool:
        """Whether ``check_multiplier`` passes; decided once and kept on the multiplier."""
        if self._verified is None:
            bad = next((c for c in check_multiplier(self).checks if not c.passed), None)
            self._verified = bad is None
            self._failure = bad and f"not a multiplier: {bad.name} fails at {bad.witness}"
        return self._verified

    def ensure_verified(self):
        if not self.is_verified():
            raise PreconditionError(self._failure)


class Bicharacter(Multiplier):
    """Phase-valued bilinear form b(x, y) = sum_ij x_i B_ij y_j on a finite abelian group.

    A bilinear form is a normalized cocycle identically, and the constructor
    checks every entry against the moduli (``_ill_defined``), so it is a
    verified multiplier by construction: ``ensure_verified`` has nothing to do.
    """

    _backing = "bicharacter"

    def __init__(self, group: FinAbGroup, matrix):
        super().__init__(group)
        self._verified = True
        r = group.rank
        matrix = tuple(tuple(matrix[i][j] for j in range(r)) for i in range(r))
        bad = _ill_defined(group, matrix)
        if bad is not None:
            i, j = bad
            raise InputError(f"entry B[{i}][{j}]={matrix[i][j]} is not killed by the moduli; "
                             "the form is not well defined on the group")
        self.matrix = matrix
        self._den = lcm(*(b.den for row in matrix for b in row)) if r else 1
        nums = [[b.numerator_at(self._den) for b in row] for row in matrix]
        self._cnum = np.array(nums, dtype=np.int64).reshape(r, r)
        # nonzero numerators for exact scalar evaluation, and the largest
        # |x . B . y| over reduced coordinates, which int64 arrays must hold
        self._terms = tuple((i, j, c) for i, row in enumerate(nums) for j, c in enumerate(row) if c)
        n = group.moduli
        self._pair_bound = sum(c * (n[i] - 1) * (n[j] - 1) for i, j, c in self._terms)
        alt = all(matrix[i][i] == ZERO for i in range(r)) and all(
            matrix[i][j] + matrix[j][i] == ZERO for i in range(r) for j in range(i + 1, r))
        self._alternating = alt
        self._polars = {}       # subgroup -> its polar, kept by ``isotropy.polar``

    @classmethod
    def zero(cls, group: FinAbGroup) -> "Bicharacter":
        z = [[ZERO] * group.rank for _ in range(group.rank)]
        return cls(group, z)

    @classmethod
    def weyl_product(cls, group: FinAbGroup, left_rank: int, pairing) -> "Bicharacter":
        """m((a,b), (a',b')) = <a', b> on G = A x B for a pairing A x B -> Q/Z, A the first
        ``left_rank`` coordinates: the pairing transposed into the corner block."""
        r = group.rank
        if not (0 <= left_rank <= r):
            raise InputError("left_rank out of range")
        mat = [[ZERO] * r for _ in range(r)]
        # m(x, y) = <y_A, x_B> = sum_j sum_i y_j P[j][i] x_{left_rank + i}
        for j in range(left_rank):
            for i in range(r - left_rank):
                mat[left_rank + i][j] = pairing[j][i]
        form = cls(group, mat)
        form._backing = "weyl_product"
        return form

    @property
    def bichar(self) -> "Bicharacter":
        return self

    @property
    def den(self) -> int:
        return self._den

    def __call__(self, x: GroupElement, y: GroupElement) -> Phase:
        if x.group != self.group or y.group != self.group:
            raise InputError("elements do not belong to the form's group")
        xc, yc = x.coords, y.coords
        num = sum(c * xc[i] * yc[j] for i, j, c in self._terms)
        return Phase(num, self._den)

    phase = __call__

    def _int64_safe(self):
        # every term of x . B . y is >= 0 on reduced coordinates, so no partial sum passes the
        # bound; the message, the form's repr, is built only when it refuses
        if self._pair_bound >= 2 ** 63:
            check_int64(f"{self!r}: x . B . y", self._pair_bound)

    def pair_nums(self, XC: np.ndarray, YC: np.ndarray) -> np.ndarray:
        """Numerators of b(x_i, y_i) over den for rows of reduced coordinates; one row broadcasts."""
        self._int64_safe()
        return np.einsum("ij,ij->i", XC @ self._cnum, YC) % self._den

    def pair_grid(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        self._int64_safe()
        return (X @ self._cnum) @ Y.T % self._den

    @property
    def is_alternating(self) -> bool:
        return self._alternating

    def radical(self) -> Subgroup:
        """{x : b(x, y) = 0 for every y}, computed by integer linear algebra."""
        rows = [list(self._cnum[:, j]) for j in range(self.group.rank)]
        return congruence_solution_subgroup(self.group, rows, self._den)

    @property
    def is_nondegenerate(self) -> bool:
        return self.radical().order == 1

    @property
    def is_symplectic(self) -> bool:
        return self._alternating and self.is_nondegenerate

    def scale(self, k: int) -> "Bicharacter":
        return Bicharacter(self.group, [[k * b for b in row] for row in self.matrix])

    def __add__(self, other: "Bicharacter") -> "Bicharacter":
        if other.group != self.group:
            raise InputError("forms on different groups")
        return Bicharacter(self.group,
                           [[a + b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.matrix, other.matrix)])

    def __sub__(self, other: "Bicharacter") -> "Bicharacter":
        return self + other.scale(-1)

    def __eq__(self, other):
        return (isinstance(other, Bicharacter) and other.group == self.group
                and other.matrix == self.matrix)

    def __hash__(self):
        return hash((self.group, self.matrix))

    def backing(self):
        return self._backing

    def __repr__(self):
        return f"Bicharacter({self.group!r}, den={self._den})"


class TableMultiplier(Multiplier):
    """Full table of numerators over a common denominator, indexed by element rank."""

    def __init__(self, group: FinAbGroup, den: int, num: np.ndarray):
        super().__init__(group)
        n = group.order
        check_budget("table entries", n * n)
        check_int64(f"a table numerator over {den}", den - 1)
        num = np.asarray(num, dtype=np.int64) % den
        if num.shape != (n, n):
            raise InputError(f"table must be {n} x {n}")
        self._den = den
        self.num = num
        self._table = num

    @classmethod
    def from_function(cls, group: FinAbGroup, fn) -> "TableMultiplier":
        rows = [PhaseMap.from_callable(group, lambda y, x=x: fn(x, y)) for x in group.elements()]
        den = lcm(*(a.den for a in rows))
        check_int64(f"a table numerator over {den}", den - 1)
        return cls(group, den, [a.nums_at(group.coords_array(), den) for a in rows])

    @classmethod
    def from_multiplier(cls, m: Multiplier) -> "TableMultiplier":
        den, num = m.num_table()
        return cls(m.group, den, num.copy())

    @property
    def den(self) -> int:
        return self._den

    def phase(self, x, y):
        if x.group != self.group or y.group != self.group:
            raise InputError("elements do not belong to the multiplier's group")
        return Phase(int(self.num[x.rank, y.rank]), self._den)

    def pair_nums(self, XC, YC):
        return self.num[self.group.ranks_of(XC), self.group.ranks_of(YC)]

    def pair_grid(self, X, Y):
        return self.num[np.ix_(self.group.ranks_of(X), self.group.ranks_of(Y))]

    def backing(self):
        return "table"

    def __repr__(self):
        return f"TableMultiplier({self.group!r}, den={self._den})"


# ---------------------------------------------------------------------------
# operations


def _ill_defined(G: FinAbGroup, matrix):
    """The first entry (i, j) of B, row by row, that n_i or n_j does not kill, or None: then
    x . B . y is well defined on G, so a bilinear form on G and a normalized cocycle."""
    n = G.moduli
    return next(((i, j) for i, row in enumerate(matrix) for j, b in enumerate(row)
                 if n[i] * b or n[j] * b), None)


def check_multiplier(m: Multiplier) -> VerificationReport:
    """Verify normalization and the cocycle identity, exactly and without sampling.

    A ``Bicharacter`` is decided on its r x r matrix: the matrix is a bilinear
    form on G, so a normalized cocycle, exactly when it is well defined on G,
    and both records read that condition (``_ill_defined``).  No table is
    built and no triple is read, at any group order.

    Any other multiplier is decided on its numerator table (``num_table``, so
    past ``ENTRY_BUDGET`` its ``ResourceLimitError``): normalization on the
    row and column of 0, the cocycle identity by Light's associativity test
    with the generator in the middle.  It tests dm(y, g, z) = m(y+g, z) +
    m(y, g) - m(y, g+z) - m(g, z) = 0 over all (y, z) only for the generators
    g of G, at most rank |G|^2 triples, which decide all |G|^3.  In C^m[G],
    with [x][y] = e(m(x, y)) [x + y], dm(y, g, z) = 0 says
    ([y][g])[z] = [y]([g][z]).  The basis elements [a] with
    ([x][a])[y] = [x]([a][y]) for all x, y are closed under products, as
    scalars pass through: for two of them, a and b,
    ([x]([a][b]))[y] = (([x][a])[b])[y] = ([x][a])([b][y]) = [x]([a]([b][y]))
    = [x](([a][b])[y]), moving brackets by a, b, a and b.  Sums of the
    generators reach every element of G, 0 = n_1 g_1 included, and the one
    triple of the trivial group associates, so every triple does.  Each
    y + g is a row and a column permutation of the reduced numerator table,
    so dm lies in (-2 den, 2 den) and vanishes mod den exactly when it is
    -den, 0 or den.  The witness is the test's own first failing triple
    (y, g, z): g in generator order, then y and z in rank order.
    """
    G = m.group
    rep = VerificationReport(f"multiplier on {G!r} ({m.backing()})")
    if m.bichar is not None:
        bad = _ill_defined(G, m.bichar.matrix)
        note = f"bilinear, well defined on G: decided on its {G.rank} x {G.rank} matrix"
        rep.add("normalization", bad is None, witness=bad, note=note)
        rep.add("cocycle", bad is None, witness=bad, note=note)
        return rep
    # dm sums two numerators before it subtracts two
    check_int64(f"a cocycle sum over {m.den}", 2 * (m.den - 1))
    den, num = m.num_table()
    n = G.order
    edge = np.flatnonzero(np.concatenate([num[0], num[:, 0]]))     # the row of 0, then its column
    wit = G.coords_of(int(edge[0]) % n) if edge.size else None
    rep.add("normalization", wit is None, witness=wit)

    X = G.coords_array()
    moduli = np.array(G.moduli, dtype=np.int64)
    witness = None
    for g in G.generators():
        # dm(y, g, z) over the (y, z) grid; take keeps the column gather C-ordered
        p = G.ranks_of((X + np.array(g.coords, dtype=np.int64)) % moduli)    # rank(y + g)
        dm = num.take(p, axis=0)            # m(y+g, z)
        dm -= num.take(p, axis=1)           # m(y, g+z)
        dm += num[:, g.rank, None]
        dm -= num[g.rank]
        ok = (dm == 0) | (dm == den) | (dm == -den)
        if not ok.all():
            y, z = divmod(int(np.argmin(ok)), n)
            witness = (G.coords_of(y), g.coords, G.coords_of(z))
            break
    rep.add("cocycle", witness is None, witness=witness, note=f"exhaustive over {n}^3 triples")
    return rep


def antisymmetrize(m: Multiplier) -> Bicharacter:
    """The alternating bicharacter m~(x, y) = m(x, y) - m(y, x), read on basis pairs.

    For a verified cocycle on an abelian group, x -> m(x, y) - m(y, x) is a
    character for each y (and so in y for each x): subtracting the cocycle
    identities at (x, x', y), (x, y, x') and (y, x, x') leaves
    m~(x + x', y) = m~(x, y) + m~(x', y).  So the matrix
    B_ij = m(g_i, g_j) - m(g_j, g_i) decides m~ everywhere.  It is alternating
    by construction, and n_j B_ij = m~(g_i, n_j g_j) = 0, so it is well
    defined on G.  Read with one ``pair_grid`` over the reduced unit rows, or
    off a form's numerator matrix; computed once per multiplier and kept on it.
    """
    if m._antisym is None:
        m.ensure_verified()
        G = m.group
        E = np.eye(G.rank, dtype=np.int64) % np.array(G.moduli, dtype=np.int64)
        # a form's matrix is its values at the unit pairs, without pair_grid's int64 bound on G
        N = m.pair_grid(E, E) if m.bichar is None else m.bichar._cnum
        m._antisym = Bicharacter(G, [[Phase(b, m.den) for b in row] for row in (N - N.T).tolist()])
    return m._antisym


def twist(m: Multiplier, a: PhaseMap) -> Multiplier:
    """The equivalent multiplier m'(x,y) = m(x,y) + a(x) + a(y) - a(x+y), a read on all of G.

    The coboundary is reduced before m is added, so no sum leaves (-d, 2d) for the common
    denominator d, which int64 arrays must hold (else ``InputError``).
    """
    G = m.group
    den0, num0 = m.num_table()
    d = lcm(den0, a.den)
    check_int64(f"a twisted numerator over {d}", 2 * (d - 1))
    avec = a.nums_at(G.coords_array(), d)
    if avec[0]:
        raise InputError("twist function must vanish at 0")
    num = (avec[:, None] - avec[G.addition_table()] + avec) % d + num0 * (d // den0)
    return TableMultiplier(G, d, num)     # which reduces mod d


def equivalent(m1: Multiplier, m2: Multiplier) -> bool:
    """True iff the two multipliers have equal antisymmetrization."""
    if m1.group != m2.group:
        raise InputError("multipliers on different groups")
    return antisymmetrize(m1) == antisymmetrize(m2)


def sqrt_bicharacter(beta: Bicharacter) -> Bicharacter:
    """The unique bicharacter with 2 * result = beta, on a 2-regular group."""
    G = beta.group
    if not G.is_p_regular(2):
        raise UnsupportedOperationError("square root needs a 2-regular group")
    halves = [pow(2, -1, n) if n > 1 else 0 for n in G.moduli]
    mat = [[(2 * halves[i] * halves[j]) * beta.matrix[i][j] for j in range(G.rank)]
           for i in range(G.rank)]
    out = Bicharacter(G, mat)
    if out.scale(2) != beta:
        raise DefectError("doubling the square root does not recover the form")
    return out


def split_symmetric(m: Multiplier, A: Subgroup | None = None) -> PhaseMap:
    """Solve m(a, b) = c(a+b) - c(a) - c(b) on a subgroup where m is symmetric.

    Returns the canonical solution: among all solutions (they differ by a
    character of A) the one whose value vector, elements in rank order, is
    lexicographically least.  One pass over the numerator table of m on A,
    indexed by A's decomposition grid Z/d_1 x Z/d_2 x ...: the cyclic tower
    extends c one generator at a time, and one lexsort over the |A| x |A|
    table of character shifts picks the canonical one, which
    ``check_splitting`` re-verifies exactly (a failure is a defect, never a
    data condition).  Every value is a numerator over D = den * exponent(A),
    reduced mod D at each step; a D whose running sums could leave int64 is
    refused with ``InputError``.  The map is returned as these numerators.
    """
    G = m.group
    if A is None:
        A = Subgroup.full(G)
    if A.ambient != G:
        raise InputError("subgroup does not live in the multiplier's group")
    m.ensure_verified()
    Xa = A.coords_array()
    n = len(Xa)
    check_budget("table entries", n * n)
    _, orders = A.decomposition()
    E = A.exponent
    D = m.den * E
    # the cumulative sums of the tower reach E * D before they are reduced
    check_int64(f"a splitting over denominator {D} on {A!r}", D * (E + 2))
    grid = FinAbGroup(orders)
    pos = A.grid_order()                        # element i of A is grid point pos[i]
    X = np.empty((n, G.rank), dtype=np.int64)
    X[pos] = Xa
    N = m.pair_grid(X, X) % m.den * E
    Ne = N[np.ix_(pos, pos)]
    asym = np.argwhere(np.triu(Ne != Ne.T))
    if asym.size:
        pair = tuple(map(tuple, Xa[asym[0]].tolist()))
        raise PreconditionError(f"multiplier is not symmetric on the subgroup at {pair}")

    # splitting on the cyclic factor <g> of order d at grid weight w, then
    # c(b + t g) = c(b) + sigma(t) + m(b, t g) for the b already covered
    c = np.zeros(n, dtype=np.int64)
    for w, d in zip(grid._weights, orders):
        tg = np.arange(d) * w
        steps = N[tg, w]                                    # m(s g, g), s < d
        x = -(steps.sum() % D // d)                         # d * x = -sum_s m(s g, g)
        sigma = np.concatenate(([0], np.cumsum((x + steps[:-1]) % D))) % D
        c[:d * w] = ((c[None, :w] + sigma[:, None] + N[:w, tg].T) % D).ravel()

    # canonical representative among the shifts by characters u of A
    T = grid.coords_array()
    scale = np.array([E // d for d in orders], dtype=np.int64)
    shifts = (c[pos] + (T * scale) @ T[pos].T % E * m.den) % D
    best = shifts[np.lexsort(shifts.T[::-1])[0]]
    out = PhaseMap.of_arrays(G, G.ranks_of(Xa), best, D)
    check_splitting(m, A, out, own=True)
    return out


def check_splitting(m: Multiplier, A: Subgroup, c: PhaseMap, own: bool = False):
    """m(a, b) = c(a + b) - c(a) - c(b) on A x A, decided exactly at A x {A's generators}.

    m must be a verified multiplier (else ``PreconditionError``).  Then
    f(a, b) = m(a, b) - c(a + b) + c(a) + c(b), m plus a coboundary, is a
    cocycle on A, and f(a, 0) = c(0).  Its identity
    f(a, b + h) = f(a + b, h) + f(a, b) - f(b, h) gives f(., b + h) = f(., b)
    wherever f(., h) = 0 on A.  So c(0) = 0 and f = 0 on A x {h}, h the
    generators of A's decomposition, carry f(., 0) = 0 to every sum of
    generators, that is f = 0 on A x A: |A| rank(A) pairs, not |A|^2.  Only
    when they fail is one ``pair_grid`` over A x A read, within
    ``ENTRY_BUDGET``: its first failing pair, a outer and b inner in element
    order, raises ``PreconditionError``, or ``DefectError`` with it as
    witness when ``own`` (``split_symmetric``'s output).  ``InputError`` when
    c misses an element of A.
    """
    m.ensure_verified()
    X = A.coords_array()
    d = lcm(m.den, c.den)
    check_int64(f"a splitting sum over {d}", 3 * (d - 1))
    cnum = c.nums_at(X, d)
    G = A.ambient
    ranks = G.ranks_of(X)

    def failing(B):
        # f(a, b) != 0 at a in A and b a row of B, an array of elements of A; a + b and b by
        # their positions among A's elements, which are sorted by rank
        ab = np.searchsorted(ranks, G.ranks_of((X[:, None] + B) % G.moduli))
        b = np.searchsorted(ranks, G.ranks_of(B))
        return (m.pair_grid(X, B) * (d // m.den) - cnum[ab] + cnum[:, None] + cnum[b]) % d != 0

    gens, _ = A.decomposition()
    H = np.array([h.coords for h in gens], dtype=np.int64).reshape(len(gens), G.rank)
    if cnum[0] == 0 and not failing(H).any():
        return
    # (0, 0) and A x {h} lie in A x A, so the scan of every pair finds a failure
    check_budget("table entries", len(X) ** 2)
    pair = tuple(map(tuple, X[np.argwhere(failing(X))[0]].tolist()))
    if own:
        raise DefectError("splitting residual is nonzero", witness=pair)
    raise PreconditionError(f"splitting fails at {pair}")


def is_heisenberg(m: Multiplier) -> bool:
    """True iff the antisymmetrization is nondegenerate (symplectic)."""
    return antisymmetrize(m).is_nondegenerate


def zero_multiplier(G: FinAbGroup) -> Bicharacter:
    return Bicharacter.zero(G)
