"""Concrete unitary-matrix models of projective representations.

Every operator is monomial: a permutation plus a vector of exact phase
numerators over a common denominator, and every model is one block formula
that gives those rows for a block of group elements at once.  Products, the
representation law, commutants, intertwiners, the sectors of a restriction
to an isotropic subgroup and the descended vacuum action then reduce to
integer arithmetic; dense complex matrices are materialised only for a
normalised intertwiner, for sector bases and on request (``Operator.matrix``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import lcm

import numpy as np

from .errors import ENTRY_BUDGET, DefectError, InputError, PreconditionError, check_budget
from .groups import FinAbGroup, GroupElement, Subgroup
from .multipliers import (
    Bicharacter,
    Multiplier,
    PhaseMap,
    WeylProductMultiplier,
    antisymmetrize,
    split_symmetric,
    twist,
    zero_multiplier,
)
from .isotropy import is_maximal_isotropic
from .phases import Phase, ZERO
from .reports import VerificationReport

DEFAULT_TOL = 1e-9
BLOCK_ENTRIES = 2 ** 16   # a block of monomial data holds max(1, BLOCK_ENTRIES // dim) rows


class Operator:
    """The unitary (W f)[i] = e(num[i] / den) f[src[i]], src a permutation of range(dim).

    Products, scalars and equality are exact; ``matrix`` renders it densely.
    """

    __slots__ = ("dim", "den", "src", "num")

    def __init__(self, dim: int, den: int, src, num):
        self.dim = dim
        self.den = den
        self.src = np.asarray(src, dtype=np.intp)
        self.num = np.asarray(num, dtype=np.int64) % den
        if self.src.shape != (dim,) or self.num.shape != (dim,):
            raise InputError("monomial data has wrong shape")
        _check_permutations(self.src[None, :], dim)

    def _num_at(self, den: int) -> np.ndarray:
        """num over ``den``, a multiple of self.den."""
        return self.num * (den // self.den)

    def _phases(self) -> np.ndarray:
        return np.exp(2j * np.pi * self.num / self.den)

    @property
    def matrix(self) -> np.ndarray:
        check_budget("dense entries", self.dim ** 2)
        M = np.zeros((self.dim, self.dim), dtype=complex)
        M[np.arange(self.dim), self.src] = self._phases()
        return M

    def compose(self, other: "Operator") -> "Operator":
        d = lcm(self.den, other.den)
        return Operator(self.dim, d, other.src[self.src], self._num_at(d) + other._num_at(d)[self.src])

    def scaled(self, ph: Phase) -> "Operator":
        d = lcm(self.den, ph.den)
        return Operator(self.dim, d, self.src, self._num_at(d) + ph.numerator_at(d))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Matrix-vector / matrix-matrix product W @ X without densifying."""
        ph = self._phases()
        return ph * X[self.src] if X.ndim == 1 else ph[:, None] * X[self.src, :]

    def equals(self, other: "Operator") -> bool:
        d = lcm(self.den, other.den)
        return bool((self.src == other.src).all() and
                    ((self._num_at(d) - other._num_at(d)) % d == 0).all())

    def distance_to(self, other: "Operator") -> float:
        """0.0 when the two are exactly equal, else the largest entry of their dense difference.

        Row i of the difference is e(a) - e(b) in one column where the sources
        agree, else e(a) and -e(b) in two columns.
        """
        if self.equals(other):
            return 0.0
        a, b = self._phases(), other._phases()
        return float(np.where(self.src == other.src, np.abs(a - b),
                              np.maximum(np.abs(a), np.abs(b))).max())


class ProjectiveRep:
    """Map from group elements to monomial unitaries, carrying its multiplier.

    The rep is its block formula: ``fn(Y) -> (SRC, NUM)`` evaluates a
    (c x rank) int64 block Y of reduced coordinate rows at once, giving
    (c x dim) source indices and phase numerators, all over the one
    denominator ``den``.  ``rows`` checks every row it takes from ``fn`` to
    be a permutation, and ``operator(x)`` is one such row.  The formula must
    keep its int64 intermediates below 2^63; the window model's stay below
    3 d q^2 for an operator row of q^d entries within ``ENTRY_BUDGET``.
    """

    def __init__(self, group: FinAbGroup, multiplier: Multiplier, dim: int, fn, den: int,
                 label: str = ""):
        if multiplier.group != group:
            raise InputError("multiplier lives on a different group")
        check_budget("operator row", dim)
        self.group = group
        self.multiplier = multiplier
        self.dim = dim
        self.fn = fn
        self.den = den
        self.label = label or f"rep(dim={dim})"
        self._arrays = None
        if self.operator(group.zero()).distance_to(identity_operator(dim)) > DEFAULT_TOL:
            raise DefectError("W(0) is not the identity")

    def rows(self, Y):
        """(SRC, NUM, den): ``fn`` at the coordinate rows Y (or at a list of elements), NUM mod den.

        Every SRC row is checked to be a permutation, with the ``InputError``
        that ``Operator`` raises.
        """
        if not isinstance(Y, np.ndarray):
            Y = np.array([y.coords for y in Y], dtype=np.int64).reshape(len(Y), self.group.rank)
        SRC, NUM = self.fn(Y)
        _check_permutations(SRC, self.dim)
        return SRC, NUM % self.den, self.den

    def operator(self, x: GroupElement) -> Operator:
        if x.group != self.group:
            raise InputError("element does not belong to the representation's group")
        SRC, NUM = self.fn(np.array([x.coords], dtype=np.int64).reshape(1, self.group.rank))
        return Operator(self.dim, self.den, SRC[0], NUM[0])     # which checks the row

    def _ranks(self, Y) -> np.ndarray:
        return Y @ np.array(self.group._weights, dtype=np.int64)

    def with_override(self, x: GroupElement, op: Operator) -> "ProjectiveRep":
        """Copy of the rep with W(x) replaced by ``op`` (fault injection in tests)."""
        den = lcm(self.den, op.den)

        def patched(Y):
            SRC, NUM = self.fn(Y)
            at = (self._ranks(Y) == x.rank)[:, None]
            return np.where(at, op.src, SRC), np.where(at, op._num_at(den), NUM * (den // self.den))

        return ProjectiveRep(self.group, self.multiplier, self.dim, patched, den,
                             label=self.label + "+override")

    def blocks(self):
        """Every operator's rows in rank order, max(1, BLOCK_ENTRIES // dim) elements at a time.

        Yields ``rows`` of each block: one checked call of the formula.  Once
        ``monomial_arrays`` has kept every row, they are yielded as one block
        and nothing is evaluated.
        """
        if self._arrays is not None:
            yield self._arrays
            return
        G = self.group
        step = max(1, BLOCK_ENTRIES // self.dim)
        for start in range(0, G.order, step):
            yield self.rows(G.coords_range(start, min(G.order, start + step)))

    def fits_arrays(self) -> bool:
        """Whether ``monomial_arrays`` fits: |G| dim within ``ENTRY_BUDGET``."""
        return self.group.order * self.dim <= ENTRY_BUDGET

    def monomial_arrays(self):
        """(SRC, NUM, den): stacked monomial data for every group element, rank order.

        Read in one pass of ``blocks()`` and kept, so later checks and
        ``blocks()`` itself reuse the rows.  Within the budget of
        ``fits_arrays``, else ``ResourceLimitError`` naming ENTRY_BUDGET
        and the |G| dim entries.
        """
        if self._arrays is None:
            check_budget("monomial entries", self.group.order * self.dim)
            blocks = list(self.blocks())
            self._arrays = (np.concatenate([S for S, _, _ in blocks]),
                            np.concatenate([N for _, N, _ in blocks]), self.den)
        return self._arrays

    def direct_sum(self, other: "ProjectiveRep") -> "ProjectiveRep":
        if other.group != self.group:
            raise InputError("direct sum needs a common group")
        if not _same_multiplier(self.multiplier, other.multiplier):
            raise InputError("direct sum needs equal multipliers")
        den = lcm(self.den, other.den)

        def summed(Y):
            (S1, N1), (S2, N2) = self.fn(Y), other.fn(Y)
            return (np.hstack([S1, S2 + self.dim]),
                    np.hstack([N1 * (den // self.den), N2 * (den // other.den)]))

        return ProjectiveRep(self.group, self.multiplier, self.dim + other.dim, summed, den,
                             label=f"{self.label} (+) {other.label}")

    def twisted(self, a) -> "ProjectiveRep":
        """Scalar twist: operators gain e(a(x)); the multiplier is twisted consistently."""
        amap = a if isinstance(a, PhaseMap) else PhaseMap.from_callable(self.group, a)
        m2 = twist(self.multiplier, amap)
        den = lcm(self.den, amap.den)
        anum = np.array([amap(x).numerator_at(den) for x in self.group.elements()], dtype=np.int64)

        def shifted(Y):
            SRC, NUM = self.fn(Y)
            return SRC, NUM * (den // self.den) + anum[self._ranks(Y)][:, None]

        return ProjectiveRep(self.group, m2, self.dim, shifted, den, label=self.label + "~twist")

    def __repr__(self):
        return f"ProjectiveRep({self.label}, dim={self.dim}, {self.group!r})"


def _check_permutations(SRC: np.ndarray, dim: int):
    """Raise InputError unless every row of the (c x dim) array SRC permutes range(dim)."""
    c = SRC.shape[0]
    ok = SRC.shape[1:] == (dim,) and bool(((SRC >= 0) & (SRC < dim)).all())
    if ok and c:
        hits = np.bincount((SRC + dim * np.arange(c)[:, None]).ravel(), minlength=c * dim)
        ok = bool((hits == 1).all())
    if not ok:
        raise InputError("monomial source map is not a permutation")


def identity_operator(dim: int) -> Operator:
    return Operator(dim, 1, np.arange(dim), np.zeros(dim, dtype=np.int64))


@dataclass
class SplittingData:
    """A subgroup together with a phase map splitting the multiplier on it."""

    subgroup: Subgroup
    c: PhaseMap

    def validate(self, m: Multiplier):
        A = self.subgroup
        if self.c(A.ambient.zero()) != ZERO:
            raise PreconditionError("splitting must vanish at 0")
        for a in A.elements():
            for b in A.elements():
                if m(a, b) != self.c(a + b) - self.c(a) - self.c(b):
                    raise PreconditionError(
                        f"splitting fails at {(a.coords, b.coords)}")


# ---------------------------------------------------------------------------
# model builders


def schrodinger_model(A: FinAbGroup, pairing: Bicharacter | None = None) -> ProjectiveRep:
    """Weyl operators W(a, b) = U(a) V(b) on functions over A.

    (U(a) f)(t) = <a, t> f(t) and (V(b) f)(t) = f(t + b); the multiplier is the
    product pairing m((a,b),(a',b')) = <a', b>.
    """
    if pairing is None:
        pairing = standard_pairing(A)
    if pairing.group != A:
        raise InputError("pairing must live on the configuration group")
    if not pairing.is_nondegenerate:
        raise InputError("pairing is degenerate")
    G = FinAbGroup(A.moduli + A.moduli)
    m = WeylProductMultiplier(G, A.rank, [[pairing.matrix[i][j] for j in range(A.rank)]
                                          for i in range(A.rank)])
    dim = A.order
    T = A.coords_array()
    P = pairing._cnum
    den = pairing.den
    rA = A.rank

    def fn(Y):
        # row y = (a, b): num[t] = <a, t> = sum_i t_i (sum_j a_j P[j, i]) and src(t) = t + b
        SRC = np.zeros((len(Y), dim), dtype=np.int64)
        NUM = np.zeros((len(Y), dim), dtype=np.int64)
        for i in range(rA):
            coef = (Y[:, :rA] * P[:, i]).sum(axis=1) % den
            NUM += coef[:, None] * T[:, i]
            SRC += ((T[:, i] + Y[:, rA + i, None]) % A.moduli[i]) * A._weights[i]
        return SRC, NUM % den

    return ProjectiveRep(G, m, dim, fn, den, label=f"schrodinger({A!r})")


def standard_pairing(A: FinAbGroup) -> Bicharacter:
    """<u, v> = sum_i u_i v_i / n_i, the diagonal self-duality of A."""
    mat = [[Phase(1, A.moduli[i]) if i == j else ZERO for j in range(A.rank)]
           for i in range(A.rank)]
    return Bicharacter(A, mat)


def regular_rep(G: FinAbGroup) -> ProjectiveRep:
    """The translation representation on functions over G, with trivial multiplier."""
    dim = G.order
    X = G.coords_array()

    def fn(Y):
        # row y: src(x) = x + y, no phases
        SRC = np.zeros((len(Y), dim), dtype=np.int64)
        for j in range(G.rank):
            SRC += ((X[:, j] + Y[:, j, None]) % G.moduli[j]) * G._weights[j]
        return SRC, np.zeros_like(SRC)

    return ProjectiveRep(G, zero_multiplier(G), dim, fn, 1, label=f"regular({G!r})")


def induced_model(G: FinAbGroup, m: Multiplier, A: Subgroup,
                  c: PhaseMap | SplittingData | None = None,
                  check: bool = True) -> ProjectiveRep:
    """The model on functions over coset representatives of a maximal isotropic A.

    Functions satisfy the covariance f(x + a) = m(a, x)^{-1} c(a)^{-1} f(x)
    (which reduces to f(x + a) = m(x, a) c(a)^{-1} f(x) when m is an
    alternating bicharacter) and the action is (W(y) f)(x) = m(x, y) f(x + y).
    The action is one block formula over the transversal:
    cosets are found by ``Subgroup.coset_index`` and c by rank among A's elements.
    """
    if m.group != G or A.ambient != G:
        raise InputError("group, multiplier and subgroup do not match")
    m.ensure_verified()
    if not is_maximal_isotropic(A, antisymmetrize(m)):
        raise PreconditionError("the inducing subgroup is not maximal isotropic "
                                "for the antisymmetrized multiplier")
    if c is None:
        cmap = split_symmetric(m, A)
    else:
        cmap = c.c if isinstance(c, SplittingData) else c
        SplittingData(A, cmap).validate(m)

    R = A.transversal_coords()
    dim = len(R)
    den = lcm(m.den, cmap.den)
    # c over den by rank among A's elements
    elems = A.elements()
    a_ranks = np.array([a.rank for a in elems], dtype=np.int64)
    c_num = np.array([cmap(a).numerator_at(den) for a in elems], dtype=np.int64)
    moduli = np.array(G.moduli, dtype=np.int64)
    weights = np.array(G._weights, dtype=np.int64)
    scale = den // m.den

    def fn(Y):
        # row (k, i): z = r_i + y_k = r_j + a with r_j its coset's representative;
        # num = m(r_i, y_k) - m(a, r_j) - c(a) and src = j
        c = len(Y)
        Rk = np.tile(R, (c, 1))
        Yk = np.repeat(Y, dim, axis=0)
        Z = (Rk + Yk) % moduli
        J = A.coset_index(Z)
        a = (Z - R[J]) % moduli
        ar = a @ weights
        k = np.minimum(np.searchsorted(a_ranks, ar), len(a_ranks) - 1)
        if (a_ranks[k] != ar).any():
            raise InputError("a coset difference is missing from the subgroup")
        NUM = (m.pair_nums(Rk, Yk) - m.pair_nums(a, R[J])) * scale - c_num[k]
        return J.reshape(c, dim), (NUM % den).reshape(c, dim)

    rep = ProjectiveRep(G, m, dim, fn, den, label=f"induced(|A|={A.order})")
    if check:
        report = check_rep_law(rep, samples=2000)
        if not report.passed:
            raise DefectError("induced model violates the representation law",
                              witness=[c.witness for c in report.checks if not c.passed])
    return rep


# ---------------------------------------------------------------------------
# verification


def check_rep_law(W: ProjectiveRep, tolerance: float = DEFAULT_TOL,
                  samples: int = 20_000, seed: int = 0) -> VerificationReport:
    """W(x) W(y) = e(m(x, y)) W(x + y): exactly over all pairs, or over a seeded sample.

    Exact whenever W's ``monomial_arrays`` fit their budget and the pairs
    (x, g), g in {0} and the generators, decide it (see ``_check_pairs``).
    """
    rep = VerificationReport(f"representation law for {W.label}")
    rep.add("identity", W.operator(W.group.zero()).distance_to(identity_operator(W.dim))
            <= tolerance, tolerance=tolerance)
    _check_pairs(rep, "law", W, W.multiplier, False, tolerance, samples, seed)
    return rep


def commutator_scalar_check(W: ProjectiveRep, tolerance: float = DEFAULT_TOL,
                            samples: int = 20_000, seed: int = 0) -> VerificationReport:
    """W(x) W(y) = e(m~(x, y)) W(y) W(x): the commutator is the scalar m~(x, y)."""
    rep = VerificationReport(f"commutation rule for {W.label}")
    mt = antisymmetrize(W.multiplier).to_multiplier()
    _check_pairs(rep, "commutator", W, mt, True, tolerance, samples, seed)
    return rep


def _check_pairs(rep: VerificationReport, name: str, W: ProjectiveRep, phase: Multiplier,
                 swapped: bool, tolerance: float, samples: int, seed: int):
    """Add check ``name``: W(x) W(y) = e(phase(x, y)) R(x, y) for pairs x, y of G.

    R(x, y) is W(y) W(x) when ``swapped``, else W(x + y).  When W's
    ``monomial_arrays`` fit ``ENTRY_BUDGET`` (|G| dim entries), the
    pairs (x, g) with g in {0} and the generators are read from them first
    (``_generators_decide``).  Law, for a proved cocycle m: if it holds at
    every (x, y) and (x, g), then with W(y + g) = e(-m(y, g)) W(y) W(g) it
    holds at (x, y + g), the cocycle identity turning
    m(x, y) + m(x + y, g) - m(y, g) into m(x, y + g); sums of generators
    reach every y.  Commutator, for a bicharacter phase: once
    W's own law holds, W(x) W(y) = e(m(x, y) - m(y, x)) W(y) W(x), and that
    phase is bimultiplicative too, so agreeing at every (x, g) it agrees
    everywhere.  A pair (x, g) where the identity fails is a witness, and
    its distance the residual.  When |G|^2 fits the budget the full scan runs
    instead whenever the pairs (x, g) do not prove a pass, and its witness
    is the first bad pair in rank order.  Where the pairs cannot decide --
    above the budget, for an unverified m, or for the commutator when W's
    own law fails -- pairs are compared one by one, over all pairs when
    |G|^2 <= ``samples`` and over a seeded sample otherwise, and the witness
    is the worst pair.  The pairs are first compared exactly through W's
    block formula, and only the pairs that differ are measured.
    """
    G = W.group
    n = G.order
    worst = 0.0
    witness = None
    exact = False
    if W.fits_arrays():
        arrays = W.monomial_arrays()
        bad, exact = _generators_decide(W, phase, swapped, *arrays)
        if n * n <= ENTRY_BUDGET and not exact:
            witness, worst = _scan_pairs(W, phase, swapped, *arrays)
            exact = True
        elif bad is not None:
            x, y = map(G.element_by_rank, bad)
            witness, worst = (x.coords, y.coords), _pair_distance(W, phase, swapped, x, y)
            exact = True
    if exact:
        rep.add(name, witness is None and worst <= tolerance, residual=worst, tolerance=tolerance,
                witness=witness, note=f"exhaustive over {n}^2 pairs")
        return
    if n * n <= samples:
        idx = np.stack(np.divmod(np.arange(n * n, dtype=np.int64), n), axis=1)
        note = f"exhaustive over {n}^2 pairs"
    else:
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n, size=(samples, 2))
        note = f"sampled {samples} pairs, seed={seed}"
    # pairs that hold exactly have distance 0 and cannot move worst or witness
    idx = idx[~_batch_pairs_hold(W, phase, swapped, idx)]
    element = cache(G.element_by_rank)
    for i, j in idx.tolist():
        x, y = element(i), element(j)
        dist = _pair_distance(W, phase, swapped, x, y)
        if dist > worst:
            worst = dist
            if dist > tolerance:
                witness = (x.coords, y.coords)
    rep.add(name, worst <= tolerance, residual=worst, tolerance=tolerance, witness=witness,
            note=note)


def _pair_distance(W: ProjectiveRep, phase: Multiplier, swapped: bool, x, y) -> float:
    lhs = W.operator(x).compose(W.operator(y))
    rhs = W.operator(y).compose(W.operator(x)) if swapped else W.operator(x + y)
    return lhs.distance_to(rhs.scaled(phase(x, y)))


def _generators_decide(W: ProjectiveRep, phase: Multiplier, swapped: bool, SRC, NUM, den0):
    """(bad, holds): the pairs (x, g) of ``_check_pairs`` read from W's
    ``monomial_arrays`` (SRC, NUM, den0), |G| rows per g and no |G| x |G| table.

    ``bad`` is the first pair (rank of x, rank of g), g in generator order
    and then x in rank order, where the checked identity fails, else None.
    ``holds`` is True when every pair (x, g) holds and they decide every
    pair: m is a proved cocycle (a bicharacter, or verified exhaustively
    when |G|^2 fits ``ENTRY_BUDGET``) and, for the commutator, the phase is a
    bicharacter and W's own law holds at every (x, g).
    """
    G = W.group
    m = W.multiplier if swapped else phase
    X = G.coords_array()
    moduli, weights = (np.array(t, dtype=np.int64) for t in (G.moduli, G._weights))
    d = lcm(den0, m.den, phase.den)
    NUM = NUM * (d // den0)

    def fails(g, p, swap):
        """Mask over x of the pairs (x, g) where the identity with phase p fails."""
        Y = np.broadcast_to(np.array(g.coords, dtype=np.int64), X.shape)
        sg, ng = SRC[g.rank], NUM[g.rank]
        src1, num1 = sg[SRC], NUM + ng[SRC]                        # W(x) W(g)
        if swap:
            src2, num2 = SRC[:, sg], ng[None, :] + NUM[:, sg]      # W(g) W(x)
        else:
            xg = (X + Y) % moduli @ weights
            src2, num2 = SRC[xg], NUM[xg]                          # W(x + g)
        P = p.pair_nums(X, Y) * (d // p.den)
        return (src1 != src2).any(axis=1) | ((num1 - num2 - P[:, None]) % d != 0).any(axis=1)

    gens = [G.zero()] + G.generators()
    for g in gens[1:] if swapped else gens:
        rows = np.flatnonzero(fails(g, phase, swapped))
        if rows.size:
            return (int(rows[0]), g.rank), False
    holds = getattr(m, "bichar", None) is not None or \
        (G.order ** 2 <= ENTRY_BUDGET and m.is_verified())
    if swapped:
        holds = holds and getattr(phase, "bichar", None) is not None and \
            not any(fails(g, m, False).any() for g in gens)
    return None, holds


def _scan_pairs(W: ProjectiveRep, phase: Multiplier, swapped: bool, SRC, NUM, den0):
    """(witness, worst) of ``_check_pairs`` over all |G|^2 pairs, one row x at a time."""
    G = W.group
    pden, pnum = phase.num_table()
    d = lcm(den0, pden)
    NUM = NUM * (d // den0)
    pnum = pnum * (d // pden)
    S = G.addition_table()
    worst, witness = 0.0, None
    for x in range(G.order):
        sx, nx = SRC[x], NUM[x]
        # row y of each side: the monomial data of W(x) W(y) and of R(x, y)
        src1, num1 = SRC[:, sx], nx[None, :] + NUM[:, sx]
        src2, num2 = (sx[SRC], NUM + nx[SRC]) if swapped else (SRC[S[x]], NUM[S[x]])
        bad = (src1 != src2).any(axis=1) | \
            ((num1 - num2 - pnum[x][:, None]) % d != 0).any(axis=1)
        if bad.any():
            wx, wy = G.element_by_rank(x), G.element_by_rank(int(np.flatnonzero(bad)[0]))
            worst = max(worst, _pair_distance(W, phase, swapped, wx, wy))
            if witness is None:
                witness = (wx.coords, wy.coords)
    return witness, worst


def _batch_pairs_hold(W: ProjectiveRep, phase: Multiplier, swapped: bool,
                      idx: np.ndarray) -> np.ndarray:
    """Mask of the rank pairs (x, y) in ``idx`` where the identity of ``_check_pairs`` holds exactly.

    Reads the ``rows`` of W(x), W(y) and, unless ``swapped``, W(x + y),
    max(1, BLOCK_ENTRIES // dim) pairs at a time.
    """
    G = W.group
    d = lcm(W.den, phase.den)
    moduli = np.array(G.moduli, dtype=np.int64)
    step = max(1, BLOCK_ENTRIES // W.dim)
    out = np.empty(len(idx), dtype=bool)
    for start in range(0, len(idx), step):
        X, Y = G.coords_at(idx[start:start + step, 0]), G.coords_at(idx[start:start + step, 1])
        (SX, NX, _), (SY, NY, _) = W.rows(X), W.rows(Y)
        k = np.arange(len(X))[:, None]
        src1, num1 = SY[k, SX], NX + NY[k, SX]                 # W(x) W(y)
        src2, num2 = (SX[k, SY], NY + NX[k, SY]) if swapped else W.rows((X + Y) % moduli)[:2]
        P = phase.pair_nums(X, Y) * (d // phase.den)
        out[start:start + step] = (src1 == src2).all(axis=1) & \
            (((num1 - num2) * (d // W.den) - P[:, None]) % d == 0).all(axis=1)
    return out


def _orbit_walk(size: int, orders, edges, mods, width: int = 1):
    """Orbits of the points 0..size-1 under commuting permutations, with path potentials.

    ``edges`` holds one (phi, c) per generator, of the order in ``orders``:
    the generator steps point p to phi[p] and adds c[p] to its potential,
    reduced by ``mods``: one modulus, or one per column of c.  Every orbit is
    labelled by its least point, one generator at a time: the group is
    abelian, so phi permutes the orbits found so far, and the cycles of that
    map, of length dividing the generator's order, are walked by doubling; a
    longer cycle raises ``DefectError``, and so does an edge that leaves its
    orbit.  Returns ``(label, pot)``: the path from p to label[p] adds up to
    pot[p].  Witnesses are points p written as divmod(p, width).
    """
    mods = np.asarray(mods, dtype=np.int64)
    label = np.arange(size)
    pot = np.zeros((size, *mods.shape), dtype=np.int64)
    index = np.empty(size, dtype=np.intp)
    for (phi, c), order in zip(edges, orders):
        roots = np.flatnonzero(label == np.arange(size))
        index[roots] = np.arange(len(roots))
        # root r is tied to the root of phi(r) by the potential spot[r]
        step = index[label[phi[roots]]]
        spot = (c[roots] + pot[phi[roots]]) % mods
        # best[r]: the least root among r, step(r), ..., step^(2^t - 1)(r)
        best = np.arange(len(roots))
        bpot = np.zeros((len(roots), *mods.shape), dtype=np.int64)
        for _ in range((order - 1).bit_length()):
            take = best[step] < best
            best = np.where(take, best[step], best)
            bpot = np.where(take.reshape((-1,) + (1,) * mods.ndim), spot + bpot[step], bpot)
            bpot %= mods
            spot, step = (spot + spot[step]) % mods, step[step]
        k = index[label]
        label, pot = roots[best[k]], (pot + bpot[k]) % mods
        # a cycle longer than the order was not walked round, and its labels are not roots
        stray = np.flatnonzero(label[label] != label)
        if stray.size:
            raise DefectError("a generator permutation has a cycle longer than the "
                              "generator's order", witness=divmod(int(stray[0]), width))
    for phi, _ in edges:
        split = np.flatnonzero(label[phi] != label)
        if split.size:
            raise DefectError("generator permutations do not commute",
                              witness=divmod(int(split[0]), width))
    return label, pot


def _intertwining_orbits(orders, rows1, rows2):
    """Exact solution of T W1(g) = W2(g) T over the generators g of an abelian group.

    ``rows1`` and ``rows2`` are the (SRC, NUM, den) rows of W1 and W2 at the
    generators, as ``ProjectiveRep.rows`` reads them, and ``orders`` are the
    generators' orders.  Entry p = i n1 + j of the (n2 x n1) matrix T obeys
    T[p] = e(c(p)) T[phi(p)] with phi(p) = SRC2[i] n1 + SRC1[j] and
    c(p) = NUM2[i] - NUM1[j] for each generator.  ``_orbit_walk`` labels
    every orbit of the pairs by its least pair and carries each pair's exact
    Q/Z potential to the label.  Then every generator edge is tested.
    Returns ``(label, pot, den, good)``: T[p] = e(pot[p] / den) T[label[p]],
    and ``good`` lists the labels of the orbits whose edges all hold.  The
    intertwiners are the combinations of the patterns e(pot / den) on those
    orbits, so their dimension is len(good).
    """
    (S1, N1, den1), (S2, N2, den2) = rows1, rows2
    n1, n2 = S1.shape[1], S2.shape[1]
    size = n1 * n2
    check_budget("index pairs", size)
    den = lcm(den1, den2)
    edges = [((S2[k][:, None] * n1 + S1[k]).ravel(),
              ((N2[k] * (den // den2))[:, None] - N1[k] * (den // den1)).ravel() % den)
             for k in range(len(S1))]
    label, pot = _orbit_walk(size, orders, edges, den, n1)
    bad = np.zeros(size, dtype=bool)
    for phi, c in edges:
        bad[label[(c + pot[phi] - pot) % den != 0]] = True
    roots = np.flatnonzero(label == np.arange(size))
    return label, pot, den, roots[~bad[roots]]


def commutant_d(W: ProjectiveRep) -> int:
    """Complex dimension of {X : X W(g) = W(g) X for every g in G}.

    It is the exact orbit count of ``_intertwining_orbits`` for W1 = W2, read
    from W's rows at the generators of G alone.
    """
    G = W.group
    rows = W.rows(G.generators())
    return len(_intertwining_orbits([n for n in G.moduli if n > 1], rows, rows)[3])


def _same_multiplier(m1: Multiplier, m2: Multiplier) -> bool:
    """m1 = m2 exactly: on generator pairs when both are bilinear, else on their tables."""
    b1, b2 = getattr(m1, "bichar", None), getattr(m2, "bichar", None)
    if b1 is not None and b2 is not None:
        gens = m1.group.generators()
        return all(b1(x, y) == b2(x, y) for x in gens for y in gens)
    den1, num1 = m1.num_table()
    den2, num2 = m2.num_table()
    d = lcm(den1, den2)
    return not ((num1 * (d // den1) - num2 * (d // den2)) % d).any()


def intertwiner(W1: ProjectiveRep, W2: ProjectiveRep) -> dict:
    """Exact basis of {T : T W1(g) = W2(g) T}; multipliers must agree exactly.

    ``_intertwining_orbits`` solves the space from both reps' rows at the
    generators of G.  Returns the ``dimension``, ``orbit`` (n2 x n1: the
    index k < dimension of each entry's solution orbit, -1 off them) and
    ``phases`` over ``den``: basis element k is e(phases / den) where
    orbit == k and 0 elsewhere.  For two irreducible models of one Heisenberg
    multiplier the space is one-dimensional; then ``normalized`` is its
    element scaled to be unitary and ``unitary_defect`` measures that.
    """
    if W1.group != W2.group:
        raise InputError("intertwiner needs a common group")
    if not _same_multiplier(W1.multiplier, W2.multiplier):
        raise InputError("multipliers differ; align them with a twist first")
    G = W1.group
    rows1, rows2 = W1.rows(G.generators()), W2.rows(G.generators())
    label, pot, den, good = _intertwining_orbits([n for n in G.moduli if n > 1], rows1, rows2)
    n1, n2 = W1.dim, W2.dim
    which = np.full(n1 * n2, -1, dtype=np.int64)
    which[good] = np.arange(len(good))
    orbit = which[label].reshape(n2, n1)
    out = {"dimension": len(good), "orbit": orbit, "phases": pot.reshape(n2, n1), "den": den}
    if len(good) == 1:
        support = orbit == 0
        T = np.where(support, np.exp(2j * np.pi * out["phases"] / den), 0)
        That = T / np.sqrt(support.sum() / min(n1, n2))
        out["normalized"] = That
        out["unitary_defect"] = float(np.abs(That.conj().T @ That - np.eye(n1)).max()) \
            if n1 == n2 else None
    return out
