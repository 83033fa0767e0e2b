"""Concrete unitary-matrix models of projective representations.

Every operator is monomial: a permutation plus a vector of exact phase
numerators over a common denominator.  Products, the representation law,
commutants, intertwiners, the sectors of a restriction to an isotropic
subgroup and the descended vacuum action then reduce to integer arithmetic;
dense complex matrices are materialised only for a normalised intertwiner,
for sector bases and for the float distance of an identity that fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import lcm

import numpy as np

from .errors import (DIM_CAP, ENUMERATION_CAP, TABLE_CAP, DefectError, InputError, PreconditionError,
                     ResourceLimitError)
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


class MonomialPart:
    """(W f)[i] = exp(2 pi i num[i]/den) * f[src[i]] with src a permutation."""

    __slots__ = ("dim", "den", "src", "num")

    def __init__(self, dim: int, den: int, src, num):
        self.dim = dim
        self.den = den
        self.src = np.asarray(src, dtype=np.intp)
        self.num = np.asarray(num, dtype=np.int64) % den
        if self.src.shape != (dim,) or self.num.shape != (dim,):
            raise InputError("monomial data has wrong shape")

    def rescaled(self, den: int) -> "MonomialPart":
        if den == self.den:
            return self
        if den % self.den:
            raise InputError("denominators are incompatible")
        return MonomialPart(self.dim, den, self.src, self.num * (den // self.den))

    def compose(self, other: "MonomialPart") -> "MonomialPart":
        d = lcm(self.den, other.den)
        a, b = self.rescaled(d), other.rescaled(d)
        return MonomialPart(self.dim, d, b.src[a.src], a.num + b.num[a.src])

    def adjoint(self) -> "MonomialPart":
        inv = np.empty_like(self.src)
        inv[self.src] = np.arange(self.dim, dtype=np.intp)
        num = np.empty_like(self.num)
        num[self.src] = -self.num
        return MonomialPart(self.dim, self.den, inv, num)

    def scaled(self, ph: Phase) -> "MonomialPart":
        d = lcm(self.den, ph.den)
        a = self.rescaled(d)
        return MonomialPart(self.dim, d, a.src, a.num + ph.numerator_at(d))

    def phases_complex(self) -> np.ndarray:
        return np.exp(2j * np.pi * self.num / self.den)

    def to_dense(self) -> np.ndarray:
        M = np.zeros((self.dim, self.dim), dtype=complex)
        M[np.arange(self.dim), self.src] = self.phases_complex()
        return M

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Matrix-vector / matrix-matrix product W @ X without densifying."""
        ph = self.phases_complex()
        if X.ndim == 1:
            return ph * X[self.src]
        return ph[:, None] * X[self.src, :]

    def trace(self) -> complex:
        fixed = self.src == np.arange(self.dim)
        if not fixed.any():
            return 0j
        return complex(np.exp(2j * np.pi * self.num[fixed] / self.den).sum())

    def equals(self, other: "MonomialPart") -> bool:
        d = lcm(self.den, other.den)
        a, b = self.rescaled(d), other.rescaled(d)
        return bool((a.src == b.src).all() and ((a.num - b.num) % d == 0).all())


class Operator:
    """A unitary operator, given by its exact monomial data; ``matrix`` renders it densely."""

    __slots__ = ("dim", "monomial", "_dense")

    def __init__(self, dim: int, monomial: MonomialPart):
        _check_permutations(monomial.src[None, :], dim)
        self.dim = dim
        self.monomial = monomial
        self._dense = None

    @property
    def matrix(self) -> np.ndarray:
        if self._dense is None:
            self._dense = self.monomial.to_dense()
        return self._dense

    def compose(self, other: "Operator") -> "Operator":
        return Operator(self.dim, monomial=self.monomial.compose(other.monomial))

    def adjoint(self) -> "Operator":
        return Operator(self.dim, monomial=self.monomial.adjoint())

    def scaled(self, ph: Phase) -> "Operator":
        return Operator(self.dim, monomial=self.monomial.scaled(ph))

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self.monomial.apply(X)

    def trace(self) -> complex:
        return self.monomial.trace()

    def distance_to(self, other: "Operator") -> float:
        """0.0 when the two are exactly equal, else the largest entry of their dense difference."""
        if self.monomial.equals(other.monomial):
            return 0.0
        return float(np.abs(self.matrix - other.matrix).max())


class ProjectiveRep:
    """Map from group elements to unitaries, carrying its multiplier.

    Operators are built on demand by ``builder(element) -> Operator`` and
    cached for groups small enough to enumerate comfortably.

    A model may also pass ``batch=(den, fn)``: ``fn(Y) -> (SRC, NUM)``
    evaluates a (c x rank) int64 block Y of reduced coordinate rows at once,
    giving (c x dim) source indices and phase numerators, all over the one
    denominator ``den``.  Rows must be permutations; ``blocks`` and the
    sampled identity scans check every block they take from ``fn``.  The
    formula must keep its int64 intermediates below 2^63; the window model's
    stay below 3 d q^2 for q^d <= DIM_CAP.  Build such a rep with
    ``from_batch``, whose per-element builder is a one-row block, so both
    routes state one formula.
    """

    def __init__(self, group: FinAbGroup, multiplier: Multiplier, dim: int, builder,
                 label: str = "", batch=None):
        if multiplier.group != group:
            raise InputError("multiplier lives on a different group")
        if dim > DIM_CAP:
            raise ResourceLimitError("carrier dimension", dim, "DIM_CAP", DIM_CAP)
        self.group = group
        self.multiplier = multiplier
        self.dim = dim
        self.label = label or f"rep(dim={dim})"
        self.batch = batch
        self._builder = builder
        self._cache = group.order <= 4096
        self._ops: dict[int, Operator] = {}
        self._arrays = None
        w0 = self.operator(group.zero())
        if w0.distance_to(identity_operator(dim)) > DEFAULT_TOL:
            raise DefectError("W(0) is not the identity")

    @classmethod
    def from_batch(cls, group, multiplier, dim: int, den: int, fn, label: str = ""):
        """Monomial rep given by the block formula ``fn(Y) -> (SRC, NUM)`` over ``den``."""
        rank = group.rank

        def builder(x):
            SRC, NUM = fn(np.array(x.coords, dtype=np.int64).reshape(1, rank))
            return Operator(dim, monomial=MonomialPart(dim, den, SRC[0], NUM[0]))

        return cls(group, multiplier, dim, builder, label=label, batch=(den, fn))

    def operator(self, x: GroupElement) -> Operator:
        if x.group != self.group:
            raise InputError("element does not belong to the representation's group")
        r = x.rank
        op = self._ops.get(r)
        if op is None:
            op = self._builder(x)
            if self._cache:
                self._ops[r] = op
        return op

    def with_override(self, x: GroupElement, op: Operator) -> "ProjectiveRep":
        """Copy of the rep with one operator replaced (fault injection in tests)."""
        base = self._builder
        rank = x.rank

        def builder(y):
            return op if y.rank == rank else base(y)

        return ProjectiveRep(self.group, self.multiplier, self.dim, builder,
                             label=self.label + "+override")

    def blocks(self):
        """Every operator's monomial data in rank order, max(1, BLOCK_ENTRIES // dim) elements at a time.

        Yields ``(SRC, NUM, den)`` per block: one call of the batch formula,
        or else the built operators stacked over the lcm of their
        denominators.  Every SRC row is checked to be a permutation, with the
        ``InputError`` that ``Operator`` raises.
        """
        G, dim = self.group, self.dim
        rows = max(1, BLOCK_ENTRIES // dim)
        for start in range(0, G.order, rows):
            stop = min(G.order, start + rows)
            if self.batch is not None:
                den, fn = self.batch
                SRC, NUM = fn(G.coords_range(start, stop))
            else:
                parts = [self.operator(G.element_by_rank(r)).monomial for r in range(start, stop)]
                den = lcm(*(part.den for part in parts))
                SRC = np.stack([part.src for part in parts])
                NUM = np.stack([part.rescaled(den).num for part in parts])
            _check_permutations(SRC, dim)
            yield SRC, NUM, den

    def monomial_arrays(self):
        """(SRC, NUM, den): stacked monomial data for every group element, rank order."""
        if self._arrays is None:
            if self.group.order > TABLE_CAP:
                raise ResourceLimitError("group order", self.group.order, "TABLE_CAP", TABLE_CAP)
            blocks = list(self.blocks())
            den = lcm(*(d for _, _, d in blocks))
            SRC = np.concatenate([S for S, _, _ in blocks])
            NUM = np.concatenate([N * (den // d) % den for _, N, d in blocks])
            self._arrays = (SRC, NUM, den)
        return self._arrays

    def direct_sum(self, other: "ProjectiveRep") -> "ProjectiveRep":
        if other.group != self.group:
            raise InputError("direct sum needs a common group")
        if not _same_multiplier(self.multiplier, other.multiplier):
            raise InputError("direct sum needs equal multipliers")
        d1, d2 = self.dim, other.dim

        def builder(x):
            a, b = self.operator(x).monomial, other.operator(x).monomial
            dd = lcm(a.den, b.den)
            a, b = a.rescaled(dd), b.rescaled(dd)
            return Operator(d1 + d2, monomial=MonomialPart(
                d1 + d2, dd, np.concatenate([a.src, b.src + d1]), np.concatenate([a.num, b.num])))

        return ProjectiveRep(self.group, self.multiplier, d1 + d2, builder,
                             label=f"{self.label} (+) {other.label}")

    def twisted(self, a) -> "ProjectiveRep":
        """Scalar twist: operators gain e(a(x)); the multiplier is twisted consistently."""
        amap = a if isinstance(a, PhaseMap) else PhaseMap.from_callable(self.group, a)
        m2 = twist(self.multiplier, amap)
        return ProjectiveRep(self.group, m2, self.dim,
                             lambda x: self.operator(x).scaled(amap(x)),
                             label=self.label + "~twist")

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
    return Operator(dim, monomial=MonomialPart(dim, 1, np.arange(dim), np.zeros(dim, dtype=np.int64)))


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

    def batch(Y):
        # row y = (a, b): num[t] = <a, t> = sum_i t_i (sum_j a_j P[j, i]) and src(t) = t + b
        SRC = np.zeros((len(Y), dim), dtype=np.int64)
        NUM = np.zeros((len(Y), dim), dtype=np.int64)
        for i in range(rA):
            coef = (Y[:, :rA] * P[:, i]).sum(axis=1) % den
            NUM += coef[:, None] * T[:, i]
            SRC += ((T[:, i] + Y[:, rA + i, None]) % A.moduli[i]) * A._weights[i]
        return SRC, NUM % den

    return ProjectiveRep.from_batch(G, m, dim, den, batch, label=f"schrodinger({A!r})")


def standard_pairing(A: FinAbGroup) -> Bicharacter:
    """<u, v> = sum_i u_i v_i / n_i, the diagonal self-duality of A."""
    mat = [[Phase(1, A.moduli[i]) if i == j else ZERO for j in range(A.rank)]
           for i in range(A.rank)]
    return Bicharacter(A, mat)


def regular_rep(G: FinAbGroup) -> ProjectiveRep:
    """The translation representation on functions over G, with trivial multiplier."""
    dim = G.order
    X = G.coords_array()

    def batch(Y):
        # row y: src(x) = x + y, no phases
        SRC = np.zeros((len(Y), dim), dtype=np.int64)
        for j in range(G.rank):
            SRC += ((X[:, j] + Y[:, j, None]) % G.moduli[j]) * G._weights[j]
        return SRC, np.zeros_like(SRC)

    return ProjectiveRep.from_batch(G, zero_multiplier(G), dim, 1, batch,
                                    label=f"regular({G!r})")


def induced_model(G: FinAbGroup, m: Multiplier, A: Subgroup,
                  c: PhaseMap | SplittingData | None = None,
                  check: bool = True) -> ProjectiveRep:
    """The model on functions over coset representatives of a maximal isotropic A.

    Functions satisfy the covariance f(x + a) = m(a, x)^{-1} c(a)^{-1} f(x)
    (which reduces to f(x + a) = m(x, a) c(a)^{-1} f(x) when m is an
    alternating bicharacter) and the action is (W(y) f)(x) = m(x, y) f(x + y).
    The action is one block formula over the transversal (``from_batch``):
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

    def batch(Y):
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

    rep = ProjectiveRep.from_batch(G, m, dim, den, batch, label=f"induced(|A|={A.order})")
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
    """W(x) W(y) = e(m(x, y)) W(x + y) over all pairs (|G| <= 512) or a seeded sample."""
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

    R(x, y) is W(y) W(x) when ``swapped``, else W(x + y).  A model of order
    <= TABLE_CAP is decided over all pairs exactly, first from the pairs
    (x, g) with g in {0} and the generators.  Law, for a verified cocycle m:
    if it holds at every (x, y) and (x, g), then with
    W(y + g) = e(-m(y, g)) W(y) W(g) it holds at (x, y + g), the cocycle
    identity turning m(x, y) + m(x + y, g) - m(y, g) into m(x, y + g); sums
    of generators reach every y.  Commutator, for a bicharacter phase: once
    W's own law holds, W(x) W(y) = e(m(x, y) - m(y, x)) W(y) W(x), and that
    phase is bimultiplicative too, so agreeing at every (x, g) it agrees
    everywhere.  Only when these pairs fail does the full scan run, and its
    witness is the first bad pair in rank order.  A larger model is compared
    pair by pair, over all pairs when |G|^2 <= ``samples`` and over a seeded
    sample otherwise, and the witness is the worst pair.  A batched model's
    pairs are first compared exactly through its block formula.  Only the
    pairs that differ are densified to measure the distance.
    """
    G = W.group
    n = G.order
    worst = 0.0
    witness = None
    if n <= TABLE_CAP:
        arrays = W.monomial_arrays()
        if not _generators_decide(W, phase, swapped, *arrays):
            witness, worst = _scan_pairs(W, phase, swapped, *arrays)
        passed = witness is None and worst <= tolerance
        note = f"exhaustive over {n}^2 pairs"
    else:
        if n * n <= samples:
            idx = np.stack(np.divmod(np.arange(n * n, dtype=np.int64), n), axis=1)
            note = f"exhaustive over {n}^2 pairs"
        else:
            rng = np.random.default_rng(seed)
            idx = rng.integers(0, n, size=(samples, 2))
            note = f"sampled {samples} pairs, seed={seed}"
        if W.batch is not None:
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
        passed = worst <= tolerance
    rep.add(name, passed, residual=worst, tolerance=tolerance, witness=witness, note=note)


def _pair_distance(W: ProjectiveRep, phase: Multiplier, swapped: bool, x, y) -> float:
    lhs = W.operator(x).compose(W.operator(y))
    rhs = W.operator(y).compose(W.operator(x)) if swapped else W.operator(x + y)
    return lhs.distance_to(rhs.scaled(phase(x, y)))


def _generators_decide(W: ProjectiveRep, phase: Multiplier, swapped: bool, SRC, NUM, den0) -> bool:
    """Whether the pairs (x, g) of ``_check_pairs`` hold and decide every pair, from
    W's ``monomial_arrays`` (SRC, NUM, den0): |G| rows per g, no |G| x |G| table."""
    G = W.group
    m = W.multiplier if swapped else phase
    if not m.is_verified() or (swapped and getattr(phase, "bichar", None) is None):
        return False
    X = G.coords_array()
    moduli, weights = (np.array(t, dtype=np.int64) for t in (G.moduli, G._weights))
    d = lcm(den0, m.den, phase.den)
    NUM = NUM * (d // den0)

    def holds(g, p, swap):
        Y = np.broadcast_to(np.array(g.coords, dtype=np.int64), X.shape)
        sg, ng = SRC[g.rank], NUM[g.rank]
        src1, num1 = sg[SRC], NUM + ng[SRC]                        # W(x) W(g)
        if swap:
            src2, num2 = SRC[:, sg], ng[None, :] + NUM[:, sg]      # W(g) W(x)
        else:
            xg = (X + Y) % moduli @ weights
            src2, num2 = SRC[xg], NUM[xg]                          # W(x + g)
        P = p.pair_nums(X, Y) * (d // p.den)
        return bool((src1 == src2).all() and ((num1 - num2 - P[:, None]) % d == 0).all())

    gens = [G.zero()] + G.generators()
    return all(holds(g, m, False) for g in gens) and \
        (not swapped or all(holds(g, phase, True) for g in gens[1:]))


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

    Evaluates W(x), W(y) and, unless ``swapped``, W(x + y) through the rep's
    block formula, max(1, BLOCK_ENTRIES // dim) pairs at a time, each block checked to
    be permutations.
    """
    G, dim = W.group, W.dim
    den0, fn = W.batch
    d = lcm(den0, phase.den)
    moduli = np.array(G.moduli, dtype=np.int64)

    def rows(Y):
        SRC, NUM = fn(Y)
        _check_permutations(SRC, dim)
        return SRC, NUM * (d // den0)

    step = max(1, BLOCK_ENTRIES // dim)
    out = np.empty(len(idx), dtype=bool)
    for start in range(0, len(idx), step):
        X, Y = G.coords_at(idx[start:start + step, 0]), G.coords_at(idx[start:start + step, 1])
        (SX, NX), (SY, NY) = rows(X), rows(Y)
        k = np.arange(len(X))[:, None]
        src1, num1 = SY[k, SX], NX + NY[k, SX]                 # W(x) W(y)
        src2, num2 = (SX[k, SY], NY + NX[k, SY]) if swapped else rows((X + Y) % moduli)
        P = phase.pair_nums(X, Y) * (d // phase.den)
        out[start:start + step] = (src1 == src2).all(axis=1) & \
            ((num1 - num2 - P[:, None]) % d == 0).all(axis=1)
    return out


def _generator_rows(W: ProjectiveRep, gens):
    """(SRC, NUM, den): W's monomial data at the elements ``gens``, one row each.

    A batched rep evaluates its block formula once; any other rep reads
    ``operator(g).monomial``.  Every row is checked to be a permutation.
    """
    if not gens:
        return np.empty((0, W.dim), dtype=np.intp), np.empty((0, W.dim), dtype=np.int64), 1
    if W.batch is not None:
        den, fn = W.batch
        SRC, NUM = fn(np.array([g.coords for g in gens], dtype=np.int64))
    else:
        parts = [W.operator(g).monomial for g in gens]
        den = lcm(*(part.den for part in parts))
        SRC = np.stack([part.src for part in parts])
        NUM = np.stack([part.rescaled(den).num for part in parts])
    _check_permutations(SRC, W.dim)
    return SRC, NUM % den, den


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
    generators, as ``_generator_rows`` reads them, and ``orders`` are the
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
    if size > ENUMERATION_CAP:
        raise ResourceLimitError("index pairs", size, "ENUMERATION_CAP", ENUMERATION_CAP)
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
    rows = _generator_rows(W, G.generators())
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
    rows1, rows2 = _generator_rows(W1, G.generators()), _generator_rows(W2, G.generators())
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
