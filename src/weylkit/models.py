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

from math import isqrt, lcm
from operator import mul

import numpy as np

from .errors import (ENTRY_BUDGET, DefectError, InputError, PreconditionError, check_budget,
                     check_int64)
from .groups import FinAbGroup, GroupElement, Subgroup, congruence_solution_subgroup
from .multipliers import (
    Bicharacter,
    Multiplier,
    PhaseMap,
    antisymmetrize,
    check_splitting,
    split_symmetric,
    twist,
    zero_multiplier,
)
from .isotropy import is_maximal_isotropic
from .phases import Phase, ZERO
from .reports import VerificationReport

BLOCK_ENTRIES = 2 ** 16   # a block of monomial data holds max(1, BLOCK_ENTRIES // dim) rows


class Operator:
    """The unitary (W f)[i] = e(num[i] / den) f[src[i]], src a permutation of range(dim).

    Products, scalars and equality are exact; ``matrix`` renders it densely.
    """

    __slots__ = ("dim", "den", "src", "num")

    def __init__(self, dim: int, den: int, src, num):
        check_int64(f"an operator numerator over {den}", den - 1)
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

    def _common_den(self, den: int) -> int:
        """lcm(self.den, den), refused unless a sum of two numerators over it fits int64."""
        d = lcm(self.den, den)
        check_int64(f"a sum of operator numerators over {d}", 2 * (d - 1))
        return d

    def _phases(self) -> np.ndarray:
        return np.exp(2j * np.pi * self.num / self.den)

    @property
    def matrix(self) -> np.ndarray:
        check_budget("dense entries", self.dim ** 2)
        M = np.zeros((self.dim, self.dim), dtype=complex)
        M[np.arange(self.dim), self.src] = self._phases()
        return M

    def compose(self, other: "Operator") -> "Operator":
        d = self._common_den(other.den)
        return Operator(self.dim, d, other.src[self.src], self._num_at(d) + other._num_at(d)[self.src])

    def scaled(self, ph: Phase) -> "Operator":
        d = self._common_den(ph.den)
        return Operator(self.dim, d, self.src, self._num_at(d) + ph.numerator_at(d))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Matrix-vector / matrix-matrix product W @ X without densifying."""
        ph = self._phases()
        return ph * X[self.src] if X.ndim == 1 else ph[:, None] * X[self.src, :]

    def equals(self, other: "Operator") -> bool:
        d = self._common_den(other.den)
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

    The rep is its block formula and its law verdict.  ``fn(Y) -> (SRC, NUM)`` gives the
    (c x dim) source indices and phase numerators over ``den`` at a (c x rank) int64 block Y
    of reduced coordinate rows, and every read is one call of it through ``rows``, which
    checks each row to be a permutation; building a rep calls no formula.  The formula must
    keep its int64 intermediates below 2^63 (``from_quadratic`` states a quadratic model's
    bound).  The multiplier must be a verified cocycle (else ``PreconditionError``): then the
    pairs that present C^m[G] decide the law, W(0) = 1 included (``_presentation_fails``),
    and the rep keeps the verdict of a law check or of its builder (``law_holds``), and a
    quadratic model its data (``quadratic``), which may prove the law when it is built.
    """

    def __init__(self, group: FinAbGroup, multiplier: Multiplier, dim: int, fn, den: int,
                 label: str = ""):
        if multiplier.group != group:
            raise InputError("multiplier lives on a different group")
        check_budget("operator row", dim)
        multiplier.ensure_verified()
        self.group = group
        self.multiplier = multiplier
        self.dim = dim
        self.fn = fn
        self.den = den
        self.label = label or f"rep(dim={dim})"
        self._law = None        # (first failing pair of P, or None) once a law check decided it
        self.quadratic = None   # (t, A, B, Q, den) of a model built by ``from_quadratic``

    @classmethod
    def from_quadratic(cls, group: FinAbGroup, multiplier: Multiplier, t, A, B, Q, den: int,
                       label: str = "") -> "ProjectiveRep":
        """The model (W(y) f)(s) = e(NUM / den) f((s + A y) mod t), NUM = s^T B y + y^T Q y, on
        the points s of (+) Z/t_j, with one row of A and of B per point coordinate.

        A is reduced mod t, B and Q mod den, as lists of Python ints; the rep keeps them as
        ``quadratic``, and keeps the law's verdict when they prove it (``_quadratic_law``).
        Numerators stay below (t - 1)^T B (n - 1) + (n - 1)^T Q (n - 1) and points below
        t - 1 + A (n - 1), which int64 must hold (else ``InputError``).
        """
        t, top = [int(v) for v in t], [ni - 1 for ni in group.moduli]
        A = [[int(a) % tj for a in row] for row, tj in zip(A, t)]
        B, Q = ([[int(v) % den for v in row] for row in M] for M in (B, Q))
        ra, rb, rq = ([sum(map(mul, row, top)) for row in M] for M in (A, B, Q))   # M (n - 1)
        check_int64(f"the quadratic formula over {den}", max(
            [sum(map(mul, [tj - 1 for tj in t], rb)) + sum(map(mul, rq, top)),
             *(tj - 1 + v for tj, v in zip(t, ra))]))
        P = FinAbGroup(t)
        S = P.coords_array()
        Ai, Bi, Qi = (np.array(M, dtype=np.int64).reshape(len(M), len(top)) for M in (A, B, Q))

        def fn(Y):
            AY, BY = Y @ Ai.T, Y @ Bi.T
            SRC = np.zeros((len(Y), P.order), dtype=np.int64)
            NUM = np.repeat(np.einsum("ij,ij->i", Y @ Qi, Y)[:, None], P.order, axis=1)
            for j in range(len(t)):
                SRC += ((S[:, j] + AY[:, j, None]) % P.moduli[j]) * P._weights[j]
                NUM += BY[:, j, None] * S[:, j]
            return SRC, NUM     # below the bound; ``rows`` reduces it mod den

        rep = cls(group, multiplier, P.order, fn, den, label)
        rep.quadratic = (t, A, B, Q, den)
        if _quadratic_law(group.moduli, multiplier, *rep.quadratic):
            rep._law = (None,)
        return rep

    @property
    def law_holds(self):
        """The kept verdict of W's law at the pairs P (see ``check_rep_law``): True when it
        holds, so W(x) W(y) = e(m(x, y)) W(x + y) at every pair, False when it fails, and
        None while no law check has decided it."""
        return None if self._law is None else self._law[0] is None

    def rows(self, Y):
        """(SRC, NUM, den): W at the coordinate rows Y (or at a list of elements), NUM mod den:
        one call of ``fn``, each SRC row checked to be a permutation (else ``InputError``)."""
        if not isinstance(Y, np.ndarray):
            Y = np.array([y.coords for y in Y], dtype=np.int64).reshape(len(Y), self.group.rank)
        SRC, NUM = self.fn(Y)
        _check_permutations(SRC, self.dim)
        return SRC, NUM % self.den, self.den

    def operator(self, x: GroupElement) -> Operator:
        if x.group != self.group:
            raise InputError("element does not belong to the representation's group")
        SRC, NUM, _ = self.rows([x])
        return Operator(self.dim, self.den, SRC[0], NUM[0])     # which checks the row

    def with_override(self, x: GroupElement, op: Operator) -> "ProjectiveRep":
        """Copy of the rep with W(x) replaced by ``op`` (fault injection in tests).
        A row's numerators stay below lcm(W.den, op.den), which must fit int64."""
        den = lcm(self.den, op.den)
        check_int64(f"an overridden row over {den}", den - 1)

        def patched(Y):
            SRC, NUM, _ = self.rows(Y)
            at = (self.group.ranks_of(Y) == x.rank)[:, None]
            return np.where(at, op.src, SRC), np.where(at, op._num_at(den), NUM * (den // self.den))

        return ProjectiveRep(self.group, self.multiplier, self.dim, patched, den,
                             label=self.label + "+override")

    def blocks(self):
        """Every operator's rows in rank order, max(1, BLOCK_ENTRIES // dim) elements at a time:
        ``rows`` of each block, one checked call of the formula."""
        G = self.group
        step = max(1, BLOCK_ENTRIES // self.dim)
        for start in range(0, G.order, step):
            yield self.rows(G.coords_range(start, min(G.order, start + step)))

    def direct_sum(self, other: "ProjectiveRep") -> "ProjectiveRep":
        if other.group != self.group:
            raise InputError("direct sum needs a common group")
        if not _same_multiplier(self.multiplier, other.multiplier):
            raise InputError("direct sum needs equal multipliers")
        den = lcm(self.den, other.den)
        check_int64(f"a direct sum row over {den}", den - 1)

        def summed(Y):
            (S1, N1, _), (S2, N2, _) = self.rows(Y), other.rows(Y)
            return (np.hstack([S1, S2 + self.dim]),
                    np.hstack([N1 * (den // self.den), N2 * (den // other.den)]))

        return ProjectiveRep(self.group, self.multiplier, self.dim + other.dim, summed, den,
                             label=f"{self.label} (+) {other.label}")

    def twisted(self, a: PhaseMap) -> "ProjectiveRep":
        """Scalar twist: operators gain e(a(x)); the multiplier is twisted consistently.
        A row's numerators stay below 2 den, which must fit int64."""
        m2 = twist(self.multiplier, a)
        den = lcm(self.den, a.den)
        check_int64(f"a twisted row over {den}", 2 * (den - 1))

        def shifted(Y):
            SRC, NUM, _ = self.rows(Y)
            return SRC, NUM * (den // self.den) + a.nums_at(Y, den)[:, None]

        return ProjectiveRep(self.group, m2, self.dim, shifted, den, label=self.label + "~twist")

    def __repr__(self):
        return f"ProjectiveRep({self.label}, dim={self.dim}, {self.group!r})"


def _check_permutations(SRC: np.ndarray, dim: int):
    """Raise InputError unless every row of the (c x dim) array SRC permutes range(dim).

    With every entry in range, row k marks the c dim slots k dim + SRC[k]:
    all are marked exactly when each row hits each of its dim slots once.
    """
    c = SRC.shape[0]
    ok = SRC.shape[1:] == (dim,) and (not SRC.size or bool(SRC.min() >= 0 and SRC.max() < dim))
    if ok and SRC.size:
        seen = np.zeros(c * dim, dtype=bool)
        seen[SRC + np.arange(0, c * dim, dim)[:, None]] = True
        ok = bool(seen.all())
    if not ok:
        raise InputError("monomial source map is not a permutation")


def identity_operator(dim: int) -> Operator:
    return Operator(dim, 1, np.arange(dim), np.zeros(dim, dtype=np.int64))


# ---------------------------------------------------------------------------
# model builders


def schrodinger_model(A: FinAbGroup, pairing: Bicharacter | None = None) -> ProjectiveRep:
    """Weyl operators W(a, b) = U(a) V(b) on functions over A.

    (U(a) f)(t) = <a, t> f(t) and (V(b) f)(t) = f(t + b); the multiplier is the
    product pairing m((a,b),(a',b')) = <a', b>.  The quadratic model
    (``ProjectiveRep.from_quadratic``) on the points of A, with the pairing's numerators P
    over its den: A = [0 I], B = [P^T 0] and Q = 0, so M = A^T B is the product pairing
    and the data prove the law.  Numerators stay below sum_ij (n_i - 1) P_ji (n_j - 1).
    """
    if pairing is None:
        pairing = standard_pairing(A)
    if pairing.group != A:
        raise InputError("pairing must live on the configuration group")
    if not pairing.is_nondegenerate:
        raise InputError("pairing is degenerate")
    G = FinAbGroup(A.moduli + A.moduli)
    m = Bicharacter.weyl_product(G, A.rank, pairing.matrix)
    zero = np.zeros((A.rank, A.rank), dtype=np.int64)
    return ProjectiveRep.from_quadratic(
        G, m, A.moduli, np.hstack([zero, np.eye(A.rank, dtype=np.int64)]),
        np.hstack([pairing._cnum.T, zero]), np.zeros((G.rank, G.rank), dtype=np.int64),
        pairing.den, label=f"schrodinger({A!r})")


def standard_pairing(A: FinAbGroup) -> Bicharacter:
    """<u, v> = sum_i u_i v_i / n_i, the diagonal self-duality of A."""
    mat = [[Phase(1, A.moduli[i]) if i == j else ZERO for j in range(A.rank)]
           for i in range(A.rank)]
    return Bicharacter(A, mat)


def regular_rep(G: FinAbGroup) -> ProjectiveRep:
    """The translation representation on functions over G, with trivial multiplier: the
    quadratic model (``ProjectiveRep.from_quadratic``) with A = I, B = Q = 0 and den 1."""
    I, zero = np.eye(G.rank, dtype=np.int64), np.zeros((G.rank, G.rank), dtype=np.int64)
    return ProjectiveRep.from_quadratic(G, zero_multiplier(G), G.moduli, I, zero, zero, 1,
                                        label=f"regular({G!r})")


def induced_model(G: FinAbGroup, m: Multiplier, A: Subgroup,
                  c: PhaseMap | None = None) -> ProjectiveRep:
    """The model on functions over coset representatives of a maximal isotropic A.

    Functions satisfy the covariance f(x + a) = m(a, x)^{-1} c(a)^{-1} f(x)
    (which reduces to f(x + a) = m(x, a) c(a)^{-1} f(x) when m is an
    alternating bicharacter) and the action is (W(y) f)(x) = m(x, y) f(x + y).
    On the transversal r_0, r_1, ... (``Subgroup.transversal_coords``), W(y)
    reads f at r_j, where r_i + y = r_j + a with a in A, with the phase
    m(r_i, y) - m(a, r_j) - c(a).  A given splitting c must split m on A
    (``check_splitting``); by default it is ``split_symmetric``'s.

    The model keeps a coset table: W(r_k) for every transversal element,
    from r_i + r_k = r_j + a', as dim x dim source indices j and numerators
    m(r_i, r_k) - m(a', r_j) - c(a').  It is built with the model in blocks
    of ``BLOCK_ENTRIES // dim`` cosets and counted against ``ENTRY_BUDGET``;
    dim <= |A|, so it fits wherever the splitting does.  The block formula
    finds the coset of each row y once, y = b + r_k with b in A, and
    composes W(y) = e(-m(b, r_k)) W(b) W(r_k): row k of the table, and W(b),
    which is diagonal, e(m(r_i, b) - m(b, r_i) - c(b)) at r_i, so it only
    adds to the phases.  With a = a' + b this is the phase above by the
    cocycle identity at (r_i, r_k, b) and (r_j, a', b), the splitting
    c(a' + b) = c(a') + c(b) + m(a', b) and the bilinearity of
    m~(x, y) = m(x, y) - m(y, x) (``antisymmetrize``), which vanishes on
    A x A as c splits m there: it holds for every verified multiplier.  So
    W(b)'s phase m~(r_i, b) = sum_j b_j m~(r_i, e_j) is one product with the
    dim x rank array m~(r_i, e_j), built with the model.  A call on c rows
    runs one coset reduction, reads c(b) (``PhaseMap.nums_at``) and
    m(b, r_k), and gathers c x dim entries of the table: no grid over the
    cosets and no multiplier call per entry.  It never lists G or A x A.
    Its numerators are reduced by ``rows``; they stay below
    den (2 + sum_j (n_j - 1)) in magnitude, which must fit int64 (else
    ``InputError``).

    The law is decided when the model is built, at the dim x rank pairs
    (r_k, g), g a generator of G: W(r_k) is row k of the table, W(g) is read
    once, and W(r_k + g) comes from the formula, in blocks of pairs.  They
    decide every pair.  The formula W(b + r_k) = e(-m(b, r_k)) W(b) W(r_k),
    with W(b) diagonal and c a verified splitting, gives the law at every
    (b, y), b in A, by the cocycle identity at (b, b', r_k), y = b' + r_k;
    the identity at (b, r_k, g) carries (r_k, g) to every (b + r_k, g); and
    the identity at (x, z, g) carries every (x, g) to all pairs, the step
    Light's test takes for tables.  The rep keeps the verdict
    (``law_holds``); a failing pair raises ``DefectError`` with witness
    (r_k, g), the first in coset-then-generator order.
    """
    if m.group != G or A.ambient != G:
        raise InputError("group, multiplier and subgroup do not match")
    mt = antisymmetrize(m)
    if not is_maximal_isotropic(A, mt):
        raise PreconditionError("the inducing subgroup is not maximal isotropic "
                                "for the antisymmetrized multiplier")
    if c is None:
        c = split_symmetric(m, A)
    else:
        check_splitting(m, A, c)

    R = A.transversal_coords()
    dim, rank = R.shape
    den = lcm(m.den, c.den)
    # every numerator of the formula stays within den (2 + sum_j (n_j - 1)), see fn
    check_int64(f"the induced formula over {den}", den * (2 + sum(n - 1 for n in G.moduli)))
    moduli = np.array(G.moduli, dtype=np.int64)
    scale = den // m.den
    # (rank x dim): m~(r_i, e_j) over den at [j, i]
    MT = mt.pair_grid(R, np.eye(rank, dtype=np.int64)).T * (den // mt.den)

    # the coset table: row k is W(r_k), r_i + r_k = r_j + a', num = m(r_i, r_k) - m(a', r_j) - c(a')
    check_budget("coset table entries", dim * dim)
    TS = np.empty((dim, dim), dtype=np.intp)
    TN = np.empty((dim, dim), dtype=np.int64)
    step = max(1, BLOCK_ENTRIES // dim)
    for k0 in range(0, dim, step):
        K = np.arange(k0, min(dim, k0 + step))
        Z = (R[K][:, None, :] + R).reshape(len(K) * dim, rank) % moduli
        J = A.coset_index(Z)
        a = (Z - R[J]) % moduli
        TS[K] = J.reshape(len(K), dim)
        TN[K] = (m.pair_grid(R, R[K]).T * scale
                 - (m.pair_nums(a, R[J]) * scale + c.nums_at(a, den)).reshape(len(K), dim)) % den

    def fn(Y):
        # y = b + r_k with b in A, and W(y) = e(-m(b, r_k)) W(b) W(r_k)
        k = A.coset_index(Y)
        b = (Y - R[k]) % moduli
        # W(b) is diagonal, e(m~(r_i, b) - c(b)) at i; the scalar -m(b, r_k) joins it.
        # TN is in [0, den), the product in [0, den sum_j (n_j - 1)), the scalar in [0, 2 den)
        NUM = TN[k]
        NUM += b @ MT
        NUM -= (c.nums_at(b, den) + m.pair_nums(b, R[k]) * scale)[:, None]
        return TS[k], NUM

    rep = ProjectiveRep(G, m, dim, fn, den, label=f"induced(|A|={A.order})")
    gens = np.eye(rank, dtype=np.int64)[[i for i, n in enumerate(G.moduli) if n > 1]]
    SG, NG, _ = rep.rows(gens)
    MG = m.pair_grid(R, gens) * scale
    for p0 in range(0, dim * len(gens), step):
        k, g = np.divmod(np.arange(p0, min(dim * len(gens), p0 + step)), len(gens))
        S, N, _ = rep.rows((R[k] + gens[g]) % moduli)
        at = TS[k] + (g * dim)[:, None]     # W(r_k) W(g) reads W(g) at W(r_k)'s sources
        ok = (SG.ravel()[at] == S) & ((TN[k] + NG.ravel()[at] - N - MG[k, g][:, None]) % den == 0)
        if not ok.all():
            i = int(np.argmin(ok.all(axis=1)))
            raise DefectError("induced model violates the representation law",
                              witness=(tuple(R[k[i]].tolist()), tuple(gens[g[i]].tolist())))
    rep._law = (None,)
    return rep


# ---------------------------------------------------------------------------
# verification


def check_rep_law(W: ProjectiveRep) -> VerificationReport:
    """W(x) W(y) = e(m(x, y)) W(x + y) at every pair: W's kept verdict, else decided
    exactly at the pairs P that present C^m[G] (``_check_pairs``)."""
    rep = VerificationReport(f"representation law for {W.label}")
    _check_pairs(rep, "law", W, False)
    return rep


def commutator_scalar_check(W: ProjectiveRep) -> VerificationReport:
    """W(x) W(y) = e(m~(x, y)) W(y) W(x): the commutator is the scalar m~(x, y)."""
    rep = VerificationReport(f"commutation rule for {W.label}")
    _check_pairs(rep, "commutator", W, True)
    return rep


def _check_pairs(rep: VerificationReport, name: str, W: ProjectiveRep, swapped: bool):
    """Add check ``name``: W(x) W(y) = e(phase(x, y)) R(x, y) for all pairs x, y of G.

    For the law, R(x, y) = W(x + y) and the phase is W's multiplier m; when
    ``swapped``, for the commutator, R(x, y) = W(y) W(x) and the phase is
    m~ = ``antisymmetrize(m)``.  One kernel, ``_block_holds``, decides each
    pair exactly and measures the distance of the two sides at failing pairs.  Tiers 1
    and 2 read |G| dim entries, which bound their cost and decide which may run.
    1. W's kept verdict of the law (its builder's, or its last check's), else
       the pairs P that present C^m[G] (``_presentation_fails``), read once
       through the formula: with no further bound when |G| dim fits
       ``ENTRY_BUDGET``, else when |P|, counted as presentation pairs, does
       (else ``ResourceLimitError``).  W keeps the verdict.  Witness: the first
       failing pair of P.  A law that holds decides the commutator too, as then
       W(x) W(y) = e(m(x, y)) W(x + y) = e(m~(x, y)) W(y) W(x).
    2. The commutator of a rep whose law fails, when |G| dim fits the budget
       and |G|^2 does not: the pairs (x, g), g a generator, x in rank order.
       Witness: the first failing (x, g), g in generator order.
    3. Otherwise all |G|^2 pairs, each x against every y, within the budget
       (else ``ResourceLimitError``).  Witness: the worst failing pair.
    Every tier fails on any pair that ``_block_holds`` rejects, however close
    its float distance.
    """
    G = W.group
    n = G.order
    small = n * W.dim <= ENTRY_BUDGET
    if W._law is None:
        if not small:
            runs = [n_l * w for n_l, w in zip(G.moduli, G._weights) if n_l > 1]    # n_1 ... n_l
            check_budget("presentation pairs", sum(runs) + len(runs) * (len(runs) - 1) // 2)
        W._law = (_presentation_fails(W),)
    fail, = W._law
    bad, dist = [], []      # the failing pairs, as ranks, and their distances
    if fail is not None and not swapped:
        bad, dist = [fail[:2]], [fail[2]]
    elif fail is not None:
        phase = antisymmetrize(W.multiplier)
        X = G.coords_array()
        if small and n * n > ENTRY_BUDGET:
            for g in G.generators():
                ok, gdist = _pairs_hold(W, phase, True, X, X[g.rank:g.rank + 1])
                if not ok.all():
                    x = int(np.argmin(ok))
                    bad, dist = [(x, g.rank)], [gdist[x]]
                    break
        if not bad:
            check_budget("commutator pairs", n * n)
            # each x against every y, in rank order
            idx = np.stack(np.divmod(np.arange(n * n, dtype=np.int64), n), axis=1)
            ok, dist = map(np.concatenate,
                           zip(*[_pairs_hold(W, phase, True, X[x:x + 1], X) for x in range(n)]))
            bad, dist = idx[~ok], dist[~ok]
    worst, witness = 0.0, None
    if len(bad):
        k = int(np.argmax(dist))
        worst, witness = float(dist[k]), tuple(G.element_by_rank(int(r)).coords for r in bad[k])
    rep.add(name, witness is None, residual=worst, witness=witness,
            note=f"exhaustive over {n}^2 pairs")


def _presentation_fails(W: ProjectiveRep):
    """The first pair of P, in P's order, at which W's rows break
    W(x) W(y) = e(m(x, y)) W(x + y), m W's multiplier: ranks (x, g_l), g_l a
    generator, and the distance of the two sides there (``_block_holds``).
    None when every pair of P holds, and then so does the law.

    P holds the prefix pairs (y, g_l), y_{l+1} = ... = y_r = 0, for each generator g_l
    (n_l > 1; a factor of modulus 1 has none), and the commutation pairs (g_j, g_i), j > i:
    sum_l n_1 ... n_l + r(r - 1)/2 pairs; a group with no generator has the one pair (0, 0).
    The first coordinate has weight 1, so the y of the prefix pairs are the ranks below
    n_1 ... n_l: n_l layers y_l = 0 .. n_l - 1 of w_l ranks, w_l the rank of g_l, and
    y + g_l is y one layer up, the top layer wrapping to 0.  W is read once at each run, a
    column block at a time, in tiles of at most max(1, BLOCK_ENTRIES // dim) ranks: a
    tile's y + g_l are its rows past its first layer and the next tile's first.
    Why P decides the law, with U_l = W(g_l):
    * P decides W(0) = 1: m is normalized, so its first pair (0, g_1) holds only when
      W(0) U_1 = U_1, and with no generator (0, 0) gives W(0)^2 = W(0).
    * The prefix pairs give W(y + g_l) = e(-m(y, g_l)) W(y) U_l, so by
      induction on the top coordinate W(x) = e(psi(x)) U_1^{x_1} ... U_r^{x_r},
      with psi read off m alone.  The pairs with y_l = n_l - 1 then give the
      power relations U_l^{n_l} = scalar.
    * The commutation pair (g_j, g_i) with the prefix pair (g_i, g_j) gives
      U_j U_i = e(m(g_j, g_i) - m(g_i, g_j)) U_i U_j.
    * The same identities hold for the basis [x] of C^m[G], whose product is
      [x][y] = e(m(x, y)) [x + y], so its [g_l] obey the same relations with
      the same scalars.  The algebra these relations present is spanned by
      the ordered monomials, so its dimension is at most |G|, and it maps
      onto C^m[G], of dimension |G| as m is a cocycle: they present C^m[G].
      So [g_l] -> U_l is a homomorphism, it sends [x] = e(psi(x)) [g_1]^{x_1}
      ... [g_r]^{x_r} to W(x), and the law holds at every pair.
    """
    G = W.group
    gens = [(n, w) for n, w in zip(G.moduli, G._weights) if n > 1]    # order and rank of g_l
    if not gens:
        ok, dist = _pairs_hold(W, W.multiplier, False, G.coords_range(0, 1), G.coords_range(0, 1))
        return None if ok[0] else (0, 0, float(dist[0]))
    units = G.coords_at(np.array([w for _, w in gens], dtype=np.int64))
    SU, NU, _ = W.rows(units)
    step = max(1, BLOCK_ENTRIES // W.dim)
    read = lambda lo, hi: W.rows(G.coords_range(lo, hi))[:2]
    for l, (n, w) in enumerate(gens):
        fail, bw = None, min(w, step)   # the first failing (rank of y, distance) of the run
        for o in range(0, w, bw):
            k, h = min(bw, w - o), step // bw      # a tile: h layers of the k columns from o
            tiles = [(c * w + o, (min(n, c + h) - 1) * w + o + k) for c in range(0, n, h)]
            rows = first = read(*tiles[0])
            for t, (lo, hi) in enumerate(tiles):
                after = read(*tiles[t + 1]) if t + 1 < len(tiles) else first
                up = tuple(np.concatenate([a[k:], b[:k]]) for a, b in zip(rows, after))
                ok, dist = _block_holds(W, W.multiplier, G.coords_range(lo, hi), units[l:l + 1],
                                        rows, (SU[l:l + 1], NU[l:l + 1]), up)
                if not ok.all():
                    y = lo + int(np.argmin(ok)), float(dist[np.argmin(ok)])
                    fail = min(fail or y, y)
                    break
                rows = after
        if fail:
            return fail[0], w, fail[1]
    if len(gens) > 1:
        j, i = zip(*[(j, i) for j in range(len(gens)) for i in range(j)])
        ok, dist = _pairs_hold(W, W.multiplier, False, units[list(j)], units[list(i)])
        if not ok.all():
            k = int(np.argmin(ok))
            return gens[j[k]][1], gens[i[k]][1], float(dist[k])
    return None


def _quadratic_law(n, m: Multiplier, t, A, B, Q, den: int) -> bool:
    """Whether the data of ``ProjectiveRep.from_quadratic`` on G = (+) Z/n_i, reduced lists of
    Python ints, prove W(x) W(y) = e(m(x, y)) W(x + y) at every pair, on r x r data.

    They do when m is a bicharacter whose matrix is M / den, M = A^T B - Q - Q^T, at every
    pair of generator coordinates, and (1) n_i A[:, i] = 0 mod t, (2) t_j B[j, :] = 0,
    (3) n_i B[:, i] = 0 and (5) n_i^2 Q_ii = 0 mod den.  Then (4) n_i (Q + Q^T)_ij = 0 mod den
    at generator coordinates too: n_i (A^T B)_ij = 0 by (1) and (2), and n_i M_ij = 0 as m is
    well defined.  Write x + y = z + n c, z reduced with carries c (0 where n_i = 1), and
    s + A x = s' + t k, s' reduced: W(x) reads f at s', W(x) W(y) at s' + A y, and W(z) at
    s + A x + A y - A n c, the same point by (1).  The phases differ by NUM(s, x) + NUM(s', y)
    - NUM(s, z) = x^T M y - (t k)^T B y + s^T B (n c) + (n c)^T (Q + Q^T)(x + y)
    - (n c)^T Q (n c).  (2) kills the second term, (3) the third, (4) the fourth, and (4)
    with (5) the last, a sum of n_i^2 c_i^2 Q_ii and n_i n_j c_i c_j (Q_ij + Q_ji), i < j.  So
    the difference is x^T M y / den = m(x, y).  The conditions are sufficient, not
    necessary: if one fails, ``check_rep_law`` decides.
    """
    form = m.bichar
    if form is None:
        return False
    C, cden, ax = form._cnum.tolist(), form.den, [i for i, ni in enumerate(n) if ni > 1]
    At, Bt = ([[row[i] for row in M] for i in range(len(n))] for M in (A, B))     # columns
    return (all(((sum(map(mul, At[i], Bt[j])) - Q[i][j] - Q[j][i]) * cden - C[i][j] * den)
                % (den * cden) == 0 for i in ax for j in ax)
            and not any([ni * a % tj for row, tj in zip(A, t) for a, ni in zip(row, n)]
                        + [tj * v % den for row, tj in zip(B, t) for v in row]
                        + [ni * v % den for row in B for v, ni in zip(row, n)]
                        + [ni * ni * Q[i][i] % den for i, ni in enumerate(n)]))


def _pairs_hold(W: ProjectiveRep, phase: Multiplier, swapped: bool, X: np.ndarray,
                Y: np.ndarray):
    """(holds, dist) over the pairs (X[i], Y[i]) of coordinate rows: where the identity of
    ``_check_pairs`` holds exactly, and where it fails the distance of its two sides as
    ``Operator.distance_to`` measures it (0.0 elsewhere); either side may be one row,
    paired with every row of the other.  Rows are read max(1, BLOCK_ENTRIES // dim) pairs
    at a time, each side by one ``W.rows`` call, and each block is decided by ``_block_holds``.
    """
    moduli = np.array(W.group.moduli, dtype=np.int64)
    read = lambda Z: W.rows(Z)[:2]
    c = max(len(X), len(Y))
    step = max(1, BLOCK_ENTRIES // W.dim)
    holds, dist = np.empty(c, dtype=bool), np.zeros(c)
    for start in range(0, c, step):
        Xb, Yb = (Z if len(Z) == 1 else Z[start:start + step] for Z in (X, Y))
        holds[start:start + step], dist[start:start + step] = _block_holds(
            W, phase, Xb, Yb, read(Xb), read(Yb), None if swapped else read((Xb + Yb) % moduli))
    return holds, dist


def _block_holds(W: ProjectiveRep, phase: Multiplier, Xb, Yb, x, y, right):
    """(holds, dist) at the pairs (Xb[i], Yb[i]), either side possibly one row, from W's rows
    x = (SRC, NUM) at Xb and y at Yb and the rows ``right`` of R(x, y) (None: W(y) W(x)), as
    ``_pairs_hold`` defines them.  Each product is one row-wise gather; a single row is never
    copied to the other side's length.  The block is decided by one test of all its entries,
    and read row by row only when some pair in it fails.
    """
    def gather(A, I):
        # row-wise A[k][I[k]]; a single row is read with one 1-D gather, not broadcast
        if len(A) == 1:
            return A[0][I]
        return A[:, I[0]] if len(I) == 1 else np.take_along_axis(A, I, 1)

    def compose(S1, N1, S2, N2):
        # the rows of W1 W2: (W1 W2 f)[i] = e(N1[i] + N2[S1[i]]) f[S2[S1[i]]]
        return gather(S2, S1), N1 + gather(N2, S1)

    d = lcm(W.den, phase.den)
    # every numerator read is reduced mod W.den, so num1 below lies in (-3d, 2d) and the right
    # side num2 (d // W.den) + p read at failing pairs in [0, 3d)
    check_int64(f"a law numerator over {d}", 3 * d)
    src1, num1 = compose(*x, *y)
    src2, num2 = compose(*y, *x) if right is None else right
    p = (phase.pair_nums(Xb, Yb) * (d // phase.den))[:, None]
    num1 -= num2
    num1 *= d // W.den
    num1 -= p
    # num1 is 0 mod d exactly when it is one of -2d, -d, 0 and d, which is cheaper to test
    # than the remainder
    ok = src1 == src2
    ok &= (num1 == 0) | (num1 == d) | (num1 == -d) | (num1 == -2 * d)
    if ok.all():
        return np.ones(len(ok), dtype=bool), np.zeros(len(ok))
    ok, dist = ok.all(axis=1), np.zeros(len(ok))
    # e(phase) R(x, y) over d, and W(x) W(y) back over W.den, as the operators hold them
    f = ~ok
    rhs = num2[f] * (d // W.den) + p[f]
    a = np.exp(2j * np.pi * ((num1[f] + rhs) // (d // W.den) % W.den) / W.den)
    b = np.exp(2j * np.pi * (rhs % d) / d)
    dist[f] = np.where(src1[f] == src2[f], np.abs(a - b),
                       np.maximum(np.abs(a), np.abs(b))).max(axis=1)
    return ok, dist


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
    pot[p].  Witnesses are points p written as divmod(p, width).  Each c is
    reduced, so a sum of two potentials stays below 2 (max mods - 1), which
    int64 arrays must hold (else ``InputError``).
    """
    top = int(np.max(mods))
    check_int64(f"a path potential modulo {top}", 2 * (top - 1))
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


def _character_walk(rows, orders):
    """``_orbit_walk`` of the carrier indices under the monomial rows (SRC, NUM, den) at
    the generators h_k of (+) Z/d_k, ``orders`` the d_k: the potential columns are the phase
    over den, then the path's steps along each h_k, as ``_orbit_characters`` reads them."""
    SRC, NUM, den = rows
    n, r = SRC.shape[1], len(orders)
    unit = np.eye(r, dtype=np.int64)
    edges = [(SRC[k], np.column_stack([NUM[k], np.broadcast_to(unit[k], (n, r))]))
             for k in range(r)]
    return _orbit_walk(n, orders, edges, [den, *orders])


def _orbit_characters(rows, orders, roots, pot):
    """(orbit, U): every character u of L on every orbit, as rows of U with their orbit's
    position in ``roots``, from the walk's potentials ``pot`` (phase over den, then the
    path's element of L), as ``_character_walk`` gives them.

    The stabilizer of the orbit of R is generated by g_k = h_k + a_s, s the
    index that W(h_k) reads at R, and acts at R by psi(g_k) = NUM_k[R] + P(s).
    g_k is triangular: its k-th entry is the length l_k of h_k's cycle on the
    orbits of h_1..h_{k-1}, and l_k divides d_k.  The span of the orbit is
    Ind_St^L psi, so the characters on it are the |O| = prod l_k extensions
    of psi to L, each once (Frobenius reciprocity).  They are solved one
    generator at a time: l_k u_k / d_k = psi(g_k) - sum_{j<k} g_kj u_j / d_j
    has l_k solutions u_k, so the rows grow to sum |O| = n.  The rows must be
    a representation of L (``_relation_scalars``, every scalar 0) for psi to
    be a character.  Over D = lcm(den, d_k), the sum for tau lies in
    (-D sum_{j<k} (d_j - 1), 2D), which int64 arrays must hold (else
    ``InputError``).
    """
    SRC, NUM, den = rows
    d = np.array(orders, dtype=np.int64)
    D = lcm(den, *orders)
    check_int64(f"a character numerator sum over {D}", D * max(2, sum(n - 1 for n in orders[:-1])))
    orbit, U = np.arange(len(roots)), np.zeros((len(roots), 0), dtype=np.int64)
    for k in range(len(d)):
        s = SRC[k][roots]
        g = pot[s, 1:]
        g[:, k] += 1                # a_s[k] = l_k - 1 < d_k steps, so g_kk = l_k
        ell = g[orbit, k]
        tau = ((NUM[k][roots] + pot[s, 0])[orbit] * (D // den)
               - (g[orbit, :k] * U * (D // d[:k])).sum(axis=1)) % D
        base = tau // (D // d[k]) // ell
        start = np.repeat(np.cumsum(ell) - ell, ell)
        t = np.arange(len(start)) - start
        U = np.column_stack([np.repeat(U, ell, axis=0),
                             np.repeat(base, ell) + t * np.repeat(d[k] // ell, ell)])
        orbit = np.repeat(orbit, ell)
    return orbit, U


def _row_powers(S, N, e, den):
    """The rows (src, num) of A_k^{e_k} for the monomial rows A_k = (S[k], N[k]) and the
    exponents e_k >= 0, each by squaring."""
    n = S.shape[1]
    PS, PN = np.empty_like(S), np.empty_like(N)
    for k, ek in enumerate(np.asarray(e).tolist()):
        src, num, bs, bn = np.arange(n), np.zeros(n, dtype=np.int64), S[k], N[k]
        while ek:
            if ek & 1:
                src, num = bs[src], (num + bn[src]) % den
            bs, bn, ek = bs[bs], (bn + bn[bs]) % den, ek >> 1
        PS[k], PN[k] = src, num
    return PS, PN


def _relation_scalars(rows, orders):
    """The generator relations of the monomial rows (SRC, NUM, den) at h_1..h_s, of orders
    d_k, up to scalars: W(h_k)^d_k = e(c_kk / den) and W(h_k) W(h_l) = e(c_kl / den) W(h_l) W(h_k).

    Returns ``(c, witness)``: c the (s x s) numerators, diagonal and lower
    triangle, and witness None when every relation holds with a scalar; else
    (k, l, i), the first relation in generator order (l = k for the power,
    then l < k for the commutators) and the first carrier index i where its
    two sides differ by more than a scalar.  The rows are a representation
    of (+) Z/d_k exactly when the witness is None and c is 0.  The products
    are read for a block of generators k at a time, each against every l.
    """
    SRC, NUM, den = rows
    s, n = SRC.shape
    one = np.arange(n)
    PS, PN = _row_powers(SRC, NUM, orders, den)
    c = np.zeros((s, s), dtype=np.int64)
    step = max(1, BLOCK_ENTRIES // max(1, s * n))
    for k0 in range(0, s, step):
        K = slice(k0, min(s, k0 + step))
        # [k, l, i]: W(h_k) W(h_l) against W(h_l) W(h_k), in column 1 + l; the power in column 0
        N = NUM[K][:, None] + NUM[:, SRC[K]].swapaxes(0, 1) - NUM[None] - NUM[K][:, SRC]
        N = np.concatenate([PN[K][:, None], N % den], axis=1)
        bad = np.concatenate([(PS[K] != one)[:, None], SRC[:, SRC[K]].swapaxes(0, 1) != SRC[K][:, SRC]],
                             axis=1)
        bad |= N != N[:, :, :1]
        bad[:, 1:] &= (np.arange(s) < np.arange(k0, K.stop)[:, None])[:, :, None]
        if bad.any():
            k, j, i = np.argwhere(bad)[0].tolist()
            return c, (k0 + k, k0 + k if j == 0 else j - 1, i)
        c[K] = N[:, 1:, 0]
        c[np.arange(k0, K.stop), np.arange(k0, K.stop)] = PN[K, 0]
    return np.tril(c), None


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
    """Complex dimension of {X : X W(g) = W(g) X for every g in G}, counted from W's rows at
    the generators g_i of G (orders n_i) by Stone-von Neumann over the radical.

    The count rests on the generator relations, checked exactly by
    ``_relation_scalars``: W(g_i) W(g_j) = e(c_ij) W(g_j) W(g_i) and
    W(g_i)^{n_i} = e(c_ii) with every c a scalar; else ``DefectError`` with
    witness (i, j, carrier index), j = i for the power.  They hold exactly
    when x |-> prod_i W(g_i)^{x_i} is a projective representation of G, which
    has W's commutant on the generators; neither W's multiplier nor its law
    is read.  Its commutator form b(g_i, g_j) = c_ij has a radical R, and the
    rescaled W(r_k) at R's generators r_k of order d_k, W(r_k)^{d_k} = 1,
    give the eigenspaces H_psi of W(R).  Each H_psi is r = sqrt[G:R] copies
    of the one irreducible with central character psi, so the dimension is
    sum_psi (dim H_psi / r)^2, which is (n / r)^2 when R = 0.  ``DefectError``
    when [G:R] is not a square or r does not divide some dim H_psi.
    """
    G = W.group
    axes = [i for i, n in enumerate(G.moduli) if n > 1]
    rows = W.rows(G.generators())
    SRC, NUM, den = rows
    c, witness = _relation_scalars(rows, [G.moduli[i] for i in axes])
    if witness is not None:
        raise DefectError("W at the generators of G is not a projective representation: "
                          "a generator power or commutator is not a scalar", witness=witness)
    # the radical of b(g_i, g_j) = c_ij / den, as ``Bicharacter.radical`` solves it
    B = np.zeros((G.rank, G.rank), dtype=np.int64)
    B[np.ix_(axes, axes)] = np.tril(c, -1) - np.tril(c, -1).T
    R = congruence_solution_subgroup(G, B.tolist(), den)
    r = isqrt(R.index)
    if r * r != R.index:
        raise DefectError(f"the radical of the commutator form has index {R.index}, not a square")
    dims = np.array([W.dim])
    if R.order > 1:
        hs, ds = R.decomposition()
        # W(h_j) = W(g_1)^{H_j1} ... W(g_s)^{H_js}, the powers in one pass, then the products
        H = np.array([[h.coords[a] for a in axes] for h in hs], dtype=np.int64)
        J, K = np.nonzero(H)
        PS, PN = _row_powers(SRC[K], NUM[K], H[J, K], den)
        S = np.tile(np.arange(W.dim), (len(hs), 1))
        N = np.zeros_like(S, dtype=np.int64)
        for q, j in enumerate(J.tolist()):
            S[j], N[j] = PS[q][S[j]], (N[j] + PN[q][S[j]]) % den
        # over den E, divided by a d-th root of the scalar W(h)^d, so that W(h)^d = 1
        E = lcm(*ds)
        check_int64(f"a radical row numerator over {den} * {E}", den * E)
        lam = _row_powers(S, N, ds, den)[1][:, :1]
        rowsR = (S, (N * E - lam * (E // np.array(ds)[:, None])) % (den * E), den * E)
        label, pot = _character_walk(rowsR, ds)
        _, U = _orbit_characters(rowsR, ds, np.flatnonzero(label == np.arange(W.dim)), pot)
        dims = np.bincount(FinAbGroup(ds).ranks_of(U))
    if (dims % r).any():
        raise DefectError(f"an eigenspace of W on the radical has a dimension not divisible by {r}")
    return int(((dims // r) ** 2).sum())


def _same_multiplier(m1: Multiplier, m2: Multiplier) -> bool:
    """m1 = m2 exactly: as forms when both are bilinear, else on their tables."""
    if m1.bichar is not None and m2.bichar is not None:
        return m1 == m2
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
    multiplier the space is one-dimensional, spanned by T; then ``normalized``
    is T / sqrt(|support| / min(n1, n2)), and ``unitary_defect`` is 0.0 when it
    is unitary and None otherwise, decided by Schur's lemma with no float
    product.  T W1(g) = W2(g) T at the generators, with W1 and W2 unitary,
    gives T*T W1(g) = W1(g) T*T.  So when ``commutant_d(W1)`` = 1,
    T*T = c 1 with c = trace(T*T) / n1 = |support| / n1 (T's entries have
    modulus 1 on its support), and the normalized T is unitary exactly when
    n1 = n2.  When n1 = n2 and W1's commutant is larger, T is not invertible:
    else X |-> T X would embed that commutant in the one-dimensional space.
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
        out["normalized"] = T / np.sqrt(support.sum() / min(n1, n2))
        out["unitary_defect"] = 0.0 if n1 == n2 and commutant_d(W1) == 1 else None
    return out
