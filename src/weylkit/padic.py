"""Finite-precision windows of p-adic phase space.

The window at precision k identifies p^{-k}Z_p / p^k Z_p with Z/p^{2k}: the
residue u stands for the rational u * p^{-k}.  The basic character chi_p is
trivial on Z_p and evaluates on window products as chi_p(u p^-k * v p^-k) =
u v / p^{2k} in Q/Z, so all the phase-space formulas descend to the window
with no convention slack: changing the residue representative shifts the
argument by an element of Z_p where chi_p vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .errors import InputError
from .groups import FinAbGroup, _require_prime, subgroup_span
from .isotropy import polar
from .models import DEFAULT_TOL, ProjectiveRep, commutant_d
from .multipliers import Bicharacter, TableMultiplier, is_heisenberg, split_symmetric
from .phases import Phase, ZERO
from .reports import VerificationReport
from .vacuum import DescendedRep, clifford_basis, descend, sectors

SECTOR_DIMS_LISTED = 128   # vacuum_profile lists the sector dimensions of at most this many cosets


@dataclass
class PAdicWindow:
    """The symplectic phase-space window (p^{-k}Z_p/p^k Z_p)^{2d}.

    ``group`` is (Z/p^{2k})^{2d} with the first d coordinates the position
    block and the last d the momentum block; ``L`` is the image of
    (Z_p)^{2d}, i.e. the p^k-multiples; ``m`` is the symplectic form
    chi_p(x1.y2 - x2.y1).
    """

    p: int
    k: int
    d: int
    group: FinAbGroup
    L: Subgroup
    m: Bicharacter
    point_group: FinAbGroup   # the s-window (Z/p^{2k})^d carrying the model

    @property
    def modulus(self) -> int:
        return self.p ** (2 * self.k)

    def __repr__(self):
        return f"PAdicWindow(p={self.p}, k={self.k}, d={self.d})"


def window_group(p: int, k: int, d: int) -> PAdicWindow:
    """Build the window and verify its structure exactly.

    Checks at construction: |L|^2 = |G|, and L equals its own polar for the
    symplectic form.
    """
    _require_prime(p)
    if k < 1 or d < 1:
        raise InputError("need k >= 1 and d >= 1")
    q = p ** (2 * k)
    G = FinAbGroup([q] * (2 * d))
    ph = Phase(1, q)
    mat = [[ZERO] * (2 * d) for _ in range(2 * d)]
    for i in range(d):
        mat[i][d + i] = ph
        mat[d + i][i] = -ph
    m = Bicharacter(G, mat)
    pk = p ** k
    L = subgroup_span(G, [pk * g for g in G.generators()])
    if L.order ** 2 != G.order:
        raise InputError("window subgroup has the wrong order")
    if polar(L, m) != L:
        raise InputError("window subgroup is not maximal isotropic")
    point = FinAbGroup([q] * d)
    return PAdicWindow(p, k, d, G, L, m, point)


def window_weyl(w: PAdicWindow) -> ProjectiveRep:
    """Weyl operators (W(y) f)(s) = chi_p(2 s.y2 + y1.y2) f(s + y1) on the s-window.

    The operators are monomial with denominator q = p^{2k}; the multiplier is
    the window symplectic form, verified by the representation-law check.
    Numerators stay below 3 d q^2, far inside int64 for an operator row of
    q^d <= ENTRY_BUDGET entries.
    """
    q = w.modulus
    d = w.d
    pt = w.point_group
    dim = pt.order
    S = pt.coords_array()

    def fn(Y):
        Y1, Y2 = Y[:, :d], Y[:, d:]
        SRC = np.zeros((len(Y), dim), dtype=np.int64)
        NUM = np.zeros((len(Y), dim), dtype=np.int64)
        NUM += (Y1 * Y2).sum(axis=1)[:, None]
        for j in range(d):
            SRC += ((S[:, j] + Y1[:, j, None]) % q) * pt._weights[j]
            NUM += 2 * Y2[:, j, None] * S[:, j]
        return SRC, NUM % q

    return ProjectiveRep(w.group, w.m, dim, fn, q, label=f"window(p={w.p},k={w.k},d={w.d})")


def vacuum_profile(w: PAdicWindow, tol: float = DEFAULT_TOL) -> dict:
    """Run the whole vacuum pipeline on a window and collect the findings.

    For p odd the vacuum is a line and every sector is one-dimensional; for
    p = 2 the vacuum has dimension 2^d, the descended group has order 2^{2d},
    the Clifford generators anticommute within tolerance, the descended
    antisymmetrization matches chi(b1.a2 - b2.a1) under the canonical
    identification of (L/2)/L with F_2^d x F_2^d, and m0 equals chi(b1.a2)
    up to an explicit twist.  ``sector_dims`` maps each coset of L to its
    sector's dimension when the sectors are labeled by cosets and there are
    at most ``SECTOR_DIMS_LISTED`` cosets, and is None otherwise.
    """
    report = VerificationReport(f"vacuum profile {w!r}")
    out = {"p": w.p, "k": w.k, "d": w.d, "report": report}
    W = window_weyl(w)
    out["model"] = W
    out["dim"] = W.dim
    heis = is_heisenberg(w.m)
    out["is_heisenberg"] = heis
    report.add("is_heisenberg matches parity", heis == (w.p != 2),
               note=f"is_heisenberg={heis}, p={w.p}")

    # for p = 2 the descent decomposes W|_L; its checks are reported below
    D = descend(W, w.L, tol) if w.p == 2 else None
    S = D.sectors if D is not None else sectors(W, w.L)
    out["vacuum_dim"] = S.vacuum_dim
    out["sector_dims"] = {str(k_): v for k_, v in sorted(S.coset_dims().items())} \
        if w.group.order // w.L.order <= SECTOR_DIMS_LISTED and S.labeled else None

    if w.p != 2:
        report.add("vacuum is a line", S.vacuum_dim == 1)
        report.add("all sectors one-dimensional", all(v == 1 for v in S.dims.values()))
        out["v2_order"] = 1
        return out

    report.add("vacuum dimension = 2^d", S.vacuum_dim == 2 ** w.d,
               note=f"dim H^L = {S.vacuum_dim}")
    out["descended"] = D
    out["v2_order"] = D.v2.order
    report.add("|V2| = 2^(2d)", D.v2.order == 4 ** w.d)
    report.extend(D.report)

    C = clifford_basis(D)
    out["clifford"] = C
    out["clifford_residual_max"] = C.max_residual
    out["clifford_gram"] = C.gram
    out["section"] = D.section_coords
    report.add("clifford residual", C.max_residual <= tol, residual=C.max_residual,
               tolerance=tol)
    report.add("clifford commutant is scalar", C.commutant_dim == 1,
               note=f"dim={C.commutant_dim}")

    # canonical identification with F_2^d x F_2^d: generators are the classes
    # of 2^{k-1} e_i; the descended form must be chi(b1.a2 - b2.a1) exactly
    V2 = D.v2
    p_half = w.p ** (w.k - 1)
    units = p_half * np.eye(2 * w.d, dtype=np.int64)
    proj = [V2.element(c) for c in D.quotient.project_coords(units).tolist()]
    ok = True
    witness = None
    for i in range(2 * w.d):
        for j in range(2 * w.d):
            expected = Phase(1, 2) if abs(i - j) == w.d else ZERO
            if D.n(proj[i], proj[j]) != expected:
                ok = False
                witness = (i, j)
    report.add("descended m~ equals chi(b1.a2 - b2.a1)", ok, witness=witness)

    # m0 against chi(b1 . a2) over the canonical generators: the difference
    # is symmetric and is split exactly by an explicit twist a, so that
    # m0(v, u) = chi(b1 . a2) + a(v + u) - a(v) - a(u)
    F = FinAbGroup([2] * (2 * w.d)).coords_array()
    T = np.zeros_like(F)
    T[D.quotient.project_coords(p_half * F) @ np.array(V2._weights, dtype=np.int64)] = F
    den = lcm(D.m0.den, 2)
    lit = (T[:, w.d:] @ T[:, :w.d].T) % 2     # b1 . a2 for v = (a1, b1), u = (a2, b2)
    diff = (D.m0.num * (den // D.m0.den) - lit * (den // 2)) % den
    out["m0_literal_match"] = not diff.any()
    asym = np.argwhere(diff != diff.T)
    witness = None
    if asym.size:
        witness = tuple(V2.coords_of(int(r)) for r in asym[0])
    else:
        split_symmetric(TableMultiplier(V2, den, diff))     # re-verifies its residual exactly
    report.add("m0 equals chi(b1.a2) up to an explicit twist", witness is None,
               witness=witness, note="exact table match" if out["m0_literal_match"]
               else "twist from split_symmetric, verified exactly")
    return out


def window_reducibility_check(D: DescendedRep) -> VerificationReport:
    """For p = 2: the full window model is reducible, its descended action is not.

    ``D`` is the descent of a window model, as ``vacuum_profile`` returns it.
    Both counts are ``commutant_d``'s, from the generator relations of
    ``D.source`` and of ``D.rep0``, which it checks; the latter is
    ``D.commutant_dim``, counted once per descent.  The window's is 2^d:
    the radical of its commutator form, the 2^{2k-1}-multiples of G, has 2^d
    eigenspaces of dimension r = 2^{d(2k-1)}.  The descended action's is 1.
    """
    if D.v2.order == 1:
        raise InputError("reducibility split is a p = 2 phenomenon")
    rep = VerificationReport(f"reducibility split {D.source.label}")
    cd = commutant_d(D.source)
    rep.add("window model reducible", cd > 1, note=f"commutant={cd}")
    cd0 = D.commutant_dim
    rep.add("descended vacuum action irreducible", cd0 == 1, note=f"commutant={cd0}")
    return rep
