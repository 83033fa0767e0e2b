"""Polars, isotropic subgroups, maximality, and the polar relation for m~.

Polars against a bicharacter are computed by integer linear algebra on the
form matrix; for table multipliers the defining condition is scanned over the
(necessarily small) group.  Enumeration doubles as a cross-check oracle in the
test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import DefectError, InputError, PreconditionError, check_budget
from .groups import Subgroup, double_preimage, subgroup_span
from .multipliers import antisymmetrize, congruence_solution_subgroup


def polar(A: Subgroup, m) -> Subgroup:
    """A'_m = {x in G : m(x, a) = 0 for all a in A}."""
    G = A.ambient
    if m.group != G:
        raise InputError("multiplier and subgroup live in different groups")
    form = m.bichar
    if form is not None:
        r = G.rank
        H = A.basis
        C = form._cnum
        rows = []
        for j in range(r):
            h = np.array([H[i][j] for i in range(r)], dtype=np.int64)
            rows.append(list(map(int, C @ h)))
        return congruence_solution_subgroup(G, rows, form.den)
    # table backing (|G|^2 within ENTRY_BUDGET): scan the defining condition
    members = [x for x in G.elements() if all(not m(x, a) for a in A.elements())]
    return subgroup_span(G, members)


def is_isotropic(A: Subgroup, m) -> bool:
    """m vanishes on A x A."""
    form = m.bichar
    if form is not None:
        H = A.basis
        r = A.ambient.rank
        C = form._cnum
        den = form.den
        B = np.array(H, dtype=np.int64) if r else np.zeros((0, 0), dtype=np.int64)
        return not ((B.T @ C @ B) % den).any()
    return all(not m(a, b) for a in A.elements() for b in A.elements())


def is_maximal_isotropic(A: Subgroup, m) -> bool:
    """A is maximal isotropic iff it equals its own polar."""
    return polar(A, m) == A


def extend_maximal(A: Subgroup, m) -> Subgroup:
    """Grow an isotropic subgroup to a maximal one.

    Deterministic greedy: scan group elements in rank order, adjoin the first
    element keeping the span isotropic, restart; stop when the subgroup equals
    its polar.
    """
    G = A.ambient
    if not is_isotropic(A, m):
        raise PreconditionError("seed subgroup is not isotropic")
    check_budget("group order", G.order)
    current = A
    while True:
        extended = False
        for x in G.elements():
            if current.contains(x):
                continue
            cand = subgroup_span(G, list(current.generators) + [x])
            if is_isotropic(cand, m):
                current = cand
                extended = True
                break
        if not extended:
            break
    if polar(current, m) != current:
        raise DefectError("greedy extension stopped at a non-maximal subgroup")
    return current


def polar_tilde(A: Subgroup, m) -> tuple[Subgroup, Subgroup]:
    """Evaluate the identity A'_{m~} = (1/2) A'_m for alternating m.

    Returns (polar of A under m~, double preimage of the polar of A under m);
    the two must coincide, and a mismatch is a defect reported with a witness.
    """
    if m.bichar is None or not m.bichar.is_alternating:
        raise PreconditionError("the polar relation needs an alternating bicharacter")
    G = A.ambient
    lhs = polar(A, antisymmetrize(m))
    rhs = double_preimage(G, polar(A, m))
    if lhs != rhs:
        witness = next(
            (g.coords for g in lhs.generators if not rhs.contains(g)),
            next((g.coords for g in rhs.generators if not lhs.contains(g)), None))
        raise DefectError("polar relation fails", witness=witness)
    return lhs, rhs
