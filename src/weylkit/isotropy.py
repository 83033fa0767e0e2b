"""Polars, isotropic subgroups, maximality, and the polar relation for m~.

Polars against a bicharacter are computed by integer linear algebra on the
form matrix; for table multipliers the defining condition is read off one
``pair_grid`` over the (necessarily small) group.  Enumeration doubles as a
cross-check oracle in the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import DefectError, InputError, PreconditionError, check_budget
from .groups import Subgroup, congruence_solution_subgroup, double_preimage, subgroup_span
from .multipliers import antisymmetrize


def polar(A: Subgroup, m) -> Subgroup:
    """A'_m = {x in G : m(x, a) = 0 for all a in A}.

    Against a bicharacter it is solved once per subgroup and kept on the form,
    keyed by A (which compares by its lattice), as ``antisymmetrize`` keeps m~.
    """
    G = A.ambient
    if m.group != G:
        raise InputError("multiplier and subgroup live in different groups")
    form = m.bichar
    if form is not None:
        P = form._polars.get(A)
        if P is None:
            # row j: the numerators of m(x, h_j) = x . C h_j, h_j column j of A's lattice basis
            H = np.array(A.basis, dtype=np.int64).reshape(G.rank, G.rank)
            P = form._polars[A] = congruence_solution_subgroup(
                G, (form._cnum @ H).T.tolist(), form.den)
        return P
    # table backing (|G|^2 within ENTRY_BUDGET): the defining condition on one pair grid
    members = np.flatnonzero(~m.pair_grid(G.coords_array(), A.coords_array()).any(axis=1))
    return subgroup_span(G, [G.element_by_rank(int(i)) for i in members])


def is_isotropic(A: Subgroup, m) -> bool:
    """m vanishes on A x A."""
    form = m.bichar
    if form is not None:
        B = np.array(A.basis, dtype=np.int64).reshape(A.ambient.rank, A.ambient.rank)
        return not ((B.T @ form._cnum @ B) % form.den).any()
    X = A.coords_array()
    return not m.pair_grid(X, X).any()


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
