import random
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weylkit.errors import ENTRY_BUDGET, InputError, ResourceLimitError, UnsupportedOperationError
from weylkit.groups import (
    FinAbGroup,
    _box_reduce,
    Quotient,
    Subgroup,
    congruence_solution_subgroup,
    double_image,
    double_preimage,
    halve,
    quotient,
    subgroup_span,
    subquotient,
)
from weylkit.intmat import columns_to_matrix, smith_decompose, solve_lower_triangular
from weylkit.models import Operator, ProjectiveRep, intertwiner, regular_rep
from weylkit.multipliers import TableMultiplier, zero_multiplier


def random_group(rng, max_order=10_000, max_rank=4):
    while True:
        rank = rng.randrange(1, max_rank + 1)
        moduli = [rng.choice([2, 3, 4, 5, 6, 8, 9, 12, 16, 25]) for _ in range(rank)]
        G = FinAbGroup(moduli)
        if G.order <= max_order:
            return G


def random_subgroup(rng, G, n_gens=2):
    gens = [G.element([rng.randrange(0, n) for n in G.moduli]) for _ in range(n_gens)]
    return subgroup_span(G, gens)


def test_group_basics():
    G = FinAbGroup([4, 6])
    assert G.order == 24
    assert G.exponent == 12
    assert G.invariant_factors() == (2, 12)
    assert G.canonical().moduli == (2, 12)
    assert G.canonical().canonical() == G.canonical()
    x = G.element([5, 7])
    assert x.coords == (1, 1)
    assert (x + x).coords == (2, 2)
    assert (-x).coords == (3, 5)
    assert (3 * x).coords == (3, 3)


def test_rank_order_scans_first_coordinate_fastest():
    G = FinAbGroup([3, 3])
    ranks = [e.coords for e in G.elements()]
    assert ranks[0] == (0, 0)
    assert ranks[1] == (1, 0)
    assert ranks[3] == (0, 1)


@pytest.mark.parametrize("moduli,gens,expected_order,expected_elems", [
    ([4], [[2]], 2, {(0,), (2,)}),
    ([4, 4], [[2, 0], [0, 2]], 4, None),
    ([9], [[6]], 3, {(0,), (3,), (6,)}),
])
def test_subgroup_span_examples(moduli, gens, expected_order, expected_elems):
    G = FinAbGroup(moduli)
    A = subgroup_span(G, [G.element(g) for g in gens])
    assert A.order == expected_order
    if expected_elems is not None:
        assert {e.coords for e in A.elements()} == expected_elems


def test_subgroup_ambient_mismatch():
    G = FinAbGroup([4])
    H = FinAbGroup([5])
    with pytest.raises(InputError):
        subgroup_span(G, [H.element([1])])


def test_quotient_examples():
    G = FinAbGroup([4])
    A = subgroup_span(G, [G.element([2])])
    q = quotient(G, A)
    assert q.group.moduli == (2,)

    G9 = FinAbGroup([9])
    A9 = subgroup_span(G9, [G9.element([3])])
    assert quotient(G9, A9).group.moduli == (3,)

    # (L/2)/L for the mod-4 window: quotient of the double preimage is F_2^2
    G44 = FinAbGroup([4, 4])
    L = subgroup_span(G44, [G44.element([2, 0]), G44.element([0, 2])])
    L2 = double_preimage(G44, L)
    assert L2.order == 16
    q2 = subquotient(L2, L)
    assert q2.group.moduli == (2, 2)
    assert q2.group.order == 4


def test_quotient_contract():
    rng = random.Random(42)
    for _ in range(25):
        G = random_group(rng, max_order=2000)
        A = random_subgroup(rng, G)
        q = quotient(G, A)
        assert q.group.order * A.order == G.order
        # project is a homomorphism with kernel A
        for _ in range(20):
            x = G.element([rng.randrange(0, n) for n in G.moduli])
            y = G.element([rng.randrange(0, n) for n in G.moduli])
            assert q.project(x + y) == q.project(x) + q.project(y)
            assert (q.project(x).is_zero()) == A.contains(x)
        # section: project . section = id, representatives are rank-minimal
        for qe, s in q.section_list:
            assert q.project(s) == qe
        # invariant factor form
        m = q.group.moduli
        for a, b in zip(m, m[1:]):
            assert b % a == 0


def test_transversal_covers_exactly_once():
    rng = random.Random(9)
    for _ in range(20):
        G = random_group(rng, max_order=2500)
        A = random_subgroup(rng, G)
        reps = A.transversal()
        assert len(reps) == G.order // A.order
        seen = set()
        for r in reps:
            for a in A.elements():
                x = (r + a).coords
                assert x not in seen
                seen.add(x)
        assert len(seen) == G.order


def test_quotient_presentation_independent():
    G = FinAbGroup([4, 4])
    A1 = subgroup_span(G, [G.element([2, 0]), G.element([0, 2])])
    A2 = subgroup_span(G, [G.element([2, 2]), G.element([0, 2]), G.element([2, 0])])
    assert A1 == A2
    assert quotient(G, A1).group == quotient(G, A2).group


@pytest.mark.parametrize("moduli,gens,pre_order,im_order", [
    ([4], [[2]], 4, 1),            # A/2 is everything, 2A = 0
    ([9], [[3]], 3, 3),            # doubling is a bijection on Z/9
    ([16], [[4]], 8, 2),           # multiples of 2 / multiples of 8
    ([2, 8], [[1, 4]], 4, 1),      # A/2 is the 2-torsion, 2A = 0
    ([1, 3 ** 21], [[0, 3]], 3 ** 20, 3 ** 20),   # doubling is a bijection on Z/3^21
])
def test_double_maps_examples(moduli, gens, pre_order, im_order):
    G = FinAbGroup(moduli)
    A = subgroup_span(G, [G.element(g) for g in gens])
    assert double_preimage(G, A).order == pre_order
    assert double_image(G, A).order == im_order


def test_double_maps_inclusions():
    rng = random.Random(5)
    for _ in range(30):
        G = random_group(rng, max_order=5000)
        A = random_subgroup(rng, G)
        up = double_preimage(G, A)
        down = double_image(G, A)
        assert double_image(G, up).is_subset_of(A)
        assert A.is_subset_of(double_preimage(G, down))
        if G.is_p_regular(2):
            assert double_image(G, up) == A
            assert double_preimage(G, down) == A


def test_halve():
    G9 = FinAbGroup([9])
    assert halve(G9, G9.element([1])).coords == (5,)
    G3 = FinAbGroup([3])
    assert halve(G3, G3.element([0])).coords == (0,)
    with pytest.raises(UnsupportedOperationError):
        halve(FinAbGroup([4]), FinAbGroup([4]).element([1]))


def test_halve_inverts_doubling():
    rng = random.Random(3)
    for _ in range(20):
        G = FinAbGroup([rng.choice([3, 5, 9, 15, 25])])
        x = G.element([rng.randrange(0, G.moduli[0])])
        assert 2 * halve(G, x) == x
        assert halve(G, 2 * x) == x


def test_trivial_group():
    G = FinAbGroup([])
    assert G.order == 1
    assert list(G.elements()) == [G.zero()]
    A = Subgroup.full(G)
    assert A.order == 1
    q = quotient(G, A)
    assert q.group.order == 1


# one case per kind of count against ENTRY_BUDGET: the call and the entries it asks for
BUDGET_CASES = {
    "elements": (lambda: FinAbGroup([1024, 1024]).coords_array(), 1024 ** 2),
    "table": (lambda: TableMultiplier(FinAbGroup([1024]), 1, np.zeros((1024, 1024))), 1024 ** 2),
    "kept_rows": (lambda: regular_rep(FinAbGroup([513])).monomial_arrays(), 513 ** 2),
    "index_pairs": (lambda: intertwiner(regular_rep(FinAbGroup([513])), regular_rep(FinAbGroup([513]))),
                    513 ** 2),
    "operator_row": (lambda: ProjectiveRep(FinAbGroup([]), zero_multiplier(FinAbGroup([])),
                                           2 ** 18 + 1, None, 1), 2 ** 18 + 1),
    "dense": (lambda: Operator(513, 1, np.arange(513), np.zeros(513)).matrix, 513 ** 2),
}


@pytest.mark.parametrize("kind", list(BUDGET_CASES))
def test_enumeration_caps(kind):
    trip, size = BUDGET_CASES[kind]
    with pytest.raises(ResourceLimitError) as exc:
        trip()
    assert (exc.value.budget, exc.value.limit, exc.value.size) == ("ENTRY_BUDGET", 2 ** 18, size)
    assert ENTRY_BUDGET == 2 ** 18
    assert f"{size} exceeds ENTRY_BUDGET = {2 ** 18}" in str(exc.value)


def test_operator_row_within_budget_builds():
    # a carrier dimension above --max-dim's default is not refused below the CLI
    W = regular_rep(FinAbGroup([4097]))
    assert W.dim == 4097 and W.operator(W.group.element([1])).src[0] == 1


@pytest.mark.parametrize("moduli", [[4, 3, 5], [8, 8], [1, 2, 1], [], [512]])
def test_addition_table_kept_and_matches_formula(moduli):
    G = FinAbGroup(moduli)
    X = G.coords_array()
    s = (X[:, None, :] + X[None, :, :]) % np.array(G.moduli, dtype=np.int64)
    S = G.addition_table()
    assert (S == (s * np.array(G._weights, dtype=np.int64)).sum(axis=2)).all()
    assert G.addition_table() is S and not S.flags.writeable


def test_addition_table_budget():
    with pytest.raises(ResourceLimitError) as exc:
        FinAbGroup([513]).addition_table()
    assert (exc.value.budget, exc.value.limit, exc.value.size) == \
        ("ENTRY_BUDGET", 2 ** 18, 513 ** 2)


def mat_vec(A, v):
    return [sum(a * b for a, b in zip(row, v)) for row in A]


def scalar_projection(B, A):
    """Oracle: (quotient moduli, projection of one coordinate tuple) of B/A in Python ints.

    The same Smith form of A's lattice in B's basis; each x goes through its
    own triangular solve and U t mod d_i.
    """
    r = B.ambient.rank
    H = [list(row) for row in B.basis]
    C = columns_to_matrix([solve_lower_triangular(H, [row[j] for row in A.basis])
                           for j in range(r)], r)
    U, D, _ = smith_decompose(C)
    d = [D[i][i] for i in range(r)]

    def project(x):
        y = mat_vec(U, solve_lower_triangular(H, list(x)))
        return tuple(y[i] % d[i] for i in range(r) if d[i] > 1)

    return tuple(v for v in d if v > 1), project


def scan_subquotient(B, A):
    """Oracle: B/A by projecting every element of B one at a time.

    The first element of B (in rank order) that reaches a class is that
    class's section.  Returns (quotient moduli, projection, section pairs
    (class coords, representative coords) in quotient rank order).
    """
    moduli, project = scalar_projection(B, A)
    seen = {}
    for x in B.elements():
        seen.setdefault(project(x.coords), x.coords)
    rank = FinAbGroup(moduli).rank_of
    return moduli, project, sorted(seen.items(), key=lambda kv: rank(kv[0]))


@st.composite
def nested_pairs(draw):
    """(B, A) with A <= B <= G, G of rank <= 3 with moduli of 1 allowed."""
    G = FinAbGroup(draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9]), max_size=3)))
    gens = draw(st.lists(st.tuples(*[st.integers(0, n - 1) for n in G.moduli]), max_size=3))
    B = Subgroup.span(G, [G.element(g) for g in gens])
    sub = draw(st.lists(st.sampled_from(B.elements()), max_size=3))
    return B, Subgroup.span(G, sub)


def _pair(moduli, b_gens, a_gens):
    G = FinAbGroup(moduli)
    return (Subgroup.span(G, [G.element(g) for g in b_gens]),
            Subgroup.span(G, [G.element(g) for g in a_gens]))


def _rows(S):
    return np.array([x.coords for x in S.elements()], dtype=np.int64).reshape(S.order, -1)


NESTED_EXAMPLES = [
    _pair([], [], []),                                       # rank 0
    _pair([1, 4, 1], [[0, 1, 0]], [[0, 2, 0]]),              # moduli of 1
    _pair([4, 6], [[2, 3]], [[2, 3]]),                       # A = B
    _pair([8, 4, 6], [[2, 2, 0], [0, 1, 3]], []),            # A trivial
    _pair([4, 4], [[1, 0], [0, 1]], [[2, 0], [0, 2]]),       # B = G
    _pair([16, 16], [[2, 0], [0, 2]], [[4, 0], [0, 4]]),     # (L/2)/L of a p = 2 window
]


def _with_examples(test):
    for pair in NESTED_EXAMPLES:
        test = example(pair=pair)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(pair=nested_pairs())
@_with_examples
def test_subquotient_matches_per_element_scan(pair):
    B, A = pair
    moduli, project, section = scan_subquotient(B, A)
    q = subquotient(B, A)
    assert q.group.moduli == moduli
    assert [(qe.coords, s.coords) for qe, s in q.section_list] == section
    assert all(q.section(qe) == s for qe, s in q.section_list)
    X = _rows(B)
    P = q.project_coords(X)
    assert P.dtype == np.int64 and P.shape == (B.order, q.group.rank)
    assert [tuple(row) for row in P.tolist()] == [project(x) for x in X.tolist()]
    assert [q.project(x).coords for x in B.elements()] == [project(x) for x in X.tolist()]


@settings(max_examples=150, deadline=None)
@given(pair=nested_pairs())
@_with_examples
def test_project_coords_is_a_homomorphism_with_kernel_A(pair):
    B, A = pair
    q = subquotient(B, A)
    moduli = np.array(q.group.moduli, dtype=np.int64)
    X = _rows(B)
    P = q.project_coords(X)
    for shift in (1, 5):
        Y = np.roll(X, shift, axis=0)
        assert ((q.project_coords(X + Y) - P - q.project_coords(Y)) % moduli == 0).all()
    assert ((P == 0).all(axis=1) == (A.coset_index(X) == 0)).all()
    assert len({tuple(row) for row in P.tolist()}) == q.group.order
    # unreduced rows project as their reductions
    assert (q.project_coords(X + 3 * np.array(B.ambient.moduli, dtype=np.int64)) == P).all()


@settings(max_examples=100, deadline=None)
@given(pair=nested_pairs())
@_with_examples
def test_project_coords_refuses_a_row_outside_B(pair):
    B, A = pair
    G = B.ambient
    outside = next((x for x in G.elements() if not B.contains(x)), None)
    assume(outside is not None)
    q = subquotient(B, A)
    with pytest.raises(InputError):
        q.project_coords(np.vstack([_rows(B), [outside.coords]]))
    with pytest.raises(InputError):
        q.project(outside)


@settings(max_examples=150, deadline=None)
@given(pair=nested_pairs())
@_with_examples
def test_coset_index_finds_the_least_element_of_each_coset(pair):
    _, A = pair
    G = A.ambient
    X = G.coords_array()
    T = A.transversal_coords()
    least = [min((x + a for a in A.elements()), key=lambda y: y.rank).coords for x in G.elements()]
    index = A.coset_index(X)
    assert [tuple(T[i]) for i in index.tolist()] == least
    assert (A.coset_index(T) == np.arange(A.index)).all()
    assert (A.coset_index(X - 2 * np.array(G.moduli, dtype=np.int64)) == index).all()


def box_reduce_loop(X, H):
    """The column-by-column box reduction of int64 rows X against a lower-triangular H."""
    X = np.array(X, dtype=np.int64)
    for i in range(len(H)):
        X[:, i:] -= (X[:, i] // H[i, i])[:, None] * H[i:, i]
    return X


@st.composite
def box_inputs(draw):
    """(X, H): int64 rows and a lower-triangular H with a positive diagonal, 1 included,
    diagonal or with drawn entries below it."""
    diag = draw(st.lists(st.integers(1, 9), max_size=4))
    r = len(diag)
    H = np.diag(np.array(diag, dtype=np.int64)).reshape(r, r)
    if draw(st.booleans()):
        k = r * (r - 1) // 2
        H[np.tril_indices(r, -1)] = draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k))
    n = draw(st.integers(0, 6))
    X = draw(st.lists(st.integers(-60, 60), min_size=n * r, max_size=n * r))
    return np.array(X, dtype=np.int64).reshape(n, r), H


@settings(max_examples=150, deadline=None)
@given(case=box_inputs())
@example(case=(np.zeros((2, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.int64)))
@example(case=(np.array([[-7, 3, 12], [5, -1, 0]]), np.diag([1, 1, 5])))
@example(case=(np.array([[-7, 3, 12], [5, -1, 0]]), np.array([[1, 0, 0], [4, 1, 0], [-3, 2, 5]])))
def test_box_reduce_matches_the_loop(case):
    # a diagonal H takes X mod diag(H); any other lower-triangular H keeps the loop
    X, H = case
    out = _box_reduce(X, H)
    assert out.dtype == np.int64 and out is not X
    assert (out == box_reduce_loop(X, H)).all()
    assert ((0 <= out) & (out < np.diag(H))).all()


def test_project_coords_is_exact_past_int64():
    # E^2 > 2^63 here, so the solve and U t run on Python ints: in int64,
    # U t wraps mod 2^64 and the odd part of G/A = Z/24 comes out wrong
    G = FinAbGroup([3 * 2 ** 40, 6 * 2 ** 30])
    A = subgroup_span(G, [G.element([8, 7]), G.element([8, 4])])
    q = quotient(G, A)
    moduli, project = scalar_projection(Subgroup.full(G), A)
    X = [[158489480679, 3741058122], [2045967862969, 4002250473], [G.moduli[0] - 1, 1], [0, 0]]
    assert q.group.moduli == moduli == (24,)
    assert [tuple(row) for row in q.project_coords(X).tolist()] == [project(x) for x in X]
    assert len(q.section_list) == 24
    assert all(q.project(s) == qe for qe, s in q.section_list)
    B = subgroup_span(G, [G.element([2, 0]), G.element([0, 1])])
    with pytest.raises(InputError):
        subquotient(B, A).project_coords([[1, 0]])


def test_project_coords_refuses_a_quotient_past_int64():
    # G/0 = Z/2^64: the image of 2^63 + 1 has no int64 coordinate, so the projection is
    # refused; past int64 only in the running sums, as above, it stays exact
    G = FinAbGroup([2 ** 64])
    q = Quotient(Subgroup.full(G), Subgroup.trivial(G))
    with pytest.raises(InputError, match=rf"coordinate of .* can reach {2 ** 64 - 1}, beyond int64"):
        q.project(G.element([2 ** 63 + 1]))
    G = FinAbGroup([2 ** 63])
    q = Quotient(Subgroup.full(G), Subgroup.trivial(G))
    assert q.project(G.element([2 ** 63 - 1])).coords == (2 ** 63 - 1,)


# -- lattice answers read off one Smith decomposition -------------------------

BIG = 3 ** 21       # a factor too large to list: these cases are decided by orders alone
MODULI = st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, BIG])


def element_order(x):
    return lcm(*(n // gcd(c, n) for c, n in zip(x.coords, x.group.moduli)))


def listed(S):
    return {x.coords for x in S.elements()}


@st.composite
def subgroups(draw):
    """A <= G, G of rank <= 3 with moduli of 1 and 3^21 among the choices."""
    G = FinAbGroup(draw(st.lists(MODULI, max_size=3)))
    gens = draw(st.lists(st.tuples(*[st.integers(0, n - 1) | st.integers(0, 4).map(lambda k: 3 ** k)
                                     for n in G.moduli]), max_size=3))
    return Subgroup.span(G, [G.element(g) for g in gens])


@settings(max_examples=150, deadline=None)
@given(A=subgroups(), data=st.data())
@example(A=_pair([1, BIG, 6], [[0, 9, 2], [0, 3 ** 20, 3]], [])[0], data=None)
def test_decomposition_is_a_cyclic_decomposition(A, data):
    G = A.ambient
    gens, orders = A.decomposition()
    assert all(d > 1 for d in orders) and all(b % a == 0 for a, b in zip(orders, orders[1:]))
    assert [element_order(h) for h in gens] == orders
    # the h_j span A, and |A| = prod d_j: so (t_j) -> sum t_j h_j maps the grid onto A bijectively
    assert Subgroup.span(G, gens) == A and prod(orders) == A.order
    t = [data.draw(st.integers(0, d - 1)) if data else d // 3 for d in orders]
    assert list(A.coordinates_of(sum((c * h for c, h in zip(t, gens)), G.zero()))) == t
    if A.order <= 2000:
        grid = [sum((c * h for c, h in zip(u, gens)), G.zero()).coords
                for u in FinAbGroup(orders).coords_array().tolist()]
        assert len(set(grid)) == len(grid) == A.order and set(grid) == listed(A)


@settings(max_examples=150, deadline=None)
@given(A=subgroups())
@example(A=_pair([2, BIG, 4], [[1, 3, 2]], [])[0])
def test_double_preimage_is_the_preimage_under_doubling(A):
    G = A.ambient
    P = double_preimage(G, A)
    assert all(A.contains(2 * x) for x in P.generators)
    # P is inside the kernel of x -> 2x + A, whose image (2G + A)/A the Hermite form counts
    twice = Subgroup.span(G, [2 * g for g in G.generators()] + list(A.generators))
    assert P.order * twice.order == G.order * A.order
    if G.order <= 2000:
        assert listed(P) == {x.coords for x in G.elements() if A.contains(2 * x)}


@st.composite
def congruences(draw):
    """(G, rows K, modulus M) with x -> K x mod M well defined on G: M | n_i K_ji.  Rows may be
    zero or repeated, so K can have rank below that of G."""
    G = FinAbGroup(draw(st.lists(MODULI, max_size=3)))
    M = draw(st.sampled_from([1, 2, 3, 4, 8, 9, 12, BIG, 2 * BIG]))
    steps = [M // gcd(M, n) for n in G.moduli]
    rows = []
    for _ in range(draw(st.integers(0, G.rank + 1))):
        kind = draw(st.sampled_from(["random", "zero", "repeat"]))
        if kind == "repeat" and rows:
            rows.append([draw(st.integers(-3, 3)) * v for v in rows[-1]])
        else:
            rows.append([0 if kind == "zero" else draw(st.integers(-M, M)) * s for s in steps])
    return G, rows, M


@settings(max_examples=150, deadline=None)
@given(case=congruences())
@example(case=(FinAbGroup([1, BIG, 4]), [[0, 0, 0], [8 * BIG, 4 * 3 ** 5, 3 * BIG], [0, 0, 0]],
                   4 * BIG))
def test_congruence_solutions_are_the_kernel(case):
    G, rows, M = case
    S = congruence_solution_subgroup(G, rows, M)

    def image(x):
        return [sum(k * c for k, c in zip(row, x)) % M for row in rows]

    assert all(not any(image(x.coords)) for x in S.generators)
    # S is inside the kernel of x -> K x mod M, whose image the Hermite form counts
    target = FinAbGroup([M] * len(rows))
    span = Subgroup.span(target, [target.element(col) for col in zip(*rows)])
    assert S.order * span.order == G.order
    if G.order <= 2000:
        assert listed(S) == {x.coords for x in G.elements() if not any(image(x.coords))}



@settings(max_examples=40, deadline=None)
@given(moduli=st.lists(st.sampled_from([1, 2, 3, 4, 6, 9]), max_size=3), data=st.data())
def test_subgroup_coords_array_is_its_elements(moduli, data):
    """The kept coordinate array lists ``elements()`` in order, on drawn, trivial and full
    subgroups, rank 0 included."""
    G = FinAbGroup(moduli)
    gens = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1) for n in moduli]), max_size=2))
    for A in (subgroup_span(G, [G.element(g) for g in gens]), Subgroup.trivial(G), Subgroup.full(G)):
        X = A.coords_array()
        assert X.dtype == np.int64 and X.shape == (A.order, G.rank)
        assert X.tolist() == [list(a.coords) for a in A.elements()]
        assert A.coords_array() is X


def test_subgroup_coords_array_refuses_moduli_past_int64():
    G = FinAbGroup([2 ** 64])
    A = subgroup_span(G, [G.element([2 ** 63])])
    assert [a.coords for a in A.elements()] == [(0,), (2 ** 63,)]
    with pytest.raises(InputError, match=rf"a modulus of .* can reach {2 ** 64}, beyond int64 arrays$"):
        A.coords_array()
