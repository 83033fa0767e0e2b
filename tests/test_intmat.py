import random

import pytest

from weylkit.errors import DefectError, InputError
from weylkit.intmat import (
    box_reduce,
    column_hnf,
    identity_matrix,
    inverse_unimodular,
    kernel_mod,
    mat_mul,
    smith_decompose,
    solve_lower_triangular,
)


def det(M):
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * det(minor)
    return total


@pytest.mark.parametrize("M,expected_diag", [
    ([[2, 0], [0, 4]], [2, 4]),
    ([[0]], [0]),
    ([[2, 1], [0, 2]], [1, 4]),
])
def test_smith_examples(M, expected_diag):
    U, D, V = smith_decompose(M)
    assert mat_mul(mat_mul(U, M), V) == D
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    assert diag == expected_diag


def test_smith_randomized():
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        M = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        U, D, V = smith_decompose(M)
        assert mat_mul(mat_mul(U, M), V) == D
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1
        diag = [D[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        # off-diagonal must vanish
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert D[i][j] == 0


def test_hnf_membership_against_bruteforce():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randrange(1, 4)
        moduli = [rng.choice([2, 3, 4, 6, 9]) for _ in range(r)]
        gens = [[rng.randrange(0, n) for n in moduli] for _ in range(rng.randrange(0, 3))]
        cols = [list(g) for g in gens]
        for i in range(r):
            rel = [0] * r
            rel[i] = moduli[i]
            cols.append(rel)
        M = [[c[i] for c in cols] for i in range(r)]
        H = column_hnf(M)
        # brute force the subgroup
        elems = {tuple(0 for _ in moduli)}
        frontier = [tuple(0 for _ in moduli)]
        while frontier:
            nxt = []
            for e in frontier:
                for g in gens:
                    y = tuple((a + b) % n for a, b, n in zip(e, g, moduli))
                    if y not in elems:
                        elems.add(y)
                        nxt.append(y)
            frontier = nxt
        import itertools
        for cand in itertools.product(*(range(n) for n in moduli)):
            member = solve_lower_triangular(H, list(cand)) is not None
            assert member == (cand in elems), (moduli, gens, cand)


def test_hnf_shape():
    H = column_hnf([[6, 9, 0], [0, 0, 4]])
    assert len(H) == 2 and len(H[0]) == 2
    assert H[0][1] == 0
    assert H[0][0] > 0 and H[1][1] > 0
    assert 0 <= H[1][0] < H[1][1]


def test_box_reduce_is_canonical():
    H = [[2, 0], [1, 3]]
    seen = set()
    for x in range(2):
        for y in range(3):
            seen.add(box_reduce(H, [x, y]))
    assert len(seen) == 6
    # shifting by lattice vectors does not change the key
    assert box_reduce(H, [5, 7]) == box_reduce(H, [5 + 2, 7 + 1])


def test_inverse_unimodular():
    U = [[1, 2], [1, 3]]
    Uinv = inverse_unimodular(U)
    assert mat_mul(U, Uinv) == [[1, 0], [0, 1]]
    # a product of elementary matrices, with a zero on the diagonal and a negative determinant
    V = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    V = mat_mul(V, [[1, 5, -3], [0, 1, 7], [0, 0, 1]])
    V = mat_mul(V, [[1, 0, 0], [4, 1, 0], [-2, 9, 1]])
    assert mat_mul(V, inverse_unimodular(V)) == identity_matrix(3)
    with pytest.raises(DefectError):
        inverse_unimodular([[2, 0], [0, 1]])
    with pytest.raises(InputError):
        inverse_unimodular([[1, 2], [2, 4]])


def test_kernel_mod():
    M = [[2, 0], [0, 1]]
    basis = kernel_mod(M, 2)
    # solutions mod 2 are spanned by (1, 0); lattice includes 2*I
    sols = set()
    for t in basis:
        sols.add((t[0] % 2, t[1] % 2))
    assert (1, 0) in sols
    for t in basis:
        assert (M[0][0] * t[0] + M[0][1] * t[1]) % 2 == 0
        assert (M[1][0] * t[0] + M[1][1] * t[1]) % 2 == 0
