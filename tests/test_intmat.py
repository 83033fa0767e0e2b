import random

import numpy as np
import pytest

from weylkit.groups import _box_reduce
from weylkit.intmat import column_hnf, smith_decompose, solve_lower_triangular


def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


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
    H = np.array([[2, 0], [1, 3]])

    def key(x):
        return tuple(_box_reduce(np.array([x]), H)[0].tolist())

    seen = set()
    for x in range(2):
        for y in range(3):
            seen.add(key([x, y]))
    assert len(seen) == 6
    # shifting by lattice vectors does not change the key
    assert key([5, 7]) == key([5 + 2, 7 + 1])
