"""Exact integer-matrix normal forms.

Everything here runs on arbitrary-precision Python integers (matrices are
lists of row lists); there is no tolerance anywhere.  Two normal forms back
every lattice question of ``groups``: the column Hermite form H decides
membership (with its triangular solve) and cosets (``groups._box_reduce``),
and the Smith form U M V = D answers the rest.  Because U and V are unimodular,
M Z^n = U^{-1} D Z^n, so cyclic decompositions, double preimages and
solutions of congruences are read off V and D column by column; no matrix
inverse or modular elimination is needed.
"""

from __future__ import annotations

from .errors import InputError


def identity_matrix(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_decompose(M):
    """Smith normal form with transforms.

    Returns integer matrices ``(U, D, V)`` with ``U @ M @ V == D``, ``D``
    diagonal with d1 | d2 | ... (trailing zeros allowed), and ``U``, ``V``
    unimodular.  Total on integer matrices, including empty and zero ones.
    """
    A = [[int(x) for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = identity_matrix(rows)
    V = identity_matrix(cols)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(rows):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def add_row(dst, src, c):
        # row dst += c * row src
        Ad, As = A[dst], A[src]
        for j in range(cols):
            Ad[j] += c * As[j]
        Ud, Us = U[dst], U[src]
        for j in range(rows):
            Ud[j] += c * Us[j]

    def add_col(dst, src, c):
        for r in range(rows):
            A[r][dst] += c * A[r][src]
        for r in range(cols):
            V[r][dst] += c * V[r][src]

    t = 0
    while t < min(rows, cols):
        # pivot: a nonzero entry of minimal magnitude in the trailing block
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if A[i][j] and (piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])

        while True:
            swapped = False
            for i in range(t + 1, rows):
                while A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(i, t, -q)
                    if A[i][t]:
                        swap_rows(t, i)
                        swapped = True
            for j in range(t + 1, cols):
                while A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(j, t, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        swapped = True
            if swapped:
                continue
            # enforce divisibility of the remaining block by the pivot
            d = A[t][t]
            bad = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if A[i][j] % d:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        if A[t][t] < 0:
            add_row(t, t, -2)  # negate row t
        t += 1
    D = [[A[i][j] if i == j else 0 for j in range(cols)] for i in range(rows)]
    return U, D, V


def diagonal_of(D):
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def column_hnf(M):
    """Column-style Hermite normal form of the lattice spanned by the columns of M.

    Returns the lower-triangular r x r basis H with positive diagonal and
    0 <= H[i][j] < H[i][i] for j < i.  The column lattice must have full rank
    r (guaranteed whenever the relation vectors n_i * e_i are included).
    """
    rows = len(M)
    A = [list(map(int, row)) for row in M]
    cols = len(A[0]) if rows else 0

    def add_col(dst, src, c):
        for r in range(rows):
            A[r][dst] += c * A[r][src]

    def swap_cols(i, j):
        for r in range(rows):
            A[r][i], A[r][j] = A[r][j], A[r][i]

    for i in range(rows):
        # clear row i to the right of the pivot column i
        while True:
            nz = [j for j in range(i, cols) if A[i][j]]
            if not nz:
                raise InputError("column lattice does not have full rank")
            jbest = min(nz, key=lambda j: abs(A[i][j]))
            if jbest != i:
                swap_cols(i, jbest)
            done = True
            for j in range(i + 1, cols):
                if A[i][j]:
                    add_col(j, i, -(A[i][j] // A[i][i]))
                    if A[i][j]:
                        done = False
            if done:
                break
        if A[i][i] < 0:
            add_col(i, i, -2)
        for j in range(i):
            q = A[i][j] // A[i][i]
            if q:
                add_col(j, i, -q)
    return [row[:rows] for row in A]


def solve_lower_triangular(H, x):
    """Solve H t = x over the integers for lower-triangular H; None if unsolvable."""
    r = len(H)
    t = [0] * r
    for i in range(r):
        s = x[i] - sum(H[i][j] * t[j] for j in range(i))
        if s % H[i][i]:
            return None
        t[i] = s // H[i][i]
    return t


def columns_to_matrix(cols, nrows):
    return [[col[i] for col in cols] for i in range(nrows)]
