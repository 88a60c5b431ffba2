"""Smith normal form for integer matrices.

Plain dense row/column reduction over the integers, in exact big-int
arithmetic.  The matrices are relator-by-generator exponent tables:
n by n for the Wirtinger presentation of an n-crossing diagram and
(n + 3) by (n + 2) for its region presentation, with n up to 1,201 in
the tests.  Their entries are mostly 0 and +-1, so the pivot search
stops at the first row that holds a unit, and a unit pivot skips the
divisibility scan.  Elimination stays dense, so the worst case is
cubic in n.
"""

from __future__ import annotations


def smith_diagonal(matrix) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Trailing zero factors are not included; the caller knows the rank
    deficiency from the matrix shape.
    """
    mat = [[int(v) for v in row] for row in matrix]
    m = len(mat)
    n = len(mat[0]) if m else 0
    if any(len(row) != n for row in mat):
        raise ValueError("ragged matrix")

    diag: list[int] = []
    t = 0
    while t < min(m, n):
        pivot, least = None, 0
        for i in range(t, m):
            for j in range(t, n):
                v = abs(mat[i][j])
                if v and (not least or v < least):
                    pivot, least = (i, j), v
            if least == 1:      # no smaller pivot exists
                break
        if pivot is None:
            break

        pi, pj = pivot
        mat[t], mat[pi] = mat[pi], mat[t]
        for row in mat:
            row[t], row[pj] = row[pj], row[t]

        while True:
            dirty = False
            for i in range(t + 1, m):
                if mat[i][t]:
                    q = mat[i][t] // mat[t][t]
                    for j in range(t, n):
                        mat[i][j] -= q * mat[t][j]
                    if mat[i][t]:
                        # remainder is smaller than the pivot, promote it
                        mat[t], mat[i] = mat[i], mat[t]
                        dirty = True
            for j in range(t + 1, n):
                if mat[t][j]:
                    q = mat[t][j] // mat[t][t]
                    for i in range(t, m):
                        mat[i][j] -= q * mat[i][t]
                    if mat[t][j]:
                        for i in range(t, m):
                            mat[i][t], mat[i][j] = mat[i][j], mat[i][t]
                        dirty = True
            if not dirty:
                break

        # the pivot must divide everything below and to the right
        retry = False
        for i in range(t + 1, m) if abs(mat[t][t]) != 1 else ():
            for j in range(t + 1, n):
                if mat[i][j] % mat[t][t]:
                    for jj in range(t, n):
                        mat[t][jj] += mat[i][jj]
                    retry = True
                    break
            if retry:
                break
        if retry:
            continue

        diag.append(abs(mat[t][t]))
        t += 1

    return diag
