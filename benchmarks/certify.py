"""Certificate that a claimed Smith normal form is correct.

U * A * V = D with D diagonal, det U and det V equal to +-1, and the
diagonal nonnegative with each entry dividing the next (zeros last).
Such a D is unique, so passing this check proves the diagonal right
whatever algorithm produced it.  Only exact integer arithmetic is used.
"""

from __future__ import annotations


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def det(matrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i, factor = a[i], a[i][k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return sign * a[-1][-1] if n else 1


def certify_smith(matrix, left, diag, right) -> str | None:
    """None if (left, diag, right) is the Smith form of matrix, else why not."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    if len(left) != rows or len(right) != cols or len(diag) != min(rows, cols):
        return "transform or diagonal has the wrong shape"
    product = mat_mul(mat_mul(left, matrix), right)
    for i, row in enumerate(product):
        for j, x in enumerate(row):
            if x != (diag[i] if i == j else 0):
                return f"U*A*V differs from diag at ({i}, {j})"
    if any(d < 0 for d in diag):
        return "negative diagonal entry"
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a and b % a):
            return f"divisibility chain broken at {a}, {b}"
    for name, t in (("U", left), ("V", right)):
        if abs(det(t)) != 1:
            return f"det {name} is not +-1"
    return None
