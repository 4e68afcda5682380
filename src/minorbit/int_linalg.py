"""Exact integer linear algebra: Smith normal form, cokernels, kernel ranks.

Everything here works on plain ``list[list[int]]`` matrices with Python's
arbitrary-precision integers, so no intermediate result can overflow.
A matrix with zero columns is written ``[[], [], ...]`` (one empty row per
row); a 0x0 matrix is ``[]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

Matrix = list[list[int]]


def _shape(matrix: Matrix) -> tuple[int, int]:
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if any(len(row) != n for row in matrix):
        raise DomainError("ragged matrix")
    return m, n


def identity(k: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def transpose(matrix: Matrix) -> Matrix:
    m, n = _shape(matrix)
    return [[matrix[i][j] for i in range(m)] for j in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ma, na = _shape(a)
    mb, nb = _shape(b)
    if na != mb:
        raise DomainError(f"cannot multiply {ma}x{na} by {mb}x{nb}")
    return [[sum(a[i][k] * b[k][j] for k in range(na)) for j in range(nb)] for i in range(ma)]


@dataclass(frozen=True)
class SmithForm:
    """Unimodular factorization left * matrix * right = diag(diag)."""

    left: tuple[tuple[int, ...], ...]
    diag: tuple[int, ...]
    right: tuple[tuple[int, ...], ...]


def _find_pivot(a: Matrix, t: int, m: int, n: int) -> tuple[int, int] | None:
    """Smallest nonzero |entry| in the trailing block, ties broken row-major."""
    best = None
    best_val = None
    for i in range(t, m):
        for j in range(t, n):
            v = abs(a[i][j])
            if v and (best_val is None or v < best_val):
                best, best_val = (i, j), v
                if v == 1:
                    return best
    return best


def smith(matrix: Matrix) -> SmithForm:
    """Smith normal form of an integer matrix.

    Returns U, diag, V with U*matrix*V diagonal, |det U| = |det V| = 1,
    diag nonnegative and each entry dividing the next (zeros at the tail).
    The pivot strategy (smallest absolute value, row-major ties) makes the
    transforms deterministic; the diagonal is canonical regardless.
    """
    m, n = _shape(matrix)
    a = [list(row) for row in matrix]
    u = identity(m)
    v = identity(n)

    t = 0
    k = min(m, n)
    while t < k:
        piv = _find_pivot(a, t, m, n)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
            u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
            for row in v:
                row[t], row[j0] = row[j0], row[t]

        # Clear row t and column t; a nonzero remainder becomes the new,
        # strictly smaller pivot, so this terminates.
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(n):
                        a[i][j] -= q * a[t][j]
                    for j in range(m):
                        u[i][j] -= q * u[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        u[t], u[i] = u[i], u[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(m):
                        a[i][j] -= q * a[i][t]
                    for i in range(n):
                        v[i][j] -= q * v[i][t]
                    if a[t][j]:
                        for i in range(m):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        for i in range(n):
                            v[i][t], v[i][j] = v[i][j], v[i][t]
                        dirty = True
                        break
        t += 1

    # Enforce the divisibility chain d_t | d_i by folding offending entries
    # back into the pivot position and re-clearing.
    changed = True
    while changed:
        changed = False
        for t in range(k):
            if a[t][t] == 0:
                continue
            for i in range(t + 1, k):
                if a[i][i] % a[t][t]:
                    for r in range(m):
                        a[r][t] += a[r][i]
                    for r in range(n):
                        v[r][t] += v[r][i]
                    # re-clear the 2x2 block at (t, i)
                    g_done = False
                    while not g_done:
                        g_done = True
                        if a[i][t]:
                            q = a[i][t] // a[t][t]
                            for j in range(n):
                                a[i][j] -= q * a[t][j]
                            for j in range(m):
                                u[i][j] -= q * u[t][j]
                            if a[i][t]:
                                a[t], a[i] = a[i], a[t]
                                u[t], u[i] = u[i], u[t]
                                g_done = False
                                continue
                        if a[t][i]:
                            q = a[t][i] // a[t][t]
                            for r in range(m):
                                a[r][i] -= q * a[r][t]
                            for r in range(n):
                                v[r][i] -= q * v[r][t]
                            if a[t][i]:
                                for r in range(m):
                                    a[r][t], a[r][i] = a[r][i], a[r][t]
                                for r in range(n):
                                    v[r][t], v[r][i] = v[r][i], v[r][t]
                                g_done = False
                    changed = True

    for t in range(k):
        if a[t][t] < 0:
            for j in range(n):
                a[t][j] = -a[t][j]
            for j in range(m):
                u[t][j] = -u[t][j]

    diag = tuple(a[t][t] for t in range(k))
    return SmithForm(
        left=tuple(tuple(row) for row in u),
        diag=diag,
        right=tuple(tuple(row) for row in v),
    )


def invariant_factors(matrix: Matrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, in divisibility order."""
    return tuple(d for d in smith(matrix).diag if d)


def rank(matrix: Matrix) -> int:
    """Rank over the rationals."""
    return len(invariant_factors(matrix))


def cokernel(matrix: Matrix) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion invariant factors) of Z^rows / column span."""
    m, _ = _shape(matrix)
    factors = invariant_factors(matrix)
    return m - len(factors), tuple(d for d in factors if d > 1)


def kernel_rank(matrix: Matrix) -> int:
    """Dimension of the rational kernel (columns minus rank)."""
    _, n = _shape(matrix)
    return n - rank(matrix)


# Miller-Rabin with the first 13 primes as bases decides every p below
# MILLER_RABIN_BOUND exactly (Sorenson and Webster, Strong pseudoprimes to
# twelve prime bases, Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic primality test for p < MILLER_RABIN_BOUND (~3.3e24).

    Larger p raise DomainError instead of risking a wrong answer.
    """
    if p < 2:
        return False
    if p >= MILLER_RABIN_BOUND:
        raise DomainError(f"primality of {p} is only decided below {MILLER_RABIN_BOUND}")
    for q in _MILLER_RABIN_BASES:
        if p % q == 0:
            return p == q
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def tensor_f_dimension(torsion: tuple[int, ...] | list[int], free_rank: int, ell: int) -> int:
    """dim over F_ell of F_ell tensor (Z^free_rank + sum Z/t)."""
    if not is_prime(ell):
        raise DomainError(f"{ell} is not prime")
    return free_rank + sum(1 for t in torsion if t % ell == 0)
