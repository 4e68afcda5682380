"""Exact integer linear algebra: Smith normal form, cokernels, kernel ranks.

Everything here works on plain ``list[list[int]]`` matrices with Python's
arbitrary-precision integers, so no intermediate result can overflow.
Inputs are only read (the kernel eliminates on a copy), so a tuple of
tuples serves as well.
A matrix with zero columns is written ``[[], [], ...]`` (one empty row per
row); a 0x0 matrix is ``[]``.

One elimination kernel serves all: ``smith`` runs it with both transforms,
``invariant_factors`` (so ``rank``, ``cokernel``, ``kernel_rank``) without.
Then, once a row operation makes an entry exceed the input's Hadamard
bound, a Bareiss pass gives the rank r and M = |a nonzero r x r minor|,
and trailing entries are kept as symmetric residues mod M (Domich, Kannan
and Trotter, Math. Oper. Res. 12, 1987).  That yields the Smith form of
[A | M*I], d_1, ..., d_r, M, ..., M, as each invariant factor d_i of A
divides M; so the chain of gcd(x, M) over the diagonal starts with the
exact d_1, ..., d_r.  Sparse inputs (boundary matrices) never grow so far.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul

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


class SmithForm(namedtuple("SmithForm", "left diag right")):
    """Unimodular factorization left * matrix * right = diag(diag), all tuples."""

    __slots__ = ()


def _find_pivot(a: Matrix, t: int, n: int) -> tuple[int, int] | None:
    """Smallest nonzero |entry| in the trailing block, ties broken row-major."""
    v, i = 0, 0
    for k in range(t, len(a)):
        w = min(filter(None, map(abs, a[k][t:n])), default=0)
        if w and (w < v or not v):
            v, i = w, k
            if w == 1:
                break
    return (i, t + list(map(abs, a[i][t:n])).index(v)) if v else None


def _bareiss(matrix: Matrix) -> tuple[int, int]:
    """(r, M): rank of matrix and M = |a nonzero r x r minor|, fraction-free
    (each entry is a minor of the input, so divisions are exact)."""
    rows, r, prev = [list(row) for row in matrix], 0, 1
    for c in range(len(matrix[0]) if matrix else 0):
        piv = next((row for row in rows if row[c]), None)
        if piv is not None:
            rows.remove(piv)
            rows = [[(piv[c] * x - row[c] * y) // prev for x, y in zip(row, piv)] for row in rows]
            r, prev = r + 1, piv[c]
    return r, abs(prev)


def _eliminate(matrix: Matrix, vt: Matrix | None = None) -> tuple[Matrix, list[int], int, int]:
    """Diagonalise a copy of matrix; returns (a, diagonal, modulus, rank).

    Clear the smallest pivot's column and row, restarting from any nonzero
    remainder.  Given vt (V transposed), column operations act on its rows,
    a carries U past column n, and the modulus is 0.
    """
    m, n = _shape(matrix)
    a = [list(row) for row in matrix]
    if vt is not None:
        a, bound = [row + e for row, e in zip(a, identity(m))], None
    else:  # Hadamard bound: the product of the row norms exceeds every minor
        bound = math.isqrt(math.prod(sum(map(mul, row, row)) or 1 for row in a)) + 1
    modulus = half = rank = t = 0
    grown = False
    while t < min(m, n):
        if grown and not modulus:
            rank, modulus = _bareiss(matrix)
            half = modulus // 2
            a[t:] = [[(x + half) % modulus - half for x in row] for row in a[t:]]
        piv = _find_pivot(a, t, n)
        if piv is None:
            break
        a[t], a[piv[0]] = a[piv[0]], a[t]
        if piv[1] != t:
            _swap_columns(a, vt, t, piv[1])
        while True:
            at, p = a[t], a[t][t]
            for i, ai in enumerate(a[t + 1 :], t + 1):
                if not ai[t]:
                    continue
                q = ai[t] // p
                if modulus:
                    ai[t:] = [(x - q * y + half) % modulus - half for x, y in zip(ai[t:], at[t:])]
                else:
                    ai[t:] = [x - q * y for x, y in zip(ai[t:], at[t:])]
                    grown = grown or (bound is not None and (max(ai) > bound or -min(ai) > bound))
                if ai[t]:
                    a[t], a[i] = ai, at
                    break
            else:
                # column t is zero off the pivot: column operations change only a[t][j]
                for j in range(t + 1, n):
                    if not at[j]:
                        continue
                    q = at[j] // p
                    at[j] -= q * p
                    if vt is not None:
                        vt[j] = [x - q * y for x, y in zip(vt[j], vt[t])]
                    if at[j]:
                        _swap_columns(a, vt, t, j)
                        break
                else:
                    break
        t += 1
    return a, [a[i][i] for i in range(min(m, n))], modulus, rank if modulus else t


def _swap_columns(a: Matrix, vt: Matrix | None, t: int, j: int) -> None:
    for row in a[t:]:  # rows above t are zero in both columns
        row[t], row[j] = row[j], row[t]
    if vt is not None:
        vt[t], vt[j] = vt[j], vt[t]


def _divisibility_chain(d: list[int], u: Matrix | None = None, vt: Matrix | None = None) -> list[int]:
    """Make each nonzero d[t] divide every later entry, in place: with
    g = s*x + c*y = gcd(x, y), [[s, c], [-y/g, x/g]] diag(x, y) [[1, -c*y/g],
    [1, s*x/g]] = diag(g, xy/g); both transforms (determinant 1) act on u, vt."""
    for t in range(len(d)):
        for i in range(t + 1, len(d)):
            x, y = d[t], d[i]
            if x and y % x:
                g = math.gcd(x, y)
                xg, yg = x // g, y // g
                d[t], d[i] = g, xg * y
                if u is not None:
                    s = pow(xg, -1, abs(yg))
                    c = (1 - s * xg) // yg
                    for w, (p, q, r, z) in ((u, (s, c, -yg, xg)), (vt, (1, 1, -c * yg, s * xg))):
                        pairs = list(zip(w[t], w[i]))
                        w[t], w[i] = [p * e + q * f for e, f in pairs], [r * e + z * f for e, f in pairs]
    return d


def smith(matrix: Matrix) -> SmithForm:
    """Smith normal form of an integer matrix.

    Returns U, diag, V with U*matrix*V diagonal, |det U| = |det V| = 1,
    diag nonnegative and each entry dividing the next (zeros at the tail).
    The pivot strategy (smallest absolute value, row-major ties) makes the
    transforms deterministic; the diagonal is canonical regardless.
    """
    _, n = _shape(matrix)
    vt = identity(n)
    a, d, _, _ = _eliminate(matrix, vt)
    u = [row[n:] for row in a]
    for t, x in enumerate(_divisibility_chain(d, u, vt)):
        if x < 0:
            d[t], u[t] = -x, [-e for e in u[t]]
    return SmithForm(left=tuple(tuple(row) for row in u), diag=tuple(d), right=tuple(zip(*vt)))


def invariant_factors(matrix: Matrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, in divisibility order."""
    _, d, modulus, r = _eliminate(matrix)
    return tuple(_divisibility_chain([math.gcd(x, modulus) for x in d])[:r])


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
