"""Exact integer linear algebra: Smith normal form, cokernels, kernel ranks.

Everything here works on plain ``list[list[int]]`` matrices with Python's
arbitrary-precision integers, so no intermediate result can overflow.  An
entry that is not an ``int`` (bools included) raises DomainError.  Inputs
are only read, so a tuple of tuples serves as well.  A matrix with zero
columns is written ``[[], [], ...]``; a 0x0 matrix is ``[]``.

Two independent Smith algorithms share only the gcd step and the final
divisibility chain.  ``invariant_factors`` (so ``cokernel``) runs a
transform-free elimination in three stages.  Unit pivots come first: on
rows held as dicts of their nonzero entries, each pivot +-1 of least fill
is one invariant factor 1, and every entry it leaves is a minor of the
input.  The dense loop takes the leftover block, each step clearing the
pivot's column and row in one pass, by extended-gcd pairs where the pivot
does not divide.  Once an entry exceeds the input's Hadamard bound, a
fraction-free Bareiss pass over the trailing block (``rank`` and
``kernel_rank`` run only that pass, on the whole input) gives its rank
and a nonzero maximal minor; with the pivots so far, they make the rank r
and M = |a nonzero r x r minor| of U*A*V, which has A's Smith form, and
trailing entries are kept as symmetric residues mod M (Domich, Kannan and
Trotter, Math. Oper. Res. 12, 1987).  That yields the Smith form of
[A | M*I], d_1, ..., d_r, M, ..., M, as each d_i divides M; so the chain
of gcd(x, M) over the diagonal starts with the exact d_1, ..., d_r.
The boundary matrices (at most 4 nonzeros a column, entries 1, 2 or 3)
leave blocks of at most 2x2 after the unit pivots at E8, A99, B70, C70
and D71, and never grow so far.  ``smith``, which keeps U and V,
alternates row Hermite passes on A and on its transpose instead, every
entry reduced modulo a pivot, so the transforms stay bounded.  Without
transforms those passes took about twice as long as the dense
loop alone on boundary matrices (2.0-2.3 times over the 790 that
cohomology factors for the tests' ``TRAFFIC_TYPES``; about even on dense
ones), so each algorithm keeps its own loop.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from itertools import chain, compress
from operator import mul

from .errors import DomainError

Matrix = list[list[int]]


def _shape(matrix: Matrix) -> tuple[int, int]:
    """(rows, columns); DomainError for a ragged matrix or a non-int entry."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if not {n}.issuperset(map(len, matrix)):
        raise DomainError("ragged matrix")
    if not {int}.issuperset(map(type, chain.from_iterable(matrix))):
        raise DomainError("matrix entries must be integers")
    return m, n


def identity(k: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


class SmithForm(namedtuple("SmithForm", "left diag right")):
    """Unimodular factorization left * matrix * right = diag(diag), all tuples."""

    __slots__ = ()


def _find_pivot(a: Matrix, t: int) -> tuple[int, int] | None:
    """Smallest nonzero |entry| in the trailing block, ties broken row-major."""
    v, i = 0, 0
    for k in range(t, len(a)):
        w = min(filter(None, map(abs, a[k][t:])), default=0)
        if w and (w < v or not v):
            v, i = w, k
            if w == 1:
                break
    return (i, t + list(map(abs, a[i][t:])).index(v)) if v else None


def _bareiss(matrix: Matrix) -> tuple[int, int]:
    """(r, M): rank of matrix and M = |a nonzero r x r minor|, fraction-free
    (each entry is a minor of the input, so divisions are exact).  Each
    column is dropped once it has been used, so the rows shrink by one per
    step."""
    rows, r, prev = [list(row) for row in matrix], 0, 1
    while rows and rows[0]:
        k = next((k for k, row in enumerate(rows) if row[0]), None)
        if k is None:
            rows = [row[1:] for row in rows]
            continue
        p, *piv = rows.pop(k)
        rows = [[(p * x - h * y) // prev for x, y in zip(rest, piv)] for h, *rest in rows]
        r, prev = r + 1, p
    return r, abs(prev)


def _unit_pivots(matrix: Matrix) -> tuple[int, Matrix]:
    """Pivot on entries +-1 while any is left; returns their count and the
    leftover block, its nonzero rows and columns in input order.

    Rows are dicts of their nonzero entries, and columns sets of row
    indices.  Each pivot (i, j) has the least fill (|row i| - 1) *
    (|column j| - 1), the most entries its step can create.  A unit alone
    in its row or column has fill 0: those of the input, and each one a
    step leaves, are stacked and taken newest first.  With none stacked, a
    scan finds the least fill, ties going to the least (i, j).  Row i
    times the pivot is subtracted from every other row of column j, then
    row i and column j go: one invariant factor 1.  The pivots are units,
    so every leftover entry is, up to sign, a minor of the input, below
    its Hadamard bound.  An input without a unit entry comes back whole.
    """
    if not any(1 in row or -1 in row for row in matrix):
        return 0, [list(row) for row in matrix]
    rows = [dict(compress(enumerate(row), row)) for row in matrix]
    cols = [set() for _ in matrix[0]]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    # (i, j) of each row and column with one entry, taken if still a unit alone
    alone = [(*col, j) for j, col in enumerate(cols) if len(col) == 1][::-1]
    alone += [(i, *row) for i, row in enumerate(rows) if len(row) == 1][::-1]
    units = 0
    while True:
        if alone:
            i, j = alone.pop()
            if rows[i].get(j) not in (1, -1) or (len(rows[i]) > 1 and len(cols[j]) > 1):
                continue  # the entry or a length changed since it was stacked
        else:
            fills = (
                ((len(row) - 1) * (len(cols[j]) - 1), i, j)
                for i, row in enumerate(rows)
                for j, x in row.items()
                if x in (1, -1)
            )
            least = min(fills, default=None)
            if least is None:
                break
            _, i, j = least
        units += 1
        pivot, rows[i] = rows[i], {}
        p = pivot.pop(j)
        for c in pivot:
            cols[c].discard(i)
        below = cols[j]
        below.discard(i)
        for k in below:
            row = rows[k]
            q = row.pop(j) * p
            for c, y in pivot.items():
                z = row.get(c, 0) - q * y
                if z:
                    row[c] = z
                    cols[c].add(k)
                else:
                    del row[c]
                    cols[c].discard(k)
            if len(row) == 1:
                alone.append((k, *row))
        below.clear()
        for c in pivot:
            if len(cols[c]) == 1:
                alone.append((*cols[c], c))
    left = [c for c, members in enumerate(cols) if members]
    return units, [[row.get(c, 0) for c in left] for row in rows if row]


def _eliminate(matrix: Matrix) -> tuple[int, list[int], int, int]:
    """Diagonalise a copy of matrix; returns (units, diagonal, modulus,
    rank): the count of unit pivots, then the diagonal, modulus and rank of
    the leftover block.

    ``_unit_pivots`` goes first.  On the block it leaves, move the smallest
    entry p to (t, t); clear its column, then its row, in one pass each.  A
    multiple x of p is subtracted away, any other x cleared by the pair
    [[s, c], [-x/g, p/g]] of determinant 1, with g = s*p + c*x = gcd(p, x)
    the new pivot; a column pair refills column t, cleared again (|p|
    shrinks).  Once an entry outgrows the input's Hadamard bound, Bareiss
    on the trailing block a[t:] gives its rank and a nonzero maximal minor
    M_t, and from then on entries are kept modulo M = |p_0 ... p_{t-1}| *
    M_t, a maximal minor of diag(p_0, ..., p_{t-1}) + a[t:] = U*A*V.
    """
    _shape(matrix)
    units, a = _unit_pivots(matrix)
    m, n = len(a), len(a[0]) if a else 0
    # The input's Hadamard bound, the product of its row norms, exceeds every
    # minor of the input and so of the block; one row never needs it.
    bound = math.isqrt(math.prod(sum(map(mul, row, row)) or 1 for row in matrix)) + 1 if m > 1 else 0
    modulus = half = rank = t = grown = 0
    while t < min(m, n):
        if grown and not modulus:
            rank, minor = _bareiss([row[t:] for row in a[t:]])
            rank += t
            modulus = abs(math.prod(a[k][k] for k in range(t))) * minor
            half = modulus // 2
            a[t:] = [[(x + half) % modulus - half for x in row] for row in a[t:]]
        piv = _find_pivot(a, t)
        if piv is None:
            break
        i, j = piv
        a[t], a[i] = a[i], a[t]
        if j != t:
            for row in a[t:]:  # rows above t are zero in both columns
                row[t], row[j] = row[j], row[t]
        at = a[t]
        while True:
            for ai in a[t + 1 :]:
                x, p = ai[t], at[t]
                if not x:
                    continue
                q, r = divmod(x, p)
                if r:
                    g, s, c = _xgcd(p, x)
                    at[t:], ai[t:] = _combine(at[t:], ai[t:], s, c, -x // g, p // g)
                    if modulus:
                        at[t:], ai[t:] = ([(y + half) % modulus - half for y in w] for w in (at[t:], ai[t:]))
                elif modulus:
                    ai[t:] = [(z - q * y + half) % modulus - half for y, z in zip(at[t:], ai[t:])]
                else:
                    ai[t:] = [z - q * y for y, z in zip(at[t:], ai[t:])]
                    grown = grown or max(ai) > bound or -min(ai) > bound
            for j in range(t + 1, n):
                y, p = at[j], at[t]
                if not y:
                    continue
                if y % p:  # a column pair refills column t: clear it again
                    g, s, c = _xgcd(p, y)
                    for row in a[t:]:
                        row[t], row[j] = s * row[t] + c * row[j], (p * row[j] - y * row[t]) // g
                    break
                at[j] = 0  # column t is zero off the pivot, so only a[t][j] changes
            else:
                break
        t += 1
    return units, [a[i][i] for i in range(min(m, n))], modulus, rank if modulus else t


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, c) with g = s*a + c*b = gcd(a, b) >= 0."""
    g = math.gcd(a, b)
    if not b:
        return g, -1 if a < 0 else 1, 0
    k = abs(b // g)
    s = (pow(a // g, -1, k) + k // 2) % k - k // 2  # the symmetric residue, |s| <= k/2
    return g, s, (g - s * a) // b


def _combine(x: list[int], y: list[int], s: int, c: int, r: int, z: int) -> tuple[list[int], list[int]]:
    """The rows s*x + c*y and r*x + z*y."""
    pairs = list(zip(x, y))
    return [s * e + c * f for e, f in pairs], [r * e + z * f for e, f in pairs]


def _divisibility_chain(d: list[int], u: Matrix | None = None, vt: Matrix | None = None) -> list[int]:
    """Make each nonzero d[t] divide every later entry, in place: with
    g = s*x + c*y = gcd(x, y), [[s, c], [-y/g, x/g]] diag(x, y) [[1, -c*y/g],
    [1, s*x/g]] = diag(g, xy/g); both transforms (determinant 1) act on u, vt."""
    for t in range(len(d)):
        for i in range(t + 1, len(d)):
            x, y = d[t], d[i]
            if x and y % x:
                g, s, c = _xgcd(x, y)
                xg, yg = x // g, y // g
                d[t], d[i] = g, xg * y
                if u is not None:
                    u[t], u[i] = _combine(u[t], u[i], s, c, -yg, xg)
                    vt[t], vt[i] = _combine(vt[t], vt[i], 1, 1, -c * yg, s * xg)
    return d


def _hermite(a: Matrix, t: Matrix) -> tuple[Matrix, Matrix]:
    """Row Hermite form of [a | t], pivots of either sign, for t unimodular;
    returns it split back into (a, t).

    Rows enter one at a time (Kannan and Bachem, SIAM J. Comput. 8, 1979).
    Each is cleared against the pivot rows, by extended-gcd pairs where the
    pivot does not divide, until its leading entry is a new pivot; then
    every entry above a pivot is reduced to a symmetric residue modulo it.
    [a | t] has full row rank, so a row whose a-part vanishes (a left-kernel
    row) gets its pivot in t and is kept reduced too, and no entry grows
    without bound.  The columns of t enter in reverse order: with t = I, no
    row so far has an entry in t's columns past i, so a left-kernel row i
    leads with its own diagonal entry and becomes a pivot at once, instead
    of being cleared against every earlier left-kernel row.
    """
    w = len(a[0])
    rows: Matrix = []  # the Hermite form so far, by pivot column
    cols: list[int] = []
    for row in map(list.__add__, a, (r[::-1] for r in t)):
        j, moved = 0, set()  # pivot columns whose rows changed
        while True:
            j = next(i for i in range(j, len(row)) if row[i])
            k = bisect.bisect_left(cols, j)
            if k == len(cols) or cols[k] != j:
                rows.insert(k, row)
                cols.insert(k, j)
                moved.add(j)
                break
            h, p, x = rows[k], rows[k][j], row[j]
            q, r = divmod(x, p)
            if r:  # both rows are zero before column j
                g, s, c = _xgcd(p, x)
                h[j:], row[j:] = _combine(h[j:], row[j:], s, c, -x // g, p // g)
                moved.add(j)
            else:
                _subtract(row, q, h, j)
        # A changed row is reduced against every row below it; any other row
        # only against the changed rows, until that reduction changes it.
        # Reducing every pair instead costs a quotient per pair and insertion,
        # which dominates once t adds hundreds of left-kernel rows (a 5x500 input).
        hot = [k for k, j in enumerate(cols) if j in moved]
        for i in range(len(rows) - 2, -1, -1):
            row, start = rows[i], i + 1
            if cols[i] not in moved:
                below = hot[bisect.bisect_right(hot, i) :]
                start = next((k + 1 for k in below if _reduce(row, rows[k], cols[k])), len(rows))
            for k in range(start, len(rows)):
                _reduce(row, rows[k], cols[k])
    return [row[:w] for row in rows], [row[w:][::-1] for row in rows]


def _reduce(row: list[int], h: list[int], j: int) -> int:
    """Make row[j] a symmetric residue modulo the pivot h[j], by row -= q * h
    with h zero before column j; returns q."""
    q = (2 * row[j] + h[j]) // (2 * h[j])
    if q:
        _subtract(row, q, h, j)
    return q


def _subtract(row: list[int], q: int, h: list[int], j: int) -> None:
    """row -= q * h in place, where h is zero before column j."""
    for i in range(j, len(h)):  # faster than building a new list
        row[i] -= q * h[i]


def smith(matrix: Matrix) -> SmithForm:
    """Smith normal form of an integer matrix.

    Returns U, diag, V with U*matrix*V diagonal, |det U| = |det V| = 1,
    diag nonnegative and each entry dividing the next (zeros at the tail).
    Row Hermite passes on the matrix and on its transpose alternate until it
    is diagonal, U and V riding along, so the transforms stay bounded and
    deterministic; the diagonal is canonical regardless.  This shares no
    elimination step with ``invariant_factors``, so each checks the other.
    """
    m, n = _shape(matrix)
    a, sides, passes = [list(row) for row in matrix], [identity(m), identity(n)], 0
    # At least one pass, even on a diagonal input: a Hermite form puts its
    # zero rows last, so a diagonal result has its zeros at the tail.
    while a and (not passes or any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j)):
        a, sides[0] = _hermite(a, sides[0])
        a, sides, passes = [list(col) for col in zip(*a)], sides[::-1], passes + 1
    u, vt = sides[:: (-1) ** passes]  # a diagonal a reads the same transposed
    d = _divisibility_chain([a[i][i] for i in range(min(m, n))], u, vt)
    for t, x in enumerate(d):
        if x < 0:
            d[t], u[t] = -x, [-e for e in u[t]]
    return SmithForm(left=tuple(map(tuple, u)), diag=tuple(d), right=tuple(zip(*vt)))


def invariant_factors(matrix: Matrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, in divisibility order."""
    units, d, modulus, r = _eliminate(matrix)
    return (1,) * units + tuple(_divisibility_chain([math.gcd(x, modulus) for x in d])[:r])


def rank(matrix: Matrix) -> int:
    """Rank over the rationals."""
    _shape(matrix)
    return _bareiss(matrix)[0]


def cokernel(matrix: Matrix) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion invariant factors) of Z^rows / column span."""
    factors = invariant_factors(matrix)
    return len(matrix) - len(factors), tuple(d for d in factors if d > 1)


def kernel_rank(matrix: Matrix) -> int:
    """Dimension of the rational kernel (columns minus rank)."""
    return len(matrix[0]) - rank(matrix) if matrix else 0


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
