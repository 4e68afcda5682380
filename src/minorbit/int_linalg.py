"""Exact integer linear algebra: Smith normal form, cokernels, kernel ranks.

Everything here works on plain ``list[list[int]]`` matrices with Python's
arbitrary-precision integers, so no intermediate result can overflow.  An
entry that is not an ``int`` (bools included) raises DomainError, as does
a matrix or a row that is not a list or tuple.  Inputs are only read, so a
tuple of tuples serves as well.  A matrix with zero columns is written
``[[], [], ...]``; a 0x0 matrix is ``[]``.

``smith`` diagonalises by row Hermite passes (Kannan and Bachem, SIAM J.
Comput. 8, 1979), every entry reduced modulo a pivot, alternated on the
matrix and on its transpose until it is diagonal; it carries U and V
along as extra columns, so they stay bounded.  ``invariant_factors`` (so
``cokernel``) carries no transform: on rows held as dicts of their
nonzero entries, each pivot on an entry +-1 of least fill is one
invariant factor 1, and costs about what its step does.  A block left
with one row or column, or 2x2, has its factors in closed form (gcds of
its minors), and a diagonal one its divisibility chain; any other takes
a Hermite pass and a new round of unit pivots.  The cohomology passes
``_invariant_factors`` the recorded columns of each boundary matrix in
that form, unchecked.  Most leave no block; the rest, and the Cartan
matrices of ``decomposition``, leave a diagonal or a 2x2 block, so no
matrix the program makes takes a Hermite pass.  ``rank`` (so
``kernel_rank``) is one fraction-free Bareiss pass.  The independent
references live in the tests: gcds of minors, sympy, and the
certification of U * A * V.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from itertools import chain, compress

from .errors import DomainError

Matrix = list[list[int]]


def _shape(matrix: Matrix) -> tuple[int, int]:
    """(rows, columns); DomainError for anything but a list or tuple of rows,
    each a list or tuple, for a ragged matrix or for a non-int entry."""
    if type(matrix) not in (list, tuple) or not {list, tuple}.issuperset(map(type, matrix)):
        raise DomainError("a matrix is a list or tuple of rows, each a list or tuple")
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


def _unit_pivots(rows, width: int) -> tuple[int, Matrix]:
    """Pivot on entries +-1 while any is left; returns their count and the
    leftover block, its nonzero rows and columns in input order.

    Each input row, a dict of its nonzero entries or their (column, entry)
    pairs, is copied into a dict; columns are sets of row indices.  Each
    pivot (i, j) has the least fill (|row i| - 1) * (|column j| - 1), the
    most entries its step can create.  A unit alone in its row or column
    has fill 0: those of the input, and each one a step leaves, are stacked
    and taken newest first.  With none stacked, a unit in a row of r + 1
    entries has fill r or more: the scan for the least fill, ties going to
    the least (i, j), skips rows too short or too long, builds nothing per
    entry, stops at fill 1, and never runs on empty rows.  Row i times the
    pivot is subtracted from every other row of column j, then row i and
    column j go: one invariant factor 1.  The pivots are units, so every
    leftover entry is, up to sign, a minor of the input.
    """
    rows = list(map(dict, rows))
    cols = [set() for _ in range(width)]
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
        elif not any(rows):
            return units, []
        else:
            least, i = width * len(rows), -1  # above every fill
            for k, row in enumerate(rows):
                if 0 < (r := len(row) - 1) < least:
                    for c, x in row.items():
                        if x in (1, -1) and ((f := r * (len(cols[c]) - 1)) < least or f == least and k == i and c < j):
                            least, i, j = f, k, c
                    if least == 1:
                        break
            if i < 0:
                break
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
    """Row Hermite form of [a | t], pivots of either sign, for t unimodular
    or with empty rows; returns it split back into (a, t).

    Rows enter one at a time (Kannan and Bachem, SIAM J. Comput. 8, 1979).
    Each is cleared against the pivot rows, by extended-gcd pairs where the
    pivot does not divide, until its leading entry is a new pivot.  Each
    row that changed (the new one, or one of a pair) is then reduced against
    every row below it, and every other row against the changed rows only;
    one sweep after the last row makes every entry above a pivot a
    symmetric residue modulo it.

    A row that clears to zero is a left-kernel row and is dropped.  With t
    unimodular, [a | t] has full row rank, so none does: a row whose a-part
    vanishes gets its pivot in t and is kept reduced too, and no entry
    grows without bound.  The columns of t enter in reverse order: with
    t = I, no row so far has an entry in t's columns past i, so a
    left-kernel row i leads with its own diagonal entry and becomes a pivot
    at once, instead of being cleared against every earlier left-kernel row.
    """
    w = len(a[0])
    rows: Matrix = []  # the Hermite form so far, by pivot column
    cols: list[int] = []
    for row in map(list.__add__, a, (r[::-1] for r in t)):
        moved = set()  # pivot columns whose rows changed
        for j in range(len(row)):  # each step leaves row[j] zero
            if not row[j]:
                continue
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
        # A changed row clears the rows that enter next: left unreduced, a
        # dense 144x144 pass reaches 3819 bits instead of 810.  Reducing all
        # rows in full costs a quotient per pair and insertion, which
        # dominates once t adds hundreds of left-kernel rows (a 5x500 input).
        hot = sorted(bisect.bisect_left(cols, j) for j in moved)
        for k in reversed(hot):
            for i in range(k + 1, len(rows)):
                _reduce((rows[k],), rows[i], cols[i])
        for k in hot:
            _reduce(rows[:k], rows[k], cols[k])
    for k in range(1, len(rows)):
        _reduce(rows[:k], rows[k], cols[k])
    return [row[:w] for row in rows], [row[w:][::-1] for row in rows]


def _reduce(targets: Matrix, h: list[int], j: int) -> None:
    """Make the entry of each target row at column j a symmetric residue
    modulo the pivot h[j], by row -= q * h with h zero before column j."""
    p = 2 * h[j]
    for row in targets:
        q = (2 * row[j] + h[j]) // p
        if q:
            _subtract(row, q, h, j)


def _subtract(row: list[int], q: int, h: list[int], j: int) -> None:
    """row -= q * h in place, where h is zero before column j."""
    for i in range(j, len(h)):  # faster than building a new list
        row[i] -= q * h[i]


def _diagonal(a: Matrix) -> bool:
    """Whether every entry of a off its diagonal is zero."""
    return not any(any(row[:i]) or any(row[i + 1 :]) for i, row in enumerate(a))


def smith(matrix: Matrix) -> SmithForm:
    """Smith normal form of an integer matrix.

    Returns U, diag, V with U*matrix*V diagonal, |det U| = |det V| = 1,
    diag nonnegative and each entry dividing the next (zeros at the tail).
    U and V ride along the Hermite passes, so they stay bounded and
    deterministic; the diagonal is canonical regardless.
    """
    m, n = _shape(matrix)
    a, sides, passes = [list(row) for row in matrix], [identity(m), identity(n)], 0
    # Row Hermite passes alternate on a and on its transpose until a is
    # diagonal, each carrying its side's transform, U or V transposed.  At
    # least one runs, even on a diagonal input: a Hermite form puts its zero
    # rows last, so a diagonal result has its zeros at the tail.
    while a and (not passes or not _diagonal(a)):
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
    width = _shape(matrix)[1]  # before the rows are iterated
    return _invariant_factors((compress(enumerate(row), row) for row in matrix), width)


def _invariant_factors(rows, width: int) -> tuple[int, ...]:
    """``invariant_factors`` of sparse rows, unchecked: a 1 for each unit
    pivot, then the factors of the block left, which has no zero row or
    column.  A block of one row or column has the gcd g of its entries; a
    2x2 has g and |det|/g (g^2 divides det), or g alone if det = 0; a
    diagonal block (then square) has the divisibility chain of its entries.
    Any other block takes one Hermite pass without a transform (its rows
    are empty, so no zero row survives), which leaves each pivot +-1 alone
    in its column: the next round of unit pivots takes it with no fill."""
    units, a = _unit_pivots(rows, width)
    while a:
        if len(a) == 1 or len(a[0]) == 1:
            return (1,) * units + (math.gcd(*chain.from_iterable(a)),)
        if len(a) == len(a[0]) == 2:
            (w, x), (y, z) = a
            g, det = math.gcd(w, x, y, z), abs(w * z - x * y)
            return (1,) * units + ((g, det // g) if det else (g,))
        if _diagonal(a):
            return (1,) * units + tuple(_divisibility_chain([abs(row[i]) for i, row in enumerate(a)]))
        h = _hermite(a, [[]] * len(a))[0]
        more, a = _unit_pivots((compress(enumerate(col), col) for col in zip(*h)), len(h))
        units += more
    return (1,) * units


def rank(matrix: Matrix) -> int:
    """Rank over the rationals, by one fraction-free (Bareiss) pass: each
    entry is a minor of the input, so divisions are exact.  Each column is
    dropped once it has been used, so the rows shrink by one per step."""
    _shape(matrix)
    rows, r, prev = [list(row) for row in matrix], 0, 1
    while rows and rows[0]:
        k = next((k for k, row in enumerate(rows) if row[0]), None)
        if k is None:
            rows = [row[1:] for row in rows]
            continue
        p, *piv = rows.pop(k)
        rows = [[(p * x - h * y) // prev for x, y in zip(rest, piv)] for h, *rest in rows]
        r, prev = r + 1, p
    return r


def cokernel(matrix: Matrix) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion invariant factors) of Z^rows / column span."""
    factors = invariant_factors(matrix)
    return len(matrix) - len(factors), tuple(d for d in factors if d > 1)


def kernel_rank(matrix: Matrix) -> int:
    """Dimension of the rational kernel (columns minus rank); ``rank`` checks the shape first."""
    r = rank(matrix)
    return len(matrix[0]) - r if matrix else 0


# Miller-Rabin with the first 13 primes as bases decides every p below
# MILLER_RABIN_BOUND exactly (Sorenson and Webster, Strong pseudoprimes to
# twelve prime bases, Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic primality test for p < MILLER_RABIN_BOUND (~3.3e24).

    Larger p and a p that is not an int raise DomainError, bools included.
    """
    if type(p) is not int:
        raise DomainError(f"primality of a non-integer {p!r}")
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
    if type(free_rank) is not int or free_rank < 0:
        raise DomainError(f"free rank {free_rank!r} is not an int >= 0")
    if type(torsion) not in (tuple, list) or not {int}.issuperset(map(type, torsion)):
        raise DomainError(f"torsion must be a tuple or list of ints: {torsion!r}")
    _check_prime(ell)
    return free_rank + _torsion_f_dimension(torsion, ell)


def _check_prime(ell: int) -> None:
    """DomainError unless ell is a prime (see is_prime for what it refuses to decide)."""
    if not is_prime(ell):
        raise DomainError(f"{ell} is not prime")


def _torsion_f_dimension(torsion, ell: int) -> int:
    """dim over F_ell of F_ell tensor (sum Z/t), for ints t and a prime ell, unchecked."""
    return sum(1 for t in torsion if t % ell == 0)
