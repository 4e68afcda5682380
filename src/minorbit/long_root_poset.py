"""The level grading on long roots and the boundary matrices it carries.

The long roots of an irreducible system form a graded poset: a long root
sits at level ht_coroot(highest) - ht_coroot(root), shifted down by one on
the negative side.  Multiplication by the Chern class of the minimal-orbit
resolution acts level by level through the boundary matrices: entry
(alpha, beta) of matrix i, from level i-1 to level i, is <beta, gamma^vee>
when a reflection s_gamma sends beta to alpha, else 0.  ``build`` records
the grading and, from its closure, the nonzero entries of each column of
matrices 1 .. h_dual - 1.  The cohomology reads those columns as the rows
of the transpose and ``weyl_oracle`` certifies them entry by entry;
``d_matrix`` is a dense view for printing and the tests, which hold it
equal to the pairwise definition.

Each level is in decreasing lexicographic order of the absolute coordinate
vector: on positive levels, the order of the published diagrams.  Negation
maps level i onto level 2 h_dual - 3 - i and keeps the absolute coordinates,
so matrix d - i is the literal transpose of matrix i, and is not recorded.
"""

from __future__ import annotations

from .errors import DomainError
from .root_system import Root, RootSystem, _check_record, _long_level


def dimension(rs: RootSystem) -> int:
    """Complex dimension of the minimal nilpotent orbit, 2 h_dual - 2."""
    _check_record(rs)
    return 2 * rs.h_dual - 2


def level(rs: RootSystem, root: Root) -> int:
    """Grading of a long root, from 0 (highest root) to 2 h_dual - 3."""
    return _long_level(rs, root, "level")


def levels(rs: RootSystem) -> tuple[tuple[Root, ...], ...]:
    """All long roots by level, as ``build`` recorded them: decreasing tuple
    order on a positive level, increasing on a negative one, as all roots of
    one level share a sign."""
    _check_record(rs)
    return rs._levels


def d_matrix(rs: RootSystem, i: int) -> tuple[tuple[int, ...], ...]:
    """Matrix i as dense rows: rows indexed by level i, columns by level i-1, in level
    order.  Built afresh on each call from ``build``'s columns, transposed above h_dual - 1."""
    d = dimension(rs)
    if type(i) is not int or not 1 <= i <= d - 1:
        raise DomainError(f"matrix index {i!r} outside 1..{d - 1}")
    j = min(i, d - i)  # of matrices i and d - i, transposes of each other, build records the lower
    columns = rs._columns[j]
    rows = tuple(tuple([column.get(row, 0) for column in columns]) for row in range(len(levels(rs)[j])))
    return rows if j == i else tuple(zip(*rows))
