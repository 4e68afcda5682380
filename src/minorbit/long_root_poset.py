"""The level grading on long roots and the boundary matrices it carries.

The long roots of an irreducible system form a graded poset: a long root
sits at level ht_coroot(highest) - ht_coroot(root), shifted down by one on
the negative side.  Multiplication by the Chern class of the minimal-orbit
resolution acts level by level through the boundary matrices.

Each boundary matrix has one form, the columns ``_columns`` caches,
filled from the lowering edges that ``build`` recorded.  The cohomology
reads them as the rows of the transpose and ``weyl_oracle`` certifies
them entry by entry; ``d_matrix`` is a dense view for printing and the
tests, which hold it equal to the pairwise definition.

``build`` records each long root's level and the roots of each level, in
decreasing lexicographic order of the absolute coordinate vector.  On
positive levels this is exactly the order of the published diagrams
(coordinate strings read as words).  Negation maps level i onto level
2 h_dual - 3 - i and keeps the absolute coordinates, so the matrices in
complementary degrees are literal transposes of each other.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError
from .root_system import Root, RootSystem, cartan_of_subset


def dimension(rs: RootSystem) -> int:
    """Complex dimension of the minimal nilpotent orbit, 2 h_dual - 2."""
    return 2 * rs.h_dual - 2


def level(rs: RootSystem, root: Root) -> int:
    """Grading of a long root, from 0 (highest root) to 2 h_dual - 3."""
    lv = rs._level.get(root)
    if lv is None:
        raise DomainError(f"level is defined on long roots only, got {root}")
    return lv


def levels(rs: RootSystem) -> tuple[tuple[Root, ...], ...]:
    """All long roots by level, as ``build`` recorded them: decreasing tuple
    order on a positive level, increasing on a negative one, as all roots of
    one level share a sign."""
    return rs._levels


@lru_cache(maxsize=None)
def _columns(rs: RootSystem, i: int) -> tuple[dict[int, int], ...]:
    """Matrix i of the level-raising map from level i-1 to level i: for
    each root beta of level i-1, in level order, a dict {row: entry} of its
    nonzero entries, row being a position in level i.  Callers only read it.

    Entry (alpha, beta) is <beta, gamma^vee> when a reflection s_gamma sends
    beta to alpha, else 0.  Column beta is filled from its lowering edges
    (j, c) in ``build``'s record: c at row beta - c alpha_j when that root
    lies in level i, one dict lookup per edge and no pairing.  Between the
    two middle levels, i = h_dual - 1, the matrix is the Cartan matrix of
    the long simple roots with the signs dropped: 2 on (beta, -beta) and 1
    when beta - alpha is a root, i.e. when the two are joined in the diagram.
    """
    if i == rs.h_dual - 1:
        cartan = cartan_of_subset(rs, rs.long_simple_indices)
        return tuple({row: abs(x) for row, x in enumerate(col) if x} for col in zip(*cartan))
    lv = levels(rs)
    row_of = {alpha: row for row, alpha in enumerate(lv[i])}
    columns = []
    for beta in lv[i - 1]:
        edges = ((row_of.get(beta[:j] + (beta[j] - c,) + beta[j + 1 :]), c) for j, c in rs._lowering[beta])
        columns.append({row: c for row, c in edges if row is not None})
    return tuple(columns)


def d_matrix(rs: RootSystem, i: int) -> tuple[tuple[int, ...], ...]:
    """Matrix i (see ``_columns``) as dense rows: rows indexed by level i,
    columns by level i-1, in level order.  Built afresh on each call."""
    d = dimension(rs)
    if type(i) is not int or not 1 <= i <= d - 1:
        raise DomainError(f"matrix index {i!r} outside 1..{d - 1}")
    columns = _columns(rs, i)
    return tuple(tuple([column.get(row, 0) for column in columns]) for row in range(len(levels(rs)[i])))
