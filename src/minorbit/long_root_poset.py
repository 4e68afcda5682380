"""The level grading on long roots and the boundary matrices it carries.

The long roots of an irreducible system form a graded poset: a long root
sits at level ht_coroot(highest) - ht_coroot(root), shifted down by one on
the negative side.  Multiplication by the Chern class of the minimal-orbit
resolution acts level by level through the matrices ``d_matrix`` returns.

An entry of matrix i is c = <beta, gamma^vee> when a reflection s_gamma
sends beta in level i-1 to alpha in level i (then beta - alpha = c gamma),
else 0.  Off the two middle levels that reflection is simple, so
``d_matrix`` fills each column beta from the lowering edges (j, c) that
``build`` recorded, one dict lookup per edge and no pairing; between the
middle levels the matrix is the Cartan matrix of the long simple roots
with the signs dropped.  The tests hold the assembly equal to the pairwise
definition, and ``weyl_oracle`` certifies the entries against the Weyl
group.

Within a level, roots are listed in decreasing lexicographic order of the
absolute coordinate vector.  On positive levels this is exactly the order
of the published diagrams (coordinate strings read as words).  Negation
maps level i onto level 2 h_dual - 3 - i and keeps the absolute
coordinates, so the matrices in complementary degrees are literal
transposes of each other.
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
    dh = rs._dual_heights.get(root)
    if dh is None:
        raise DomainError(f"level is defined on long roots only, got {root}")
    top = rs.h_dual - 1
    return top - dh if dh > 0 else top - dh - 1


@lru_cache(maxsize=None)
def levels(rs: RootSystem) -> tuple[tuple[Root, ...], ...]:
    """All long roots, the record's own tuples, bucketed by ``level``.

    Each level is in decreasing lexicographic order of the absolute
    coordinates.  All roots of one level share a sign, so that is
    decreasing tuple order on a positive level, increasing on a negative
    one.
    """
    buckets: dict[int, list[Root]] = {}
    for root in rs._dual_heights:
        buckets.setdefault(level(rs, root), []).append(root)
    if sorted(buckets) != list(range(dimension(rs))):
        raise DomainError(f"level range broken for {rs.type_label}")
    zero = (0,) * rs.rank
    return tuple(tuple(sorted(buckets[i], reverse=buckets[i][0] > zero)) for i in range(len(buckets)))


@lru_cache(maxsize=None, typed=True)  # so that 2.0 and True reach the check, not matrix 2 or 1
def d_matrix(rs: RootSystem, i: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of the level-raising map from level i-1 to level i.

    Rows are indexed by level i, columns by level i-1, both in the level
    sort order; entry (alpha, beta) is <beta, gamma^vee> when a reflection
    s_gamma sends beta to alpha, else 0.  Each column beta is filled from
    its simple reflections: for every lowering edge (j, c) that ``build``
    recorded for beta, the entry at row beta - c alpha_j is c when that
    root lies in level i.  Between the
    two middle levels (long simple roots to their negatives), i = h_dual - 1,
    the matrix is the Cartan matrix of the long-simple subsystem with the
    signs dropped: the entry is 2 on (beta, -beta) and 1 when beta - alpha
    is a root, i.e. when the two long simple roots are joined in the Dynkin
    diagram.
    """
    d = dimension(rs)
    if type(i) is not int or not 1 <= i <= d - 1:
        raise DomainError(f"matrix index {i!r} outside 1..{d - 1}")
    if i == rs.h_dual - 1:
        return tuple(tuple(map(abs, row)) for row in cartan_of_subset(rs, rs.long_simple_indices))
    lv = levels(rs)
    sources, targets = lv[i - 1], lv[i]
    row_of = {alpha: row for row, alpha in enumerate(targets)}
    mat = [[0] * len(sources) for _ in targets]
    for col, beta in enumerate(sources):
        for j, c in rs._lowering[beta]:
            row = row_of.get(beta[:j] + (beta[j] - c,) + beta[j + 1 :])
            if row is not None:
                mat[row][col] = c
    return tuple(tuple(row) for row in mat)
