"""The level grading on long roots and the boundary matrices it carries.

The long roots of an irreducible system form a graded poset: a long root
sits at level ht_coroot(highest) - ht_coroot(root), shifted down by one on
the negative side.  Multiplication by the Chern class of the minimal-orbit
resolution acts level by level through the matrices ``d_matrix`` returns.

``edge_coefficient`` is the definition of each matrix entry, one pair of
roots at a time: the reflection linking beta to alpha is read off the
line of beta - alpha.  ``d_matrix`` assembles the same entries from the
columns instead: off the two middle levels the linking reflection is
simple, so a root beta of level i-1 has an edge only to the simple
reflections s_j(beta) = beta - c alpha_j with c = <beta, alpha_j^vee> > 0.
``build`` records these lowering edges (j, c) of every root, so a column
costs one dict lookup per edge and computes no pairing.  Between the two
middle levels the matrix is the Cartan matrix of the long simple roots
with the signs dropped.  The tests hold the assembly equal to the
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

import math
from functools import lru_cache

from .errors import DomainError
from .root_system import Root, RootSystem, cartan_of_subset

__all__ = ["level", "levels", "edge_coefficient", "d_matrix", "middle_matrix", "dimension"]


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


def _root_on_line(rs: RootSystem, v: Root) -> Root | None:
    """The positive root gamma with v in Z gamma, or None (roots are primitive)."""
    g = math.gcd(*v) if min(v) >= 0 else -math.gcd(*v)
    gamma = tuple(x // g for x in v)
    return gamma if rs.is_root(gamma) else None


def edge_coefficient(rs: RootSystem, beta: Root, alpha: Root) -> int:
    """Multiplicity of the covering edge from beta down to alpha.

    beta and alpha must be long with level(alpha) = level(beta) + 1.  The
    edge is the reflection s_gamma with s_gamma(beta) = alpha, and its
    coefficient is c = <beta, gamma^vee>.  Then beta - alpha = c gamma, so
    gamma is the root on the line of beta - alpha and the coefficient is c
    when c gamma = beta - alpha, else 0.

    This one rule covers every level.  s_gamma(beta)^vee = beta^vee -
    <gamma, beta^vee> gamma^vee, and a level step lowers the coroot height
    by 1, except across the middle (simple long roots to their negatives),
    where it drops by 2.  Off the middle this forces <gamma, beta^vee> = 1
    and ht(gamma^vee) = 1, so gamma is simple and c is 1 for gamma long, r
    for gamma short.  Across the middle either gamma = beta, with c = 2,
    or ht(gamma^vee) = 2 and gamma = beta - alpha is a root, with c = 1.
    """
    if level(rs, alpha) != level(rs, beta) + 1:
        raise DomainError("edge coefficient needs level(alpha) = level(beta) + 1")
    v = tuple(b - a for b, a in zip(beta, alpha))
    gamma = _root_on_line(rs, v)
    if gamma is None:
        return 0
    c = rs.pairing(beta, gamma)
    return c if tuple(c * x for x in gamma) == v else 0


@lru_cache(maxsize=None)
def d_matrix(rs: RootSystem, i: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of the level-raising map from level i-1 to level i.

    Rows are indexed by level i, columns by level i-1, both in the level
    sort order; entry (alpha, beta) is ``edge_coefficient(rs, beta, alpha)``.
    Each column beta is filled from its simple reflections: for every
    lowering edge (j, c) that ``build`` recorded for beta, the entry at
    row beta - c alpha_j is c when that root lies in level i.  Between the
    two middle levels (long simple roots to their negatives) the matrix is
    ``middle_matrix``: the entry is 2 on (beta, -beta) and 1 when
    beta - alpha is a root, i.e. when the two long simple roots are joined
    in the Dynkin diagram.
    """
    d = dimension(rs)
    if not 1 <= i <= d - 1:
        raise DomainError(f"matrix index {i} outside 1..{d - 1}")
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


def middle_matrix(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """The matrix between the two middle levels.

    Equals the Cartan matrix of the long-simple subsystem with the minus
    signs dropped, rows and columns both running through the long simple
    roots in index order.
    """
    return d_matrix(rs, rs.h_dual - 1)
