"""Irreducible reduced root systems with all derived combinatorial data.

Roots are integer coordinate vectors over the simple-root basis.  A type
is its Dynkin diagram: the bonds between simple roots and the squared
length of each simple root (short = 1).  A bond's Cartan entry
<alpha_i, alpha_j^vee> is -(|alpha_i|^2 // |alpha_j|^2 or 1): -2 or -3
from the long root to the short one, else -1.  The numbering follows the
usual conventions (E's branch node is vertex 4, the short roots of B/F
sit at the high end, G2 has the long root first), so the coordinate
strings n_1...n_rank match the standard published diagrams; ``build``, the
one place that orders, measures and grades roots, lists each level as they print it.
"""

from __future__ import annotations

import re
from collections import defaultdict, namedtuple
from operator import neg

from .errors import DomainError, InvalidTypeError, weighed_cache

Root = tuple[int, ...]

_RANK_CONSTRAINTS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

# Coxeter number h in closed form; a type has rank * h roots.
_COXETER_NUMBER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n,
    "C": lambda n: 2 * n,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 12,
    "G": lambda n: 6,
}

# Dual Coxeter number h^vee, one more than the coroot height of the highest root.
_DUAL_COXETER_NUMBER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 9,
    "G": lambda n: 4,
}

# Squared length of each simple root, short roots = 1.
_SIMPLE_LENGTHS = {
    "A": lambda n: [1] * n,
    "B": lambda n: [2] * (n - 1) + [1],
    "C": lambda n: [1] * (n - 1) + [2],
    "D": lambda n: [1] * n,
    "E": lambda n: [1] * n,
    "F": lambda n: [2, 2, 1, 1],
    "G": lambda n: [3, 1],
}

# No Cartan matrix, and so no root system, is made for a type with more
# roots than this: the closure grows about as rank^3 in the classical series.
ROOT_BUDGET = 10_000


class TypeLabel(namedtuple("TypeLabel", "series rank")):
    """A validated Dynkin type: series letter and rank, ordered as a tuple."""

    __slots__ = ()

    def __new__(cls, series: str, rank: int):
        if type(series) is not str or series not in _RANK_CONSTRAINTS:
            raise InvalidTypeError(f"unknown series {series!r}")
        if type(rank) is not int:
            raise InvalidTypeError(f"rank must be an int, got {rank!r}")
        if not _RANK_CONSTRAINTS[series](rank):
            raise InvalidTypeError(f"rank {rank} invalid for series {series}")
        return super().__new__(cls, series, rank)

    @classmethod
    def _make(cls, iterable):  # _replace calls it too: both go through __new__'s checks
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def parse_type(text: str) -> TypeLabel:
    """Parse labels like "A5", "e8", "G2" (letter case-insensitive)."""
    if type(text) is not str:
        raise InvalidTypeError(f"a type label to parse is a str, got {text!r}")
    m = re.fullmatch(r"\s*([A-Za-z])(\d+)\s*", text)
    if not m:
        raise InvalidTypeError(f"cannot parse type label {text!r}")
    try:
        rank = int(m.group(2))
    except ValueError:  # over the interpreter's limit on digits in int(str)
        raise InvalidTypeError(f"rank of {len(m.group(2))} digits is too long") from None
    return TypeLabel(m.group(1).upper(), rank)


def _bonds(s: str, n: int) -> list[tuple[int, int]]:
    """The diagram's bonds, 0-based: a chain but for D's fork and E's branch."""
    if s == "D":
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    if s == "E":
        return [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    return [(i, i + 1) for i in range(n - 1)]


def cartan_matrix(label: TypeLabel) -> list[list[int]]:
    """Cartan matrix with entries <alpha_i, alpha_j^vee>."""
    return _cartan_and_lengths(label)[0]


def _check_root_budget(label: TypeLabel) -> int:
    """The Coxeter number h; InvalidTypeError for anything but a TypeLabel (every
    label path passes through here first), DomainError when the rank * h roots
    of the type are more than ROOT_BUDGET."""
    if type(label) is not TypeLabel:
        raise InvalidTypeError(f"expected a TypeLabel (see parse_type), got {label!r}")
    h = _COXETER_NUMBER[label.series](label.rank)
    if (roots := label.rank * h) > ROOT_BUDGET:
        count = roots if roots < 10**100 else "over 10^100"  # str() refuses an int past 4,300 digits
        raise DomainError(f"{label} has {count} roots, over the budget of {ROOT_BUDGET}")
    return h


def _cartan_and_lengths(label: TypeLabel) -> tuple[list[list[int]], list[int], int, int]:
    """(cartan, squared length of each simple root, max squared length r,
    Coxeter number h).

    Lengths are normalized so the short roots have squared length 1.
    Refuses, before making the matrix, a type over the root budget.
    """
    h = _check_root_budget(label)
    s, n = label
    lengths = _SIMPLE_LENGTHS[s](n)
    c = [[0] * i + [2] + [0] * (n - 1 - i) for i in range(n)]
    for i, j in _bonds(s, n):
        c[i][j] = -(lengths[i] // lengths[j] or 1)
        c[j][i] = -(lengths[j] // lengths[i] or 1)
    return c, lengths, max(lengths), h


class RootSystem:
    """All roots and derived data of one irreducible type.

    ``build`` is the only constructor and is deterministic, so the type
    label determines everything else: equality and hashing read the label
    alone, and the oracle keys its cached tables on it.
    """

    type_label: TypeLabel
    cartan: tuple[tuple[int, ...], ...]
    # Phi^+ by height, then by decreasing coordinates, then each of them negated; every
    # reader takes this order as it is: alpha_k is roots[k], the highest root is last in Phi^+
    roots: tuple[Root, ...]
    positive_roots: tuple[Root, ...]
    long_simple_indices: tuple[int, ...]
    h_dual: int
    _level: dict[Root, int | None]  # each root's level, None when short: read in this module alone
    _levels: tuple[tuple[Root, ...], ...]  # the long roots of each level
    # matrix i < h_dual, level i-1 to level i: per root of level i-1, its nonzero {place in level i: entry}
    _columns: tuple[tuple[dict[int, int], ...], ...]

    def __init__(self, **fields) -> None:
        if fields.keys() != self.__annotations__.keys():
            raise TypeError(f"RootSystem takes exactly the fields {', '.join(self.__annotations__)}")
        vars(self).update(fields)

    def __repr__(self) -> str:
        return f"RootSystem(type_label={self.type_label!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootSystem):
            return NotImplemented
        return self.type_label == other.type_label

    def __hash__(self) -> int:
        return hash(self.type_label)

    @property
    def rank(self) -> int:
        return self.type_label.rank

    def is_root(self, v: Root) -> bool:
        """False for anything but a tuple of ints: (1.0, 0, 0) and (True, False, False)
        equal a root of A3 but are none, and a list is never a root."""
        return type(v) is tuple and {int}.issuperset(map(type, v)) and v in self._level


def height(root: Root) -> int:
    return sum(root)


@weighed_cache(_check_root_budget, lambda label: label.rank**2 * _check_root_budget(label))  # root coordinates
def build(label: TypeLabel) -> RootSystem:
    """Construct the full root system of the given irreducible type."""
    cartan, lengths, r, h = _cartan_and_lengths(label)
    n = label.rank
    h_dual = _DUAL_COXETER_NUMBER[label.series](n)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rows = [[(k, x) for k, x in enumerate(row) if x] for row in cartan]

    # Phi^+ closes the simple roots under the simple reflections that raise a root: s_j raises
    # w to v = w - c alpha_j iff c = p[j] = <w, alpha_j^vee> < 0.  Each root, by discovery
    # number, keeps its nonzero p[j], updated through Cartan row j.  A reflection keeps the
    # length, so a long root carries sigma = sum v_i |alpha_i|^2 = r ht(v^vee), a short one None.
    # The raises between long roots are kept as lowering edges (w, -c, v).  No root is taken
    # past rank * h / 2, as a wrong matrix could give infinitely many.
    failed = f"root enumeration failed for {label}"
    pairings, sigma = [dict(row) for row in rows], [x if x == r else None for x in lengths]
    found, edges, number = list(simple), [], {v: i for i, v in enumerate(simple)}
    for w, root in enumerate(found):
        for j, c in pairings[w].items():
            if c < 0:
                v = number.setdefault(image := root[:j] + (root[j] - c,) + root[j + 1 :], len(found))
                if v == len(found) and 2 * v <= n * h:
                    p = pairings[w].copy()
                    for k, x in rows[j]:
                        p[k] = p.get(k, 0) - c * x
                        if not p[k]:
                            del p[k]
                    found.append(image)
                    pairings.append(p)
                    sigma.append(None if sigma[w] is None else sigma[w] - c * lengths[j])
                if sigma[w] is not None:
                    edges.append((w, -c, v))
    if 2 * len(found) != n * h:
        raise InvalidTypeError(f"{failed}: the closure stopped at {2 * len(found)} roots, not rank * h = {n * h}")
    del pairings, number  # only the closure reads them: freed before the record is made

    # Phi^- = -Phi^+.  A positive long root whose coroot has height t sits at level
    # h_dual - 1 - t, its negative at h_dual - 2 + t, in the same place within its level.
    order = sorted(range(len(found)), key=lambda k: (-height(found[k]), found[k]), reverse=True)
    positive = [found[k] for k in order]  # by height, then decreasing v
    negative = [tuple(map(neg, v)) for v in positive]
    d = 2 * h_dual - 2
    level, by_level, place = {}, defaultdict(list), [(None, None)] * len(found)
    for k, v, minus_v in zip(order, positive, negative):
        if sigma[k] is None:
            level[v] = level[minus_v] = None
            continue
        up = h_dual - 1 - sigma[k] // r
        place[k], level[v], level[minus_v] = (up, len(by_level[up])), up, d - 1 - up
        by_level[up].append(v)
        by_level[d - 1 - up].append(minus_v)
    if by_level.keys() != set(range(d)):
        raise InvalidTypeError(f"{failed}: the long roots do not fill levels 0..{d - 1}")
    if by_level[0] != [positive[-1]]:
        raise InvalidTypeError(f"{failed}: level 0 is not the highest root alone")

    # An edge (w, c, v) lowers v in level i-1 to w in level i: entry c at (w, v) in matrix i.
    # Between the two middle levels the matrix is the long simple roots' Cartan matrix, symmetric
    # as they have one length, unsigned.  Matrix d-i, of the negated edges, is left to d_matrix.
    levels = tuple(tuple(by_level[i]) for i in range(d))
    long_simple = tuple(i for i in range(n) if lengths[i] == r)
    columns = [()] + [[{} for _ in members] for members in levels[: h_dual - 2]]
    for w, c, v in edges:
        (i, row), (up, col) = place[w], place[v]
        if up != i - 1:
            raise InvalidTypeError(f"{failed}: a raise between long roots does not step one level")
        columns[i][col][row] = c
    columns.append([{place[k][1]: abs(x) for k, x in rows[j] if sigma[k] is not None} for j in long_simple])

    return RootSystem(
        type_label=label,
        cartan=tuple(tuple(row) for row in cartan),
        roots=tuple(positive + negative),
        positive_roots=tuple(positive),
        long_simple_indices=long_simple,
        h_dual=h_dual,
        _level=level,
        _levels=levels,
        _columns=tuple(map(tuple, columns)),
    )


def _check_record(rs) -> None:
    """DomainError for anything but a RootSystem, before any field of it is read."""
    if type(rs) is not RootSystem:
        raise DomainError(f"expected a RootSystem (see build), got {type(rs).__name__}")


def highest_root(rs: RootSystem) -> Root:
    """The unique maximal root; its coordinates dominate every positive root."""
    _check_record(rs)
    return rs.positive_roots[-1]


def is_long(rs: RootSystem, root: Root) -> bool:
    """True iff the root has maximal squared length (decided once, in build)."""
    _check_record(rs)
    if not rs.is_root(root):
        raise DomainError(f"{root} is not a root of {rs.type_label}")
    return rs._level[root] is not None


def _long_level(rs: RootSystem, root: Root, what: str) -> int:
    """The level build gave a long root; DomainError naming what for anything else."""
    _check_record(rs)
    if not rs.is_root(root) or (lv := rs._level[root]) is None:
        raise DomainError(f"{what} is defined on long roots only, got {root}")
    return lv


def dual_height(rs: RootSystem, root: Root) -> int:
    """Height of the coroot of a long root, negative for a negative root."""
    lv = _long_level(rs, root, "dual height")
    return rs.h_dual - 1 - lv if lv < rs.h_dual - 1 else rs.h_dual - 2 - lv  # build's level rule inverted


def _check_indices(rs: RootSystem, indices) -> None:
    _check_record(rs)
    if type(indices) not in (tuple, list, range):  # an iterator would be spent by the checks, a dict read by its keys
        name = type(indices).__name__
        raise DomainError(f"simple-root indices of {rs.type_label} are a tuple, list or range, got {name}")
    for i in indices:
        if type(i) is not int or not 0 <= i < rs.rank:
            raise DomainError(f"{i!r} is not a simple-root index of {rs.type_label}")
    if len(set(indices)) < len(indices):
        raise DomainError(f"the simple-root indices {tuple(indices)} of {rs.type_label} repeat an index")


def cartan_of_subset(rs: RootSystem, indices: tuple[int, ...] | list[int]) -> list[list[int]]:
    """Principal submatrix of the Cartan matrix on a vertex subset."""
    _check_indices(rs, indices)
    return [[rs.cartan[i][j] for j in indices] for i in indices]


def long_simple_subsystem(rs: RootSystem) -> TypeLabel:
    """Type of the root subsystem generated by the long simple roots: the type
    itself when all are long, else A_k (in B, C, F, G they form a chain)."""
    _check_record(rs)
    k = len(rs.long_simple_indices)
    return rs.type_label if k == rs.rank else TypeLabel("A", k)
