"""Weyl-group oracle over minimal coset representatives.

The level grading on long roots is the length function on W^J, the
minimal representatives of W modulo the stabilizer W_J of the highest
root (J: the simple roots orthogonal to it).  This module checks that
dictionary without building W: ``_walk`` generates W^I for any
simple-root subset I by left multiplication (Deodhar's lemma; Bjorner and
Brenti, Combinatorics of Coxeter Groups, 2.4-2.5), one length at a time,
holding two layers at once and deciding every step on the permutations
alone, never through ``levels`` or the boundary matrices.  ``coset_reps``
collects the walk into a tuple.

An element is a permutation of the root list, a tuple with perm[i] the index of the
image of root i; the positive roots come first, so a root index i is positive iff
i < |Phi^+|.  Only the simple reflections come from the Cartan matrix; the others are
conjugated from them (s_gamma = s_j s_{s_j(gamma)} s_j), a few heights at a time, and none
is kept.  An entry beta -> alpha of a boundary matrix is nonzero exactly when x_alpha =
s_gamma x_beta, so the matrices are a fact about the group alone.  ``_verify_table``, made
from the Cartan matrix and the root list alone, is the one entry kept per type in the
package's one store (``errors.weighed_cache``), weighed by every tuple slot it holds: W^J,
those edges, and the reflection lengths.  Each call reads the record afresh and compares it
with the table: the shape and every entry of the recorded matrices, the grading, read off
the levels the cohomology reads, the positive roots and their heights.  So a warm cache
decides no verdict on them.  Each call refuses, before any work or any table, an input
whose element count times |Phi| exceeds ORACLE_BUDGET: |W^I| in ``coset_reps``, the larger
of |W^J| and |Phi^+| in the checks.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from itertools import chain, compress, repeat
from operator import add, attrgetter, itemgetter, sub

from .errors import DomainError, InvariantFailureError, weighed_cache
from .root_system import RootSystem, _check_indices, _check_record, _check_root_budget, height, highest_root

# Largest |W^I| * |Phi| an oracle call works on: W(E6) whole is 3,732,480;
# verify admits A44, B31, C37, D32 and every exceptional type.
ORACLE_BUDGET = 4_000_000


class WeylElement(namedtuple("WeylElement", "perm length")):
    """perm[i] is the index of the image of root i; length is the Coxeter length."""

    __slots__ = ()


def _simple_reflection(rs: RootSystem, index: dict, k: int) -> tuple[int, ...]:
    """The permutation of the roots made by s_k, which changes coordinate k alone:
    s_k(v) = v - c alpha_k with c = <v, alpha_k^vee> = sum_i v_i cartan[i][k].  Only the
    positive v with c != 0 are looked up; s_k(-v) = -s_k(v).  Its entries are the int
    objects of ``index``, so every permutation composed from it shares them too."""
    positive = rs.positive_roots
    npos = len(positive)
    dots = [0] * npos
    for i, row in enumerate(rs.cartan):
        if t := row[k]:
            dots = list(map(add, dots, map(t.__mul__, map(itemgetter(i), positive))))
    perm = list(range(npos))
    for i in compress(range(npos), dots):
        v = positive[i]
        if (image := v[:k] + (v[k] - dots[i],) + v[k + 1 :]) not in index:
            raise InvariantFailureError(f"{rs.type_label}: s_{k + 1} sends {v} to {image}, which the root list lacks")
        perm[i] = index[image]
    return _compose(tuple(index.values()), perm + [p + npos if p < npos else p - npos for p in perm])


def _simple_reflections(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    index = {root: i for i, root in enumerate(rs.roots)}
    return tuple(map(partial(_simple_reflection, rs, index), range(rs.rank)))


def _compose(outer: tuple, inner: tuple) -> tuple:
    """Permutation product: result[i] = outer[inner[i]] (every root list has
    at least two entries, so itemgetter returns a tuple)."""
    return itemgetter(*inner)(outer)


def _reflection_table(rs: RootSystem, simple: tuple):
    """Yield s_gamma for each positive root gamma, in ``rs.positive_roots`` order: the simple ones
    first, then each later gamma from a lower s_j(gamma), as s_gamma = s_j s_{s_j(gamma)} s_j.
    s_j(gamma) = gamma - <gamma, alpha_j^vee> alpha_j is at most 3 heights lower, so only the
    reflections of heights ht(gamma) - 3 .. ht(gamma) are held, dropped by height.  A Phi^+ out of
    height order, listing gamma before every lower s_j(gamma) or after the one it needs was dropped,
    is an invariant failure."""
    positive, held = rs.positive_roots, {}  # height -> {root index: s_gamma}
    for k, gamma in enumerate(positive):
        if k < rs.rank:
            s = simple[k]
        else:
            lower = next((s for s in simple if s[k] < k), None)
            if (between := lower and held.get(height(positive[lower[k]]), {}).get(lower[k])) is None:
                raise InvariantFailureError(f"{rs.type_label}: Phi^+ is out of height order at {gamma}")
            s = _compose(lower, _compose(between, lower))
        held.setdefault(top := height(gamma), {})[k] = s
        for h in [h for h in held if h < top - 3]:
            del held[h]
        yield s


def _check_budget(rs: RootSystem, elements: int, what: str) -> None:
    cost = elements * (roots := rs.rank * _check_root_budget(rs.type_label))  # |Phi| = rank * h
    if cost > ORACLE_BUDGET:
        raise DomainError(
            f"{rs.type_label}: {what} = {elements} times |Phi| = {roots} is {cost}, over the budget of {ORACLE_BUDGET}"
        )


def _coset_count(rs: RootSystem, indices) -> int:
    """|W^I| = |W| / |W_I| in closed form, the Poincare series of W / W_I at
    t = 1: the product of (ht + 1) / ht over the positive roots outside the
    span of I."""
    outside = set(range(rs.rank)).difference(indices)
    heights = [height(v) for v in rs.positive_roots if any(v[k] for k in outside)]
    return math.prod(h + 1 for h in heights) // math.prod(heights)


def _walk(rs: RootSystem, indices, gens):
    """W^I for a checked simple-root subset I by the simple reflections gens, one
    length at a time from the identity: each layer is a list of (w, w's images of
    the simple roots), and only it and the next are held.  The images determine w;
    A1 keeps a second one, the image of -alpha_1, so ``_compose`` returns a tuple on them.

    W^I is the set of w sending every alpha_k, k in I, to a positive root.
    From w in W^I, s_j w is longer exactly when w^-1(alpha_j) > 0, and
    then s_j w lies in W^I unless w^-1(alpha_j) is some alpha_k, k in I,
    because s_j makes only alpha_j negative among the positive roots.
    Every element of W^I is reached this way from the identity.  Each w
    travels with w^-1, so w^-1(alpha_j) is one lookup, and a new s_j w is
    told apart by its images of the simple roots.
    """
    count, npos = _coset_count(rs, indices), len(rs.positive_roots)
    blocked = set(indices)  # alpha_k is root k
    identity = tuple(range(len(rs.roots)))
    layer, seen, length = [(identity, identity[: max(rs.rank, 2)], identity)], 0, 0  # (w, images, w^-1)
    while layer:
        seen += len(layer)
        if seen > count:  # a record that breaks the rule above would walk on without end
            raise InvariantFailureError(f"{rs.type_label}: the walk passed |W^I| = {count} at length {length}")
        yield [(w, images) for w, images, _ in layer]
        longer = {}  # every s_j w found is one longer than w, so only these can repeat
        for w, images, inverse in layer:
            for j, s in enumerate(gens):
                pre = inverse[j]  # w^-1(alpha_j)
                if pre < npos and pre not in blocked:
                    longer.setdefault(_compose(s, images), (s, w, inverse))
        layer = [(_compose(s, w), images, _compose(inverse, s)) for images, (s, w, inverse) in longer.items()]
        length += 1


def coset_reps(rs: RootSystem, indices) -> tuple[WeylElement, ...]:
    """Minimal-length representatives of W / W_I for a simple-root subset I,
    in order of length; ``coset_reps(rs, ())`` is all of W (see ``_walk``)."""
    _check_indices(rs, indices)
    _check_budget(rs, _coset_count(rs, indices), "|W^I|")
    layers = enumerate(_walk(rs, indices, _simple_reflections(rs)))
    return tuple(WeylElement(w, length) for length, layer in layers for w, _ in layer)


def _orthogonal_simple_indices(rs: RootSystem) -> tuple[int, ...]:
    """The k with <theta, alpha_k^vee> = 0, read off column k of the Cartan matrix."""
    top = highest_root(rs)
    return tuple(k for k in range(rs.rank) if not sum(t * row[k] for t, row in zip(top, rs.cartan)))


def _weigh_verify_table(rs: RootSystem) -> int:
    """The tuple slots of ``_verify_table``, in closed form from the type label.  Refuses first a
    type on which either verify check would walk more than the budget (W^J for the levels,
    Phi^+ for the reflections), so that both refuse the same types before any work."""
    count, npos = _coset_count(rs, _orthogonal_simple_indices(rs)), rs.rank * _check_root_budget(rs.type_label) // 2
    _check_budget(rs, max(count, npos), "max(|W^J|, |Phi^+|)")
    # per x in W^J: its root, a pair and the images; the edges hold only roots the cosets key, and
    # the lengths add the short positive roots (|Phi^+| less the count / 2 long ones)
    return count * (rs.rank + 2 + max(rs.rank, 2)) + (npos - count // 2) * rs.rank


@weighed_cache(_check_record, _weigh_verify_table, attrgetter("type_label"))
def _verify_table(rs: RootSystem) -> tuple[dict, dict, dict]:
    """What verify holds a record to: the cosets, x(highest root) -> (l(x), x's images of the simple
    roots) for each x in W^J, two x with one image being a fault of the walk; the edges, beta ->
    {alpha: c} for each beta at length i < h_dual - 1 and each alpha at length i + 1 with x_alpha =
    s_gamma x_beta and beta - alpha = c gamma; and gamma -> l(s_gamma) for each gamma in Phi^+, the
    positive roots it negates.  W^J is walked first, so its layers are gone before the reflections
    are conjugated.  Its lengths run 0 .. 2 h_dual - 3, so the lower half is read off the walk.
    Each pair of that half on a line c gamma (0 < c <= 3, as <beta, gamma^vee> >= 0 when s_gamma
    lengthens x_beta, the highest root being dominant) waits for s_gamma, which is then held only
    while its height is among the last four conjugated.  Every root the table holds is the record's."""
    simple, positive = _simple_reflections(rs), rs.positive_roots
    npos = len(positive)
    layers = enumerate(_walk(rs, _orthogonal_simple_indices(rs), simple))
    walked = [[(rs.roots[w[npos - 1]], (length, images)) for w, images in layer] for length, layer in layers]
    cosets = {}
    for top, coset in chain.from_iterable(walked):  # after the whole walk, so that its count guard speaks first
        if cosets.setdefault(top, coset) is not coset:
            raise InvariantFailureError(f"{rs.type_label}: two representatives send the highest root to {top}")
    lines = {}  # c gamma -> (gamma's index, c), keyed at c = 1 by the record's own roots
    for c in (3, 2, 1):
        keys = positive if c == 1 else [tuple(map(c.__mul__, v)) for v in positive]
        lines.update(zip(keys, zip(range(npos), repeat(c))))
    edges, waiting = {}, [[] for _ in positive]  # per gamma, its (beta, alpha, c)
    for upper, lower in zip(walked[: len(walked) // 2], walked[1:]):
        for beta, _ in upper:
            edges[beta] = {}
            for alpha, _ in lower:
                if (line := lines.get(tuple(map(sub, beta, alpha)))) is not None:
                    waiting[line[0]].append((beta, alpha, line[1]))
    del lines
    lengths = {}
    for gamma, s, pairs in zip(positive, _reflection_table(rs, simple), waiting):
        lengths[gamma] = sum(map(npos.__le__, s[:npos]))
        for beta, alpha, c in pairs:
            if _compose(s, cosets[beta][1]) == cosets[alpha][1]:
                edges[beta][alpha] = c
    return cosets, edges, lengths


def level_length_failure(rs: RootSystem) -> str | None:
    """Why the long roots and W^J disagree, or None when they agree.

    The representatives modulo the stabilizer of the highest root must biject onto the
    long roots via w -> w(highest), with length equal to the level, read off the levels
    the cohomology reads: a root they list that no x(highest) is, at another length, or
    listed twice is named.  Then the record must hold matrices 0 .. h_dual - 1, and each of
    1 .. h_dual - 1, the columns the cohomology is computed from, a column per root of the
    level it maps from and no row past the level it maps to.  Every entry of them is
    checked against the group: for beta in level i < h_dual - 1 and alpha in level i+1,
    beta -> alpha is an edge when x_alpha x_beta^-1 is a reflection s_gamma.  Then
    s_gamma(beta) = alpha gives beta - alpha = <beta, gamma^vee> gamma, and the entry must be
    that coefficient; it must be 0 where the group has no edge.  The table holds the group's
    edges from beta, keyed by alpha, so each recorded column, its entries keyed by the roots
    of level i + 1, is compared with them at once; only on a difference are its rows walked
    in order, to name the first pair whose entry differs.
    A failure means the level combinatorics and the group disagree, i.e. an implementation bug.
    """
    cosets, edges, _ = _verify_table(rs)
    lv = rs._levels
    if len(cosets) != (n_long := sum(map(len, lv))):
        return f"W^J has {len(cosets)} elements, but there are {n_long} long roots"
    for i, level in enumerate(lv):
        for root in level:
            if (coset := cosets.get(root)) is None:
                return f"no representative sends the highest root to {root}, of level {i}"
            if coset[0] != i:
                return f"the representative sending the highest root to {root} has length {coset[0]}, level {i}"
        if len(set(level)) < len(level):
            return f"level {i} lists {next(root for k, root in enumerate(level) if root in level[:k])} twice"

    if len(rs._columns) != rs.h_dual:
        return f"the record holds {len(rs._columns)} matrices, expected {rs.h_dual}"
    for i in range(rs.h_dual - 1):
        columns, below = rs._columns[i + 1], lv[i + 1]
        roots = dict(enumerate(below))  # a row past level i + 1 is keyed None, which no edge is
        keyed = [{roots.get(row): entry for row, entry in column.items()} for column in columns]
        if keyed == list(map(edges.get, lv[i])):
            continue
        rows = range(len(below))
        if len(columns) != len(lv[i]) or not all(map(rows.__contains__, chain.from_iterable(columns))):
            return f"d_matrix({i + 1}) is not {len(rows)} x {len(lv[i])}, the sizes of levels {i + 1} and {i}"
        for beta, column in zip(lv[i], columns):  # an explicit 0 differs above, but passes here
            if (edge := edges.get(beta)) is None:
                return f"d_matrix({i + 1}) maps from level {i}, which is not in the lower half of W^J"
            for alpha, entry in zip(below, map(column.get, rows, repeat(0))):
                if entry != (expected := edge.get(alpha, 0)):
                    return f"({beta}, {alpha}): d_matrix({i + 1}) entry {entry}, expected {expected}"
    return None


def verify_level_length(rs: RootSystem) -> bool:
    """True when the long roots and W^J agree (see ``level_length_failure``)."""
    return level_length_failure(rs) is None


def reflection_length_failure(rs: RootSystem) -> str | None:
    """Why a reflection length breaks the height rule, or None.

    l(s_b) = 2 ht_coroot(b) - 1 for long b and 2 ht(b) - 1 for short b.
    l(s_b) is counted on the group element, s_b conjugated from the simple
    reflections: the positive roots it negates, kept in ``_verify_table`` by b.
    On every call the record's positive roots are counted and each is looked up
    there, its height read off it, and the long roots with their coroot heights
    off its positive levels: h_dual - 1 - i in level i.
    """
    _, _, lengths = _verify_table(rs)  # anything but a record is refused before a field is read
    if len(rs.positive_roots) != len(lengths):
        return f"the record lists {len(rs.positive_roots)} positive roots, the group has {len(lengths)}"
    coroot = {b: rs.h_dual - 1 - i for i, level in enumerate(rs._levels[: rs.h_dual - 1]) for b in level}
    for b in rs.positive_roots:
        if (length := lengths.get(b)) is None:
            return f"{b} is not a positive root of the group"
        if length != (expected := 2 * (coroot.get(b) or height(b)) - 1):
            return f"the reflection in {b} has length {length}, expected {expected}"
    return None


def verify_reflection_length(rs: RootSystem) -> bool:
    """True when every reflection length follows the height rule (see
    ``reflection_length_failure``)."""
    return reflection_length_failure(rs) is None
