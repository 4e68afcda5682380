"""Brute-force Weyl group engine for small ranks.

Elements are stored as permutations of the root list (bytes, one byte per
root index), which keeps full groups up to ~200000 elements cheap and lets
composition run through bytes.translate.  The point of the module is to
verify, by direct enumeration, that the level grading and edge structure
on long roots mirror lengths and covering relations of minimal coset
representatives, and that reflection lengths follow the (dual) height.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from . import long_root_poset
from .errors import DomainError
from .root_system import RootSystem, dual_height, height, highest_root, is_long

DEFAULT_GUARD = 200_000

__all__ = [
    "WeylElement",
    "group_order",
    "enumerate_group",
    "coset_reps",
    "verify_level_length",
    "verify_reflection_length",
    "DEFAULT_GUARD",
]


class WeylElement(namedtuple("WeylElement", "perm length")):
    """perm[i] is the index of the image of root i; length is the Coxeter length."""

    __slots__ = ()


def group_order(rs: RootSystem) -> int:
    return math.prod(rs.degrees)


def _root_index(rs: RootSystem) -> dict:
    return {root: i for i, root in enumerate(rs.roots)}


def _reflection_perm(rs: RootSystem, root) -> bytes:
    index = _root_index(rs)
    return bytes(index[rs.reflect(other, root)] for other in rs.roots)


_IDENTITY_TAIL = bytes(range(256))


def _compose(outer: bytes, inner: bytes) -> bytes:
    """Permutation product: result[i] = outer[inner[i]]."""
    return inner.translate(outer + _IDENTITY_TAIL[len(outer):])


def _length_of(perm: bytes, npos: int) -> int:
    """Number of positive roots sent to negative ones."""
    return sum(1 for i in range(npos) if perm[i] >= npos)


def _invert(perm: bytes) -> bytes:
    inv = bytearray(len(perm))
    for i, image in enumerate(perm):
        inv[image] = i
    return bytes(inv)


@lru_cache(maxsize=8)
def enumerate_group(rs: RootSystem) -> tuple[WeylElement, ...]:
    """All Weyl group elements with their lengths.

    Refuses to run when the group order (product of the degrees) exceeds
    DEFAULT_GUARD, which admits everything up to |W(E6)| = 51840.
    """
    order = group_order(rs)
    if order > DEFAULT_GUARD:
        raise DomainError(f"|W| = {order} exceeds the guard {DEFAULT_GUARD}")
    nroots = len(rs.roots)
    if nroots > 255:
        raise DomainError("root index does not fit in a byte")
    gens = [_reflection_perm(rs, s) for s in rs.simple_roots]
    ident = bytes(range(nroots))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            padded = w + _IDENTITY_TAIL[nroots:]
            for s in gens:
                ws = s.translate(padded)  # i -> w[s[i]], the product w o s
                if ws not in seen:
                    seen.add(ws)
                    nxt.append(ws)
        frontier = nxt
    if len(seen) != order:
        raise DomainError(f"enumerated {len(seen)} elements, expected {order}")
    npos = nroots // 2
    return tuple(WeylElement(w, _length_of(w, npos)) for w in sorted(seen))


def coset_reps(rs: RootSystem, indices) -> tuple[WeylElement, ...]:
    """Minimal-length representatives of W / W_I for a simple-root subset I.

    These are the elements keeping every positive root supported on I
    positive; it is enough to test the simple roots of I themselves.
    """
    npos = len(rs.positive_roots)
    root_idx = _root_index(rs)
    gen_positions = [root_idx[rs.simple_roots[i]] for i in indices]
    return tuple(
        w for w in enumerate_group(rs) if all(w.perm[p] < npos for p in gen_positions)
    )


def _orthogonal_simple_indices(rs: RootSystem) -> tuple[int, ...]:
    top = highest_root(rs)
    return tuple(i for i, s in enumerate(rs.simple_roots) if rs.bilinear(top, s) == 0)


def _root_link(rs: RootSystem, beta, alpha):
    """The unique positive root gamma with s_gamma(beta) = alpha, if any."""
    found = None
    for gamma in rs.positive_roots:
        if rs.reflect(beta, gamma) == alpha:
            if found is not None:
                raise DomainError("linking reflection is not unique")
            found = (gamma, rs.pairing(beta, gamma))
    return found if found is not None else (None, None)


def verify_level_length(rs: RootSystem) -> bool:
    """Check the dictionary between long roots and coset representatives.

    The representatives modulo the stabilizer of the highest root must
    biject onto the long roots via w -> w(highest), with length equal to
    the level; covering edges must exist on both sides simultaneously,
    carried by the same reflection, with the pairing equal to the stored
    edge coefficient.  A False return means the level combinatorics and
    the group disagree, i.e. an implementation bug.
    """
    root_idx = _root_index(rs)
    top_idx = root_idx[highest_root(rs)]
    reps = coset_reps(rs, _orthogonal_simple_indices(rs))
    if len(reps) != sum(1 for root in rs.roots if is_long(rs, root)):
        return False

    by_root = {}
    for w in reps:
        image = rs.roots[w.perm[top_idx]]
        if image in by_root:
            return False
        by_root[image] = w
    for root, w in by_root.items():
        if w.length != long_root_poset.level(rs, root):
            return False

    reflection_by_perm = {_reflection_perm(rs, root): root for root in rs.positive_roots}
    lv = long_root_poset.levels(rs)
    for i in range(len(lv) - 1):
        for beta in lv[i]:
            for alpha in lv[i + 1]:
                gamma_root, pair_root = _root_link(rs, beta, alpha)
                # the group-side link: x_alpha x_beta^{-1} must be a reflection
                u = _compose(by_root[alpha].perm, _invert(by_root[beta].perm))
                gamma_group = reflection_by_perm.get(u)
                stored = long_root_poset.edge_coefficient(rs, beta, alpha)
                if gamma_root is None or gamma_group is None:
                    if gamma_root is not None or gamma_group is not None or stored != 0:
                        return False
                    continue
                if gamma_root != gamma_group or pair_root != stored:
                    return False
    return True


def verify_reflection_length(rs: RootSystem) -> bool:
    """Reflection lengths follow the height: l(s_b) = 2 ht_coroot(b) - 1 for
    long b, 2 ht(b) - 1 for short b (read off the permutation directly)."""
    npos = len(rs.positive_roots)
    for root in rs.positive_roots:
        length = _length_of(_reflection_perm(rs, root), npos)
        if is_long(rs, root):
            if length != 2 * dual_height(rs, root) - 1:
                return False
        elif length != 2 * height(root) - 1:
            return False
    return True
