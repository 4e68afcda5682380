"""Exception types shared across the package, and its one cache.

Every object the computation reads (a root record, a type's simple-singularity quotient and the
quotient of its long-simple subsystem, the oracle's one table of a type, the partitions of n) is
fixed by its input, so ``weighed_cache`` keeps it in one store, least recently used first and
bounded by the tuple slots its entries hold in all, not by their count.
"""

from collections import namedtuple
from functools import partial, wraps


class InvalidTypeError(ValueError):
    """A Dynkin type label is malformed or its rank is out of range."""


class DomainError(ValueError):
    """An argument lies outside the domain of an operation."""


class InvariantFailureError(RuntimeError):
    """A computation contradicts a structural fact it is built on.

    Seeing this exception means the implementation (or the classification
    it relies on) is wrong, not the caller.
    """


# Most tuple slots the store holds in all.  The largest entry is the A99 record, 980,100; the
# oracle's table of a type verify admits is at most 178,200 (A44), and the reflections it
# conjugates on the way are not kept, bounded instead by ORACLE_BUDGET as its walk is.
CACHE_BUDGET = 5_000_000

CacheInfo = namedtuple("CacheInfo", "hits misses")


class _Store(dict):
    slots = 0  # held by the entries, and reserved for those being made


_store = _Store()  # (cached function, key) -> (value, slots), least recently used first
_counts = {}  # cached function -> [hits, misses]


def cache_clear(owner=None) -> None:
    """Drop every entry of the store and reset every cached function's counts, or owner's alone."""
    for k in [k for k in _store if owner is None or k[0] is owner]:
        _store.slots -= _store.pop(k)[1]
    for fn, counts in _counts.items():
        if owner is None or fn is owner:
            counts[:] = 0, 0


def weighed_cache(admit, weigh, key=None):
    """Keep fn(arg) in the store.  admit(arg) runs first on every call and raises the package's
    error for an argument of a type fn refuses, so the key (key(arg), or arg) is exact and
    hashable.  On a miss weigh(arg) refuses arg or gives, in closed form, the tuple slots of the
    entry; the least recently used entries are dropped until those fit under CACHE_BUDGET, and
    stay reserved while fn runs, so an entry fn makes on the way drops others to fit beside them.
    A refused argument adds no entry.  The result has cache_info and cache_clear, of its own
    counts and entries, and fn as __wrapped__."""

    def decorate(fn):
        counts = [0, 0]  # hits, misses

        @wraps(fn)
        def cached(arg):
            admit(arg)
            k = cached, arg if key is None else key(arg)
            entry = _store.pop(k, None)
            if entry is None:
                counts[1] += 1
                slots = weigh(arg)
                while _store and _store.slots + slots > CACHE_BUDGET:
                    _store.slots -= _store.pop(next(iter(_store)))[1]
                _store.slots += slots
                try:
                    entry = fn(arg), slots
                except BaseException:
                    _store.slots -= slots
                    raise
            else:
                counts[0] += 1
            _store[k] = entry  # now the most recent
            return entry[0]

        _counts[cached] = counts
        cached.cache_info = lambda: CacheInfo(*counts)
        cached.cache_clear = partial(cache_clear, cached)
        return cached

    return decorate
