"""Exception types shared across the package, and a cache that raises them for an unhashable argument."""

from functools import lru_cache, wraps


class InvalidTypeError(ValueError):
    """A Dynkin type label is malformed or its rank is out of range."""


class DomainError(ValueError):
    """An argument lies outside the domain of an operation."""


class InvariantFailureError(RuntimeError):
    """A computation contradicts a structural fact it is built on.

    Seeing this exception means the implementation (or the classification
    it relies on) is wrong, not the caller.
    """


def checked_cache(check):
    """An unbounded lru_cache of a one-argument function that checks its argument
    itself.  The cache is typed, so 5.0 or a tuple equal to a cached TypeLabel misses
    and reaches that check; an argument the cache cannot hash goes to check(arg),
    which raises the package's error in place of the cache's bare TypeError.  The
    result keeps the cache's cache_info and cache_clear, and the plain function as
    __wrapped__."""

    def decorate(fn):
        cached = lru_cache(maxsize=None, typed=True)(fn)

        @wraps(fn)
        def call(arg):
            try:
                return cached(arg)
            except TypeError:  # unhashable, or raised by fn itself: then check passes it on
                check(arg)
                raise

        call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
        return call

    return decorate
