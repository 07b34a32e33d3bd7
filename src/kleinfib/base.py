"""The names every pipeline shares: the two failure types and the cache of
pure functions of surfaces.  Standard library only, so that a module can
import them without loading another pipeline."""

import copy
from functools import lru_cache, wraps


class VerificationError(AssertionError):
    """An exact check that the verification pipeline expected to pass
    came out false; carries the offending polynomial or detail."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class GeometryError(ValueError):
    pass


def _surface_cache(fn):
    """Cache fn on its (frozen, hashable) arguments, such as surfaces,
    failures too: a raised exception is kept, without its traceback, and a
    copy of it is raised on every later call with the same arguments (the
    kept one would gather the traceback of each raise, and with it the
    frames of its callers).  A cached value is shared by every caller, so
    none may mutate it.  Keyword arguments are part of the key as the lru
    cache keys them: f(s, 2, branch="P1") and f(s, 2, "P1") are separate
    entries with equal values.  ``cache_info`` and ``cache_clear`` are
    those of the underlying lru cache."""
    @lru_cache(maxsize=None)
    def outcome(*args, **kwargs):
        try:
            return True, fn(*args, **kwargs)
        except Exception as ex:
            return False, ex.with_traceback(None)

    @wraps(fn)
    def cached(*args, **kwargs):
        ok, value = outcome(*args, **kwargs)
        if ok:
            return value
        raise copy.copy(value)

    cached.cache_info, cached.cache_clear = \
        outcome.cache_info, outcome.cache_clear
    return cached
