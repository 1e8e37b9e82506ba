"""Process-local LRU caches for the hot kernels.

The BS-SA/DALTA inner loop (``OptForPart``) re-evaluates thousands of
partitions per output bit.  A few bounded caches amortise that work
without changing a single output bit (see ``docs/performance.md``):

* the 2D-table *index caches* in :mod:`repro.boolean.truth_table`
  (gather, scatter and row/column permutations keyed by
  ``(partition mask, n_inputs)``), and
* the neighbour cache in :mod:`repro.boolean.partition`.

No cache holds ``OptForPart`` results (see
:mod:`repro.core.opt_for_part` for why).

Everything here is **per process**: worker processes spawned by
:mod:`repro.experiments.parallel` each hold their own caches, and
:meth:`RunSpec.execute` clears them at run start so telemetry counters
are independent of run order and of serial-vs-parallel execution.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional

from . import obs

__all__ = [
    "LruCache",
    "clear_caches",
    "cache_stats",
]

#: every LruCache instance ever created, for clear_caches()/cache_stats()
_REGISTRY: List["LruCache"] = []


class LruCache:
    """A small least-recently-used map with hit/miss accounting.

    Mutations take a private re-entrant lock: the algorithms are
    single-threaded per process, but ``repro serve`` probes its caches
    from HTTP handler threads while the dispatcher thread compiles
    (inline) and fills them, so the OrderedDict operations must not
    interleave.  Uncontended, the lock
    costs ~0.1µs per probe — invisible next to the sha1 key digests.
    When a telemetry session is active, every lookup increments
    ``cache.<name>.hit`` / ``cache.<name>.miss`` — plus the aggregate
    ``<aggregate>_hit`` / ``<aggregate>_miss`` counters when an
    aggregate prefix is given (the serve artifact cache uses
    ``serve.cache``).  Evictions increment ``cache.<name>.eviction``.

    ``register=False`` keeps the instance out of the process-wide
    registry, exempting it from :func:`clear_caches`.  The per-run
    cache clearing in :meth:`RunSpec.execute` exists to isolate the
    *kernel* caches between runs; caches that must outlive individual
    runs — the serve daemon's compiled-artifact cache runs in the same
    process as its inline backend — opt out here.
    """

    def __init__(
        self,
        name: str,
        maxsize: int,
        aggregate: Optional[str] = None,
        register: bool = True,
    ) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.name = name
        self.maxsize = maxsize
        self.aggregate = aggregate
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()
        if register:
            _REGISTRY.append(self)

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value or ``None`` (values are never None)."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                if obs.enabled():
                    obs.incr(f"cache.{self.name}.miss")
                    if self.aggregate:
                        obs.incr(f"{self.aggregate}_miss")
                return None
            self._data.move_to_end(key)
            self.hits += 1
            if obs.enabled():
                obs.incr(f"cache.{self.name}.hit")
                if self.aggregate:
                    obs.incr(f"{self.aggregate}_hit")
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if value is None:
            raise ValueError("LruCache cannot store None")
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
                if obs.enabled():
                    obs.incr(f"cache.{self.name}.eviction")

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss/eviction counters."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / total if total else 0.0,
        }


def clear_caches() -> None:
    """Empty every registered cache (per-run isolation, tests)."""
    for cache in _REGISTRY:
        cache.clear()


def cache_stats() -> Dict[str, Dict[str, float]]:
    """Current statistics of every registered cache, by name."""
    return {cache.name: cache.stats() for cache in _REGISTRY}
