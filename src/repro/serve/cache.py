"""Bounded LRU result cache for the serving layer.

Keys are ``(workload, n, index)`` tuples — in practice always
``("unrank", n, index)``, because both converter workloads resolve to an
unrank once the service has drawn the index; shuffles are never cached
(a shuffle's folded index would collide with that key).

The cache is thread-safe: a private lock serialises every ``get`` /
``put`` / ``clear`` / ``len``, so concurrent readers during an LRU
eviction can neither hit a ``RuntimeError`` from a mutating
``OrderedDict`` nor lose a hit for an entry that was present throughout
the call, and the hit/miss/eviction counters stay exact under
concurrency.  Contention note: the critical section is a handful of
dict operations (O(1), no allocation beyond the entry itself), several
orders of magnitude shorter than the compiled sweep a miss goes on to
pay — the serving hot path's profile is unchanged with the lock in
place, which is why the cache takes its own lock instead of borrowing
the service's admission lock (the supervised tier's workers and the
admission path may touch it concurrently).  ``OrderedDict`` gives O(1)
recency updates; capacity 0 disables caching entirely (every ``get`` is
a miss, ``put`` is a no-op), which is how the benchmark isolates the
batching speedup from cache effects.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

__all__ = ["ResultCache"]


class ResultCache:
    """A bounded least-recently-used mapping with hit/miss accounting."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable):
        """The cached value, refreshed to most-recent — or ``None``."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) a value, evicting the LRU entry if full."""
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
