"""Content-addressed result cache: identical configs never re-simulate.

Keys are the SHA-256 of the canonicalized job spec
(:func:`~repro.service.spec.content_key`), so the cache is immune to
parameter-dict ordering, tuple-vs-list spelling, and job naming — if two
submissions mean the same simulation, the second one is a hit.  Values
are the JSON-ready result payloads the executors produce; a hit returns
a **deep copy** so no client can mutate another client's answer (the
bit-identity of hit payloads is pinned by test).

Eviction is LRU with a bounded entry count (the payloads are small
dicts, so entries — not bytes — are the sane unit), mirroring the
``_LRUBufferPool`` idiom of :mod:`repro.runtime.collectives`.  Hits,
misses, and evictions land on ``service_cache_*`` counters.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict

from repro import telemetry as _telemetry


class ResultCache:
    """Bounded LRU of ``content_key -> result payload``."""

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> dict | None:
        """The cached payload (deep-copied) or ``None`` on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                hit = False
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                hit = True
                result = copy.deepcopy(entry)
        if _telemetry.enabled:
            name = "service_cache_hits" if hit else "service_cache_misses"
            _telemetry.metrics.counter(name).inc()
        return result if hit else None

    def put(self, key: str, payload: dict) -> None:
        """Insert (or refresh) a payload, evicting the LRU entry if full."""
        evicted = 0
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = copy.deepcopy(payload)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted and _telemetry.enabled:
            _telemetry.metrics.counter("service_cache_evictions").inc(evicted)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
