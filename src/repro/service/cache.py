"""Content-addressed result cache: identical configs never re-simulate.

Keys are the SHA-256 of the canonicalized job spec
(:func:`~repro.service.spec.content_key`), so the cache is immune to
parameter-dict ordering, tuple-vs-list spelling, and job naming — if two
submissions mean the same simulation, the second one is a hit.  Values
are the JSON-ready result payloads the executors produce, and both doors
copy them — ``put`` what it stores, ``get`` what it hands out — so no
client can mutate another client's answer (the bit-identity of hit
payloads is pinned by test).  The copy knows that contract
(:func:`_json_copy`): it rebuilds the ``dict``/``list``/``tuple``
containers and shares the immutable JSON scalars; any other leaf, a
numpy array say, still goes through :func:`copy.deepcopy`.

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

#: Leaves a copy shares: immutable, subclasses included (numpy's float64 is
#: a ``float``).  ``bool`` is an ``int``.
_SHARED = (str, int, float, type(None))


def _json_copy(value):
    """A copy of a JSON-typed payload that no write to ``value`` reaches.

    Exactly ``dict``, ``list`` and ``tuple`` are rebuilt, scalars are
    shared, and anything else is deep-copied — a container subclass keeps
    its type that way.
    """
    if isinstance(value, _SHARED):
        return value
    kind = type(value)
    if kind is dict:
        return {key: _json_copy(item) for key, item in value.items()}
    if kind is list:
        return [_json_copy(item) for item in value]
    if kind is tuple:
        return tuple([_json_copy(item) for item in value])
    return copy.deepcopy(value)


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
        """A copy of the cached payload (:func:`_json_copy`), or ``None``
        on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        if _telemetry.enabled:
            name = "service_cache_misses" if entry is None else "service_cache_hits"
            _telemetry.metrics.counter(name).inc()
        # An entry is never written after ``put``: copy it outside the lock.
        return None if entry is None else _json_copy(entry)

    def put(self, key: str, payload: dict) -> None:
        """Insert (or refresh) a copy of ``payload`` (:func:`_json_copy`), so
        the caller's later writes never reach the entry; evict the LRU entry
        if full."""
        evicted = 0
        entry = _json_copy(payload)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = entry
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
