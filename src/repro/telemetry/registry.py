"""Process-wide runtime metrics: counters, gauges, fixed-bucket histograms.

The registry is the numeric half of the telemetry subsystem (the
:mod:`repro.telemetry.tracer` spans are the timeline half).  Metrics are
organized as *families* — one family per metric name, fanned out into
labeled children::

    metrics.counter("collective_bytes", op="reduce_scatter", axis="y").inc(n)

Children are created on first use and live until :meth:`MetricsRegistry.reset`.
Finding a child by its canonical label key (labels sorted and ``str()``-ed)
costs ~2–3 µs, so the registry remembers each call's *raw*
``(kind, name, *labels.items())`` tuple: a call site repeating itself —
every per-step site — pays one dict access on that tuple, 0.35 µs with no
labels and ~0.8 µs with three, call included (CPython 3.11 on a 2-vCPU
x86 VM).  Only label sets whose values are all ``str`` are remembered:
other values (ints, tuples, the unhashable) take the canonical path every
time, since ``1 == True`` would let a raw key stand for another child.
A ``str`` subclass whose ``str()`` differs from its value (a ``(str,
Enum)`` member) would find the plain string's child.

Snapshots are plain dicts (JSON-ready via :meth:`MetricsRegistry.to_json`);
*collector* callbacks registered with
:meth:`MetricsRegistry.register_collector` run at snapshot time, which is
how cheap cache statistics (e.g. the padding-layout ``lru_cache`` in
:mod:`repro.runtime.collectives`) surface as gauges without per-call cost.

Per-step consumers (the flight recorder's counter deltas) do not snapshot:
counter and gauge writes mark their child, and
:meth:`MetricsRegistry.scalar_deltas` visits only the marked children, so
that read costs the same whether the registry holds ten children or a
thousand.  It returns ``(child, delta)`` pairs as computed; naming and
ordering them (:func:`series_deltas`) waits until someone reads them.

A writer whose series are fixed — a trainer step under one bucket plan —
describes them once as a :class:`CounterSet` and writes all of them with
one :meth:`MetricsRegistry.add` call, which looks the children up only on
its first call against a registry (and again after a reset).
"""

from __future__ import annotations

import json
import logging
import threading
import weakref
from bisect import bisect_left
from typing import Callable, Iterable, Mapping, Sequence

logger = logging.getLogger("repro.telemetry")

#: Default histogram upper bounds for second-valued observations: six
#: decades from 1 µs to 100 s (an implicit +inf overflow bucket follows).
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)

LabelKey = tuple[tuple[str, str], ...]

#: Default cap on labeled children per metric family.  Per-device labels at
#: 4096 devices fit exactly; anything past the cap (a label accidentally
#: carrying a step index, a timestamp, a payload size) collapses into one
#: shared overflow child instead of growing the registry without bound.
DEFAULT_MAX_CHILDREN = 4096

#: Label key of the shared overflow child a saturated family falls back to.
OVERFLOW_KEY: LabelKey = (("overflow", "true"),)

#: Counter family that counts label sets rejected by the cardinality guard.
OVERFLOW_COUNTER = "telemetry_label_overflow"


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _series(name: str, labels: LabelKey) -> str:
    """A child's ``name{k=v,...}`` key."""
    pairs = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{pairs}}}" if pairs else name


class _ScalarChild:
    """State shared by :class:`Counter` and :class:`Gauge` children.

    ``series`` is the child's ``name{k=v,...}`` key, formatted once here
    rather than on every read.  Every write *marks* the child: the first
    write since the last :meth:`MetricsRegistry.scalar_deltas` drain appends
    it to ``_written``, the owning registry's list of written children, so
    per-step readers visit only what moved.  The mark takes no lock; the
    drain's half of the protocol is documented there.
    """

    __slots__ = ("name", "labels", "value", "series", "_order", "_written", "_marked")

    def __init__(self, name: str, labels: LabelKey, written: list, order: int) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.series = _series(name, labels)
        #: Family then child creation index, packed into one int that sorts
        #: in the registry's iteration order.
        self._order = order
        self._written = written
        self._marked = False


class Counter(_ScalarChild):
    """A monotonically increasing sum."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount
        if not self._marked:
            self._marked = True
            self._written.append(self)


class Gauge(_ScalarChild):
    """A value that can go up and down (last write wins)."""

    __slots__ = ()

    def set(self, value: float) -> None:
        self.value = float(value)
        if not self._marked:
            self._marked = True
            self._written.append(self)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount
        if not self._marked:
            self._marked = True
            self._written.append(self)


class DeltaReader:
    """Identity of one consumer of :meth:`MetricsRegistry.scalar_deltas`.

    The registry keeps a reader's position only while the reader object is
    alive, and a fresh reader starts from zero — dropping the reader is how
    a consumer (a flight recorder being cleared or collected) unsubscribes.
    """

    __slots__ = ("__weakref__",)


def series_deltas(pairs: Iterable[tuple[_ScalarChild, float]]) -> dict[str, float]:
    """:meth:`MetricsRegistry.scalar_deltas` pairs as ``{series: delta}``.

    Keys come in the registry's iteration order (family, then child
    creation), whatever order the writes or the readers' calls took.
    """
    return {
        child.series: delta
        for child, delta in sorted(pairs, key=lambda pair: pair[0]._order)
    }


class _ReaderState:
    """One reader's position: last reported values and children to revisit.

    ``ref`` is a weak reference to the reader whose collection removes this
    state from the registry's table (the callback takes no lock, so it is
    safe wherever the collector runs).
    """

    __slots__ = ("last", "pending", "ref")

    def __init__(self, reader: DeltaReader, states: dict) -> None:
        self.last: dict[_ScalarChild, float] = {}
        self.pending: set[_ScalarChild] = set()
        key = id(reader)
        self.ref = weakref.ref(reader, lambda _, states=states: states.pop(key, None))


class CounterSet:
    """Counter series written together, looked up once per registry.

    ``series`` are ``(name, labels)`` pairs (``str`` label values);
    :meth:`MetricsRegistry.add` increments all of them in one call, by one
    amount each, and ``index`` maps each series' ``name{k=v,...}`` key to
    its position in those amounts.
    """

    __slots__ = ("series", "index", "_registry", "_generation", "_children")

    def __init__(self, series: Iterable[tuple[str, Mapping[str, str]]]) -> None:
        self.series = tuple((name, dict(labels)) for name, labels in series)
        self.index = {
            _series(name, _label_key(labels)): i
            for i, (name, labels) in enumerate(self.series)
        }
        if len(self.index) != len(self.series):
            raise ValueError("a series is listed twice")
        self._registry: MetricsRegistry | None = None
        self._generation = -1
        self._children: tuple[Counter, ...] = ()


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus an overflow bucket.

    ``buckets`` are strictly increasing *inclusive* upper bounds (``le``
    semantics, as in Prometheus): an observation lands in the first bucket
    whose bound is >= the value, or in the implicit +inf overflow bucket.
    ``sum``/``count`` track the running total and number of observations,
    so means survive the bucketing.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, labels: LabelKey, buckets: tuple[float, ...]) -> None:
        self.name = name
        self.labels = labels
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class _Family:
    """All labeled children of one metric name, plus its kind/bucket spec."""

    __slots__ = ("name", "kind", "buckets", "index", "children")

    def __init__(
        self, name: str, kind: str, buckets: tuple[float, ...] | None, index: int
    ) -> None:
        self.name = name
        self.kind = kind
        self.buckets = buckets
        #: Creation index within the registry (first half of a child's order).
        self.index = index
        self.children: dict[LabelKey, Counter | Gauge | Histogram] = {}


class MetricsRegistry:
    """Get-or-create registry of metric families with labeled children.

    A module-level instance (``repro.telemetry.metrics``) serves the whole
    process; independent registries can be created for tests.  Creation is
    lock-protected; increments rely on the GIL (single mutating bytecode
    ops), which matches the single-threaded functional runtime.

    ``max_children`` is the per-family label-cardinality guard: once a
    family holds that many labeled children, further *new* label sets are
    routed to one shared overflow child (labels ``{overflow: true}``) and
    counted in the ``telemetry_label_overflow`` counter, labeled by the
    saturated family's name.  Existing children keep working — the guard
    bounds growth, it never loses an established series.
    """

    def __init__(self, max_children: int = DEFAULT_MAX_CHILDREN) -> None:
        if max_children < 1:
            raise ValueError("max_children must be >= 1")
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[[MetricsRegistry], None]] = []
        self._lock = threading.Lock()
        self.max_children = max_children
        #: Counter/gauge children written since the last scalar_deltas drain.
        self._written: list[_ScalarChild] = []
        #: ``id(reader)`` -> position, for every live reader.
        self._readers: dict[int, _ReaderState] = {}
        #: Raw ``(kind, name, *labels.items())`` call -> the child it found
        #: (see the module docstring for which calls are remembered).
        self._cache: dict[tuple, Counter | Gauge | Histogram] = {}
        #: Bumped by every reset: a :class:`CounterSet` looked up before it
        #: holds dropped children.
        self._generation = 0

    # --- get-or-create ------------------------------------------------------

    def _child(
        self,
        name: str,
        kind: str,
        labels: Mapping[str, object],
        buckets: tuple[float, ...] | None = None,
    ):
        """The canonical lookup: find or create the child, then remember it."""
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = self._families[name] = _Family(
                        name, kind, buckets, len(self._families)
                    )
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, requested as {kind}"
            )
        if kind == "histogram" and buckets is not None and family.buckets != buckets:
            raise ValueError(f"histogram {name!r} already registered with different buckets")
        key = _label_key(labels)
        child = family.children.get(key)
        overflowed = False
        if child is None:
            with self._lock:
                child = family.children.get(key)
                if child is None:
                    if (
                        key
                        and key != OVERFLOW_KEY
                        and len(family.children) >= self.max_children
                    ):
                        # Cardinality guard: collapse the new label set into
                        # the family's shared overflow child.
                        overflowed = True
                        key = OVERFLOW_KEY
                        child = family.children.get(key)
                    if child is None:
                        if kind == "histogram":
                            child = Histogram(name, key, family.buckets or DEFAULT_TIME_BUCKETS)
                        else:
                            child = (Counter if kind == "counter" else Gauge)(
                                name, key, self._written,
                                (family.index << 32) | len(family.children),
                            )
                        family.children[key] = child
            if overflowed and name != OVERFLOW_COUNTER:
                # Outside the lock (counter() re-enters _child).  The guard
                # counter's own cardinality is bounded by the family count.
                self.counter(OVERFLOW_COUNTER, metric=name).inc()
        if not overflowed and all(type(v) is str for v in labels.values()):
            # An overflowed set is never remembered: each call must count
            # in the guard counter.  A family reset() dropped meanwhile is
            # not remembered either.
            with self._lock:
                if self._families.get(name) is family:
                    self._cache[(kind, name, *labels.items())] = child
        return child

    def counter(self, name: str, **labels: object) -> Counter:
        try:
            return self._cache[("counter", name, *labels.items())]
        except (KeyError, TypeError):  # not remembered, or unhashable
            return self._child(name, "counter", labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        try:
            return self._cache[("gauge", name, *labels.items())]
        except (KeyError, TypeError):
            return self._child(name, "gauge", labels)

    def histogram(
        self, name: str, buckets: Iterable[float] | None = None, **labels: object
    ) -> Histogram:
        if buckets is None:  # a bucket spec is checked against the family
            try:
                return self._cache[("histogram", name, *labels.items())]
            except (KeyError, TypeError):
                pass
        spec = tuple(buckets) if buckets is not None else None
        if spec is not None and list(spec) != sorted(set(spec)):
            raise ValueError("histogram buckets must be strictly increasing")
        return self._child(name, "histogram", labels, spec)

    def add(self, counters: CounterSet, amounts: Sequence[float]) -> None:
        """Increment ``counters.series[i]`` by ``amounts[i]``, in one call.

        The children are looked up on the first call against this registry
        and again after a :meth:`reset`; later calls only increment.
        """
        if counters._registry is not self or counters._generation != self._generation:
            counters._children = tuple(
                self.counter(name, **labels) for name, labels in counters.series
            )
            counters._registry, counters._generation = self, self._generation
        # Counter.inc, inlined: this runs once per training step.
        for child, amount in zip(counters._children, amounts):
            if amount < 0:
                raise ValueError("counters only go up; use a gauge")
            child.value += amount
            if not child._marked:
                child._marked = True
                child._written.append(child)

    # --- collectors ---------------------------------------------------------

    def register_collector(self, fn: Callable[[MetricsRegistry], None]) -> None:
        """Run ``fn(registry)`` at every snapshot (for pull-style gauges)."""
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)

    # --- read side ----------------------------------------------------------

    def value(self, name: str, **labels: object) -> float:
        """Scalar value of one counter/gauge child (0.0 if never touched)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        child = family.children.get(_label_key(labels))
        if child is None or isinstance(child, Histogram):
            return 0.0
        return child.value

    def total(self, name: str) -> float:
        """Sum of one counter family over all its labeled children."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        return sum(
            c.value for c in family.children.values() if not isinstance(c, Histogram)
        )

    def _scalars(self):
        """Every counter/gauge child in iteration order (hold the lock)."""
        return (
            child
            for family in self._families.values()
            if family.kind != "histogram"
            for child in family.children.values()
        )

    def scalar_children(self) -> list[tuple[str, LabelKey, float]]:
        """``(name, label key, value)`` for every counter/gauge child.

        The children are collected while holding the registry lock, so
        callers can iterate safely while other threads create metrics.
        This walks and rebuilds every child: per-step readers use
        :meth:`scalar_deltas` instead.
        """
        with self._lock:
            children = list(self._scalars())
        return [(child.name, child.labels, child.value) for child in children]

    def scalar_deltas(self, reader: DeltaReader) -> list[tuple[_ScalarChild, float]]:
        """Counter/gauge changes since ``reader``'s previous call, as computed.

        ``(child, delta)`` pairs in no particular order: a per-step consumer
        (the flight recorder) stores them, and :func:`series_deltas` names
        and orders them when they are read.

        Each reader has its own position, so several consumers (the process
        flight recorder, a test's private one) see the same deltas
        independently.  A reader's first call reports every non-zero child
        as a delta from 0; later calls visit only children written in
        between, so the cost follows the writes, not the registry size.

        Writers mark children without a lock (see :class:`_ScalarChild`).
        No increment is lost because the drain unmarks a child *before* any
        reader looks at its value: a writer that still saw the mark wrote
        its value first, and one that did not re-marks the child for the
        next drain.  Two racing writers can at worst mark a child twice,
        which the per-reader sets absorb.

        A call with nothing written since the reader's last one returns at
        once, without the lock: a write racing with that check is simply
        reported by the next call, as if it had landed just after this one.
        """
        if not self._written:
            state = self._readers.get(id(reader))
            if state is not None and not state.pending:
                return []
        with self._lock:
            written = self._written
            count = len(written)
            if count:
                # Appends racing with these two lines land past ``count``.
                batch = written[:count]
                del written[:count]
                for child in batch:
                    child._marked = False
                # A copy: a reader collected meanwhile leaves the table.
                for state in tuple(self._readers.values()):
                    state.pending.update(batch)
            state = self._readers.get(id(reader))
            if state is None:
                state = self._readers[id(reader)] = _ReaderState(reader, self._readers)
                state.pending.update(self._scalars())
            last = state.last
            pairs = []
            for child in state.pending:
                value = child.value
                previous = last.get(child, 0.0)
                if value != previous:
                    pairs.append((child, value - previous))
                    last[child] = value
            state.pending.clear()
        return pairs

    def snapshot(self) -> dict:
        """All metrics as a JSON-ready dict (runs registered collectors)."""
        for fn in list(self._collectors):
            try:
                fn(self)
            except Exception:  # a broken collector must not kill a report
                logger.exception("telemetry collector %r failed", fn)
        out: dict = {}
        for name, family in sorted(self._families.items()):
            values = []
            for key in sorted(family.children):
                child = family.children[key]
                entry: dict = {"labels": dict(key)}
                if isinstance(child, Histogram):
                    entry.update(
                        buckets=list(child.buckets),
                        counts=list(child.counts),
                        sum=child.sum,
                        count=child.count,
                    )
                else:
                    entry["value"] = child.value
                values.append(entry)
            out[name] = {"type": family.kind, "values": values}
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def export_state(self) -> list[tuple]:
        """Every child as a picklable ``(kind, name, buckets, labels, value)``.

        A histogram's value is ``(counts, sum, count)``; ``buckets`` is the
        family's spec (``None`` for the default).  Collectors do not run.
        :meth:`merge_state` adds the list to another registry.
        """
        with self._lock:
            return [
                (family.kind, family.name, family.buckets, key,
                 (list(child.counts), child.sum, child.count)
                 if family.kind == "histogram" else child.value)
                for family in self._families.values()
                for key, child in family.children.items()
            ]

    def merge_state(self, state: Iterable[tuple]) -> None:
        """Add another registry's :meth:`export_state` to this one.

        Counters add, gauges take the exported value, histograms add their
        bucket counts, sums and counts.
        """
        for kind, name, buckets, labels, value in state:
            labels = dict(labels)
            if kind == "counter":
                self.counter(name, **labels).inc(value)
            elif kind == "gauge":
                self.gauge(name, **labels).set(value)
            else:
                histogram = self.histogram(name, buckets, **labels)
                counts, total, count = value
                for i, n in enumerate(counts):
                    histogram.counts[i] += n
                histogram.sum += total
                histogram.count += count

    def reset(self) -> None:
        """Drop every family and child (collectors stay registered).

        Delta readers start over, and children a caller still holds keep
        marking the abandoned list, which nobody drains: like the rest of
        the read side, deltas never report a child the registry dropped.
        """
        with self._lock:
            self._families.clear()
            self._cache.clear()
            self._written = []
            self._readers.clear()
            self._generation += 1
