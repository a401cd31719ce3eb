"""Process-wide runtime metrics: counters, gauges, fixed-bucket histograms.

The registry is the numeric half of the telemetry subsystem (the
:mod:`repro.telemetry.tracer` spans are the timeline half).  Metrics are
organized as *families* — one family per metric name, fanned out into
labeled children::

    metrics.counter("collective_bytes", op="reduce_scatter", axis="y").inc(n)

Children are created on first use and live until :meth:`MetricsRegistry.reset`.
Finding a child by its canonical label key (labels sorted and ``str()``-ed)
costs ~2–3 µs, so every series is reached by one handle instead: its
*id*.  :func:`intern` gives each raw ``(kind, name, *labels.items())``
call a small int, once for the whole process, and every registry keeps
its children in a list indexed by that id, filled on first use and
emptied by :meth:`~MetricsRegistry.reset`; the id stays valid across
resets and registries.  A repeated ``metrics.counter(name, **labels)``
call is then one dict access and one list index, a site that interned
its series up front (a collective's launch shape, a bucket module, a
trainer) only the list index (:meth:`MetricsRegistry.child`).  Only
label sets whose values are all ``str`` are interned: other values
(ints, tuples, the unhashable) take the canonical path every time, since
``1 == True`` would let a raw key stand for another child.  A ``str``
subclass whose ``str()`` differs from its value (a ``(str, Enum)``
member) would find the plain string's child.

Snapshots are plain dicts (JSON-ready via :meth:`MetricsRegistry.to_json`);
*collector* callbacks registered with
:meth:`MetricsRegistry.register_collector` run at snapshot time, which is
how cheap cache statistics (e.g. the padding-layout ``lru_cache`` in
:mod:`repro.runtime.collectives`) surface as gauges without per-call cost.

Per-step consumers (the flight recorder's counter deltas) do not snapshot:
a counter's ``inc`` and a gauge's writes mark their child, and
:meth:`MetricsRegistry.scalar_deltas` visits only the marked children, so
that read costs the same whether the registry holds ten children or a
thousand.  It returns ``(child, delta)`` pairs as computed; naming and
ordering them (:func:`series_deltas`) waits until someone reads them.

A writer whose series are fixed — a trainer step under one bucket plan —
keeps their ids in a :class:`Slots` table and writes all of them with one
:meth:`MetricsRegistry.add` call; the table keeps the children they
resolved to, again only on its first call against a registry (and after
a reset).  An ``add`` marks nothing: a counter keeps ``direct``, the part
of its value written outside ``add``, and a delta is always a change of
``direct`` (a gauge's value).  The amounts an ``add`` wrote reach a
reader only from the writer itself — a trainer step hands them to the
flight recorder with its step record — so between steps that write
nothing else a reader has nothing to drain.
"""

from __future__ import annotations

import json
import logging
import threading
import weakref
from bisect import bisect_left
from typing import Callable, Iterable, Mapping, Sequence

from repro.refuse import count

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


#: Interned series, for the whole process: ``(kind, name,
#: *labels.items())`` -> id, and id -> ``(kind, name, labels)``.  Sites
#: intern a fixed set of series (a collective's op, axis and policy, the
#: buckets', a trainer's), and lookups intern only all-``str`` label sets
#: that did not overflow, so the table stays about as small as the
#: registry's children.
_ids: dict[tuple, int] = {}
_interned: list[tuple[str, str, dict[str, str]]] = []
_intern_lock = threading.Lock()


def intern(kind: str, name: str, labels: Mapping[str, str]) -> int:
    """The id of the ``kind`` series ``name{labels}``, interned on first use.

    Labels are ``str`` and given in one order per site; another order is
    another id for the same child.
    """
    key = (kind, name, *labels.items())
    found = _ids.get(key)
    if found is None:
        with _intern_lock:
            found = _ids.get(key)
            if found is None:
                found = _ids[key] = len(_interned)
                _interned.append((kind, name, dict(labels)))
    return found


class Slots(dict):
    """Interned counter series in slot order: id -> slot index.

    A trainer step's record counts into one amount per slot, and
    :meth:`MetricsRegistry.add` writes them.  ``children`` are the counters
    the ids resolved to in the registry the last ``add`` wrote, kept here
    until a reset of that registry or another registry.
    """

    __slots__ = ("children", "_source")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.children: tuple[Counter, ...] = ()
        #: The children list of the registry ``children`` were resolved in.
        self._source: list | None = None


class _ScalarChild:
    """State shared by :class:`Counter` and :class:`Gauge` children.

    ``series`` is the child's ``name{k=v,...}`` key, formatted once here
    rather than on every read.  Every write outside
    :meth:`MetricsRegistry.add` *marks* the child: the first such write
    since the last :meth:`MetricsRegistry.scalar_deltas` drain appends it
    to ``_written``, the owning registry's list of written children, so
    per-step readers visit only what moved.  The mark takes no lock; the
    drain's half of the protocol is documented there.
    """

    __slots__ = (
        "name", "labels", "value", "direct", "series", "_order", "_written", "_marked",
    )

    def __init__(self, name: str, labels: LabelKey, written: list, order: int) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        #: The part of ``value`` written outside :meth:`MetricsRegistry.add`
        #: (all of it, for a gauge).
        self.direct = 0.0
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
        self.direct += amount
        if not self._marked:
            self._marked = True
            self._written.append(self)


class Gauge(_ScalarChild):
    """A value that can go up and down (last write wins)."""

    __slots__ = ()

    def set(self, value: float) -> None:
        self.value = self.direct = float(value)
        if not self._marked:
            self._marked = True
            self._written.append(self)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount
        self.direct = self.value
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

    A new reader starts with ``pending`` holding every child.  ``ref`` is
    a weak reference to the reader whose collection removes this state
    from the registry's table (the callback takes no lock, so it is safe
    wherever the collector runs).
    """

    __slots__ = ("last", "pending", "ref")

    def __init__(
        self, reader: DeltaReader, states: dict, pending: Iterable[_ScalarChild]
    ) -> None:
        #: Child -> the ``direct`` value last reported.
        self.last: dict[_ScalarChild, float] = {}
        self.pending: set[_ScalarChild] = set(pending)
        key = id(reader)
        self.ref = weakref.ref(reader, lambda _, states=states: states.pop(key, None))


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
        count("max_children", max_children)
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[[MetricsRegistry], None]] = []
        self._lock = threading.Lock()
        self.max_children = max_children
        #: Counter/gauge children written outside ``add`` since the last
        #: scalar_deltas drain.
        self._written: list[_ScalarChild] = []
        #: ``id(reader)`` -> position, for every live reader.
        self._readers: dict[int, _ReaderState] = {}
        #: Interned series id -> its child here, ``None`` until first use
        #: (see the module docstring for which series are kept).
        self._children: list[Counter | Gauge | Histogram | None] = []

    # --- get-or-create ------------------------------------------------------

    def _child(
        self,
        kind: str,
        name: str,
        labels: Mapping[str, object],
        buckets: tuple[float, ...] | None = None,
    ):
        """The canonical lookup: find or create the child, then keep it at
        its series' id."""
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
            # An overflowed set is never interned: each call must count in
            # the guard counter.  A family reset() dropped meanwhile is not
            # kept either.
            ident = intern(kind, name, labels)
            with self._lock:
                if self._families.get(name) is family:
                    children = self._children
                    if ident >= len(children):
                        children.extend([None] * (ident + 1 - len(children)))
                    children[ident] = child
        return child

    def child(self, ident: int):
        """The child of the interned series ``ident`` (:func:`intern`)."""
        try:
            found = self._children[ident]
        except IndexError:
            found = None
        return found or self._child(*_interned[ident])

    def counter(self, name: str, **labels: object) -> Counter:
        try:
            found = self._children[_ids[("counter", name, *labels.items())]]
        except (KeyError, TypeError, IndexError):  # not kept, or unhashable
            found = None
        return found or self._child("counter", name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        try:
            found = self._children[_ids[("gauge", name, *labels.items())]]
        except (KeyError, TypeError, IndexError):
            found = None
        return found or self._child("gauge", name, labels)

    def histogram(
        self, name: str, buckets: Iterable[float] | None = None, **labels: object
    ) -> Histogram:
        if buckets is None:  # a bucket spec is checked against the family
            try:
                found = self._children[_ids[("histogram", name, *labels.items())]]
                if found is not None:
                    return found
            except (KeyError, TypeError, IndexError):
                pass
        spec = tuple(buckets) if buckets is not None else None
        if spec is not None and list(spec) != sorted(set(spec)):
            raise ValueError("histogram buckets must be strictly increasing")
        return self._child("histogram", name, labels, spec)

    def add(self, slots: Slots, amounts: Sequence[float]) -> None:
        """Increment the counter of each series in ``slots`` by its amount
        (``amounts[slot]``), in one call.

        The table's children are resolved on its first call against this
        registry and again after a :meth:`reset`; later calls only
        increment.  Nothing is marked and the children's ``direct`` parts
        do not move, so no :meth:`scalar_deltas` reader sees these amounts:
        the caller hands them on itself (a trainer step, to the flight
        recorder's :meth:`~repro.telemetry.flight.FlightRecorder.on_step`).
        """
        children = slots.children
        if slots._source is not self._children:
            children = slots.children = tuple(map(self.child, slots))
            slots._source = self._children
        if amounts and min(amounts) < 0:
            raise ValueError("counters only go up; use a gauge")
        for child, amount in zip(children, amounts):
            child.value += amount

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

    def unread(self, reader: DeltaReader) -> bool:
        """Whether :meth:`scalar_deltas` has anything to visit for ``reader``
        (always, on its first call)."""
        if self._written:
            return True
        state = self._readers.get(id(reader))
        return state is None or bool(state.pending)

    def scalar_deltas(self, reader: DeltaReader) -> list[tuple[_ScalarChild, float]]:
        """Counter/gauge changes made outside :meth:`add` since ``reader``'s
        previous call, as computed.

        ``(child, delta)`` pairs in no particular order: a per-step consumer
        (the flight recorder) stores them, and :func:`series_deltas` names
        and orders them when they are read.  A delta is a change of the
        child's ``direct`` part (a gauge's value): what an ``add`` wrote is
        its caller's to report.

        Each reader has its own position, so several consumers (the process
        flight recorder, a test's private one) see the same deltas
        independently.  A new reader starts with every child pending, so
        its first call reports every non-zero ``direct`` part as a delta
        from 0; later calls visit only children written in between, so the
        cost follows the writes, not the registry size.

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
        if not self.unread(reader):
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
                state = self._readers[id(reader)] = _ReaderState(
                    reader, self._readers, self._scalars()
                )
            last = state.last
            pairs = []
            for child in state.pending:
                value = child.direct
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
            self._children = []
            self._written = []
            self._readers.clear()
