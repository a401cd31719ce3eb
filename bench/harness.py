"""Measurement loop shared by the five workloads (runs inside the worker).

A workload is a fixed *pass* — an ordered list of ops per client — that is
repeated; the harness times each op and each pass **from outside**, by
calling the closures the workload hands it.  Nothing here knows what an op
does.  All loops are closed: a client issues its next op only after the
previous one returned.

Every time is reported twice.  The issue's names (``ops_per_s``,
``op_p50_ms``, ``op_p90_ms``, ``cpu_ms_per_op``) are **host time**, as the
clock read.  The sandbox this runs in changes speed by 20-35 % within a
second and for minutes at a time, so host time spreads 5-30 % between runs
of the same code — more than any regression bound the benchmark may set.  A
:class:`SpeedMeter` therefore runs a small fixed reference task between ops,
and the ``cal_*`` twin of each metric is the same time divided by the speed
factor measured next to it (*at reference speed*).  The task uses numpy and
plain python only — never ``repro`` — so a change to the program cannot
move it.  ``BENCHMARK.json`` bounds the ``cal_*`` metrics.
"""

from __future__ import annotations

import contextlib
import heapq
import logging
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

logger = logging.getLogger("bench")

#: Seconds a client waits for its peers at a pass boundary before giving up
#: (a hung peer must fail the run, not hang it past the driver's time cap).
BARRIER_TIMEOUT_S = 120.0

#: Op seconds between two samples of the speed meter.
CALIBRATION_INTERVAL_S = 0.1


class _Node:
    """An object of the python reference task's pointer-chasing graph."""

    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next = self

    def plus(self, x: int) -> int:
        return self.value + x


class SpeedMeter:
    """Machine-speed factor from one fixed reference task.

    The task has three parts, because what slows the sandbox does not slow
    all code by the same amount: ``python`` (interpreter loops, method
    calls, pointer chasing over 20 000 objects, heap and dict work),
    ``blas`` (small matmuls) and ``memory`` (a 4 MiB streaming add and sum).
    ``sample()`` returns the ``WEIGHTS``-weighted ``measured seconds /
    NOMINAL_S``: 1.0 when the machine runs the parts as fast as the box the
    benchmark was defined on, above 1.0 when it is slower.  ``NOMINAL_S``
    only fixes the unit.

    Parts are timed by the calling thread's CPU clock: a client that shares
    the interpreter lock with other threads would otherwise measure its wait
    for the lock, which is the workload and not the machine.
    """

    NOMINAL_S = {"python": 0.00095, "blas": 0.00035, "memory": 0.00064}
    WEIGHTS = {"python": 0.7, "blas": 0.1, "memory": 0.2}

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.random((160, 160))
        self._stream = rng.random(1 << 19)
        self._scratch = np.empty_like(self._stream)
        nodes = [_Node(i) for i in range(20_000)]
        for i, node in enumerate(nodes):
            node.next = nodes[(i * 7919 + 1) % len(nodes)]
        self._at = nodes[0]
        #: CPU and wall seconds spent sampling (so callers can leave them out).
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def _python(self) -> None:
        table: dict[int, int] = {}
        acc = 0
        for i in range(6_000):
            table[i & 255] = acc
            acc += i * i
        node = self._at
        heap: list[tuple[int, int]] = []
        for i in range(3_000):
            node = node.next
            acc += node.plus(i)
            if i % 8 == 0:
                heapq.heappush(heap, (node.value, i))
        while heap:
            heapq.heappop(heap)
        acc += sum(x * x for x in range(1_500))
        {f"k{i}": i for i in range(600)}
        self._at = node

    def _blas(self) -> None:
        self._matrix @ self._matrix
        self._matrix @ self._matrix

    def _memory(self) -> None:
        np.add(self._stream, 1.0, out=self._scratch)
        self._scratch.sum()

    @staticmethod
    def _median_of_three(part: Callable[[], None]) -> float:
        """One preempted run of a part cannot skew the sample."""
        times = []
        for _ in range(3):
            t0 = time.thread_time()
            part()
            times.append(time.thread_time() - t0)
        return sorted(times)[1]

    def sample(self) -> float:
        cpu0 = time.thread_time()
        wall0 = time.perf_counter()
        factor = sum(
            weight * self._median_of_three(getattr(self, f"_{name}")) / self.NOMINAL_S[name]
            for name, weight in self.WEIGHTS.items()
        )
        self.cpu_s += time.thread_time() - cpu0
        self.wall_s += time.perf_counter() - wall0
        return factor


@dataclass
class Op:
    """One timed call into the program.

    ``verify`` (optional) receives the op's return value after the pass has
    been timed and says whether the output is correct; a false verdict or
    an exception makes the op count as failed.
    """

    kind: str
    fn: Callable[[], Any]
    verify: Callable[[Any], bool] | None = None


@dataclass
class PassResult:
    """One pass, in host time, with the machine speed measured beside it."""

    #: Time the pass took its clients: the sum of the op times of a lone
    #: client, barrier to barrier for several.  Includes ops that failed.
    wall_s: float
    #: ``time.process_time()`` over the pass, all threads.
    cpu_s: float
    #: Speed factor of the pass: its ops' factors weighted by their duration.
    speed: float
    #: ``(kind, seconds, speed factor)`` of every op that succeeded, in issue
    #: order per client.  A failed op has no latency.
    latencies: list[tuple[str, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _run_client(ops: list[Op], span, meter: SpeedMeter) -> list[list]:
    """Issue ``ops`` one after another.

    Returns one record ``[op, seconds, speed factor, output, raised]`` per
    op; the output is kept only for ops that have a ``verify``.  An op that
    raises keeps the time it took, so a failure cannot shorten the pass.
    The speed is sampled before the first op and then after every
    ``CALIBRATION_INTERVAL_S`` of op time; an op's factor is the mean of the
    samples on either side of it.
    """
    records: list[list] = []
    perf = time.perf_counter
    before = meter.sample()
    open_from = 0  # first record still waiting for its closing sample
    since = 0.0

    def settle() -> None:
        nonlocal before, open_from, since
        after = meter.sample()
        for record in records[open_from:]:
            record[2] = (before + after) / 2.0
        before, open_from, since = after, len(records), 0.0

    for op in ops:
        if since >= CALIBRATION_INTERVAL_S:
            settle()
        out, raised = None, False
        t0 = perf()
        try:
            with span(op.kind):
                out = op.fn()
        except Exception:  # the boundary that must keep measuring
            logger.exception("op %r raised", op.kind)
            raised = True
        seconds = perf() - t0
        records.append([op, seconds, 1.0, out if op.verify else None, raised])
        since += seconds
    if open_from < len(records):
        settle()
    return records


def no_span(kind: str):
    """The root-span factory of an untraced pass."""
    return contextlib.nullcontext()


def run_pass(
    clients: list[list[Op]], meters: list[SpeedMeter], span=no_span
) -> PassResult:
    """Run one pass: every client's op list, clients in parallel threads.

    ``meters`` holds one speed meter per client; ``span`` is the tracer's
    root-span context factory (a no-op untraced).  Outputs are verified
    after the clocks have stopped.

    One client: the pass time is the sum of its op times, so the meter's
    samples between ops are not part of it.  Several clients: wall time
    between two barriers, less the time a client spent sampling (mean over
    clients).  The samples still compete with the other threads for the
    interpreter lock while they run, which this cannot take out.
    """
    meter_cpu0 = sum(m.cpu_s for m in meters)
    meter_wall0 = sum(m.wall_s for m in meters)
    if len(clients) == 1:
        cpu0 = time.process_time()
        records = _run_client(clients[0], span, meters[0])
        cpu = time.process_time() - cpu0
        wall = sum(r[1] for r in records)
    else:
        # Two barriers bracket the timed region: clients start together
        # and the main thread reads the clocks when the last one is done.
        start = threading.Barrier(len(clients) + 1)
        done = threading.Barrier(len(clients) + 1)
        outcomes: list = [None] * len(clients)

        def client(index: int) -> None:
            start.wait(BARRIER_TIMEOUT_S)
            try:
                outcomes[index] = _run_client(clients[index], span, meters[index])
            finally:
                done.wait(BARRIER_TIMEOUT_S)

        threads = [
            threading.Thread(target=client, args=(i,), name=f"client-{i}")
            for i in range(len(clients))
        ]
        for t in threads:
            t.start()
        start.wait(BARRIER_TIMEOUT_S)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        done.wait(BARRIER_TIMEOUT_S)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        for t in threads:
            t.join(BARRIER_TIMEOUT_S)
        if any(t.is_alive() for t in threads) or any(o is None for o in outcomes):
            raise RuntimeError("a client thread did not finish its pass")
        records = [r for recs in outcomes for r in recs]
        wall -= (sum(m.wall_s for m in meters) - meter_wall0) / len(clients)

    cpu -= sum(m.cpu_s for m in meters) - meter_cpu0
    busy = sum(r[1] for r in records)
    speed = busy / sum(r[1] / r[2] for r in records) if busy else 1.0
    result = PassResult(wall, cpu, speed, attempted=len(records))
    for op, seconds, factor, out, raised in records:
        ok = not raised
        if ok and op.verify is not None:
            try:
                ok = bool(op.verify(out))
            except Exception:
                logger.exception("verify of op %r raised", op.kind)
                ok = False
            if not ok:
                logger.error("op %r failed its output check", op.kind)
        if ok:
            result.latencies.append((op.kind, seconds, factor))
        else:
            result.failed += 1
    return result


def pooled_ms(passes: list[PassResult], kind: str | None = None) -> np.ndarray:
    """Host-time latencies (ms) of every successful op, optionally of one kind."""
    return np.array(
        [
            s * 1e3
            for p in passes
            for k, s, _ in p.latencies
            if kind is None or k == kind
        ]
    )


def kind_median_ms(passes: list[PassResult], kind: str) -> float:
    values = pooled_ms(passes, kind)
    return float(np.median(values)) if values.size else 0.0


def end_to_end_metrics(passes: list[PassResult]) -> dict[str, float]:
    """The workload-independent end-to-end numbers of a set of timed passes:
    host time under the issue's names, each with a ``cal_`` twin at reference
    speed.

    ``ops_per_s`` counts the ops that succeeded, so neither a failure that
    returns early nor one that is slow can read as a gain.
    """
    attempted = sum(p.attempted for p in passes)
    host = np.array([s for p in passes for _, s, _ in p.latencies]) * 1e3
    cal = np.array([s / f for p in passes for _, s, f in p.latencies]) * 1e3

    def percentile(pool: np.ndarray, q: float) -> float:
        return float(np.percentile(pool, q)) if pool.size else 0.0

    return {
        "ops_per_s": statistics.median((p.attempted - p.failed) / p.wall_s for p in passes),
        "op_p50_ms": percentile(host, 50),
        "op_p90_ms": percentile(host, 90),
        "cpu_ms_per_op": sum(p.cpu_s for p in passes) * 1e3 / attempted,
        "cal_ops_per_s": statistics.median(
            (p.attempted - p.failed) * p.speed / p.wall_s for p in passes
        ),
        "cal_op_p50_ms": percentile(cal, 50),
        "cal_op_p90_ms": percentile(cal, 90),
        "cal_cpu_ms_per_op": sum(p.cpu_s / p.speed for p in passes) * 1e3 / attempted,
        "latency_samples": int(host.size),
    }


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
