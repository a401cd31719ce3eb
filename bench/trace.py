"""Outside-in tracing: spans around the public entry points of ``repro``.

For the duration of a traced run a fixed table of entry points is wrapped
and restored afterwards: class methods are patched on the class, module
functions are rebound in every loaded module that holds a reference.
Nothing under ``src/`` is edited; spans *inside* the program are a later
change.  Spans stay in memory and are written out when the run ends.

A span is ``(id, parent, op, name, layer, thread, start, end)``: ``parent``
is the enclosing span on the same thread (``None`` for a root), ``op`` the
id of the root span it descends from.  The harness opens one root span per
op (layer ``bench``); what a service worker thread executes for that op has
no parent on its own thread and so forms a root there.  A span's *self
time* is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Layer of the harness's own root spans: time in an op outside any traced
#: entry point (closure glue, and for ``service_mix`` waiting for the worker).
ROOT_LAYER = "bench"

#: The traced layers, in the order of the README table.
LAYERS = (
    "hardware", "sim", "comm", "runtime", "numerics", "optim", "models",
    "core", "spmd", "experiments", "telemetry", "resilience",
    "controlplane", "cluster", "service",
)

#: layer -> {module: (function, ...)}
FUNCTIONS = {
    "runtime": {
        "repro.runtime.collectives": (
            "ring_reduce_scatter", "ring_all_gather", "ring_all_gather_stacked",
            "ring_all_reduce", "ring_all_reduce_stacked", "two_phase_all_reduce",
            "two_phase_all_reduce_stacked", "reduce_scatter_grid", "all_gather_grid",
        ),
    },
    "numerics": {"repro.numerics.bfloat16": ("round_to_bfloat16",)},
    "comm": {
        "repro.comm.schedule": ("simulate_ring_reduce_scatter", "simulate_ring_all_gather"),
        "repro.comm.allreduce": ("two_phase_allreduce",),
    },
    "hardware": {
        "repro.hardware.topology": ("slice_for_chips",),
        "repro.hardware.rings": ("all_y_rings",),
    },
    "spmd": {
        "repro.spmd.search": ("search_partitioning",),
        "repro.spmd.graph_exec": ("validate_plan",),
    },
    "core": {
        "repro.core.planner": ("plan_parallelism",),
        "repro.core.weight_update_sharding": ("sharded_update", "bucketed_sharded_update"),
    },
    "resilience": {"repro.resilience.chaos": ("run_chaos",)},
    "cluster": {"repro.cluster.scheduler": ("run_cluster", "solo_replay")},
    "service": {
        "repro.service.executors": ("execute",),
        "repro.service.spec": ("content_key",),
        "repro.service.sweep": ("run_sweep",),
    },
}

#: layer -> {module: {class: (method, ...)}}
METHODS = {
    "service": {
        "repro.service.service": {"SimulationService": ("submit",)},
        "repro.service.cache": {"ResultCache": ("get", "put")},
    },
    "cluster": {
        "repro.cluster.scheduler": {"ClusterScheduler": ("run",)},
        "repro.cluster.state": {"ClusterState": ("allocate", "release", "find_anchor")},
    },
    "sim": {"repro.sim.engine": {"Simulator": ("run",)}},
    "runtime": {
        "repro.runtime.mesh": {"VirtualMesh": ("all_reduce", "put", "get")},
        "repro.runtime.bucket": {
            "GradientBucket": ("all_reduce", "all_reduce_stacked", "flatten", "unflatten"),
        },
    },
    "models": {"repro.models.mlp": {"MLP": ("loss_and_grad",)}},
    "optim": {
        "repro.optim.base": {"Optimizer": ("update",)},
        "repro.optim.lamb": {"LAMB": ("norm_stats", "apply")},
        "repro.optim.adam": {"Adam": ("norm_stats", "apply")},
        "repro.optim.sgd": {"SGDMomentum": ("norm_stats", "apply")},
    },
    "telemetry": {
        "repro.telemetry.flight": {
            "FlightRecorder": ("on_step", "record_counter_deltas"),
        },
    },
    "controlplane": {"repro.controlplane.heartbeat": {"HeartbeatDetector": ("simulate",)}},
    "spmd": {"repro.spmd.plan": {"Partitioner": ("partition",)}},
    "core": {
        "repro.core.data_parallel": {
            "SingleDeviceTrainer": ("step",), "DataParallelTrainer": ("step",),
        },
        "repro.core.weight_update_sharding": {"WeightUpdateShardedTrainer": ("step",)},
        "repro.core.model_parallel": {"HybridParallelTrainer": ("step",)},
        "repro.core.step_time": {"StepTimeModel": ("__init__", "breakdown", "step_time")},
    },
}

#: The experiment drivers are reached through this dict, not by name.
EXPERIMENTS_DICT = ("repro.experiments.runner", "EXPERIMENTS")

#: Modules whose globals may hold references to the wrapped functions.
REBIND_PREFIXES = ("repro", "bench")


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    # --- recording ------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        spans, ids, local, perf = self.spans, self._ids, self._local, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = next(ids)
            parent = stack[-1] if stack else None
            op = stack[0] if stack else span
            stack.append(span)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans.append(
                    (span, parent, op, name, layer, threading.current_thread().name,
                     start, end)
                )

        return traced

    @contextmanager
    def root(self, kind: str):
        """The root span of one op, opened by the harness around the call."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = next(self._ids)
        stack.append(span)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span, None, span, kind, ROOT_LAYER,
                 threading.current_thread().name, start, end)
            )

    # --- patching -------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the entry-point table; restore every binding on exit."""
        undo: list[tuple] = []  # (holder, attribute or key, original, is_item)
        try:
            for layer, modules in METHODS.items():
                for module_name, classes in modules.items():
                    module = importlib.import_module(module_name)
                    for class_name, methods in classes.items():
                        cls = getattr(module, class_name)
                        for method in methods:
                            original = cls.__dict__[method]
                            setattr(cls, method, self._wrap(
                                original, f"{class_name}.{method}", layer
                            ))
                            undo.append((cls, method, original, False))
            for modules in FUNCTIONS.values():
                for module_name in modules:
                    importlib.import_module(module_name)
            holders = [
                m for name, m in list(sys.modules.items())
                if m is not None and name.split(".")[0] in REBIND_PREFIXES
            ]
            for layer, modules in FUNCTIONS.items():
                for module_name, names in modules.items():
                    for name in names:
                        original = getattr(sys.modules[module_name], name)
                        wrapped = self._wrap(original, name, layer)
                        for holder in holders:
                            for attr, value in list(vars(holder).items()):
                                if value is original:
                                    setattr(holder, attr, wrapped)
                                    undo.append((holder, attr, original, False))
            module_name, dict_name = EXPERIMENTS_DICT
            if module_name in sys.modules:
                experiments = getattr(sys.modules[module_name], dict_name)
                for key, original in list(experiments.items()):
                    experiments[key] = self._wrap(original, f"experiments.{key}", "experiments")
                    undo.append((experiments, key, original, True))
            yield self
        finally:
            for holder, key, original, is_item in reversed(undo):
                if is_item:
                    holder[key] = original
                else:
                    setattr(holder, key, original)

    # --- analysis -------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> self seconds (duration minus direct children)."""
        covered: dict[int, float] = defaultdict(float)
        for _, parent, _, _, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return {s[0]: (s[7] - s[6]) - covered[s[0]] for s in self.spans}

    def self_seconds(self) -> dict[str, float]:
        """Self seconds per layer over all threads (every layer listed)."""
        out = dict.fromkeys((*LAYERS, ROOT_LAYER), 0.0)
        for layers in self.self_seconds_by_thread().values():
            for layer, seconds in layers.items():
                out[layer] += seconds
        return out

    def self_seconds_by_thread(self) -> dict[str, dict[str, float]]:
        self_of = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            out[span[5]][span[4]] += self_of[span[0]]
        return {thread: dict(layers) for thread, layers in out.items()}

    def write(self, path: Path) -> None:
        """Chrome trace (``traceEvents``) plus the raw spans and self-time table."""
        from repro.sim.trace import Trace

        origin = min((s[6] for s in self.spans), default=0.0)
        trace = Trace()
        for _, _, _, name, layer, thread, start, end in self.spans:
            trace.record(thread, name, start - origin, end - start, layer, self.workload)
        document = {
            "traceEvents": trace.to_chrome_trace(),
            "workload": self.workload,
            "span_fields": ["id", "parent", "op", "name", "layer", "thread", "start", "end"],
            "spans": [
                [*s[:6], s[6] - origin, s[7] - origin] for s in self.spans
            ],
            "self_seconds_by_thread": self.self_seconds_by_thread(),
        }
        with open(path, "w") as fh:
            json.dump(document, fh)
