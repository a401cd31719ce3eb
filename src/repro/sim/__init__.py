"""Discrete-event simulation engine.

A small, dependency-free process-based simulator (in the style of SimPy)
used to model host input pipelines, link-level collective schedules, and
train/eval loops.  Processes are Python generators that yield events:

>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name):
...     yield sim.timeout(1.0)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a"))
>>> _ = sim.process(worker(sim, "b"))
>>> sim.run()
>>> log
[(1.0, 'a'), (1.0, 'b')]
"""

from repro.sim.engine import (
    Event,
    Process,
    Simulator,
    SimulationError,
    Timeout,
    AllOf,
)
from repro.sim.resources import Resource, Store, Channel
from repro.sim.trace import Trace, TraceEvent

__all__ = [
    "Event",
    "Process",
    "Simulator",
    "SimulationError",
    "Timeout",
    "AllOf",
    "Resource",
    "Store",
    "Channel",
    "Trace",
    "TraceEvent",
]
