"""Event-driven collective schedules vs the closed-form alpha-beta model.

These are the validation tests DESIGN.md section 6 promises: the link-level
simulation of a ring schedule must reproduce the analytic cost exactly for
uncontended rings and for the contended model-peer rings.
"""

import threading
from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.comm import schedule
from repro.comm.cost import reduce_scatter_time, ring_cost_for
from repro.comm.schedule import (
    simulate_degraded_all_gather,
    simulate_degraded_reduce_scatter,
    simulate_ring_all_gather,
    simulate_ring_reduce_scatter,
)
from repro.hardware.rings import all_x_lines, all_y_rings, model_peer_ring, x_line, y_ring
from repro.hardware.topology import TorusMesh, multipod, slice_for_chips
from repro.resilience.faults import FaultPlan
from repro.sim.engine import Simulator

PAYLOAD = 1.0e6


def _analytic(mesh, ring, payload, bidirectional=True, frac=1.0):
    c = ring_cost_for(mesh, ring)
    closed = c.closed and bidirectional
    return reduce_scatter_time(
        c.num_members, payload, c.bandwidth, c.latency,
        closed=closed, hop_links=c.hop_links, bandwidth_fraction=frac,
    )


class TestSingleRingValidation:
    def test_closed_y_ring_bidirectional(self, pod):
        ring = y_ring(pod, 0)
        des = simulate_ring_reduce_scatter(pod, ring, PAYLOAD)
        assert des == pytest.approx(_analytic(pod, ring, PAYLOAD), rel=1e-9)

    def test_closed_ring_unidirectional(self, pod):
        ring = y_ring(pod, 0)
        des = simulate_ring_reduce_scatter(pod, ring, PAYLOAD, bidirectional=False)
        c = ring_cost_for(pod, ring)
        expected = reduce_scatter_time(
            c.num_members, PAYLOAD, c.bandwidth, c.latency,
            closed=False,  # one direction == line bandwidth term
        )
        assert des == pytest.approx(expected, rel=1e-9)

    def test_open_x_line(self):
        mesh = slice_for_chips(512)  # 16x32, X open
        ring = x_line(mesh, 0)
        des = simulate_ring_reduce_scatter(mesh, ring, PAYLOAD)
        assert des == pytest.approx(_analytic(mesh, ring, PAYLOAD), rel=1e-9)

    def test_all_gather_matches_reduce_scatter(self, pod):
        ring = y_ring(pod, 0)
        rs = simulate_ring_reduce_scatter(pod, ring, PAYLOAD)
        ag = simulate_ring_all_gather(pod, ring, PAYLOAD)
        assert ag == pytest.approx(rs)

    def test_small_ring(self):
        mesh = TorusMesh(2, 4, wrap_y=True)
        ring = y_ring(mesh, 0)
        des = simulate_ring_reduce_scatter(mesh, ring, PAYLOAD)
        assert des == pytest.approx(_analytic(mesh, ring, PAYLOAD), rel=1e-9)


class TestConcurrentRings:
    def test_disjoint_y_rings_do_not_contend(self, pod):
        """All 32 column rings run concurrently at single-ring speed."""
        one = simulate_ring_reduce_scatter(pod, y_ring(pod, 0), PAYLOAD)
        rings = [y_ring(pod, x) for x in range(pod.x_size)]
        many = simulate_ring_reduce_scatter(pod, rings, PAYLOAD)
        assert many == pytest.approx(one, rel=1e-9)

    def test_peer_rings_share_bandwidth(self, pod):
        """mp peer rings contend on X links: the DES shows the 1/mp
        bandwidth share the analytic model charges."""
        mp = 4
        rings = [model_peer_ring(pod, 0, mp, p) for p in range(mp)]
        des = simulate_ring_reduce_scatter(pod, rings, PAYLOAD)
        expected = _analytic(pod, rings[0], PAYLOAD, frac=1.0 / mp)
        assert des == pytest.approx(expected, rel=1e-9)

    def test_single_peer_ring_store_and_forward(self, pod):
        """A lone multi-hop ring in the DES forwards chunks segment by
        segment (store-and-forward), which is equivalent to 1/hop_links of
        a link's bandwidth — the same aggregate the full set of peer rings
        achieves by contention.  The analytic model always charges that
        share because the schedule always runs all peer rings together."""
        ring = model_peer_ring(pod, 0, 4, 0)
        des = simulate_ring_reduce_scatter(pod, ring, PAYLOAD)
        expected = _analytic(pod, ring, PAYLOAD, frac=1.0 / ring.hop_stride)
        assert des == pytest.approx(expected, rel=1e-9)


class TestEdgeCases:
    def test_zero_payload(self, pod):
        ring = y_ring(pod, 0)
        des = simulate_ring_reduce_scatter(pod, ring, 0.0)
        # Only latency terms remain.
        assert des == pytest.approx(31 * pod.chip.link_latency, rel=1e-9)

    def test_negative_payload_rejected(self, pod):
        with pytest.raises(ValueError):
            simulate_ring_reduce_scatter(pod, y_ring(pod, 0), -1.0)


class TestPayloadsAreRefusedAtTheDoor:
    """A NaN payload used to come back as a NaN time *and* leave a memo
    entry no later call could hit (``nan != nan``), evicting a real one."""

    @pytest.mark.parametrize("payload", [float("nan"), float("inf"), -1.0])
    def test_healthy_phase(self, payload):
        mesh = TorusMesh(2, 4, wrap_y=True)
        memo = dict(schedule._PHASE_CACHE)
        for simulate in (simulate_ring_reduce_scatter, simulate_ring_all_gather):
            with pytest.raises(ValueError, match="payload_bytes"):
                simulate(mesh, y_ring(mesh, 0), payload)
        assert dict(schedule._PHASE_CACHE) == memo

    @pytest.mark.parametrize("payload", [float("nan"), float("inf"), -1.0])
    def test_degraded_phase(self, payload):
        mesh = TorusMesh(2, 4, wrap_y=True)
        for simulate in (simulate_degraded_reduce_scatter, simulate_degraded_all_gather):
            with pytest.raises(ValueError, match="payload_bytes"):
                simulate(mesh, y_ring(mesh, 0), payload, FaultPlan())


class TestPhaseMemoUnderThreads:
    def test_a_hit_survives_eviction_between_get_and_move_to_end(self, monkeypatch):
        """The service runs two workers.  With the memo full, one worker's
        miss can evict the key another has just read; the reader must still
        answer.  Capacity 1 and a ``get`` that lets the second thread run to
        completion put the eviction exactly there, every time."""
        mesh = TorusMesh(1, 4, wrap_y=True)
        ring = y_ring(mesh, 0)
        evicted_by = []

        class Interleaved(OrderedDict):
            def get(self, key, default=None):
                value = super().get(key, default)
                if value is not default and not evicted_by:
                    other = threading.Thread(
                        target=lambda: evicted_by.append(
                            simulate_ring_reduce_scatter(mesh, ring, 2 * PAYLOAD)
                        )
                    )
                    other.start()
                    other.join(timeout=60)
                    assert not other.is_alive()
                return value

        cache = Interleaved()
        monkeypatch.setattr(schedule, "_PHASE_CACHE", cache)
        monkeypatch.setattr(schedule, "_PHASE_CACHE_MAXSIZE", 1)
        cold = simulate_ring_reduce_scatter(mesh, ring, PAYLOAD)
        warm = simulate_ring_reduce_scatter(mesh, ring, PAYLOAD)
        assert warm == cold
        # The interleaving happened: the other thread's entry is the only one.
        assert len(evicted_by) == 1
        assert [key[2] for key in cache] == [2 * PAYLOAD]


@pytest.mark.usefixtures("fresh_telemetry")
class TestWorkCounters:
    """The cost of a DES answer as a count of heap events, not only as time."""

    @staticmethod
    def _events(phase="reduce_scatter"):
        return telemetry.metrics.value("sim_phase_events", phase=phase)

    def test_cold_512_chip_phase_is_one_event_per_chunk_send(self):
        mesh = slice_for_chips(512)  # 16 closed Y rings of 32
        rings = all_y_rings(mesh)
        simulate_ring_reduce_scatter(mesh, rings, 1234567.0)
        # The 16 x 2 ring directions share no link and have one shape: one
        # of them is simulated, segments x steps sends.  31 744 events when
        # every direction ran.
        value = telemetry.metrics.value
        assert value("sim_phase_classes", phase="reduce_scatter") == 1
        assert value("sim_phase_rings", phase="reduce_scatter") == 16 * 2
        chunk_sends = 32 * 31
        assert chunk_sends <= self._events() <= 1.1 * chunk_sends

    def test_every_cold_call_executes_its_events_and_a_warm_one_none(self):
        mesh = slice_for_chips(64)
        rings = all_y_rings(mesh)
        simulate_ring_reduce_scatter(mesh, rings, 1.0e6 + 1)
        first = self._events()
        simulate_ring_reduce_scatter(mesh, rings, 1.0e6 + 2)  # never seen: cold
        assert first > 0 and self._events() == 2 * first
        simulate_ring_reduce_scatter(mesh, rings, 1.0e6 + 2)  # the memo answers
        assert self._events() == 2 * first
        assert telemetry.metrics.total("sim_phase_cache_hits") == 1

    def test_hop_over_and_fault_leaves_keep_a_process_per_chunk(self):
        mesh = slice_for_chips(64)
        peers = [model_peer_ring(mesh, 0, 2, p) for p in range(2)]
        simulate_ring_reduce_scatter(mesh, peers, PAYLOAD + 3)
        # 2 rings x 3 segments x 3 steps, each a process (bootstrap, one
        # event per link, completion) of two links.
        sends = 2 * 3 * 3
        assert self._events() >= 4 * sends
        simulate_degraded_reduce_scatter(mesh, all_y_rings(mesh), PAYLOAD, FaultPlan())
        assert self._events("reduce_scatter_degraded") >= 3 * (8 * 7 * 7)

    def test_4096_chip_two_phase_all_reduce_is_one_class_per_phase(self):
        """The Multipod's 2-D all-reduce: 256 Y-ring directions and 32 X
        lines, one shape each: 17 283 events, 782 656 when every direction
        ran.  The all-gathers repeat the reduce-scatters and hit the memo."""
        mesh = multipod(4)  # 128 x 32
        y_rings, x_lines = all_y_rings(mesh), all_x_lines(mesh)
        payload = 2.0**24 + 5.0  # not used elsewhere: both phases run cold
        shard = payload / mesh.y_size
        simulate_ring_reduce_scatter(mesh, y_rings, payload)
        simulate_ring_reduce_scatter(mesh, x_lines, shard)
        simulate_ring_all_gather(mesh, x_lines, shard)
        simulate_ring_all_gather(mesh, y_rings, payload)
        value = telemetry.metrics.value
        assert value("sim_phase_classes", phase="reduce_scatter") == 2
        assert value("sim_phase_rings", phase="reduce_scatter") == 128 * 2 + 32
        events = self._events() + self._events("all_gather")
        assert events <= 1.1 * (32 * 31 + 127 * 127)


MESHES = {
    "torus": TorusMesh(8, 4, wrap_x=True, wrap_y=True),
    "line": TorusMesh(8, 4),
    # Closed Y rings of 7 and open X lines of 8: both have 7 segments.
    "y_wrap": TorusMesh(8, 7, wrap_y=True),
    "multipod2": multipod(2),
    # A pod boundary at x = 6: of the 4-way peer rings only peer 2 and 3
    # cross it, so latency alone tells their shapes apart.
    "uneven_pods": TorusMesh(8, 4, wrap_y=True, cross_pod_every=6),
}


@st.composite
def phases(draw):
    """A mesh and a random mix of its Y rings, X lines and peer rings."""
    mesh = MESHES[draw(st.sampled_from(sorted(MESHES)))]
    rows = st.integers(0, mesh.y_size - 1)
    columns = draw(st.lists(st.integers(0, mesh.x_size - 1), max_size=3, unique=True))
    rings = [y_ring(mesh, x) for x in columns]
    rings += [x_line(mesh, y) for y in draw(st.lists(rows, max_size=2, unique=True))]
    for mp in draw(st.lists(st.sampled_from((2, 4)), max_size=2)):
        y = draw(rows)
        peers = draw(st.lists(st.integers(0, mp - 1), min_size=1, unique=True))
        rings += [model_peer_ring(mesh, y, mp, p) for p in peers]
    rings = draw(st.permutations(list(dict.fromkeys(rings))))
    payload = draw(st.floats(0.0, 1e8, allow_nan=False))
    return mesh, rings, payload, draw(st.booleans())


class TestSymmetryReductionIsExact:
    """One simulated direction per symmetry class gives, to the bit, the
    time of the full simulation with every ring direction a process."""

    @settings(max_examples=60, deadline=None)
    @given(phases())
    # Each part of a component's shape, pinned by a case it alone tells apart
    # (ring size, which links two directions share, link latency), with the
    # slower component second: a wrong merge would keep the faster one.
    @example((MESHES["y_wrap"], [y_ring(MESHES["y_wrap"], 0), x_line(MESHES["y_wrap"], 0)],
              PAYLOAD, False))
    @example((MESHES["line"], [model_peer_ring(MESHES["line"], y, mp, p)
                               for y, mp, p in ((0, 2, 0), (0, 4, 3), (1, 2, 1), (1, 4, 3))],
              PAYLOAD, True))
    @example((MESHES["uneven_pods"], [model_peer_ring(MESHES["uneven_pods"], y, 4, p)
                                      for y, p in ((0, 0), (1, 2))], PAYLOAD, True))
    def test_reduced_phase_equals_the_full_simulation(self, phase):
        mesh, rings, payload, bidirectional = phase
        full = schedule._run_rings(
            "full", mesh, rings, payload, bidirectional, schedule._chunk_sender, Simulator()
        )
        reduced = schedule._simulate_phase("ring_phase", mesh, rings, payload, bidirectional)
        assert reduced.hex() == full.hex()
