"""Resource, Store, and Channel tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator, SimulationError
from repro.sim.resources import Channel, Resource, Store
from repro.sim.trace import Trace


class TestResource:
    def test_serializes_beyond_capacity(self):
        sim = Simulator()
        r = Resource(sim, capacity=1)
        done = []

        def user(sim, name):
            yield from r.use(2.0)
            done.append((sim.now, name))

        sim.process(user(sim, "a"))
        sim.process(user(sim, "b"))
        sim.run()
        assert done == [(2.0, "a"), (4.0, "b")]

    def test_parallel_within_capacity(self):
        sim = Simulator()
        r = Resource(sim, capacity=2)
        done = []

        def user(sim, name):
            yield from r.use(2.0)
            done.append((sim.now, name))

        for n in "ab":
            sim.process(user(sim, n))
        sim.run()
        assert done == [(2.0, "a"), (2.0, "b")]

    def test_fifo_queue_order(self):
        sim = Simulator()
        r = Resource(sim, capacity=1)
        order = []

        def user(sim, name):
            yield from r.use(1.0)
            order.append(name)

        for n in "abcd":
            sim.process(user(sim, n))
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_release_without_acquire(self):
        sim = Simulator()
        r = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            r.release()

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), capacity=0)

    def test_queue_length_tracking(self):
        sim = Simulator()
        r = Resource(sim, capacity=1)
        r.acquire()
        r.acquire()
        assert r.in_use == 1
        assert r.queue_length == 1


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        s = Store(sim)
        got = []

        def consumer(sim):
            item = yield s.get()
            got.append((sim.now, item))

        def producer(sim):
            yield sim.timeout(1.0)
            yield s.put("x")

        sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert got == [(1.0, "x")]

    def test_get_blocks_until_item(self):
        sim = Simulator()
        s = Store(sim)
        log = []

        def consumer(sim):
            item = yield s.get()
            log.append(sim.now)

        sim.process(consumer(sim))
        sim.run()
        assert log == []  # never unblocked

    def test_capacity_blocks_producer(self):
        sim = Simulator()
        s = Store(sim, capacity=1)
        times = []

        def producer(sim):
            for i in range(3):
                yield s.put(i)
                times.append(sim.now)

        def consumer(sim):
            for _ in range(3):
                yield sim.timeout(2.0)
                yield s.get()

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        # First put immediate; later puts wait for space.
        assert times[0] == 0.0
        assert times[1] >= 2.0

    def test_fifo_item_order(self):
        sim = Simulator()
        s = Store(sim)
        got = []

        def producer(sim):
            for i in range(3):
                yield s.put(i)

        def consumer(sim):
            for _ in range(3):
                item = yield s.get()
                got.append(item)

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert got == [0, 1, 2]

    def test_level(self):
        sim = Simulator()
        s = Store(sim)
        s.put(1)
        s.put(2)
        sim.run()
        assert s.level == 2


class TestChannel:
    def test_transfer_time(self):
        sim = Simulator()
        ch = Channel(sim, bandwidth=100.0, latency=0.5)
        assert ch.transfer_time(50.0) == pytest.approx(1.0)

    def test_transfers_serialize(self):
        sim = Simulator()
        ch = Channel(sim, bandwidth=100.0)
        done = []

        def sender(sim, name):
            yield from ch.transfer(100.0)
            done.append((sim.now, name))

        sim.process(sender(sim, "a"))
        sim.process(sender(sim, "b"))
        sim.run()
        assert done == [(1.0, "a"), (2.0, "b")]

    def test_stats_accumulate(self):
        sim = Simulator()
        ch = Channel(sim, bandwidth=100.0)

        def sender(sim):
            yield from ch.transfer(100.0)
            yield from ch.transfer(50.0)

        sim.process(sender(sim))
        sim.run()
        assert ch.bytes_moved == pytest.approx(150.0)
        assert ch.busy_time == pytest.approx(1.5)

    def test_invalid_params(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Channel(sim, bandwidth=0)
        with pytest.raises(SimulationError):
            Channel(sim, bandwidth=1, latency=-1)

    def test_negative_transfer_rejected(self):
        sim = Simulator()
        ch = Channel(sim, bandwidth=100.0)

        def sender(sim):
            yield from ch.transfer(-5)

        sim.process(sender(sim))
        with pytest.raises(SimulationError):
            sim.run()


class _ReferenceLink:
    """The FIFO single server as ``Channel`` ran it before it admitted by
    reservation: a capacity-1 :class:`Resource`, one grant event per
    transfer, the service time as a ``timeout`` from the grant."""

    def __init__(self, sim, bandwidth, latency, trace):
        self.sim, self.bandwidth, self.latency, self.trace = sim, bandwidth, latency, trace
        self.server = Resource(sim, capacity=1)
        self.bytes_moved = 0.0
        self.busy_time = 0.0

    def transfer(self, nbytes, factor=1.0, label=""):
        duration = self.latency + nbytes / (self.bandwidth * factor)
        yield self.server.acquire()
        try:
            start = self.sim.now
            yield self.sim.timeout(duration)
            self.bytes_moved += nbytes
            self.busy_time += duration
            self.trace.record("link", label or "transfer", start, duration, "comm")
        finally:
            self.server.release()


def _completion_times(make_link, arrivals):
    """Run one transfer per ``(arrival, nbytes, factor)``; finish time each."""
    sim = Simulator()
    trace = Trace()
    link = make_link(sim, trace)
    finished = [None] * len(arrivals)

    def sender(i, arrival, nbytes, factor):
        yield sim.timeout(arrival)
        yield from link.transfer(nbytes, factor, label=f"t{i}")
        finished[i] = sim.now

    for i, arrival in enumerate(arrivals):
        sim.process(sender(i, *arrival))
    sim.run()
    return finished, link.bytes_moved, link.busy_time, trace.events


#: Arrival times from a small set as well as a continuum: ties (several
#: transfers asking at one instant, or at the instant the link falls free)
#: are the interesting case.
_arrival = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5]), st.floats(0.0, 4.0))
_transfer = st.tuples(
    _arrival,
    st.one_of(st.sampled_from([0.0, 50.0, 100.0]), st.floats(0.0, 1e3)),
    st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
)


class TestChannelAdmission:
    @given(
        arrivals=st.lists(_transfer, min_size=1, max_size=12),
        latency=st.sampled_from([0.0, 0.25, 1e-6]),
    )
    @settings(max_examples=150, deadline=None)
    def test_reservation_is_the_fifo_server(self, arrivals, latency):
        """Same finish time for every transfer, to the bit, and the same
        statistics and trace records, as the grant-by-grant FIFO link."""
        reserved = _completion_times(
            lambda sim, trace: Channel(sim, 100.0, latency, trace=trace, actor="link"),
            arrivals,
        )
        reference = _completion_times(
            lambda sim, trace: _ReferenceLink(sim, 100.0, latency, trace), arrivals
        )
        assert reserved == reference

    def test_one_heap_event_per_send(self):
        sim = Simulator()
        ch = Channel(sim, bandwidth=100.0)
        events = [ch.send(100.0), ch.send(50.0), ch.send(0.0)]
        assert ch.bytes_moved == 0.0  # written at completion, not at reservation
        assert sim.run() == 1.5
        assert sim.events_processed == len(events)
        assert (ch.bytes_moved, ch.busy_time) == (150.0, 1.5)

    def test_stats_are_written_before_a_waiter_resumes(self):
        sim = Simulator()
        ch = Channel(sim, bandwidth=100.0)
        seen = []

        def sender(sim):
            yield ch.send(100.0)
            seen.append((sim.now, ch.bytes_moved, ch.busy_time))

        sim.process(sender(sim))
        sim.run()
        assert seen == [(1.0, 100.0, 1.0)]

    @pytest.mark.parametrize("nbytes", [float("nan"), float("inf"), -1.0])
    def test_send_refuses_a_bad_size(self, nbytes):
        sim = Simulator()
        ch = Channel(sim, bandwidth=100.0)
        with pytest.raises(SimulationError):
            ch.send(nbytes)
        # The refused transfer reserved nothing: the link is still free now.
        done = ch.send(100.0)
        sim.run()
        assert done.triggered and sim.now == 1.0

    @pytest.mark.parametrize("factor", [float("nan"), 0.0, -0.5, 1e-320])
    def test_transfer_time_refuses_a_bad_factor(self, factor):
        ch = Channel(Simulator(), bandwidth=100.0)
        with pytest.raises(SimulationError):
            ch.transfer_time(1e300, factor)
