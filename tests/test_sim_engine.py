"""Discrete-event engine tests."""

import pytest

from repro.sim.engine import Simulator, SimulationError


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_run_empty(self):
        sim = Simulator()
        assert sim.run() == 0.0

    def test_run_until_advances_clock(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0


class TestTimeout:
    def test_fires_at_delay(self):
        sim = Simulator()
        seen = []

        def p(sim):
            yield sim.timeout(2.5)
            seen.append(sim.now)

        sim.process(p(sim))
        sim.run()
        assert seen == [2.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_timeout_value_delivered(self):
        sim = Simulator()
        seen = []

        def p(sim):
            value = yield sim.timeout(1.0, value="hello")
            seen.append(value)

        sim.process(p(sim))
        sim.run()
        assert seen == ["hello"]

    def test_ordering_fifo_at_same_time(self):
        sim = Simulator()
        order = []

        def p(sim, name):
            yield sim.timeout(1.0)
            order.append(name)

        for name in "abc":
            sim.process(p(sim, name))
        sim.run()
        assert order == ["a", "b", "c"]


class TestProcess:
    def test_sequential_waits_accumulate(self):
        sim = Simulator()
        times = []

        def p(sim):
            yield sim.timeout(1.0)
            times.append(sim.now)
            yield sim.timeout(2.0)
            times.append(sim.now)

        sim.process(p(sim))
        sim.run()
        assert times == [1.0, 3.0]

    def test_process_is_waitable(self):
        sim = Simulator()
        log = []

        def child(sim):
            yield sim.timeout(3.0)
            return "done"

        def parent(sim):
            result = yield sim.process(child(sim))
            log.append((sim.now, result))

        sim.process(parent(sim))
        sim.run()
        assert log == [(3.0, "done")]

    def test_waiting_on_already_finished_process(self):
        sim = Simulator()
        log = []

        def child(sim):
            yield sim.timeout(1.0)
            return 42

        def parent(sim, child_proc):
            yield sim.timeout(5.0)
            value = yield child_proc
            log.append((sim.now, value))

        c = sim.process(child(sim))
        sim.process(parent(sim, c))
        sim.run()
        assert log == [(5.0, 42)]

    def test_yielding_non_event_raises(self):
        sim = Simulator()

        def bad(sim):
            yield 42

        sim.process(bad(sim))
        with pytest.raises(SimulationError, match="expected an Event"):
            sim.run()

    def test_exception_in_process_propagates(self):
        sim = Simulator()

        def bad(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("boom")

        sim.process(bad(sim))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()


class TestEvents:
    def test_manual_trigger(self):
        sim = Simulator()
        ev = sim.event()
        log = []

        def waiter(sim):
            value = yield ev
            log.append((sim.now, value))

        def trigger(sim):
            yield sim.timeout(2.0)
            ev.succeed("go")

        sim.process(waiter(sim))
        sim.process(trigger(sim))
        sim.run()
        assert log == [(2.0, "go")]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_delivers_exception(self):
        sim = Simulator()
        ev = sim.event()
        caught = []

        def waiter(sim):
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        def trigger(sim):
            yield sim.timeout(1.0)
            ev.fail(ValueError("nope"))

        sim.process(waiter(sim))
        sim.process(trigger(sim))
        sim.run()
        assert caught == ["nope"]

    def test_value_before_trigger_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            _ = sim.event().value


class TestCombinators:
    def test_all_of_waits_for_slowest(self):
        sim = Simulator()
        log = []

        def p(sim):
            values = yield sim.all_of([sim.timeout(1.0, "a"), sim.timeout(3.0, "b")])
            log.append((sim.now, values))

        sim.process(p(sim))
        sim.run()
        assert log == [(3.0, ["a", "b"])]

    def test_all_of_empty(self):
        sim = Simulator()
        log = []

        def p(sim):
            yield sim.all_of([])
            log.append(sim.now)

        sim.process(p(sim))
        sim.run()
        assert log == [0.0]

    def test_any_of_fires_on_first(self):
        sim = Simulator()
        log = []

        def p(sim):
            value = yield sim.any_of([sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")])
            log.append((sim.now, value))

        sim.process(p(sim))
        sim.run()
        assert log == [(1.0, "fast")]

    def test_any_of_empty_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.any_of([])


class TestUnhandledFailures:
    """Unhandled process crashes must surface from run(), naming the culprit."""

    def test_crash_note_names_process_and_time(self):
        sim = Simulator()

        def bad(sim):
            yield sim.timeout(2.0)
            raise RuntimeError("boom")

        sim.process(bad(sim), name="collector")
        with pytest.raises(RuntimeError, match="boom") as err:
            sim.run()
        notes = getattr(err.value, "__notes__", [])
        assert any(
            "unhandled failure in process 'collector' at t=2" in n for n in notes
        )

    def test_joined_failure_is_handled_not_reraised(self):
        sim = Simulator()
        caught = []

        def bad(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("boom")

        def watcher(sim, child):
            try:
                yield child
            except RuntimeError as exc:
                caught.append(str(exc))

        child = sim.process(bad(sim))
        sim.process(watcher(sim, child))
        sim.run()  # must not raise: the watcher consumed the failure
        assert caught == ["boom"]

    def test_any_of_race_loser_failure_still_surfaces(self):
        # A process that loses an any_of race and *then* crashes has no
        # joiner left; its failure must not be silently dropped.
        sim = Simulator()

        def loser(sim):
            yield sim.timeout(2.0)
            raise ValueError("late crash")

        def racer(sim, loser_proc):
            yield sim.any_of([sim.timeout(1.0), loser_proc])

        proc = sim.process(loser(sim), name="loser")
        sim.process(racer(sim, proc))
        with pytest.raises(ValueError, match="late crash"):
            sim.run()

    def test_all_of_child_failure_delivered_to_waiter(self):
        sim = Simulator()
        caught = []

        def bad(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("child died")

        def waiter(sim, children):
            try:
                yield sim.all_of(children)
            except RuntimeError as exc:
                caught.append(str(exc))

        children = [sim.process(bad(sim)), sim.timeout(5.0)]
        sim.process(waiter(sim, children))
        sim.run()
        assert caught == ["child died"]


class TestTimesAreRefusedAtTheDoor:
    """A NaN heap key compares false with everything: before it was refused,
    processes due at 1.0, nan, 0.5, 2.0 fired as 0.5, 1.0, nan, 2.0 and
    ``now`` read nan in between."""

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1e-9])
    def test_timeout_refuses_a_non_finite_or_negative_delay(self, delay):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(delay)
        assert sim.run() == 0.0  # nothing was scheduled

    def test_a_process_yielding_a_nan_timeout_fails_instead_of_reordering(self):
        sim = Simulator()
        fired = []

        def p(sim, delay):
            yield sim.timeout(delay)
            fired.append(sim.now)

        for delay in (1.0, float("nan"), 0.5, 2.0):
            sim.process(p(sim, delay))
        with pytest.raises(SimulationError):
            sim.run()
        assert sim.now == 0.0 and fired == []

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), 0.999])
    def test_timeout_at_refuses_a_non_finite_or_past_time(self, time):
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(SimulationError):
            sim.timeout_at(time)

    def test_timeout_at_fires_at_the_callers_float(self):
        sim = Simulator()
        sim.run(until=0.96)
        when = 10.44  # a relative timeout would fire at 10.440000000000001
        assert 0.96 + (when - 0.96) != when
        seen = []

        def p(sim):
            value = yield sim.timeout_at(when, "v")
            seen.append((sim.now, value))

        sim.process(p(sim))
        sim.timeout_at(sim.now)  # "now" is not the past
        sim.run()
        assert seen == [(when, "v")]


class TestEventsProcessed:
    def test_counts_what_run_popped(self):
        sim = Simulator()
        assert sim.events_processed == 0

        def ticker(sim):
            for _ in range(5):
                yield sim.timeout(1.0)

        sim.process(ticker(sim))
        sim.run(until=2.5)
        partway = sim.events_processed
        sim.run()
        # bootstrap + 5 timeouts + the process's own completion event
        assert 0 < partway < sim.events_processed == 7
