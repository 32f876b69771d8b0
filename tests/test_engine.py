"""Unit tests for the discrete-event kernel."""

import pytest

from repro.netsim.engine import Event, SimulationError, Simulator


class TestScheduling:
    def test_callbacks_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_are_fifo(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_cancellation_skips_callback(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        handle.cancel()
        sim.run()
        assert fired == []

    def test_run_until_time_limit_advances_clock(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0
        # the event at t=10 still pending
        assert sim.pending_count() == 1
        sim.run()
        assert sim.now == 10.0

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, seen.append, sim.now + 1.0))
        sim.run()
        assert seen == [2.0]

    def test_run_until_event_returns_value(self):
        sim = Simulator()
        ev = sim.event()
        sim.schedule(2.0, ev.trigger, 42)
        assert sim.run_until(ev) == 42

    def test_run_until_deadlock_raises(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(SimulationError, match="drained"):
            sim.run_until(ev)


class TestEvent:
    def test_double_trigger_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.trigger(1)
        with pytest.raises(SimulationError):
            ev.trigger(2)

    def test_trigger_if_pending(self):
        sim = Simulator()
        ev = sim.event()
        assert ev.trigger_if_pending("x") is True
        assert ev.trigger_if_pending("y") is False
        assert ev.value == "x"

    def test_callback_after_trigger_runs_immediately(self):
        sim = Simulator()
        ev = sim.event()
        ev.trigger("done")
        got = []
        ev.add_callback(got.append)
        assert got == ["done"]

    def test_timeout_event(self):
        sim = Simulator()
        ev = sim.timeout(3.0, "late")
        sim.run()
        assert ev.triggered and ev.value == "late"
        assert sim.now == 3.0

    def test_any_of_fires_on_first(self):
        sim = Simulator()
        a, b = sim.event(), sim.event()
        combined = sim.any_of([a, b])
        sim.schedule(1.0, b.trigger, "bee")
        sim.schedule(2.0, a.trigger, "aye")
        sim.run()
        assert combined.value == (1, "bee")

    def test_all_of_collects_values_in_order(self):
        sim = Simulator()
        a, b = sim.event(), sim.event()
        combined = sim.all_of([a, b])
        sim.schedule(2.0, a.trigger, "aye")
        sim.schedule(1.0, b.trigger, "bee")
        sim.run()
        assert combined.value == ["aye", "bee"]

    def test_all_of_empty_triggers_immediately(self):
        sim = Simulator()
        assert sim.all_of([]).triggered


class TestProcess:
    def test_sleep_and_return_value(self):
        sim = Simulator()

        def proc():
            yield 1.5
            yield 0.5
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.done_event.value == 2.0
        assert not p.is_alive

    def test_wait_on_event_receives_value(self):
        sim = Simulator()
        ev = sim.event()

        def proc():
            value = yield ev
            return value * 2

        p = sim.process(proc())
        sim.schedule(1.0, ev.trigger, 21)
        sim.run()
        assert p.done_event.value == 42

    def test_process_composition(self):
        sim = Simulator()

        def child():
            yield 2.0
            return "child-result"

        def parent():
            result = yield sim.process(child())
            return ("got", result)

        p = sim.process(parent())
        sim.run()
        assert p.done_event.value == ("got", "child-result")

    def test_invalid_yield_raises(self):
        sim = Simulator()

        def proc():
            yield "nonsense"

        sim.process(proc())
        with pytest.raises(SimulationError, match="unsupported"):
            sim.run()

    def test_exceptions_propagate_out_of_run(self):
        sim = Simulator()

        def proc():
            yield 1.0
            raise ValueError("boom")

        sim.process(proc())
        with pytest.raises(ValueError, match="boom"):
            sim.run()


class TestInterrupt:
    def test_interrupt_triggers_done_event(self):
        sim = Simulator()

        def proc():
            yield 100.0

        p = sim.process(proc())
        sim.run(until=1.0)
        p.interrupt()
        assert not p.is_alive
        assert p.done_event.triggered
        assert p.done_event.value is None

    def test_parent_waiting_on_interrupted_child_resumes(self):
        """Regression: interrupting a child used to leave the parent's
        ``yield child`` waiting forever (done_event never triggered)."""
        sim = Simulator()

        def child():
            yield 100.0
            return "never"

        def parent():
            result = yield child_proc
            return ("resumed", result)

        child_proc = sim.process(child())
        parent_proc = sim.process(parent())
        sim.schedule(1.0, child_proc.interrupt)
        sim.run()
        assert parent_proc.done_event.triggered
        assert parent_proc.done_event.value == ("resumed", None)

    def test_interrupted_child_return_value_reaches_parent(self):
        sim = Simulator()

        def child():
            try:
                yield 100.0
            except RuntimeError:
                return "cleaned-up"
            return "never"

        def parent():
            result = yield child_proc
            return result

        child_proc = sim.process(child())
        parent_proc = sim.process(parent())
        sim.schedule(1.0, child_proc.interrupt, RuntimeError("stop"))
        sim.run()
        assert parent_proc.done_event.value == "cleaned-up"

    def test_uncaught_interrupt_exception_propagates_after_done(self):
        sim = Simulator()

        def proc():
            yield 100.0

        p = sim.process(proc())
        sim.run(until=1.0)
        with pytest.raises(RuntimeError, match="stop"):
            p.interrupt(RuntimeError("stop"))
        assert p.done_event.triggered
        assert not p.is_alive

    def test_interrupt_is_idempotent(self):
        sim = Simulator()

        def proc():
            yield 100.0

        p = sim.process(proc())
        sim.run(until=1.0)
        p.interrupt()
        p.interrupt()  # second call must be a no-op
        assert p.done_event.triggered

    def test_interrupt_after_completion_is_noop(self):
        sim = Simulator()

        def proc():
            yield 1.0
            return "done"

        p = sim.process(proc())
        sim.run()
        p.interrupt()
        assert p.done_event.value == "done"


class TestSchedulingEdgeCases:
    def test_cancel_after_pop_is_harmless(self):
        # Cancelling a handle whose heap entry has already been popped and
        # executed must be an idempotent no-op, not an error.
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        handle.cancel()
        handle.cancel()
        assert handle.cancelled
        sim.schedule(1.0, fired.append, "y")
        sim.run()
        assert fired == ["x", "y"]

    def test_event_double_trigger_raises_simulation_error(self):
        sim = Simulator()
        ev = sim.event()
        ev.trigger("first")
        with pytest.raises(SimulationError, match="twice"):
            ev.trigger("second")

    def test_run_until_boundary_is_inclusive(self):
        # An event at exactly t=until executes, and the clock lands exactly
        # on the boundary — with or without later events queued.
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "at-boundary")
        sim.schedule(5.0 + 1e-9, fired.append, "just-after")
        end = sim.run(until=5.0)
        assert fired == ["at-boundary"]
        assert end == 5.0 and sim.now == 5.0
        sim.run()
        assert fired == ["at-boundary", "just-after"]

    def test_run_until_boundary_with_empty_gap(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=3.0) == 3.0
        assert sim.now == 3.0


class TestSanitizer:
    def test_digest_requires_sanitize_mode(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="sanitize=True"):
            sim.digest()

    def test_identical_seeded_runs_have_identical_digests(self):
        import numpy as np

        def workload(sim, rng):
            def proc():
                for _ in range(20):
                    yield float(rng.exponential(0.01))
                    sim.schedule(float(rng.uniform(0.0, 0.5)), lambda: None)
                return sim.now

            sim.process(proc())
            sim.run()

        digests = []
        for _ in range(2):
            sim = Simulator(sanitize=True)
            workload(sim, np.random.default_rng(42))
            assert sim.diagnostics == []
            digests.append(sim.digest())
        assert digests[0] == digests[1]

        other = Simulator(sanitize=True)
        workload(other, np.random.default_rng(43))
        assert other.digest() != digests[0]

    def test_non_finite_delay_rejected(self):
        sim = Simulator(sanitize=True)
        with pytest.raises(SimulationError, match="non-finite"):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError, match="non-finite"):
            sim.schedule(float("inf"), lambda: None)
        with pytest.raises(SimulationError, match="non-finite"):
            sim.schedule_at(float("nan"), lambda: None)

    def test_nan_delay_passes_silently_without_sanitize(self):
        # Documents the hazard the sanitizer exists for: NaN compares false
        # against everything, so the non-sanitizing hot path accepts it.
        sim = Simulator()
        sim.schedule(float("nan"), lambda: None)
        assert sim.pending_count() == 1

    def test_past_scheduling_diagnostic_names_callback(self):
        sim = Simulator(sanitize=True)
        sim.schedule(1.0, lambda: None)
        sim.run()

        def named_callback():
            pass

        with pytest.raises(SimulationError, match="named_callback"):
            sim.schedule_at(0.25, named_callback)

    def test_fifo_tie_violation_recorded(self):
        # Corrupt the queue deliberately: a broken heap invariant makes the
        # root (seq 7) pop before seq 3 at the same timestamp.  The heap
        # itself can't produce this, which is the point — the sanitizer
        # guards against in-place mutation of queued entries.
        from repro.netsim.engine import ScheduledCall

        sim = Simulator(sanitize=True)
        first = ScheduledCall(1.0, lambda: None, ())
        second = ScheduledCall(1.0, lambda: None, ())
        sim._queue = [(1.0, 7, first), (1.0, 3, second)]
        sim.run()
        assert any("FIFO" in d for d in sim.diagnostics)

    def test_clean_run_has_no_diagnostics(self):
        sim = Simulator(sanitize=True)
        for i in range(10):
            sim.schedule(0.5, lambda: None)
            sim.schedule(0.5 * i, lambda: None)
        sim.run()
        assert sim.diagnostics == []
        assert len(sim.digest()) == 32  # blake2b-128 hex


class TestSanitizerEndToEnd:
    def test_fig01_03_owd_experiment_sanitized_and_reproducible(self):
        # Acceptance criterion: the OWD experiment runs under the sanitizer
        # with zero diagnostics, and equal seeds give equal digests.
        from repro.experiments.fig01_03_owd import measure_single_stream

        digests = []
        for _ in range(2):
            sim = Simulator(sanitize=True)
            measurement, classification = measure_single_stream(
                96e6, seed=7, sim=sim
            )
            assert measurement.n_received > 0
            assert sim.diagnostics == []
            digests.append(sim.digest())
        assert digests[0] == digests[1]

        other = Simulator(sanitize=True)
        measure_single_stream(96e6, seed=8, sim=other)
        assert other.digest() != digests[0]


def _edge_case_workload(sim):
    """Event-queue stress mix: ties, cancellations, far-future events,
    zero-delay chains, bounded runs with resume, and post-run scheduling
    that lands *behind* a previously peeked future event."""
    order = []

    def tag(x):
        order.append((sim.now, x))

    # FIFO ties at one timestamp, interleaved with a cancellation.
    for i in range(6):
        sim.schedule(1.0, tag, f"tie{i}")
    victim = sim.schedule(1.0, tag, "cancelled")
    victim.cancel()
    sim.schedule(1e9, tag, "far")
    # Zero-delay chain: each callback schedules the next at the same time.
    def chain(k):
        tag(f"chain{k}")
        if k < 5:
            sim.schedule(0.0, chain, k + 1)

    sim.schedule(0.5, chain, 0)
    # Bounded run, then schedule events *earlier* than the pending ones.
    sim.run(until=0.75)
    sim.schedule_at(0.8, tag, "late-insert-a")
    sim.schedule(0.05, tag, "late-insert-b")
    for i in range(50):
        sim.schedule(2.0 + (i % 7) * 0.25, tag, f"bulk{i}")
    sim.run(until=3.0)
    sim.schedule(0.125, tag, "resume")
    sim.run()
    return order


class TestEventQueue:
    def test_edge_case_order_and_digest(self):
        sim = Simulator(sanitize=True)
        order = _edge_case_workload(sim)
        # Bulk events (scheduled at t=0.75) at one timestamp keep
        # insertion (FIFO) order.
        bulk = [
            (2.75 + slot * 0.25, f"bulk{i}")
            for slot in range(7)
            for i in range(50)
            if i % 7 == slot
        ]
        expected = (
            [(0.5, f"chain{k}") for k in range(6)]
            + [(0.8, "late-insert-a"), (0.8, "late-insert-b")]
            + [(1.0, f"tie{i}") for i in range(6)]
            + [e for e in bulk if e[0] < 3.125]
            + [(3.125, "resume")]
            + [e for e in bulk if e[0] > 3.125]
            + [(1e9, "far")]
        )
        assert order == expected
        assert sim.diagnostics == []
        assert sim.digest() == "0695306ca9f0e1843c612ab04f4e3cc3"

    def test_peek_time_with_cancellations(self):
        sim = Simulator()
        assert sim.peek_time() is None
        head = sim.schedule(0.5, lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.peek_time() == 0.5
        head.cancel()
        assert sim.peek_time() == 1.0
        # Peeking never consumes: the event still runs.
        ran = []
        sim.schedule(2.0, ran.append, "x")
        sim.run()
        assert ran == ["x"]

    def test_non_finite_timestamp_survives_bounded_run(self):
        # Without sanitize, inf delays are accepted and stay queued past
        # any finite bound.
        sim = Simulator()
        seen = []
        sim.schedule(float("inf"), seen.append, "inf")
        sim.schedule(1.0, seen.append, "finite")
        assert sim.pending_count() == 2
        sim.run(until=10.0)
        assert seen == ["finite"]
        assert sim.pending_count() == 1
