"""Engine fast path: lazy cancellation, timeout pooling, batched run loop."""

import pytest

from repro.des.engine import Engine, SimulationError, Timeout


class TestLazyCancellation:
    def test_cancelled_event_never_fires(self):
        eng = Engine()
        fired = []
        ev = eng.timeout(5.0, "x")
        ev.callbacks.append(lambda e: fired.append(e.value))
        ev.cancel()
        assert ev.cancelled
        eng.run()
        assert fired == []
        # A discarded entry does not advance the clock (nothing fired).
        assert eng.now == 0.0

    def test_step_skips_cancelled(self):
        eng = Engine()
        seen = []
        eng.timeout(1.0).cancel()
        live = eng.timeout(2.0, "live")
        live.callbacks.append(lambda e: seen.append(e.value))
        assert eng.peek() == 1.0  # may name a cancelled entry until it is popped
        eng.step()
        assert seen == ["live"]
        assert eng.now == 2.0
        assert eng.peek() == float("inf")

    def test_cancel_twice_is_noop(self):
        eng = Engine()
        ev = eng.timeout(1.0)
        ev.cancel()
        ev.cancel()
        assert ev.cancelled

    def test_cancel_after_fire_is_error(self):
        eng = Engine()
        ev = eng.timeout(1.0)
        eng.run()
        with pytest.raises(SimulationError):
            ev.cancel()

    def test_process_yielding_cancelled_event_fails(self):
        eng = Engine()
        ev = eng.timeout(3.0)
        ev.cancel()

        def proc():
            yield ev

        p = eng.process(proc())
        with pytest.raises(SimulationError, match="cancelled"):
            eng.run()
        assert not p.is_alive


class TestTimeoutPooling:
    def test_pooling_recycles_instances(self):
        eng = Engine(pool_timeouts=True)

        def proc():
            for _ in range(50):
                yield eng.timeout(1.0)

        eng.process(proc())
        eng.run()
        assert eng.now == 50.0
        # After the first yield the same slab instance keeps being re-armed.
        assert len(eng._pool) >= 1

    def test_pool_cap_bounds_slab(self):
        eng = Engine(pool_timeouts=True, pool_cap=2)
        for _ in range(10):
            eng.timeout(1.0)
        eng.run()
        assert len(eng._pool) <= 2

    def test_default_engine_does_not_pool(self):
        eng = Engine()

        def proc():
            for _ in range(5):
                yield eng.timeout(1.0)

        eng.process(proc())
        eng.run()
        assert eng._pool == []

    def test_pooled_engine_same_results_as_default(self):
        def tickers(eng):
            out = []

            def ticker(label, dt):
                while eng.now < 20.0:
                    yield eng.timeout(dt)
                    out.append((label, eng.now))

            eng.process(ticker("a", 2.0))
            eng.process(ticker("b", 3.0))
            eng.run(until=20.0)
            return out

        def cancel_then_resume(eng):
            # Ties, zero delays and a cancellation, stopped at until= and
            # resumed: the stop must keep every entry's place in the order.
            out = []

            def proc(name, delays):
                for d in delays:
                    yield eng.timeout(d)
                    out.append((eng.now, name))

            eng.process(proc("a", [3.0, 0.0, 2.0, 7.5]))
            eng.process(proc("b", [3.0, 2.0, 0.0, 1.25]))
            eng.process(proc("c", [0.5] * 8))
            doomed = eng.timeout(4.0, "doomed")
            doomed.callbacks.append(lambda e: out.append((eng.now, "doomed")))
            doomed.cancel()
            late = eng.timeout(6.0, "late")
            late.callbacks.append(lambda e: out.append((eng.now, "late")))
            eng.run(until=4.0)
            assert eng.now == 4.0 and not eng.drained
            out.append(("stopped", eng.now))
            eng.run()
            return out, eng.now, eng.events_fired

        configs = ({"pool_timeouts": True}, {"check_clock": True, "pool_timeouts": True})
        for workload in (tickers, cancel_then_resume):
            expected = workload(Engine())
            for kw in configs:
                assert workload(Engine(**kw)) == expected, (workload.__name__, kw)

    def test_interrupt_orphans_timeout_for_recycling(self):
        eng = Engine(pool_timeouts=True)

        def sleeper():
            try:
                yield eng.timeout(100.0)
            except Exception:
                yield eng.timeout(1.0)

        p = eng.process(sleeper())

        def interrupter():
            yield eng.timeout(5.0)
            p.interrupt("wake")

        eng.process(interrupter())
        eng.run()
        assert eng.now == 6.0  # interrupted at 5, re-slept 1

    def test_rearmed_timeout_is_fresh(self):
        eng = Engine(pool_timeouts=True)
        seen = []

        def proc():
            v1 = yield eng.timeout(1.0, "one")
            seen.append(v1)
            v2 = yield eng.timeout(2.0, "two")
            seen.append(v2)

        eng.process(proc())
        eng.run()
        assert seen == ["one", "two"]
        assert eng.now == 3.0


class TestBatchedRun:
    def test_run_until_stops_and_advances_clock(self):
        eng = Engine()
        hits = []

        def proc():
            while True:
                yield eng.timeout(1.0)
                hits.append(eng.now)

        eng.process(proc())
        eng.run(until=4.5)
        assert hits == [1.0, 2.0, 3.0, 4.0]
        assert eng.now == 4.5

    def test_run_until_in_past_raises(self):
        eng = Engine(start_time=10.0)
        with pytest.raises(SimulationError):
            eng.run(until=5.0)

    def test_failed_event_propagates_and_active_stays_consistent(self):
        eng = Engine()
        eng.event().fail(RuntimeError("boom"))
        ok = eng.timeout(1.0)
        with pytest.raises(RuntimeError):
            eng.run()
        # The failed event was consumed; the queue can still drain.
        eng.run()
        assert ok.processed

    def test_timeout_type_is_event_subclass(self):
        eng = Engine()
        ev = eng.timeout(1.0)
        assert isinstance(ev, Timeout)
        assert ev.triggered and ev.ok
