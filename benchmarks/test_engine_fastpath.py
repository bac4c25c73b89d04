"""Microbenchmark guard for the ``Engine.run`` event loop.

One heap loop serves plain, pooled and clock-checked engines.  Each
configuration is timed here on the same timeout-heavy workload so a
regression in any of them shows up in pytest-benchmark's comparison tables;
every configuration must also agree on the final clock and event count.
"""

import pytest

from repro.des.engine import Engine

# 64 interleaved processes x 500 timeouts with co-prime delays: enough
# churn to dominate fixed costs, small enough to keep CI time modest.
N_PROCS = 64
N_STEPS = 500
EXPECTED_EVENTS = N_PROCS * N_STEPS


def _churn(**engine_kwargs):
    eng = Engine(**engine_kwargs)

    def proc(delay):
        for _ in range(N_STEPS):
            yield eng.timeout(delay)

    for i in range(N_PROCS):
        eng.process(proc(1.0 + (i % 7) * 0.25))
    eng.run()
    return eng


VARIANTS = {
    "heap-plain": {},
    "heap-pooled": {"pool_timeouts": True},
    "heap-checked": {"check_clock": True, "pool_timeouts": True},
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_engine_run_loop(benchmark, variant):
    """Time one engine configuration on the shared timeout workload."""
    eng = benchmark(_churn, **VARIANTS[variant])
    assert eng.events_fired >= EXPECTED_EVENTS


def test_variants_agree():
    """All three configurations drain the same workload to identical end states."""
    engines = {name: _churn(**kwargs) for name, kwargs in VARIANTS.items()}
    baseline = engines["heap-plain"]
    for name, eng in engines.items():
        assert eng.now == baseline.now, name
        assert eng.events_fired == baseline.events_fired, name
