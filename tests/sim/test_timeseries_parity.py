"""The sampled run rides the engine's one drain loop.

``SystemSimulator.run`` samples through ``Engine.run_until_stop``'s
boundary hook.  These tests drive the same run with a reference loop
written here — one ``engine.step()``, then ``sampler.maybe_sample(now)``
after every event — and require the two time series to be JSON-equal,
with the event stream untouched by sampling.
"""

import json

import pytest

from repro.core.systems import make_front_end, make_system
from repro.sim.simulator import SimulationParams, SystemSimulator, simulate

CADENCE = 500

CASES = {
    "canneal-2-cores": ("canneal", dict(n_cores=2)),
    "kvstore-dram-tier": (
        "kvstore", dict(front_end=make_front_end("dram", capacity_mb=1))
    ),
}


def _params(sampled, **overrides):
    return SimulationParams(
        target_requests=600,
        seed=7,
        sample_every_ticks=CADENCE if sampled else None,
        **overrides,
    )


def _stepped_reference(workload, params):
    """Per-event sampling around single engine steps."""
    sim = SystemSimulator(make_system("rwow-rde"), workload, params)
    sim.sampler = sim._build_sampler()
    sim.multicore.start()
    engine = sim.engine
    while not sim.multicore.all_done:
        assert engine.step(), "deadlock: queue drained before the cores"
        sim.sampler.maybe_sample(engine.now)
    return sim._collect()


@pytest.mark.parametrize("case", sorted(CASES))
def test_drain_loop_samples_like_the_stepped_reference(case):
    workload, overrides = CASES[case]
    reference = _stepped_reference(workload, _params(True, **overrides))
    sampled = simulate(make_system("rwow-rde"), workload, _params(True, **overrides))
    plain = simulate(make_system("rwow-rde"), workload, _params(False, **overrides))

    assert json.dumps(sampled.timeseries, sort_keys=True) == json.dumps(
        reference.timeseries, sort_keys=True
    )
    series = sampled.timeseries
    assert series["total_samples"] > 1
    assert series["total_samples"] <= sampled.sim_ticks // CADENCE + 1
    # Sampling schedules nothing: the event stream is the unsampled one.
    assert sampled.profile.events_dispatched == plain.profile.events_dispatched
    assert sampled.sim_ticks == plain.sim_ticks
    assert reference.profile.events_dispatched == plain.profile.events_dispatched
    assert plain.timeseries is None
