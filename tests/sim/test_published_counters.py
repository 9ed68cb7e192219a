"""Stats-backed registry counters: which names a run publishes.

The stats dataclasses are the only store for these counts; the registry
copies are filled once at collection.  A name appears only for the
components the run built, so a baseline dump never grows a RoW or tier
counter.  ``tests/telemetry/test_integration.py`` checks the values.
"""

import pytest

from repro.core.systems import make_front_end, make_system
from repro.sim.simulator import SimulationParams, simulate

CONTROLLER = {
    "requests.write.enqueued",
    "reads.completed",
    "reads.forwarded",
    "reads.delayed_by_write",
    "drain.entries",
}
ROW = {"row.reads", "row.overlap_reads", "rollbacks", "verifications"}
WOW = {"wow.groups", "wow.member_writes"}
FRONTEND = {
    "frontend.hits",
    "frontend.misses",
    "frontend.mshr_coalesced",
    "frontend.fills",
    "frontend.write_backs",
}
ALL = CONTROLLER | ROW | WOW | FRONTEND


def _run(system: str, tier: bool = False):
    extra = {"front_end": make_front_end("dram")} if tier else {}
    params = SimulationParams(
        target_requests=200, n_cores=2, seed=3, collect_metrics=True, **extra
    )
    return simulate(make_system(system), "canneal", params)


@pytest.mark.parametrize(
    "system, tier, expected",
    [
        ("baseline", False, CONTROLLER),
        ("write-pausing", False, CONTROLLER),
        ("palp-lite", False, CONTROLLER),
        ("row-nr", False, CONTROLLER | ROW),
        ("wow-nr", False, CONTROLLER | WOW),
        ("rwow-rde", False, CONTROLLER | ROW | WOW),
        ("rwow-rde", True, ALL),
    ],
)
def test_published_names_match_the_built_components(system, tier, expected):
    result = _run(system, tier)
    assert set(result.metrics) & ALL == expected

