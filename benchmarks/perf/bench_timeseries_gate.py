"""Ceiling on the time-series sampler's wall-time overhead.

Runs the rwow-rde/canneal reference simulation plain and with
``sample_every_ticks`` at the default cadence plus ``collect_metrics``,
in off/on pairs whose order alternates, and gates the median of the
per-pair wall ratios (:func:`~benchmarks.perf.common.paired_ratio`).
The sampler's budget is 5 %; the ceiling sits higher so timer noise on
a loaded machine cannot flake it, while a hot-path mistake (sampling per
event instead of per boundary) still trips it at once.  The ratio needs
the full 3000-request budget to be stable, which is why CI leaves this
module out: wall ratios want a quieter machine than a shared runner.
"""

from repro.core.systems import make_rwow_rde
from repro.sim.simulator import SimulationParams, simulate
from repro.telemetry.timeseries import DEFAULT_CADENCE_TICKS

from benchmarks.perf.common import PERF_SEED, paired_ratio

TARGET_REQUESTS = 3000
PAIRS = 5
OVERHEAD_CEILING = 1.15


def test_sampling_overhead_stays_under_the_ceiling():
    plain = SimulationParams(target_requests=TARGET_REQUESTS, seed=PERF_SEED)
    observed = SimulationParams(
        target_requests=TARGET_REQUESTS,
        seed=PERF_SEED,
        sample_every_ticks=DEFAULT_CADENCE_TICKS,
        collect_metrics=True,
    )
    samples = []

    def run_off():
        simulate(make_rwow_rde(), "canneal", plain)

    def run_on():
        result = simulate(make_rwow_rde(), "canneal", observed)
        samples.append(result.timeseries["total_samples"])

    ratio, wall_off, wall_on = paired_ratio(run_off, run_on, PAIRS)
    print(f"sampling overhead {ratio:.3f}x "
          f"(best off {wall_off:.3f} s, best on {wall_on:.3f} s)")
    assert samples and all(n == samples[0] > 0 for n in samples)
    assert ratio <= OVERHEAD_CEILING
