"""The ``capacity_mb`` / ``--frontend-mb`` front-end sizing knob."""

import pytest

from repro.cli import build_parser, main
from repro.core.systems import make_front_end
from repro.sim.runner.jobs import SweepJob
from repro.sim.simulator import SimulationParams


def test_capacity_mb_roundtrips_through_size_bytes():
    config = make_front_end("dram", capacity_mb=64)
    assert config.dram.size_bytes == 64 * 1024 * 1024
    assert config.capacity_mb == 64.0


def test_paper_scale_default_is_256_mb():
    assert make_front_end("dram").capacity_mb == 256.0


def test_fractional_mb_allowed_when_whole_kib():
    config = make_front_end("dram", capacity_mb=0.5)
    assert config.dram.size_bytes == 512 * 1024


def test_capacity_mb_and_size_bytes_are_mutually_exclusive():
    with pytest.raises(ValueError, match="not both"):
        make_front_end("dram", capacity_mb=64, size_bytes=1 << 20)


@pytest.mark.parametrize("bad", [0, -1, 0.3 / 1024])
def test_non_positive_or_fractional_byte_sizes_rejected(bad):
    with pytest.raises(ValueError, match="positive whole number"):
        make_front_end("dram", capacity_mb=bad)


def test_cli_parses_frontend_mb():
    parser = build_parser()
    args = parser.parse_args(
        ["run", "--system", "rwow-rde", "--workload", "canneal",
         "--front-end", "dram", "--frontend-mb", "64"]
    )
    assert args.frontend_mb == 64.0


@pytest.mark.parametrize("overrides", [
    {"capacity_mb": 64},
    {"replacement": "clock"},
    {"mshrs": 4},
    {"associativity": 4},
])
def test_tier_settings_rejected_on_the_direct_path(overrides):
    """Settings for a tier that is not built would be ignored yet still
    split the sweep cache; they fail loudly instead."""
    with pytest.raises(ValueError, match="no effect on the direct path"):
        make_front_end("none", **overrides)


def test_direct_path_accepts_explicit_defaults():
    assert make_front_end("none", replacement="lru", capacity_mb=256) == (
        make_front_end("none")
    )


@pytest.mark.parametrize("flags", [
    ["--frontend-mb", "64"],
    ["--replacement", "clock"],
])
def test_cli_rejects_tier_flags_without_a_tier(flags):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--workload", "MP3", "--requests", "50", *flags])
    assert excinfo.value.code not in (0, None)
    assert "no effect on the direct path" in str(excinfo.value.code)


def _job(capacity_mb):
    return SweepJob.build(
        "canneal",
        "rwow-rde",
        SimulationParams(
            target_requests=100,
            front_end=make_front_end("dram", capacity_mb=capacity_mb),
        ),
    )


def test_sweep_cache_keys_distinguish_tier_sizes():
    """Two sweeps differing only in --frontend-mb must never share
    cached results — the size rides in the content-hashed params."""
    assert _job(64).cache_key() != _job(128).cache_key()
    assert _job(64).cache_key() == _job(64).cache_key()
