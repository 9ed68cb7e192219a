"""Unit tests for run profiles and the wall clock."""

import pytest

from repro.telemetry import RunProfile, WallClock


def test_run_profile_summary_and_merge():
    profile = RunProfile(events_dispatched=1000, wall_seconds=0.5)
    assert profile.events_per_second == pytest.approx(2000)
    assert "1000 events" in profile.summary()

    other = RunProfile(events_dispatched=500, wall_seconds=0.5)
    profile.merge(other)
    assert profile.events_dispatched == 1500
    assert profile.wall_seconds == pytest.approx(1.0)

    empty = RunProfile()
    assert empty.events_per_second == 0.0


def test_wall_clock_measures_elapsed():
    with WallClock() as clock:
        sum(range(1000))
    assert clock.elapsed > 0
