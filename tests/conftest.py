"""Shared fixtures and helpers for the test suite."""

import random
import zlib
from typing import Dict, List

import pytest

from repro.core.systems import make_system
from repro.memory.memsys import make_controller
from repro.memory.request import MemoryRequest, make_read, make_write
from repro.sim.engine import Engine
from repro.sim.metrics import IrlpRecorder, WriteWindow

try:  # Deterministic hypothesis runs: no random example order, no
    # wall-clock deadline flakes; every rerun explores the same cases.
    from hypothesis import settings

    settings.register_profile("repro", derandomize=True, deadline=None)
    settings.load_profile("repro")
except ImportError:  # pragma: no cover - hypothesis is a test extra
    pass


@pytest.fixture
def seeded_rng(request) -> random.Random:
    """Per-test deterministic RNG, seeded from the test's node id.

    Fault and fuzz tests draw randomness from this instead of the global
    ``random`` module, so a failing test replays identically regardless
    of execution order or ``-k`` selection.
    """
    return random.Random(zlib.crc32(request.node.nodeid.encode()))


class ControllerHarness:
    """One channel controller plus its engine, for direct-drive tests.

    Addresses are multiplied by (line size x channels) so everything the
    test submits lands on channel 0 of the default 4-channel geometry.
    """

    def __init__(self, system_name: str = "baseline", seed: int = 1, **overrides):
        self.config = make_system(system_name, **overrides)
        self.engine = Engine()
        self.controller = make_controller(
            self.engine, self.config, channel_id=0, seed=seed
        )
        self._next_id = 0
        self.submitted: List[MemoryRequest] = []

    def _address(self, line_index: int) -> int:
        # Stride over channels so the single controller owns every line.
        return line_index * 64 * self.config.geometry.n_channels

    def read(self, line_index: int) -> MemoryRequest:
        self._next_id += 1
        req = make_read(self._next_id, self._address(line_index))
        self.controller.submit(req)
        self.submitted.append(req)
        return req

    def write(self, line_index: int, dirty_mask: int) -> MemoryRequest:
        self._next_id += 1
        req = make_write(self._next_id, self._address(line_index), dirty_mask)
        self.controller.submit(req)
        self.submitted.append(req)
        return req

    def run(self, max_events: int = 100_000) -> None:
        self.engine.run(max_events=max_events)

    def run_until(self, tick: int) -> None:
        self.engine.run(until=tick)

    def all_done(self) -> bool:
        return all(req.completion >= 0 for req in self.submitted)


@pytest.fixture
def baseline():
    return ControllerHarness("baseline")


@pytest.fixture
def pcmap():
    return ControllerHarness("rwow-rde")


def harness(system_name: str, **overrides) -> ControllerHarness:
    return ControllerHarness(system_name, **overrides)


class WindowCapture:
    """Every write window opened while capturing, kept past retirement.

    Recorders fold sealed windows into summary columns and drop them, so
    tests that inspect individual windows after a run read them here.
    """

    def __init__(self) -> None:
        #: All windows, in opening order across recorders.
        self.windows: List[WriteWindow] = []
        self._by_recorder: Dict[int, List[WriteWindow]] = {}

    def of(self, recorder: IrlpRecorder) -> List[WriteWindow]:
        """Windows ``recorder`` opened, in creation order."""
        return self._by_recorder.get(id(recorder), [])

    def note(self, recorder: IrlpRecorder, window: WriteWindow) -> None:
        self.windows.append(window)
        self._by_recorder.setdefault(id(recorder), []).append(window)


@pytest.fixture
def window_capture(monkeypatch) -> WindowCapture:
    """Capture every :meth:`IrlpRecorder.open_window` for the test's span."""
    capture = WindowCapture()
    open_window = IrlpRecorder.open_window

    def capturing_open_window(self, start, end):
        window = open_window(self, start, end)
        capture.note(self, window)
        return window

    monkeypatch.setattr(IrlpRecorder, "open_window", capturing_open_window)
    return capture
