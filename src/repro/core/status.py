"""DIMM status register (paper §IV-D1, Figure 7).

The PCMap DIMM register keeps, per bank, one busy bit per chip.  A chip
sets its bit while it is array-writing a word and clears it when done; the
controller issues a ``Status`` command (2 memory cycles, 0.8 ns) to read
the flags before every scheduling decision involving overlap.

In this simulator each chip's current busy-until state lives in
:class:`repro.memory.rank.RankState` (its history, when wanted, is the
tracer's ``chip.reserve`` stream); the status register is a thin,
faithfully-timed *view* of that state.  Keeping it as a distinct object
preserves the paper's hardware boundary: the controller only learns
busy/idle through polls, and every poll is charged its bus cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.memory.rank import RankState
from repro.memory.timing import TimingParams


@dataclass
class StatusSnapshot:
    """Result of one ``Status`` poll."""

    poll_time: int            #: tick the poll was issued
    ready_time: int           #: tick the response is available at the controller
    busy_chips: Tuple[int, ...]  #: chips whose write circuitry is busy

    def is_busy(self, chip: int) -> bool:
        return chip in self.busy_chips

    def busy_mask(self) -> int:
        mask = 0
        for chip in self.busy_chips:
            mask |= 1 << chip
        return mask


class DimmStatusRegister:
    """Per-rank busy/idle flags, read through timed polls."""

    def __init__(self, rank: RankState, timing: TimingParams):
        self.rank = rank
        self.timing = timing
        #: Number of Status commands issued (reported in examples/tests).
        self.polls = 0

    def poll(self, now: int) -> StatusSnapshot:
        """Issue a Status command at ``now``; returns the snapshot.

        The flags reflect chip state at ``now``; the controller can act on
        them from ``ready_time`` onwards (the 2-cycle command/response
        turnaround of §IV-D1).
        """
        self.polls += 1
        return StatusSnapshot(
            poll_time=now,
            ready_time=now + self.timing.status_poll_ticks,
            busy_chips=self.rank.busy_chips_at(now),
        )

    def idle_chips(self, now: int) -> Tuple[int, ...]:
        """Complement view: chips free for overlapped work at ``now``."""
        busy = set(self.rank.busy_chips_at(now))
        return tuple(c for c in range(self.rank.n_chips) if c not in busy)
