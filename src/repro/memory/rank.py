"""Rank resource model: per-chip, per-bank occupancy and row-buffer state.

The central modelling decision (DESIGN.md §5): a PCM chip's write circuitry
is a single-server resource — while a chip is array-writing, it can serve
no other access in *any* bank (this is the premise of the paper: "from the
read queue perspective, these chips are not available as if they are
faulty", §IV-B).  Reads, on the other hand, overlap across banks of a chip
exactly as in DRAM.

Concretely, every chip tracks

* ``write_busy_until`` — exclusive across the whole chip, set by array
  writes (data words, ECC/PCC updates);
* per-bank ``array_busy_until`` — set by reads and writes touching that
  bank of the chip;
* per-bank ``open_row`` — the row currently latched in the row buffer.

Reservation methods return nothing; callers first query ``*_ready_time``
to decide when an operation may start, then reserve.  The rank keeps only
the current busy-until state: the occupancy *history* (Figure-5 grids,
the stress tests' chip-exclusivity check) is the tracer's
``chip.reserve``/``chip.release`` stream, emitted per reserved chip with
the caller's request id and reason, and only when tracing is on.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.memory.timing import TimingParams


class ChipState:
    """Occupancy and row-buffer state of one physical PCM chip."""

    __slots__ = (
        "write_busy_until", "array_busy_until", "array_busy_max", "open_row"
    )

    def __init__(self, n_banks: int):
        self.write_busy_until = 0
        self.array_busy_until: List[int] = [0] * n_banks
        #: Running ``max(array_busy_until)``.  Busy-until values only ever
        #: move forward (reservations take the max with the new end), so
        #: the maximum can be maintained incrementally instead of being
        #: rescanned on every :meth:`write_ready` query.
        self.array_busy_max = 0
        self.open_row: List[Optional[int]] = [None] * n_banks

    def read_ready(self, bank: int) -> int:
        """Earliest tick a read may start on ``bank`` of this chip."""
        busy = self.array_busy_until[bank]
        write_busy = self.write_busy_until
        return busy if busy >= write_busy else write_busy

    def write_ready(self, bank: int) -> int:
        """Earliest tick an array write may start on ``bank``.

        The chip's write circuitry is exclusive with *all* array activity
        (the premise that makes a writing chip unavailable to reads also
        bars starting a write under an in-flight read on any bank).
        """
        busy = self.array_busy_max
        write_busy = self.write_busy_until
        return busy if busy >= write_busy else write_busy

    def reserve_read(self, bank: int, end: int, row: Optional[int]) -> None:
        """Occupy the bank's array until ``end``; latch ``row`` if given."""
        busy = self.array_busy_until
        if end > busy[bank]:
            busy[bank] = end
            if end > self.array_busy_max:
                self.array_busy_max = end
        if row is not None:
            self.open_row[bank] = row

    def reserve_write(self, bank: int, end: int, row: Optional[int]) -> None:
        """Occupy the chip's write circuitry (all banks) until ``end``."""
        if end > self.write_busy_until:
            self.write_busy_until = end
        busy = self.array_busy_until
        if end > busy[bank]:
            busy[bank] = end
            if end > self.array_busy_max:
                self.array_busy_max = end
        if row is not None:
            self.open_row[bank] = row


class RankState:
    """All chips of one rank plus helpers for multi-chip operations."""

    def __init__(
        self,
        timing: TimingParams,
        n_chips: int,
        n_banks: int,
        channel: int = 0,
        rank_index: int = 0,
        tracer=None,
    ):
        self.timing = timing
        self.n_chips = n_chips
        self.n_banks = n_banks
        self.channel = channel
        self.rank_index = rank_index
        self.chips: List[ChipState] = [ChipState(n_banks) for _ in range(n_chips)]
        #: Bumped by every reservation.  Ready-time answers are pure
        #: functions of chip state, so schedulers cache them per request
        #: stamped with this counter and skip the chip scan while the
        #: rank hasn't changed (wake-timer rescans mostly haven't).
        self.version = 0
        if tracer is None:
            from repro.telemetry.tracer import NULL_TRACER

            tracer = NULL_TRACER
        #: Structured-event tracer; every reservation becomes a
        #: ``chip.reserve``/``chip.release`` pair when tracing is on.
        self.tracer = tracer

    def _trace(
        self, kind: str, chip: int, bank: int, start: int, end: int,
        req_id: int, reason: str,
    ) -> None:
        from repro.telemetry.tracer import EventType, TraceEvent

        common = dict(
            channel=self.channel,
            rank=self.rank_index,
            chip=chip,
            bank=bank,
            req_id=req_id,
            start=start,
            end=end,
            kind=kind,
            reason=reason,
        )
        self.tracer.emit(
            TraceEvent(
                EventType.CHIP_RESERVE,
                tick=start if start >= 0 else end,
                **common,
            )
        )
        self.tracer.emit(
            TraceEvent(EventType.CHIP_RELEASE, tick=end, **common)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def read_ready_time(self, chips: Iterable[int], bank: int) -> int:
        """Earliest tick a striped read over ``chips`` may start."""
        states = self.chips
        ready = 0
        for c in chips:
            chip = states[c]
            busy = chip.array_busy_until[bank]
            if chip.write_busy_until > busy:
                busy = chip.write_busy_until
            if busy > ready:
                ready = busy
        return ready

    def write_ready_time(self, chips: Iterable[int], bank: int) -> int:
        """Earliest tick a (multi-chip) write may start."""
        states = self.chips
        ready = 0
        for c in chips:
            chip = states[c]
            busy = chip.array_busy_max
            if chip.write_busy_until > busy:
                busy = chip.write_busy_until
            if busy > ready:
                ready = busy
        return ready

    def chip_write_busy_until(self, chip: int) -> int:
        return self.chips[chip].write_busy_until

    def busy_chips_at(self, time: int) -> Tuple[int, ...]:
        """Chips whose write circuitry is busy at ``time``.

        This is exactly what the PCMap controller learns by polling the
        DIMM status register (paper §IV-D1).
        """
        return tuple(
            c for c in range(self.n_chips)
            if self.chips[c].write_busy_until > time
        )

    def row_hit(self, chips: Iterable[int], bank: int, row: int) -> bool:
        """True when every involved chip already has ``row`` latched."""
        return all(self.chips[c].open_row[bank] == row for c in chips)

    def row_open_any(self, chips: Iterable[int], bank: int) -> bool:
        """True when any involved chip has some row latched in ``bank``."""
        return any(self.chips[c].open_row[bank] is not None for c in chips)

    # ------------------------------------------------------------------
    # Activation cost
    # ------------------------------------------------------------------
    def activation_ticks(self, chips: Sequence[int], bank: int, row: int) -> int:
        """Array time to make ``row`` available on all involved chips.

        Row hit costs nothing; a conflict pays the row close plus the
        array read; an empty row buffer pays only the array read.
        """
        read_ticks = self.timing.array_read_ticks
        conflict_ticks = self.timing.row_close_ticks + read_ticks
        states = self.chips
        worst = 0
        for c in chips:
            open_row = states[c].open_row[bank]
            if open_row == row:
                continue
            cost = read_ticks if open_row is None else conflict_ticks
            if cost > worst:
                worst = cost
        return worst

    # ------------------------------------------------------------------
    # Reservations
    # ------------------------------------------------------------------
    # ``start`` (-1 when unknown), ``req_id`` and ``reason`` (``verify``,
    # ``compare``, ``code-update``; empty for plain data work) only feed
    # the trace; they cost nothing when tracing is off.
    def reserve_read(
        self,
        chips: Iterable[int],
        bank: int,
        end: int,
        row: Optional[int],
        start: int = -1,
        req_id: int = -1,
        reason: str = "",
    ) -> None:
        self.version += 1
        states = self.chips
        if not self.tracer.enabled:
            for c in chips:
                states[c].reserve_read(bank, end, row)
            return
        for c in chips:
            states[c].reserve_read(bank, end, row)
            self._trace("read", c, bank, start, end, req_id, reason)

    def reserve_write(
        self,
        chips: Iterable[int],
        bank: int,
        end: int,
        row: Optional[int],
        start: int = -1,
        req_id: int = -1,
    ) -> None:
        self.version += 1
        states = self.chips
        if not self.tracer.enabled:
            for c in chips:
                states[c].reserve_write(bank, end, row)
            return
        for c in chips:
            states[c].reserve_write(bank, end, row)
            self._trace("write", c, bank, start, end, req_id, "")

    def reserve_chip_write(
        self,
        chip: int,
        bank: int,
        end: int,
        row: Optional[int],
        start: int = -1,
        req_id: int = -1,
        reason: str = "",
    ) -> None:
        """Reserve a single chip's write circuitry (fine-grained write)."""
        self.version += 1
        self.chips[chip].reserve_write(bank, end, row)
        if self.tracer.enabled:
            self._trace("write", chip, bank, start, end, req_id, reason)

    # ------------------------------------------------------------------
    def earliest_all_free(self, chips: Iterable[int], bank: int) -> int:
        """Alias of :meth:`read_ready_time` with clearer intent at call sites."""
        return self.read_ready_time(chips, bank)
