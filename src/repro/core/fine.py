"""Fine-grained write engine and its basic policies (paper §IV-A2).

:class:`FineWriteEngine` owns the mechanics every PCMap policy shares:

* issuing a write that touches only its essential-word chips (plus the
  ECC/PCC word updates, optionally deferred for RoW's two-step write);
* the in-flight write budget (the DIMM register's finite command
  buffering, Figure 7);
* the **write-engine token** — one write *group* in array service per
  rank at a time, because the PCM write-power budget serialises array
  writes rank-wide (DESIGN.md §5).  The PALP-style comparator narrows
  the token's scope to one per (rank, bank) *partition* instead, which
  is the whole difference between ``palp-lite`` and a plain fine-write
  system.

Two chain policies live here because they are pure engine drivers:

* :class:`SilentWritePolicy` — zero-dirty write-backs (the chips'
  read-before-write finds nothing to change) cost one array read and
  open a zero-activity window so they stay in the IRLP average;
* :class:`FineWritePolicy` — the fallback plain fine-grained write of
  the head, holding the engine token through its full service.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.memory.address import DecodedAddress
from repro.memory.bus import BusDirection
from repro.memory.policy import BaseSchedulerPolicy, WriteContext
from repro.memory.request import MemoryRequest, ServiceClass
from repro.memory.rank import RankState

if TYPE_CHECKING:
    from repro.memory.controller import MemoryController
    from repro.sim.metrics import WriteWindow

#: Scope of the write-engine token: ``"rank"`` models the rank-wide PCM
#: write-power budget (all PCMap systems); ``"bank"`` frees concurrent
#: write services on different banks (the PALP-style comparator).
ENGINE_SCOPES = ("rank", "bank")


class FineWriteEngine:
    """Shared fine-grained write mechanics for one channel controller."""

    def __init__(self, controller: "MemoryController", scope: str = "rank"):
        if scope not in ENGINE_SCOPES:
            raise ValueError(
                f"unknown write-engine scope {scope!r}; expected one of "
                f"{ENGINE_SCOPES}"
            )
        self.c = controller
        self.scope = scope
        #: Scope resolved to a bool once: ``free_at`` sits in the
        #: write-candidate scan and must not string-compare per call.
        self._rank_scope = scope == "rank"
        #: Fine-grained writes currently in flight on this channel.
        self.inflight = 0
        #: Engine-token free times, keyed by rank (or (rank, bank)).
        self._free: dict = {}

    # ------------------------------------------------------------------
    # Write-engine token
    # ------------------------------------------------------------------
    def _token(self, decoded: DecodedAddress) -> Union[int, Tuple[int, int]]:
        if self._rank_scope:
            return decoded.rank
        return (decoded.rank, decoded.bank)

    def free_at(self, decoded: DecodedAddress) -> int:
        """Tick at which ``decoded``'s engine token is free."""
        if self._rank_scope:
            return self._free.get(decoded.rank, 0)
        return self._free.get((decoded.rank, decoded.bank), 0)

    def hold(self, decoded: DecodedAddress, until: int) -> None:
        """Extend the engine-token reservation to ``until``."""
        token = self._token(decoded)
        if until > self._free.get(token, 0):
            self._free[token] = until

    @property
    def budget_left(self) -> int:
        """Head-room under the in-flight cap (never negative)."""
        return max(0, self.c.config.max_inflight_writes - self.inflight)

    # ------------------------------------------------------------------
    # Fine-grained writes (§IV-A2)
    # ------------------------------------------------------------------
    def issue_silent_write(
        self, req: MemoryRequest, decoded: DecodedAddress, now: int
    ) -> None:
        """Zero-dirty write-back: read-before-write finds nothing to change.

        The chips still perform the compare, which costs one array read on
        the line's data chips but never engages the write circuitry.
        """
        c = self.c
        rank = c.ranks[decoded.rank]
        chips = c.layout.all_data_chips(decoded.line_address)
        start = max(
            now + c.timing.status_poll_ticks,
            rank.read_ready_time(chips, decoded.bank),
        )
        end = start + c.timing.array_read_ticks
        rank.reserve_read(
            chips, decoded.bank, end, decoded.row, start=start,
            req_id=req.req_id, reason="compare",
        )
        req.service_class = ServiceClass.SILENT
        # Zero-activity window: silent write-backs count toward IRLP.
        c._open_window(start, end)
        self.begin_inflight(req, start, end, decoded)

    def issue_fine_write(
        self,
        req: MemoryRequest,
        decoded: DecodedAddress,
        now: int,
        window: "WriteWindow",
        defer_pcc: bool = False,
    ) -> Tuple[int, int, int]:
        """Issue one write touching only its essential-word chips.

        Reserves each dirty chip for transfer + read-before-write + array
        write, the ECC chip for its word update, and the PCC chip either
        immediately or (``defer_pcc``, the RoW two-step) once the data
        step finishes.  Returns ``(start, data_end, service_end)``; the
        service end covers the ECC/PCC updates, which without rotation
        serialise on the fixed code chips and stretch the window exactly
        as the paper's Figure 5(d) shows.

        Chip activity is attributed to ``window`` for IRLP accounting.
        """
        c = self.c
        rank = c.ranks[decoded.rank]
        line = decoded.line_address
        bank, row = decoded.bank, decoded.row
        start = now + c.timing.status_poll_ticks

        data_end = start
        window_start: Optional[int] = None
        for word in req.dirty_words:
            chip = c.layout.data_chip(line, word)
            chip_start = max(start, rank.chips[chip].write_ready(bank))
            _xs, xfer_end = c.bus.reserve_partial(
                chip, BusDirection.WRITE, chip_start
            )
            # The word-write latency includes the chip's internal
            # read-before-write (Figure 5 charges no separate activation).
            array_start = xfer_end
            ticks = c._word_write_ticks(req, word)
            chip_end = array_start + ticks
            rank.reserve_chip_write(
                chip, bank, chip_end, row, start=array_start,
                req_id=req.req_id,
            )
            c.stats.record_chip_write(chip)
            # Route through _record_activity so concurrent windows (other
            # in-flight writes) see this chip as busy too — IRLP counts
            # every chip serving *some* request during a write window.
            c._record_activity((chip,), array_start, chip_end)
            data_end = max(data_end, chip_end)
            if window_start is None or array_start < window_start:
                window_start = array_start
        window.absorb(window_start if window_start is not None else start, data_end)

        ecc_end = self.issue_code_update(
            rank, c.layout.ecc_chip(line), bank, row, start, req.req_id
        )
        pcc_chip = c.layout.pcc_chip(line)
        completion = max(data_end, ecc_end)

        if pcc_chip is None:
            window.extend(completion)
            window.note_service_end(completion)
            self.begin_inflight(req, start, completion, decoded)
        elif defer_pcc:
            # RoW step 2: the PCC update starts right after the data step
            # so the chip stays free for reconstruction meanwhile.  The
            # reservation is made *at* data_end (not now) so overlapped
            # reads can use the PCC chip during step 1.
            self.begin_inflight(
                req, start, completion, decoded, hold_completion=True
            )
            # Step 2 grows the window at data_end, possibly after the
            # controller has closed it: hold it out of retirement till then.
            window.held = True

            def _step_two() -> None:
                pcc_end = self.issue_code_update(
                    rank, pcc_chip, bank, row, c.engine.now, req.req_id
                )
                final = max(completion, pcc_end)
                window.extend(final)
                window.note_service_end(final)
                window.held = False
                c.engine.call_at(final, c._complete_write, req)

            c.engine.call_at(data_end, _step_two)
        else:
            pcc_end = self.issue_code_update(
                rank, pcc_chip, bank, row, start, req.req_id
            )
            completion = max(completion, pcc_end)
            window.extend(completion)
            window.note_service_end(completion)
            self.begin_inflight(req, start, completion, decoded)
        return start, data_end, completion

    def issue_code_update(
        self, rank: RankState, chip: int, bank: int, row: int, earliest: int,
        req_id: int,
    ) -> int:
        """Reserve request ``req_id``'s ECC/PCC word update on ``chip``;
        returns its end tick.

        The update is a differential PCM word write (cheaper than a full
        data word, see TimingParams.ecc_update_fraction).  Updates queue
        up behind whatever the chip is already doing — this is the
        serialisation that pins down WoW without ECC rotation.
        """
        c = self.c
        chip_start = max(earliest, rank.chips[chip].write_ready(bank))
        _xs, xfer_end = c.bus.reserve_partial(
            chip, BusDirection.WRITE, chip_start
        )
        # ecc_update_ticks is all-inclusive (read-modify-write of the
        # code word), mirroring the data-word write cost model.
        end = xfer_end + c.timing.ecc_update_ticks
        rank.reserve_chip_write(
            chip, bank, end, row, start=xfer_end,
            req_id=req_id, reason="code-update",
        )
        c.stats.record_chip_write(chip)
        return end

    def begin_inflight(
        self,
        req: MemoryRequest,
        start: int,
        completion: int,
        decoded: DecodedAddress,
        hold_completion: bool = False,
    ) -> None:
        """Common issue bookkeeping; schedules completion unless held.

        The queue entry stays until completion (see the base class note).
        """
        c = self.c
        req.start_service = start
        c.write_q.note_issued(req)
        if c.storage is not None and req.new_words is not None:
            c.storage.write_line(
                decoded.line_address, req.new_words, req.dirty_mask
            )
        self.inflight += 1
        if not hold_completion:
            c.engine.call_at(completion, c._complete_write, req)

    def note_write_complete(self) -> None:
        self.inflight -= 1


class SilentWritePolicy(BaseSchedulerPolicy):
    """Serve zero-dirty write-backs with a compare-only array read."""

    name = "silent-write"

    def select_write(self, ctx: WriteContext) -> bool:
        if ctx.head.dirty_mask:
            return False
        assert self.controller is not None
        self.controller.fine.issue_silent_write(ctx.head, ctx.decoded, ctx.now)
        return True


class FineWritePolicy(BaseSchedulerPolicy):
    """Fallback: a plain fine-grained write of the head.

    Holds the write-engine token through the full service (data + code
    updates) — without RoW/WoW nothing overlaps with the write window.
    """

    name = "fine-write"

    def select_write(self, ctx: WriteContext) -> bool:
        assert self.controller is not None
        c = self.controller
        window = c._open_window(-1, -1)
        _start, _data_end, completion = c.fine.issue_fine_write(
            ctx.head, ctx.decoded, ctx.now, window=window
        )
        self.chain.on_window_open(window, ctx.decoded.rank)
        c.fine.hold(ctx.decoded, completion)
        return True
