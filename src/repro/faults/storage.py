"""Fault-injecting functional storage.

:class:`FaultInjectingStorage` subclasses the plain
:class:`~repro.memory.storage.MemoryStorage` so it drops into the
existing ``storage`` slot of :class:`~repro.memory.memsys.MainMemory`
(and every controller) without touching their hot paths — a simulation
built without it pays nothing, which is what keeps the golden traces and
the ``repro regress`` fingerprints byte-identical when faults are off.

With faults on, every ``read_line`` models what the memory controller's
SECDED stage actually does on a 72-bit codeword read:

1. decode each fault-tracked word against its stored check byte,
2. classify the outcome against the ledger's pristine value
   (``corrected`` / ``detected_uncorrectable`` / ``silent``),
3. *scrub* correctable words back into the array (stuck cells reassert
   themselves immediately, so endurance faults stay persistent), and
4. inject this access's read disturb *after* the decode — the
   disturbance is caused by the read and observed by the next one.

The PCC parity word has no check byte of its own, so PCC corruption is
never scrubbed; it survives until a RoW reconstruction consumes it and
the deferred verify in :mod:`repro.core.row` catches the mismatch —
exactly the paper's mis-verify → CPU rollback path.  Overwriting a
corrupted data word also migrates its error into the PCC (the
incremental ``pcc ^= old ^ new`` update xors the *raw* old word), which
the ledger tracks precisely.

Every mutation goes through ledger-aware XOR helpers, so the invariant

    ``raw slot value  ==  pristine value  XOR  ledger flip mask``

holds at all times; the differential oracle checks exactly this
against its golden model.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.ecc import hamming
from repro.faults.models import (
    CHECK_SLOT,
    PCC_SLOT,
    FaultConfig,
    FaultCounters,
    StuckCell,
    derive_stuck_cells,
)
from repro.memory.request import WORDS_PER_LINE
from repro.memory.storage import MemoryStorage, StoredLine
from repro.memory.wear import WearStats
from repro.telemetry import Telemetry

_FULL_MASK = (1 << WORDS_PER_LINE) - 1


class FaultInjectingStorage(MemoryStorage):
    """Functional backing store with deterministic fault injection."""

    def __init__(
        self,
        keep_pcc: bool = True,
        fault: Optional[FaultConfig] = None,
        seed: int = 1,
        telemetry: Optional[Telemetry] = None,
        oracle: Optional[object] = None,
    ):
        super().__init__(keep_pcc)
        self.fault = fault if fault is not None else FaultConfig.disabled()
        self.seed = seed
        self.oracle = oracle
        self.counters = FaultCounters()
        self.wear = WearStats()
        self.rng = random.Random((seed * 0x9E3779B1) ^ 0x5BD1E995)
        self._inject = self.fault.enabled

        #: Ledger: XOR distance of each raw slot from its pristine value.
        self._data_flips: Dict[Tuple[int, int], int] = {}
        self._check_flips: Dict[Tuple[int, int], int] = {}
        self._pcc_flips: Dict[int, int] = {}
        #: Lines with any live ledger entry (scrub fast-path filter).
        self._faulty_lines: Set[int] = set()
        #: Activated stuck cells per line.
        self._stuck: Dict[int, Tuple[StuckCell, ...]] = {}

        # Per-outcome telemetry: mirrored into the shared registry so
        # campaign reports and ``repro stats`` see the same numbers.
        metrics = (telemetry or Telemetry.disabled()).metrics
        self._m_corrected = metrics.counter("faults.outcome.corrected")
        self._m_uncorrectable = metrics.counter(
            "faults.outcome.detected_uncorrectable"
        )
        self._m_silent = metrics.counter("faults.outcome.silent")
        self._m_injected = metrics.counter("faults.injected.total")

    # ==================================================================
    # Ledger accessors (oracle + tests)
    # ==================================================================
    def raw_line(self, line_address: int) -> StoredLine:
        """The array contents without decode/scrub/injection side effects."""
        return self._materialise(line_address)

    def data_flip(self, line_address: int, word: int) -> int:
        return self._data_flips.get((line_address, word), 0)

    def check_flip(self, line_address: int, word: int) -> int:
        return self._check_flips.get((line_address, word), 0)

    def pcc_flip(self, line_address: int) -> int:
        return self._pcc_flips.get(line_address, 0)

    def stuck_cells(self, line_address: int) -> Tuple[StuckCell, ...]:
        return self._stuck.get(line_address, ())

    def lines(self) -> Iterable[int]:
        """Addresses of every materialised line."""
        return self._lines.keys()

    # ==================================================================
    # Ledger-aware mutation helpers
    # ==================================================================
    def _xor_data(self, line_address: int, word: int, mask: int) -> None:
        if not mask:
            return
        line = self._materialise(line_address)
        words = list(line.words)
        words[word] ^= mask
        self._lines[line_address] = StoredLine(tuple(words), line.checks, line.pcc)
        key = (line_address, word)
        flip = self._data_flips.get(key, 0) ^ mask
        if flip:
            self._data_flips[key] = flip
            self._faulty_lines.add(line_address)
        else:
            self._data_flips.pop(key, None)
            self._maybe_clear(line_address)

    def _xor_check(self, line_address: int, word: int, mask: int) -> None:
        if not mask:
            return
        line = self._materialise(line_address)
        checks = list(line.checks)
        checks[word] ^= mask
        self._lines[line_address] = StoredLine(line.words, tuple(checks), line.pcc)
        key = (line_address, word)
        flip = self._check_flips.get(key, 0) ^ mask
        if flip:
            self._check_flips[key] = flip
            self._faulty_lines.add(line_address)
        else:
            self._check_flips.pop(key, None)
            self._maybe_clear(line_address)

    def _xor_pcc(self, line_address: int, mask: int) -> None:
        if not mask or not self.keep_pcc:
            return
        line = self._materialise(line_address)
        self._lines[line_address] = StoredLine(
            line.words, line.checks, line.pcc ^ mask
        )
        flip = self._pcc_flips.get(line_address, 0) ^ mask
        if flip:
            self._pcc_flips[line_address] = flip
            self._faulty_lines.add(line_address)
        else:
            self._pcc_flips.pop(line_address, None)
            self._maybe_clear(line_address)

    def _maybe_clear(self, line_address: int) -> None:
        """Drop the line from the scrub set once its ledger is empty."""
        if line_address not in self._faulty_lines:
            return
        if self._pcc_flips.get(line_address, 0):
            return
        for (line, _word), _mask in self._data_flips.items():
            if line == line_address:
                return
        for (line, _word), _mask in self._check_flips.items():
            if line == line_address:
                return
        self._faulty_lines.discard(line_address)

    # ==================================================================
    # Read path: SECDED classify + scrub, then this access's disturb
    # ==================================================================
    def read_line(self, line_address: int) -> StoredLine:
        line = self._materialise(line_address)
        if self._faulty_lines and line_address in self._faulty_lines:
            self._scrub_line(line_address)
            line = self._lines[line_address]
        if self._inject:
            self._maybe_read_disturb(line_address)
            # The disturb replaced the StoredLine record; the view
            # returned to the caller is the pre-disturb (decoded) one.
        return line

    def _scrub_line(self, line_address: int) -> None:
        """Run the controller's SECDED stage over the tracked words."""
        tracked = set()
        for (line, word) in self._data_flips:
            if line == line_address:
                tracked.add(word)
        for (line, word) in self._check_flips:
            if line == line_address:
                tracked.add(word)
        for word in sorted(tracked):
            self._scrub_word(line_address, word)

    def _scrub_word(self, line_address: int, word: int) -> None:
        line = self._materialise(line_address)
        raw = line.words[word]
        raw_check = line.checks[word]
        flip = self._data_flips.get((line_address, word), 0)
        check_flip = self._check_flips.get((line_address, word), 0)
        pristine = raw ^ flip
        pristine_check = raw_check ^ check_flip

        result = hamming.decode(raw, raw_check)
        if not result.ok:
            # Double error: detected, flagged, left in place — a real
            # controller would raise a machine check here.
            self.counters.detected_uncorrectable += 1
            self._m_uncorrectable.inc()
            return
        if result.data == pristine:
            if result.status is hamming.DecodeStatus.CLEAN and (
                flip or check_flip
            ):
                # Aliased corruption that decodes clean: silent.
                self.counters.silent += 1
                self._m_silent.inc()
                return
            # Corrected (data or check bit): scrub the codeword back.
            self._xor_data(line_address, word, raw ^ pristine)
            self._xor_check(line_address, word, raw_check ^ pristine_check)
            self.counters.corrected += 1
            self._m_corrected.inc()
        else:
            # Miscorrection: the decoder "fixed" the word to a wrong
            # value; scrubbing writes that wrong-but-consistent codeword
            # back, which is exactly a silent corruption.
            self._xor_data(line_address, word, raw ^ result.data)
            self._xor_check(
                line_address, word, raw_check ^ hamming.encode(result.data)
            )
            self.counters.silent += 1
            self._m_silent.inc()
        self._reassert_stuck(line_address, word_filter=(word,))

    def _maybe_read_disturb(self, line_address: int) -> None:
        if self.rng.random() >= self.fault.read_disturb_rate:
            return
        n_slots = (PCC_SLOT + 1) if self.keep_pcc else CHECK_SLOT + 1
        slot = self.rng.randrange(n_slots)
        if slot == PCC_SLOT:
            self._xor_pcc(line_address, 1 << self.rng.randrange(64))
        elif slot == CHECK_SLOT:
            word = self.rng.randrange(WORDS_PER_LINE)
            self._xor_check(line_address, word, 1 << self.rng.randrange(8))
        else:
            self._xor_data(line_address, slot, 1 << self.rng.randrange(64))
        self.counters.read_disturb_injected += 1
        self._m_injected.inc()

    # ==================================================================
    # Write path: commit, ledger maintenance, wear, write faults
    # ==================================================================
    def write_line(
        self,
        line_address: int,
        new_words: Tuple[int, ...],
        dirty_mask: Optional[int] = None,
    ) -> int:
        if dirty_mask is None:
            dirty_mask = self.diff_mask(line_address, new_words)
        mask = dirty_mask & _FULL_MASK
        # The incremental PCC update xors the *raw* old words, so any
        # live corruption on an overwritten word migrates into the PCC.
        drift = 0
        if mask and self.keep_pcc:
            remaining = mask
            while remaining:
                i = (remaining & -remaining).bit_length() - 1
                remaining &= remaining - 1
                drift ^= self._data_flips.get((line_address, i), 0)
        super().write_line(line_address, new_words, dirty_mask)
        if mask:
            # Committed words now hold exactly their intended values and
            # freshly encoded checks: their ledger entries are cleared,
            # and the displaced corruption lands in the PCC ledger.
            remaining = mask
            while remaining:
                i = (remaining & -remaining).bit_length() - 1
                remaining &= remaining - 1
                self._data_flips.pop((line_address, i), None)
                self._check_flips.pop((line_address, i), None)
            if drift:
                flip = self._pcc_flips.get(line_address, 0) ^ drift
                if flip:
                    self._pcc_flips[line_address] = flip
                    self._faulty_lines.add(line_address)
                else:
                    self._pcc_flips.pop(line_address, None)
            self._maybe_clear(line_address)
            if self._inject:
                self._account_wear(line_address)
                self._apply_write_faults(line_address, mask)
        if self.oracle is not None:
            self.oracle.on_commit(line_address, new_words, mask)
        return dirty_mask

    def _account_wear(self, line_address: int) -> None:
        self.wear.record(line_address)
        threshold = self.fault.stuck_at_threshold
        if threshold <= 0 or line_address in self._stuck:
            return
        if self.wear.writes_per_line[line_address] < threshold:
            return
        cells = derive_stuck_cells(
            self.seed,
            line_address,
            self.fault.stuck_cells_per_line,
            include_pcc=self.keep_pcc,
        )
        self._stuck[line_address] = cells
        self.counters.stuck_lines_activated += 1
        self.counters.stuck_cells_activated += len(cells)
        self._m_injected.inc(len(cells))
        self._reassert_stuck(line_address)

    def _apply_write_faults(self, line_address: int, mask: int) -> None:
        rate = self.fault.write_fail_rate
        if rate > 0.0:
            remaining = mask
            while remaining:
                i = (remaining & -remaining).bit_length() - 1
                remaining &= remaining - 1
                if self.rng.random() < rate:
                    self._xor_data(
                        line_address, i, 1 << self.rng.randrange(64)
                    )
                    self.counters.write_fail_injected += 1
                    self._m_injected.inc()
            if self.keep_pcc and self.rng.random() < rate:
                # The PCC chip's read-modify-write failed a bit too.
                self._xor_pcc(line_address, 1 << self.rng.randrange(64))
                self.counters.write_fail_injected += 1
                self._m_injected.inc()
        self._reassert_stuck(line_address)

    def _reassert_stuck(
        self, line_address: int, word_filter: Optional[Tuple[int, ...]] = None
    ) -> None:
        """Force every activated stuck cell back to its stuck value."""
        cells = self._stuck.get(line_address)
        if not cells:
            return
        line = self._materialise(line_address)
        for cell in cells:
            if cell.slot == PCC_SLOT:
                if word_filter is None and self.keep_pcc:
                    forced = cell.force(line.pcc)
                    self._xor_pcc(line_address, line.pcc ^ forced)
            elif cell.slot == CHECK_SLOT:
                word = cell.bit // 8
                if word_filter is not None and word not in word_filter:
                    continue
                lane_bit = cell.bit % 8
                if cell.value:
                    forced = line.checks[word] | (1 << lane_bit)
                else:
                    forced = line.checks[word] & ~(1 << lane_bit)
                self._xor_check(
                    line_address, word, line.checks[word] ^ forced
                )
            else:
                if word_filter is not None and cell.slot not in word_filter:
                    continue
                forced = cell.force(line.words[cell.slot])
                self._xor_data(
                    line_address, cell.slot, line.words[cell.slot] ^ forced
                )
            line = self._materialise(line_address)

    # ==================================================================
    # Manual fault planting (tests)
    # ==================================================================
    def corrupt_codeword(
        self, line_address: int, word: int, positions: Tuple[int, ...]
    ) -> None:
        """Flip codeword bits of one word, ledger-tracked.

        Positions follow :mod:`repro.ecc.hamming`'s 72-bit codeword
        layout; unlike :meth:`MemoryStorage.corrupt_bit` (which models
        an *untracked* corruption the oracle must catch), this records
        the flips so the next read classifies them.
        """
        line = self._materialise(line_address)
        data, check = hamming.inject_error(
            line.words[word], line.checks[word], positions
        )
        self._xor_data(line_address, word, line.words[word] ^ data)
        self._xor_check(line_address, word, line.checks[word] ^ check)
