"""Time-resolved sampling of simulator state on a simulated-tick cadence.

Two pieces:

* :class:`TimeSeries` — a columnar ring buffer of ``(tick, row)`` samples.
  Columns are fixed at construction; once ``capacity`` samples are held
  the oldest are overwritten (``total_samples``/``dropped`` record the
  loss, so consumers can tell a truncated series from a complete one).
  ``as_dict``/``from_dict`` round-trip the JSON-safe columnar form that
  result files and the cross-worker merge use.
* :class:`TimeseriesSampler` — a set of named probes (zero-argument
  callables) sampled together whenever simulated time crosses a cadence
  boundary.  The engine's drain loop calls :meth:`maybe_sample` at the
  first event of a tick at or past the boundary it last returned; the
  disabled path never constructs a sampler at all, so golden traces and
  perf fingerprints are untouched by default.

Sampling schedules no events and reads no engine state beyond
``engine.now``, so enabling it cannot change ``events_dispatched``/
``sim_ticks`` fingerprints, only wall-clock time.  Event time can jump
past several boundaries at once (the engine is discrete-event, not
cycle-stepped); the sampler then records one sample at the current time
rather than backfilling, so a run takes at most one sample per cadence
interval (``sim_ticks // cadence + 1`` in all).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

#: Default sampling cadence in engine ticks (100 ns at 10 ticks/ns) —
#: fine enough to resolve individual write-drain episodes, coarse enough
#: that the smoke benchmark takes a few thousand samples.
DEFAULT_CADENCE_TICKS = 1000

#: Default ring capacity: bounded memory (~32 KiB per numeric column at
#: float width) regardless of run length.
DEFAULT_CAPACITY = 4096

#: Signature of a sampler probe: no arguments, returns a number.
Probe = Callable[[], float]


class TimeSeries:
    """Columnar ring buffer of time-stamped samples."""

    __slots__ = (
        "names", "cadence_ticks", "capacity",
        "_ticks", "_columns", "_head", "total_samples",
    )

    def __init__(
        self,
        names: Sequence[str],
        cadence_ticks: int = DEFAULT_CADENCE_TICKS,
        capacity: int = DEFAULT_CAPACITY,
    ):
        if not names or len(set(names)) != len(names):
            raise ValueError("column names must be non-empty and unique")
        if cadence_ticks <= 0:
            raise ValueError(f"cadence_ticks must be positive, got {cadence_ticks}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.names: Tuple[str, ...] = tuple(names)
        self.cadence_ticks = cadence_ticks
        self.capacity = capacity
        self._ticks: List[int] = []
        self._columns: List[List[float]] = [[] for _ in self.names]
        #: Index of the oldest sample once the ring has wrapped.
        self._head = 0
        self.total_samples = 0

    def append(self, tick: int, row: Sequence[float]) -> None:
        """Record one sample; overwrites the oldest once full."""
        if len(row) != len(self.names):
            raise ValueError(
                f"row has {len(row)} values for {len(self.names)} columns"
            )
        if len(self._ticks) < self.capacity:
            self._ticks.append(tick)
            for column, value in zip(self._columns, row):
                column.append(value)
        else:
            slot = self._head
            self._ticks[slot] = tick
            for column, value in zip(self._columns, row):
                column[slot] = value
            self._head = (slot + 1) % self.capacity
        self.total_samples += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ticks)

    @property
    def dropped(self) -> int:
        """Samples lost to ring overwrite (0 until the buffer wraps)."""
        return self.total_samples - len(self._ticks)

    def _order(self) -> List[int]:
        """Physical indices in chronological order."""
        n = len(self._ticks)
        if self.total_samples <= self.capacity:
            return list(range(n))
        return list(range(self._head, n)) + list(range(self._head))

    def ticks(self) -> List[int]:
        """Sample timestamps in chronological order."""
        return [self._ticks[i] for i in self._order()]

    def column(self, name: str) -> List[float]:
        """One column's values in chronological order."""
        values = self._columns[self.names.index(name)]
        return [values[i] for i in self._order()]

    def rows(self) -> List[Dict[str, float]]:
        """Samples as ``{"tick": t, <name>: value, ...}`` dicts, oldest
        first — the JSONL sink's record shape."""
        order = self._order()
        out: List[Dict[str, float]] = []
        for i in order:
            record: Dict[str, float] = {"tick": self._ticks[i]}
            for name, column in zip(self.names, self._columns):
                record[name] = column[i]
            out.append(record)
        return out

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-safe columnar dump (chronological, wrap resolved)."""
        order = self._order()
        return {
            "cadence_ticks": self.cadence_ticks,
            "capacity": self.capacity,
            "total_samples": self.total_samples,
            "dropped": self.dropped,
            "ticks": [self._ticks[i] for i in order],
            "columns": {
                name: [column[i] for i in order]
                for name, column in zip(self.names, self._columns)
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimeSeries":
        """Rebuild a series from :meth:`as_dict` output."""
        names = list(data["columns"])
        series = cls(
            names,
            cadence_ticks=data["cadence_ticks"],
            capacity=data["capacity"],
        )
        ticks = data["ticks"]
        for name in names:
            if len(data["columns"][name]) != len(ticks):
                raise ValueError(f"column {name!r} length mismatch")
        for i, tick in enumerate(ticks):
            series.append(tick, [data["columns"][name][i] for name in names])
        # Restore the overwrite count from before serialisation.
        series.total_samples = data["total_samples"]
        return series


def merge_series_dicts(dumps: Sequence[dict]) -> dict:
    """Deterministically combine per-worker :meth:`TimeSeries.as_dict`
    dumps from *different runs* into one keyed bundle.

    Time series from distinct simulations share no time axis, so unlike
    :func:`repro.telemetry.registry.merge_dumps` there is nothing to sum —
    the merged form simply keys each run's series by its label, sorted,
    so serial and parallel sweeps serialise byte-identically.
    """
    merged: Dict[str, dict] = {}
    for dump in dumps:
        for label, series in dump.items():
            if label in merged:
                raise ValueError(f"duplicate time-series label {label!r}")
            merged[label] = series
    return {label: merged[label] for label in sorted(merged)}


class TimeseriesSampler:
    """Samples a fixed set of probes at a simulated-tick cadence.

    Probes are registered once during wiring (insertion order defines the
    column order, so identically-wired runs produce identical column
    layouts) and frozen at the first sample.  The engine's drain loop
    drives :meth:`maybe_sample` with the current engine time and keeps
    the boundary it returns in a local; the common case — no boundary
    crossed — is a single integer compare there.
    """

    __slots__ = (
        "cadence_ticks", "capacity",
        "_probe_names", "_probe_fns", "_series", "next_boundary",
    )

    def __init__(
        self,
        cadence_ticks: int = DEFAULT_CADENCE_TICKS,
        capacity: int = DEFAULT_CAPACITY,
    ):
        if cadence_ticks <= 0:
            raise ValueError(f"cadence_ticks must be positive, got {cadence_ticks}")
        self.cadence_ticks = cadence_ticks
        self.capacity = capacity
        self._probe_names: List[str] = []
        self._probe_fns: List[Probe] = []
        self._series: "TimeSeries | None" = None
        # Next tick at (or past) which a sample is due.  Starts at 0 so
        # the first check captures initial state.
        self.next_boundary = 0

    def add_probe(self, name: str, fn: Probe) -> None:
        """Register a named probe; rejects duplicates and late additions."""
        if self._series is not None:
            raise RuntimeError("probes are frozen after the first sample")
        if name in self._probe_names:
            raise ValueError(f"duplicate probe {name!r}")
        self._probe_names.append(name)
        self._probe_fns.append(fn)

    @property
    def series(self) -> TimeSeries:
        """The backing series (created lazily, freezing the probe set)."""
        if self._series is None:
            if not self._probe_names:
                raise RuntimeError("sampler has no probes")
            self._series = TimeSeries(
                self._probe_names, self.cadence_ticks, self.capacity
            )
        return self._series

    def maybe_sample(self, now: int) -> int:
        """Sample if ``now`` reached the next cadence boundary.

        Records at most one sample per call no matter how many boundaries
        the event jump skipped; the next boundary is realigned to the
        cadence grid past ``now``.  Returns the next boundary (the
        :meth:`~repro.sim.engine.Engine.run_until_stop` hook contract).
        """
        if now >= self.next_boundary:
            self.sample(now)
            self.next_boundary = (
                now // self.cadence_ticks + 1
            ) * self.cadence_ticks
        return self.next_boundary

    def sample(self, now: int) -> None:
        """Unconditionally record one sample of every probe."""
        self.series.append(now, [float(fn()) for fn in self._probe_fns])
