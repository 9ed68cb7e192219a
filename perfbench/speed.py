"""Host speed sampled during a timed region, to scale host times to a reference.

Wall times of one simulation on a shared host (a 2-vCPU Xeon VM) swing
by ±20 % between repetitions, from other tenants' load that no process
of the benchmark controls.  A :class:`SpeedSampler` interrupts the timed
region every :data:`PERIOD_S` with a SIGALRM and times :func:`probe`, a
fixed loop of dict and integer work that does not touch the simulator,
so the probes see the host's speed at the same moments the simulation
does.  A host time is then reported at the reference speed, where one
probe takes :data:`REFERENCE_PROBE_S` of CPU time::

    reference_seconds = (wall - probes' wall) * REFERENCE_PROBE_S / mean probe CPU

A sweep simulates in worker processes while its parent waits, so there
a :class:`WorkerSpeed` runs the probes inside the workers instead.

The probe is part of the benchmark, not of the program: a change to the
simulator moves the simulation's time and leaves the probe's alone.
"""

from __future__ import annotations

import mmap
import os
import signal
import statistics
import time
from typing import List, Optional

#: One probe's CPU time at the reference speed (near its median on a
#: shared 2-vCPU 2.1 GHz Xeon VM).
REFERENCE_PROBE_S = 1e-3
#: Interval between probes; probes take about 5 % of the timed region.
PERIOD_S = 0.02


def probe(n: int = 3000) -> int:
    """A fixed slice of interpreter work: dict updates and integer ops."""
    table: dict = {}
    acc = 0
    kept = []
    for i in range(n):
        key = (i * 2654435761) & 0xFFF
        table[key] = table.get(key, 0) + i
        acc += key % 7
        if i & 15 == 0:
            kept.append(acc)
    return acc + len(table) + len(kept)


def at_reference(wall: float, mean_probe_cpu: Optional[float]) -> float:
    """Probe-free ``wall`` at the reference speed (unchanged if unprobed)."""
    if not mean_probe_cpu:
        return wall
    return wall * REFERENCE_PROBE_S / mean_probe_cpu


class SpeedSampler:
    """Times :func:`probe` every :data:`PERIOD_S` while active.

    Only the main thread of a process may use one.  The timer is not
    inherited by forked children.
    """

    def __init__(self) -> None:
        #: Wall seconds of each probe, to take out of the timed phases.
        self.samples: List[float] = []
        #: CPU seconds of each probe: the host's speed.  A probe that
        #: waits for a CPU waits in wall time only.
        self.cpu_samples: List[float] = []
        self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        start, cpu_start = time.perf_counter(), time.thread_time()
        probe()
        self.record(time.perf_counter() - start, time.thread_time() - cpu_start)

    def record(self, wall: float, cpu: float) -> None:
        self.samples.append(wall)
        self.cpu_samples.append(cpu)

    def start(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> int:
        """Index of the next sample, to split the samples by phase."""
        return len(self.samples)

    def mean_cpu(self) -> Optional[float]:
        """Mean probe CPU time.  Every probe counts: a phase of a fraction
        of a second holds too few to estimate its own speed."""
        return statistics.fmean(self.cpu_samples) if self.cpu_samples else None


class _SlotSampler(SpeedSampler):
    """A worker's sampler: totals go to its slot of shared memory."""

    def __init__(self, totals: memoryview, slot: int) -> None:
        super().__init__()
        self._totals = totals
        self._base = 3 * slot

    def record(self, wall: float, cpu: float) -> None:
        self._totals[self._base] += wall
        self._totals[self._base + 1] += cpu
        self._totals[self._base + 2] += 1


class WorkerSpeed:
    """Probes run inside the next ``workers`` processes this one forks.

    Built before a sweep's pool forks its workers; each of them starts a
    :class:`_SlotSampler` right after the fork and adds its probe totals
    to an anonymous shared mapping.  Workers started by another method
    than fork take no probes, and their sweep is reported raw.
    """

    def __init__(self, workers: int) -> None:
        self._workers = workers
        self._forks = 0
        self._totals = memoryview(mmap.mmap(-1, 3 * workers * 8)).cast("d")
        # A process cannot unregister a fork hook; a repetition builds one.
        os.register_at_fork(
            before=self._count_fork, after_in_child=self._start_in_child
        )

    def _count_fork(self) -> None:
        # Runs in this process before each fork, so every child inherits
        # its own fork number: the slot it writes.
        self._forks += 1

    def _start_in_child(self) -> None:
        slot = self._forks - 1
        if slot < self._workers:
            _SlotSampler(self._totals, slot).start()

    def _slots(self) -> List[tuple]:
        totals = self._totals.tolist()
        slots = [tuple(totals[i:i + 3]) for i in range(0, len(totals), 3)]
        return [slot for slot in slots if slot[2]]

    def probed_walls(self) -> List[float]:
        """Seconds each probed worker spent in probes."""
        return [wall for wall, _cpu, _count in self._slots()]

    def mean_cpu(self) -> Optional[float]:
        slots = self._slots()
        count = sum(n for _wall, _cpu, n in slots)
        return sum(cpu for _wall, cpu, _n in slots) / count if count else None
