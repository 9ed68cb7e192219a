"""The repository benchmark: host cost and simulated results of four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pcmap-canneal --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads in turn; with ``--trace 1``
that one command prints every end-to-end and per-layer metric.

Each repetition is a whole simulation (or a whole sweep for
``sweep-grid``) in a fresh interpreter, so every repetition pays the cold
start a user pays, and set-up time and peak memory are measured once per
repetition.  Repetitions run one at a time until ``--seconds`` is spent
(at least :data:`MIN_REPS`); end-to-end metrics are medians over them.

``--trace 1`` adds one repetition under cProfile first and reports the
per-layer metrics (see ``layers.py`` and ``workloads.LAYER_METRICS``).

Every repetition is checked: the counter cross-check and, on
``pcmap-canneal``, the ECC/PCC storage check run inside it; the parent
process then requires the same ``results_digest`` from every repetition
at the seed, the traced one included.  A repetition that raises, times out or
fails a check counts in ``failed``.

Host times are reported at a reference host speed sampled during the
run (``speed.py``); the raw wall medians are printed beside them.

The last line of standard output (of each workload, with ``all``) is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics, or with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from speed import SpeedSampler, WorkerSpeed, at_reference  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    GRID_CELL_REQUESTS,
    GRID_WORKERS,
    LAYER_METRICS,
    PAPER_IPC_GAIN_PCT,
    WORKLOADS,
)

#: Fewest untraced repetitions a run makes, whatever ``--seconds`` says.
MIN_REPS = 3
#: Every run ends within this many seconds (a stuck repetition is killed).
RUN_LIMIT_S = 170.0


# ======================================================================
# One repetition (runs in its own interpreter)
# ======================================================================
class PhaseClock:
    """Wall time of a repetition's phases, raw and at the reference speed.

    Untraced repetitions sample the host's speed (``speed.py``) from
    before the simulator's imports to the end of the run.  The traced
    one does not: cProfile would charge the probes to whatever frame
    they interrupt.  Raw times have the probes taken out too.
    """

    def __init__(self, traced: bool) -> None:
        self.sampler = None if traced else SpeedSampler().start()
        #: phase -> (probe-free wall, mean probe CPU or None for ours)
        self._laps: Dict[str, tuple] = {}
        self._begin = time.perf_counter()
        self._mark = 0

    def lap(self, phase: str, workers: Optional[WorkerSpeed] = None) -> None:
        """End ``phase``; ``workers`` probed it in place of this process."""
        now = time.perf_counter()
        wall = now - self._begin
        if workers is not None:
            walls = workers.probed_walls()
            probed = statistics.fmean(walls) if walls else 0.0
            self._laps[phase] = (wall - probed, workers.mean_cpu())
        else:
            probed = 0.0
            if self.sampler is not None:
                end = self.sampler.mark()
                probed = sum(self.sampler.samples[self._mark:end])
                self._mark = end
            self._laps[phase] = (wall - probed, None)
        self._begin = now

    def stop(self) -> None:
        if self.sampler is not None:
            self.sampler.stop()

    def raw(self, phase: str) -> float:
        return self._laps[phase][0]

    def reference(self, phase: str) -> float:
        wall, mean_cpu = self._laps[phase]
        if mean_cpu is None and self.sampler is not None:
            mean_cpu = self.sampler.mean_cpu()
        return at_reference(wall, mean_cpu)


def run_rep(spec: dict) -> dict:
    """Build, run and check one repetition; returns JSON-safe data."""
    clock = PhaseClock(spec["traced"])
    try:
        sys.path.insert(0, str(SRC))
        workload = WORKLOADS[spec["workload"]]
        if workload.grid:
            return _grid_rep(spec, clock)
        return _single_rep(spec, workload, clock)
    finally:
        clock.stop()


def _single_rep(spec: dict, workload, clock: PhaseClock) -> dict:
    from checks import check_counters, check_storage
    from layers import profile_call
    from workloads import build_single

    simulator, written = build_single(
        workload, spec["seed"], spec.get("requests") or workload.requests
    )
    clock.lap("setup")
    stats = None
    if spec["traced"]:
        result, stats = profile_call(simulator.run)
    else:
        result = simulator.run()
    clock.lap("run")
    clock.stop()

    cores = simulator.multicore.cores
    reads = sum(core.reads_issued for core in cores)
    requests = reads + sum(core.writes_issued for core in cores)
    metrics = simulator.telemetry.metrics
    if spec.get("plant") == "counter":
        metrics.counter("reads.completed").inc()
    frontend = result.frontend
    counter_pairs, errors = check_counters(
        result, metrics, simulator.multicore if frontend is None else None
    )
    lines_checked = 0
    if written is not None:
        errors += check_storage(simulator.memory.storage, written)
        lines_checked = len(written)
    if frontend is not None and frontend["write_backs"] == 0:
        errors.append("tier check: the DRAM tier sent no write-back to PCM")

    rep = _common(spec, result, [result], clock, requests, errors, stats)
    rep["lines_checked"] = lines_checked
    rep["counter_pairs"] = counter_pairs
    layer = layer_counts(
        [result], reads, requests, simulator.multicore.total_rollbacks()
    )
    if frontend is not None:
        accesses = frontend["reads"] + frontend["writes"]
        layer["cache.hit_ratio"] = frontend["hit_rate"]
        layer["cache.evictions_per_kaccess"] = _per(
            1000 * frontend["cache"]["evictions"], accesses
        )
        layer["cache.mshr_coalesced_per_kaccess"] = _per(
            1000 * frontend["coalesced"], accesses
        )
    rep["layer"] = layer
    return rep


def _grid_rep(spec: dict, clock: PhaseClock) -> dict:
    import resource

    from layers import profile_call
    from workloads import build_grid, grid_ipc_gain_pct

    jobs = build_grid(spec["seed"], spec.get("requests") or GRID_CELL_REQUESTS)
    from repro.sim.runner.executor import run_jobs

    clock.lap("setup")
    # The workers simulate; probes in this idle process would only take
    # CPU from them.
    clock.stop()
    stats = workers = None
    if spec["traced"]:
        # Serial and in this process, so the profiler sees the simulations;
        # the runner guarantees the same digest as the parallel sweep.
        results, stats = profile_call(run_jobs, jobs)
    else:
        workers = WorkerSpeed(GRID_WORKERS)
        results = run_jobs(jobs, jobs=GRID_WORKERS)
    clock.lap("run", workers)

    def counter(result, name: str) -> int:
        return result.metrics[name]["value"]

    reads = sum(counter(r, "requests.read.enqueued") for r in results)
    requests = reads + sum(counter(r, "requests.write.enqueued") for r in results)
    errors = [
        f"grid cell {r.workload_name} x {r.system_name} simulated no request"
        for r in results
        if counter(r, "requests.read.enqueued") == 0
    ]
    rep = _common(spec, results[0], results, clock, requests, errors, stats)
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    rep["rss_mb"] = max(rep["rss_mb"], children)
    # The jobs' own simulation time, less the probes taken inside them.
    rep["job_wall"] = sum(r.profile.wall_seconds for r in results) - sum(
        workers.probed_walls() if workers is not None else ()
    )
    rep["ipc_gain_pct"] = grid_ipc_gain_pct(results)
    rep["sim"] = {
        "sim_ipc": statistics.fmean(r.ipc for r in results),
        "sim_read_latency_ns": statistics.fmean(
            r.mean_read_latency_ns for r in results
        ),
        "sim_write_throughput": statistics.fmean(
            r.write_throughput for r in results
        ),
    }
    # Direct path: each failed verification rolls back one core.
    rep["layer"] = layer_counts(
        results, reads, requests, sum(r.memory.rollbacks for r in results)
    )
    return rep


def _common(spec, result, results, clock, requests, errors, stats) -> dict:
    """The fields every repetition reports; ``stats`` is the traced profile."""
    import resource

    from layers import attribute
    from repro.sim.results_io import results_digest

    if spec.get("plant") == "digest":
        result.sim_ticks += 1
    rep = {
        "ok": not errors,
        "errors": errors,
        "digest": results_digest(results),
        # At the reference speed: the end-to-end metrics.
        "setup_s": clock.reference("setup"),
        "run_s": clock.reference("run"),
        # Raw: the traced/untraced ratio and the runner's overhead.
        "wall_s": clock.raw("run"),
        "setup_wall_s": clock.raw("setup"),
        "requests": requests,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": {
            "sim_ipc": result.ipc,
            "sim_read_latency_ns": result.mean_read_latency_ns,
            "sim_write_throughput": result.write_throughput,
        },
    }
    if stats is not None:
        seconds, total, counts = attribute(stats, os.path.realpath(SRC))
        rep["profile"] = {"seconds": seconds, "total": total, "counts": counts}
    return rep


def layer_counts(results, reads: int, requests: int, rollbacks: int) -> dict:
    """The per-layer counts and simulated ratios of a repetition's runs.

    ``reads`` and ``requests`` are those the cores issued; ``rollbacks``
    those the cores took.  The cache metrics stay 0 unless the caller
    fills them from a DRAM tier.
    """

    def total(field: str) -> int:
        return sum(getattr(r.memory, field) for r in results)

    memory_reads = total("reads_completed")
    return {
        "memory.controller.delayed_read_fraction": _per(
            total("reads_delayed_by_write"), memory_reads
        ),
        "core.row_reads_per_kread": _per(1000 * total("row_reads"), memory_reads),
        "core.wow_members_per_kwrite": _per(
            1000 * total("wow_member_writes"), total("writes_completed")
        ),
        "core.irlp_avg": statistics.fmean(r.irlp_average for r in results),
        "cpu.rollbacks_per_kread": _per(1000 * rollbacks, reads),
        "sim.engine.events_per_request": _per(
            sum(r.profile.events_dispatched for r in results), requests
        ),
        "cache.hit_ratio": 0.0,
        "cache.evictions_per_kaccess": 0.0,
        "cache.mshr_coalesced_per_kaccess": 0.0,
    }


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ======================================================================
# Running repetitions and aggregating them
# ======================================================================
def spawn_rep(spec: dict, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter; never raises."""
    command = [sys.executable, str(Path(__file__).resolve()), "--rep",
               json.dumps(spec)]
    # A session of its own, so a stuck sweep is killed with its workers.
    process = subprocess.Popen(
        command, cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"ok": False, "errors": [f"timed out after {timeout:.0f} s"]}
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or [f"exit {process.returncode}"]
        return {"ok": False, "errors": [f"repetition crashed: {tail[0]}"]}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"ok": False, "errors": ["repetition printed no result"]}


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    requests: Optional[int] = None,
    plant: Optional[str] = None,
) -> dict:
    """All repetitions of one run plus the aggregate; see :func:`summarise`.

    ``requests`` scales the simulations down and ``plant`` ("digest" or
    "counter") corrupts one repetition — both for the self-test only.
    """
    began = time.monotonic()
    reps: List[dict] = []
    traced: Optional[dict] = None

    def spec(traced_rep: bool) -> dict:
        index = len(reps) + (traced is not None)
        planted = {"counter": 0, "digest": 1}.get(plant or "", -1) == index
        return {"workload": workload, "seed": seed, "traced": traced_rep,
                "requests": requests, "plant": plant if planted else None}

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - began)

    if trace:
        traced = spawn_rep(spec(True), remaining())
    last = 0.0
    while remaining() > 5.0:
        elapsed = time.monotonic() - began
        if len(reps) >= MIN_REPS and elapsed + last > seconds:
            break
        rep_start = time.monotonic()
        reps.append(spawn_rep(spec(False), remaining()))
        last = time.monotonic() - rep_start
    return summarise(workload, reps, traced)


def summarise(workload: str, reps: List[dict], traced: Optional[dict]) -> dict:
    """Digest check, failure count and every metric of the run."""
    every = reps + ([traced] if traced is not None else [])
    passed = [r for r in every if r.get("ok")]
    reference = passed[0]["digest"] if passed else None
    for rep in passed:
        if rep["digest"] != reference:
            rep["ok"] = False
            rep["errors"] = [f"digest {rep['digest'][:12]} != {reference[:12]}"]
    good = [r for r in reps if r.get("ok")]
    failed = sum(1 for r in every if not r.get("ok"))
    out = {
        "workload": workload,
        "attempted": len(every),
        "failed": failed,
        "errors": [e for r in every for e in r.get("errors", [])],
        "digest": reference,
        "samples": len(good),
        "end_to_end": {},
        "spread": {},
        "per_layer": {},
    }
    if not good:
        return out
    host_us = [1e6 * r["run_s"] / r["requests"] for r in good]
    samples = {
        "host_us_per_request": host_us,
        "setup_s": [r["setup_s"] for r in good],
        "peak_rss_mb": [r["rss_mb"] for r in good],
    }
    for name, values in samples.items():
        out["end_to_end"][name] = statistics.median(values)
        out["spread"][name] = (min(values), max(values))
    out["raw"] = {
        "host_us_per_request": statistics.median(
            1e6 * r["wall_s"] / r["requests"] for r in good
        ),
        "setup_s": statistics.median(r["setup_wall_s"] for r in good),
    }
    out["end_to_end"].update(good[0]["sim"])
    out["requests"] = good[0]["requests"]
    out["lines_checked"] = good[0].get("lines_checked", 0)
    out["counter_pairs"] = good[0].get("counter_pairs", 0)
    if "ipc_gain_pct" in good[0]:
        gain = good[0]["ipc_gain_pct"]
        out["ipc_gain_pct"] = gain
        out["ipc_gain_err_pct"] = abs(gain - PAPER_IPC_GAIN_PCT)
    if traced is not None and traced.get("ok"):
        out["per_layer"] = per_layer(good, traced)
    return out


def per_layer(good: List[dict], traced: dict) -> Dict[str, float]:
    """Per-layer metrics: traced shares scaled to the untraced cost."""
    grid = "job_wall" in good[0]
    # The untraced cost of the work the traced repetition profiled: the
    # simulations' own time (serial-equivalent on the grid), raw and at
    # the reference speed of the end-to-end metrics.
    untraced_wall = statistics.median(
        r["job_wall"] if grid else r["wall_s"] for r in good
    )
    base_us = statistics.median(
        1e6 * (r["job_wall"] if grid else r["wall_s"]) * r["run_s"]
        / (r["wall_s"] * r["requests"])
        for r in good
    )
    profile = traced["profile"]
    total = profile["total"]
    values: Dict[str, float] = {}
    for layer, spent in profile["seconds"].items():
        values[f"{layer}.self_us_per_request"] = (
            base_us * spent / total if total > 0 else 0.0
        )
    requests = traced["requests"]
    counts = profile["counts"]
    values["memory.controller.scheduler_passes_per_request"] = _per(
        counts["scheduler_passes"], requests
    )
    values["memory.rank.ready_queries_per_request"] = _per(
        counts["ready_queries"], requests
    )
    values["core.write_selections_per_request"] = _per(
        counts["write_selections"], requests
    )
    values.update(traced["layer"])
    runner = {
        "sim.runner.overhead_us_per_request": 0.0,
        "sim.runner.worker_busy_share": 0.0,
    }
    if grid:
        # Sweep wall beyond the jobs' own simulation time spread over the
        # workers, and the workers' busy share of the sweep wall.
        workers = GRID_WORKERS
        runner = {
            "sim.runner.overhead_us_per_request": statistics.median(
                1e6 * (r["wall_s"] - r["job_wall"] / workers) / r["requests"]
                for r in good
            ),
            "sim.runner.worker_busy_share": statistics.median(
                r["job_wall"] / (workers * r["wall_s"]) for r in good
            ),
        }
    values.update(runner)
    attributed = sum(profile["seconds"].values())
    values["unattributed_share"] = (
        (total - attributed) / total if total > 0 else 0.0
    )
    values["trace_overhead_ratio"] = traced["wall_s"] / untraced_wall
    return {m.name: values[m.name] for m in LAYER_METRICS}


def environment() -> dict:
    """Where the numbers came from."""
    git = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, env=env, check=True,
        ).stdout.strip() or git
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "git": git,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


def report(summary: dict, trace: bool, env: dict) -> List[str]:
    """Human-readable lines: every metric with its unit and sample count."""
    workload = WORKLOADS[summary["workload"]]
    lines = [
        f"workload {workload.name}: {workload.why}",
        f"  loads: {', '.join(workload.loads)}; bypasses: "
        f"{', '.join(workload.bypasses)}",
        "env: " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"repetitions: {summary['attempted']} attempted, {summary['failed']} "
        f"failed, failure_ratio "
        f"{summary['failed'] / max(1, summary['attempted']):.4f}",
    ]
    if workload.front_end_mb is not None:
        lines.append(f"  DRAM tier capacity: {workload.front_end_mb} MiB")
    lines += [f"  error: {e}" for e in summary["errors"][:10]]
    n = summary["samples"]
    for metric in END_TO_END:
        if metric.name not in summary["end_to_end"]:
            continue
        value = summary["end_to_end"][metric.name]
        low, high = summary["spread"].get(metric.name, (value, value))
        line = (
            f"  {metric.name:<24} {value:>14.6g} {metric.unit:<12} "
            f"n={n} min {low:.6g} max {high:.6g}"
        )
        if metric.name in summary["raw"]:
            line += f" (raw wall {summary['raw'][metric.name]:.6g})"
        lines.append(line)
    if "ipc_gain_pct" in summary:
        lines.append(
            f"  rwow-rde IPC gain over baseline {summary['ipc_gain_pct']:+.2f} % "
            f"vs paper +{PAPER_IPC_GAIN_PCT} %: "
            f"sim_ipc_gain_err_pct {summary['ipc_gain_err_pct']:.2f} "
            "(shape reproduction; unvalidated against hardware)"
        )
    if summary.get("digest"):
        lines.append(
            f"checks: results_digest {summary['digest'][:16]} on every "
            f"repetition; {summary.get('counter_pairs', 0)} counter pairs "
            f"equal; {summary.get('lines_checked', 0)} stored lines re-encoded; "
            f"{summary.get('requests', 0)} requests per repetition"
        )
    if trace:
        for metric in LAYER_METRICS:
            value = summary["per_layer"].get(metric.name)
            if value is not None:
                lines.append(
                    f"  {metric.name:<48} {value:>12.6g} {metric.unit}"
                )
    return lines


def contract_line(summary: dict, trace: bool) -> dict:
    units = {m.name: m.unit for m in END_TO_END + LAYER_METRICS}
    values = summary["per_layer"] if trace else summary["end_to_end"]
    wanted = LAYER_METRICS if trace else END_TO_END
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            m.name: {"value": values[m.name], "unit": units[m.name]}
            for m in wanted
            if m.name in values
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--rep"]:
        print(json.dumps(run_rep(json.loads(argv[1]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        summary = measure(name, args.seed, args.seconds, bool(args.trace))
        for line in report(summary, bool(args.trace), env):
            print(line)
        values = summary["per_layer"] if args.trace else summary["end_to_end"]
        if not values:
            print(f"perfbench: no repetition of {name} produced a result",
                  file=sys.stderr)
            status = 1
            continue
        print(json.dumps(contract_line(summary, bool(args.trace))))
    return status


if __name__ == "__main__":
    sys.exit(main())
