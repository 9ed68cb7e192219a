"""Self-test of the benchmark: metrics present, and its checks can fire.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import multiprocessing
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from speed import REFERENCE_PROBE_S, WorkerSpeed, at_reference  # noqa: E402
from workloads import END_TO_END, LAYER_METRICS, WORKLOADS  # noqa: E402

#: Requests per simulation at self-test scale.  The tier workload needs
#: enough distinct lines to fill its tier and write back.
TINY = {
    "pcmap-canneal": 1_500,
    "baseline-freqmine": 1_500,
    "tier-kvstore": 20_000,
    "sweep-grid": 400,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name):
    summary = run.measure(name, seed=3, seconds=0, trace=True,
                          requests=TINY[name])
    assert summary["failed"] == 0, summary["errors"]
    assert summary["attempted"] == run.MIN_REPS + 1
    for trace, wanted in ((False, END_TO_END), (True, LAYER_METRICS)):
        line = run.contract_line(summary, trace)
        assert line["correct"] is True
        assert list(line["metrics"]) == [m.name for m in wanted]
        for metric in wanted:
            assert line["metrics"][metric.name]["unit"] == metric.unit
    for metric in END_TO_END:
        assert summary["end_to_end"][metric.name] > 0


def test_planted_digest_mismatch_fails_the_run():
    summary = run.measure("baseline-freqmine", seed=3, seconds=0, trace=False,
                          requests=1_000, plant="digest")
    assert summary["failed"] == 1
    assert any(error.startswith("digest") for error in summary["errors"])
    assert run.contract_line(summary, False)["correct"] is False


def test_planted_counter_mismatch_fails_the_run():
    summary = run.measure("pcmap-canneal", seed=3, seconds=0, trace=False,
                          requests=1_000, plant="counter")
    assert summary["failed"] == 1
    assert any("counter mismatch reads.completed" in error
               for error in summary["errors"])
    assert run.contract_line(summary, False)["correct"] is False


def test_without_the_simulator_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_matches_the_tables():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert bench["paths"] == [BENCH.name]
    assert bench["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in LAYER_METRICS
    ]


def test_host_times_scale_by_probe_speed():
    # A host at half the reference speed: a probe takes twice its CPU.
    assert at_reference(0.5, 2 * REFERENCE_PROBE_S) == pytest.approx(0.25)
    assert at_reference(0.5, None) == 0.5


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_forked_workers_take_the_probes():
    speed = WorkerSpeed(1)
    context = multiprocessing.get_context("fork")
    child = context.Process(target=_busy, args=(0.3,))
    child.start()
    child.join(timeout=30)
    assert child.exitcode == 0
    assert len(speed.probed_walls()) == 1
    assert speed.mean_cpu() > 0
