"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_workloads(capsys):
    assert main(["list-workloads"]) == 0
    out = capsys.readouterr().out
    assert "canneal" in out and "MP1" in out and "stream-triad" in out


def test_list_systems(capsys):
    assert main(["list-systems"]) == 0
    out = capsys.readouterr().out
    assert "rwow-rde" in out and "write-pausing" in out
    assert "palp-lite" in out
    assert "partition-parallel writes (prior art)" in out


def test_run_command(capsys):
    assert main([
        "run", "--workload", "MP3", "--system", "baseline",
        "--requests", "300", "--cores", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out and "baseline" in out


def test_run_command_with_front_end(capsys):
    assert main([
        "run", "--workload", "MP3", "--system", "baseline",
        "--requests", "300", "--cores", "2", "--seed", "7",
        "--front-end", "dram", "--replacement", "mac",
    ]) == 0
    out = capsys.readouterr().out
    assert "front end: dram/mac" in out
    assert "hit rate" in out


def test_run_command_rejects_unknown_replacement():
    with pytest.raises(SystemExit):
        main([
            "run", "--workload", "MP3",
            "--front-end", "dram", "--replacement", "mru",
        ])


def test_sweep_command_with_front_end(capsys):
    assert main([
        "sweep", "--workloads", "MP3", "--systems", "baseline",
        "--requests", "300", "--cores", "2", "--jobs", "1",
        "--no-cache", "--quiet", "--front-end", "dram",
    ]) == 0
    out = capsys.readouterr().out
    assert "workload MP3" in out


def test_compare_command(capsys):
    assert main([
        "compare", "--workload", "MP3",
        "--systems", "baseline,rwow-rde",
        "--requests", "300", "--cores", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "rwow-rde" in out
    assert "IPC improvement" in out


def test_sweep_command_without_cache(capsys):
    assert main([
        "sweep", "--workloads", "MP2,MP3",
        "--systems", "baseline,rwow-rde",
        "--requests", "300", "--cores", "2",
        "--jobs", "2", "--no-cache", "--quiet",
    ]) == 0
    out = capsys.readouterr().out
    assert "workload MP2" in out and "workload MP3" in out
    assert "cache:" not in out


def test_sweep_command_reports_cache_hits(tmp_path, capsys):
    argv = [
        "sweep", "--workloads", "MP3", "--systems", "baseline",
        "--requests", "300", "--cores", "2",
        "--jobs", "1", "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert "1 misses" in cold.out and "1 writes" in cold.out
    assert "MP3 x baseline: run" in cold.err  # progress on stderr

    assert main(argv) == 0
    warm = capsys.readouterr()
    assert "1 hits" in warm.out
    assert "MP3 x baseline: cache" in warm.err
    # Cached and fresh runs print the same result table.
    assert cold.out.splitlines()[:5] == warm.out.splitlines()[:5]


def test_trace_command_writes_chrome_trace(tmp_path, capsys):
    import json

    out_file = tmp_path / "run.trace.json"
    jsonl_file = tmp_path / "run.jsonl"
    assert main([
        "trace", "--workload", "canneal", "--system", "rwow-rde",
        "--requests", "200", "--cores", "2",
        "--out", str(out_file), "--jsonl", str(jsonl_file),
    ]) == 0
    out = capsys.readouterr().out
    assert "recorded" in out and "Chrome trace" in out

    with open(out_file) as handle:
        document = json.load(handle)
    assert document["traceEvents"]
    stamps = [
        e["ts"] for e in document["traceEvents"] if e.get("ph") in ("X", "i")
    ]
    assert stamps == sorted(stamps)

    from repro.telemetry import read_jsonl

    assert len(read_jsonl(jsonl_file)) > 0


def test_stats_command_json(capsys):
    import json

    assert main([
        "stats", "--workload", "canneal", "--system", "rwow-rde",
        "--requests", "200", "--cores", "2", "--json",
    ]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["reads.completed"]["value"] > 0
    assert "row.attempts" in dump


def test_stats_command_table(capsys):
    assert main([
        "stats", "--workload", "MP3", "--system", "baseline",
        "--requests", "200", "--cores", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "metrics registry" in out
    assert "engine:" in out  # profile summary line


def test_stats_command_openmetrics(capsys):
    from repro.telemetry import lint_openmetrics

    assert main([
        "stats", "--workload", "MP3", "--system", "rwow-rde",
        "--requests", "200", "--cores", "2", "--format", "openmetrics",
    ]) == 0
    out = capsys.readouterr().out
    assert out.endswith("# EOF\n")
    assert "# TYPE repro_reads_completed counter" in out
    assert "repro_reads_completed_total" in out
    assert lint_openmetrics(out) == []


def test_stats_table_shows_percentiles(capsys):
    assert main([
        "stats", "--workload", "MP3", "--system", "baseline",
        "--requests", "200", "--cores", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "p50=" in out and "p95=" in out and "p99=" in out


def test_metrics_command_writes_files(tmp_path, capsys):
    import json

    om_file = tmp_path / "metrics.txt"
    ts_file = tmp_path / "timeseries.jsonl"
    assert main([
        "metrics", "--workload", "canneal", "--system", "rwow-rde",
        "--requests", "300", "--cores", "2", "--cadence", "200",
        "--out", str(om_file), "--timeseries", str(ts_file),
    ]) == 0
    out = capsys.readouterr().out
    assert "metric families" in out and "time-series samples" in out

    from repro.telemetry import lint_openmetrics

    text = om_file.read_text()
    assert lint_openmetrics(text) == []
    rows = [json.loads(line) for line in ts_file.read_text().splitlines()]
    assert rows
    assert all("tick" in row for row in rows)


def test_metrics_command_stdout_is_openmetrics(capsys):
    assert main([
        "metrics", "--workload", "MP3",
        "--requests", "200", "--cores", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# TYPE")
    assert out.endswith("# EOF\n")


def test_report_command_renders_html(tmp_path, capsys):
    out_file = tmp_path / "report.html"
    assert main([
        "report", "--out", str(out_file),
        "--workload", "canneal", "--systems", "baseline,rwow-rde",
        "--requests", "300", "--cores", "2", "--jobs", "2",
    ]) == 0
    assert "wrote" in capsys.readouterr().out
    text = out_file.read_text()
    assert text.startswith("<!DOCTYPE html>")
    assert "baseline" in text and "rwow-rde" in text and "p95" in text


def test_regress_command_passes_then_breaches(tmp_path, capsys):
    import json

    from repro.analysis.regress import collect_fingerprint

    fingerprint = collect_fingerprint(smoke=True)
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps({"metrics_fingerprint": {"smoke": fingerprint}}))
    assert main(["regress", "--smoke", "--baseline", str(path)]) == 0
    assert "no breaches" in capsys.readouterr().out

    planted = json.loads(json.dumps(fingerprint))
    planted["metrics"]["reads.completed"] += 1
    path.write_text(json.dumps({"metrics_fingerprint": {"smoke": planted}}))
    assert main(["regress", "--smoke", "--check", "--baseline", str(path)]) == 1
    captured = capsys.readouterr()
    assert "REGRESS BREACH" in captured.err
    assert "reads.completed" in captured.err


def test_regress_selftest(capsys):
    assert main(["regress", "--selftest"]) == 0
    assert "selftest passed" in capsys.readouterr().out


def test_regress_update_pins_baseline(tmp_path, capsys, monkeypatch):
    import json

    from repro.analysis import regress

    monkeypatch.setattr(
        regress, "collect_fingerprints",
        lambda seed=7: {"smoke": {"config": {"seed": seed}, "metrics": {}}},
    )
    path = tmp_path / "BENCH_perf.json"
    assert main(["regress", "--update", "--baseline", str(path)]) == 0
    assert "pinned" in capsys.readouterr().out
    assert "metrics_fingerprint" in json.loads(path.read_text())


def test_regress_explains_missing_baseline_section(tmp_path, capsys):
    path = tmp_path / "BENCH_perf.json"
    path.write_text("{}")
    assert main(["regress", "--baseline", str(path)]) == 1
    assert "metrics_fingerprint" in capsys.readouterr().err


def test_gen_trace_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "t.trace"
    assert main([
        "gen-trace", "--workload", "canneal",
        "--count", "50", "--out", str(out_file),
    ]) == 0
    from repro.trace.trace_io import load_trace

    assert len(load_trace(out_file)) == 50


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# ----------------------------------------------------------------------
# Durable campaign commands (submit / worker / serve / status / resume)
# ----------------------------------------------------------------------

CAMPAIGN_SCALE = ["--requests", "120", "--cores", "2", "--seed", "7"]
CAMPAIGN_GRID = ["--workloads", "MP3", "--systems", "baseline,rwow-rde"]


@pytest.mark.campaign
def test_campaign_cli_round_trip(tmp_path, capsys):
    """submit -> worker -> status -> resume reproduces the serial digest."""
    store = str(tmp_path / "campaign.sqlite")
    cache = str(tmp_path / "cache")

    # Serial one-shot reference of the same grid.
    assert main([
        "sweep", *CAMPAIGN_GRID, "--jobs", "1", "--no-cache",
        "--digest", "--quiet", *CAMPAIGN_SCALE,
    ]) == 0
    digest_lines = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("results digest: ")
    ]
    assert len(digest_lines) == 1
    reference = digest_lines[0]

    assert main([
        "submit", *CAMPAIGN_GRID, "--campaign", "cli",
        "--store", store, *CAMPAIGN_SCALE,
    ]) == 0
    out = capsys.readouterr().out
    assert "campaign cli: 2 jobs (2 queued, 0 done)" in out
    assert "repro sweep --resume cli" in out

    # Resubmitting the identical grid is an idempotent no-op.
    assert main([
        "submit", *CAMPAIGN_GRID, "--campaign", "cli",
        "--store", store, *CAMPAIGN_SCALE,
    ]) == 0
    capsys.readouterr()

    assert main([
        "worker", "--store", store, "--cache-dir", cache,
        "--campaign", "cli", "--once",
    ]) == 0
    assert "worker done: 2 job(s) completed" in capsys.readouterr().err

    assert main([
        "status", "--store", store, "--cache-dir", cache, "--digest",
    ]) == 0
    out = capsys.readouterr().out
    assert "cli" in out and "100.0%" in out
    assert reference.split(": ", 1)[1] in out

    # Resume of the finished campaign is a pure cache replay with the
    # byte-identical digest.
    assert main([
        "sweep", "--resume", "cli", "--store", store,
        "--cache-dir", cache, "--digest",
    ]) == 0
    out = capsys.readouterr().out
    assert reference in out
    assert "0 misses" in out and "0 writes" in out  # nothing re-simulated


@pytest.mark.campaign
def test_campaign_status_json(tmp_path, capsys):
    store = str(tmp_path / "campaign.sqlite")
    assert main([
        "submit", *CAMPAIGN_GRID, "--campaign", "doc",
        "--store", store, *CAMPAIGN_SCALE,
    ]) == 0
    capsys.readouterr()
    assert main(["status", "--store", store, "--json"]) == 0
    import json as _json

    documents = _json.loads(capsys.readouterr().out)
    assert documents[0]["campaign"] == "doc"
    assert documents[0]["counts"]["queued"] == 2
    assert documents[0]["total"] == 2
    assert main(["status", "--store", store, "--campaign", "ghost"]) == 2
    assert "unknown campaign" in capsys.readouterr().err


@pytest.mark.campaign
def test_submit_refuses_changed_grid(tmp_path, capsys):
    store = str(tmp_path / "campaign.sqlite")
    assert main([
        "submit", "--workloads", "MP3", "--systems", "baseline",
        "--campaign", "c", "--store", store, *CAMPAIGN_SCALE,
    ]) == 0
    capsys.readouterr()
    assert main([
        "submit", "--workloads", "MP3", "--systems", "rwow-rde",
        "--campaign", "c", "--store", store, *CAMPAIGN_SCALE,
    ]) == 2
    assert "different jobs" in capsys.readouterr().err


@pytest.mark.campaign
def test_sweep_resume_error_paths(tmp_path, capsys):
    store = str(tmp_path / "campaign.sqlite")
    assert main(["sweep", "--resume", "ghost", "--store", store]) == 2
    assert "unknown campaign" in capsys.readouterr().err
    assert main(["sweep"]) == 2
    assert "--workloads is required" in capsys.readouterr().err


@pytest.mark.campaign
def test_serve_until_done(tmp_path, capsys):
    store = str(tmp_path / "campaign.sqlite")
    cache = str(tmp_path / "cache")
    assert main([
        "submit", "--workloads", "MP3", "--systems", "baseline",
        "--campaign", "srv", "--store", store, *CAMPAIGN_SCALE,
    ]) == 0
    capsys.readouterr()
    assert main([
        "serve", "--store", store, "--cache-dir", cache,
        "--workers", "1", "--until-done", "srv",
    ]) == 0
    err = capsys.readouterr().err
    assert "campaign service on http://" in err
    assert "campaign srv: 1/1 done, 0 dead-lettered" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--workloads", "MP3", "--timeout", "0"],
         "repro sweep: timeout must be positive"),
        (["sweep", "--workloads", "MP3", "--retries", "-1"],
         "repro sweep: retries must be >= 0"),
        (["submit", "--workloads", "MP3", "--timeout", "0"],
         "repro submit: timeout must be positive"),
        (["worker", "--once", "--timeout", "-2"],
         "repro worker: timeout must be positive"),
        (["serve", "--until-done", "done", "--timeout", "0"],
         "repro serve: timeout must be positive"),
    ],
)
def test_bad_policy_exits_2_with_a_message(tmp_path, capsys, argv, message):
    from repro.sim.campaign import CampaignStore

    from tests.campaign.conftest import job_pool

    # A finished campaign, so a command that accepted the policy would
    # return promptly instead of serving or polling forever.
    store_path = tmp_path / "campaign.sqlite"
    store = CampaignStore(store_path)
    store.submit("done", job_pool(1))
    store.lease("w", "done")
    store.complete("done", 0, "w")
    store.close()
    argv = argv + ["--store", str(store_path)]
    if argv[0] in ("worker", "serve"):
        argv += ["--cache-dir", str(tmp_path / "cache")]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
