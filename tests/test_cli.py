"""Tests for the command-line interface."""

import importlib

import pytest

from repro.cli import build_parser, main
from repro.targets import TABLE3_PAPER, TABLE3_SEED


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def test_table1(capsys):
    out = run_cli(capsys, "table1", "--workloads", "salt")
    assert "salt" in out and "Ionic" in out


def test_table2(capsys):
    out = run_cli(capsys, "table2")
    assert "Intel Xeon X7560" in out


def test_fig1_small(capsys):
    out = run_cli(
        capsys,
        "fig1",
        "--workloads", "Al-1000",
        "--threads", "1,2",
        "--steps", "4",
    )
    assert "Speedup" in out and "Al-1000" in out


def test_fig2_pinned(capsys):
    out = run_cli(
        capsys, "fig2", "--steps", "4", "--threads", "2", "--pinned"
    )
    assert "0 migrations" in out


def test_topology(capsys):
    out = run_cli(capsys, "topology", "--machine", "e5450x2")
    assert "LLC sharing groups" in out


def test_run_with_xyz(capsys, tmp_path):
    path = tmp_path / "t.xyz"
    out = run_cli(
        capsys,
        "run", "Al-1000",
        "--steps", "10",
        "--report-every", "5",
        "--xyz", str(path),
        "--xyz-every", "5",
    )
    assert "E_pot" in out
    assert path.exists()
    assert "wrote 2 frames" in out


def test_unknown_machine_errors():
    with pytest.raises(SystemExit):
        main(["fig1", "--machine", "pentium-4"])


def test_unknown_workload_errors():
    with pytest.raises(SystemExit):
        main(["table1", "--workloads", "fusion-reactor"])


def test_scorecard_passes(capsys):
    out = run_cli(capsys, "scorecard", "--steps", "8")
    assert out.count("[PASS]") == 7
    assert "[FAIL]" not in out
    assert "7/7 checks pass" in out


def test_scorecard_repeat_is_served_from_the_cache(capsys, monkeypatch):
    sweep_module = importlib.import_module("repro.runcache.sweep")
    sweeps = []
    real_sweep = sweep_module.sweep

    def spy(*args, **kwargs):
        sweeps.append(real_sweep(*args, **kwargs))
        return sweeps[-1]

    monkeypatch.setattr(sweep_module, "sweep", spy)
    first = run_cli(capsys, "scorecard", "--steps", "4")
    assert run_cli(capsys, "scorecard", "--steps", "4") == first
    repeat = sweeps[-1]
    assert len(repeat.specs) == 12
    assert repeat.executed == []
    assert repeat.hits == len(repeat.specs)


def test_table3_prints_every_paper_row(capsys):
    out = run_cli(capsys, "table3", "--steps", "1")
    rows = [line for line in out.splitlines() if line[:1].isdigit()]
    assert [r.split("  ")[0] for r in rows] == list(TABLE3_PAPER)


def test_table3_seed_defaults_to_the_target():
    assert build_parser().parse_args(["table3"]).seed == TABLE3_SEED


@pytest.mark.parametrize("threads", ["x", "0,1"])
def test_fig1_bad_threads_is_one_line_exit_2(capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["fig1", "--threads", threads])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: bad --threads")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["fig1", "table3", "scorecard"])
def test_zero_steps_exits_2(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--steps", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--steps: must be >= 1" in err and "Traceback" not in err


def test_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"repro {__version__}"


def test_no_subcommand_prints_help_and_exits_2(capsys):
    code = main([])
    assert code == 2
    out = capsys.readouterr().out
    assert "usage:" in out
    assert "trace" in out and "compare" in out


def test_trace_command_writes_artifacts(capsys, tmp_path):
    out_dir = tmp_path / "tr"
    out = run_cli(
        capsys,
        "trace", "salt",
        "--steps", "2",
        "--threads", "2",
        "--out", str(out_dir),
    )
    assert (out_dir / "trace.json").exists()
    assert (out_dir / "metrics.json").exists()
    assert (out_dir / "metrics.csv").exists()
    assert "task spans" in out
    assert "LLC" in out


def test_compare_command_reports_tools(capsys):
    out = run_cli(
        capsys,
        "compare", "--steps", "1", "--threads", "2", "--no-observer",
    )
    assert "visualvm-1s" in out and "vtune-5ms" in out
    assert "ground-truth runtime" in out


def test_compare_tools_subset(capsys):
    out = run_cli(
        capsys,
        "compare", "--steps", "1", "--threads", "2", "--no-observer",
        "--tools", "vtune-5ms",
    )
    assert "vtune-5ms" in out
    assert "visualvm-1s" not in out


def test_compare_unknown_tool_is_one_line_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--steps", "1", "--tools", "perf-stat"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert "perf-stat" in err
    assert err.count("\n") == 1


def test_leaderboard_command_writes_payload(capsys, tmp_path):
    import json

    out = run_cli(
        capsys,
        "leaderboard",
        "--workloads", "salt",
        "--machines", "i7-920",
        "--threads", "2",
        "--steps", "2",
        "--out", str(tmp_path),
    )
    assert "Tool-accuracy leaderboard" in out
    assert "jxperf" in out and "timer-sync" in out
    payload = json.loads(
        (tmp_path / "leaderboard.json").read_text(encoding="utf-8")
    )
    assert payload["schema"].startswith("repro.toolerror/")
    assert len(payload["tools"]) >= 8


def test_leaderboard_unknown_machine_is_one_line_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["leaderboard", "--machines", "cray-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert "cray-1" in err
    assert err.count("\n") == 1


def test_chaos_unknown_workload_is_one_line_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--workloads", "fusion-reactor"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert "fusion-reactor" in err
    assert err.count("\n") == 1  # one line, no traceback


def test_bad_thread_count_exits_2(capsys):
    for bad in ("0", "-3", "lots"):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--threads", bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--threads" in err and "Traceback" not in err


def test_unreadable_fault_plan_exits_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--plan", str(tmp_path / "nope.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert "cannot read" in err
    assert err.count("\n") == 1


def test_malformed_fault_plan_exits_2(capsys, tmp_path):
    path = tmp_path / "plan.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--plan", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:") and err.count("\n") == 1


def test_chaos_command_runs_a_plan_file(capsys, tmp_path):
    from repro.faults import FaultPlan, WorkerCrash

    path = tmp_path / "crash.json"
    FaultPlan(
        name="crash", faults=(WorkerCrash(at=0.0005, worker=1),)
    ).save(path)
    out = run_cli(
        capsys,
        "chaos",
        "--workloads", "nanocar",
        "--steps", "1",
        "--plan", str(path),
        "--out", str(tmp_path / "o"),
    )
    assert "crash" in out and "0 failed" in out
    assert (tmp_path / "o" / "chaos.json").exists()


def test_trace_cached_and_uncached_outputs_match(capsys, tmp_path):
    args = ["trace", "salt", "--steps", "2", "--threads", "2"]
    cold = run_cli(
        capsys, *args, "--out", str(tmp_path / "a"),
        "--cache-dir", str(tmp_path / "store"),
    )
    warm = run_cli(
        capsys, *args, "--out", str(tmp_path / "b"),
        "--cache-dir", str(tmp_path / "store"),
    )
    plain = run_cli(
        capsys, *args, "--out", str(tmp_path / "c"), "--no-cache"
    )
    def normalize(text, sub):
        return text.replace(str(tmp_path / sub), "OUT")

    assert (
        normalize(cold, "a") == normalize(warm, "b") == normalize(plain, "c")
    )
    for name in ("trace.json", "metrics.json", "metrics.csv"):
        assert (
            (tmp_path / "a" / name).read_bytes()
            == (tmp_path / "b" / name).read_bytes()
            == (tmp_path / "c" / name).read_bytes()
        )


def test_attribute_cached_and_uncached_outputs_match(capsys, tmp_path):
    args = ["attribute", "--workload", "salt", "--threads", "2",
            "--steps", "1"]
    cached = run_cli(
        capsys, *args, "--out", str(tmp_path / "a"),
        "--cache-dir", str(tmp_path / "store"),
    )
    plain = run_cli(
        capsys, *args, "--out", str(tmp_path / "b"), "--no-cache"
    )
    assert cached.replace(str(tmp_path / "a"), "OUT") == plain.replace(
        str(tmp_path / "b"), "OUT"
    )
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_chaos_cached_and_uncached_payloads_match(capsys, tmp_path):
    args = ["chaos", "--workloads", "salt", "--steps", "1"]
    cached = run_cli(
        capsys, *args, "--out", str(tmp_path / "a"),
        "--cache-dir", str(tmp_path / "store"),
    )
    plain = run_cli(
        capsys, *args, "--out", str(tmp_path / "b"), "--no-cache"
    )
    assert cached.replace(str(tmp_path / "a"), "OUT") == plain.replace(
        str(tmp_path / "b"), "OUT"
    )
    assert (tmp_path / "a" / "chaos.json").read_bytes() == (
        tmp_path / "b" / "chaos.json"
    ).read_bytes()


def test_cache_stats_clear_verify_cycle(capsys, tmp_path):
    store = str(tmp_path / "store")
    run_cli(
        capsys, "trace", "salt", "--steps", "1",
        "--out", str(tmp_path / "t"), "--cache-dir", store,
    )
    out = run_cli(capsys, "cache", "stats", "--cache-dir", store)
    assert "run cache at" in out and "trace" in out
    out = run_cli(
        capsys, "cache", "verify", "--sample", "2", "--cache-dir", store
    )
    assert "byte-identical" in out and "0 mismatched" in out
    out = run_cli(capsys, "cache", "clear", "--cache-dir", store)
    assert "cleared" in out
    out = run_cli(capsys, "cache", "verify", "--cache-dir", store)
    assert "nothing to verify" in out


def test_cache_salt_prints_bare_digest(capsys):
    out = run_cli(capsys, "cache", "salt")
    assert len(out.strip()) == 64
    int(out.strip(), 16)


def test_cache_without_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cache"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:") and "stats" in err


def test_cache_stats_json_is_schema_stamped(capsys, tmp_path):
    import json

    store = str(tmp_path / "store")
    run_cli(
        capsys, "trace", "salt", "--steps", "1",
        "--out", str(tmp_path / "t"), "--cache-dir", store,
    )
    out = run_cli(capsys, "cache", "stats", "--json", "--cache-dir", store)
    payload = json.loads(out)
    assert payload["schema"] == "repro.cache_stats/1"
    assert payload["entries"] >= 1
    assert payload["by_kind"].get("trace", 0) >= 1
    assert 0.0 <= payload["hit_rate"] <= 1.0


def test_report_command_end_to_end(capsys, tmp_path):
    import json
    import os

    tel = str(tmp_path / "tel")
    run_cli(
        capsys, "attribute", "--workload", "salt", "--threads", "2",
        "--steps", "2", "--out", str(tmp_path / "attr"),
        "--telemetry", tel,
    )
    assert os.path.exists(os.path.join(tel, "run.json"))
    out = run_cli(capsys, "report", tel)
    assert "report.html" in out and "ui.perfetto.dev" in out
    for name in (
        "merged.jsonl", "trace.json", "metrics.prom",
        "report.json", "report.html",
    ):
        assert os.path.exists(os.path.join(tel, name)), name
    report = json.loads(open(os.path.join(tel, "report.json")).read())
    assert report["schema"].startswith("repro.report/")
    assert report["cache"]["lookups"] >= 1
    # read back from the cache entries the attribute sweep recorded
    assert report["speedup"]["threads"] == [1, 2]
    assert report["attribution"]["threads"] == {"salt": 2}
    assert report["machine"] == "i7-920"
    html = open(os.path.join(tel, "report.html")).read()
    assert "<svg" in html and "<script" not in html


def test_report_on_empty_dir_exits_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["report", str(tmp_path)])
    assert exc.value.code == 2
    assert "no telemetry records" in capsys.readouterr().err


def test_sweep_journal_then_resume_cycle(capsys, tmp_path):
    import json

    from repro.runcache.resilience import load_journal

    base = [
        "sweep",
        "--workloads", "salt",
        "--threads", "1,2",
        "--steps", "1",
        "--cache-dir", str(tmp_path / "store"),
    ]
    out = run_cli(
        capsys, *base, "--journal", str(tmp_path / "journal"),
        "--out", str(tmp_path / "a"),
    )
    assert "swept 2 specs" in out and "2 executed" in out
    state = load_journal(tmp_path / "journal")
    assert len(state.completed) == 2

    out = run_cli(
        capsys,
        "sweep",
        "--resume", str(tmp_path / "journal"),
        "--cache-dir", str(tmp_path / "store"),
        "--out", str(tmp_path / "b"),
    )
    assert "resumed" in out
    payload = json.loads(
        (tmp_path / "b" / "sweep.json").read_text(encoding="utf-8")
    )
    assert payload["schema"].startswith("repro.sweepcli/")
    assert payload["resumed"] == 2 and payload["executed"] == []
    assert payload["quarantined"] == []


def test_sweep_resume_without_journal_is_one_line_exit_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--resume", str(tmp_path / "nothing")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert "sweep-journal.jsonl" in err
    assert err.count("\n") == 1


def test_sweep_resume_conflicts_are_one_line_exit_2(capsys, tmp_path):
    journal = str(tmp_path / "journal")
    for extra in (
        ["--journal", str(tmp_path / "other")],
        ["--workloads", "salt"],
        ["--steps", "1"],
        ["--no-cache"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--resume", journal] + extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert err.count("\n") == 1


def test_sweep_bad_supervision_flags_exit_2(capsys):
    for extra in (
        ["--retries", "-1"],
        ["--timeout", "0"],
        ["--threads", "0"],
        ["--threads", "lots"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--workloads", "salt", "--steps", "1"] + extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err


def test_sweep_quarantine_exits_3_and_reports(capsys, tmp_path):
    import json

    from repro.faults.process import ProcessFaultPlan, activate, deactivate

    activate(ProcessFaultPlan(
        state_dir=str(tmp_path / "faults"),
        poison_labels=("observe:salt*",),
    ))
    try:
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep",
                "--workloads", "salt",
                "--threads", "1",
                "--steps", "1",
                "--retries", "0",
                "--journal", str(tmp_path / "journal"),
                "--cache-dir", str(tmp_path / "store"),
                "--out", str(tmp_path / "o"),
            ])
    finally:
        deactivate()
    assert exc.value.code == 3  # partial success, not a usage error
    out = capsys.readouterr().out
    assert "quarantined" in out and "PoisonedSpec" in out
    payload = json.loads(
        (tmp_path / "o" / "sweep.json").read_text(encoding="utf-8")
    )
    assert len(payload["quarantined"]) == 1
    assert payload["quarantined"][0]["label"].startswith("observe:salt")


def test_leaderboard_faults_renders_and_writes_payload(capsys, tmp_path):
    import json

    out = run_cli(
        capsys,
        "leaderboard",
        "--faults",
        "--workloads", "salt",
        "--threads", "2",  # the straggler sits on PU 1: needs 2 threads
        "--steps", "1",
        "--cache-dir", str(tmp_path / "store"),
        "--out", str(tmp_path),
    )
    assert "Fault-aware leaderboard" in out
    assert "straggler" in out
    payload = json.loads(
        (tmp_path / "leaderboard_faults.json").read_text(encoding="utf-8")
    )
    assert payload["schema"].startswith("repro.toolerror_faults/")
    assert payload["faulted_seconds"] > payload["true_seconds"]
    ranked = [r["tool"] for r in payload["rows"]]
    assert len(ranked) >= 8
    for row in payload["rows"]:
        assert row["rank_shift"] == row["clean_rank"] - row["fault_rank"]
        assert row["fooled"] == (row["rank_shift"] != 0)


def test_leaderboard_faults_needs_a_single_cell(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["leaderboard", "--faults", "--workloads", "salt", "nanocar"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert err.count("\n") == 1
