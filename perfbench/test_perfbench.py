"""Self-test of the benchmark: metric coverage, the verdict oracle, tracing.

Run from the repository root with ``python -m pytest perfbench``. The
repository's own test suite does not collect this file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import spans
from workloads import WORKLOADS

ROOT = run.ROOT
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace, table", [("0", run.END_TO_END), ("1", run.PER_LAYER)])
def test_tiny_run_emits_every_metric_with_its_unit(trace, table):
    out = _bench("--workload", "ensemble_pairs", "--seed", "5", "--seconds", "1",
                 "--trace", trace, "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
    report = "\n".join(lines[:-1])
    for name in [*table, "missed_increments", "false_increments", "failed_frac"]:
        assert f"  {name} " in report
    assert "no cache dropped, no CPU pinned, no cgroup touched" in report


def test_traced_run_covers_all_six_layers_with_linked_spans():
    out = _bench("--workload", "readme_selfcompare", "--seed", "6", "--seconds", "1",
                 "--trace", "1", "--size", "tiny")
    assert out.returncode == 0, out.stderr
    detail = json.loads((run.WORK / "results" / "readme_selfcompare-s6-t1.json").read_text())
    assert detail["missing"] == []
    layers_seen = {layer for by_layer in detail["by_command"].values()
                   for layer, seconds in by_layer.items() if seconds > 0}
    assert layers_seen == set(run.LAYERS)
    by_id = {s["span_id"]: s for s in detail["spans"]}
    for s in detail["spans"]:
        if s["parent_id"] is None:
            assert s["name"].startswith("cli.")
        else:
            parent = by_id[s["parent_id"]]
            assert parent["trace_id"] == s["trace_id"]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]


def test_unresolvable_wrapped_name_is_reported_missing(monkeypatch):
    run.import_program("powertrace.cli")
    monkeypatch.setattr(spans, "WRAPPED", spans.WRAPPED + (
        ("powertrace.cli", "no_such_stage", "cli.no_such_stage", None),))
    tracer = spans.Tracer()
    spans.Tracer.uninstall(tracer.install())
    assert tracer.missing == ["powertrace.cli.no_such_stage"]


def _flip(path: Path, pick) -> None:
    doc = json.loads(path.read_text())
    report = next(r for r in doc["reports"] if pick(r))
    report["verdict"] = "no_increment" if report["verdict"] == "increment" else "increment"
    path.write_text(json.dumps(doc))


def test_oracle_flags_a_flipped_verdict(tmp_path):
    workload = WORKLOADS["readme_selfcompare"](7, tiny=True)
    (tmp_path / "scenario.json").write_text(json.dumps(workload.scenario))
    rep_dir = tmp_path / "rep"
    runner = run.CliRunner(tmp_path)
    try:
        for _, argv in workload.commands(rep_dir):
            assert runner.run(argv)[1] == 0
    finally:
        runner.close()
    files = {c: oracle.digest_tree(run.out_dir(argv)) for c, argv in workload.commands(rep_dir)}
    clean = run.check_outputs(workload, rep_dir, files)
    assert clean.problems == [] and clean.missed == 0 and clean.judged == 20

    report = rep_dir / "cmp" / f"{workload.stems[0]}.comparison.json"
    _flip(report, lambda r: r["kind"] == "idle_pre_vs_idle_post" and r["rail"] == "12v_mb")
    flipped = oracle.check_compare(workload, rep_dir, oracle.load_truths(workload, rep_dir, []))
    assert flipped.missed == 1
    assert "compare: aggregate.json disagrees with the comparison files" in flipped.problems

    _flip(report, lambda r: r["kind"] == "idle_pre_vs_idle_post" and r["rail"] == "3v3")
    flipped = oracle.check_compare(workload, rep_dir, oracle.load_truths(workload, rep_dir, []))
    assert flipped.false == clean.false + 1

    # A baseline median the program inflates cannot move a cell out of judgement.
    doc = json.loads(report.read_text())
    for r in doc["reports"]:
        r["baseline_median_w"] = 1e6
    report.write_text(json.dumps(doc))
    inflated = oracle.check_compare(workload, rep_dir, oracle.load_truths(workload, rep_dir, []))
    assert inflated.judged == 20 and inflated.missed == 1


def test_oracle_flags_a_miscounted_aggregate(tmp_path):
    workload = WORKLOADS["ensemble_pairs"](8, tiny=True)
    cmp_dir, agg_dir = tmp_path / "cmp", tmp_path / "agg"
    cmp_dir.mkdir()
    agg_dir.mkdir()
    cells = [{"rail": "3v3", "kind": "idle_pre_vs_idle_post", "n_datasets": 2,
              "n_increment": 1, "fraction": 0.5, "percent": "50%"}]
    (cmp_dir / "aggregate.json").write_text(json.dumps({"n_datasets": 2, "cells": cells}))
    k = workload.aggregate_copies
    scaled = [{**cells[0], "n_datasets": 2 * k, "n_increment": k}]
    (agg_dir / "aggregate.json").write_text(json.dumps({"n_datasets": 2 * k, "cells": scaled}))
    assert oracle.check_aggregate(workload, tmp_path) == []
    scaled[0]["n_increment"] += 1
    (agg_dir / "aggregate.json").write_text(json.dumps({"n_datasets": 2 * k, "cells": scaled}))
    assert len(oracle.check_aggregate(workload, tmp_path)) == 1


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = _bench("--workload", "readme_selfcompare", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
