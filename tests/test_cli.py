"""End-to-end tests driving the command line in process."""

import dataclasses
import errno
import gc
import hashlib
import json
import multiprocessing
import multiprocessing.connection
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from conftest import compact_scenario, idle_delta
import powertrace
from powertrace import (
    CalibrationConfig,
    EventKind,
    InfectionEffect,
    MachineState,
    generate_run,
    write_capture,
)
from powertrace import cli
from powertrace.cli import main
from powertrace.ingest import SAMPLE_HEADER, manifest_path_for, write_series_csv
from powertrace.model import to_wire

SCENARIO = {
    "seed": 77,
    "rootkit_label": "clidemo",
    "idle_duration": 10.0,
    "ie_windows": 4,
    "ie_spacing": 2.5,
    "boot_duration": 8.0,
    "infection": {"delta_power": {"12v_mb": {"idle": 1.0}}},
}

STEM = "clidemo-d1-s77"
RAIL_NAMES = ("3v3", "5v", "12v_mb", "12v_cpu")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "scenario.json"
    config.write_text(json.dumps(SCENARIO), encoding="ascii")
    captures = root / "captures"
    rc = main(["synth", "--config", str(config), "--out", str(captures)])
    assert rc == 0
    return SimpleNamespace(
        root=root,
        config=config,
        captures=captures,
        sample=captures / f"{STEM}.csv",
        truth=captures / f"{STEM}.truth.json",
    )


@pytest.fixture(scope="module")
def compared(workdir):
    out = workdir.root / "cmp"
    rc = main(
        ["compare", "--pre", str(workdir.sample), "--out", str(out), "--max-lag", "0.05"]
    )
    assert rc == 0
    return out


def test_synth_writes_capture_manifest_and_truth(workdir):
    for suffix in (".csv", ".manifest.json", ".truth.json"):
        assert (workdir.captures / f"{STEM}{suffix}").is_file()
    truth = json.loads(workdir.truth.read_text())
    assert truth["run_id"] == STEM
    assert len(truth["markers"]) == 18
    assert truth["applied_deltas"] == {
        "post_infection/idle/12v_mb": 1.0,
        "post_infection_reboot/idle/12v_mb": 1.0,
    }


def test_synth_multiple_datasets(workdir, tmp_path):
    rc = main(
        [
            "synth",
            "--config",
            str(workdir.config),
            "--out",
            str(tmp_path),
            "--datasets",
            "2",
        ]
    )
    assert rc == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(
        f"clidemo-d{k}-s77{suffix}"
        for k in (1, 2)
        for suffix in (".csv", ".manifest.json", ".truth.json")
    )


def test_analyze_emits_report_and_plot_files(workdir, tmp_path):
    rc = main(["analyze", str(workdir.sample), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / f"{STEM}.analysis.json").read_text())
    assert report["run_id"] == STEM
    assert report["marker_count"] == 18
    assert len(report["markers"]) == 18
    assert len(report["segments"]) == 36
    assert set(report["rails"]) == set(RAIL_NAMES)
    for marker in report["markers"]:
        assert marker["duration_s"] == pytest.approx(5.0, abs=0.2)

    n = json.loads(workdir.truth.read_text())["sample_count"]
    for rail in RAIL_NAMES:
        lines = (tmp_path / f"{STEM}.plot.{rail}.csv").read_text().splitlines()
        assert lines[0] == "time_s,power_w"
        assert len(lines) == n + 1
        assert lines[1].startswith("0.000000,")


def test_analyze_continues_past_a_bad_capture(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(SAMPLE_HEADER + "\n", encoding="ascii")
    manifest = (workdir.captures / f"{STEM}.manifest.json").read_text()
    (tmp_path / "bad.manifest.json").write_text(manifest, encoding="ascii")

    out = tmp_path / "out"
    rc = main(["analyze", str(bad), str(workdir.sample), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "no samples" in err
    # The healthy capture was still analyzed.
    assert (out / f"{STEM}.analysis.json").is_file()


def test_compare_self_run_reports(workdir, compared):
    payload = json.loads((compared / f"{STEM}.comparison.json").read_text())
    assert payload["pre_run_id"] == STEM
    assert payload["post_run_id"] == STEM
    assert payload["params"]["max_lag"] == 0.05
    reports = payload["reports"]
    assert len(reports) == 20
    assert len({(r["kind"], r["rail"]) for r in reports}) == 20
    for report in reports:
        assert report["noisy"] == (report["kind"] == "boot_pre_vs_reboot_post")

    # The injected idle delta lands on the motherboard rail, nowhere else.
    increments = {
        (r["kind"], r["rail"]) for r in reports if r["verdict"] == "increment"
    }
    assert increments == {
        ("idle_pre_vs_idle_post", "12v_mb"),
        ("idle_pre_vs_idle_post_reboot", "12v_mb"),
    }
    by_key = {(r["kind"], r["rail"]): r for r in reports}
    hit = by_key[("idle_pre_vs_idle_post", "12v_mb")]
    assert hit["delta_w"] == pytest.approx(1.0, abs=0.1)


def test_compare_writes_aggregate(compared):
    payload = json.loads((compared / "aggregate.json").read_text())
    assert payload["n_datasets"] == 1
    cells = payload["cells"]
    assert len(cells) == 20
    hot = {
        (c["kind"], c["rail"]): c["percent"]
        for c in cells
        if c["n_increment"] > 0
    }
    assert hot == {
        ("idle_pre_vs_idle_post", "12v_mb"): "100.00%",
        ("idle_pre_vs_idle_post_reboot", "12v_mb"): "100.00%",
    }
    for cell in cells:
        assert cell["n_datasets"] == 1
        assert cell["percent"].endswith("%")


def test_aggregate_cli_reproduces_compare_output(compared, tmp_path):
    report = compared / f"{STEM}.comparison.json"
    rc = main(["aggregate", str(report), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "aggregate.json").read_bytes() == (
        compared / "aggregate.json"
    ).read_bytes()


def test_compare_rejects_mismatched_capture_counts(workdir, capsys):
    rc = main(
        [
            "compare",
            "--pre",
            str(workdir.sample),
            "--post",
            "a.csv",
            "--post",
            "b.csv",
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "powertrace:" in err
    assert "1 --pre captures but 2 --post captures" in err


def test_unknown_marker_rail_fails_cleanly(workdir, capsys):
    rc = main(["analyze", str(workdir.sample), "--marker-rail", "9v"])
    assert rc == 1
    assert "unknown marker rail '9v'" in capsys.readouterr().err


def test_stamp_flag_adds_timestamp(workdir, tmp_path):
    plain = tmp_path / "plain"
    stamped = tmp_path / "stamped"
    base = ["synth", "--config", str(workdir.config)]
    assert main(base + ["--out", str(plain)]) == 0
    assert main(base + ["--out", str(stamped), "--stamp"]) == 0
    without = json.loads((plain / f"{STEM}.truth.json").read_text())
    with_stamp = json.loads((stamped / f"{STEM}.truth.json").read_text())
    assert "generated_at" not in without
    assert "generated_at" in with_stamp


def test_bad_scenario_file_fails_cleanly(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{not json", encoding="ascii")
    rc = main(["synth", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 1
    assert "JSON" in capsys.readouterr().err

    config.write_text(json.dumps({"seed": 1, "wheelbase": 2.4}), encoding="ascii")
    rc = main(["synth", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown keys" in capsys.readouterr().err


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit):
        main([])


def _one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("powertrace: "), lines
    return lines[0]


# A comparison file's fields but its reports.
_ENVELOPE = {"pre_run_id": STEM, "post_run_id": STEM, "dataset_index": 1,
             "params": to_wire(powertrace.CompareParams())}


@pytest.mark.parametrize(
    "payload, message",
    [({**_ENVELOPE, "reports": [1, 2]}, "malformed comparison report"),
     pytest.param(5, "malformed comparison report (expected a JSON object, got int)",
                  id="5-missing 'reports' list"),
     pytest.param({**_ENVELOPE, "reports": []},
                  "malformed comparison report (empty 'reports' list)",
                  id="payload2-empty 'reports' list")],
)
def test_aggregate_rejects_non_object_reports(tmp_path, capsys, payload, message):
    path = tmp_path / "bad.comparison.json"
    path.write_text(json.dumps(payload), encoding="ascii")
    assert main(["aggregate", str(path), "--out", str(tmp_path)]) == 1
    assert f"{path}: {message}" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({"seed": "abc"}, "scenario.seed: expected int, got 'abc'"),
        ({"seed": -3}, "seed must be >= 0, got -3"),
        ({"seed": 1, "idle_duration": [2]}, "scenario.idle_duration: expected float"),
        ({"seed": 1, "infection": {"lag_s": "x"}}, "infection.lag_s: expected float"),
        ({"seed": 1, "noise_sigma": {"5v": "x"}}, "noise_sigma[5v]: expected float"),
        pytest.param({"seed": 1, "baseline_power": 5},
                     "scenario.baseline_power: expected a JSON object, got int",
                     id="scenario5-baseline_power"),
        ({"seed": True}, "scenario.seed: expected int, got True"),
        ({"seed": 1.5}, "scenario.seed: expected int, got 1.5"),
        ({"seed": 1, "idle_duration": float("inf")}, "scenario.idle_duration: expected float"),
        ({"seed": 1, "rootkit_label": 5}, "scenario.rootkit_label: expected str, got 5"),
    ],
)
def test_bad_scenario_value_fails_cleanly(tmp_path, capsys, scenario, message):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario), encoding="ascii")
    assert main(["synth", "--config", str(config), "--out", str(tmp_path)]) == 1
    assert message in _one_error_line(capsys)


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({"seed": 1, "ie_windows": 1000000000000000000},
         "dataset 1: a run of 1500000000000000039600 samples is more than"),
        ({"seed": 1, "sample_period": 1e-300},
         "dataset 1: gap_duration 1.0 s is 1e+300 samples at a sample period of 1e-300 s"),
        ({**SCENARIO, "dataset_infections": [None, {}, {"lag_s": 1e16}]},
         "dataset 3: infection.lag_s 1e+16 s is 1e+18 samples"),
    ],
    ids=["ie_windows", "sample_period", "dataset_lag"],
)
def test_an_impossible_sample_count_fails_before_any_output(tmp_path, capsys, scenario, message):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario), encoding="ascii")
    out = tmp_path / "out"
    assert main(["synth", "--config", str(config), "--out", str(out), "--datasets", "3"]) == 1
    assert message in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "dataset_infections, datasets, message",
    [
        (None, "0", "--datasets must be >= 1, got 0"),
        (None, "-2", "--datasets must be >= 1, got -2"),
        ([None, {}], "1", "scenario.dataset_infections has 2 entries for --datasets 1"),
        ([{}], "3", "scenario.dataset_infections has 1 entries for --datasets 3"),
    ],
    ids=["zero", "negative", "two_for_one", "one_for_three"],
)
def test_a_bad_dataset_count_names_the_flag_and_the_scenario_key(
    tmp_path, capsys, dataset_infections, datasets, message
):
    scenario = dict(SCENARIO)
    if dataset_infections is not None:
        scenario["dataset_infections"] = dataset_infections
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario), encoding="ascii")
    out = tmp_path / "out"
    assert main(["synth", "--config", str(config), "--out", str(out), "--datasets", datasets]) == 1
    assert _one_error_line(capsys) == f"powertrace: {message}"
    assert not out.exists()


def test_a_run_too_large_to_allocate_fails_in_one_line(workdir, tmp_path, capsys):
    with mock.patch("powertrace.synth.np.empty", side_effect=MemoryError):
        assert main(["synth", "--config", str(workdir.config), "--out", str(tmp_path)]) == 1
    assert _one_error_line(capsys) == "powertrace: cannot allocate a run of 21000 samples"
    assert list(tmp_path.iterdir()) == []


def _synth_peak(config: Path, out: Path, datasets: int) -> int:
    argv = ["synth", "--config", str(config), "--out", str(out), "--datasets", str(datasets)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_synth_holds_one_dataset_at_a_time(workdir, tmp_path):
    # Building every dataset before writing the first held all their tables
    # at once: --datasets 4 then peaked at 1.72x the peak of --datasets 1.
    rows = json.loads(workdir.truth.read_text())["sample_count"]
    one = _synth_peak(workdir.config, tmp_path / "one", 1)
    four = _synth_peak(workdir.config, tmp_path / "four", 4)
    assert len(list((tmp_path / "four").glob("*.csv"))) == 4
    assert four < one + rows * 8 * 8, (one, four)


def _edited_capture(workdir, tmp_path, **fields):
    """A copy of the CLI capture whose manifest has *fields* set."""
    sample = tmp_path / f"{STEM}.csv"
    sample.write_bytes(workdir.sample.read_bytes())
    manifest = json.loads((workdir.captures / f"{STEM}.manifest.json").read_text())
    manifest.update(fields)
    (tmp_path / f"{STEM}.manifest.json").write_text(json.dumps(manifest))
    return sample


@pytest.mark.parametrize(
    "key, value",
    [("dataset_index", "x"), ("sample_period_s", "x"), ("dataset_index", None),
     ("dataset_index", 2.7), ("dataset_index", True), ("run_id", 5),
     ("expected_marker_count", 18.0)],
)
def test_bad_manifest_scalar_fails_cleanly(workdir, tmp_path, capsys, key, value):
    sample = _edited_capture(workdir, tmp_path, **{key: value})
    assert main(["analyze", str(sample), "--out", str(tmp_path)]) == 1
    kind = {"run_id": "str", "sample_period_s": "float"}.get(key, "int")
    assert _one_error_line(capsys) == (
        f"powertrace: {sample}: manifest.{key}: expected {kind}, got {value!r}"
    )


_PRE_IDLE = {"state": "pre_infection", "event": "idle"}
_POST_IDLE = {"state": "post_infection", "event": "idle"}


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"dataset_index": 0}, "dataset_index must be >= 1, got 0"),
        ({"schedule": [], "expected_marker_count": 0}, "schedule has no entries"),
        ({"schedule": [_POST_IDLE, _PRE_IDLE], "expected_marker_count": 4},
         "schedule entries not ordered by machine state at position 1"),
        ({"run_id": ""}, "run_id must not be empty"),
    ],
)
def test_manifest_breaking_a_run_invariant_fails_in_one_line(
    workdir, tmp_path, capsys, fields, message
):
    sample = _edited_capture(workdir, tmp_path, **fields)
    assert main(["analyze", str(sample), "--out", str(tmp_path)]) == 1
    assert _one_error_line(capsys) == (
        f"powertrace: {sample}: manifest: {message}"
    )


def test_compare_refuses_a_schedule_that_repeats_an_entry(workdir, tmp_path, capsys):
    # Entry 7 of 9, the post-reboot boot, relabelled as a second post-reboot
    # idle. The comparisons key segments by (state, event), so compare used
    # to judge only the later idle segment and drop the other unseen.
    manifest = json.loads((workdir.captures / f"{STEM}.manifest.json").read_text())
    schedule = manifest["schedule"]
    assert schedule[6] == {"state": "post_infection_reboot", "event": "boot"}
    schedule[6] = dict(schedule[7])
    sample = _edited_capture(workdir, tmp_path, schedule=schedule)
    out = tmp_path / "out"
    assert main(["compare", "--pre", str(sample), "--out", str(out), "--max-lag", "0.05"]) == 1
    assert _one_error_line(capsys) == (
        f"powertrace: {sample}: manifest: schedule entries 6 and 7 repeat "
        "(post_infection_reboot, idle)"
    )
    assert not out.exists()


def _cut_capture(capture: Path, tmp_path: Path) -> Path:
    """*capture* cut after its eighth entry: the post-reboot browser entry,
    its markers and its samples are gone."""
    cut = tmp_path / "cut.csv"
    manifest = json.loads(manifest_path_for(capture).read_text())
    manifest["schedule"] = manifest["schedule"][:8]
    manifest["expected_marker_count"] = 16
    manifest_path_for(cut).write_text(json.dumps(manifest))
    markers = json.loads(capture.with_suffix(".truth.json").read_text())["markers"]
    rows = (markers[15][1] + markers[16][0]) // 2
    cut.write_text("".join(capture.read_text().splitlines(True)[: rows + 1]))
    return cut


def test_a_comparison_error_names_the_dataset_captures(workdir, second_capture, tmp_path, capsys):
    # Dataset 2's post capture lacks its post-reboot browser segment.
    cut = _cut_capture(second_capture, tmp_path)
    out = tmp_path / "out"
    argv = ["compare", "--pre", str(workdir.sample), "--pre", str(second_capture),
            "--post", str(workdir.sample), "--post", str(cut),
            "--out", str(out), "--max-lag", "0.05"]
    assert main(argv) == 1
    assert _one_error_line(capsys) == (
        f"powertrace: --pre {second_capture}, --post {cut}: missing suspect segment "
        "(post_infection_reboot, open_browser) on rail 3v3"
    )
    assert not out.exists()


def test_compare_takes_post_reboot_segments_only_from_the_post_reboot_capture(
    workdir, second_capture, tmp_path, capsys
):
    # The --post capture holds a post-reboot browser segment, but the one
    # the --post-reboot capture lacks is not taken from it.
    cut = _cut_capture(second_capture, tmp_path)
    out = tmp_path / "out"
    argv = ["compare", "--pre", str(workdir.sample), "--post", str(second_capture),
            "--post-reboot", str(cut), "--out", str(out), "--max-lag", "0.05"]
    assert main(argv) == 1
    assert _one_error_line(capsys) == (
        f"powertrace: --pre {workdir.sample}, --post {second_capture}, --post-reboot {cut}: "
        "missing suspect segment (post_infection_reboot, open_browser) on rail 3v3"
    )
    assert not out.exists()


def _report_with(compared, tmp_path, key: str, token: str):
    """The CLI comparison file with the first report's *key* set to the JSON *token*."""
    payload = json.loads((compared / f"{STEM}.comparison.json").read_text())
    payload["reports"][0][key] = "@TOKEN@"
    path = tmp_path / "edited.comparison.json"
    path.write_text(json.dumps(payload).replace('"@TOKEN@"', token), encoding="ascii")
    return path


@pytest.mark.parametrize(
    "key, token",
    [("lag_samples", "1e999"), ("lag_samples", "2.7"), ("noisy", '"false"'),
     ("lag_zero_variance", '"false"'), ("baseline_spikes", "true"), ("delta_w", "NaN"),
     ("suspect_median_w", "-Infinity")],
)
def test_aggregate_rejects_an_inexact_report_scalar(compared, tmp_path, capsys, key, token):
    path = _report_with(compared, tmp_path, key, token)
    assert main(["aggregate", str(path), "--out", str(tmp_path)]) == 1
    assert f"{path}: malformed comparison report (reports[0].{key}: expected " in (
        _one_error_line(capsys)
    )


_WIRE_NAMES = {
    "kind": "boot_pre_vs_reboot_post, idle_pre_vs_idle_post, idle_pre_vs_idle_post_reboot, "
            "ie_pre_vs_ie_post, ie_pre_vs_ie_post_reboot",
    "rail": "3v3, 5v, 12v_mb, 12v_cpu",
    "verdict": "increment, no_increment",
}


@pytest.mark.parametrize("key", ["kind", "rail", "verdict"])
@pytest.mark.parametrize("token", ['"3V3"', "null", '["x"]'], ids=["3V3", "null", "list"])
def test_aggregate_rejects_an_unknown_report_name(compared, tmp_path, capsys, key, token):
    path = _report_with(compared, tmp_path, key, token)
    assert main(["aggregate", str(path), "--out", str(tmp_path)]) == 1
    value = repr(json.loads(token))
    assert _one_error_line(capsys) == (
        f"powertrace: {path}: malformed comparison report "
        f"(reports[0].{key}: unknown name {value} (choose from {_WIRE_NAMES[key]}))"
    )


@pytest.mark.parametrize("key, token", [("delta_w", "0"), ("lag_s", "0"), ("noisy", "false")])
def test_aggregate_reads_well_formed_report_scalars(compared, tmp_path, key, token):
    path = _report_with(compared, tmp_path, key, token)
    assert main(["aggregate", str(path), "--out", str(tmp_path)]) == 0


def test_report_decoding_makes_no_per_report_wire_scan(compared):
    # Timing-free: a decoder that scans an enum's members per value calls
    # to_wire for each report, so 1,000 reports would make more calls than 1.
    payload = json.loads((compared / f"{STEM}.comparison.json").read_text())
    entry = payload["reports"][0]
    args = (powertrace.ComparisonReport, entry, "", powertrace.PowerTraceError)
    powertrace.model.decode(*args)
    calls = []
    with mock.patch("powertrace.model.to_wire", side_effect=powertrace.model.to_wire) as wrapped:
        for n in (1, 1000):
            wrapped.reset_mock()
            decoded = [powertrace.model.decode(*args) for _ in range(n)]
            calls.append(wrapped.call_count)
            assert len(set(decoded)) == 1
    assert calls[0] == calls[1]


@pytest.mark.parametrize(
    "document, edit, message",
    [
        ("report", lambda report: report.pop("noisy"),
         "malformed comparison report (reports[0]: missing keys ['noisy'])"),
        ("report", lambda report: report.update(noisey=False),
         "malformed comparison report (reports[0]: unknown keys ['noisey'])"),
        ("calibration", lambda calibration: calibration.pop("adc_bits"),
         "manifest.calibration: missing keys ['adc_bits']"),
        ("calibration", lambda calibration: calibration.update(adc_bitz=16),
         "manifest.calibration: unknown keys ['adc_bitz']"),
        ("scenario", lambda scenario: scenario.update(sed=scenario.pop("seed")),
         "scenario must set 'seed'"),
        ("manifest", lambda manifest: manifest.update(extra_key=1),
         "manifest: unknown keys ['extra_key']"),
        ("manifest", lambda manifest: manifest["schedule"][0].update(note="x"),
         "manifest.schedule[0]: unknown keys ['note']"),
        ("manifest", lambda manifest: manifest["schedule"][0].pop("event"),
         "manifest.schedule[0]: missing keys ['event']"),
        ("manifest", lambda manifest: manifest.update(schedule="boot"),
         "manifest.schedule: expected a JSON list, got str"),
    ],
    ids=["report_missing", "report_unknown", "calibration_missing", "calibration_unknown",
         "scenario_seed", "manifest_unknown", "schedule_entry_unknown", "schedule_entry_missing",
         "schedule_not_a_list"],
)
def test_an_incomplete_or_misspelled_input_is_refused_naming_the_key(
    workdir, compared, tmp_path, capsys, document, edit, message
):
    # A report or a manifest must be complete; a scenario is merged over
    # the defaults but must set its seed. No input may carry a key that
    # nothing reads.
    out = str(tmp_path / "out")
    if document == "report":
        payload = json.loads((compared / f"{STEM}.comparison.json").read_text())
        edit(payload["reports"][0])
        path = tmp_path / "edited.comparison.json"
        argv = ["aggregate", str(path), "--out", out]
    elif document in ("calibration", "manifest"):
        sample = _copy_capture(workdir.sample, tmp_path / "edited.csv")
        path = manifest_path_for(sample)
        payload = json.loads(path.read_text())
        edit(payload["calibration"] if document == "calibration" else payload)
        argv = ["analyze", str(sample), "--out", out]
    else:
        payload = dict(SCENARIO)
        edit(payload)
        path = tmp_path / "scenario.json"
        argv = ["synth", "--config", str(path), "--out", out]
    path.write_text(json.dumps(payload), encoding="ascii")
    assert main(argv) == 1
    assert _one_error_line(capsys).endswith(f": {message}")


def test_aggregate_rejects_a_fold_with_different_params(compared, tmp_path, capsys):
    report = compared / f"{STEM}.comparison.json"
    copy = tmp_path / "copy.comparison.json"
    copy.write_bytes(report.read_bytes())
    assert main(["aggregate", str(report), str(copy), "--out", str(tmp_path)]) == 0
    capsys.readouterr()

    payload = json.loads(report.read_text())
    payload["params"]["spike_k"] = 5.0
    payload["params"]["window"] = 2.0
    other = tmp_path / "other.comparison.json"
    other.write_text(json.dumps(payload), encoding="ascii")
    assert main(["aggregate", str(report), str(other), "--out", str(tmp_path)]) == 1
    assert _one_error_line(capsys) == (
        f"powertrace: {other}: params differ from those of {report}, first at 'spike_k'"
    )


@pytest.mark.parametrize(
    "edit, message",
    [(list.pop, "{edited} covers 19 cells, expected the same 20 cells as {report}"),
     (lambda reports: reports.append(reports[0]),
      "{edited}: duplicate cell (3v3, boot_pre_vs_reboot_post)")],
    ids=["truncated", "duplicated"],
)
def test_aggregate_names_the_file_at_fault(compared, tmp_path, capsys, edit, message):
    report = compared / f"{STEM}.comparison.json"
    payload = json.loads(report.read_text())
    edit(payload["reports"])
    edited = tmp_path / "edited.comparison.json"
    edited.write_text(json.dumps(payload), encoding="ascii")
    assert main(["aggregate", str(report), str(edited), "--out", str(tmp_path)]) == 1
    assert _one_error_line(capsys) == "powertrace: " + message.format(edited=edited, report=report)
    assert not (tmp_path / "aggregate.json").exists()


# Each edit of the CLI comparison file and the decoder's words for it.
_MALFORMED_FILES = {
    "params_missing": (lambda payload: payload.pop("params"), "missing keys ['params']"),
    "params_not_an_object": (lambda payload: payload.update(params="anything"),
                             "params: expected a JSON object, got str"),
    "params_partial": (lambda payload: payload.update(params={"window": -1.0}),
                       "params: missing keys ['rel_threshold', 'abs_threshold', 'max_lag', "
                       "'spike_k', 'spike_window']"),
    "params_out_of_range": (lambda payload: payload["params"].update(window=-1.0),
                            "params: window must be positive and finite, got -1.0"),
    "params_unknown_key": (lambda payload: payload["params"].update(windw=1.0),
                           "params: unknown keys ['windw']"),
    "dataset_index": (lambda payload: payload.update(dataset_index="x"),
                      "dataset_index: expected int, got 'x'"),
    "run_id": (lambda payload: payload.update(pre_run_id=None),
               "pre_run_id: expected str, got None"),
    # compare cannot write these: a CaptureRun refuses an empty run_id and an index below 1.
    "dataset_index_below_one": (lambda payload: payload.update(dataset_index=0),
                                "dataset_index must be >= 1, got 0"),
    "run_id_empty": (lambda payload: payload.update(pre_run_id=""),
                     "pre_run_id must not be empty"),
    "post_run_id_empty": (lambda payload: payload.update(post_run_id=""),
                          "post_run_id must not be empty"),
    "unknown_key": (lambda payload: payload.update(note="x", extra=1),
                    "unknown keys ['extra', 'note']"),
    "reports_not_a_list": (lambda payload: payload.update(reports="x"),
                           "reports: expected a JSON list, got str"),
    "reports_empty": (lambda payload: payload.update(reports=[]), "empty 'reports' list"),
    "report_not_an_object": (lambda payload: payload["reports"].__setitem__(3, 1),
                             "reports[3]: expected a JSON object, got int"),
    "report_kind": (lambda payload: payload["reports"][3].update(kind="3V3"),
                    f"reports[3].kind: unknown name '3V3' (choose from {_WIRE_NAMES['kind']})"),
    "report_scalar": (lambda payload: payload["reports"][3].update(lag_samples=2.7),
                      "reports[3].lag_samples: expected int, got 2.7"),
    "report_missing": (lambda payload: payload["reports"][3].pop("noisy"),
                       "reports[3]: missing keys ['noisy']"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_FILES))
def test_aggregate_refuses_a_malformed_comparison_file(compared, tmp_path, capsys, case):
    # Every file of a fold is refused whole, before any is folded: the
    # first file here is well formed.
    edit, message = _MALFORMED_FILES[case]
    report = compared / f"{STEM}.comparison.json"
    payload = json.loads(report.read_text())
    edit(payload)
    edited = tmp_path / "edited.comparison.json"
    edited.write_text(json.dumps(payload), encoding="ascii")
    out = tmp_path / "out"
    assert main(["aggregate", str(report), str(edited), "--out", str(out)]) == 1
    assert _one_error_line(capsys) == (
        f"powertrace: {edited}: malformed comparison report ({message})"
    )
    assert not out.exists()


def test_a_stamped_comparison_file_folds_like_an_unstamped_one(workdir, compared, tmp_path):
    stamped = tmp_path / "stamped"
    argv = ["compare", "--pre", str(workdir.sample), "--out", str(stamped), "--max-lag", "0.05"]
    assert main(argv + ["--stamp"]) == 0
    report = stamped / f"{STEM}.comparison.json"
    assert "generated_at" in json.loads(report.read_text())
    out = tmp_path / "out"
    assert main(["aggregate", str(report), str(compared / report.name), "--out", str(out)]) == 0
    folded = (out / "aggregate.json").read_bytes()
    assert main(["aggregate", str(compared / report.name), str(compared / report.name),
                 "--out", str(out)]) == 0
    assert folded == (out / "aggregate.json").read_bytes()


@pytest.mark.parametrize("fault", ["missing", "directory", "utf8", "json"])
@pytest.mark.parametrize("document", ["scenario", "manifest", "comparison"])
def test_an_unreadable_json_input_fails_in_one_line(
    workdir, compared, tmp_path, capsys, document, fault
):
    out = str(tmp_path / "out")
    if document == "scenario":
        path = tmp_path / "scenario.json"
        argv, prefix, what = ["synth", "--config", str(path), "--out", out], "", "scenario file"
    elif document == "manifest":
        sample = _copy_capture(workdir.sample, tmp_path / f"{STEM}.csv")
        path = manifest_path_for(sample)
        path.unlink()
        argv, prefix, what = ["analyze", str(sample), "--out", out], f"{sample}: ", "manifest"
    else:
        path = tmp_path / f"{STEM}.comparison.json"
        argv, prefix, what = ["aggregate", str(path), "--out", out], "", "comparison report"
    detail = {
        "missing": f"cannot read {what} {path}: No such file or directory",
        "directory": f"cannot read {what} {path}: Is a directory",
        "utf8": f"cannot read {what} {path}: 'utf-8' codec can't decode byte 0xff "
                "in position 1: invalid start byte",
        "json": f"{what} {path} is not valid JSON: Expecting value: line 1 column 1 (char 0)",
    }[fault]
    if fault == "directory":
        path.mkdir()
    elif fault == "utf8":
        path.write_bytes(b"{\xff}")
    elif fault == "json":
        path.write_text("not json", encoding="ascii")
    assert main(argv) == 1
    assert _one_error_line(capsys) == f"powertrace: {prefix}{detail}"
    assert not (tmp_path / "out").exists()


_OVERFLOWING_FLAGS = [
    ("--window", "1e308", "segment shorter than one 1e+308 s window"),
    ("--window", "inf", "window must be positive and finite, got inf"),
    ("--spike-window", "1e308", None),
    ("--smooth-window", "1e308", "need at least 1e+308 s"),
    ("--smooth-window", "1e300", "need at least 1e+300 s"),
    ("--max-duration", "inf", "need 0 < min_duration < max_duration < inf"),
    ("--max-duration", "1e308", "need at least 1e+308 s"),
    ("--spike-k", "inf", "spike_k must be positive and finite, got inf"),
    ("--abs-threshold", "inf", "abs_threshold must be positive and finite, got inf"),
]


@pytest.mark.parametrize(
    "flag, value, message", _OVERFLOWING_FLAGS, ids=[f"{f}={v}" for f, v, _ in _OVERFLOWING_FLAGS]
)
def test_a_flag_that_overflows_a_sample_count_ends_cleanly(
    workdir, tmp_path, capsys, flag, value, message
):
    out = tmp_path / "out"
    argv = ["compare", "--pre", str(workdir.sample), "--out", str(out), "--max-lag", "0.05"]
    rc = main(argv + [flag, value])
    if message is None:
        # A spike window longer than every segment is capped at each
        # segment's length, so 1e308 s counts the spikes 1e6 s does.
        assert rc == 0
        wide = tmp_path / "wide"
        assert main(["compare", "--pre", str(workdir.sample), "--out", str(wide),
                     "--max-lag", "0.05", flag, "1e6"]) == 0
        got, want = (json.loads((d / f"{STEM}.comparison.json").read_text()) for d in (out, wide))
        assert got["reports"] == want["reports"]
        return
    assert rc == 1
    assert message in _one_error_line(capsys)
    assert not out.exists()


@pytest.fixture
def infected_capture(tmp_path):
    """Compact capture with +2 W on 12v_mb idle after infection, plus its truth."""
    effect = InfectionEffect(delta_power=idle_delta(2.0))
    run, truth = generate_run(compact_scenario(5, infection=effect))
    sample, _ = write_capture(run, CalibrationConfig(), tmp_path / "captures")
    return sample, truth


def _set_cells(sample, row: int, **cells: str) -> None:
    lines = sample.read_text().splitlines()
    fields = lines[row + 1].split(",")
    for column, value in cells.items():
        fields[SAMPLE_HEADER.split(",").index(column)] = value
    lines[row + 1] = ",".join(fields)
    sample.write_text("\n".join(lines) + "\n")


def test_nan_in_suspect_segment_fails_instead_of_flipping_the_verdict(
    infected_capture, tmp_path, capsys
):
    sample, truth = infected_capture
    start, end = truth.events[(MachineState.POST_INFECTION, EventKind.IDLE)]
    row = (start + end) // 2
    _set_cells(sample, row, i_12v_mb="nan")
    out = tmp_path / "out"
    assert main(["compare", "--pre", str(sample), "--out", str(out), "--max-lag", "0.05"]) == 1
    assert f"row {row}, column i_12v_mb: non-finite value 'nan'" in _one_error_line(capsys)
    assert not out.exists()


def test_nan_on_marker_rail_names_the_cell(infected_capture, tmp_path, capsys):
    sample, truth = infected_capture
    row = truth.markers[4][0] + 10
    _set_cells(sample, row, i_12v_cpu="nan")
    assert main(["analyze", str(sample), "--out", str(tmp_path / "out")]) == 1
    message = _one_error_line(capsys)
    assert f"row {row}, column i_12v_cpu: non-finite value 'nan'" in message
    assert "markers" not in message


def test_overflowing_power_is_not_written_as_infinity(infected_capture, tmp_path, capsys):
    sample, truth = infected_capture
    start, end = truth.events[(MachineState.POST_INFECTION, EventKind.IDLE)]
    row = (start + end) // 2
    _set_cells(sample, row, v_12v_mb="1e200", i_12v_mb="1e200")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", str(sample), "--out", str(out)]) == 1
    assert f"rail 12v_mb, sample {row}: non-finite power" in _one_error_line(capsys)
    assert not list(out.glob("*.analysis.json"))


def test_overflow_outside_every_segment_still_fails(infected_capture, tmp_path, capsys):
    sample, truth = infected_capture
    row = truth.markers[0][0] // 2  # before the first marker, in no segment
    _set_cells(sample, row, v_3v3="1e200", i_3v3="1e200")
    out = tmp_path / "out"
    assert main(["analyze", str(sample), "--out", str(out)]) == 1
    assert f"{sample}: rail 3v3, sample {row}: non-finite power" in _one_error_line(capsys)
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize(
    "flags",
    [("--pre", "--pre"), ("--pre", "--post"), ("--pre", "--post", "--post-reboot")],
)
def test_compare_error_names_the_bad_capture(infected_capture, tmp_path, capsys, flags):
    good, _ = infected_capture
    run, truth = generate_run(compact_scenario(6))
    bad, _ = write_capture(run, CalibrationConfig(), tmp_path / "captures")
    start, end = truth.events[(MachineState.PRE_INFECTION, EventKind.IDLE)]
    row = (start + end) // 2
    _set_cells(bad, row, i_5v="nan")
    out = tmp_path / "out"
    argv = ["compare", "--out", str(out), "--max-lag", "0.05"]
    for flag in flags[:-1]:
        argv += [flag, str(good)]
    assert main(argv + [flags[-1], str(bad)]) == 1
    assert f"powertrace: {bad}: row {row}, column i_5v: non-finite value 'nan'" == (
        _one_error_line(capsys)
    )
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--post", "--post-reboot"])
def test_compare_rejects_captures_of_different_sample_periods(tmp_path, capsys, flag):
    pre, _ = write_capture(generate_run(compact_scenario(5))[0], CalibrationConfig(), tmp_path / "a")
    other = generate_run(compact_scenario(6, sample_period=0.005))[0]
    post, _ = write_capture(other, CalibrationConfig(), tmp_path / "b")
    out = tmp_path / "out"
    argv = ["compare", "--out", str(out), "--max-lag", "0.05", "--pre", str(pre), flag, str(post)]
    assert main(argv) == 1
    assert _one_error_line(capsys) == (
        f"powertrace: {post}: sample period 0.005 s differs from 0.01 s of --pre capture {pre}"
    )
    assert not out.exists()


def test_compare_refuses_datasets_that_share_a_report_file(tmp_path, capsys):
    # The README's repeated --pre, with captures from two directories that
    # share a stem. Neither exists: the refusal comes before either is read.
    first, second = tmp_path / "d1" / "post.csv", tmp_path / "d2" / "post.csv"
    out = tmp_path / "r"
    assert main(["compare", "--pre", str(first), "--pre", str(second), "--out", str(out)]) == 1
    assert _one_error_line(capsys) == (
        f"powertrace: {out / 'post.comparison.json'} would be written for both "
        f"{first} and {second}"
    )
    # One --post for two different --pre captures.
    argv = ["compare", "--pre", str(first), "--post", str(second),
            "--pre", str(tmp_path / "d3.csv"), "--post", str(second), "--out", str(out)]
    assert main(argv) == 1
    assert "would be written for both" in _one_error_line(capsys)
    assert not out.exists()
    # The same capture twice, however spelled, may write the same file:
    # the command goes on to read it.
    again = tmp_path / "d1" / ".." / "d1" / "post.csv"
    assert main(["compare", "--pre", str(first), "--pre", str(again), "--out", str(out)]) == 1
    assert f"powertrace: {first}: " in _one_error_line(capsys)


@pytest.mark.parametrize("output", ["aggregate.json", "post.comparison.json"])
def test_compare_refuses_an_output_that_is_one_of_its_inputs(tmp_path, capsys, output):
    # The output is a link to the --post capture's manifest. No capture
    # exists: the refusal comes before any is read, and the link target is kept.
    pre, post = tmp_path / "pre.csv", tmp_path / "post.csv"
    manifest = manifest_path_for(post)
    manifest.write_text("{}", encoding="ascii")
    (tmp_path / output).symlink_to(manifest.name)
    assert main(["compare", "--pre", str(pre), "--post", str(post), "--out", str(tmp_path)]) == 1
    inputs = f"{pre} + {post}"
    assert _one_error_line(capsys) == (
        f"powertrace: {tmp_path / output} would be written for {inputs}, "
        f"but it is the input file {manifest}"
    )
    assert manifest.read_text(encoding="ascii") == "{}"


_MARKER_FLAGS = {
    "--marker-rail": "marker_rail", "--smooth-window": "smooth_window", "--hi": "hi_fraction",
    "--lo": "lo_fraction", "--min-duration": "min_duration", "--max-duration": "max_duration",
}
_COMPARE_FLAGS = {
    "--window": "window", "--rel-threshold": "rel_threshold",
    "--abs-threshold": "abs_threshold", "--max-lag": "max_lag", "--spike-k": "spike_k",
    "--spike-window": "spike_window",
}


@pytest.mark.parametrize(
    "command, tables",
    [("analyze", [(powertrace.MarkerParams, _MARKER_FLAGS)]),
     ("compare", [(powertrace.MarkerParams, _MARKER_FLAGS),
                  (powertrace.CompareParams, _COMPARE_FLAGS)])],
    ids=["analyze", "compare"],
)
def test_help_lists_each_flag_with_its_parameter_default(capsys, command, tables):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for params, flags in tables:
        assert sorted(flags.values()) == sorted(f.name for f in dataclasses.fields(params))
        for flag, name in flags.items():
            default = re.escape(str(to_wire(getattr(params(), name))))
            assert re.search(rf"{flag} [A-Z]+ [^()]*\(default: {default}\)", text), flag


def test_flag_defaults_equal_the_parameter_defaults():
    parser = cli.build_parser()
    for argv in (["analyze", "x.csv"], ["compare", "--pre", "x.csv"]):
        assert cli._params(powertrace.MarkerParams, parser.parse_args(argv)) == (
            powertrace.MarkerParams()
        )
    args = parser.parse_args(["compare", "--pre", "x.csv"])
    assert cli._params(powertrace.CompareParams, args) == powertrace.CompareParams()


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(powertrace.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "powertrace", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: powertrace")


@pytest.mark.parametrize("nested", [False, True])
@pytest.mark.parametrize("command", ["synth", "analyze", "compare", "aggregate"])
def test_out_that_is_a_file_fails_before_any_work(
    workdir, compared, tmp_path, capsys, command, nested
):
    afile = tmp_path / "afile"
    afile.write_text("", encoding="ascii")
    out = afile / "x" if nested else afile
    argv = {
        "synth": ["synth", "--config", str(workdir.config)],
        "analyze": ["analyze", str(workdir.sample)],
        # A missing capture: the --out check must come before any capture is read.
        "compare": ["compare", "--pre", str(tmp_path / "missing.csv")],
        "aggregate": ["aggregate", str(compared / f"{STEM}.comparison.json")],
    }[command]
    assert main(argv + ["--out", str(out)]) == 1
    detail = f"{afile} is not a directory" if nested else "not a directory"
    assert _one_error_line(capsys) == f"powertrace: {out}: {detail}"


def test_out_with_a_name_too_long_fails_cleanly(compared, capsys):
    out = "x" * 300
    assert main(["aggregate", str(compared / f"{STEM}.comparison.json"), "--out", out]) == 1
    assert _one_error_line(capsys) == f"powertrace: {out}: File name too long"


@pytest.mark.parametrize("target", ["sample", "manifest", "report", "scenario"])
def test_undecodable_byte_names_the_file_and_offset(workdir, compared, tmp_path, capsys, target):
    sample = tmp_path / f"{STEM}.csv"
    sample.write_bytes(workdir.sample.read_bytes())
    manifest = tmp_path / f"{STEM}.manifest.json"
    manifest.write_bytes((workdir.captures / f"{STEM}.manifest.json").read_bytes())
    report = tmp_path / "bad.comparison.json"
    report.write_bytes((compared / f"{STEM}.comparison.json").read_bytes())
    config = tmp_path / "scenario.json"
    config.write_bytes(workdir.config.read_bytes())
    path, argv = {
        "sample": (sample, ["analyze", str(sample)]),
        "manifest": (manifest, ["analyze", str(sample)]),
        "report": (report, ["aggregate", str(report)]),
        "scenario": (config, ["synth", "--config", str(config)]),
    }[target]
    raw = bytearray(path.read_bytes())
    offset = len(raw) // 2
    raw[offset] = 0xE9 if target == "sample" else 0xFF
    path.write_bytes(bytes(raw))

    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    message = _one_error_line(capsys)
    assert str(path) in message
    assert f"byte 0x{raw[offset]:02x} in position {offset}" in message


@pytest.mark.parametrize("broken, detail", [
    ("sample", "cannot read sample file: No such file or directory"),
    ("manifest", "cannot read manifest {manifest}: No such file or directory"),
    ("json", "manifest {manifest} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
])
def test_an_unreadable_input_is_named_once(workdir, tmp_path, capsys, broken, detail):
    sample = _copy_capture(workdir.sample, tmp_path / "y.csv")
    manifest = manifest_path_for(sample)
    if broken == "json":
        manifest.write_text("not json", encoding="ascii")
    else:
        {"sample": sample, "manifest": manifest}[broken].unlink()
    assert main(["analyze", str(sample), "--out", str(tmp_path / "out")]) == 1
    assert _one_error_line(capsys) == (
        f"powertrace: {sample}: {detail.format(manifest=manifest)}"
    )


@pytest.mark.parametrize("command", ["synth", "analyze", "aggregate"])
def test_a_second_run_into_the_same_out_writes_identical_bytes(
    workdir, compared, tmp_path, command
):
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", "--config", str(workdir.config)],
        "analyze": ["analyze", str(workdir.sample)],
        "aggregate": ["aggregate", str(compared / f"{STEM}.comparison.json")],
    }[command] + ["--out", str(out)]
    assert main(argv) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    for name, data in first.items():
        (out / name).write_bytes(data + b"stale tail\n")  # longer than the rewrite
    assert main(argv) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_an_output_that_is_a_symlink_is_written_through(compared, tmp_path):
    target = tmp_path / "elsewhere.json"
    target.write_text("stale", encoding="ascii")
    out = tmp_path / "out"
    out.mkdir()
    (out / "aggregate.json").symlink_to(target)
    assert main(["aggregate", str(compared / f"{STEM}.comparison.json"), "--out", str(out)]) == 0
    assert (out / "aggregate.json").is_symlink()
    assert target.read_bytes() == (compared / "aggregate.json").read_bytes()


_BLOCKED_OUTPUTS = [
    ("synth", "csv"), ("synth", "manifest.json"), ("synth", "truth.json"),
    ("analyze", "analysis.json"), ("analyze", "plot.12v_mb.csv"),
]


def _argv_into(workdir, command: str, out: Path) -> list[str]:
    first = ["synth", "--config", str(workdir.config)] if command == "synth" else [
        "analyze", str(workdir.sample)
    ]
    return first + ["--out", str(out)]


@pytest.mark.parametrize("command, suffix", _BLOCKED_OUTPUTS)
def test_an_output_path_that_is_a_directory_fails_in_one_line(
    workdir, tmp_path, capsys, command, suffix
):
    out = tmp_path / "d"
    blocked = out / f"{STEM}.{suffix}"
    blocked.mkdir(parents=True)
    assert main(_argv_into(workdir, command, out)) == 1
    assert _one_error_line(capsys) == f"powertrace: {blocked}: Is a directory"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command, suffix", _BLOCKED_OUTPUTS)
def test_a_full_disk_fails_in_one_line(workdir, tmp_path, capsys, command, suffix):
    out = tmp_path / "d"
    out.mkdir()
    full = out / f"{STEM}.{suffix}"
    full.symlink_to("/dev/full")  # every write fails with ENOSPC
    assert main(_argv_into(workdir, command, out)) == 1
    assert _one_error_line(capsys) == f"powertrace: {full}: No space left on device"


def test_a_directory_that_cannot_be_made_fails_in_one_line(workdir, tmp_path, capsys):
    out = tmp_path / "d"
    denied = PermissionError(errno.EACCES, "Permission denied", str(out))
    with mock.patch.object(Path, "mkdir", side_effect=denied):
        assert main(["analyze", str(workdir.sample), "--out", str(out)]) == 1
    report = out / f"{STEM}.analysis.json"
    assert _one_error_line(capsys) == f"powertrace: {report}: {out}: Permission denied"


# analyze writes a capture's plot files while it reads the next capture;
# these pin what that must not change: stderr order, same-stem outputs
# and a worker process that dies.


@pytest.fixture(scope="module")
def second_capture(workdir):
    """Dataset 2 of the CLI scenario: same schedule, other samples."""
    out = workdir.root / "pair"
    argv = ["synth", "--config", str(workdir.config), "--out", str(out), "--datasets", "2"]
    assert main(argv) == 0
    return out / "clidemo-d2-s77.csv"


def _copy_capture(sample: Path, dest: Path) -> Path:
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_bytes(sample.read_bytes())
    manifest_path_for(dest).write_bytes(manifest_path_for(sample).read_bytes())
    return dest


def _analyzed_alone(sample: Path, out: Path) -> dict[str, bytes]:
    assert main(["analyze", str(sample), "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _note(sample: Path) -> str:
    return (f"analyzed {sample}: 18 markers, 9 segments -> "
            f"{sample.stem}.analysis.json, 4 plot files")


def test_analyze_reports_a_mixed_batch_in_argument_order(
    workdir, second_capture, tmp_path, capsys
):
    bad = tmp_path / "bad.csv"
    bad.write_text(SAMPLE_HEADER + "\n", encoding="ascii")
    manifest_path_for(bad).write_bytes(manifest_path_for(workdir.sample).read_bytes())
    argv = ["analyze", str(workdir.sample), str(bad), str(second_capture),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    note, error, last = capsys.readouterr().err.splitlines()
    assert (note, last) == (_note(workdir.sample), _note(second_capture))
    assert error.startswith(f"powertrace: {bad}: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_plot_write_is_reported_before_the_next_capture(
    workdir, second_capture, tmp_path, capsys
):
    out = tmp_path / "out"
    out.mkdir()
    full = out / f"{STEM}.plot.12v_mb.csv"
    full.symlink_to("/dev/full")
    assert main(["analyze", str(workdir.sample), str(second_capture), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"powertrace: {full}: No space left on device", _note(second_capture),
    ]
    alone = _analyzed_alone(second_capture, tmp_path / "alone")
    assert {name: (out / name).read_bytes() for name in alone} == alone


def test_captures_sharing_a_stem_are_refused_before_any_read(
    workdir, second_capture, tmp_path, capsys
):
    # Neither capture exists: the refusal comes before either is read.
    first, last = tmp_path / "a" / "x.csv", tmp_path / "b" / "x.csv"
    out = tmp_path / "out"
    assert main(["analyze", str(first), str(last), "--out", str(out)]) == 1
    assert _one_error_line(capsys) == (
        f"powertrace: {out / 'x.analysis.json'} would be written for both {first} and {last}"
    )
    assert not out.exists()
    # The same capture twice, with the outputs written next to it.
    last = _copy_capture(second_capture, last)
    alone = _analyzed_alone(last, tmp_path / "alone")
    assert main(["analyze", str(last), str(last)]) == 0
    assert {name: (last.parent / name).read_bytes() for name in alone} == alone


def test_analyze_refuses_an_output_that_is_one_of_its_inputs(
    workdir, second_capture, tmp_path, capsys
):
    # x.csv's 3v3 plot file is the second capture: it used to be overwritten.
    first = _copy_capture(workdir.sample, tmp_path / "c" / "x.csv")
    second = _copy_capture(second_capture, tmp_path / "c" / "x.plot.3v3.csv")
    before = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in first.parent.iterdir()}
    assert main(["analyze", str(first), str(second)]) == 1
    assert _one_error_line(capsys) == (
        f"powertrace: {second} would be written for {first}, but it is the input file {second}"
    )
    after = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in first.parent.iterdir()}
    assert after == before
    # Paths are compared resolved: a report that links to the manifest is refused.
    manifest = manifest_path_for(first)
    (first.parent / "x.analysis.json").symlink_to(manifest.name)
    assert main(["analyze", str(first)]) == 1
    assert _one_error_line(capsys) == (
        f"powertrace: {first.parent / 'x.analysis.json'} would be written for {first}, "
        f"but it is the input file {manifest}"
    )
    assert hashlib.sha256(manifest.read_bytes()).hexdigest() == before[manifest.name]


_PARENT_PID = os.getpid()


def _exit_in_a_worker(sample_period, tables):
    """write_series_csv, except that a worker process dies instead."""
    if os.getpid() != _PARENT_PID:
        os._exit(3)
    write_series_csv(sample_period, tables)


def _kill_the_workers_first(analyze):
    """*analyze*, after killing this process's idle worker processes."""
    def wrapper(*args):
        for worker in multiprocessing.active_children():
            worker.kill()
            # The pool's thread may reap the worker before join() can, and
            # is_alive() then stays true; the sentinel shows the exit either way.
            assert multiprocessing.connection.wait([worker.sentinel], timeout=30)
        return analyze(*args)
    return wrapper


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
@pytest.mark.parametrize("when", ["writing", "idle"])
def test_a_worker_that_dies_ends_in_one_line(workdir, second_capture, tmp_path, capsys, when):
    out = tmp_path / "out"
    argv = ["analyze", str(workdir.sample), str(second_capture), "--out", str(out)]
    death = (mock.patch("powertrace.cli.write_series_csv", _exit_in_a_worker) if when == "writing"
             else mock.patch("powertrace.cli._analyze", _kill_the_workers_first(cli._analyze)))
    with mock.patch("powertrace.cli.usable_cpus", return_value=2), death:
        assert main(argv) == 1
    # The pool is given up; the next capture's files are written in-process.
    assert capsys.readouterr().err.splitlines() == [
        f"powertrace: {workdir.sample}: a plot-writing worker process ended abruptly",
        _note(second_capture),
    ]
    alone = _analyzed_alone(second_capture, tmp_path / "alone")
    assert {name: (out / name).read_bytes() for name in alone} == alone


def _tables_alive_at_each_read(argv: list[str]) -> list[int]:
    """Run *argv*; at each capture read, the number of earlier capture tables alive."""
    tables: list[weakref.ref] = []
    alive: list[int] = []
    read = cli._read_capture

    def tracking_read(*args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in tables))
        run = read(*args)
        table = run.samples
        while isinstance(table.base, np.ndarray):  # the array owning the memory
            table = table.base
        tables.append(weakref.ref(table))
        return run

    with mock.patch("powertrace.cli._read_capture", tracking_read):
        assert main(argv) == 0
    return alive


def test_compare_holds_one_capture_table_at_a_time(workdir, second_capture, tmp_path):
    copy = _copy_capture(workdir.sample, tmp_path / "copy.csv")
    argv = ["compare", "--pre", str(workdir.sample), "--post", str(second_capture),
            "--post-reboot", str(copy), "--out", str(tmp_path), "--max-lag", "0.05"]
    assert _tables_alive_at_each_read(argv) == [0, 0, 0]


def test_compare_reads_a_capture_given_for_both_post_states_once(
    workdir, second_capture, tmp_path
):
    argv = ["compare", "--pre", str(workdir.sample), "--post", str(second_capture),
            "--post-reboot", str(second_capture), "--out", str(tmp_path), "--max-lag", "0.05"]
    assert _tables_alive_at_each_read(argv) == [0, 0]


def test_compare_reads_a_capture_given_for_pre_and_post_reboot_once(
    workdir, second_capture, tmp_path
):
    argv = ["compare", "--pre", str(workdir.sample), "--post", str(second_capture),
            "--post-reboot", str(workdir.sample), "--out", str(tmp_path), "--max-lag", "0.05"]
    assert _tables_alive_at_each_read(argv) == [0, 0]


@pytest.mark.parametrize("cpus", [1, 2])
def test_analyze_holds_one_capture_table_at_a_time(workdir, second_capture, tmp_path, cpus):
    copy = _copy_capture(workdir.sample, tmp_path / "copy.csv")
    captures = [workdir.sample, copy, second_capture]
    argv = ["analyze", *map(str, captures), "--out", str(tmp_path / "out")]
    with mock.patch("powertrace.cli.usable_cpus", return_value=cpus):
        assert _tables_alive_at_each_read(argv) == [0, 0, 0]
