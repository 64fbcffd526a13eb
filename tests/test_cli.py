"""End-to-end tests driving the command line in process."""

import errno
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

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
from powertrace.cli import main
from powertrace.ingest import SAMPLE_HEADER

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


@pytest.mark.parametrize(
    "payload, message",
    [({"reports": [1, 2]}, "malformed comparison report"), (5, "missing 'reports' list")],
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
        ({"seed": 1, "baseline_power": 5}, "baseline_power must be an object"),
    ],
)
def test_bad_scenario_value_fails_cleanly(tmp_path, capsys, scenario, message):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario), encoding="ascii")
    assert main(["synth", "--config", str(config), "--out", str(tmp_path)]) == 1
    assert message in _one_error_line(capsys)


@pytest.mark.parametrize(
    "key, value", [("dataset_index", "x"), ("sample_period_s", "x"), ("dataset_index", None)]
)
def test_bad_manifest_scalar_fails_cleanly(workdir, tmp_path, capsys, key, value):
    sample = tmp_path / f"{STEM}.csv"
    sample.write_bytes(workdir.sample.read_bytes())
    manifest = json.loads((workdir.captures / f"{STEM}.manifest.json").read_text())
    manifest[key] = value
    (tmp_path / f"{STEM}.manifest.json").write_text(json.dumps(manifest))
    assert main(["analyze", str(sample), "--out", str(tmp_path)]) == 1
    assert f"manifest {key}: expected" in _one_error_line(capsys)


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
