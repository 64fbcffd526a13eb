"""Golden outputs: the full command-line round trip on a fixed scenario.

synth -> analyze -> compare -> aggregate runs on a compact infected
scenario; every JSON output is parsed and compared exactly with the
files in tests/golden/, and the sha256 of every capture and plot CSV
with tests/golden/csv.sha256 (``sha256sum`` format). A refactor must
leave these outputs unchanged.
A change that alters them on purpose regenerates the files with::

    PYTHONPATH=src python tests/test_golden.py

and names the fields that changed, and why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from powertrace.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

SCENARIO = {
    "seed": 31,
    "rootkit_label": "golden",
    "idle_duration": 10.0,
    "ie_windows": 4,
    "ie_spacing": 2.5,
    "boot_duration": 8.0,
    "infection": {
        "delta_power": {"12v_mb": {"idle": 2.0}, "12v_cpu": {"open_browser": 1.5}},
        "lag_s": 0.05,
        "spike_rate_per_min": 6.0,
    },
    "dataset_infections": [None, {}],
}

STEMS = ("golden-d1-s31", "golden-d2-s31")
CSV_DIGESTS = GOLDEN_DIR / "csv.sha256"
CROSS_DIR = GOLDEN_DIR / "cross-capture"


def round_trip_commands(root: Path) -> list[list[str]]:
    """The four subcommands' arguments, with the scenario and outputs under *root*."""
    config = root / "scenario.json"
    config.write_text(json.dumps(SCENARIO), encoding="ascii")
    captures, comparison = root / "captures", root / "comparison"
    samples = [str(captures / f"{stem}.csv") for stem in STEMS]
    return [
        ["synth", "--config", str(config), "--out", str(captures), "--datasets", "2"],
        ["analyze", *samples, "--out", str(root / "analysis")],
        ["compare", "--pre", samples[0], "--pre", samples[1],
         "--out", str(comparison), "--max-lag", "0.05"],
        ["aggregate", *(str(comparison / f"{stem}.comparison.json") for stem in STEMS),
         "--out", str(root / "aggregate")],
    ]


def run_round_trip(root: Path) -> tuple[dict[str, object], str]:
    """Run the four subcommands under *root*.

    Returns golden file name -> parsed JSON, and the CSV outputs' digests
    as ``sha256sum`` lines sorted by file name.
    """
    for argv in round_trip_commands(root):
        assert main(argv) == 0, argv

    captures, analysis, comparison, folded = (
        root / "captures", root / "analysis", root / "comparison", root / "aggregate"
    )
    files = {}
    for stem in STEMS:
        files[f"{stem}.truth.json"] = captures / f"{stem}.truth.json"
        files[f"{stem}.manifest.json"] = captures / f"{stem}.manifest.json"
        files[f"{stem}.analysis.json"] = analysis / f"{stem}.analysis.json"
        files[f"{stem}.comparison.json"] = comparison / f"{stem}.comparison.json"
    files["compare.aggregate.json"] = comparison / "aggregate.json"
    files["aggregate.json"] = folded / "aggregate.json"
    csvs = sorted([*captures.glob("*.csv"), *analysis.glob("*.csv")], key=lambda p: p.name)
    digests = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n" for p in csvs)
    return {name: json.loads(path.read_text()) for name, path in files.items()}, digests


def test_round_trip_matches_golden_files(tmp_path):
    outputs, digests = run_round_trip(tmp_path)
    assert sorted(p.name for p in GOLDEN_DIR.glob("*.json")) == sorted(outputs)
    for name, produced in outputs.items():
        expected = json.loads((GOLDEN_DIR / name).read_text())
        assert produced == expected, f"{name} differs from tests/golden/{name}"
    # 2 captures and 4 plot files for each
    assert digests.splitlines() == CSV_DIGESTS.read_text(encoding="ascii").splitlines()
    assert len(digests.splitlines()) == 10


def run_cross_capture(root: Path) -> dict[str, object]:
    """Synthesize the round trip's captures under *root* and compare the
    clean d2 (pre and post-reboot) with the infected d1 (post).

    Returns output file name -> parsed JSON.
    """
    assert main(round_trip_commands(root)[0]) == 0
    d1, d2 = (str(root / "captures" / f"{stem}.csv") for stem in STEMS)
    out = root / "cross-capture"
    argv = ["compare", "--pre", d2, "--post", d1, "--post-reboot", d2,
            "--out", str(out), "--max-lag", "0.05"]
    assert main(argv) == 0
    return {path.name: json.loads(path.read_text()) for path in sorted(out.glob("*.json"))}


def test_cross_capture_comparison_matches_golden_files(tmp_path):
    outputs = run_cross_capture(tmp_path)
    assert sorted(p.name for p in CROSS_DIR.glob("*.json")) == sorted(outputs)
    for name, produced in outputs.items():
        expected = json.loads((CROSS_DIR / name).read_text())
        assert produced == expected, f"{name} differs from tests/golden/cross-capture/{name}"
    # d1's injected increments, and no post-reboot increment: d2 is clean.
    verdicts = {(r["kind"], r["rail"]): r["verdict"]
                for r in outputs[f"{STEMS[0]}.comparison.json"]["reports"]}
    assert verdicts["idle_pre_vs_idle_post", "12v_mb"] == "increment"
    assert verdicts["ie_pre_vs_ie_post", "12v_cpu"] == "increment"
    assert {verdict for (kind, _), verdict in verdicts.items()
            if kind.endswith("_post_reboot")} == {"no_increment"}


@pytest.mark.parametrize("cpus", [1, 4])
def test_plot_bytes_do_not_depend_on_the_worker_count(tmp_path, cpus):
    # One usable CPU writes in-process; four fork one plot writer per rail.
    with mock.patch("powertrace.cli.usable_cpus", return_value=cpus):
        _, digests = run_round_trip(tmp_path)
    assert digests.splitlines() == CSV_DIGESTS.read_text(encoding="ascii").splitlines()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as cross_tmp:
        outputs, digests = run_round_trip(Path(tmp))
        cross = run_cross_capture(Path(cross_tmp))
    CROSS_DIR.mkdir(parents=True, exist_ok=True)
    CSV_DIGESTS.write_text(digests, encoding="ascii")
    for directory, files in ((GOLDEN_DIR, outputs), (CROSS_DIR, cross)):
        for name, payload in files.items():
            (directory / name).write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii"
            )
    print(f"wrote {len(outputs) + 1} files to {GOLDEN_DIR} and {len(cross)} to {CROSS_DIR}",
          file=sys.stderr)
