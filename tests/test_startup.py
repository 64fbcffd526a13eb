"""Start-up without numpy, and the names perfbench replaces in powertrace.cli.

``powertrace --help``, each subcommand's help and ``aggregate`` import
no numpy: the package resolves its exports on first use, and the CLI
imports its numpy-backed stages only when a command needs them. Start-up
is checked in a fresh interpreter, since this one imported numpy long ago.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import powertrace
from powertrace.cli import main
from test_golden import GOLDEN_DIR, STEMS, round_trip_commands

SRC = str(Path(powertrace.__file__).parents[1])

# The names perfbench's tracer replaces at powertrace.cli's module globals
# (perfbench/spans.py, WRAPPED).
TRACED = ("generate_ensemble", "write_capture", "_read_capture", "compute_power",
          "detect_markers", "segment_events", "segment_power_pool",
          "run_canonical_comparisons", "aggregate")


def _run_python(code: str, *args: str) -> dict:
    """Run *code* in a fresh interpreter with *args*; the JSON it prints last."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


STARTUP = r"""
import contextlib, io, json, sys
loaded = {}
import powertrace
loaded["import powertrace"] = "numpy" in sys.modules
import powertrace.cli
loaded["import powertrace.cli"] = "numpy" in sys.modules
codes = []
for argv in (["--help"], *([c, "--help"] for c in ("synth", "analyze", "compare", "aggregate"))):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            powertrace.cli.main(argv)
        except SystemExit as done:
            codes.append(done.code)
    loaded[" ".join(argv)] = "numpy" in sys.modules
codes.append(powertrace.cli.main(["aggregate", *sys.argv[2:], "--out", sys.argv[1]]))
loaded["aggregate"] = "numpy" in sys.modules
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_help_and_aggregate_start_without_numpy(tmp_path):
    reports = [str(GOLDEN_DIR / f"{stem}.comparison.json") for stem in STEMS]
    result = _run_python(STARTUP, str(tmp_path), *reports)
    assert result["codes"] == [0] * 6
    assert not any(result["loaded"].values()), result["loaded"]
    folded = json.loads((tmp_path / "aggregate.json").read_text())
    assert folded == json.loads((GOLDEN_DIR / "aggregate.json").read_text())


def test_package_exports_resolve_on_first_use():
    for name in powertrace.__all__:
        home = importlib.import_module(f"powertrace.{powertrace._EXPORTS[name]}")
        value = getattr(powertrace, name)
        assert value is getattr(home, name), name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == home.__name__, name
    assert set(powertrace.__all__) <= set(dir(powertrace))
    namespace: dict = {}
    exec("from powertrace import *", namespace)
    assert all(namespace[name] is getattr(powertrace, name) for name in powertrace.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        powertrace.no_such_name


@pytest.fixture(scope="module")
def round_trip(tmp_path_factory) -> list[list[str]]:
    """The golden round trip's commands, with synth already run."""
    commands = round_trip_commands(tmp_path_factory.mktemp("startup"))
    assert main(commands[0]) == 0
    return commands


WRAP_POINTS = r"""
import json, sys
import powertrace.cli as cli
names, commands = json.loads(sys.argv[1])
resolved = [name for name in names if callable(getattr(cli, name, None))]
calls, codes = {}, []

def counting(name, stage):
    def replacement(*args, **kwargs):
        calls[command][name] = calls[command].get(name, 0) + 1
        return stage(*args, **kwargs)
    return replacement

for name in names:
    setattr(cli, name, counting(name, getattr(cli, name)))
for argv in commands:
    command = argv[0]
    calls[command] = {}
    codes.append(cli.main(argv))
print(json.dumps({"resolved": resolved, "calls": calls, "codes": codes}))
"""


def test_traced_names_resolve_and_a_replacement_is_the_one_called(round_trip):
    synth, *rest = round_trip
    # synth last: it rewrites the same captures after the others have read them.
    result = _run_python(WRAP_POINTS, json.dumps([TRACED, [*rest, synth]]))
    assert result["resolved"] == list(TRACED)
    assert result["codes"] == [0] * 4
    # Two datasets; compare reads and pools each one's --pre capture once for both sides.
    per_capture = {"_read_capture": 2, "compute_power": 8, "detect_markers": 2,
                   "segment_events": 2}
    assert result["calls"] == {
        "analyze": per_capture,
        "compare": {**per_capture, "segment_power_pool": 2, "run_canonical_comparisons": 2,
                    "aggregate": 1},
        "aggregate": {"aggregate": 1},
        "synth": {"generate_ensemble": 2, "write_capture": 2},
    }


POOL_START = r"""
import json, sys
import powertrace.cli as cli
at_pool_start = []
start_pool = cli._PlotWriter.__init__

def recording(self):
    at_pool_start.append(["powertrace.ingest" in sys.modules, "numpy" in sys.modules])
    start_pool(self)

cli._PlotWriter.__init__ = recording
cli.usable_cpus = lambda: 2  # a pool even on one CPU
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "at_pool_start": at_pool_start}))
"""


def test_analyze_imports_its_stages_before_forking_plot_writers(round_trip):
    # Forked after the imports, a worker finds write_series_csv loaded; forked
    # before, each would import numpy and the reader again on its first task.
    analyze = round_trip[1]
    result = _run_python(POOL_START, json.dumps(analyze))
    assert result == {"code": 0, "at_pool_start": [[True, True]]}
