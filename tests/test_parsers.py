"""Property tests for the three parsers of outside JSON.

A scenario, a capture manifest and a comparison report either parse or
raise PowerTraceError; nothing else escapes. Inputs are arbitrary JSON
values, and valid documents with one node replaced by one, so that the
shape checks and the scalar checks both run.
"""

import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_run
from powertrace import (
    CalibrationConfig,
    PowerTraceError,
    ScenarioConfig,
    read_capture,
    scenario_from_dict,
    write_capture,
)
from powertrace.cli import main
from test_golden import GOLDEN_DIR

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    # NaN and +-Infinity are also what json.loads reads for 1e999 and -1e999.
    st.sampled_from([2**63, 10**400, -(10**400), 2.7, float("nan"), float("inf"), "false"]),
    st.floats(),
    st.text(max_size=8),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _paths(doc, prefix=()):
    """Every node of a JSON document, as a key path from the root."""
    yield prefix
    if isinstance(doc, list):
        doc = dict(enumerate(doc))
    for key, value in doc.items() if isinstance(doc, dict) else ():
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _write(path, text: str) -> None:
    # Unlinking first is much faster than truncating on some filesystems.
    path.unlink(missing_ok=True)
    path.write_text(text, encoding="ascii")


def documents(base, extra_keys=()):
    """Arbitrary JSON, or *base* with one node (or a top-level *extra_keys* key) replaced."""
    paths = [*_paths(base), *((key,) for key in extra_keys)]
    return JSON | st.builds(_replaced, st.just(base), st.sampled_from(paths), JSON)


SCENARIO = {
    "seed": 1,
    "idle_duration": 10,
    "baseline_power": {"3v3": {"boot": 2.5}},
    "noise_sigma": {"5v": 0.05},
    "infection": {"delta_power": {"12v_mb": {"idle": 1.0}}, "lag_s": 0.05},
    "dataset_infections": [None, {"spike_rate_per_min": 6.0}],
}


@settings(max_examples=300, deadline=None)
@given(documents(SCENARIO, [f.name for f in dataclasses.fields(ScenarioConfig)]))
def test_scenario_parses_or_fails_cleanly(doc):
    try:
        scenario_from_dict(doc)
    except PowerTraceError:
        pass


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    run = random_run(np.random.default_rng(1), n=30)
    sample, manifest = write_capture(run, CalibrationConfig(), root)
    return sample, manifest, json.loads(manifest.read_text())


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_manifest_parses_or_fails_cleanly(capture, data):
    sample, manifest, base = capture
    _write(manifest, json.dumps(data.draw(documents(base))))
    try:
        read_capture(sample, manifest)
    except PowerTraceError:
        pass


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reports")


REPORT = json.loads((GOLDEN_DIR / "golden-d1-s31.comparison.json").read_text())


@settings(max_examples=150, deadline=None)
@given(doc=documents(REPORT))
def test_comparison_report_aggregates_or_fails_cleanly(report_dir, doc):
    path = report_dir / "fuzz.comparison.json"
    _write(path, json.dumps(doc))
    assert main(["aggregate", str(path), "--out", str(report_dir)]) in (0, 1)


@pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5_000], ids=["deep", "long-int"])
@pytest.mark.parametrize("command", ["synth", "analyze", "aggregate"])
def test_json_past_the_decoder_limits_fails_in_one_line(capture, tmp_path, capsys, command, text):
    sample = capture[0]
    if command == "analyze":
        local = tmp_path / sample.name
        local.write_bytes(sample.read_bytes())
        local.with_name(local.stem + ".manifest.json").write_text(text, encoding="ascii")
        argv = ["analyze", str(local), "--out", str(tmp_path)]
    else:
        path = tmp_path / "input.json"
        path.write_text(text, encoding="ascii")
        argv = ["synth", "--config"] if command == "synth" else ["aggregate"]
        argv += [str(path), "--out", str(tmp_path)]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("powertrace: "), lines
