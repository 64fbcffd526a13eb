import contextlib
import dataclasses
import errno
import json
import math
import mmap
import os
import re
import threading
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import compact_scenario, random_run
from powertrace import (
    AdcRangeError,
    CalibrationConfig,
    CaptureFormatError,
    CaptureRun,
    Manifest,
    ManifestError,
    RAIL_ORDER,
    RailKind,
    ScenarioConfig,
    TimingError,
    compute_power,
    generate_run,
    ingest,
    manifest_path_for,
    quantize,
    read_capture,
    write_capture,
)
from powertrace.cli import _plot_tables
from powertrace.ingest import SAMPLE_HEADER
from powertrace.model import decode, to_wire
from test_golden import GOLDEN_DIR

CAL = CalibrationConfig()
HALF_LSB = CAL.lsb / 2


def test_lsb_value_is_exact():
    # 2 * 10 V / 2^16; exactly representable in binary.
    assert CAL.lsb == 20.0 / 65536.0 == 0.00030517578125


def test_quantize_zero_and_full_scale():
    assert quantize(0.0, CAL) == 0.0
    assert abs(quantize(10.0, CAL) - 10.0) <= HALF_LSB


def test_quantize_ties_round_away_from_zero():
    # 1.5 LSB sits exactly between two levels.
    assert quantize(1.5 * CAL.lsb, CAL) == 2 * CAL.lsb
    assert quantize(-1.5 * CAL.lsb, CAL) == -2 * CAL.lsb


def test_quantize_out_of_range():
    with pytest.raises(AdcRangeError):
        quantize(10.5, CAL)
    with pytest.raises(AdcRangeError):
        quantize(np.array([1.0, -11.0]), CAL)


def test_quantize_array_shape_preserved():
    out = quantize(np.linspace(-9, 9, 37), CAL)
    assert out.shape == (37,)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_quantize_idempotent_and_within_half_lsb(x):
    q = quantize(x, CAL)
    assert abs(q - x) <= HALF_LSB
    assert quantize(q, CAL) == q


def test_calibration_validation():
    with pytest.raises(ValueError):
        CalibrationConfig(adc_bits=6)
    with pytest.raises(ValueError):
        CalibrationConfig(adc_bits=25)
    with pytest.raises(ValueError):
        CalibrationConfig(adc_full_scale=0.0)
    bad_scales = {rail: 2.0 for rail in RAIL_ORDER}
    bad_scales[RailKind.RAIL_5V] = 0.0
    with pytest.raises(ValueError):
        CalibrationConfig(voltage_scale=bad_scales)


@pytest.mark.parametrize("value, problem",
                         [(0.0, "positive"), (math.nan, "positive"), (math.inf, "finite")])
@pytest.mark.parametrize("name", ["adc_full_scale", "voltage_scale", "current_scale"])
def test_calibration_scales_must_be_positive_and_finite(name, value, problem):
    # A non-finite scale would write nan or inf cells, and Infinity into the manifest.
    label, given = name, value
    if name != "adc_full_scale":
        label, given = f"{name}[5v]", {**dict.fromkeys(RAIL_ORDER, 2.0), RailKind.RAIL_5V: value}
    with pytest.raises(ValueError, match=re.escape(f"{label} must be {problem}, got {value}")):
        CalibrationConfig(**{name: given})


def test_adc_step_of_the_largest_full_scale_is_finite():
    assert CAL.lsb == 2.0 * CAL.adc_full_scale / (1 << CAL.adc_bits)
    huge = CalibrationConfig(adc_full_scale=1e308)
    assert huge.lsb == 1e308 / (1 << 15)
    assert quantize(1.0, huge) == 0.0


def test_write_then_read_round_trip(tmp_path):
    run, _ = generate_run(compact_scenario(seed=21))
    sample_path, manifest_path = write_capture(run, CAL, tmp_path)
    back = read_capture(sample_path, manifest_path)
    assert back.run_id == run.run_id
    assert back.rootkit_label == run.rootkit_label
    assert back.dataset_index == run.dataset_index
    assert back.schedule == run.schedule
    for rail in RAIL_ORDER:
        # error bounded by half an LSB in raw volts, scaled back up
        v_tol = HALF_LSB * CAL.voltage_scale[rail] * (1 + 1e-9)
        i_tol = HALF_LSB * CAL.current_scale[rail] * (1 + 1e-9)
        assert np.max(np.abs(back.rails[rail].voltage - run.rails[rail].voltage)) <= v_tol
        assert np.max(np.abs(back.rails[rail].current - run.rails[rail].current)) <= i_tol


def test_second_round_trip_is_byte_identical(tmp_path):
    run = random_run(np.random.default_rng(3), n=400)
    first_dir = tmp_path / "first"
    second_dir = tmp_path / "second"
    s1, _ = write_capture(run, CAL, first_dir)
    once = read_capture(s1, manifest_path_for(s1))
    s2, _ = write_capture(once, CAL, second_dir)
    assert s1.read_bytes() == s2.read_bytes()


def test_raw_units_round_trip(tmp_path):
    run = random_run(np.random.default_rng(4), n=300)
    sample_path, manifest_path = write_capture(run, CAL, tmp_path, units="raw")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["units"] == "raw"
    back = read_capture(sample_path, manifest_path)
    for rail in RAIL_ORDER:
        tol = HALF_LSB * CAL.voltage_scale[rail] * (1 + 1e-9)
        assert np.max(np.abs(back.rails[rail].voltage - run.rails[rail].voltage)) <= tol


def test_write_names_rail_channel_and_row_on_clipping(tmp_path):
    run = random_run(np.random.default_rng(6), n=50)
    samples = run.samples.copy()
    samples[7, 3] = 25.0  # i_5v: 25 A over a 1.0 A/V sense scale exceeds +-10 V raw
    with pytest.raises(AdcRangeError) as excinfo:
        write_capture(dataclasses.replace(run, samples=samples), CAL, tmp_path)
    message = str(excinfo.value)
    assert "5v" in message and "current" in message and "row 7" in message


def test_write_names_the_first_clipping_column_at_its_first_row(tmp_path):
    # Columns are checked in table order, whatever row a later one clips at;
    # a NaN hides no clipping value, and nothing is written.
    run = random_run(np.random.default_rng(6), n=50)
    samples = run.samples.copy()
    samples[3, 5] = 25.0  # i_12v_mb
    samples[[40, 45], 1] = 25.0  # i_3v3
    samples[0, 1] = np.nan
    with pytest.raises(AdcRangeError) as excinfo:
        write_capture(dataclasses.replace(run, samples=samples), CAL, tmp_path)
    assert str(excinfo.value) == (
        "rail 3v3 current channel: row 40 raw value 25.0 outside ADC range [-10.0, 10.0]"
    )
    assert list(tmp_path.iterdir()) == []


def test_write_rejects_a_nan_sample(tmp_path):
    run = random_run(np.random.default_rng(6), n=150)
    samples = run.samples.copy()
    samples[100, 3] = np.nan  # i_5v
    with pytest.raises(AdcRangeError) as excinfo:
        write_capture(dataclasses.replace(run, samples=samples), CAL, tmp_path)
    assert str(excinfo.value) == "rail 5v current channel: row 100 raw value nan is not a number"
    assert list(tmp_path.iterdir()) == []


def test_write_capture_quantizes_one_block_at_a_time(tmp_path):
    run, _ = generate_run(ScenarioConfig(seed=5))
    assert len(run.samples) == 54_600
    with mock.patch.object(ingest, "_WRITE_ROWS", 1024):
        tracemalloc.start()
        try:
            write_capture(run, CAL, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 0.5 * run.samples.nbytes, peak / run.samples.nbytes


def _written_pair(tmp_path):
    run = random_run(np.random.default_rng(8), n=30)
    return write_capture(run, CAL, tmp_path)


def test_read_rejects_wrong_header_column(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)
    lines = sample_path.read_text().splitlines()
    lines[0] = lines[0].replace("v_5v", "v_5")
    sample_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CaptureFormatError, match="column 3"):
        read_capture(sample_path, manifest_path)


def test_read_rejects_wrong_column_count(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)
    lines = sample_path.read_text().splitlines()
    lines[0] = lines[0] + ",extra"
    sample_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CaptureFormatError, match="10 columns"):
        read_capture(sample_path, manifest_path)


def test_read_header_only_is_no_samples(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)
    header = sample_path.read_text().splitlines()[0]
    sample_path.write_text(header + "\n")
    with pytest.raises(CaptureFormatError, match="no samples"):
        read_capture(sample_path, manifest_path)


def test_read_names_non_numeric_cell(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)
    lines = sample_path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = "oops"
    lines[3] = ",".join(cells)
    sample_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CaptureFormatError, match="row 2.*i_3v3"):
        read_capture(sample_path, manifest_path)


@pytest.mark.parametrize("fields", [8, 10])
def test_read_rejects_a_wrong_field_count_on_every_row(tmp_path, fields):
    sample_path, manifest_path = _written_pair(tmp_path)
    lines = sample_path.read_text().splitlines()
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        lines[i] = ",".join(cells[:8] if fields == 8 else cells + ["0.0"])
    sample_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CaptureFormatError, match=f"row 0: {fields} fields, expected 9"):
        read_capture(sample_path, manifest_path)


def test_read_rejects_non_uniform_timestamps(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)
    lines = sample_path.read_text().splitlines()
    cells = lines[6].split(",")  # data row index 5
    cells[0] = f"{float(cells[0]) + 0.005:.6f}"  # 50% step error
    lines[6] = ",".join(cells)
    sample_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TimingError, match="at row 5: "):
        read_capture(sample_path, manifest_path)


def test_read_tolerates_small_timestamp_jitter(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)
    lines = sample_path.read_text().splitlines()
    cells = lines[6].split(",")
    cells[0] = f"{float(cells[0]) + 0.0005:.6f}"  # 5% of the period
    lines[6] = ",".join(cells)
    sample_path.write_text("\n".join(lines) + "\n")
    read_capture(sample_path, manifest_path)


def _mutate_manifest(manifest_path, mutate):
    obj = json.loads(manifest_path.read_text())
    mutate(obj)
    manifest_path.write_text(json.dumps(obj))


def test_read_rejects_missing_manifest_key(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)
    _mutate_manifest(manifest_path, lambda obj: obj.pop("schedule"))
    with pytest.raises(ManifestError, match=re.escape("manifest: missing keys ['schedule']")):
        read_capture(sample_path, manifest_path)


def test_read_rejects_unknown_rail_in_calibration(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)

    def mutate(obj):
        obj["calibration"]["voltage_scale"]["24v"] = 1.0

    _mutate_manifest(manifest_path, mutate)
    message = "manifest.calibration.voltage_scale: unknown keys ['24v']"
    with pytest.raises(ManifestError, match=re.escape(message)):
        read_capture(sample_path, manifest_path)


def test_read_rejects_unknown_state(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)

    def mutate(obj):
        obj["schedule"][0]["state"] = "dormant"

    _mutate_manifest(manifest_path, mutate)
    message = ("manifest.schedule[0].state: unknown name 'dormant' "
               "(choose from pre_infection, post_infection, post_infection_reboot)")
    with pytest.raises(ManifestError) as excinfo:
        read_capture(sample_path, manifest_path)
    assert str(excinfo.value) == message


def test_read_rejects_marker_count_mismatch(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)
    _mutate_manifest(manifest_path, lambda obj: obj.__setitem__("expected_marker_count", 4))
    with pytest.raises(ManifestError, match="expected_marker_count 4 != 2 x 9"):
        read_capture(sample_path, manifest_path)


def test_read_rejects_manifest_that_is_not_an_object(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)
    manifest_path.write_text("[1, 2]")
    with pytest.raises(ManifestError, match="manifest: expected a JSON object, got list"):
        read_capture(sample_path, manifest_path)


def test_read_rejects_schedule_that_is_not_a_list(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)
    _mutate_manifest(manifest_path, lambda obj: obj.__setitem__("schedule", 5))
    message = "manifest.schedule: expected a JSON list, got int"
    with pytest.raises(ManifestError, match=re.escape(message)):
        read_capture(sample_path, manifest_path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        (None, 3, "manifest.calibration: expected a JSON object, got int"),
        ("voltage_scale", [1.0, 2.0],
         "manifest.calibration.voltage_scale: expected a JSON object, got list"),
        ("current_scale", 5, "manifest.calibration.current_scale: expected a JSON object, got int"),
        ("adc_bits", [16], "manifest.calibration.adc_bits: expected int, got [16]"),
    ],
    ids=["calibration", "voltage_scale", "current_scale", "adc_bits"],
)
def test_read_rejects_calibration_of_the_wrong_shape(tmp_path, key, value, message):
    sample_path, manifest_path = _written_pair(tmp_path)

    def mutate(obj):
        if key is None:
            obj["calibration"] = value
        else:
            obj["calibration"][key] = value

    _mutate_manifest(manifest_path, mutate)
    with pytest.raises(ManifestError, match=re.escape(message)):
        read_capture(sample_path, manifest_path)


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.manifest.json")), ids=lambda p: p.name)
def test_golden_manifest_decodes_and_encodes_to_its_bytes(path):
    manifest = decode(Manifest, json.loads(path.read_bytes()), "manifest", ManifestError)
    text = json.dumps(to_wire(manifest), indent=2, sort_keys=True) + "\n"
    assert text.encode("ascii") == path.read_bytes()


def test_read_rejects_bad_units(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)
    _mutate_manifest(manifest_path, lambda obj: obj.__setitem__("units", "counts"))
    with pytest.raises(ManifestError, match="units"):
        read_capture(sample_path, manifest_path)


# --- CSV I/O: the fast paths against per-row and list-of-strings references ---


def _reference_csv(header: str, period: float, columns) -> bytes:
    """The per-row formatter the block writer replaced."""
    lines = [header]
    for k in range(len(columns[0])):
        cells = [f"{k * period:.6f}"]
        cells.extend(repr(float(col[k])) for col in columns)
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("ascii")


def _quantized_columns(run, units: str, cal: CalibrationConfig = CAL) -> list[np.ndarray]:
    columns = []
    for rail in RAIL_ORDER:
        trace = run.rails[rail]
        for values, scale in (
            (trace.voltage, cal.voltage_scale[rail]),
            (trace.current, cal.current_scale[rail]),
        ):
            q = quantize(values / scale, cal)
            columns.append(q * scale if units == "engineering" else q)
    return columns


CHUNK = ingest._WRITE_ROWS


@pytest.mark.parametrize("units", ["engineering", "raw"])
@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_writers_match_the_per_row_formatter_at_block_edges(tmp_path, n, units):
    run = random_run(np.random.default_rng(n), n=n)
    period = run.rails[RAIL_ORDER[0]].sample_period
    sample_path, manifest_path = write_capture(run, CAL, tmp_path, units=units)
    assert sample_path.read_bytes() == _reference_csv(
        SAMPLE_HEADER, period, _quantized_columns(run, units)
    )

    back = read_capture(sample_path, manifest_path)
    powers = {rail: compute_power(back.rails[rail]) for rail in RAIL_ORDER}
    analyzed = SimpleNamespace(sample_period=period, powers=powers)
    tables = _plot_tables(analyzed, tmp_path, "plot")
    ingest.write_series_csv(period, tables)
    for rail, (path, _, _) in zip(RAIL_ORDER, tables):
        assert path.name == f"plot.plot.{rail.wire_name}.csv"
        assert path.read_bytes() == _reference_csv(
            "time_s,power_w", period, [powers[rail].power]
        )


# Values whose text is easy to get wrong: signed zeros, the smallest subnormal,
# another subnormal, the smallest normal, the largest magnitudes, short and long reprs.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3, -2.5, 1e16, 123456789.0]


@st.composite
def _small_alphabet_columns(draw):
    """Columns of one length drawn from a small alphabet, in repeated runs."""
    n = draw(st.sampled_from([1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]))
    alphabet = np.array(draw(st.lists(
        st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=6,
    )))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        pattern = draw(st.lists(st.integers(0, len(alphabet) - 1), min_size=1, max_size=12))
        run = draw(st.sampled_from([1, 2, 3, 100, CHUNK - 1, CHUNK + 1]))
        columns.append(alphabet[np.resize(np.repeat(pattern, run), n)])
    return columns


@settings(max_examples=60, deadline=None)
@given(columns=_small_alphabet_columns(), period=st.sampled_from([0.01, 0.001, 0.25, 1 / 128]))
@example(columns=[np.array([0.0, -0.0, -0.0, 0.0])], period=0.01)
@example(columns=[np.array([5e-324, -5e-324, 1e308, -1e308, 1e-310])], period=0.01)
def test_block_writer_matches_the_per_row_formatter_on_small_alphabets(
    scratch_csv, columns, period
):
    header = ",".join(["t", *(f"c{j}" for j in range(len(columns)))])
    ingest.write_series_csv(period, [(scratch_csv, header, columns)])
    assert scratch_csv.read_bytes() == _reference_csv(header, period, columns)


# Periods whose times land on or next to a rounding tie, a seventh decimal
# of 5 (1/128, 2.5e-7), end at the sixth decimal (1/64), repeat without end
# in decimal (1/3, 0.0123456789), or are short (0.25).
_TIME_PERIODS = [1 / 128, 1 / 64, 1 / 3, 0.0123456789, 0.25, 2.5e-7]


@st.composite
def _time_blocks(draw):
    """(period, lo, hi): empty, one-row and whole blocks at block edges,
    anywhere, or straddling the k past which the numpy path falls back."""
    period = draw(st.one_of(st.sampled_from(_TIME_PERIODS), st.floats(1e-9, 1e4)))
    rows = draw(st.sampled_from([0, 1, 2, 3, 100, CHUNK - 1, CHUNK]))
    limit = math.ceil(ingest._MICROS_LIMIT / (period * 1e6))
    lo = draw(st.one_of(
        st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK]),
        st.integers(0, 10**9),
        st.integers(max(0, limit - rows - 1), limit + 1),
    ))
    return period, lo, lo + rows


@settings(max_examples=150, deadline=None)
@given(block=_time_blocks())
@example(block=(1 / 128, 0, CHUNK))
@example(block=(2.5e-7, CHUNK, 2 * CHUNK))
@example(block=(1 / 3, 2**40 * 3 // 10**6 - 5, 2**40 * 3 // 10**6 + 5))
def test_time_column_matches_the_per_row_formatter(block):
    period, lo, hi = block
    assert ingest._time_cells(period, lo, hi) == [f"{k * period:.6f}" for k in range(lo, hi)]


def _write_column(tmp_path, column: np.ndarray, units: str = "engineering",
                  cal: CalibrationConfig = CAL) -> None:
    """write_capture of a run whose i_3v3 column is *column*, checked
    against the per-row formatter."""
    samples = np.ones((len(column), 2 * len(RAIL_ORDER)))
    samples[:, 1] = column
    run = CaptureRun("rand", "rand", 1, samples)
    sample_path, _ = write_capture(run, cal, tmp_path, units=units)
    assert sample_path.read_bytes() == _reference_csv(
        SAMPLE_HEADER, run.sample_period, _quantized_columns(run, units, cal)
    )


@pytest.mark.parametrize("first, later", [(-1e-9, 0.0), (0.0, -1e-9)])
def test_level_reuse_keeps_signed_zeros_apart_across_blocks(tmp_path, first, later):
    # -1e-9 quantizes to -0.0 and 0.0 to 0.0: one ADC level, two texts.
    column = np.full(2 * CHUNK + 1, later)
    column[:CHUNK] = first
    _write_column(tmp_path, column)
    text = (tmp_path / "rand.csv").read_text()
    assert ",-0.0," in text and ",0.0," in text


def test_level_reuse_formats_a_level_first_seen_in_the_last_block(tmp_path):
    column = np.full(2 * CHUNK + 3, 1.0)
    column[-2:] = 2.5
    _write_column(tmp_path, column)


# Blocks and windows small enough that short columns cross several window
# edges, and large enough that a window's text outweighs the 8 KiB a text
# file buffers before its first flush.
SMALL_BLOCK, SMALL_WINDOW = 64, 256


@pytest.fixture
def small_windows():
    with mock.patch.object(ingest, "_WRITE_ROWS", SMALL_BLOCK), \
            mock.patch.object(ingest, "_FORMAT_ROWS", SMALL_WINDOW):
        yield


def _write_arrays(path, columns, period: float = 0.01) -> None:
    """write_series_csv of one table of array columns, checked against the per-row formatter."""
    header = ",".join(["t", *(f"c{j}" for j in range(len(columns)))])
    ingest.write_series_csv(period, [(path, header, columns)])
    assert path.read_bytes() == _reference_csv(header, period, columns)


@pytest.mark.parametrize("n", [SMALL_WINDOW - 1, SMALL_WINDOW, SMALL_WINDOW + 1, 2 * SMALL_WINDOW + 1])
def test_array_columns_match_the_per_row_formatter_at_window_edges(small_windows, tmp_path, n):
    rng = np.random.default_rng(n)
    _write_arrays(tmp_path / "plot.csv", [rng.normal(size=n), rng.choice(_EDGE_FLOATS, size=n)])


@pytest.mark.parametrize("first, later", [(-0.0, 0.0), (0.0, -0.0)])
def test_array_columns_keep_signed_zeros_apart_across_windows(small_windows, tmp_path, first, later):
    column = np.full(2 * SMALL_WINDOW + 1, later)
    column[:SMALL_WINDOW] = first
    _write_arrays(tmp_path / "plot.csv", [column])
    text = (tmp_path / "plot.csv").read_text()
    assert ",-0.0\n" in text and ",0.0\n" in text


def test_array_columns_format_a_value_first_seen_in_the_last_window(small_windows, tmp_path):
    column = np.full(2 * SMALL_WINDOW + 3, 1.0)
    column[-2:] = 2.5
    _write_arrays(tmp_path / "plot.csv", [column])


def test_plot_and_capture_tables_share_one_time_column(small_windows, tmp_path):
    run = random_run(np.random.default_rng(12), n=2 * SMALL_WINDOW + 5)
    capture = [ingest._QuantizedColumn(run.samples[:, j], scale, CAL.lsb, True)
               for j, scale in enumerate(CAL.column_scales)]
    power = compute_power(run.rails[RAIL_ORDER[0]]).power
    plot_path, capture_path = tmp_path / "plot.csv", tmp_path / "capture.csv"
    ingest.write_series_csv(run.sample_period, [(plot_path, "time_s,power_w", [power]),
                                                (capture_path, SAMPLE_HEADER, capture)])
    assert plot_path.read_bytes() == _reference_csv("time_s,power_w", run.sample_period, [power])
    assert capture_path.read_bytes() == _reference_csv(
        SAMPLE_HEADER, run.sample_period, _quantized_columns(run, "engineering")
    )


def test_array_column_memory_is_bounded_by_one_window(small_windows, tmp_path):
    # Every value distinct and of about one text length, so that each window's
    # text is as large as it can be and of the same size: a writer that held
    # the whole column's text would peak 2.6 times higher at six windows than
    # at two. Each write is measured after an unmeasured one, which leaves out
    # what only a first write allocates.
    path = tmp_path / "plot.csv"
    peaks = []
    for windows in (2, 6):
        column = np.random.default_rng(windows).uniform(1.0, 2.0, windows * SMALL_WINDOW)
        ingest.write_series_csv(0.01, [(path, "t,c0", [column])])
        tracemalloc.start()
        try:
            ingest.write_series_csv(0.01, [(path, "t,c0", [column])])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks


@pytest.mark.parametrize("units", ["engineering", "raw"])
@pytest.mark.parametrize("adc_bits", [8, 16, 24])
def test_level_reuse_clears_a_table_past_its_bound(tmp_path, units, adc_bits):
    # At 16 and 24 bits each row of the ramp is its own level, so every
    # block overfills the table; the third block repeats half of the second
    # block's levels, which the cleared table must format again. At 8 bits
    # the table never fills.
    ramp = np.linspace(-4.0, 4.0, 2 * CHUNK + 7)
    column = np.concatenate([ramp, ramp[CHUNK + CHUNK // 2:], ramp[::-1]])
    _write_column(tmp_path, column, units, CalibrationConfig(adc_bits=adc_bits))


def _outcome(parse):
    try:
        data = parse()
    except CaptureFormatError as exc:
        return "error", str(exc)
    return "data", data.shape, data.tobytes()


def _mostly(common, rare, odds: int = 20):
    """*common*, except one draw in about *odds* comes from *rare*."""
    return st.integers(0, odds).flatmap(lambda i: rare if i == 0 else common)


# Cells float() accepts, and cells it rejects or that loadtxt might read otherwise:
# underscores, hex, quotes, comments, non-finite values, NUL, and the ASCII
# separators that are whitespace to loadtxt but line breaks (\x0b, \x0c, \x1c-\x1e)
# or not whitespace (\x1f) to str.splitlines and float().
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["1e5", "1E-3", "-2.5e+07", ".5", "5.", "+1.5", "-0", "007", " 7 ",
                     "\t3", "2 ", "1e-400"]),
)
_ODD_CELLS = st.sampled_from([
    "", " ", "\t", "1_0", "0x1p3", "#1", '"1"', "nan", "-inf", "Infinity", "1e400",
    "1 2", "1d5", "0\x001", "3\x0c", "\x0b4", "5\x1f", "\x1f", "6\x1c", "\r", "abc",
])
_CELLS = _mostly(_NUMBERS, _ODD_CELLS, odds=100)
_ROWS = _mostly(
    st.lists(_CELLS, min_size=9, max_size=9).map(",".join),
    st.one_of(
        st.lists(_CELLS, min_size=0, max_size=11).map(",".join),
        st.sampled_from(["", "   ", "\t", "# comment", "\x0c", ",", "\x1f"]),
    ),
)
_LINE_BREAKS = _mostly(
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.sampled_from(["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]),
)
_HEADERS = _mostly(
    st.just(SAMPLE_HEADER),
    st.sampled_from([" " + SAMPLE_HEADER, SAMPLE_HEADER + "\t", "",
                     SAMPLE_HEADER.replace("v_5v", "v_5"), SAMPLE_HEADER + ",x"]),
)


@st.composite
def _sample_texts(draw):
    text = draw(_HEADERS) + draw(_LINE_BREAKS)
    for row, brk in draw(st.lists(st.tuples(_ROWS, _LINE_BREAKS), max_size=12)):
        text += row + brk
    return text[:-1] if draw(st.booleans()) else text


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("parse") / "sample.csv"


_ROW = "0.0,1,2,3,4,5,6,7,8"
_ROW_WITH_FORM_FEED = _ROW.replace(",4", "\x0c,4")


@settings(max_examples=200, deadline=None)
@given(text=_sample_texts(), read_size=st.sampled_from([1, 2, 7, 64, ingest._READ_BYTES]))
@example(text=f"{SAMPLE_HEADER}\n{_ROW}\x1f\n", read_size=ingest._READ_BYTES)
@example(text=f"{SAMPLE_HEADER}\n{_ROW_WITH_FORM_FEED}\n", read_size=2)
@example(text=f"{SAMPLE_HEADER}\n{_ROW[:-2]}\r\n{_ROW[:-2]}\r\n", read_size=7)
@example(text=f"{SAMPLE_HEADER}\n1_0{_ROW[3:]}\n \n{_ROW}", read_size=ingest._READ_BYTES)
@example(text=f"{SAMPLE_HEADER}\n{_ROW}\nnan{_ROW[3:]}\n", read_size=1)
def test_fast_parse_equals_the_reference_parser(scratch_csv, text, read_size):
    # A new file each time: truncating a written one can wait for a flush.
    scratch_csv.unlink(missing_ok=True)
    scratch_csv.write_bytes(text.encode("ascii"))
    reference = _outcome(lambda: ingest._parse_sample_text(scratch_csv.read_text(encoding="ascii")))
    with mock.patch.object(ingest, "_READ_BYTES", read_size):
        assert _outcome(lambda: ingest._parse_sample_file(scratch_csv)) == reference


def test_fast_parse_takes_a_written_capture(tmp_path):
    run = random_run(np.random.default_rng(11), n=500)
    sample_path, _ = write_capture(run, CAL, tmp_path)
    data = ingest._load_sample_rows(sample_path)
    assert data is not None
    reference = ingest._parse_sample_text(sample_path.read_text(encoding="ascii"))
    assert data.tobytes() == reference.tobytes()


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
def test_fast_parse_reads_a_sample_file_whatever_its_suffix(tmp_path, suffix):
    run = random_run(np.random.default_rng(11), n=50)
    sample_path, _ = write_capture(run, CAL, tmp_path)
    renamed = sample_path.rename(sample_path.with_suffix(suffix))
    data = ingest._load_sample_rows(renamed)
    assert data is not None
    reference = ingest._parse_sample_text(renamed.read_text(encoding="ascii"))
    assert data.tobytes() == reference.tobytes()


def test_fast_parse_leaves_whitespace_lines_to_the_reference_parser(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)
    lines = sample_path.read_text().splitlines()
    lines.insert(4, "   ")
    lines[6] = lines[6].replace(",", " ,", 1)
    sample_path.write_text("\r\n".join(lines) + "\r\n")
    assert ingest._load_sample_rows(sample_path) is None
    back = read_capture(sample_path, manifest_path)
    assert len(back.rails[RailKind.RAIL_3V3]) == 30


def test_a_table_reaching_its_counted_rows_goes_to_the_reference_parser(tmp_path):
    # loadtxt also breaks lines at a lone '\r', so this table would have more
    # rows than the file has line feeds; the scan refuses it first.
    sample_path = tmp_path / "sample.csv"
    sample_path.write_bytes(f"{SAMPLE_HEADER}\n{_ROW}\r{_ROW}\r{_ROW}\n".encode("ascii"))
    assert ingest._load_sample_rows(sample_path) is None
    data = ingest._parse_sample_file(sample_path)
    assert data.shape == (3, 9)
    reference = ingest._parse_sample_text(sample_path.read_text(encoding="ascii"))
    assert data.tobytes() == reference.tobytes()


def test_read_capture_allocates_under_four_times_its_array(tmp_path):
    # The bound is 1.4x the parsed (n, 9) table: numpy's loadtxt alone peaks
    # at 1.17-1.32x, and the run's sample table is a view of the parsed one.
    for idle_duration, rows in ((60.0, 54_600), (120.0, 72_600)):
        run, _ = generate_run(ScenarioConfig(seed=3, idle_duration=idle_duration))
        sample_path, manifest_path = write_capture(run, CAL, tmp_path)
        table_bytes = len(run.samples) * len(ingest._COLUMNS) * 8
        assert len(run.samples) == rows
        # One part: the table is loadtxt's own array.
        with mock.patch.object(ingest, "usable_cpus", return_value=1):
            peak = _read_peak(sample_path, manifest_path)[1]
        assert peak <= 1.4 * table_bytes, (rows, peak, table_bytes)


def _read_peak(sample_path, manifest_path) -> tuple[CaptureRun, int]:
    tracemalloc.start()
    try:
        run = read_capture(sample_path, manifest_path)
        return run, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def _parts(cpus: int, part_rows: int = 1):
    """Parse in up to *cpus* parts of at least *part_rows* rows, counting forks.

    pytest plugins may run threads, which would keep a read in one part.
    """
    with (mock.patch.object(ingest, "usable_cpus", return_value=cpus),
          mock.patch.object(ingest, "_PART_ROWS", part_rows),
          mock.patch.object(ingest.threading, "active_count", return_value=1),
          mock.patch.object(ingest.os, "fork", wraps=os.fork) as fork):
        yield fork


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_read_capture_in_parts_allocates_only_its_own_part(tmp_path):
    # The table is a shared mmap, which tracemalloc does not see, and this
    # process parses the first part: 1.4x those rows bounds its peak, as it
    # does the whole table's in one part, and the run views the mmap.
    run, _ = generate_run(ScenarioConfig(seed=3, idle_duration=120.0))
    sample_path, manifest_path = write_capture(run, CAL, tmp_path)
    with _parts(2, ingest._PART_ROWS) as fork:
        parts = ingest._scan_parts(sample_path)
        back, peak = _read_peak(sample_path, manifest_path)
    assert fork.call_count == 1 and [hi - lo for _, lo, hi in parts] == [36_300, 36_300]
    own_bytes = parts[0][2] * len(ingest._COLUMNS) * 8
    assert peak <= 1.4 * own_bytes, (peak, own_bytes)
    base = back.samples
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base.obj, mmap.mmap)  # numpy's memoryview of it
    reference = ingest._parse_sample_text(sample_path.read_text(encoding="ascii"))
    assert back.samples.tobytes() == reference[:, 1:].tobytes()
    _no_child_left()


_BAD_ROW = "abc" + _ROW[3:]


@settings(max_examples=200, deadline=None)
@given(text=_sample_texts(), read_size=st.sampled_from([1, 2, 7, 64, ingest._READ_BYTES]),
       cpus=st.sampled_from([2, 3]))
@example(text=f"{SAMPLE_HEADER}\n{_ROW}\n{_ROW}\n{_ROW}\n{_BAD_ROW}\n", read_size=7, cpus=2)
@example(text=f"{SAMPLE_HEADER}\n{_ROW}\n{_ROW}\n{_ROW}\n\n{_ROW}\n", read_size=2, cpus=2)
@example(text=f"{SAMPLE_HEADER}\r\n{_ROW}\r\n{_ROW}\r\n\r\n{_ROW}\r\n{_ROW}\r\n",
         read_size=1, cpus=3)
@example(text=f"{SAMPLE_HEADER}\n{_ROW}\n{_ROW}\r{_ROW}\n{_ROW}\n", read_size=64, cpus=3)
@example(text=f"{SAMPLE_HEADER}\n{_ROW}\n{_ROW}\n{_ROW}", read_size=1, cpus=3)
def test_parted_parse_equals_the_reference_parser(scratch_csv, text, read_size, cpus):
    # Parts of one row or more, so that their bounds fall anywhere.
    scratch_csv.unlink(missing_ok=True)
    scratch_csv.write_bytes(text.encode("ascii"))
    reference = _outcome(lambda: ingest._parse_sample_text(scratch_csv.read_text(encoding="ascii")))
    with mock.patch.object(ingest, "_READ_BYTES", read_size), _parts(cpus) as fork:
        parts = ingest._scan_parts(scratch_csv)
        assert _outcome(lambda: ingest._parse_sample_file(scratch_csv)) == reference
    if parts is not None:
        body_feeds = text.encode("ascii").split(b"\n", 1)[1].count(b"\n")
        assert len(parts) == max(1, min(cpus, body_feeds))
    assert fork.call_count == (0 if parts is None else len(parts) - 1)
    _no_child_left()


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_a_parted_read_fills_every_part(tmp_path, newline):
    run = random_run(np.random.default_rng(11), n=500)
    sample_path, _ = write_capture(run, CAL, tmp_path)
    sample_path.write_bytes(sample_path.read_bytes().replace(b"\n", newline.encode("ascii")))
    reference = ingest._parse_sample_text(sample_path.read_text(encoding="ascii"))
    # 7-byte reads split many a "\r\n" across two reads.
    for cpus, read_size in ((2, ingest._READ_BYTES), (3, 7)):
        with mock.patch.object(ingest, "_READ_BYTES", read_size), _parts(cpus, 100) as fork:
            data = ingest._load_sample_rows(sample_path)
        assert fork.call_count == cpus - 1
        assert data.tobytes() == reference.tobytes()
    _no_child_left()


def test_a_failed_helper_leaves_the_file_to_the_reference_parser(tmp_path):
    run = random_run(np.random.default_rng(11), n=500)
    sample_path, _ = write_capture(run, CAL, tmp_path)
    reference = ingest._parse_sample_text(sample_path.read_text(encoding="ascii"))
    parent, loadtxt = os.getpid(), np.loadtxt

    def failing_in_a_helper(*args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("helper failed")
        return loadtxt(*args, **kwargs)

    with _parts(3, 100) as fork, mock.patch.object(ingest.np, "loadtxt", failing_in_a_helper):
        data = ingest._parse_sample_file(sample_path)
    assert fork.call_count == 2
    assert data.tobytes() == reference.tobytes()
    _no_child_left()


def test_an_error_in_the_first_part_reaps_every_helper(tmp_path):
    sample_path = tmp_path / "sample.csv"
    sample_path.write_bytes(f"{SAMPLE_HEADER}\n{_BAD_ROW}\n{_ROW}\n{_ROW}\n".encode("ascii"))
    with _parts(3) as fork, pytest.raises(CaptureFormatError, match="^row 0, column t_s: "):
        ingest._parse_sample_file(sample_path)
    assert fork.call_count == 2
    _no_child_left()


def test_a_failed_fork_leaves_the_file_to_the_reference_parser(tmp_path):
    run = random_run(np.random.default_rng(11), n=500)
    sample_path, _ = write_capture(run, CAL, tmp_path)
    forks = [os.fork, mock.Mock(side_effect=BlockingIOError(errno.EAGAIN, "no process to spare"))]
    with _parts(3, 100) as fork:
        fork.side_effect = lambda: forks.pop(0)()
        assert ingest._load_sample_rows(sample_path) is None
    assert fork.call_count == 2
    _no_child_left()


def test_a_read_with_another_thread_alive_never_forks(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with (mock.patch.object(ingest, "usable_cpus", return_value=2),
              mock.patch.object(ingest, "_PART_ROWS", 1),
              mock.patch.object(ingest.os, "fork", side_effect=AssertionError("forked"))):
            back = read_capture(sample_path, manifest_path)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(back.samples) == 30
