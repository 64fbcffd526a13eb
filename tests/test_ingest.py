import json
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
    ManifestError,
    RAIL_ORDER,
    RailKind,
    RailTrace,
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
from powertrace.cli import _write_plot_files
from powertrace.ingest import SAMPLE_HEADER

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


def test_write_then_read_round_trip(tmp_path):
    run, _ = generate_run(compact_scenario(seed=21))
    sample_path, manifest_path = write_capture(run, CAL, tmp_path)
    back = read_capture(sample_path, manifest_path)
    assert back.run_id == run.run_id
    assert back.rootkit_label == run.rootkit_label
    assert back.dataset_index == run.dataset_index
    assert back.schedule.entries == run.schedule.entries
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


def test_write_rejects_invalid_run(tmp_path):
    run = random_run(np.random.default_rng(5), n=50)
    del run.rails[RailKind.RAIL_3V3]
    with pytest.raises(ValueError, match="missing rail 3v3"):
        write_capture(run, CAL, tmp_path)


def test_write_names_rail_channel_and_row_on_clipping(tmp_path):
    run = random_run(np.random.default_rng(6), n=50)
    current = run.rails[RailKind.RAIL_5V].current.copy()
    current[7] = 25.0  # 25 A over a 1.0 A/V sense scale exceeds +-10 V raw
    run.rails[RailKind.RAIL_5V] = RailTrace(
        rail=RailKind.RAIL_5V,
        voltage=run.rails[RailKind.RAIL_5V].voltage,
        current=current,
    )
    with pytest.raises(AdcRangeError) as excinfo:
        write_capture(run, CAL, tmp_path)
    message = str(excinfo.value)
    assert "5v" in message and "current" in message and "row 7" in message


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
    with pytest.raises(TimingError) as excinfo:
        read_capture(sample_path, manifest_path)
    assert excinfo.value.row_index == 5


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
    with pytest.raises(ManifestError, match="schedule"):
        read_capture(sample_path, manifest_path)


def test_read_rejects_unknown_rail_in_calibration(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)

    def mutate(obj):
        obj["calibration"]["voltage_scale"]["24v"] = 1.0

    _mutate_manifest(manifest_path, mutate)
    with pytest.raises(ManifestError, match="unknown rail name '24v'"):
        read_capture(sample_path, manifest_path)


def test_read_rejects_unknown_state(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)

    def mutate(obj):
        obj["schedule"][0]["state"] = "dormant"

    _mutate_manifest(manifest_path, mutate)
    with pytest.raises(ManifestError, match="unknown state 'dormant'"):
        read_capture(sample_path, manifest_path)


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
    with pytest.raises(ManifestError, match="manifest schedule: expected a list, got int"):
        read_capture(sample_path, manifest_path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        (None, 3, "manifest calibration: expected a JSON object, got int"),
        ("voltage_scale", [1.0, 2.0], "calibration voltage_scale: expected a JSON object"),
        ("current_scale", 5, "calibration current_scale: expected a JSON object"),
        ("adc_bits", [16], "calibration adc_bits: expected int"),
    ],
)
def test_read_rejects_calibration_of_the_wrong_shape(tmp_path, key, value, message):
    sample_path, manifest_path = _written_pair(tmp_path)

    def mutate(obj):
        if key is None:
            obj["calibration"] = value
        else:
            obj["calibration"][key] = value

    _mutate_manifest(manifest_path, mutate)
    with pytest.raises(ManifestError, match=message):
        read_capture(sample_path, manifest_path)


def test_read_rejects_bad_units(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)
    _mutate_manifest(manifest_path, lambda obj: obj.__setitem__("units", "counts"))
    with pytest.raises(ManifestError, match="units"):
        read_capture(sample_path, manifest_path)


def test_explicit_calibration_overrides_manifest(tmp_path):
    run = random_run(np.random.default_rng(9), n=40)
    sample_path, manifest_path = write_capture(run, CAL, tmp_path, units="raw")
    doubled = CalibrationConfig(
        voltage_scale={rail: 4.0 for rail in RAIL_ORDER},
        current_scale={rail: 1.0 for rail in RAIL_ORDER},
    )
    back = read_capture(sample_path, manifest_path, cal=doubled)
    default_back = read_capture(sample_path, manifest_path)
    for rail in RAIL_ORDER:
        assert np.allclose(
            back.rails[rail].voltage, 2.0 * default_back.rails[rail].voltage
        )


# --- CSV I/O: the fast paths against per-row and list-of-strings references ---


def _reference_csv(header: str, period: float, columns) -> bytes:
    """The per-row formatter the block writer replaced."""
    lines = [header]
    for k in range(len(columns[0])):
        cells = [f"{k * period:.6f}"]
        cells.extend(repr(float(col[k])) for col in columns)
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("ascii")


def _quantized_columns(run, units: str) -> list[np.ndarray]:
    columns = []
    for rail in RAIL_ORDER:
        trace = run.rails[rail]
        for values, scale in (
            (trace.voltage, CAL.voltage_scale[rail]),
            (trace.current, CAL.current_scale[rail]),
        ):
            q = quantize(values / scale, CAL)
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
    paths = _write_plot_files(analyzed, tmp_path, "plot")
    for rail, path in zip(RAIL_ORDER, paths):
        assert path.name == f"plot.plot.{rail.wire_name}.csv"
        assert path.read_bytes() == _reference_csv(
            "time_s,power_w", period, [powers[rail].power]
        )


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
@given(text=_sample_texts(), read_chars=st.sampled_from([1, 2, 7, 64, ingest._READ_CHARS]))
@example(text=f"{SAMPLE_HEADER}\n{_ROW}\x1f\n", read_chars=ingest._READ_CHARS)
@example(text=f"{SAMPLE_HEADER}\n{_ROW_WITH_FORM_FEED}\n", read_chars=2)
@example(text=f"{SAMPLE_HEADER}\n{_ROW[:-2]}\r\n{_ROW[:-2]}\r\n", read_chars=7)
@example(text=f"{SAMPLE_HEADER}\n1_0{_ROW[3:]}\n \n{_ROW}", read_chars=ingest._READ_CHARS)
@example(text=f"{SAMPLE_HEADER}\n{_ROW}\nnan{_ROW[3:]}\n", read_chars=1)
def test_fast_parse_equals_the_reference_parser(scratch_csv, text, read_chars):
    # A new file each time: truncating a written one can wait for a flush.
    scratch_csv.unlink(missing_ok=True)
    scratch_csv.write_bytes(text.encode("ascii"))
    reference = _outcome(lambda: ingest._parse_sample_text(scratch_csv.read_text(encoding="ascii")))
    with mock.patch.object(ingest, "_READ_CHARS", read_chars):
        assert _outcome(lambda: ingest._parse_sample_file(scratch_csv)) == reference


def test_fast_parse_takes_a_written_capture(tmp_path):
    run = random_run(np.random.default_rng(11), n=500)
    sample_path, _ = write_capture(run, CAL, tmp_path)
    with sample_path.open(encoding="ascii") as fh:
        data = ingest._load_sample_rows(fh)
    assert data is not None
    reference = ingest._parse_sample_text(sample_path.read_text(encoding="ascii"))
    assert data.tobytes() == reference.tobytes()


def test_fast_parse_leaves_whitespace_lines_to_the_reference_parser(tmp_path):
    sample_path, manifest_path = _written_pair(tmp_path)
    lines = sample_path.read_text().splitlines()
    lines.insert(4, "   ")
    lines[6] = lines[6].replace(",", " ,", 1)
    sample_path.write_text("\r\n".join(lines) + "\r\n")
    with sample_path.open(encoding="ascii") as fh:
        assert ingest._load_sample_rows(fh) is None
    back = read_capture(sample_path, manifest_path)
    assert len(back.rails[RailKind.RAIL_3V3]) == 30


def test_read_capture_allocates_under_four_times_its_array(tmp_path):
    run, _ = generate_run(ScenarioConfig(seed=3))
    sample_path, manifest_path = write_capture(run, CAL, tmp_path)
    table_bytes = len(run.rails[RAIL_ORDER[0]]) * len(ingest._COLUMNS) * 8
    tracemalloc.start()
    try:
        read_capture(sample_path, manifest_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * table_bytes, (peak, table_bytes)
