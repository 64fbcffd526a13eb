import json

import numpy as np
import pytest
from hypothesis import given, settings
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
    TimingError,
    generate_run,
    manifest_path_for,
    quantize,
    read_capture,
    write_capture,
)

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
