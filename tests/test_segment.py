import dataclasses

import numpy as np
import pytest

from conftest import compact_scenario
from powertrace import (
    MachineState,
    Marker,
    MarkerDetectionError,
    MarkerParams,
    PowerSeries,
    RAIL_ORDER,
    RailKind,
    SegmentationError,
    compute_power,
    detect_markers,
    generate_run,
    segment_events,
    segment_power_pool,
    smooth_series,
)

CPU = RailKind.RAIL_12V_CPU


def _cpu_power(run):
    return compute_power(run.rails[CPU])


def _series(power, period=0.010):
    return PowerSeries(rail=CPU, power=np.asarray(power, dtype=float), sample_period=period)


def test_marker_params_validation():
    with pytest.raises(ValueError):
        MarkerParams(hi_fraction=0.4, lo_fraction=0.6)
    with pytest.raises(ValueError):
        MarkerParams(lo_fraction=0.0)
    with pytest.raises(ValueError):
        MarkerParams(min_duration=8.0, max_duration=8.0)
    with pytest.raises(ValueError):
        MarkerParams(smooth_window=0.0)


def test_smooth_series_is_centered_average():
    out = smooth_series(np.array([0.0, 0.0, 10.0, 0.0, 0.0]), 3)
    assert out.tolist() == [0.0, 10.0 / 3.0, 10.0 / 3.0, 10.0 / 3.0, 0.0]


def test_noiseless_run_recovers_every_marker_exactly():
    cfg = compact_scenario(
        seed=1,
        noise_sigma={rail: 0.0 for rail in RAIL_ORDER},
        voltage_noise_sigma=0.0,
    )
    run, truth = generate_run(cfg)
    markers = detect_markers(_cpu_power(run))
    assert len(markers) == 18
    for marker, (start, end) in zip(markers, truth.markers):
        assert marker.start_index == start
        assert marker.end_index == end


def test_noisy_run_recovers_markers_within_one_sample():
    run, truth = generate_run(compact_scenario(seed=2))
    markers = detect_markers(_cpu_power(run))
    assert len(markers) == 18
    for marker, (start, end) in zip(markers, truth.markers):
        assert abs(marker.start_index - start) <= 1
        assert abs(marker.end_index - end) <= 1


def test_marker_peak_power_is_above_threshold():
    run, _ = generate_run(compact_scenario(seed=3))
    cfg_amp = 40.0
    for marker in detect_markers(_cpu_power(run)):
        assert marker.peak_power > cfg_amp  # amplitude rides on a >=20 W baseline


def test_markers_are_sorted_and_disjoint():
    run, _ = generate_run(compact_scenario(seed=4))
    markers = detect_markers(_cpu_power(run))
    for a, b in zip(markers, markers[1:]):
        assert a.end_index <= b.start_index


def test_constant_series_has_no_dynamic_range():
    with pytest.raises(MarkerDetectionError, match="no dynamic range"):
        detect_markers(_series(np.full(2000, 5.0)))


def test_too_short_series_is_rejected():
    with pytest.raises(MarkerDetectionError, match="too short"):
        detect_markers(_series(np.full(200, 5.0)))


def test_duration_gate_keeps_plateau_drops_spike():
    power = np.full(2000, 5.0)
    power[200:300] = 50.0    # 1 s burst, below min_duration
    power[800:1300] = 50.0   # 5 s plateau
    markers = detect_markers(_series(power))
    assert len(markers) == 1
    assert markers[0].start_index == 800
    assert markers[0].end_index == 1300
    assert markers[0].peak_power == 50.0


def test_duration_gate_drops_overlong_plateau():
    power = np.full(2000, 5.0)
    power[500:1500] = 50.0  # 10 s, above max_duration
    assert detect_markers(_series(power)) == []


def test_unclosed_final_burst_is_dropped():
    power = np.full(2000, 5.0)
    power[400:900] = 50.0
    power[1600:] = 50.0  # still high at end of series
    markers = detect_markers(_series(power))
    assert len(markers) == 1
    assert markers[0].start_index == 400


def test_fewer_markers_than_expected_raises_with_found_count():
    run, _ = generate_run(compact_scenario(seed=5))
    with pytest.raises(SegmentationError) as excinfo:
        detect_markers(_cpu_power(run), expected_count=19)
    assert str(excinfo.value) == "expected 19 markers, found 18"


def test_surplus_markers_do_not_raise_in_detection():
    run, _ = generate_run(compact_scenario(seed=5))
    markers = detect_markers(_cpu_power(run), expected_count=17)
    assert len(markers) == 18


def test_detection_is_deterministic():
    run, _ = generate_run(compact_scenario(seed=6))
    series = _cpu_power(run)
    assert detect_markers(series) == detect_markers(series)


@pytest.mark.parametrize("scale,offset", [(2.0, 0.0), (0.25, 10.0), (7.5, -3.0)])
def test_affine_transform_leaves_indices_unchanged(scale, offset):
    run, _ = generate_run(compact_scenario(seed=7))
    series = _cpu_power(run)
    transformed = PowerSeries(
        rail=series.rail,
        power=scale * series.power + offset,
        sample_period=series.sample_period,
    )
    base = [(m.start_index, m.end_index) for m in detect_markers(series)]
    moved = [(m.start_index, m.end_index) for m in detect_markers(transformed)]
    assert base == moved


def test_wrong_rail_lacks_markers():
    # The 3.3V rail never carries the stress rectangles; detection cannot
    # find the full complement there.
    run, _ = generate_run(compact_scenario(seed=8))
    series = compute_power(run.rails[RailKind.RAIL_3V3])
    with pytest.raises(SegmentationError):
        detect_markers(series, expected_count=18)


def test_segment_events_recovers_ground_truth_spans():
    cfg = compact_scenario(
        seed=9,
        noise_sigma={rail: 0.0 for rail in RAIL_ORDER},
        voltage_noise_sigma=0.0,
    )
    run, truth = generate_run(cfg)
    markers = detect_markers(_cpu_power(run))
    segments = segment_events(run, markers)
    assert len(segments) == 9
    for seg in segments:
        start, end = truth.events[(seg.state, seg.event)]
        assert seg.start_index == start
        assert seg.end_index == end


def test_segments_replicated_across_rails_in_schedule_order():
    run, _ = generate_run(compact_scenario(seed=10))
    segments = segment_events(run, detect_markers(_cpu_power(run)))
    assert [(s.state, s.event) for s in segments] == list(run.schedule.entries)
    assert segments[0].state is MachineState.PRE_INFECTION
    powers = {rail: compute_power(trace).power for rail, trace in run.rails.items()}
    pool = segment_power_pool(powers, segments)
    assert list(pool) == [
        (state, event, rail) for state, event in run.schedule.entries for rail in RAIL_ORDER
    ]
    for seg in segments:
        for rail in RAIL_ORDER:
            window = powers[rail][seg.start_index : seg.end_index]
            assert np.array_equal(pool[(seg.state, seg.event, rail)], window)


def test_segments_never_overlap_markers():
    run, _ = generate_run(compact_scenario(seed=11))
    markers = detect_markers(_cpu_power(run))
    for seg in segment_events(run, markers):
        for marker in markers:
            assert seg.end_index <= marker.start_index or seg.start_index >= marker.end_index


def test_marker_count_mismatch_message():
    run, _ = generate_run(compact_scenario(seed=12))
    markers = detect_markers(_cpu_power(run))
    with pytest.raises(SegmentationError, match="expected 18 markers, found 17"):
        segment_events(run, markers[:-1])


def test_zero_length_segment_names_the_entry():
    run, _ = generate_run(compact_scenario(seed=13))
    markers = detect_markers(_cpu_power(run))
    squeezed = list(markers)
    # Make marker 1 start exactly where marker 0 ends: entry 0 vanishes.
    squeezed[1] = dataclasses.replace(markers[1], start_index=markers[0].end_index)
    with pytest.raises(SegmentationError, match="pre_infection/boot"):
        segment_events(run, squeezed)


def test_marker_length_helper():
    assert Marker(start_index=10, end_index=510, peak_power=60.0).length == 500
