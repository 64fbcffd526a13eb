"""Tests for the synthetic testbed generator."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compact_scenario, idle_delta
from powertrace import (
    CalibrationConfig,
    ComparisonKind,
    ComparisonReport,
    EventKind,
    InfectionEffect,
    MachineState,
    Manifest,
    PowerTraceError,
    RAIL_ORDER,
    RailKind,
    ScenarioConfig,
    ScenarioConfigError,
    ScheduleEntry,
    Verdict,
    classify_increment,
    compute_power,
    detect_markers,
    estimate_lag,
    generate_ensemble,
    generate_run,
    ground_truth_to_json,
    scenario_from_dict,
    write_capture,
)
from powertrace.model import decode, to_wire
from powertrace.synth import MARKER_RAIL, MAX_SAMPLES, check_ensemble


def _power(run, rail):
    trace = run.rails[rail]
    return trace.voltage * trace.current


def test_default_run_shape_and_truth():
    run, truth = generate_run(compact_scenario(7))
    lengths = {len(run.rails[r]) for r in RAIL_ORDER}
    assert lengths == {truth.sample_count}
    assert len(truth.markers) == 18
    assert len(truth.events) == 9
    assert run.samples.shape == (truth.sample_count, 2 * len(RAIL_ORDER))
    # Marker windows and event windows are disjoint and ordered.
    spans = sorted(truth.markers) + sorted(truth.events.values())
    spans.sort()
    for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
        assert s0 < e0 <= s1 < e1


def test_event_spans_sit_between_marker_pairs():
    run, truth = generate_run(compact_scenario(3))
    markers = sorted(truth.markers)
    ordered_events = [truth.events[(entry.state, entry.event)] for entry in run.schedule]
    for k, (start, end) in enumerate(ordered_events):
        assert start == markers[2 * k][1]
        assert end == markers[2 * k + 1][0]


def _noiseless(seed, **overrides):
    return compact_scenario(
        seed,
        noise_sigma={r: 0.0 for r in RAIL_ORDER},
        voltage_noise_sigma=0.0,
        **overrides,
    )


def test_noiseless_clean_run_repeats_event_shapes_across_states():
    run, truth = generate_run(_noiseless(11))
    for rail in RAIL_ORDER:
        power = _power(run, rail)
        for event in EventKind:
            slices = []
            for state in MachineState:
                s, e = truth.events[(state, event)]
                slices.append(power[s:e])
            assert np.array_equal(slices[0], slices[1])
            assert np.array_equal(slices[0], slices[2])


def test_noiseless_infection_delta_is_exact():
    effect = InfectionEffect(delta_power=idle_delta(1.0))
    run, truth = generate_run(_noiseless(11, infection=effect))
    pre = truth.events[(MachineState.PRE_INFECTION, EventKind.IDLE)]
    post = truth.events[(MachineState.POST_INFECTION, EventKind.IDLE)]
    power = _power(run, RailKind.RAIL_12V_MB)
    report = classify_increment(
        power[pre[0] : pre[1]], power[post[0] : post[1]], sample_period=0.010
    )
    assert report.delta_w == pytest.approx(1.0, abs=1e-12)
    assert truth.applied_deltas[
        (MachineState.POST_INFECTION, EventKind.IDLE, RailKind.RAIL_12V_MB)
    ] == 1.0


def test_generation_is_deterministic():
    config = compact_scenario(42)
    run_a, truth_a = generate_run(config)
    run_b, truth_b = generate_run(config)
    assert truth_a == truth_b
    for rail in RAIL_ORDER:
        assert np.array_equal(run_a.rails[rail].voltage, run_b.rails[rail].voltage)
        assert np.array_equal(run_a.rails[rail].current, run_b.rails[rail].current)


def test_written_captures_are_deterministic(tmp_path):
    config = compact_scenario(42)
    cal = CalibrationConfig()
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    for out_dir in (dir_a, dir_b):
        out_dir.mkdir()
        run, _ = generate_run(config)
        write_capture(run, cal, out_dir)
    for name in ("synthetic-d1-s42.csv", "synthetic-d1-s42.manifest.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_ensemble_matches_per_index_generation():
    config = compact_scenario(9)
    runs = generate_ensemble(config, 3)
    assert len(runs) == 3
    ids = set()
    for k, (run, truth) in enumerate(runs):
        solo_run, solo_truth = generate_run(config, dataset_index=k + 1)
        assert truth == solo_truth
        assert run.run_id == solo_run.run_id
        assert run.dataset_index == k + 1
        ids.add(run.run_id)
        for rail in RAIL_ORDER:
            assert np.array_equal(
                run.rails[rail].current, solo_run.rails[rail].current
            )
    assert len(ids) == 3


def test_ensemble_per_dataset_infections():
    effect = InfectionEffect(delta_power=idle_delta(2.0))
    runs = generate_ensemble(
        compact_scenario(5), 3, per_dataset_infections=[None, effect, None]
    )
    key = (MachineState.POST_INFECTION, EventKind.IDLE, RailKind.RAIL_12V_MB)
    deltas = [truth.applied_deltas.get(key, 0.0) for _, truth in runs]
    assert deltas == [0.0, 2.0, 0.0]
    with pytest.raises(ScenarioConfigError, match="3"):
        generate_ensemble(compact_scenario(5), 3, per_dataset_infections=[None])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_dataset_built_alone_equals_it_built_in_the_batch(k):
    # Dataset 2 lags, so the three runs differ in length as well as in samples.
    config, overrides = scenario_from_dict({
        "seed": 12, "idle_duration": 10.0, "ie_windows": 4, "ie_spacing": 2.5,
        "boot_duration": 8.0, "infection": {"spike_rate_per_min": 6.0},
        "dataset_infections": [None, {"lag_s": 0.3, "delta_power": {"5v": {"idle": 1.0}}}, {}],
    })
    batch = generate_ensemble(config, 3, overrides)
    [(run, truth)] = generate_ensemble(config, 3, overrides, indices=[k])
    batch_run, batch_truth = batch[k - 1]
    assert np.array_equal(run.samples, batch_run.samples)
    assert truth == batch_truth
    assert run.run_id == batch_run.run_id == f"synthetic-d{k}-s12"
    assert run.dataset_index == k
    assert len({truth.sample_count for _, truth in batch}) == 2


def test_ensemble_indices_are_checked():
    config = compact_scenario(5)
    assert generate_ensemble(config, 3, indices=[]) == []
    for bad in (0, 4):
        with pytest.raises(ScenarioConfigError, match=f"dataset index {bad} is outside 1..3"):
            generate_ensemble(config, 3, indices=[1, bad])


@pytest.mark.parametrize(
    "config, infections, message",
    [
        (ScenarioConfig(seed=1, ie_windows=10**18), None,
         "dataset 1: a run of 1500000000000000039600 samples is more than"),
        (ScenarioConfig(seed=1, sample_period=1e-300), None,
         "dataset 1: gap_duration 1.0 s is 1e+300 samples at a sample period of 1e-300 s"),
        (ScenarioConfig(seed=1, sample_period=5e-324), None, "is inf samples"),
        (compact_scenario(1), [None, None, InfectionEffect(lag_s=1e16)],
         "dataset 3: infection.lag_s 1e+16 s is 1e+18 samples"),
    ],
    ids=["ie_windows", "sample_period", "subnormal_period", "dataset_lag"],
)
def test_check_ensemble_rejects_an_impossible_sample_count(config, infections, message):
    with pytest.raises(ScenarioConfigError, match=re.escape(message)):
        check_ensemble(config, 3, infections)
    with pytest.raises(ScenarioConfigError, match=f"more than the {MAX_SAMPLES} a run"):
        generate_ensemble(config, 3, infections)


def test_check_ensemble_checks_the_arguments():
    check_ensemble(compact_scenario(1), 2, [None, InfectionEffect(lag_s=1.0)])
    with pytest.raises(ScenarioConfigError, match="n_datasets must be >= 1, got 0"):
        check_ensemble(compact_scenario(1), 0)
    with pytest.raises(ScenarioConfigError, match="has 1 entries for 2 datasets"):
        check_ensemble(compact_scenario(1), 2, [None])


def test_detection_recovers_generated_markers():
    run, truth = generate_run(compact_scenario(21))
    series = compute_power(run.rails[MARKER_RAIL])
    markers = detect_markers(series, expected_count=18)
    assert len(markers) == 18
    for marker, (s, e) in zip(markers, sorted(truth.markers)):
        assert abs(marker.start_index - s) <= 1
        assert abs(marker.end_index - e) <= 1


def test_lag_recovery_on_stepped_load():
    effect = InfectionEffect(lag_s=0.12)
    run, truth = generate_run(_noiseless(33, infection=effect))
    assert truth.lag_samples == 12
    pre = truth.events[(MachineState.PRE_INFECTION, EventKind.OPEN_BROWSER)]
    post = truth.events[(MachineState.POST_INFECTION, EventKind.OPEN_BROWSER)]
    power = _power(run, RailKind.RAIL_12V_CPU)
    result = estimate_lag(
        power[pre[0] : pre[1]],
        power[post[0] : post[1]],
        max_lag=0.05,
        sample_period=0.010,
    )
    assert result.lag_samples == 12


def test_spike_schedule_matches_rate():
    effect = InfectionEffect(spike_rate_per_min=30.0, spike_amplitude=15.0)
    config = _noiseless(13, infection=effect)
    run, truth = generate_run(config)
    suspect = {MachineState.POST_INFECTION, MachineState.POST_INFECTION_REBOOT}
    assert set(truth.spike_indices) == {(s, e) for s in suspect for e in EventKind}
    body_seconds = {
        EventKind.BOOT: config.boot_duration,
        EventKind.IDLE: config.idle_duration,
        EventKind.OPEN_BROWSER: config.ie_windows * config.ie_spacing,
    }
    for (state, event), indices in truth.spike_indices.items():
        assert len(indices) == round(30.0 * body_seconds[event] / 60.0)
        start, end = truth.events[(state, event)]
        assert all(start <= i < end for i in indices)
        assert len(set(indices)) == len(indices)
    # Each spike lands on every rail at the same instant, exactly once the
    # noise is turned off.
    infected = sorted(i for idxs in truth.spike_indices.values() for i in idxs)
    clean_run, _ = generate_run(_noiseless(13))
    for rail in RAIL_ORDER:
        bumps = _power(run, rail)[infected] - _power(clean_run, rail)[infected]
        assert np.allclose(bumps, 15.0, atol=1e-9)


def test_scenario_validation_rejects_bad_values():
    with pytest.raises(ScenarioConfigError):
        compact_scenario(1, sample_period=0.0)
    with pytest.raises(ScenarioConfigError):
        compact_scenario(1, idle_duration=-1.0)
    with pytest.raises(ScenarioConfigError):
        compact_scenario(1, ie_windows=0)
    with pytest.raises(ScenarioConfigError):
        compact_scenario(1, marker_duration=0.0)
    with pytest.raises(ScenarioConfigError):
        compact_scenario(1, noise_sigma={RailKind.RAIL_3V3: -0.1})
    with pytest.raises(ScenarioConfigError, match="5v"):
        compact_scenario(
            1, baseline_power={RailKind.RAIL_3V3: {e: 1.0 for e in EventKind}}
        )
    with pytest.raises(ScenarioConfigError):
        InfectionEffect(delta_power=idle_delta(1.0), spike_rate_per_min=-1.0)
    with pytest.raises(ScenarioConfigError):
        generate_run(compact_scenario(1), dataset_index=0)


def test_scenario_from_dict_defaults_and_overrides():
    config, overrides = scenario_from_dict({"seed": 17})
    assert config.seed == 17
    assert config.sample_period == 0.010
    assert overrides is None

    obj = {
        "seed": 4,
        "idle_duration": 12.5,
        "infection": {
            "delta_power": {"12v_mb": {"idle": 1.5}},
            "lag_s": 0.05,
        },
        "dataset_infections": [None, {"delta_power": {"5v": {"boot": 0.25}}}],
    }
    config, overrides = scenario_from_dict(obj)
    assert config.idle_duration == 12.5
    assert config.infection is not None
    assert (
        config.infection.delta_power[RailKind.RAIL_12V_MB][EventKind.IDLE] == 1.5
    )
    assert config.infection.lag_s == 0.05
    assert overrides is not None and len(overrides) == 2
    assert overrides[0] is None
    assert overrides[1].delta_power[RailKind.RAIL_5V][EventKind.BOOT] == 0.25


def test_scenario_from_dict_rejects_garbage():
    with pytest.raises(ScenarioConfigError, match="seed"):
        scenario_from_dict({})
    with pytest.raises(ScenarioConfigError, match="wheelbase"):
        scenario_from_dict({"seed": 1, "wheelbase": 2.4})
    with pytest.raises(ScenarioConfigError, match="24v"):
        scenario_from_dict(
            {"seed": 1, "infection": {"delta_power": {"24v": {"idle": 1.0}}}}
        )
    with pytest.raises(ScenarioConfigError, match="nap"):
        scenario_from_dict(
            {"seed": 1, "infection": {"delta_power": {"5v": {"nap": 1.0}}}}
        )


def _floats(low=None, strict=False):
    return st.floats(min_value=low, exclude_min=strict, allow_nan=False, allow_infinity=False)


def _table(levels, cells):
    """Rail or rail-and-event tables with a *cells* value in every cell."""
    if not levels:
        return cells
    return st.fixed_dictionaries({key: _table(levels[1:], cells) for key in levels[0]})


def _builds(cls, **fields):
    # Every init field gets a strategy, so a new field must be added here.
    assert fields.keys() == {f.name for f in dataclasses.fields(cls) if f.init}
    return st.builds(cls, **fields)


INFECTIONS = _builds(
    InfectionEffect,
    delta_power=_table((RAIL_ORDER, EventKind), _floats()),
    lag_s=_floats(0),
    spike_rate_per_min=_floats(0),
    spike_amplitude=_floats(0),
)
SCENARIOS = _builds(
    ScenarioConfig,
    seed=st.integers(min_value=0),
    sample_period=_floats(0, strict=True),
    rootkit_label=st.text(max_size=8),
    baseline_power=_table((RAIL_ORDER, EventKind), _floats(0)),
    noise_sigma=_table((RAIL_ORDER,), _floats(0)),
    voltage_noise_sigma=_floats(0),
    marker_amplitude=_floats(0, strict=True),
    marker_duration=_floats(0, strict=True),
    gap_duration=_floats(0, strict=True),
    idle_duration=_floats(0, strict=True),
    ie_windows=st.integers(min_value=1),
    ie_spacing=_floats(0, strict=True),
    ie_step_power=_floats(0),
    boot_duration=_floats(0, strict=True),
    boot_ramp_power=_floats(0),
    infection=INFECTIONS,
)


@settings(max_examples=100, deadline=None)
@given(SCENARIOS, st.lists(st.none() | INFECTIONS, max_size=3))
def test_scenario_json_round_trips(config, infections):
    wire = json.loads(json.dumps({**to_wire(config), "dataset_infections": to_wire(infections)}))
    assert scenario_from_dict(wire) == (config, infections)


REPORTS = _builds(
    ComparisonReport,
    baseline_median_w=_floats(),
    suspect_median_w=_floats(),
    delta_w=_floats(),
    relative_increase=st.none() | _floats(),
    lag_s=_floats(),
    lag_samples=st.integers(),
    lag_zero_variance=st.booleans(),
    baseline_spikes=st.integers(min_value=0),
    suspect_spikes=st.integers(min_value=0),
    verdict=st.sampled_from(Verdict),
    kind=st.sampled_from(ComparisonKind),
    rail=st.sampled_from(RailKind),
    noisy=st.booleans(),
)
CALIBRATIONS = _builds(
    CalibrationConfig,
    voltage_scale=_table((RAIL_ORDER,), _floats(0, strict=True)),
    current_scale=_table((RAIL_ORDER,), _floats(0, strict=True)),
    adc_bits=st.integers(min_value=8, max_value=24),
    adc_full_scale=_floats(0, strict=True),
)

SCHEDULES = st.lists(
    _builds(ScheduleEntry, state=st.sampled_from(MachineState), event=st.sampled_from(EventKind)),
    max_size=len(MachineState) * len(EventKind),
).map(tuple)
MANIFESTS = SCHEDULES.flatmap(lambda schedule: _builds(
    Manifest,
    run_id=st.text(),
    rootkit_label=st.text(),
    dataset_index=st.integers(),
    sample_period_s=_floats(0, strict=True),
    units=st.sampled_from(["engineering", "raw"]),
    schedule=st.just(schedule),
    expected_marker_count=st.just(2 * len(schedule)),
    calibration=CALIBRATIONS,
))


@settings(max_examples=100, deadline=None)
@given(REPORTS | CALIBRATIONS | MANIFESTS)
def test_report_and_calibration_json_round_trip(value):
    wire = json.loads(json.dumps(to_wire(value)))
    assert decode(type(value), wire, "", PowerTraceError) == value


@st.composite
def _subtree(draw, node):
    """*node* with a random subset of the keys of each object it holds."""
    if not isinstance(node, dict):
        return node
    keys = draw(st.lists(st.sampled_from(sorted(node)), unique=True))
    return {key: draw(_subtree(node[key])) for key in keys}


def _merged(base, sub):
    if not isinstance(base, dict):
        return sub
    return {**base, **{key: _merged(base[key], value) for key, value in sub.items()}}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_partial_scenario_merges_over_the_defaults(data):
    wire = to_wire(data.draw(SCENARIOS))
    sub = {**data.draw(_subtree(wire)), "seed": wire["seed"]}
    config, _ = scenario_from_dict(sub)
    assert to_wire(config) == _merged(to_wire(ScenarioConfig(seed=0)), sub)


def _nan_cell(table):
    table = {rail: dict(events) for rail, events in table.items()}
    table[RailKind.RAIL_5V][EventKind.IDLE] = math.nan
    return table


@pytest.mark.parametrize(
    "build",
    [
        lambda: compact_scenario(1, ie_step_power=math.nan),
        lambda: compact_scenario(1, boot_ramp_power=math.nan),
        lambda: compact_scenario(1, voltage_noise_sigma=math.nan),
        lambda: compact_scenario(1, noise_sigma={r: math.nan for r in RAIL_ORDER}),
        lambda: compact_scenario(1, baseline_power=_nan_cell(ScenarioConfig(seed=0).baseline_power)),
        lambda: InfectionEffect(lag_s=math.nan),
        lambda: InfectionEffect(spike_rate_per_min=math.nan),
        lambda: InfectionEffect(spike_amplitude=math.nan),
        lambda: InfectionEffect(delta_power=_nan_cell(idle_delta(1.0))),
    ],
    ids=[
        "ie_step_power", "boot_ramp_power", "voltage_noise_sigma", "noise_sigma",
        "baseline_power", "lag_s", "spike_rate_per_min", "spike_amplitude", "delta_power",
    ],
)
def test_a_nan_setting_is_rejected(build):
    with pytest.raises(ScenarioConfigError, match="nan"):
        build()


def test_ground_truth_json_layout():
    run, truth = generate_run(compact_scenario(2))
    payload = ground_truth_to_json(truth)
    json.dumps(payload)
    assert payload["sample_count"] == truth.sample_count
    assert payload["lag_samples"] == 0
    assert payload["markers"] == [[s, e] for s, e in truth.markers]
    assert set(payload["events"]) == {
        f"{entry.state.wire_name}/{entry.event.wire_name}" for entry in run.schedule
    }
    assert payload["events"]["pre_infection/boot"] == list(
        truth.events[(MachineState.PRE_INFECTION, EventKind.BOOT)]
    )
    # A clean run carries no infection entries at all.
    assert payload["applied_deltas"] == {}
    assert payload["spike_indices"] == {}

    effect = InfectionEffect(delta_power=idle_delta(1.0))
    _, infected = generate_run(compact_scenario(2, infection=effect))
    deltas = ground_truth_to_json(infected)["applied_deltas"]
    assert deltas == {
        "post_infection/idle/12v_mb": 1.0,
        "post_infection_reboot/idle/12v_mb": 1.0,
    }
