import numpy as np
import pytest

from conftest import compact_scenario
from powertrace import (
    RAIL_NOMINAL_VOLTAGE,
    RAIL_ORDER,
    CaptureRun,
    EventKind,
    MachineState,
    RailKind,
    RailTrace,
    RunSchedule,
    generate_run,
    validate_run,
)
from powertrace.model import STATE_BY_WIRE


def test_rail_wire_names_and_order():
    assert [r.wire_name for r in RAIL_ORDER] == ["3v3", "5v", "12v_mb", "12v_cpu"]
    assert RailKind("12v_cpu") is RailKind.RAIL_12V_CPU
    with pytest.raises(ValueError):
        RailKind("24v")


def test_nominal_voltages():
    assert RAIL_NOMINAL_VOLTAGE[RailKind.RAIL_3V3] == 3.3
    assert RAIL_NOMINAL_VOLTAGE[RailKind.RAIL_5V] == 5.0
    # Two separate 12V measurement channels at one level.
    assert RAIL_NOMINAL_VOLTAGE[RailKind.RAIL_12V_MB] == 12.0
    assert RAIL_NOMINAL_VOLTAGE[RailKind.RAIL_12V_CPU] == 12.0


def test_machine_states_are_totally_ordered():
    assert MachineState.PRE_INFECTION < MachineState.POST_INFECTION < MachineState.POST_INFECTION_REBOOT
    assert len(MachineState) == 3
    assert STATE_BY_WIRE["post_infection_reboot"] is MachineState.POST_INFECTION_REBOOT


def test_event_kinds():
    assert {e.wire_name for e in EventKind} == {"boot", "idle", "open_browser"}
    with pytest.raises(ValueError):
        EventKind("reboot")  # reboot is a state, not an event


def test_trace_duration_is_count_times_period():
    trace = RailTrace(
        rail=RailKind.RAIL_5V,
        voltage=np.full(3000, 5.0),
        current=np.ones(3000),
        sample_period=0.010,
    )
    assert len(trace) == 3000
    assert trace.duration_s == 30.0


def test_trace_arrays_are_read_only():
    trace = RailTrace(rail=RailKind.RAIL_5V, voltage=[5.0, 5.0], current=[1.0, 1.0])
    with pytest.raises(ValueError):
        trace.voltage[0] = 0.0


def test_default_schedule_is_nine_entries_eighteen_markers():
    sched = RunSchedule.default()
    assert len(sched.entries) == 9
    assert sched.expected_marker_count == 18
    states = [s for s, _ in sched.entries]
    assert states == sorted(states)
    # every (state, event) combination exactly once
    assert len(set(sched.entries)) == 9


def test_schedule_marker_count_defaults_to_twice_entries():
    sched = RunSchedule(entries=((MachineState.PRE_INFECTION, EventKind.IDLE),))
    assert sched.expected_marker_count == 2


def test_validate_run_accepts_generated_run():
    run, _ = generate_run(compact_scenario(seed=3))
    assert validate_run(run) == []


def _tiny_run(**overrides) -> CaptureRun:
    rails = {
        rail: RailTrace(rail=rail, voltage=np.full(10, RAIL_NOMINAL_VOLTAGE[rail]),
                        current=np.ones(10))
        for rail in RAIL_ORDER
    }
    kwargs = dict(run_id="t", rootkit_label="t", dataset_index=1, rails=rails)
    kwargs.update(overrides)
    return CaptureRun(**kwargs)


def test_validate_run_reports_missing_rail():
    run = _tiny_run()
    del run.rails[RailKind.RAIL_5V]
    assert any("missing rail 5v" in v for v in validate_run(run))


def test_validate_run_reports_mislabeled_trace():
    run = _tiny_run()
    wrong = RailTrace(rail=RailKind.RAIL_3V3, voltage=np.full(10, 5.0), current=np.ones(10))
    run.rails[RailKind.RAIL_5V] = wrong
    assert any("labeled 3v3" in v for v in validate_run(run))


def test_validate_run_reports_length_mismatch():
    run = _tiny_run()
    run.rails[RailKind.RAIL_5V] = RailTrace(
        rail=RailKind.RAIL_5V, voltage=np.full(10, 5.0), current=np.ones(9)
    )
    violations = validate_run(run)
    assert any("voltage length 10 != current length 9" in v for v in violations)


def test_validate_run_reports_cross_rail_length_difference():
    run = _tiny_run()
    run.rails[RailKind.RAIL_12V_CPU] = RailTrace(
        rail=RailKind.RAIL_12V_CPU, voltage=np.full(8, 12.0), current=np.ones(8)
    )
    assert any("differs from" in v for v in validate_run(run))


def test_validate_run_reports_bad_dataset_index():
    run = _tiny_run(dataset_index=0)
    assert any("dataset_index" in v for v in validate_run(run))


def test_validate_run_reports_disordered_schedule():
    sched = RunSchedule(entries=(
        (MachineState.POST_INFECTION, EventKind.IDLE),
        (MachineState.PRE_INFECTION, EventKind.IDLE),
    ))
    run = _tiny_run(schedule=sched)
    assert any("not ordered" in v for v in validate_run(run))


def test_validate_run_reports_empty_schedule():
    run = _tiny_run(schedule=RunSchedule(entries=()))
    assert any("no entries" in v for v in validate_run(run))
