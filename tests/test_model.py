import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
)
from powertrace.compare import ComparisonKind, Verdict
from powertrace.model import from_wire, to_wire, wire_scalar


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
    state = from_wire(MachineState, "post_infection_reboot", "state", ValueError)
    assert state is MachineState.POST_INFECTION_REBOOT


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
    samples = np.ones((10, 2 * len(RAIL_ORDER)))
    run = _tiny_run(samples=samples)
    assert samples.flags.writeable  # the run holds a read-only view, not the caller's array
    trace = run.rails[RailKind.RAIL_5V]
    with pytest.raises(ValueError):
        trace.voltage[0] = 0.0
    with pytest.raises(TypeError):
        run.rails[RailKind.RAIL_5V] = trace


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
    run, truth = generate_run(compact_scenario(seed=3))
    assert run.samples.shape == (truth.sample_count, 2 * len(RAIL_ORDER))
    assert not run.samples.flags.writeable
    for j, rail in enumerate(RAIL_ORDER):
        trace = run.rails[rail]
        assert trace.rail is rail and trace.sample_period == run.sample_period
        assert np.shares_memory(trace.voltage, run.samples)
        assert np.array_equal(trace.voltage, run.samples[:, 2 * j])
        assert np.array_equal(trace.current, run.samples[:, 2 * j + 1])


def _tiny_run(**overrides) -> CaptureRun:
    row = [value for rail in RAIL_ORDER for value in (RAIL_NOMINAL_VOLTAGE[rail], 1.0)]
    samples = np.tile(row, (10, 1))
    kwargs = dict(run_id="t", rootkit_label="t", dataset_index=1, samples=samples)
    kwargs.update(overrides)
    return CaptureRun(**kwargs)


@pytest.mark.parametrize("shape", [(0, 8), (10, 7), (10,), (2, 10, 8)])
def test_capture_run_rejects_a_table_of_the_wrong_shape(shape):
    with pytest.raises(ValueError, match=r"sample table has shape .*, expected \(n > 0, 8\)"):
        _tiny_run(samples=np.ones(shape))


def test_capture_run_rejects_non_positive_sample_period():
    with pytest.raises(ValueError, match="non-positive sample_period 0.0"):
        _tiny_run(sample_period=0.0)


def test_capture_run_rejects_non_finite_sample_period():
    with pytest.raises(ValueError, match="non-finite sample_period inf"):
        _tiny_run(sample_period=math.inf)
    with pytest.raises(ValueError, match="non-positive sample_period nan"):
        _tiny_run(sample_period=math.nan)


def test_validate_run_reports_bad_dataset_index():
    with pytest.raises(ValueError, match="dataset_index must be >= 1, got 0"):
        _tiny_run(dataset_index=0)


def test_validate_run_reports_disordered_schedule():
    sched = RunSchedule(entries=(
        (MachineState.POST_INFECTION, EventKind.IDLE),
        (MachineState.PRE_INFECTION, EventKind.IDLE),
    ))
    with pytest.raises(ValueError, match="not ordered by machine state at position 1"):
        _tiny_run(schedule=sched)


def test_validate_run_reports_empty_schedule():
    with pytest.raises(ValueError, match="schedule has no entries"):
        _tiny_run(schedule=RunSchedule(entries=()))


def test_capture_run_names_every_violation():
    with pytest.raises(ValueError, match="dataset_index .*; schedule has no entries"):
        _tiny_run(dataset_index=0, schedule=RunSchedule(entries=()))


# The two wire decoders before their constant-time forms, kept as oracles:
# the new forms must return the same values and raise the same errors.


def _scanning_from_wire(kind, value, what, error):
    for member in kind:
        if to_wire(member) == value:
            return member
    names = ", ".join(to_wire(member) for member in kind)
    raise error(f"unknown {what} {value!r} (choose from {names})")


def _checking_wire_scalar(kind, value, context, error):
    if isinstance(value, bool) == (kind is bool):
        if kind is float and isinstance(value, int) and abs(value) <= sys.float_info.max:
            return float(value)
        if isinstance(value, kind) and (kind is not float or math.isfinite(value)):
            return value
    raise error(f"{context}: expected {kind.__name__}, got {value!r}")


def _outcome(decode, *args):
    """(type, repr) of what *decode* returns, or (error class, message) of what it raises."""
    try:
        result = decode(*args)
    except Exception as exc:  # noqa: BLE001 - the class is part of the outcome
        return type(exc), str(exc)
    return type(result), repr(result)


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


CONTAINERS = st.one_of(
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
)
WIRE_SCALARS = st.one_of(
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from([10**400, -(10**400), 2**1024, float("nan"), float("inf"),
                     float("-inf"), -0.0, sys.float_info.max]),
    st.floats(),
    st.builds(_Int, st.integers()),
    st.builds(_Float, st.floats()),
    st.builds(_Str, st.text(max_size=4)),
    st.text(max_size=4),
    st.none(),
    CONTAINERS,
)


@given(kind=st.sampled_from([int, float, bool, str]), value=WIRE_SCALARS)
def test_wire_scalar_equals_the_checking_decoder(kind, value):
    args = (kind, value, "field", ValueError)
    assert _outcome(wire_scalar, *args) == _outcome(_checking_wire_scalar, *args)


DECODED_ENUMS = (RailKind, MachineState, EventKind, ComparisonKind, Verdict)
WIRE_NAMES = [to_wire(member) for kind in DECODED_ENUMS for member in kind]


@given(
    kind=st.sampled_from(DECODED_ENUMS),
    value=st.one_of(
        st.sampled_from(WIRE_NAMES),
        st.sampled_from(WIRE_NAMES).map(str.upper),
        st.sampled_from(WIRE_NAMES).map(str.title),
        st.builds(_Str, st.sampled_from(WIRE_NAMES)),
        st.text(max_size=4),
        st.none(),
        st.integers(),
        st.booleans(),
        st.floats(),
        CONTAINERS,
    ),
)
def test_from_wire_equals_the_scanning_decoder(kind, value):
    args = (kind, value, "name", ValueError)
    result = _outcome(from_wire, *args)
    assert result == _outcome(_scanning_from_wire, *args)
    if result[0] is kind:
        assert from_wire(*args) is _scanning_from_wire(*args)
