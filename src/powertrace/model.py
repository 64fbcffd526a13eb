"""Core domain types: rails, sampled traces, runs, schedules, and labels.

All types are immutable after construction and safe to share across
threads. Validation never raises here; :func:`validate_run` reports
violations as data so that malformed runs can be inspected.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum, IntEnum

import numpy as np

DEFAULT_SAMPLE_PERIOD_S = 0.010


class RailKind(Enum):
    """The four monitored PSU rails of the final grouped configuration."""

    RAIL_3V3 = "3v3"
    RAIL_5V = "5v"
    RAIL_12V_MB = "12v_mb"
    RAIL_12V_CPU = "12v_cpu"

    @property
    def wire_name(self) -> str:
        """Short name used in CSV columns and manifest keys."""
        return self.value


# Canonical iteration order: CSV column order, report order, RNG draw order.
RAIL_ORDER: tuple[RailKind, ...] = tuple(RailKind)

# Nominal DC voltage per rail; the two 12V groups share a level but are
# separate measurement channels.
RAIL_NOMINAL_VOLTAGE: dict[RailKind, float] = {
    RailKind.RAIL_3V3: 3.3,
    RailKind.RAIL_5V: 5.0,
    RailKind.RAIL_12V_MB: 12.0,
    RailKind.RAIL_12V_CPU: 12.0,
}


class MachineState(IntEnum):
    """Experimental condition a segment was recorded under; totally ordered."""

    PRE_INFECTION = 1
    POST_INFECTION = 2
    POST_INFECTION_REBOOT = 3

    @property
    def wire_name(self) -> str:
        return self.name.lower()


# MachineState's values are its order, so its wire names need their own map.
STATE_BY_WIRE: dict[str, MachineState] = {state.wire_name: state for state in MachineState}


class EventKind(Enum):
    """Scripted workload captured between one marker pair.

    BOOT covers both the initial boot and the post-infection reboots; the
    machine state distinguishes them.
    """

    BOOT = "boot"
    IDLE = "idle"
    OPEN_BROWSER = "open_browser"

    @property
    def wire_name(self) -> str:
        return self.value


def to_wire(value):
    """JSON-ready copy of a dataclass, dict or list; enums become wire names."""
    if isinstance(value, Enum):
        return getattr(value, "wire_name", value.value)
    if is_dataclass(value):
        return {f.name: to_wire(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {to_wire(k): to_wire(v) for k, v in value.items()}
    if isinstance(value, list):
        return [to_wire(v) for v in value]
    return value


def _as_readonly_f64(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RailTrace:
    """Synchronously sampled voltage and current for one rail.

    Timestamps are implicit: sample k occurs at ``k * sample_period``.
    Current may be negative (sensor noise around zero); nothing is clamped
    at this layer.
    """

    rail: RailKind
    voltage: np.ndarray
    current: np.ndarray
    sample_period: float = DEFAULT_SAMPLE_PERIOD_S

    def __post_init__(self):
        object.__setattr__(self, "voltage", _as_readonly_f64(self.voltage))
        object.__setattr__(self, "current", _as_readonly_f64(self.current))

    def __len__(self) -> int:
        return int(self.voltage.shape[0])

    @property
    def duration_s(self) -> float:
        """Reported as N x sample_period (a 3000-sample trace at 10 ms is 30 s)."""
        return len(self) * self.sample_period


@dataclass(frozen=True)
class PowerSeries:
    """Instantaneous power for one rail; derive via power.compute_power."""

    rail: RailKind
    power: np.ndarray
    sample_period: float = DEFAULT_SAMPLE_PERIOD_S
    negative_samples: int = 0

    def __post_init__(self):
        object.__setattr__(self, "power", _as_readonly_f64(self.power))

    def __len__(self) -> int:
        return int(self.power.shape[0])

    @property
    def duration_s(self) -> float:
        return len(self) * self.sample_period


@dataclass(frozen=True)
class RunSchedule:
    """Ordered (state, event) script plus the marker count it implies."""

    entries: tuple[tuple[MachineState, EventKind], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((MachineState(s), EventKind(e)) for s, e in self.entries))

    @property
    def expected_marker_count(self) -> int:
        """One (start, end) marker pair delimits every entry."""
        return 2 * len(self.entries)

    @classmethod
    def default(cls) -> "RunSchedule":
        """Nine entries: boot, idle, open-browser under each of the three states."""
        events = (EventKind.BOOT, EventKind.IDLE, EventKind.OPEN_BROWSER)
        entries = tuple((state, event) for state in MachineState for event in events)
        return cls(entries=entries)


@dataclass(frozen=True)
class CaptureRun:
    """One recorded experiment: four rail traces plus labeling metadata."""

    run_id: str
    rootkit_label: str
    dataset_index: int
    rails: dict[RailKind, RailTrace]
    schedule: RunSchedule = field(default_factory=RunSchedule.default)

    def trace(self, rail: RailKind) -> RailTrace:
        return self.rails[rail]


def validate_run(run: CaptureRun) -> list[str]:
    """Collect every invariant violation in *run*; empty list means valid.

    Pure and idempotent; never mutates or raises on bad data.
    """
    violations: list[str] = []

    present = set(run.rails)
    for kind in RAIL_ORDER:
        if kind not in present:
            violations.append(f"missing rail {kind.wire_name}")
    for key in run.rails:
        if not isinstance(key, RailKind):
            violations.append(f"unknown rail key {key!r}")

    reference: RailTrace | None = None
    for kind in RAIL_ORDER:
        trace = run.rails.get(kind)
        if trace is None:
            continue
        w = kind.wire_name
        if trace.rail is not kind:
            violations.append(f"rail {w}: trace labeled {trace.rail.wire_name} stored under {w}")
        if len(trace.voltage) != len(trace.current):
            violations.append(
                f"rail {w}: voltage length {len(trace.voltage)} != current length {len(trace.current)}"
            )
        if len(trace.voltage) == 0:
            violations.append(f"rail {w}: empty trace")
        if not trace.sample_period > 0:
            violations.append(f"rail {w}: non-positive sample_period {trace.sample_period}")
        if reference is None:
            reference = trace
        else:
            if trace.sample_period != reference.sample_period:
                violations.append(
                    f"rail {w}: sample_period {trace.sample_period} differs from "
                    f"{reference.sample_period} on rail {reference.rail.wire_name}"
                )
            if len(trace.voltage) != len(reference.voltage):
                violations.append(
                    f"rail {w}: length {len(trace.voltage)} differs from "
                    f"{len(reference.voltage)} on rail {reference.rail.wire_name}"
                )

    if run.dataset_index < 1:
        violations.append(f"dataset_index must be >= 1, got {run.dataset_index}")

    entries = run.schedule.entries
    for i in range(1, len(entries)):
        if entries[i][0] < entries[i - 1][0]:
            violations.append(f"schedule entries not ordered by machine state at position {i}")
    if not entries:
        violations.append("schedule has no entries")

    return violations
