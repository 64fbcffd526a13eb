"""Core domain types: rails, sampled traces, runs, schedules, and labels.

All types are immutable after construction and safe to share across
threads. A CaptureRun checks its invariants when it is built.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import typing
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum, IntEnum
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING

from .errors import PowerTraceError

if TYPE_CHECKING:
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
    """JSON-ready copy of a dataclass, dict, list or tuple; enums become wire names."""
    if isinstance(value, Enum):
        return getattr(value, "wire_name", value.value)
    if is_dataclass(value):
        return {f.name: to_wire(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {to_wire(k): to_wire(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_wire(v) for v in value]
    return value


@functools.cache
def _members_by_wire(kind: type[Enum]) -> dict:
    """{wire name: member} for *kind*, in member order; built once per enum."""
    return {to_wire(member): member for member in kind}


def from_wire(kind: type[Enum], value, what: str, error: Callable[[str], Exception]):
    """The member of *kind* whose wire name is *value*; else raises *error*."""
    members = _members_by_wire(kind)
    try:
        return members[value]
    except (KeyError, TypeError):  # TypeError: an unhashable value, such as a list
        pass
    raise error(f"unknown {what} {value!r} (choose from {', '.join(members)})")


def wire_scalar(kind: type, value, context: str, error: type[Exception]):
    """*value*, decoded from JSON, as a *kind*: int, float, bool or str.

    Types are checked, not coerced: an int is an int and not a bool, a
    float is a finite int or float and not a bool. Anything else raises
    *error* naming *context*.
    """
    if type(value) is kind and (kind is not float or math.isfinite(value)):
        return value  # the common case: exactly the JSON type asked for
    if isinstance(value, bool) == (kind is bool):
        if kind is float and isinstance(value, int) and abs(value) <= sys.float_info.max:
            return float(value)
        if isinstance(value, kind) and (kind is not float or math.isfinite(value)):
            return value
    raise error(_at(context, f"expected {kind.__name__}, got {value!r}"))


class _Refused(Exception):
    """A value the decoder refuses. Each reader it passes on the way out puts
    its step in front of path, so that only a refusal builds a path."""

    path = ""


def decode(hint, obj, context: str, error: Callable[[str], Exception]):
    """*obj*, decoded from JSON, as a *hint*; else raises *error* naming the path.

    A dataclass is an object holding every init field and nothing else,
    a dict[Enum, V] table an object keyed by every member's wire name, a
    tuple[X, ...] a list, an enum a wire name, and int, float, bool and
    str are read by wire_scalar; X | None also takes null. Paths run from
    *context* in the form a.b[c]; a dataclass whose own checks fail names
    its path.
    """
    try:
        return _reader(hint)(obj)
    except _Refused as exc:  # a field of the root object has no leading dot
        path = context + exc.path if context else exc.path.removeprefix(".")
        raise error(_at(path, str(exc))) from None


def read_json(path: str | Path, what: str, error: Callable[[str], Exception]):
    """The JSON document in the file *path*, the *what* named in *error*'s message
    when the file cannot be read as UTF-8 or does not hold valid JSON."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # UnicodeDecodeError has no strerror
        raise error(f"cannot read {what} {path}: {reason}") from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also nesting or int digits past a limit
        raise error(f"{what} {path} is not valid JSON: {exc}") from None


def _at(context: str, message: str) -> str:
    return f"{context}: {message}" if context else message


def _object_reader(plan: tuple, build: Callable) -> Callable:
    """Reader of a JSON object that holds exactly the keys of *plan*.

    *plan* holds a (key, path step, reader) triple per key; *build* is
    called with the decoded values in plan order.
    """
    keys = [key for key, _, _ in plan]

    def read(obj):
        if not isinstance(obj, dict):
            raise _Refused(f"expected a JSON object, got {type(obj).__name__}")
        values = []  # a loop: on Python 3.11 a comprehension costs a call per object
        try:
            for key, step, read_value in plan:
                values.append(read_value(obj[key]))
        except KeyError:  # a key is missing
            values = None
        except _Refused as exc:
            exc.path = step + exc.path
            raise
        if values is None or len(obj) != len(plan):
            missing = [key for key in keys if key not in obj]
            unknown = sorted(obj.keys() - set(keys))
            raise _Refused(f"missing keys {missing}" if missing else f"unknown keys {unknown}")
        try:
            return build(*values)
        except (ValueError, PowerTraceError) as exc:  # a dataclass's own checks
            raise _Refused(str(exc)) from None

    return read


def _read_list(read_item: Callable, obj) -> tuple:
    if not isinstance(obj, list):  # not any iterable: a string is one too
        raise _Refused(f"expected a JSON list, got {type(obj).__name__}")
    values = []
    try:
        for item in obj:
            values.append(read_item(item))
    except _Refused as exc:
        exc.path = f"[{len(values)}]{exc.path}"  # the index of the refused item
        raise
    return tuple(values)


@functools.cache
def _reader(hint) -> Callable:
    """One obj -> value reader per hint, built once; it raises _Refused."""
    if is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        plan = tuple((f.name, f".{f.name}", _reader(hints[f.name])) for f in fields(hint) if f.init)
        return _object_reader(plan, hint)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is dict:
        members, read_value = _members_by_wire(args[0]), _reader(args[1])
        plan = tuple((name, f"[{name}]", read_value) for name in members)
        return _object_reader(plan, lambda *values: dict(zip(members.values(), values)))
    if typing.get_origin(hint) is tuple and args[1:] == (Ellipsis,):
        return functools.partial(_read_list, _reader(args[0]))
    if type(None) in args:
        (inner,) = (_reader(arg) for arg in args if arg is not type(None))
        return lambda obj: None if obj is None else inner(obj)
    if isinstance(hint, type) and issubclass(hint, Enum):
        members = _members_by_wire(hint)

        def read_enum(obj):
            try:
                return members[obj]
            except (KeyError, TypeError):  # from_wire words the error
                return from_wire(hint, obj, "name", _Refused)

        return read_enum
    if hint in (int, float, bool, str):
        return lambda obj: wire_scalar(hint, obj, "", _Refused)
    raise TypeError(f"cannot decode {hint!r}")


@dataclass(frozen=True)
class RailTrace:
    """Synchronously sampled voltage and current for one rail.

    Timestamps are implicit: sample k occurs at ``k * sample_period``.
    Current may be negative (sensor noise around zero); nothing is clamped
    at this layer. A run's traces are read-only views of its sample table.
    """

    rail: RailKind
    voltage: np.ndarray
    current: np.ndarray
    sample_period: float = DEFAULT_SAMPLE_PERIOD_S

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

    def __len__(self) -> int:
        return int(self.power.shape[0])

    @property
    def duration_s(self) -> float:
        return len(self) * self.sample_period


@dataclass(frozen=True)
class ScheduleEntry:
    """One (state, event) entry of a run's schedule, delimited by a marker pair."""

    state: MachineState
    event: EventKind


# Nine entries: boot, idle, open-browser under each of the three states.
DEFAULT_SCHEDULE: tuple[ScheduleEntry, ...] = tuple(
    ScheduleEntry(state, event) for state in MachineState for event in EventKind
)


@dataclass(frozen=True)
class CaptureRun:
    """One recorded experiment: a synchronously sampled table plus labels.

    samples is a read-only float64 (n, 8) view of the table it is given,
    in engineering units: column 2j holds the volts and column 2j + 1 the
    amperes of rail RAIL_ORDER[j], all sampled every sample_period seconds.
    rails maps each rail to a RailTrace of views into that table.
    Construction raises ValueError naming every violated invariant.
    """

    run_id: str
    rootkit_label: str
    dataset_index: int
    samples: np.ndarray
    sample_period: float = DEFAULT_SAMPLE_PERIOD_S
    schedule: tuple[ScheduleEntry, ...] = DEFAULT_SCHEDULE
    rails: Mapping[RailKind, RailTrace] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        import numpy as np  # here, so that importing the model does not load numpy

        samples = np.asarray(self.samples, dtype=np.float64).view()
        samples.setflags(write=False)
        columns = 2 * len(RAIL_ORDER)
        violations: list[str] = []
        if samples.ndim != 2 or samples.shape[1] != columns or len(samples) == 0:
            violations.append(
                f"sample table has shape {samples.shape}, expected (n > 0, {columns})"
            )
        if not self.sample_period > 0:
            violations.append(f"non-positive sample_period {self.sample_period}")
        elif not self.sample_period < math.inf:
            violations.append(f"non-finite sample_period {self.sample_period}")
        if not self.run_id:
            violations.append("run_id must not be empty")
        if self.dataset_index < 1:
            violations.append(f"dataset_index must be >= 1, got {self.dataset_index}")
        # The comparisons key segments by (state, event), so a repeated entry
        # would silently keep only its last segment.
        first: dict[ScheduleEntry, int] = {}
        for i, entry in enumerate(self.schedule):
            if i and entry.state < self.schedule[i - 1].state:
                violations.append(f"schedule entries not ordered by machine state at position {i}")
            if first.setdefault(entry, i) != i:
                violations.append(f"schedule entries {first[entry]} and {i} repeat "
                                  f"({entry.state.wire_name}, {entry.event.wire_name})")
        if not self.schedule:
            violations.append("schedule has no entries")
        if violations:
            raise ValueError("; ".join(violations))
        object.__setattr__(self, "samples", samples)
        traces = {
            rail: RailTrace(rail, samples[:, 2 * j], samples[:, 2 * j + 1], self.sample_period)
            for j, rail in enumerate(RAIL_ORDER)
        }
        object.__setattr__(self, "rails", MappingProxyType(traces))

    @property
    def expected_marker_count(self) -> int:
        """One (start, end) marker pair delimits every schedule entry."""
        return 2 * len(self.schedule)


def usable_cpus() -> int:
    """CPUs this process may run on; one where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
