"""Seeded synthetic testbed: scripted capture runs with known ground truth.

Generates the same scripted sequence a desk-scale testbed would record:
for every (state, event) schedule entry, a CPU-stress marker rectangle,
the event's power profile, and a closing marker. Power is the generated
primitive per rail; current is derived as power / voltage so that power
computation inverts generation exactly.

Randomness comes from numpy's PCG64 generator seeded per run, documented
in the README so identical seeds reproduce identical streams anywhere.
Draw order is fixed: spike positions first (schedule order), then per
rail in canonical order one power-noise vector and one voltage-noise
vector. Changing noise settings therefore never moves the spikes.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ScenarioConfigError
from .model import (
    RAIL_NOMINAL_VOLTAGE,
    RAIL_ORDER,
    CaptureRun,
    EventKind,
    MachineState,
    RailKind,
    RailTrace,
    RunSchedule,
)

# The stress script hammers the CPU, so markers land on the CPU 12V rail.
MARKER_RAIL = RailKind.RAIL_12V_CPU

# States recorded after rootkit installation; infection effects apply here.
SUSPECT_STATES = frozenset({MachineState.POST_INFECTION, MachineState.POST_INFECTION_REBOOT})


def _default_baseline_power() -> dict[RailKind, dict[EventKind, float]]:
    return {
        RailKind.RAIL_3V3: {EventKind.BOOT: 2.5, EventKind.IDLE: 2.0, EventKind.OPEN_BROWSER: 2.2},
        RailKind.RAIL_5V: {EventKind.BOOT: 6.0, EventKind.IDLE: 5.0, EventKind.OPEN_BROWSER: 5.5},
        RailKind.RAIL_12V_MB: {EventKind.BOOT: 15.0, EventKind.IDLE: 12.0, EventKind.OPEN_BROWSER: 13.0},
        RailKind.RAIL_12V_CPU: {EventKind.BOOT: 30.0, EventKind.IDLE: 20.0, EventKind.OPEN_BROWSER: 26.0},
    }


def _default_noise_sigma() -> dict[RailKind, float]:
    return {
        RailKind.RAIL_3V3: 0.02,
        RailKind.RAIL_5V: 0.05,
        RailKind.RAIL_12V_MB: 0.08,
        RailKind.RAIL_12V_CPU: 0.10,
    }


def _zero_deltas() -> dict[RailKind, dict[EventKind, float]]:
    return {rail: {event: 0.0 for event in EventKind} for rail in RAIL_ORDER}


@dataclass(frozen=True)
class InfectionEffect:
    """What the installed rootkit changes, per rail and event.

    delta_power shifts suspect-state spans additively; lag_s delays the
    event body inside its marker pair; spikes are brief load bursts hitting
    all rails at shared instants within suspect event bodies.
    """

    delta_power: dict[RailKind, dict[EventKind, float]] = field(default_factory=_zero_deltas)
    lag_s: float = 0.0
    spike_rate_per_min: float = 0.0
    spike_amplitude: float = 15.0

    def __post_init__(self):
        if self.lag_s < 0:
            raise ScenarioConfigError(f"lag_s must be >= 0, got {self.lag_s}")
        if self.spike_rate_per_min < 0:
            raise ScenarioConfigError(
                f"spike_rate_per_min must be >= 0, got {self.spike_rate_per_min}"
            )
        if self.spike_amplitude < 0:
            raise ScenarioConfigError(
                f"spike_amplitude must be >= 0, got {self.spike_amplitude}"
            )
        for rail in RAIL_ORDER:
            if rail not in self.delta_power:
                raise ScenarioConfigError(f"delta_power missing rail {rail.wire_name}")
            for event in EventKind:
                if event not in self.delta_power[rail]:
                    raise ScenarioConfigError(
                        f"delta_power[{rail.wire_name}] missing event {event.wire_name}"
                    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that determines a generated run, including the seed."""

    seed: int
    sample_period: float = 0.010
    rootkit_label: str = "synthetic"
    baseline_power: dict[RailKind, dict[EventKind, float]] = field(
        default_factory=_default_baseline_power
    )
    noise_sigma: dict[RailKind, float] = field(default_factory=_default_noise_sigma)
    voltage_noise_sigma: float = 0.01
    # Default amplitude clears the hysteresis rise threshold of a default
    # detection run with a wide margin; see the scenario notes in README.
    marker_amplitude: float = 40.0
    marker_duration: float = 5.0
    gap_duration: float = 1.0
    idle_duration: float = 60.0
    ie_windows: int = 10
    ie_spacing: float = 5.0
    ie_step_power: float = 0.5
    boot_duration: float = 30.0
    boot_ramp_power: float = 5.0
    infection: InfectionEffect = field(default_factory=InfectionEffect)

    def __post_init__(self):
        if self.seed < 0:
            raise ScenarioConfigError(f"seed must be >= 0, got {self.seed}")
        for name in (
            "sample_period",
            "marker_duration",
            "gap_duration",
            "idle_duration",
            "ie_spacing",
            "boot_duration",
        ):
            if not getattr(self, name) > 0:
                raise ScenarioConfigError(
                    f"{name} must be strictly positive, got {getattr(self, name)}"
                )
        if self.ie_windows < 1:
            raise ScenarioConfigError(f"ie_windows must be >= 1, got {self.ie_windows}")
        if not self.marker_amplitude > 0:
            raise ScenarioConfigError(
                f"marker_amplitude must be strictly positive, got {self.marker_amplitude}"
            )
        if self.ie_step_power < 0:
            raise ScenarioConfigError(f"ie_step_power must be >= 0, got {self.ie_step_power}")
        if self.boot_ramp_power < 0:
            raise ScenarioConfigError(f"boot_ramp_power must be >= 0, got {self.boot_ramp_power}")
        if self.voltage_noise_sigma < 0:
            raise ScenarioConfigError(
                f"voltage_noise_sigma must be >= 0, got {self.voltage_noise_sigma}"
            )
        for rail in RAIL_ORDER:
            if rail not in self.baseline_power:
                raise ScenarioConfigError(f"baseline_power missing rail {rail.wire_name}")
            for event in EventKind:
                if event not in self.baseline_power[rail]:
                    raise ScenarioConfigError(
                        f"baseline_power[{rail.wire_name}] missing event {event.wire_name}"
                    )
                if self.baseline_power[rail][event] < 0:
                    raise ScenarioConfigError(
                        f"baseline_power[{rail.wire_name}][{event.wire_name}] must be >= 0"
                    )
            if rail not in self.noise_sigma:
                raise ScenarioConfigError(f"noise_sigma missing rail {rail.wire_name}")
            if self.noise_sigma[rail] < 0:
                raise ScenarioConfigError(
                    f"noise_sigma[{rail.wire_name}] must be >= 0, got {self.noise_sigma[rail]}"
                )


@dataclass(frozen=True)
class GroundTruth:
    """Injected structure of a generated run, kept for oracle tests.

    All ranges are half-open sample index pairs into the emitted arrays.
    events maps each (state, event) to its inter-marker span, the range
    segmentation should recover.
    """

    markers: tuple[tuple[int, int], ...]
    events: dict[tuple[MachineState, EventKind], tuple[int, int]]
    applied_deltas: dict[tuple[MachineState, EventKind, RailKind], float]
    lag_samples: int
    spike_indices: dict[tuple[MachineState, EventKind], tuple[int, ...]]
    sample_count: int


def _samples(duration: float, period: float) -> int:
    return int(round(duration / period))


def _body_samples(config: ScenarioConfig, event: EventKind) -> int:
    period = config.sample_period
    if event is EventKind.IDLE:
        return _samples(config.idle_duration, period)
    if event is EventKind.OPEN_BROWSER:
        return config.ie_windows * _samples(config.ie_spacing, period)
    return _samples(config.boot_duration, period)


def generate_run(
    config: ScenarioConfig, dataset_index: int = 1
) -> tuple[CaptureRun, GroundTruth]:
    """Emit one scripted capture run plus the ground truth that shaped it.

    Identical (config, dataset_index) always produces identical samples.
    """
    if dataset_index < 1:
        raise ScenarioConfigError(f"dataset_index must be >= 1, got {dataset_index}")
    period = config.sample_period
    schedule = RunSchedule.default()
    gap_n = _samples(config.gap_duration, period)
    marker_n = _samples(config.marker_duration, period)
    lag_n = _samples(config.infection.lag_s, period)

    # Lay out sample ranges first; all rails share the same clock.
    marker_ranges: list[tuple[int, int]] = []
    event_spans: dict[tuple[MachineState, EventKind], tuple[int, int]] = {}
    body_ranges: dict[tuple[MachineState, EventKind], tuple[int, int]] = {}
    entry_regions: list[tuple[int, int]] = []
    pos = 0
    for state, event in schedule.entries:
        entry_start = pos
        pos += gap_n
        marker_ranges.append((pos, pos + marker_n))
        pos += marker_n
        span_start = pos
        pos += gap_n
        if state in SUSPECT_STATES:
            pos += lag_n
        body_n = _body_samples(config, event)
        body_ranges[(state, event)] = (pos, pos + body_n)
        pos += body_n
        pos += gap_n
        span_end = pos
        marker_ranges.append((pos, pos + marker_n))
        pos += marker_n
        pos += gap_n
        event_spans[(state, event)] = (span_start, span_end)
        entry_regions.append((entry_start, pos))
    total = pos

    rng = np.random.Generator(np.random.PCG64(config.seed + (dataset_index - 1)))

    # Spike instants, drawn before any noise so they are stable across
    # noise settings for a fixed seed.
    spike_indices: dict[tuple[MachineState, EventKind], tuple[int, ...]] = {}
    rate = config.infection.spike_rate_per_min
    for state, event in schedule.entries:
        if state not in SUSPECT_STATES or rate == 0.0:
            continue
        body_start, body_end = body_ranges[(state, event)]
        body_n = body_end - body_start
        n_spikes = int(round(rate * (body_n * period) / 60.0))
        n_spikes = min(n_spikes, body_n)
        if n_spikes == 0:
            continue
        offsets = rng.choice(body_n, size=n_spikes, replace=False)
        spike_indices[(state, event)] = tuple(sorted(int(o) + body_start for o in offsets))

    applied_deltas: dict[tuple[MachineState, EventKind, RailKind], float] = {}
    rails: dict[RailKind, RailTrace] = {}
    for rail in RAIL_ORDER:
        power = np.empty(total, dtype=np.float64)
        for (state, event), (entry_start, entry_end) in zip(schedule.entries, entry_regions):
            power[entry_start:entry_end] = config.baseline_power[rail][event]

        for state, event in schedule.entries:
            body_start, body_end = body_ranges[(state, event)]
            body_n = body_end - body_start
            if event is EventKind.OPEN_BROWSER and body_n > 0:
                spacing_n = max(1, _samples(config.ie_spacing, period))
                k = np.arange(body_n)
                opened = np.minimum(k // spacing_n + 1, config.ie_windows)
                power[body_start:body_end] += config.ie_step_power * opened
            elif event is EventKind.BOOT and body_n > 0:
                k = np.arange(body_n)
                power[body_start:body_end] += config.boot_ramp_power * (1.0 - k / body_n)

            if state in SUSPECT_STATES:
                delta = config.infection.delta_power[rail][event]
                if delta != 0.0:
                    span_start, span_end = event_spans[(state, event)]
                    power[span_start:span_end] += delta
                    applied_deltas[(state, event, rail)] = delta
                for idx in spike_indices.get((state, event), ()):
                    power[idx] += config.infection.spike_amplitude

        if rail is MARKER_RAIL:
            for start, end in marker_ranges:
                power[start:end] += config.marker_amplitude

        power = power + rng.normal(0.0, config.noise_sigma[rail], total)
        voltage = RAIL_NOMINAL_VOLTAGE[rail] + rng.normal(
            0.0, config.voltage_noise_sigma, total
        )
        current = power / voltage
        rails[rail] = RailTrace(rail=rail, voltage=voltage, current=current, sample_period=period)

    run = CaptureRun(
        run_id=f"{config.rootkit_label}-d{dataset_index}-s{config.seed}",
        rootkit_label=config.rootkit_label,
        dataset_index=dataset_index,
        rails=rails,
        schedule=schedule,
    )
    truth = GroundTruth(
        markers=tuple(marker_ranges),
        events=event_spans,
        applied_deltas=applied_deltas,
        lag_samples=lag_n,
        spike_indices=spike_indices,
        sample_count=total,
    )
    return run, truth


def generate_ensemble(
    config: ScenarioConfig,
    n_datasets: int,
    per_dataset_infections: list[InfectionEffect | None] | None = None,
) -> list[tuple[CaptureRun, GroundTruth]]:
    """Generate n datasets; dataset k (1-based) runs from seed + k - 1.

    per_dataset_infections can swap the infection per dataset, e.g. to
    give only two of three datasets a real effect; None entries keep the
    config's infection.
    """
    if n_datasets < 1:
        raise ScenarioConfigError(f"n_datasets must be >= 1, got {n_datasets}")
    if per_dataset_infections is not None and len(per_dataset_infections) != n_datasets:
        raise ScenarioConfigError(
            f"per_dataset_infections has {len(per_dataset_infections)} entries "
            f"for {n_datasets} datasets"
        )
    out: list[tuple[CaptureRun, GroundTruth]] = []
    for k in range(n_datasets):
        cfg = config
        if per_dataset_infections is not None and per_dataset_infections[k] is not None:
            cfg = dataclasses.replace(config, infection=per_dataset_infections[k])
        out.append(generate_run(cfg, dataset_index=k + 1))
    return out


# JSON scenario files mirror the dataclass fields, with rails and events
# keyed by their wire names. Unknown keys are rejected to catch typos.

# Field annotations are strings here (postponed evaluation of annotations).
_SCALAR_TYPES = {"int": int, "float": float, "str": str}


def _convert(convert, value, context: str):
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ScenarioConfigError(f"{context}: expected {convert.__name__}, got {value!r}") from None


def _scalar_fields(cls, obj: dict, context: str) -> dict:
    """Converted values of the int, float and str fields of *cls* present in *obj*."""
    return {
        f.name: _convert(_SCALAR_TYPES[f.type], obj[f.name], f"{context}.{f.name}")
        for f in dataclasses.fields(cls)
        if f.type in _SCALAR_TYPES and f.name in obj
    }


def _rail_event_table(
    obj: dict, context: str, defaults: dict[RailKind, dict[EventKind, float]]
) -> dict[RailKind, dict[EventKind, float]]:
    if not isinstance(obj, dict):
        raise ScenarioConfigError(f"{context} must be an object")
    table = {rail: dict(events) for rail, events in defaults.items()}
    for rail_name, events in obj.items():
        try:
            rail = RailKind(rail_name)
        except ValueError:
            raise ScenarioConfigError(f"{context}: unknown rail '{rail_name}'") from None
        if not isinstance(events, dict):
            raise ScenarioConfigError(f"{context}[{rail_name}] must be an object")
        for event_name, value in events.items():
            try:
                event = EventKind(event_name)
            except ValueError:
                raise ScenarioConfigError(
                    f"{context}[{rail_name}]: unknown event '{event_name}'"
                ) from None
            table[rail][event] = _convert(float, value, f"{context}[{rail_name}][{event_name}]")
    return table


def _infection_from_json(obj: dict, context: str = "infection") -> InfectionEffect:
    if not isinstance(obj, dict):
        raise ScenarioConfigError(f"{context} must be an object")
    unknown = set(obj) - {f.name for f in dataclasses.fields(InfectionEffect)}
    if unknown:
        raise ScenarioConfigError(f"{context}: unknown keys {sorted(unknown)}")
    kwargs = _scalar_fields(InfectionEffect, obj, context)
    if "delta_power" in obj:
        kwargs["delta_power"] = _rail_event_table(
            obj["delta_power"], f"{context}.delta_power", _zero_deltas()
        )
    return InfectionEffect(**kwargs)


def scenario_from_dict(obj: dict) -> tuple[ScenarioConfig, list[InfectionEffect | None] | None]:
    """Build a ScenarioConfig from parsed JSON, merging over the defaults.

    Returns the config plus an optional per-dataset infection list taken
    from the 'dataset_infections' key (null entries keep the base
    infection).
    """
    if not isinstance(obj, dict):
        raise ScenarioConfigError("scenario must be a JSON object")
    allowed = {f.name for f in dataclasses.fields(ScenarioConfig)} | {"dataset_infections"}
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioConfigError(f"scenario: unknown keys {sorted(unknown)}")
    if "seed" not in obj:
        raise ScenarioConfigError("scenario must set 'seed'")

    kwargs = _scalar_fields(ScenarioConfig, obj, "scenario")
    if "baseline_power" in obj:
        kwargs["baseline_power"] = _rail_event_table(
            obj["baseline_power"], "baseline_power", _default_baseline_power()
        )
    if "noise_sigma" in obj:
        sigma = dict(_default_noise_sigma())
        if not isinstance(obj["noise_sigma"], dict):
            raise ScenarioConfigError("noise_sigma must be an object")
        for rail_name, value in obj["noise_sigma"].items():
            try:
                rail = RailKind(rail_name)
            except ValueError:
                raise ScenarioConfigError(f"noise_sigma: unknown rail '{rail_name}'") from None
            sigma[rail] = _convert(float, value, f"noise_sigma[{rail_name}]")
        kwargs["noise_sigma"] = sigma
    if "infection" in obj:
        kwargs["infection"] = _infection_from_json(obj["infection"])

    overrides: list[InfectionEffect | None] | None = None
    if "dataset_infections" in obj:
        raw = obj["dataset_infections"]
        if not isinstance(raw, list):
            raise ScenarioConfigError("dataset_infections must be a list")
        overrides = [
            None if entry is None else _infection_from_json(entry, f"dataset_infections[{i}]")
            for i, entry in enumerate(raw)
        ]
    return ScenarioConfig(**kwargs), overrides


def load_scenario(path: str | Path) -> tuple[ScenarioConfig, list[InfectionEffect | None] | None]:
    """Read a scenario JSON file; see scenario_from_dict."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioConfigError(f"cannot read scenario file {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioConfigError(f"scenario file is not valid JSON: {exc}") from None
    return scenario_from_dict(obj)


def ground_truth_to_json(truth: GroundTruth) -> dict:
    """JSON-friendly view of a GroundTruth, for files next to captures."""
    return {
        "sample_count": truth.sample_count,
        "lag_samples": truth.lag_samples,
        "markers": [[s, e] for s, e in truth.markers],
        "events": {
            f"{state.wire_name}/{event.wire_name}": [s, e]
            for (state, event), (s, e) in truth.events.items()
        },
        "applied_deltas": {
            f"{state.wire_name}/{event.wire_name}/{rail.wire_name}": delta
            for (state, event, rail), delta in truth.applied_deltas.items()
        },
        "spike_indices": {
            f"{state.wire_name}/{event.wire_name}": list(indices)
            for (state, event), indices in truth.spike_indices.items()
        },
    }
