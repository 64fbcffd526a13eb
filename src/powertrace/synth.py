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
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ScenarioConfigError
from .model import (
    DEFAULT_SAMPLE_PERIOD_S,
    DEFAULT_SCHEDULE,
    RAIL_NOMINAL_VOLTAGE,
    RAIL_ORDER,
    CaptureRun,
    EventKind,
    MachineState,
    RailKind,
    decode,
    read_json,
    to_wire,
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


def _check_at_least(name: str, value, low, strict: bool = False) -> None:
    """Raise unless value >= low (> low when strict); a NaN fails either way."""
    if not (value > low if strict else value >= low):
        raise ScenarioConfigError(f"{name} must be {'>' if strict else '>='} {low}, got {value}")


def _check_table(name: str, table: dict, levels: tuple, low) -> None:
    """Check that *table* has an entry for every key of each level and every cell is >= low."""
    if not levels:
        _check_at_least(name, table, low)
        return
    for key in levels[0]:
        if key not in table:
            raise ScenarioConfigError(f"{name} missing {key.wire_name}")
        _check_table(f"{name}[{key.wire_name}]", table[key], levels[1:], low)


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
        for name in ("lag_s", "spike_rate_per_min", "spike_amplitude"):
            _check_at_least(name, getattr(self, name), 0)
        _check_table("delta_power", self.delta_power, (RAIL_ORDER, EventKind), -math.inf)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that determines a generated run, including the seed."""

    seed: int
    sample_period: float = DEFAULT_SAMPLE_PERIOD_S
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
        for name in ("sample_period", "marker_amplitude", "marker_duration", "gap_duration",
                     "idle_duration", "ie_spacing", "boot_duration"):
            _check_at_least(name, getattr(self, name), 0, strict=True)
        for name, low in (("seed", 0), ("voltage_noise_sigma", 0), ("ie_windows", 1),
                          ("ie_step_power", 0), ("boot_ramp_power", 0)):
            _check_at_least(name, getattr(self, name), low)
        _check_table("baseline_power", self.baseline_power, (RAIL_ORDER, EventKind), 0)
        _check_table("noise_sigma", self.noise_sigma, (RAIL_ORDER,), 0)


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


# The most samples per rail a run may have: numpy cannot address an
# (n, 8) float64 table with more rows.
MAX_SAMPLES = np.iinfo(np.intp).max // (2 * len(RAIL_ORDER) * 8)


def _samples(duration: float, period: float, name: str) -> int:
    count = duration / period
    if not count <= MAX_SAMPLES:  # also catches inf
        raise ScenarioConfigError(
            f"{name} {duration} s is {count:.4g} samples at a sample period of {period} s, "
            f"more than the {MAX_SAMPLES} a run can hold"
        )
    return int(round(count))


def _body_samples(config: ScenarioConfig, event: EventKind) -> int:
    period = config.sample_period
    if event is EventKind.IDLE:
        return _samples(config.idle_duration, period, "idle_duration")
    if event is EventKind.OPEN_BROWSER:
        return config.ie_windows * _samples(config.ie_spacing, period, "ie_spacing")
    return _samples(config.boot_duration, period, "boot_duration")


def _layout(config: ScenarioConfig) -> tuple:
    """Sample ranges of *config*'s run of DEFAULT_SCHEDULE, laid out before
    anything is drawn or allocated; all rails share the same clock.

    Returns the marker ranges, the event spans and body ranges keyed by
    (state, event) in schedule order, the entry regions, the lag and the
    total in samples. Raises ScenarioConfigError, naming the count, when
    the run would have more than MAX_SAMPLES samples.
    """
    period = config.sample_period
    gap_n = _samples(config.gap_duration, period, "gap_duration")
    marker_n = _samples(config.marker_duration, period, "marker_duration")
    lag_n = _samples(config.infection.lag_s, period, "infection.lag_s")

    marker_ranges: list[tuple[int, int]] = []
    event_spans: dict[tuple[MachineState, EventKind], tuple[int, int]] = {}
    body_ranges: dict[tuple[MachineState, EventKind], tuple[int, int]] = {}
    entry_regions: list[tuple[int, int]] = []
    pos = 0
    for entry in DEFAULT_SCHEDULE:
        state, event = entry.state, entry.event
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
    if pos > MAX_SAMPLES:
        raise ScenarioConfigError(
            f"a run of {pos} samples is more than the {MAX_SAMPLES} a run can hold"
        )
    return marker_ranges, event_spans, body_ranges, entry_regions, lag_n, pos


def generate_run(
    config: ScenarioConfig, dataset_index: int = 1
) -> tuple[CaptureRun, GroundTruth]:
    """Emit one scripted capture run plus the ground truth that shaped it.

    Identical (config, dataset_index) always produces identical samples.
    """
    if dataset_index < 1:
        raise ScenarioConfigError(f"dataset_index must be >= 1, got {dataset_index}")
    period = config.sample_period
    marker_ranges, event_spans, body_ranges, entry_regions, lag_n, total = _layout(config)

    rng = np.random.Generator(np.random.PCG64(config.seed + (dataset_index - 1)))

    # Spike instants, drawn before any noise so they are stable across
    # noise settings for a fixed seed.
    spike_indices: dict[tuple[MachineState, EventKind], tuple[int, ...]] = {}
    rate = config.infection.spike_rate_per_min
    for state, event in event_spans:
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
    try:
        samples = np.empty((total, 2 * len(RAIL_ORDER)))
    except MemoryError:
        raise ScenarioConfigError(f"cannot allocate a run of {total} samples") from None
    for j, rail in enumerate(RAIL_ORDER):
        power = np.empty(total, dtype=np.float64)
        for (state, event), (entry_start, entry_end) in zip(event_spans, entry_regions):
            power[entry_start:entry_end] = config.baseline_power[rail][event]

        for state, event in event_spans:
            body_start, body_end = body_ranges[(state, event)]
            body_n = body_end - body_start
            if event is EventKind.OPEN_BROWSER and body_n > 0:
                spacing_n = max(1, _samples(config.ie_spacing, period, "ie_spacing"))
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
        samples[:, 2 * j] = voltage
        samples[:, 2 * j + 1] = power / voltage

    run = CaptureRun(
        run_id=f"{config.rootkit_label}-d{dataset_index}-s{config.seed}",
        rootkit_label=config.rootkit_label,
        dataset_index=dataset_index,
        samples=samples,
        sample_period=period,
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


def _dataset_config(
    config: ScenarioConfig, k: int, per_dataset_infections: list[InfectionEffect | None] | None
) -> ScenarioConfig:
    infection = per_dataset_infections[k - 1] if per_dataset_infections is not None else None
    return config if infection is None else dataclasses.replace(config, infection=infection)


def _check_batch(
    n_datasets: int, per_dataset_infections: list[InfectionEffect | None] | None
) -> None:
    if n_datasets < 1:
        raise ScenarioConfigError(f"n_datasets must be >= 1, got {n_datasets}")
    if per_dataset_infections is not None and len(per_dataset_infections) != n_datasets:
        raise ScenarioConfigError(
            f"per_dataset_infections has {len(per_dataset_infections)} entries "
            f"for {n_datasets} datasets"
        )


def check_ensemble(
    config: ScenarioConfig,
    n_datasets: int,
    per_dataset_infections: list[InfectionEffect | None] | None = None,
) -> None:
    """Raise ScenarioConfigError unless generate_ensemble can build every dataset.

    Builds nothing: besides the arguments, it checks each dataset's sample
    count, which differs between datasets when their infections' lag_s
    does. A caller that builds the datasets one at a time calls this
    before it writes the first.
    """
    _check_batch(n_datasets, per_dataset_infections)
    for k in range(1, n_datasets + 1):
        try:
            _layout(_dataset_config(config, k, per_dataset_infections))
        except ScenarioConfigError as exc:
            raise ScenarioConfigError(f"dataset {k}: {exc}") from None


def generate_ensemble(
    config: ScenarioConfig,
    n_datasets: int,
    per_dataset_infections: list[InfectionEffect | None] | None = None,
    *,
    indices: list[int] | None = None,
) -> list[tuple[CaptureRun, GroundTruth]]:
    """Generate n datasets; dataset k (1-based) runs from seed + k - 1.

    per_dataset_infections can swap the infection per dataset, e.g. to
    give only two of three datasets a real effect; None entries keep the
    config's infection. indices selects which datasets to build, in the
    order given (default: 1..n); a dataset built alone equals the same
    dataset built in the whole batch.
    """
    _check_batch(n_datasets, per_dataset_infections)
    if indices is None:
        indices = list(range(1, n_datasets + 1))
    for k in indices:
        if not 1 <= k <= n_datasets:
            raise ScenarioConfigError(f"dataset index {k} is outside 1..{n_datasets}")
    return [
        generate_run(_dataset_config(config, k, per_dataset_infections), dataset_index=k)
        for k in indices
    ]


def _merged(default, obj):
    """*obj* over *default*, both decoded from JSON: a key left out of an
    object, at any depth, keeps its default."""
    if not (isinstance(default, dict) and isinstance(obj, dict)):
        return obj
    return {**default, **{key: _merged(default.get(key), value) for key, value in obj.items()}}


def scenario_from_dict(obj: dict) -> tuple[ScenarioConfig, list[InfectionEffect | None] | None]:
    """Build a ScenarioConfig from parsed JSON, merging over the defaults.

    Returns the config plus an optional per-dataset infection list taken
    from the 'dataset_infections' key (null entries keep the base
    infection).
    """
    if not isinstance(obj, dict):
        raise ScenarioConfigError("scenario must be a JSON object")
    if "seed" not in obj:
        raise ScenarioConfigError("scenario must set 'seed'")
    fields = {key: value for key, value in obj.items() if key != "dataset_infections"}
    config = decode(ScenarioConfig, _merged(to_wire(ScenarioConfig(seed=0)), fields), "scenario",
                    ScenarioConfigError)
    if "dataset_infections" not in obj:
        return config, None
    infections = obj["dataset_infections"]
    if isinstance(infections, list):  # anything else is refused by decode
        infections = [_merged(to_wire(InfectionEffect()), entry) for entry in infections]
    return config, list(decode(tuple[InfectionEffect | None, ...], infections,
                               "scenario.dataset_infections", ScenarioConfigError))


def load_scenario(path: str | Path) -> tuple[ScenarioConfig, list[InfectionEffect | None] | None]:
    """Read a scenario JSON file; see scenario_from_dict."""
    return scenario_from_dict(read_json(path, "scenario file", ScenarioConfigError))


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
