"""Shared helpers for the test suite.

Most tests use a compact scenario (short event bodies) so the full
pipeline stays fast; timings and durations shrink but every structural
property of the default script is preserved.
"""

from __future__ import annotations

import numpy as np

from powertrace import (
    RAIL_NOMINAL_VOLTAGE,
    RAIL_ORDER,
    CaptureRun,
    CompareParams,
    EventKind,
    MarkerParams,
    RailKind,
    RailTrace,
    ScenarioConfig,
)
from powertrace.cli import AnalyzedRun
from powertrace.compare import SegmentPool


def compact_scenario(seed: int, **overrides) -> ScenarioConfig:
    """Default scenario with short bodies: ~210 s instead of ~546 s."""
    kwargs = dict(
        idle_duration=10.0,
        ie_windows=4,
        ie_spacing=2.5,
        boot_duration=8.0,
    )
    kwargs.update(overrides)
    return ScenarioConfig(seed=seed, **kwargs)


def idle_delta(watts: float, rail: RailKind = RailKind.RAIL_12V_MB):
    """delta_power table with one nonzero entry on (rail, IDLE)."""
    table = {r: {e: 0.0 for e in EventKind} for r in RAIL_ORDER}
    table[rail][EventKind.IDLE] = watts
    return table


def random_run(rng: np.random.Generator, n: int = 1500, run_id: str = "rand") -> CaptureRun:
    """Random but valid run; values stay well inside the ADC input range."""
    rails = {}
    for rail in RAIL_ORDER:
        voltage = RAIL_NOMINAL_VOLTAGE[rail] + rng.normal(0.0, 0.05, n)
        current = rng.uniform(0.0, 6.0, n)
        rails[rail] = RailTrace(rail=rail, voltage=voltage, current=current)
    return CaptureRun(run_id=run_id, rootkit_label="rand", dataset_index=1, rails=rails)


def analyze_pool(run: CaptureRun, params: MarkerParams | None = None) -> SegmentPool:
    """Capture run -> (state, event, rail) power pool, via the full pipeline."""
    return AnalyzedRun(run, params or MarkerParams()).pool()


FAST_COMPARE = CompareParams(max_lag=0.05)
