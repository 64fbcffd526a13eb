"""Per-rail power derivation and windowed summaries."""

from __future__ import annotations

import numpy as np

from .errors import PowerComputationError
from .model import PowerSeries, RailTrace


def compute_power(trace: RailTrace) -> PowerSeries:
    """Elementwise P[k] = V[k] * I[k] for one rail.

    Negative products are kept as-is and counted in the result's
    negative_samples diagnostic; clamping is a caller policy, not ours.
    A product that is not finite, e.g. one that overflows, raises
    PowerComputationError naming the rail and the first such sample.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        power = trace.voltage * trace.current
    bad = np.flatnonzero(~np.isfinite(power))
    if bad.size:
        k = int(bad[0])
        raise PowerComputationError(
            f"rail {trace.rail.wire_name}, sample {k}: non-finite power "
            f"{float(trace.voltage[k])!r} V x {float(trace.current[k])!r} A"
        )
    negative = int(np.count_nonzero(power < 0.0))
    return PowerSeries(
        rail=trace.rail,
        power=power,
        sample_period=trace.sample_period,
        negative_samples=negative,
    )


def window_sample_count(window_s: float, sample_period: float) -> int:
    """Samples per window: rounded down to a whole multiple, minimum 1."""
    return max(1, int(np.floor(window_s / sample_period)))


def windowed_means(values: np.ndarray, window_samples: int) -> np.ndarray:
    """Means of consecutive non-overlapping windows; trailing partial dropped."""
    values = np.asarray(values, dtype=np.float64)
    n_windows = len(values) // window_samples
    if n_windows == 0:
        return np.empty(0, dtype=np.float64)
    trimmed = values[: n_windows * window_samples]
    return trimmed.reshape(n_windows, window_samples).mean(axis=1)


def power_summary(series: PowerSeries, window_s: float) -> np.ndarray:
    """Windowed mean power in watts, left to right across the series."""
    w = window_sample_count(window_s, series.sample_period)
    return windowed_means(series.power, w)
