"""Marker detection and event segmentation.

Runs are scripted as alternating filler and CPU-stress bursts; each burst
is a power rectangle on the marker rail. A (start, end) marker pair
brackets every scheduled event, so 2 * len(schedule) markers cut the run
into its per-event spans.

Detection thresholds are range relative: with m and M the extremes of the
smoothed marker-rail power, the rise threshold is m + hi_fraction * (M - m)
and the fall threshold m + lo_fraction * (M - m). A hysteresis state
machine walks the smoothed series; each accepted edge is then snapped to
the unsmoothed series' own threshold crossing, so reported indices are
positions in the raw capture, not in the smoothed proxy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MarkerDetectionError, SegmentationError
from .model import CaptureRun, EventKind, MachineState, PowerSeries
from .report import MarkerParams


@dataclass(frozen=True)
class Marker:
    """One detected stress burst, as a half-open sample range [start, end)."""

    start_index: int
    end_index: int
    peak_power: float

    @property
    def length(self) -> int:
        return self.end_index - self.start_index


@dataclass(frozen=True)
class EventSegment:
    """Samples belonging to one scheduled event on every rail, [start, end)."""

    state: MachineState
    event: EventKind
    start_index: int
    end_index: int

    @property
    def length(self) -> int:
        return self.end_index - self.start_index


def smooth_series(power: np.ndarray, window_samples: int) -> np.ndarray:
    """Centered moving average; the window shrinks near the edges."""
    x = np.asarray(power, dtype=np.float64)
    n = len(x)
    w = int(window_samples)
    if w <= 1 or n == 0:
        return x.copy()
    left = (w - 1) // 2
    right = w // 2
    csum = np.concatenate(([0.0], np.cumsum(x)))
    idx = np.arange(n)
    lo = np.maximum(idx - left, 0)
    hi = np.minimum(idx + right + 1, n)
    return (csum[hi] - csum[lo]) / (hi - lo)


def _snap_start(raw: np.ndarray, index: int, hi_thr: float, lower_bound: int) -> int:
    """First raw sample above hi_thr in the excursion containing *index*."""
    n = len(raw)
    j = index
    if raw[j] > hi_thr:
        while j - 1 >= lower_bound and raw[j - 1] > hi_thr:
            j -= 1
    else:
        while j < n and raw[j] <= hi_thr:
            j += 1
    return j


def _snap_end(raw: np.ndarray, index: int, lo_thr: float, lower_bound: int) -> int:
    """First raw sample below lo_thr after the burst top (half-open end)."""
    n = len(raw)
    j = index
    if raw[j] < lo_thr:
        while j - 1 > lower_bound and raw[j - 1] < lo_thr:
            j -= 1
    else:
        while j < n and raw[j] >= lo_thr:
            j += 1
    return j


def detect_markers(
    series: PowerSeries,
    params: MarkerParams | None = None,
    expected_count: int | None = None,
) -> list[Marker]:
    """Find stress bursts in a marker-rail power series.

    Bursts shorter than min_duration or longer than max_duration are
    discarded, as is a final burst that never falls back below the low
    threshold. With *expected_count* set, finding fewer markers raises
    SegmentationError whose message gives the count found; surplus markers
    are left for segment_events to reject.
    """
    if params is None:
        params = MarkerParams()
    raw = series.power
    n = len(raw)
    period = series.sample_period
    need_s = params.smooth_window + params.max_duration
    if n < np.round(need_s / period):
        raise MarkerDetectionError(
            f"series too short for detection: {n * period:g} s, need at least {need_s:g} s"
        )

    w = max(1, int(round(params.smooth_window / period)))
    smoothed = smooth_series(raw, w)
    lo_val = float(np.min(smoothed))
    hi_val = float(np.max(smoothed))
    if hi_val == lo_val:
        raise MarkerDetectionError("no dynamic range: smoothed series is constant")
    span = hi_val - lo_val
    hi_thr = lo_val + params.hi_fraction * span
    lo_thr = lo_val + params.lo_fraction * span

    # Hysteresis: +1 above hi_thr, -1 below lo_thr, hold inside the band.
    sig = np.where(smoothed > hi_thr, 1, np.where(smoothed < lo_thr, -1, 0))
    marked = np.where(sig != 0, np.arange(n), -1)
    last_decided = np.maximum.accumulate(marked)
    state = np.where(last_decided >= 0, sig[np.maximum(last_decided, 0)], -1)
    high = state == 1
    prev_high = np.concatenate(([False], high[:-1]))
    rises = np.flatnonzero(high & ~prev_high)
    falls = np.flatnonzero(~high & prev_high)

    markers: list[Marker] = []
    prev_end = 0
    for k, rise in enumerate(rises):
        if k >= len(falls):
            break  # burst still high at end of series
        start = _snap_start(raw, int(rise), hi_thr, prev_end)
        if start >= n:
            continue
        end = _snap_end(raw, int(falls[k]), lo_thr, start)
        if end >= n and raw[n - 1] >= lo_thr:
            continue  # never fell back below the low threshold
        duration = (end - start) * period
        if params.min_duration <= duration <= params.max_duration:
            peak = float(np.max(raw[start:end]))
            markers.append(Marker(start_index=start, end_index=end, peak_power=peak))
            prev_end = end

    if expected_count is not None and len(markers) < expected_count:
        raise SegmentationError(f"expected {expected_count} markers, found {len(markers)}")
    return markers


def segment_events(run: CaptureRun, markers: list[Marker]) -> list[EventSegment]:
    """Cut a run into per-event sample ranges using its detected markers.

    Event k occupies the span between the end of marker 2k and the start
    of marker 2k+1. One segment per schedule entry, in schedule order: the
    rails are sampled synchronously, so its indices hold on every rail.
    """
    expected = run.expected_marker_count
    if len(markers) != expected:
        raise SegmentationError(f"expected {expected} markers, found {len(markers)}")

    segments: list[EventSegment] = []
    for k, entry in enumerate(run.schedule):
        start = markers[2 * k].end_index
        end = markers[2 * k + 1].start_index
        if end <= start:
            raise SegmentationError(
                f"empty segment for {entry.state.wire_name}/{entry.event.wire_name}: "
                f"markers {2 * k} and {2 * k + 1} leave no samples between them"
            )
        segments.append(EventSegment(entry.state, entry.event, start, end))
    return segments
