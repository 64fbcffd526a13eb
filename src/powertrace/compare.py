"""Pairwise comparison of event segments.

A comparison takes a baseline segment (clean machine) and a suspect
segment (after rootkit installation) on the same rail and decides whether
power consumption incremented. The verdict rule is median-of-windowed-
means with a combined absolute/relative threshold; medians keep spikes
out of the verdict so they can be counted separately. The report types
and the cross-dataset fold live in report.py, which imports no numpy, and
are re-exported here.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AlignmentError, ComparisonError
from .model import DEFAULT_SAMPLE_PERIOD_S, RAIL_ORDER, EventKind, MachineState, RailKind
from .power import window_sample_count, windowed_means
from .report import (COMPARISON_PAIRING, NOISY_KINDS, AggregateCell, AggregateReport,
                     CompareParams, ComparisonKind, ComparisonReport, LagResult, Verdict, aggregate)
from .segment import EventSegment

# Floor for the rolling MAD so constant regions cannot flag noise-free
# samples as spikes.
MAD_FLOOR_W = 1e-9


def align(baseline: np.ndarray, suspect: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Truncate both series to the shorter length, keeping their starts."""
    a = np.asarray(baseline, dtype=np.float64)
    b = np.asarray(suspect, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise AlignmentError("cannot align an empty segment")
    n = min(len(a), len(b))
    return a[:n], b[:n]


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    am = a - a.mean()
    bm = b - b.mean()
    den = np.sqrt(np.dot(am, am) * np.dot(bm, bm))
    if den == 0.0:
        return 0.0
    return float(np.dot(am, bm) / den)


# A lag is scored from running sums only where its overlap keeps at least
# this share of each series' total variance; the rest are scored exactly.
LAG_TRUST = 1e-3


def _lag_candidates(a: np.ndarray, b: np.ndarray, max_shift: int) -> np.ndarray:
    """Lags in [-max_shift, max_shift] that may hold the best _pearson score.

    Each overlap's sum and variance come from cumulative sums of the
    centred series, and its dot product from one FFT cross-correlation of
    length N, the shortest 2^i * 3^j >= n + max_shift, so that no lag in
    range wraps around (Lewis 1995, "Fast Normalized Cross-Correlation"):
    O(n log n) in all. Rounding moves each cumulative sum by at most about
    n * eps times the series' total variance (Higham 2002, section 3.1).
    The two forward transforms, their product and the inverse transform
    move each dot product by at most about 11 * sqrt(n) * log2(N) * eps
    times the root of the product of the two total variances (Higham 2002,
    section 24.1, Theorem 24.2 for radix 2 with twiddle factors accurate to
    eps; on random series of up to 20,000 samples and 3-smooth N the error
    stayed below 1/25 of this). On a trusted lag, one whose
    overlap keeps LAG_TRUST of both totals, the approximate score is then
    within about (12 * n + 11 * sqrt(n) * log2(N)) * eps / LAG_TRUST of
    _pearson's. A lag is a candidate when it is not trusted, or when its
    score lies within 64 * (n + sqrt(n) * log2(N)) * eps / LAG_TRUST of the
    best trusted score, more than twice that bound. So every lag whose
    _pearson score equals the maximum is a candidate.
    """
    n = len(a)
    lags = np.arange(-max_shift, max_shift + 1)
    m = n - np.abs(lags)
    a0 = a - a.mean()
    b0 = b - b.mean()

    def overlap_moments(x: np.ndarray, start: np.ndarray):
        sums = np.concatenate(([0.0], np.cumsum(x)))
        squares = np.concatenate(([0.0], np.cumsum(x * x)))
        total = sums[start + m] - sums[start]
        variance = squares[start + m] - squares[start] - total * total / m
        return total, variance, squares[-1]

    sum_a, var_a, energy_a = overlap_moments(a0, np.maximum(0, -lags))
    sum_b, var_b, energy_b = overlap_moments(b0, np.maximum(0, lags))
    size = min(3**j << ((n + max_shift - 1) // 3**j).bit_length() for j in range(n.bit_length()))
    spectra = np.fft.rfft(np.stack((a0, b0)), size)
    circular = np.fft.irfft(spectra[1] * spectra[0].conj(), size)
    dots = np.concatenate((circular[size - max_shift :], circular[: max_shift + 1]))
    trusted = (var_a >= LAG_TRUST * energy_a) & (var_b >= LAG_TRUST * energy_b)
    score = np.full(len(lags), -np.inf)
    score[trusted] = (dots - sum_a * sum_b / m)[trusted] / np.sqrt(
        var_a[trusted] * var_b[trusted]
    )
    rounding = n + np.sqrt(n) * np.log2(size)
    margin = 64 * rounding * np.finfo(np.float64).eps / LAG_TRUST
    return lags[~trusted | (score >= score.max() - margin)]


def estimate_lag(
    baseline: np.ndarray,
    suspect: np.ndarray,
    max_lag: float,
    sample_period: float,
) -> LagResult:
    """Best integer lag by normalized cross-correlation.

    Positive lag means the suspect series is delayed relative to the
    baseline. The lag with the highest _pearson score over its overlap
    wins; ties break toward the smallest |lag|, then toward the negative
    lag. A series with zero variance over its full length gets lag 0 with
    the zero_variance flag set. Inputs must be finite.
    """
    a, b = align(baseline, suspect)
    n = len(a)
    max_shift = int(np.floor(n * max_lag))
    if max_shift < 1:
        raise ComparisonError(
            f"segment too short for lag search: {n} samples at max_lag {max_lag}"
        )
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return LagResult(lag_s=0.0, lag_samples=0, zero_variance=True)

    best_lag = 0
    best_r = -np.inf
    # Preference order 0, -1, 1, -2, 2, ... with a strict improvement rule
    # implements the tie-break in one pass over the exactly scored lags.
    for lag in sorted(_lag_candidates(a, b, max_shift).tolist(), key=lambda l: (abs(l), l)):
        if lag >= 0:
            wa, wb = a[: n - lag], b[lag:]
        else:
            wa, wb = a[-lag:], b[: n + lag]
        r = _pearson(wa, wb)
        if r > best_r:
            best_r = r
            best_lag = lag
    return LagResult(
        lag_s=best_lag * sample_period, lag_samples=best_lag, zero_variance=False
    )


# Values per sorted chunk of _rolling_median_mad's window matrix and of
# detect_spikes' supersets (2 MiB): the spike statistics' memory does not
# grow with segment length x window.
_SORT_CHUNK_VALUES = 1 << 18

# Consecutive full-window rows whose windows detect_spikes sorts as one superset.
_BLOCK = 32


def _sorted_rows(matrix: np.ndarray, rows: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (slice of *rows*, a sorted copy of those rows of *matrix*) for
    consecutive chunks of *rows* of about _SORT_CHUNK_VALUES values each."""
    step = max(1, _SORT_CHUNK_VALUES // matrix.shape[1])
    for first in range(0, len(rows), step):
        chunk = matrix[rows[first : first + step]]
        chunk.sort(axis=1)
        yield slice(first, first + step), chunk


def _sorted_median(chunk: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Median of the first length[r] values of each sorted row r of *chunk*."""
    med = chunk[np.arange(len(chunk)), (length - 1) // 2]
    even = np.flatnonzero(length % 2 == 0)
    med[even] = (med[even] + chunk[even, length[even] // 2]) / 2
    return med


def _rolling_median_mad(
    x: np.ndarray, window: int, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Median and MAD of the window around each sample, as np.median gives them.

    The window holds w = min(window, n) samples, (w - 1) // 2 before the
    sample and w // 2 after it, and shrinks at the series' edges. Each window
    is a row of the (n, w) window matrix of the series padded with +inf, so
    a window of L values sorts them first. Only the given *rows* (every row
    when None) are sorted, chunk by chunk; each chunk is then turned in place
    into its absolute deviations from the medians, where the padding stays
    +inf, and sorted again for the MAD. The results follow the order of *rows*.
    """
    n = len(x)
    w = min(window, n)
    before, after = (w - 1) // 2, w // 2
    padded = np.concatenate((np.full(before, np.inf), x, np.full(after, np.inf)))
    at = np.arange(n) if rows is None else rows
    med, mad = np.empty(len(at)), np.empty(len(at))
    for part, chunk in _sorted_rows(sliding_window_view(padded, w), at):
        length = np.minimum(n, at[part] + after + 1) - np.maximum(0, at[part] - before)
        med[part] = _sorted_median(chunk, length)
        np.abs(np.subtract(chunk, med[part, None], out=chunk), out=chunk)
        chunk.sort(axis=1)
        mad[part] = _sorted_median(chunk, length)
    return med, mad


def _threshold_bounds(x: np.ndarray, w: int, spike_k: float) -> np.ndarray:
    """detect_spikes' lower bound on each sample's threshold: -inf on the
    shrinking edge rows, and on each block of _BLOCK rows with full windows
    of w samples the bound from their sorted superset. The last block's
    superset ends with the series, so it also holds every window of a block
    cut short there."""
    n = len(x)
    lo = (w - 1) // 2
    full = n - w + 1
    width = min(w + _BLOCK - 1, n)
    blocks = np.minimum(np.arange(0, full, _BLOCK), max(full - _BLOCK, 0))
    block_bound = np.empty(len(blocks))
    for part, u in _sorted_rows(sliding_window_view(x, width), blocks):
        low = u[:, lo]
        scale = spike_k * np.maximum((u[:, lo:] - u[:, : width - lo]).min(axis=1) / 2, MAD_FLOOR_W)
        block_bound[part] = low + scale - 16 * np.finfo(np.float64).eps * (np.abs(low) + scale)
    bound = np.full(n, -np.inf)
    bound[lo : lo + full] = np.repeat(block_bound, _BLOCK)[:full]
    return bound


def detect_spikes(
    power: np.ndarray,
    spike_k: float = CompareParams.spike_k,
    spike_window: float = CompareParams.spike_window,
    sample_period: float = DEFAULT_SAMPLE_PERIOD_S,
) -> int:
    """Count maximal runs of samples exceeding rolling median + k * MAD.

    Only a sample that may exceed its threshold gets its window sorted.
    Each block of _BLOCK consecutive rows with full windows of w samples
    shares one superset U of their w + _BLOCK - 1 samples, sorted once. With
    lo = (w - 1) // 2, a window W within U has a median of at least U_s[lo].
    Its lo + 1 values nearest the median lie within MAD of it, an interval
    of width 2 * MAD holding lo + 1 values of U, so MAD is at least G / 2,
    G = min_j (U_s[j + lo] - U_s[j]). The threshold is thus at least
    U_s[lo] + k * max(G / 2, MAD_FLOOR_W). Rounding is monotone, and each
    operation errs by at most eps / 2 of its result, so the computed
    threshold is at least the computed bound less 8 * eps * (|U_s[lo]| +
    k * max(G / 2, MAD_FLOOR_W)); the allowance taken is twice that. A row
    whose sample lies at or below the bound cannot be high. The rest, among
    them every shrinking edge row, whose bound is -inf, get their exact
    median and MAD from _rolling_median_mad, so the count is the one that
    sorting every window gives.
    """
    x = np.asarray(power, dtype=np.float64)
    n = len(x)
    if n == 0:
        return 0
    w = max(1, int(round(min(spike_window / sample_period, n))))
    rows = np.flatnonzero(x > _threshold_bounds(x, w, spike_k))
    med, mad = _rolling_median_mad(x, w, rows)
    exceed = np.zeros(n, dtype=bool)
    exceed[rows] = x[rows] > med + spike_k * np.maximum(mad, MAD_FLOOR_W)
    starts = exceed & ~np.concatenate(([False], exceed[:-1]))
    return int(np.count_nonzero(starts))


def classify_increment(
    baseline: np.ndarray,
    suspect: np.ndarray,
    params: CompareParams | None = None,
    sample_period: float = DEFAULT_SAMPLE_PERIOD_S,
) -> ComparisonReport:
    """Decide INCREMENT or NO_INCREMENT for one baseline/suspect pair.

    INCREMENT iff the suspect's median windowed mean exceeds the
    baseline's by more than max(abs_threshold, rel_threshold * baseline
    median). Lag and spike metrics ride along; a pair too short for the
    lag search reports lag 0. A non-finite sample in either series raises
    ComparisonError.
    """
    if params is None:
        params = CompareParams()
    a, b = align(baseline, suspect)
    for side, series in (("baseline", a), ("suspect", b)):
        bad = np.flatnonzero(~np.isfinite(series))
        if bad.size:
            raise ComparisonError(
                f"{side} sample {int(bad[0])} is not finite ({float(series[bad[0]])!r})"
            )
    wsamp = window_sample_count(params.window, sample_period, len(a))
    means_a = windowed_means(a, wsamp)
    means_b = windowed_means(b, wsamp)
    if len(means_a) == 0 or len(means_b) == 0:
        raise ComparisonError(
            f"segment shorter than one {params.window} s window "
            f"({len(a)} samples at {sample_period} s)"
        )
    base_med = float(np.median(means_a))
    susp_med = float(np.median(means_b))
    delta = susp_med - base_med
    rel = delta / base_med if base_med > 0 else None

    threshold = max(params.abs_threshold, params.rel_threshold * base_med)
    verdict = Verdict.INCREMENT if delta > threshold else Verdict.NO_INCREMENT

    if int(np.floor(len(a) * params.max_lag)) >= 1:
        lag = estimate_lag(a, b, params.max_lag, sample_period)
    else:
        lag = LagResult(lag_s=0.0, lag_samples=0, zero_variance=False)

    return ComparisonReport(
        kind=None,
        rail=None,
        baseline_median_w=base_med,
        suspect_median_w=susp_med,
        delta_w=delta,
        relative_increase=rel,
        lag_s=lag.lag_s,
        lag_samples=lag.lag_samples,
        lag_zero_variance=lag.zero_variance,
        baseline_spikes=detect_spikes(a, params.spike_k, params.spike_window, sample_period),
        suspect_spikes=detect_spikes(b, params.spike_k, params.spike_window, sample_period),
        verdict=verdict,
    )


SegmentPool = dict[tuple[MachineState, EventKind, RailKind], np.ndarray]


def segment_power_pool(
    power_by_rail: dict[RailKind, np.ndarray],
    segments: list[EventSegment],
) -> SegmentPool:
    """Slice each rail's power series by each segment into a (state, event, rail) lookup."""
    return {
        (seg.state, seg.event, rail): np.asarray(power[seg.start_index : seg.end_index], np.float64)
        for seg in segments
        for rail, power in power_by_rail.items()
    }


def run_canonical_comparisons(
    pre_pool: SegmentPool,
    post_pool: SegmentPool,
    params: CompareParams | None = None,
    sample_period: float = DEFAULT_SAMPLE_PERIOD_S,
) -> list[ComparisonReport]:
    """All five canonical comparisons on all four rails (20 reports).

    Baseline segments come from *pre_pool*, suspect segments from
    *post_pool*; passing the same pool twice compares within one run.
    """
    if params is None:
        params = CompareParams()
    reports: list[ComparisonReport] = []
    for kind in ComparisonKind:
        for rail in RAIL_ORDER:
            series = []
            for side, pool, (state, event) in zip(
                ("baseline", "suspect"), (pre_pool, post_pool), COMPARISON_PAIRING[kind]
            ):
                if (state, event, rail) not in pool:
                    raise ComparisonError(f"missing {side} segment ({state.wire_name}, "
                                          f"{event.wire_name}) on rail {rail.wire_name}")
                series.append(pool[state, event, rail])
            report = classify_increment(*series, params, sample_period)
            reports.append(dataclasses.replace(report, kind=kind, rail=rail,
                                               noisy=kind in NOISY_KINDS))
    return reports
