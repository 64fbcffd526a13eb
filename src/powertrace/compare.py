"""Pairwise comparison of event segments and cross-dataset aggregation.

A comparison takes a baseline segment (clean machine) and a suspect
segment (after rootkit installation) on the same rail and decides whether
power consumption incremented. The verdict rule is median-of-windowed-
means with a combined absolute/relative threshold; medians keep spikes
out of the verdict so they can be counted separately.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AggregationError, AlignmentError, ComparisonError
from .model import DEFAULT_SAMPLE_PERIOD_S, RAIL_ORDER, EventKind, MachineState, RailKind
from .power import window_sample_count, windowed_means
from .segment import EventSegment

# Floor for the rolling MAD so constant regions cannot flag noise-free
# samples as spikes.
MAD_FLOOR_W = 1e-9


class ComparisonKind(Enum):
    """The five canonical baseline/suspect pairings."""

    BOOT_PRE_VS_REBOOT_POST = "boot_pre_vs_reboot_post"
    IDLE_PRE_VS_IDLE_POST = "idle_pre_vs_idle_post"
    IDLE_PRE_VS_IDLE_POST_REBOOT = "idle_pre_vs_idle_post_reboot"
    IE_PRE_VS_IE_POST = "ie_pre_vs_ie_post"
    IE_PRE_VS_IE_POST_REBOOT = "ie_pre_vs_ie_post_reboot"

    @property
    def wire_name(self) -> str:
        return self.value


# (baseline (state, event), suspect (state, event)) per comparison kind.
# The post-infection BOOT entry is the reboot right after installation.
COMPARISON_PAIRING: dict[
    ComparisonKind,
    tuple[tuple[MachineState, EventKind], tuple[MachineState, EventKind]],
] = {
    ComparisonKind.BOOT_PRE_VS_REBOOT_POST: (
        (MachineState.PRE_INFECTION, EventKind.BOOT),
        (MachineState.POST_INFECTION, EventKind.BOOT),
    ),
    ComparisonKind.IDLE_PRE_VS_IDLE_POST: (
        (MachineState.PRE_INFECTION, EventKind.IDLE),
        (MachineState.POST_INFECTION, EventKind.IDLE),
    ),
    ComparisonKind.IDLE_PRE_VS_IDLE_POST_REBOOT: (
        (MachineState.PRE_INFECTION, EventKind.IDLE),
        (MachineState.POST_INFECTION_REBOOT, EventKind.IDLE),
    ),
    ComparisonKind.IE_PRE_VS_IE_POST: (
        (MachineState.PRE_INFECTION, EventKind.OPEN_BROWSER),
        (MachineState.POST_INFECTION, EventKind.OPEN_BROWSER),
    ),
    ComparisonKind.IE_PRE_VS_IE_POST_REBOOT: (
        (MachineState.PRE_INFECTION, EventKind.OPEN_BROWSER),
        (MachineState.POST_INFECTION_REBOOT, EventKind.OPEN_BROWSER),
    ),
}

# Boot power is dominated by OS startup churn, so boot verdicts carry a
# noisy flag and deserve less weight downstream.
NOISY_KINDS = frozenset({ComparisonKind.BOOT_PRE_VS_REBOOT_POST})


class Verdict(Enum):
    INCREMENT = "increment"
    NO_INCREMENT = "no_increment"


@dataclass(frozen=True)
class CompareParams:
    """Thresholds and window sizes for the comparison engine."""

    window: float = 1.0
    rel_threshold: float = 0.02
    abs_threshold: float = 0.05
    max_lag: float = 0.10
    spike_k: float = 6.0
    spike_window: float = 1.0

    def __post_init__(self):
        for name in ("window", "rel_threshold", "abs_threshold", "spike_k", "spike_window"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0.0 < self.max_lag <= 0.5:
            raise ValueError(f"max_lag must be in (0, 0.5], got {self.max_lag}")


@dataclass(frozen=True)
class LagResult:
    lag_s: float
    lag_samples: int
    zero_variance: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Metrics and verdict for one baseline/suspect pairing on one rail.

    kind and rail are None for a bare classify_increment call and filled
    in by run_canonical_comparisons. relative_increase is None when the
    baseline median is not positive.
    """

    kind: ComparisonKind | None
    rail: RailKind | None
    baseline_median_w: float
    suspect_median_w: float
    delta_w: float
    relative_increase: float | None
    lag_s: float
    lag_samples: int
    lag_zero_variance: bool
    baseline_spikes: int
    suspect_spikes: int
    verdict: Verdict
    noisy: bool = False


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
    centred series, and its dot product from one correlation of a with b
    zero-padded by max_shift on both sides (Lewis 1995, "Fast Normalized
    Cross-Correlation"): O(n * max_shift) in all. Rounding moves each of
    these sums by at most about n * eps times the series' total variance
    (Higham 2002, section 3.1). On a trusted lag, one whose overlap keeps
    LAG_TRUST of both totals, the approximate score is then within about
    12 * n * eps / LAG_TRUST of _pearson's. A lag is a candidate when it is
    not trusted, or when its score lies within 64 * n * eps / LAG_TRUST of
    the best trusted score, more than twice that bound. So every lag whose
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
    pad = np.zeros(max_shift)
    dots = np.correlate(np.concatenate((pad, b0, pad)), a0, "valid")
    trusted = (var_a >= LAG_TRUST * energy_a) & (var_b >= LAG_TRUST * energy_b)
    score = np.full(len(lags), -np.inf)
    score[trusted] = (dots - sum_a * sum_b / m)[trusted] / np.sqrt(
        var_a[trusted] * var_b[trusted]
    )
    margin = 64 * n * np.finfo(np.float64).eps / LAG_TRUST
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


# Values per sorted chunk of _rolling_median_mad's window matrix (2 MiB):
# the spike statistics' memory does not grow with segment length x window.
_SORT_CHUNK_VALUES = 1 << 18


def _rolling_median_mad(x: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Median and MAD of the window around each sample, as np.median gives them.

    The window holds w = min(window, n) samples, (w - 1) // 2 before the
    sample and w // 2 after it, and shrinks at the series' edges. Each window
    is sorted once, as a row of the (n, w) window matrix of the series padded
    with +inf, so a window of L values sorts them first. The rows are sorted
    in chunks of about _SORT_CHUNK_VALUES values, and _sorted_median_mad
    reads each chunk's statistics.
    """
    n = len(x)
    w = min(window, n)
    before, after = (w - 1) // 2, w // 2
    padded = np.concatenate((np.full(before, np.inf), x, np.full(after, np.inf)))
    windows = sliding_window_view(padded, w)
    med, mad = np.empty(n), np.empty(n)
    rows = max(1, _SORT_CHUNK_VALUES // w)
    for first in range(0, n, rows):
        at = np.arange(first, min(first + rows, n))
        length = np.minimum(n, at + after + 1) - np.maximum(0, at - before)
        chunk = np.sort(windows[first : first + rows], axis=1).reshape(-1)
        med[first : first + rows], mad[first : first + rows] = _sorted_median_mad(chunk, length, w)
    return med, mad


def _sorted_median_mad(
    flat: np.ndarray, length: np.ndarray, w: int
) -> tuple[np.ndarray, np.ndarray]:
    """Median and MAD of each sorted row of w values, flattened into *flat*,
    whose first length[r] values of row r are its window.

    A row S's median m is S[lo] or (S[lo] + S[hi]) / 2, with lo, hi =
    (L - 1) // 2, L // 2. The k nearest values form a run of S, so the k-th
    smallest |S - m| is min over j in [0, L - k] of max(m - S[j],
    S[j + k - 1] - m). Rounded differences are monotone, so the first term
    never rises with j and the second never falls: the minimum is at their
    crossing or just before it. One binary search finds the crossings of
    rank lo + 1 and, for an even L, hi + 1.
    """
    n = len(length)
    at = np.arange(n)
    lo, hi = (length - 1) // 2, length // 2
    even = np.flatnonzero(lo != hi)
    med = flat[at * w + lo]
    med[even] = (med[even] + flat[even * w + hi[even]]) / 2

    # In flat, j runs from a row's start to last = start + L - k; span = k - 1.
    # A probe past last reads last: j passes last only when no crossing is in
    # range, and both candidates then clamp to last, where the minimum is.
    row = np.concatenate((at, even))
    span, m = np.concatenate((lo, hi[even])), med[row]
    start = j = row * w
    last = start + length[row] - span - 1
    step = 1 << int((last - start).max() + 1).bit_length() - 1
    while step:
        probe = np.minimum(j + step - 1, last)
        j = j + step * (flat[probe + span] - m < m - flat[probe])
        step >>= 1
    i = np.stack((np.clip(j - 1, start, last), np.minimum(j, last)))
    d = np.maximum(m - flat[i], flat[i + span] - m).min(axis=0)
    mad = d[:n]
    mad[even] = (mad[even] + d[n:]) / 2
    return med, mad


def detect_spikes(
    power: np.ndarray,
    spike_k: float = CompareParams.spike_k,
    spike_window: float = CompareParams.spike_window,
    sample_period: float = DEFAULT_SAMPLE_PERIOD_S,
) -> int:
    """Count maximal runs of samples exceeding rolling median + k * MAD."""
    x = np.asarray(power, dtype=np.float64)
    if len(x) == 0:
        return 0
    w = max(1, int(round(min(spike_window / sample_period, len(x)))))
    med, mad = _rolling_median_mad(x, w)
    thresh = med + spike_k * np.maximum(mad, MAD_FLOOR_W)
    exceed = x > thresh
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
        (base_state, base_event), (susp_state, susp_event) = COMPARISON_PAIRING[kind]
        for rail in RAIL_ORDER:
            base_key = (base_state, base_event, rail)
            susp_key = (susp_state, susp_event, rail)
            if base_key not in pre_pool:
                raise ComparisonError(
                    f"missing baseline segment ({base_state.wire_name}, {base_event.wire_name}) "
                    f"on rail {rail.wire_name}"
                )
            if susp_key not in post_pool:
                raise ComparisonError(
                    f"missing suspect segment ({susp_state.wire_name}, {susp_event.wire_name}) "
                    f"on rail {rail.wire_name}"
                )
            report = classify_increment(
                pre_pool[base_key], post_pool[susp_key], params, sample_period
            )
            reports.append(
                dataclasses.replace(
                    report, kind=kind, rail=rail, noisy=kind in NOISY_KINDS
                )
            )
    return reports


@dataclass(frozen=True)
class AggregateCell:
    """Increment tally for one (rail, kind) cell across datasets."""

    rail: RailKind
    kind: ComparisonKind
    n_datasets: int
    n_increment: int

    @property
    def fraction(self) -> float:
        return self.n_increment / self.n_datasets

    @property
    def percent_label(self) -> str:
        return f"{100.0 * self.fraction:.2f}%"


@dataclass(frozen=True)
class AggregateReport:
    cells: tuple[AggregateCell, ...]

    def cell(self, rail: RailKind, kind: ComparisonKind) -> AggregateCell:
        for c in self.cells:
            if c.rail is rail and c.kind is kind:
                return c
        raise KeyError((rail, kind))


def aggregate(dataset_reports: list[list[ComparisonReport]]) -> AggregateReport:
    """Fold per-dataset comparison reports into increment fractions.

    Every dataset must cover the same (rail, kind) cells exactly once.
    """
    if not dataset_reports:
        raise AggregationError("need at least one dataset")
    coverage: set[tuple[RailKind, ComparisonKind]] | None = None
    tallies: dict[tuple[RailKind, ComparisonKind], int] = {}
    for d, reports in enumerate(dataset_reports):
        seen: set[tuple[RailKind, ComparisonKind]] = set()
        for report in reports:
            if report.kind is None or report.rail is None:
                raise AggregationError(f"dataset {d}: report without kind/rail labels")
            key = (report.rail, report.kind)
            if key in seen:
                raise AggregationError(
                    f"dataset {d}: duplicate cell ({report.rail.wire_name}, "
                    f"{report.kind.wire_name})"
                )
            seen.add(key)
            tallies[key] = tallies.get(key, 0) + (report.verdict is Verdict.INCREMENT)
        if coverage is None:
            coverage = seen
        elif seen != coverage:
            raise AggregationError(
                f"dataset {d} covers {len(seen)} cells, expected the same "
                f"{len(coverage)} cells as dataset 0"
            )
    n = len(dataset_reports)
    cells = tuple(
        AggregateCell(rail=rail, kind=kind, n_datasets=n, n_increment=count)
        for (rail, kind), count in tallies.items()
    )
    return AggregateReport(cells=cells)
