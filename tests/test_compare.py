import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FAST_COMPARE, analyze_pool, compact_scenario, idle_delta
from powertrace import (
    AggregationError,
    AlignmentError,
    CompareParams,
    ComparisonError,
    ComparisonKind,
    ComparisonReport,
    DEFAULT_SCHEDULE,
    EventKind,
    InfectionEffect,
    MachineState,
    RAIL_ORDER,
    RailKind,
    ScenarioConfig,
    ScheduleEntry,
    Verdict,
    aggregate,
    align,
    classify_increment,
    detect_spikes,
    estimate_lag,
    generate_run,
    run_canonical_comparisons,
)
from powertrace import compare
from powertrace.compare import _pearson, _rolling_median_mad
from powertrace.report import AggregateCell, AggregateReport

PERIOD = 0.010


def test_compare_params_validation():
    with pytest.raises(ValueError):
        CompareParams(window=0.0)
    with pytest.raises(ValueError):
        CompareParams(max_lag=0.6)
    with pytest.raises(ValueError):
        CompareParams(rel_threshold=-0.01)


def test_align_truncates_to_shorter():
    a, b = align(np.zeros(3000), np.zeros(2900))
    assert len(a) == len(b) == 2900


def test_align_identity_and_boundary():
    a, b = align(np.ones(5), np.ones(5))
    assert len(a) == len(b) == 5
    a, b = align(np.ones(1), np.ones(1))
    assert len(a) == len(b) == 1


def test_align_rejects_empty():
    with pytest.raises(AlignmentError):
        align(np.empty(0), np.ones(5))


def _shift_right(a: np.ndarray, k: int) -> np.ndarray:
    """Shift with zero padding; positive k delays the series."""
    if k == 0:
        return a.copy()
    if k > 0:
        return np.concatenate([np.zeros(k), a[:-k]])
    return np.concatenate([a[-k:], np.zeros(-k)])


def test_lag_recovers_seven_sample_shift_exactly():
    rng = np.random.default_rng(17)
    a = rng.normal(10.0, 2.0, 400)
    result = estimate_lag(a, _shift_right(a, 7), 0.10, PERIOD)
    assert result.lag_samples == 7
    assert result.lag_s == 7 * PERIOD
    assert not result.zero_variance


def test_lag_zero_for_identical_series():
    rng = np.random.default_rng(18)
    a = rng.normal(0.0, 1.0, 300)
    assert estimate_lag(a, a, 0.10, PERIOD).lag_samples == 0


def test_lag_zero_variance_flag():
    rng = np.random.default_rng(19)
    a = rng.normal(0.0, 1.0, 300)
    result = estimate_lag(a, np.full(300, 7.0), 0.10, PERIOD)
    assert result.lag_samples == 0
    assert result.zero_variance


def test_lag_antisymmetry_on_noiseless_shifts():
    rng = np.random.default_rng(20)
    a = rng.normal(5.0, 1.0, 250)
    for k in (-9, -3, 1, 8):
        b = _shift_right(a, k)
        forward = estimate_lag(a, b, 0.10, PERIOD).lag_samples
        backward = estimate_lag(b, a, 0.10, PERIOD).lag_samples
        assert forward == k
        assert backward == -k


def test_lag_tie_breaks_small_magnitude_then_negative():
    # Alternating 0/1 against its inversion: every odd lag overlap is an
    # identical pair whose correlation is exactly 1.0 (all the sums are
    # exact powers of two), so +-1, +-3, ... tie. The rule must pick the
    # smallest magnitude and then the negative one: -1.
    a = np.arange(121, dtype=np.float64) % 2
    b = 1.0 - a
    assert estimate_lag(a, b, 0.10, PERIOD).lag_samples == -1


def test_lag_requires_searchable_window():
    with pytest.raises(ComparisonError, match="too short"):
        estimate_lag(np.ones(5), np.ones(5), 0.10, PERIOD)


def _pearson_oracle(a, b):
    n = len(a)
    ma = math.fsum(a) / n
    mb = math.fsum(b) / n
    num = math.fsum((x - ma) * (y - mb) for x, y in zip(a, b))
    da = math.fsum((x - ma) ** 2 for x in a)
    db = math.fsum((y - mb) ** 2 for y in b)
    if da == 0.0 or db == 0.0:
        return 0.0
    return num / math.sqrt(da * db)


def _oracle_scores(a, b, max_lag):
    """Exact (fsum) correlation of every lag in the search range."""
    n = len(a)
    max_shift = int(math.floor(n * max_lag))
    scores = {}
    for lag in range(-max_shift, max_shift + 1):
        if lag >= 0:
            scores[lag] = _pearson_oracle(a[: n - lag], b[lag:])
        else:
            scores[lag] = _pearson_oracle(a[-lag:], b[: n + lag])
    return scores


def _lag_oracle(a, b, max_lag):
    """Independent implementation: brute-force correlation over all lags."""
    scores = _oracle_scores(a, b, max_lag)
    # max r, then min |lag|, then negative
    return min(scores, key=lambda lag: (-scores[lag], abs(lag), lag))


def _scan_lag(a, b, max_lag):
    """Reference scan: _pearson on every lag in order 0, -1, 1, ..., strict improvement."""
    n = len(a)
    max_shift = int(math.floor(n * max_lag))
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return 0
    best_lag, best_r = 0, -np.inf
    for lag in sorted(range(-max_shift, max_shift + 1), key=lambda l: (abs(l), l)):
        if lag >= 0:
            r = _pearson(a[: n - lag], b[lag:])
        else:
            r = _pearson(a[-lag:], b[: n + lag])
        if r > best_r:
            best_lag, best_r = lag, r
    return best_lag


def test_lag_matches_bruteforce_oracle_on_noisy_pairs():
    rng = np.random.default_rng(21)
    for _ in range(15):
        n = int(rng.integers(60, 140))
        a = rng.normal(0.0, 1.0, n)
        b = 0.6 * _shift_right(a, int(rng.integers(-4, 5))) + rng.normal(0.0, 0.8, n)
        got = estimate_lag(a, b, 0.10, PERIOD).lag_samples
        want = _lag_oracle(a.tolist(), b.tolist(), 0.10)
        assert got == want


@st.composite
def _lag_pairs(draw):
    """Integer periodic series with exact ties, steps whose overlaps have zero
    variance at many lags, and noisy shifted copies."""
    n = draw(st.integers(20, 120))
    max_lag = draw(st.sampled_from([0.05, 0.1, 0.25]))
    small_ints = st.integers(-3, 3).map(float)

    def periodic():
        pattern = draw(st.lists(small_ints, min_size=1, max_size=8))
        return np.resize(np.array(pattern), n)

    def step():
        at = draw(st.integers(1, n - 1))
        return np.where(np.arange(n) >= at, draw(st.sampled_from([1.0, 3.0, -2.0])), 0.0)

    def noisy():
        seed = draw(st.integers(0, 2**32 - 1))
        return np.random.default_rng(seed).normal(draw(st.sampled_from([0.0, 20.0])), 1.0, n)

    def noise_ints():
        return np.array(draw(st.lists(small_ints, min_size=n, max_size=n)))

    kinds = {"periodic": periodic, "step": step, "noisy": noisy, "ints": noise_ints}
    a = kinds[draw(st.sampled_from(sorted(kinds)))]()
    b_kind = draw(st.sampled_from(["shifted", *sorted(kinds)]))
    if b_kind == "shifted":
        b = _shift_right(a, draw(st.integers(-5, 5)))
    else:
        b = kinds[b_kind]()
    return a, b, max_lag


@settings(max_examples=150, deadline=None)
@given(_lag_pairs())
def test_lag_search_matches_every_lag_scan_and_exact_oracle(pair):
    a, b, max_lag = pair
    got = estimate_lag(a, b, max_lag, PERIOD)
    assert got.zero_variance == (np.ptp(a) == 0.0 or np.ptp(b) == 0.0)
    # Same choice as scoring every lag with _pearson, exact ties included.
    assert got.lag_samples == _scan_lag(a, b, max_lag)
    if got.zero_variance:
        return
    # And a lag whose exact score is the best; when no other lag comes
    # within rounding of it, the exact oracle's own choice.
    scores = _oracle_scores(a.tolist(), b.tolist(), max_lag)
    best = max(scores.values())
    near = [lag for lag, r in scores.items() if r >= best - 1e-9]
    assert got.lag_samples in near
    if len(near) == 1:
        assert got.lag_samples == _lag_oracle(a.tolist(), b.tolist(), max_lag)


def _correlate_candidates(a, b, max_shift):
    """The lag candidates from a direct np.correlate of b zero-padded by
    max_shift with a, and a margin of 64 * n * eps / LAG_TRUST."""
    n = len(a)
    lags = np.arange(-max_shift, max_shift + 1)
    m = n - np.abs(lags)
    a0 = a - a.mean()
    b0 = b - b.mean()

    def overlap_moments(x, start):
        sums = np.concatenate(([0.0], np.cumsum(x)))
        squares = np.concatenate(([0.0], np.cumsum(x * x)))
        total = sums[start + m] - sums[start]
        return total, squares[start + m] - squares[start] - total * total / m, squares[-1]

    sum_a, var_a, energy_a = overlap_moments(a0, np.maximum(0, -lags))
    sum_b, var_b, energy_b = overlap_moments(b0, np.maximum(0, lags))
    pad = np.zeros(max_shift)
    dots = np.correlate(np.concatenate((pad, b0, pad)), a0, "valid")
    trusted = (var_a >= compare.LAG_TRUST * energy_a) & (var_b >= compare.LAG_TRUST * energy_b)
    score = np.full(len(lags), -np.inf)
    score[trusted] = (dots - sum_a * sum_b / m)[trusted] / np.sqrt(
        var_a[trusted] * var_b[trusted]
    )
    margin = 64 * n * np.finfo(np.float64).eps / compare.LAG_TRUST
    return lags[~trusted | (score >= score.max() - margin)]


def _assert_fft_lag_search_is_exact(a, b, max_lag):
    """Every lag whose _pearson score is the maximum is an FFT candidate,
    and estimate_lag chooses as it does from the np.correlate candidates."""
    a, b = align(a, b)
    n = len(a)
    max_shift = int(math.floor(n * max_lag))
    got = estimate_lag(a, b, max_lag, PERIOD)
    with mock.patch.object(compare, "_lag_candidates", _correlate_candidates):
        assert got == estimate_lag(a, b, max_lag, PERIOD)
    if got.zero_variance:
        return
    scores = {
        lag: _pearson(a[: n - lag], b[lag:]) if lag >= 0 else _pearson(a[-lag:], b[: n + lag])
        for lag in range(-max_shift, max_shift + 1)
    }
    best = max(scores.values())
    candidates = set(compare._lag_candidates(a, b, max_shift).tolist())
    assert {lag for lag, r in scores.items() if r == best} <= candidates


@settings(max_examples=150, deadline=None)
@given(_lag_pairs(), st.sampled_from([0.05, 0.25, 0.5]))
def test_fft_lag_candidates_hold_every_best_lag(pair, max_lag):
    a, b, _ = pair
    _assert_fft_lag_search_is_exact(a, b, max_lag)


def _idle_pair(seed, rail):
    """Pre- and post-infection 2-minute idle segments (about 12,000 samples)
    of one generated run whose infection adds 1 W, a 1.5 s lag and spikes."""
    infection = InfectionEffect(
        delta_power=idle_delta(1.0, rail), lag_s=1.5, spike_rate_per_min=6.0
    )
    run, truth = generate_run(ScenarioConfig(seed=seed, idle_duration=120.0, infection=infection))
    trace = run.rails[rail]
    power = trace.voltage * trace.current
    return tuple(
        power[slice(*truth.events[(state, EventKind.IDLE)])]
        for state in (MachineState.PRE_INFECTION, MachineState.POST_INFECTION)
    )


def _offset_pair():
    rng = np.random.default_rng(31)
    a = 1e6 + rng.normal(0.0, 1.0, 4_000)
    return a, _shift_right(a, 37) + rng.normal(0.0, 0.5, 4_000)


_PERIODIC = np.resize(np.array([2.0, -1.0, 0.0, 3.0, 3.0, -2.0]), 5_000)


@pytest.mark.parametrize(
    "pair, max_lag",
    [
        (lambda: _idle_pair(3, RailKind.RAIL_12V_CPU), 0.1),
        (lambda: _idle_pair(4, RailKind.RAIL_3V3), 0.5),
        (_offset_pair, 0.5),
        (lambda: (_PERIODIC, np.roll(_PERIODIC, 2)), 0.5),
        (lambda: (_PERIODIC, 1.0 - _PERIODIC), 0.25),
    ],
    ids=["idle-12v_cpu", "idle-3v3", "offset-1e6", "periodic", "periodic-inverted"],
)
def test_fft_lag_search_is_exact_on_long_series(pair, max_lag):
    _assert_fft_lag_search_is_exact(*pair(), max_lag)


def _rolling_oracle(x, window):
    """Per-index np.median of the window around each sample, shrinking at the edges."""
    n = len(x)
    w = min(window, n)
    med = np.empty(n)
    mad = np.empty(n)
    for i in range(n):
        chunk = x[max(0, i - (w - 1) // 2) : i + w // 2 + 1]
        med[i] = np.median(chunk)
        mad[i] = np.median(np.abs(chunk - med[i]))
    return med, mad


@st.composite
def _series_and_window(draw, shortest=1, widest=40, longest=150):
    """Series shorter than, as long as, and longer than odd and even windows,
    from tie-heavy small-integer alphabets, constant runs or wide floats."""
    window = draw(st.integers(shortest, widest))
    n = draw(st.one_of(st.integers(1, window), st.just(window), st.integers(window, longest)))
    kind = draw(st.sampled_from(["alphabet", "runs", "floats"]))
    if kind == "alphabet":
        values = st.integers(0, draw(st.integers(0, 3))).map(float)
        x = draw(st.lists(values, min_size=n, max_size=n))
    elif kind == "runs":
        runs = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 60)), min_size=1))
        x = np.resize(np.repeat(*map(np.array, zip(*runs))).astype(float), n)
    else:
        x = draw(st.lists(st.floats(-1e12, 1e12), min_size=n, max_size=n))
    return np.array(x, dtype=np.float64), window


@settings(max_examples=200, deadline=None)
@given(_series_and_window())
@example((np.arange(7.0), 7))
@example((np.array([1.0, 1.0, 2.0, 2.0]), 10))
@example((np.full(30, 3.0), 4))
def test_rolling_median_mad_matches_per_window_np_median(case):
    x, window = case
    med, mad = _rolling_median_mad(x, window)
    want_med, want_mad = _rolling_oracle(x, window)
    assert np.array_equal(med, want_med)
    assert np.array_equal(mad, want_mad)


@settings(max_examples=50, deadline=None)
@given(_series_and_window(shortest=41, widest=128, longest=300))
def test_rolling_median_mad_matches_np_median_on_wide_windows(case):
    # The default 1 s at 10 ms is w = 100: binary searches of 6-7 steps.
    x, window = case
    med, mad = _rolling_median_mad(x, window)
    want_med, want_mad = _rolling_oracle(x, window)
    assert np.array_equal(med, want_med)
    assert np.array_equal(mad, want_mad)


@settings(max_examples=150, deadline=None)
@given(_series_and_window(), st.integers(1, 7), st.integers(0, 1_000))
@example((np.arange(20.0), 8), 3, 0)
@example((np.array([3.0, 1.0, 2.0, 2.0, 0.0]), 4), 1, 3)
def test_rolling_median_mad_is_exact_across_sort_chunks(case, rows, extra):
    # Chunks of 1-7 rows put chunk boundaries inside the shrinking edge
    # windows as well as between full ones, for odd and even w.
    x, window = case
    w = min(window, len(x))
    with mock.patch.object(compare, "_SORT_CHUNK_VALUES", rows * w + extra % w):
        med, mad = _rolling_median_mad(x, window)
    want_med, want_mad = _rolling_oracle(x, window)
    assert np.array_equal(med, want_med)
    assert np.array_equal(mad, want_mad)


@st.composite
def _series_window_and_rows(draw):
    """_series_and_window's cases with a subset of rows in any order that
    holds an edge row, one with a shrinking window, whenever there is one."""
    x, window = draw(_series_and_window())
    n, w = len(x), min(window, len(x))
    rows = draw(st.lists(st.integers(0, n - 1), unique=True))
    edges = [i for i in range(n) if i < (w - 1) // 2 or i >= n - w // 2]
    if edges and not set(edges) & set(rows):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(edges)))
    return x, window, np.array(rows, dtype=np.intp)


@settings(max_examples=200, deadline=None)
@given(_series_window_and_rows(), st.integers(1, 400))
@example((np.arange(20.0), 8, np.array([19, 0, 10, 3])), 9)
def test_rolling_median_mad_at_given_rows_matches_the_oracle(case, chunk):
    # detect_spikes' path, with chunk boundaries anywhere among the rows.
    x, window, rows = case
    with mock.patch.object(compare, "_SORT_CHUNK_VALUES", chunk):
        med, mad = _rolling_median_mad(x, window, rows)
    want_med, want_mad = _rolling_oracle(x, window)
    assert np.array_equal(med, want_med[rows])
    assert np.array_equal(mad, want_mad[rows])


def test_rolling_median_mad_is_exact_just_past_one_default_chunk():
    x = np.random.default_rng(27).normal(20.0, 0.1, 2_700)
    x[::89] += 3.0
    assert compare._SORT_CHUNK_VALUES // 100 < len(x)
    med, mad = _rolling_median_mad(x, 100)
    want_med, want_mad = _rolling_oracle(x, 100)
    assert np.array_equal(med, want_med)
    assert np.array_equal(mad, want_mad)


def test_detect_spikes_peaks_under_one_and_a_half_sorted_matrices():
    # Windows are sorted in chunks of _SORT_CHUNK_VALUES values, so the peak
    # stays a few chunks whatever the segment length and window: at n =
    # 12,000 and w = 100 that is also under 1.5 x the (n, w) matrix.
    chunk_bytes = compare._SORT_CHUNK_VALUES * 8
    for n, window in ((12_000, 100), (60_000, 100), (6_000, 2_000)):
        x = np.random.default_rng(12).normal(20.0, 0.1, n)
        x[::101] += 3.0
        tracemalloc.start()
        try:
            detect_spikes(x, spike_window=window * PERIOD, sample_period=PERIOD)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * chunk_bytes, (n, window, peak)


def test_rolling_median_mad_matches_oracle_at_the_default_window():
    # 1 s at 10 ms: w = 100, even, on a generated idle segment with spikes.
    run, truth = generate_run(compact_scenario(29))
    start, end = truth.events[(MachineState.PRE_INFECTION, EventKind.IDLE)]
    trace = run.rails[RailKind.RAIL_12V_CPU]
    x = trace.voltage[start:end] * trace.current[start:end]
    x[::97] += 3.0
    med, mad = _rolling_median_mad(x, 100)
    want_med, want_mad = _rolling_oracle(x, 100)
    assert np.array_equal(med, want_med)
    assert np.array_equal(mad, want_mad)


def _spikes_by_full_sort(x, spike_k, w):
    """detect_spikes' count from the exact median and MAD of every window."""
    med, mad = _rolling_median_mad(x, w)
    high = x > med + spike_k * np.maximum(mad, compare.MAD_FLOOR_W)
    return int(np.count_nonzero(high & ~np.concatenate(([False], high[:-1]))))


@st.composite
def _ramps_and_window(draw):
    """Ramps with steps and single-sample spikes up and down."""
    window = draw(st.integers(1, 40))
    n = draw(st.integers(1, 150))
    x = draw(st.sampled_from([0.0, 0.01, -0.5, 3.0])) * np.arange(n)
    heights = st.sampled_from([-50.0, -1.0, 0.3, 2.0, 50.0])
    for at, height in draw(st.lists(st.tuples(st.integers(0, n - 1), heights), max_size=3)):
        x[at:] += height
    for at, height in draw(st.lists(st.tuples(st.integers(0, n - 1), heights), max_size=6)):
        x[at] += height
    return x, window


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_series_and_window(), _ramps_and_window()),
    st.sampled_from(["as drawn", "near +1e12", "near -1e12", "at the MAD floor"]),
    st.sampled_from([0.01, 0.5, 6.0, 50.0]),
    st.integers(1, 7),
    st.integers(1, 400),
)
@example((np.full(30, 3.0), 4), "as drawn", 6.0, 3, 10)
@example((np.arange(45.0) % 3, 10), "at the MAD floor", 0.01, 4, 17)
def test_prefiltered_spike_count_equals_the_full_sort(case, offset, spike_k, block, chunk):
    # Blocks of 1-7 rows and chunks of 1-400 values put block and chunk
    # boundaries inside and beside the shrinking edge windows.
    x, window = case
    if offset == "near +1e12":
        x = x + 1e12
    elif offset == "near -1e12":
        x = x - 1e12
    elif offset == "at the MAD floor":
        x = 5.0 + x / max(1.0, float(np.abs(x).max())) * 4e-9
    with mock.patch.object(compare, "_BLOCK", block), mock.patch.object(
        compare, "_SORT_CHUNK_VALUES", chunk
    ):
        got = detect_spikes(x, spike_k, float(window), 1.0)
    assert got == _spikes_by_full_sort(x, spike_k, min(window, len(x)))


def test_prefiltered_spike_count_equals_the_full_sort_on_idle_segments():
    # Generated idle segments with spikes at the default window, k and block.
    counts = []
    for seed in range(4):
        infection = InfectionEffect(spike_rate_per_min=12.0)
        run, truth = generate_run(compact_scenario(seed, infection=infection))
        start, end = truth.events[(MachineState.POST_INFECTION, EventKind.IDLE)]
        for rail in RAIL_ORDER:
            trace = run.rails[rail]
            x = trace.voltage[start:end] * trace.current[start:end]
            counts.append(detect_spikes(x))
            assert counts[-1] == _spikes_by_full_sort(x, 6.0, 100)
    assert sum(counts) > 0


def test_spikes_zero_on_constant_series():
    assert detect_spikes(np.full(500, 5.0)) == 0


def test_spikes_count_isolated_excursions():
    power = np.full(600, 5.0)
    power[[100, 300, 450]] = 50.0
    assert detect_spikes(power) == 3


def test_adjacent_high_samples_are_one_spike():
    power = np.full(600, 5.0)
    power[200:203] = 50.0
    assert detect_spikes(power) == 1


def test_spike_window_shrinks_on_short_series():
    power = np.full(30, 5.0)
    power[10] = 50.0
    assert detect_spikes(power) == 1


def test_spikes_rare_on_seeded_gaussian_noise():
    # Monte Carlo off generated idle segments: sigma 0.1 W on the CPU rail,
    # k = 6 should almost never flag pure noise.
    zero_trials = 0
    for seed in range(100):
        cfg = compact_scenario(seed, idle_duration=5.0)
        run, truth = generate_run(cfg)
        start, end = truth.events[(MachineState.PRE_INFECTION, EventKind.IDLE)]
        trace = run.rails[RailKind.RAIL_12V_CPU]
        segment = trace.voltage[start:end] * trace.current[start:end]
        if detect_spikes(segment) == 0:
            zero_trials += 1
    assert zero_trials >= 95


def test_classify_five_percent_increment():
    baseline = np.full(300, 20.0)
    suspect = np.full(300, 21.0)
    report = classify_increment(baseline, suspect)
    assert report.verdict is Verdict.INCREMENT
    assert report.delta_w == pytest.approx(1.0)
    assert report.relative_increase == pytest.approx(0.05)


def test_classify_identical_is_no_increment():
    rng = np.random.default_rng(23)
    x = rng.uniform(10, 30, 400)
    report = classify_increment(x, x)
    assert report.verdict is Verdict.NO_INCREMENT
    assert report.delta_w == 0.0


def test_classify_tiny_delta_is_no_increment():
    baseline = np.full(300, 20.0)
    report = classify_increment(baseline, baseline + 0.01)
    assert report.verdict is Verdict.NO_INCREMENT
    # 0.01 W < max(0.05 W, 2% of 20 W)
    assert report.delta_w == pytest.approx(0.01)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["baseline", "suspect"])
def test_classify_rejects_non_finite_samples(side, bad):
    series = {"baseline": np.full(300, 20.0), "suspect": np.full(300, 21.0)}
    series[side][123] = bad
    with pytest.raises(ComparisonError, match=f"{side} sample 123 is not finite"):
        classify_increment(series["baseline"], series["suspect"])


def test_classify_requires_one_full_window():
    with pytest.raises(ComparisonError, match="window"):
        classify_increment(np.ones(50), np.ones(50))


def test_classify_monotone_in_suspect():
    rng = np.random.default_rng(24)
    increments = 0
    for _ in range(30):
        baseline = rng.uniform(15, 25, 400)
        suspect = baseline + rng.uniform(0.0, 1.5) + rng.normal(0, 0.05, 400)
        report = classify_increment(baseline, suspect)
        if report.verdict is Verdict.INCREMENT:
            increments += 1
            bigger = suspect + rng.uniform(0.0, 2.0, 400)
            assert classify_increment(baseline, bigger).verdict is Verdict.INCREMENT
    assert increments > 5  # the property must actually have been exercised


def test_classify_relative_increase_none_on_nonpositive_baseline():
    report = classify_increment(np.zeros(200), np.full(200, 1.0))
    assert report.relative_increase is None
    assert report.verdict is Verdict.INCREMENT


def test_canonical_comparisons_cover_five_kinds_by_four_rails():
    run, _ = generate_run(compact_scenario(seed=25))
    pool = analyze_pool(run)
    reports = run_canonical_comparisons(pool, pool, FAST_COMPARE, PERIOD)
    assert len(reports) == 20
    seen = {(r.kind, r.rail) for r in reports}
    assert len(seen) == 20
    for report in reports:
        expect_noisy = report.kind is ComparisonKind.BOOT_PRE_VS_REBOOT_POST
        assert report.noisy == expect_noisy
    # Each kind compares a post-infection or post-reboot entry with the
    # pre-infection entry of its event, and only the boot kind is noisy.
    assert [kind.wire_name for kind in ComparisonKind] == [
        "boot_pre_vs_reboot_post", "idle_pre_vs_idle_post", "idle_pre_vs_idle_post_reboot",
        "ie_pre_vs_ie_post", "ie_pre_vs_ie_post_reboot",
    ]
    suspects = [e for e in DEFAULT_SCHEDULE if e.state is not MachineState.PRE_INFECTION]
    for kind in ComparisonKind:
        assert kind.baseline == ScheduleEntry(MachineState.PRE_INFECTION, kind.suspect.event)
        assert kind.suspect in suspects
        assert kind.noisy == (kind is ComparisonKind.BOOT_PRE_VS_REBOOT_POST)


def test_canonical_comparisons_clean_run_yields_no_increments():
    run, _ = generate_run(compact_scenario(seed=26))
    pool = analyze_pool(run)
    reports = run_canonical_comparisons(pool, pool, FAST_COMPARE, PERIOD)
    assert all(r.verdict is Verdict.NO_INCREMENT for r in reports)


def test_canonical_comparisons_detect_injected_idle_delta():
    cfg = compact_scenario(
        seed=27, infection=InfectionEffect(delta_power=idle_delta(1.0))
    )
    run, _ = generate_run(cfg)
    pool = analyze_pool(run)
    reports = run_canonical_comparisons(pool, pool, FAST_COMPARE, PERIOD)
    for report in reports:
        should_fire = (
            report.rail is RailKind.RAIL_12V_MB
            and report.kind in (
                ComparisonKind.IDLE_PRE_VS_IDLE_POST,
                ComparisonKind.IDLE_PRE_VS_IDLE_POST_REBOOT,
            )
        )
        assert (report.verdict is Verdict.INCREMENT) == should_fire
        if should_fire:
            assert report.delta_w == pytest.approx(1.0, abs=0.05)


def test_canonical_comparisons_name_missing_segment():
    run, _ = generate_run(compact_scenario(seed=28))
    pool = analyze_pool(run)
    broken = dict(pool)
    del broken[(MachineState.POST_INFECTION, run.schedule[4].event, RailKind.RAIL_5V)]
    with pytest.raises(ComparisonError, match="post_infection"):
        run_canonical_comparisons(pool, broken, FAST_COMPARE, PERIOD)


def _fake_report(kind, rail, verdict):
    return ComparisonReport(
        kind=kind,
        rail=rail,
        baseline_median_w=10.0,
        suspect_median_w=11.0,
        delta_w=1.0,
        relative_increase=0.1,
        lag_s=0.0,
        lag_samples=0,
        lag_zero_variance=False,
        baseline_spikes=0,
        suspect_spikes=0,
        verdict=verdict,
        noisy=kind.noisy,
    )


def _dataset(verdict_map):
    return [
        _fake_report(kind, rail, verdict_map.get((kind, rail), Verdict.NO_INCREMENT))
        for kind in ComparisonKind
        for rail in RAIL_ORDER
    ]


KEY = (ComparisonKind.IDLE_PRE_VS_IDLE_POST, RailKind.RAIL_12V_MB)


def _datasets_with_increments(n_federated):
    datasets = []
    for i in range(3):
        verdicts = {KEY: Verdict.INCREMENT} if i < n_federated else {}
        datasets.append(_dataset(verdicts))
    return datasets


def test_aggregate_two_of_three():
    report = aggregate(_datasets_with_increments(2))
    cell = report.cell(RailKind.RAIL_12V_MB, ComparisonKind.IDLE_PRE_VS_IDLE_POST)
    assert cell.n_datasets == 3
    assert cell.n_increment == 2
    assert round(cell.fraction, 4) == 0.6667
    assert cell.percent_label == "66.67%"


def test_aggregate_all_and_one_of_three():
    rail, kind = RailKind.RAIL_12V_MB, ComparisonKind.IDLE_PRE_VS_IDLE_POST
    assert aggregate(_datasets_with_increments(3)).cell(rail, kind).percent_label == "100.00%"
    assert aggregate(_datasets_with_increments(1)).cell(rail, kind).percent_label == "33.33%"


def test_aggregate_zero_cells_stay_zero():
    report = aggregate(_datasets_with_increments(2))
    other = report.cell(RailKind.RAIL_5V, ComparisonKind.IE_PRE_VS_IE_POST)
    assert other.n_increment == 0
    assert other.percent_label == "0.00%"


def test_aggregate_is_order_invariant():
    datasets = _datasets_with_increments(2)
    shuffled = list(datasets)
    random.Random(0).shuffle(shuffled)
    a = aggregate(datasets)
    b = aggregate(shuffled)
    assert [(c.rail, c.kind, c.n_increment) for c in a.cells] == [
        (c.rail, c.kind, c.n_increment) for c in b.cells
    ]


def test_aggregate_requires_datasets():
    with pytest.raises(AggregationError):
        aggregate([])


def test_aggregate_rejects_duplicate_cell():
    dataset = _dataset({})
    dataset.append(dataset[0])
    with pytest.raises(AggregationError, match="duplicate"):
        aggregate([dataset])


def test_aggregate_rejects_coverage_mismatch():
    full = _dataset({})
    partial = full[:-1]
    with pytest.raises(AggregationError, match="covers"):
        aggregate([full, partial])


def test_aggregate_errors_carry_the_dataset_index():
    full = _dataset({})
    with pytest.raises(AggregationError, match="covers") as short:
        aggregate([full, full, full[:-1]])
    with pytest.raises(AggregationError, match="duplicate") as twice:
        aggregate([full, full + full[:1]])
    with pytest.raises(AggregationError) as empty:
        aggregate([])
    assert (short.value.dataset, twice.value.dataset, empty.value.dataset) == (2, 1, None)


def _enum_keyed_aggregate(dataset_reports):
    """aggregate as it was before its tally was keyed by member ids: the reference."""
    if not dataset_reports:
        raise AggregationError("need at least one dataset")
    coverage = None
    tallies = {}
    for d, reports in enumerate(dataset_reports):
        seen = set()
        for report in reports:
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
    return AggregateReport(cells=tuple(
        AggregateCell(rail=rail, kind=kind, n_datasets=n, n_increment=count)
        for (rail, kind), count in tallies.items()
    ))


def _fold_outcome(fold, datasets):
    """What *fold* returns, or the (error class, message) it raises."""
    try:
        return fold(datasets)
    except AggregationError as exc:
        return type(exc), str(exc)


_FOLD_CELLS = [(kind, rail) for kind in list(ComparisonKind)[:2] for rail in RAIL_ORDER[:2]]
_FOLD_DATASET = st.one_of(
    st.permutations(_FOLD_CELLS),  # every cell once, in any order
    st.lists(st.sampled_from(_FOLD_CELLS), max_size=5),  # cells missing or repeated
).flatmap(lambda cells: st.lists(
    st.sampled_from(Verdict), min_size=len(cells), max_size=len(cells)
).map(lambda verdicts: [_fake_report(*cell, v) for cell, v in zip(cells, verdicts)]))


@given(st.lists(_FOLD_DATASET, max_size=4))
def test_aggregate_equals_the_enum_keyed_fold(datasets):
    # The same cells in the same order, and the same error messages.
    assert _fold_outcome(aggregate, datasets) == _fold_outcome(_enum_keyed_aggregate, datasets)
