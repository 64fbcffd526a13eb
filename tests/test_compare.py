import dataclasses
import math
import random

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
    EventKind,
    InfectionEffect,
    MachineState,
    RAIL_ORDER,
    RailKind,
    Verdict,
    aggregate,
    align,
    classify_increment,
    detect_spikes,
    estimate_lag,
    generate_run,
    run_canonical_comparisons,
)
from powertrace.compare import _pearson, _rolling_median_mad

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
def _series_and_window(draw):
    """Series shorter than, as long as, and longer than odd and even windows,
    from tie-heavy small-integer alphabets, constant runs or wide floats."""
    window = draw(st.integers(1, 40))
    n = draw(st.one_of(st.integers(1, window), st.just(window), st.integers(window, 150)))
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
    del broken[(MachineState.POST_INFECTION, run.schedule.entries[4][1], RailKind.RAIL_5V)]
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


def test_aggregate_rejects_unlabeled_reports():
    report = dataclasses.replace(_fake_report(ComparisonKind.IDLE_PRE_VS_IDLE_POST,
                                              RailKind.RAIL_5V, Verdict.NO_INCREMENT),
                                 kind=None)
    with pytest.raises(AggregationError, match="without kind"):
        aggregate([[report]])
