import warnings

import numpy as np
import pytest

from powertrace import (
    PowerComputationError,
    PowerSeries,
    RailKind,
    RailTrace,
    compute_power,
    power_summary,
    window_sample_count,
    windowed_means,
)


def _trace(voltage, current, period=0.010):
    return RailTrace(
        rail=RailKind.RAIL_12V_MB, voltage=voltage, current=current, sample_period=period
    )


def test_zero_current_gives_zero_power():
    series = compute_power(_trace([12.0, 12.0], [0.0, 2.5]))
    assert series.power.tolist() == [0.0, 30.0]
    assert series.rail is RailKind.RAIL_12V_MB
    assert series.sample_period == 0.010


def test_constant_product():
    series = compute_power(_trace(np.full(3000, 5.0), np.ones(3000)))
    assert len(series) == 3000
    assert np.all(series.power == 5.0)
    assert series.duration_s == 30.0


def test_matches_bruteforce_elementwise_product():
    rng = np.random.default_rng(11)
    t = np.arange(2000) * 0.010
    voltage = 12.0 + rng.normal(0.0, 0.05, 2000)
    current = 2.0 + np.sin(2 * np.pi * 0.5 * t) + rng.normal(0.0, 0.01, 2000)
    series = compute_power(_trace(voltage, current))
    oracle = np.array([float(voltage[k]) * float(current[k]) for k in range(2000)])
    scale = np.maximum(np.abs(oracle), 1.0)
    assert np.max(np.abs(series.power - oracle) / scale) < 1e-12


def test_negative_current_counted_not_clamped():
    series = compute_power(_trace([12.0, 12.0, 12.0], [1.0, -0.5, -0.25]))
    assert series.negative_samples == 2
    assert series.power[1] == -6.0


def test_nonnegative_inputs_give_nonnegative_power():
    rng = np.random.default_rng(5)
    series = compute_power(_trace(rng.uniform(0, 13, 500), rng.uniform(0, 4, 500)))
    assert series.negative_samples == 0
    assert np.all(series.power >= 0)


def test_linear_in_current():
    rng = np.random.default_rng(6)
    voltage = rng.uniform(11, 13, 300)
    current = rng.uniform(0, 4, 300)
    for c in (0.5, 2.0, 7.0):
        scaled = compute_power(_trace(voltage, c * current))
        base = compute_power(_trace(voltage, current))
        assert np.allclose(scaled.power, c * base.power, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "voltage, current, sample",
    [([12.0, 1e200, 1e200], [1.0, 1e200, 2.0], 1), ([12.0, 12.0], [1.0, np.nan], 1),
     ([np.inf, 12.0], [0.0, 1.0], 0)],
)
def test_non_finite_power_names_rail_and_sample(voltage, current, sample):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PowerComputationError, match=f"rail 12v_mb, sample {sample}: non-finite"):
            compute_power(_trace(np.array(voltage), np.array(current)))


def test_window_sample_count_floors_with_minimum_one():
    assert window_sample_count(1.0, 0.010) == 100
    assert window_sample_count(0.25, 0.010) == 25
    assert window_sample_count(0.015, 0.010) == 1
    assert window_sample_count(0.001, 0.010) == 1


def test_windowed_means_hand_example():
    assert windowed_means(np.array([1.0, 2.0, 3.0, 4.0]), 2).tolist() == [1.5, 3.5]


def test_windowed_means_drops_trailing_partial():
    out = windowed_means(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 2)
    assert out.tolist() == [1.5, 3.5]


def test_windowed_means_empty_input():
    assert windowed_means(np.empty(0), 10).size == 0


def test_power_summary_constant_series():
    series = PowerSeries(rail=RailKind.RAIL_5V, power=np.full(450, 5.0))
    out = power_summary(series, 1.0)
    assert out.shape == (4,)
    assert np.all(out == 5.0)


def test_power_summary_window_count_on_thirty_seconds():
    series = PowerSeries(rail=RailKind.RAIL_5V, power=np.arange(3000, dtype=float))
    assert power_summary(series, 1.0).shape == (30,)


def test_mean_of_windowed_means_matches_prefix_mean():
    rng = np.random.default_rng(9)
    values = rng.uniform(0, 50, 1234)
    w = 100
    out = windowed_means(values, w)
    covered = values[: len(out) * w]
    assert out.mean() == pytest.approx(covered.mean(), rel=1e-12)
