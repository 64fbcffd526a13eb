"""Release gate: one test per acceptance criterion.

Each criterion prints a single PASS or FAIL line; run with `pytest -s`
to see them. Tolerances live in the constants below so the gate is
explicit about what it demands.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import FAST_COMPARE, analyze_pool, compact_scenario, idle_delta, random_run
from powertrace import (
    CalibrationConfig,
    ComparisonKind,
    InfectionEffect,
    PowerSeries,
    RAIL_ORDER,
    RailKind,
    ScenarioConfig,
    Verdict,
    aggregate,
    classify_increment,
    compute_power,
    detect_markers,
    estimate_lag,
    generate_ensemble,
    generate_run,
    read_capture,
    run_canonical_comparisons,
    write_capture,
)
from powertrace.cli import main as cli_main
from powertrace.synth import MARKER_RAIL

MARKER_EDGE_TOL = 5        # samples of slack on recovered marker edges
DETECT_BUDGET_S = 1.0      # wall-clock bound per detection run
POWER_REL_TOL = 1e-12      # relative error bound vs brute-force power
HALF_LSB = 10.0 / (1 << 16)  # half an ADC step in raw volts
ROUNDTRIP_SLACK = 1e-9     # relative float slack on the half-LSB bound
PERIOD = 0.010


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS")


def test_criterion_1_marker_recovery_on_default_runs():
    with criterion(1, "18 markers recovered on 100 default runs"):
        worst_edge = 0
        worst_time = 0.0
        for seed in range(100):
            run, truth = generate_run(ScenarioConfig(seed=seed))
            series = compute_power(run.rails[MARKER_RAIL])
            start = time.perf_counter()
            markers = detect_markers(
                series, expected_count=run.expected_marker_count
            )
            worst_time = max(worst_time, time.perf_counter() - start)
            assert len(markers) == 18
            for marker, (s, e) in zip(markers, truth.markers):
                worst_edge = max(
                    worst_edge,
                    abs(marker.start_index - s),
                    abs(marker.end_index - e),
                )
        assert worst_edge <= MARKER_EDGE_TOL
        assert worst_time < DETECT_BUDGET_S


def test_criterion_2_duration_reporting_is_exact():
    with criterion(2, "3000 samples at 10 ms report exactly 30 s"):
        run = random_run(np.random.default_rng(2), n=3000)
        for rail in RAIL_ORDER:
            assert run.rails[rail].duration_s == 30.0
            assert compute_power(run.rails[rail]).duration_s == 30.0


def test_criterion_3_power_matches_brute_force():
    with criterion(3, "power matches brute force within 1e-12 relative"):
        run = random_run(np.random.default_rng(3), n=4000)
        for rail in RAIL_ORDER:
            trace = run.rails[rail]
            got = compute_power(trace).power
            for k in range(len(trace)):
                want = float(trace.voltage[k]) * float(trace.current[k])
                err = abs(got[k] - want) / max(abs(want), 1e-300)
                assert err < POWER_REL_TOL


def test_criterion_4_ensemble_fractions():
    with criterion(4, "ensemble fractions 66.67%, 100.00%, 33.33%"):
        infected = InfectionEffect(delta_power=idle_delta(1.0))
        cases = [
            ([infected, infected, None], 2, "66.67%"),
            ([infected, infected, infected], 3, "100.00%"),
            ([infected, None, None], 1, "33.33%"),
        ]
        for overrides, expected_hits, expected_label in cases:
            datasets = generate_ensemble(compact_scenario(40), 3, overrides)
            reports = []
            for run, _ in datasets:
                pool = analyze_pool(run)
                reports.append(
                    run_canonical_comparisons(pool, pool, FAST_COMPARE, PERIOD)
                )
            cell = aggregate(reports).cell(
                RailKind.RAIL_12V_MB, ComparisonKind.IDLE_PRE_VS_IDLE_POST
            )
            assert cell.n_datasets == 3
            assert cell.n_increment == expected_hits
            assert cell.percent_label == expected_label


def test_criterion_5_exact_lag_recovery():
    with criterion(5, "lag recovered exactly for shifts of -10..10"):
        base = np.random.default_rng(5).normal(0.0, 1.0, 120)
        n = len(base)
        for k in range(-10, 11):
            if k >= 0:
                shifted = np.concatenate([np.zeros(k), base[: n - k]])
            else:
                shifted = np.concatenate([base[-k:], np.zeros(-k)])
            result = estimate_lag(base, shifted, max_lag=0.1, sample_period=PERIOD)
            assert result.lag_samples == k
            assert result.lag_s == pytest.approx(k * PERIOD)


def test_criterion_6_increment_decisions_under_noise():
    with criterion(6, "5% increment on 20 W called correctly under noise"):
        rng = np.random.default_rng(6)
        n = 2000
        hits = 0
        for _ in range(100):
            baseline = 20.0 + rng.normal(0.0, 0.1, n)
            suspect = 21.0 + rng.normal(0.0, 0.1, n)
            report = classify_increment(baseline, suspect, sample_period=PERIOD)
            hits += report.verdict is Verdict.INCREMENT
        assert hits == 100

        quiet = 0
        for _ in range(100):
            baseline = 20.0 + rng.normal(0.0, 0.1, n)
            suspect = 20.0 + rng.normal(0.0, 0.1, n)
            report = classify_increment(baseline, suspect, sample_period=PERIOD)
            quiet += report.verdict is Verdict.NO_INCREMENT
        assert quiet >= 95


def test_criterion_7_adc_round_trip_error_bound(tmp_path):
    with criterion(7, "write/read round trip within half an LSB"):
        cal = CalibrationConfig()
        bound = HALF_LSB * (1.0 + ROUNDTRIP_SLACK)
        rng = np.random.default_rng(7)
        for trial in range(20):
            run = random_run(rng, run_id=f"rt-{trial}")
            sample, manifest = write_capture(run, cal, tmp_path)
            back = read_capture(sample, manifest)
            for rail in RAIL_ORDER:
                dv = np.abs(back.rails[rail].voltage - run.rails[rail].voltage)
                di = np.abs(back.rails[rail].current - run.rails[rail].current)
                assert (dv / cal.voltage_scale[rail]).max() <= bound
                assert (di / cal.current_scale[rail]).max() <= bound


def test_criterion_8_markers_invariant_under_affine_rescale():
    with criterion(8, "marker indices invariant under positive affine maps"):
        rng = np.random.default_rng(8)
        for _ in range(50):
            seed = int(rng.integers(0, 2**31))
            run, _ = generate_run(compact_scenario(seed))
            series = compute_power(run.rails[MARKER_RAIL])
            c = float(rng.uniform(0.1, 10.0))
            d = float(rng.uniform(-5.0, 50.0))
            scaled = PowerSeries(
                rail=series.rail,
                power=c * series.power + d,
                sample_period=series.sample_period,
            )
            base = [
                (m.start_index, m.end_index)
                for m in detect_markers(series, expected_count=18)
            ]
            mapped = [
                (m.start_index, m.end_index)
                for m in detect_markers(scaled, expected_count=18)
            ]
            assert mapped == base


def test_criterion_9_pipeline_reruns_byte_identical(tmp_path):
    with criterion(9, "synth + analyze + compare rerun is byte-identical"):
        scenario = {
            "seed": 99,
            "rootkit_label": "accept",
            "idle_duration": 10.0,
            "ie_windows": 4,
            "ie_spacing": 2.5,
            "boot_duration": 8.0,
            "infection": {
                "delta_power": {"12v_mb": {"idle": 1.0}},
                "lag_s": 0.05,
            },
        }
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(scenario), encoding="ascii")
        trees = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert cli_main(["synth", "--config", str(config), "--out", str(out)]) == 0
            sample = out / "accept-d1-s99.csv"
            assert cli_main(["analyze", str(sample), "--out", str(out)]) == 0
            assert (
                cli_main(
                    [
                        "compare",
                        "--pre",
                        str(sample),
                        "--out",
                        str(out),
                        "--max-lag",
                        "0.05",
                    ]
                )
                == 0
            )
            trees.append({p.name: p.read_bytes() for p in out.iterdir() if p.is_file()})
        first, second = trees
        assert sorted(first) == sorted(second)
        assert len(first) == 10
        for name in first:
            assert first[name] == second[name], name
