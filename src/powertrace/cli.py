"""Command line front end.

Four subcommands cover the pipeline: synth writes seeded captures,
analyze turns captures into marker/segment reports plus plot data,
compare runs the canonical pairings across datasets, aggregate folds
per-dataset comparison reports into increment fractions.

All data goes to files, all diagnostics to stderr. Outputs carry no
wall-clock timestamps unless --stamp asks for one, so re-running a
command on identical inputs rewrites byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from .compare import (
    CompareParams,
    ComparisonKind,
    ComparisonReport,
    SegmentPool,
    Verdict,
    aggregate,
    run_canonical_comparisons,
    segment_power_pool,
)
from .errors import PowerTraceError
from .ingest import (
    CalibrationConfig,
    manifest_path_for,
    write_capture,
    write_series_csv,
    write_text_output,
)
from .ingest import read_capture as _read_capture
from .model import RAIL_ORDER, CaptureRun, MachineState, PowerSeries, RailKind, to_wire, wire_scalar
from .power import compute_power
from .segment import MarkerParams, detect_markers, segment_events
from .synth import generate_ensemble, ground_truth_to_json, load_scenario


def _fail(message: str) -> int:
    print(f"powertrace: {message}", file=sys.stderr)
    return 1


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _write_json(path: Path, payload: dict, stamp: bool) -> None:
    if stamp:
        payload = dict(payload)
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise PowerTraceError(f"{path}: refusing to write a non-finite number ({exc})") from None
    write_text_output(path, text + "\n")


def _output_dir(out: str) -> Path:
    """The --out directory, checked before any work: its nearest existing
    path must be a directory. It is created when the first output is written.
    """
    path = Path(out)
    try:
        for existing in (path, *path.parents):
            if existing.exists():
                if not existing.is_dir():
                    which = "" if existing == path else f"{existing} is "
                    raise PowerTraceError(f"{path}: {which}not a directory")
                break
    except OSError as exc:
        raise PowerTraceError(f"{path}: {exc.strerror}") from None
    return path


def _marker_params(args: argparse.Namespace) -> MarkerParams:
    try:
        rail = RailKind(args.marker_rail)
    except ValueError:
        raise PowerTraceError(
            f"unknown marker rail '{args.marker_rail}' "
            f"(choose from {', '.join(r.wire_name for r in RAIL_ORDER)})"
        ) from None
    try:
        return MarkerParams(
            marker_rail=rail,
            smooth_window=args.smooth_window,
            hi_fraction=args.hi,
            lo_fraction=args.lo,
            min_duration=args.min_duration,
            max_duration=args.max_duration,
        )
    except ValueError as exc:
        raise PowerTraceError(str(exc)) from None


def _compare_params(args: argparse.Namespace) -> CompareParams:
    try:
        return CompareParams(
            window=args.window,
            rel_threshold=args.rel_threshold,
            abs_threshold=args.abs_threshold,
            max_lag=args.max_lag,
            spike_k=args.spike_k,
            spike_window=args.spike_window,
        )
    except ValueError as exc:
        raise PowerTraceError(str(exc)) from None


def _add_marker_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("marker detection")
    group.add_argument("--marker-rail", default="12v_cpu", metavar="RAIL",
                       help="rail carrying the stress markers (default: 12v_cpu)")
    group.add_argument("--smooth-window", type=float, default=0.1, metavar="S",
                       help="moving-average window in seconds (default: 0.1)")
    group.add_argument("--hi", type=float, default=0.6, metavar="F",
                       help="rise threshold as a fraction of the smoothed range (default: 0.6)")
    group.add_argument("--lo", type=float, default=0.4, metavar="F",
                       help="fall threshold as a fraction of the smoothed range (default: 0.4)")
    group.add_argument("--min-duration", type=float, default=3.0, metavar="S",
                       help="shortest accepted marker in seconds (default: 3.0)")
    group.add_argument("--max-duration", type=float, default=8.0, metavar="S",
                       help="longest accepted marker in seconds (default: 8.0)")


def _add_compare_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("comparison")
    group.add_argument("--window", type=float, default=1.0, metavar="S",
                       help="windowed-mean width in seconds (default: 1.0)")
    group.add_argument("--rel-threshold", type=float, default=0.02, metavar="F",
                       help="relative increment threshold (default: 0.02)")
    group.add_argument("--abs-threshold", type=float, default=0.05, metavar="W",
                       help="absolute increment threshold in watts (default: 0.05)")
    group.add_argument("--max-lag", type=float, default=0.10, metavar="F",
                       help="lag search bound as a fraction of segment length (default: 0.10)")
    group.add_argument("--spike-k", type=float, default=6.0, metavar="K",
                       help="MAD multiplier for spike detection (default: 6.0)")
    group.add_argument("--spike-window", type=float, default=1.0, metavar="S",
                       help="rolling window for spike statistics in seconds (default: 1.0)")


class AnalyzedRun:
    """A capture run's labels with its power series, markers, and segments.

    The one power -> markers -> segments -> pool pipeline. It stays in
    this module because perfbench's traced run wraps each stage function
    at this module's globals. It keeps no reference to the run's sample
    table, so a command holds one capture's table at a time.
    """

    def __init__(self, run: CaptureRun, marker_params: MarkerParams):
        self.run_id = run.run_id
        self.rootkit_label = run.rootkit_label
        self.dataset_index = run.dataset_index
        self.powers: dict[RailKind, PowerSeries] = {
            rail: compute_power(trace) for rail, trace in run.rails.items()
        }
        self.sample_period = run.sample_period
        self.markers = detect_markers(
            self.powers[marker_params.marker_rail],
            marker_params,
            expected_count=run.schedule.expected_marker_count,
        )
        self.segments = segment_events(run, self.markers)

    def pool(self) -> SegmentPool:
        power_by_rail = {rail: series.power for rail, series in self.powers.items()}
        return segment_power_pool(power_by_rail, self.segments)


def _analyze(sample_path: Path, marker_params: MarkerParams) -> AnalyzedRun:
    """Read and analyze one capture; an error names the capture's path."""
    try:
        run = _read_capture(sample_path, manifest_path_for(sample_path))
        return AnalyzedRun(run, marker_params)
    except PowerTraceError as exc:
        raise PowerTraceError(f"{sample_path}: {exc}") from None


def _analysis_payload(analyzed: AnalyzedRun) -> dict:
    period = analyzed.sample_period
    segments = []
    for seg in analyzed.segments:
        for rail in RAIL_ORDER:
            power = analyzed.powers[rail].power[seg.start_index : seg.end_index]
            segments.append(
                {
                    "state": seg.state.wire_name,
                    "event": seg.event.wire_name,
                    "rail": rail.wire_name,
                    "start_index": seg.start_index,
                    "end_index": seg.end_index,
                    "duration_s": seg.length * period,
                    "mean_power_w": float(power.mean()),
                    "max_power_w": float(power.max()),
                }
            )
    return {
        "run_id": analyzed.run_id,
        "rootkit_label": analyzed.rootkit_label,
        "dataset_index": analyzed.dataset_index,
        "sample_period_s": period,
        "marker_count": len(analyzed.markers),
        "markers": [
            {
                "start_index": m.start_index,
                "end_index": m.end_index,
                "duration_s": m.length * period,
                "peak_power_w": m.peak_power,
            }
            for m in analyzed.markers
        ],
        "rails": {
            rail.wire_name: {"negative_samples": analyzed.powers[rail].negative_samples}
            for rail in RAIL_ORDER
        },
        "segments": segments,
    }


def _plot_tables(analyzed: AnalyzedRun, out_dir: Path, stem: str) -> list[tuple]:
    return [
        (out_dir / f"{stem}.plot.{rail.wire_name}.csv", "time_s,power_w",
         [analyzed.powers[rail].power])
        for rail in RAIL_ORDER
    ]


def _usable_cpus() -> int:
    # Without an affinity call, assume one CPU and write in-process.
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class _PlotWriter:
    """Writes analyze's plot files, one capture at a time, in argument order.

    With more than one usable CPU, a fork-context pool of up to one worker
    per rail writes a capture's tables (split round-robin, one
    write_series_csv call per worker) while the caller reads the next
    capture. Every stage perfbench wraps stays in the calling process.
    Otherwise the tables are written in-process when started. Either way a
    capture's note or error is printed by wait(), so stderr keeps the order
    of the captures.
    """

    def __init__(self) -> None:
        self.pool = None
        self.workers = min(_usable_cpus(), len(RAIL_ORDER))
        self.pending: tuple | None = None
        if self.workers > 1:
            import multiprocessing

            if "fork" in multiprocessing.get_all_start_methods():
                from concurrent.futures import ProcessPoolExecutor

                self.pool = ProcessPoolExecutor(
                    self.workers, mp_context=multiprocessing.get_context("fork")
                )
                # A fork pool starts all its workers at the first submit and
                # its threads after them: fork now, while the process is
                # small, so the workers' RSS does not include a capture. The
                # no-op task's result is not needed.
                self.pool.submit(int)

    def __enter__(self) -> _PlotWriter:
        return self

    def __exit__(self, *exc_info) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True, cancel_futures=True)

    def start(self, capture: Path, sample_period: float, tables: list, note: str) -> None:
        """Begin writing *capture*'s *tables*; wait() for the previous capture first."""
        error = futures = None
        if self.pool is None:
            try:
                write_series_csv(sample_period, tables)
            except PowerTraceError as exc:
                error = exc
        else:
            from concurrent.futures import BrokenExecutor

            try:
                futures = [
                    self.pool.submit(write_series_csv, sample_period, tables[i::self.workers])
                    for i in range(self.workers)
                ]
            except BrokenExecutor:  # a worker died while idle
                error = self._give_up_pool(capture)
        self.pending = (capture, note, error, futures)

    def wait(self) -> int:
        """Finish the started capture and print its note or error; returns the exit status."""
        if self.pending is None:
            return 0
        capture, note, error, futures = self.pending
        self.pending = None
        if futures:
            from concurrent.futures import BrokenExecutor, wait as wait_all

            wait_all(futures)  # every file is closed before the next capture's start
            try:
                for future in futures:
                    future.result()
            except PowerTraceError as exc:
                error = exc
            except BrokenExecutor:
                error = self._give_up_pool(capture)
        if error is not None:
            return _fail(str(error))
        _note(note)
        return 0

    def _give_up_pool(self, capture: Path) -> PowerTraceError:
        """Shut the broken pool down; the remaining captures are written in-process."""
        self.pool.shutdown(wait=True)
        self.pool = None
        return PowerTraceError(f"{capture}: a plot-writing worker process ended abruptly")


def _report_from_json(obj: dict, source: str) -> ComparisonReport:
    def scalar(kind: type, key: str):
        return wire_scalar(kind, obj[key], key, ValueError)

    try:
        if not isinstance(obj, dict):
            raise TypeError(f"expected an object, got {obj!r}")
        return ComparisonReport(
            kind=ComparisonKind(obj["kind"]),
            rail=RailKind(obj["rail"]),
            baseline_median_w=scalar(float, "baseline_median_w"),
            suspect_median_w=scalar(float, "suspect_median_w"),
            delta_w=scalar(float, "delta_w"),
            relative_increase=(
                None if obj.get("relative_increase") is None
                else scalar(float, "relative_increase")
            ),
            lag_s=scalar(float, "lag_s"),
            lag_samples=scalar(int, "lag_samples"),
            lag_zero_variance=scalar(bool, "lag_zero_variance"),
            baseline_spikes=scalar(int, "baseline_spikes"),
            suspect_spikes=scalar(int, "suspect_spikes"),
            verdict=Verdict(obj["verdict"]),
            noisy=wire_scalar(bool, obj.get("noisy", False), "noisy", ValueError),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PowerTraceError(f"{source}: malformed comparison report ({exc})") from None


def _aggregate_payload(dataset_reports: list[list[ComparisonReport]]) -> dict:
    agg = aggregate(dataset_reports)
    return {
        "n_datasets": len(dataset_reports),
        "cells": [
            {
                "rail": cell.rail.wire_name,
                "kind": cell.kind.wire_name,
                "n_datasets": cell.n_datasets,
                "n_increment": cell.n_increment,
                "fraction": round(cell.fraction, 4),
                "percent": cell.percent_label,
            }
            for cell in agg.cells
        ],
    }


def _cmd_synth(args: argparse.Namespace) -> int:
    config, overrides = load_scenario(args.config)
    out_dir = _output_dir(args.out)
    datasets = generate_ensemble(config, args.datasets, overrides)
    cal = CalibrationConfig()
    for run, truth in datasets:
        sample_path, manifest_path = write_capture(run, cal, out_dir)
        truth_path = sample_path.with_name(sample_path.stem + ".truth.json")
        _write_json(truth_path, {"run_id": run.run_id, **ground_truth_to_json(truth)},
                    stamp=args.stamp)
        _note(f"wrote {sample_path} {manifest_path.name} {truth_path.name}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    params = _marker_params(args)
    out = _output_dir(args.out) if args.out else None
    status = 0
    with _PlotWriter() as plots:
        for capture in args.captures:
            sample_path = Path(capture)
            try:
                analyzed = _analyze(sample_path, params)
                out_dir = out or sample_path.parent
                report_path = out_dir / f"{sample_path.stem}.analysis.json"
                _write_json(report_path, _analysis_payload(analyzed), stamp=args.stamp)
            except PowerTraceError as exc:
                status |= plots.wait() | _fail(str(exc))
                continue
            # The previous capture's plot files are complete, and reported,
            # before this capture's are started.
            status |= plots.wait()
            tables = _plot_tables(analyzed, out_dir, sample_path.stem)
            plots.start(sample_path, analyzed.sample_period, tables,
                        f"analyzed {sample_path}: {len(analyzed.markers)} markers, "
                        f"{len(analyzed.segments)} segments -> {report_path.name}, "
                        f"{len(tables)} plot files")
        status |= plots.wait()
    return status


def _merge_reboot_pool(post_pool: SegmentPool, reboot_pool: SegmentPool) -> SegmentPool:
    merged = dict(post_pool)
    for key, series in reboot_pool.items():
        if key[0] is MachineState.POST_INFECTION_REBOOT:
            merged[key] = series
    return merged


def _cmd_compare(args: argparse.Namespace) -> int:
    marker_params = _marker_params(args)
    compare_params = _compare_params(args)
    pre_paths = [Path(p) for p in args.pre]
    post_paths = [Path(p) for p in args.post] if args.post else pre_paths
    if len(post_paths) != len(pre_paths):
        return _fail(
            f"got {len(pre_paths)} --pre captures but {len(post_paths)} --post captures"
        )
    reboot_paths = [Path(p) for p in args.post_reboot] if args.post_reboot else None
    if reboot_paths is not None and len(reboot_paths) != len(pre_paths):
        return _fail(
            f"got {len(pre_paths)} --pre captures but {len(reboot_paths)} "
            f"--post-reboot captures"
        )
    out = _output_dir(args.out) if args.out else None

    dataset_reports: list[list[ComparisonReport]] = []
    report_payloads: list[tuple[Path, dict]] = []
    for i, pre_path in enumerate(pre_paths):
        pre = _analyze(pre_path, marker_params)
        post = pre if post_paths[i] == pre_path else _analyze(post_paths[i], marker_params)
        post_pool = post.pool()
        if reboot_paths is not None:
            reboot = _analyze(reboot_paths[i], marker_params)
            post_pool = _merge_reboot_pool(post_pool, reboot.pool())
        reports = run_canonical_comparisons(
            pre.pool(), post_pool, compare_params, pre.sample_period
        )
        dataset_reports.append(reports)

        report_path = (out or post_paths[i].parent) / f"{post_paths[i].stem}.comparison.json"
        payload = {
            "pre_run_id": pre.run_id,
            "post_run_id": post.run_id,
            "dataset_index": post.dataset_index,
            "params": to_wire(compare_params),
            "reports": to_wire(reports),
        }
        report_payloads.append((report_path, payload))

    for report_path, payload in report_payloads:
        _write_json(report_path, payload, stamp=args.stamp)
        _note(f"wrote {report_path}")

    agg_path = (out or pre_paths[0].parent) / "aggregate.json"
    _write_json(agg_path, _aggregate_payload(dataset_reports), stamp=args.stamp)
    _note(f"wrote {agg_path}")
    return 0


def _first_difference(first: object, other: object) -> str:
    """The first key, in sorted order, on which two files' params differ."""
    if not (isinstance(first, dict) and isinstance(other, dict)):
        return "params"
    both = first.keys() & other.keys()
    return min(k for k in first.keys() | other.keys() if k not in both or first[k] != other[k])


def _cmd_aggregate(args: argparse.Namespace) -> int:
    out_dir = _output_dir(args.out)
    dataset_reports: list[list[ComparisonReport]] = []
    first_path = first_params = None
    for report_file in args.reports:
        path = Path(report_file)
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad bytes or JSON
            return _fail(f"cannot read comparison report {path}: {exc}")
        if not isinstance(obj, dict) or not isinstance(obj.get("reports"), list):
            return _fail(f"{path}: missing 'reports' list")
        if first_path is None:
            first_path, first_params = path, obj.get("params")
        elif obj.get("params") != first_params:
            key = _first_difference(first_params, obj.get("params"))
            return _fail(f"{path}: params differ from those of {first_path}, first at '{key}'")
        dataset_reports.append(
            [_report_from_json(entry, str(path)) for entry in obj["reports"]]
        )
    agg_path = out_dir / "aggregate.json"
    _write_json(agg_path, _aggregate_payload(dataset_reports), stamp=args.stamp)
    _note(f"wrote {agg_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powertrace",
        description="Power-trace forensics: generate, segment, and compare "
                    "multi-rail capture runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate seeded synthetic captures")
    p_synth.add_argument("--config", required=True, help="scenario JSON file")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--datasets", type=int, default=1, metavar="N",
                         help="number of datasets to generate (default: 1)")
    p_synth.add_argument("--stamp", action="store_true",
                         help="include a wall-clock timestamp in outputs")
    p_synth.set_defaults(func=_cmd_synth)

    p_analyze = sub.add_parser("analyze", help="segment captures and emit reports")
    p_analyze.add_argument("captures", nargs="+", help="capture CSV files")
    p_analyze.add_argument("--out", default=None,
                           help="output directory (default: next to each capture)")
    p_analyze.add_argument("--stamp", action="store_true",
                           help="include a wall-clock timestamp in outputs")
    _add_marker_flags(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_compare = sub.add_parser("compare", help="run the canonical comparisons")
    p_compare.add_argument("--pre", action="append", required=True, metavar="CSV",
                           help="baseline capture (repeat per dataset)")
    p_compare.add_argument("--post", action="append", default=None, metavar="CSV",
                           help="suspect capture (default: the --pre capture itself)")
    p_compare.add_argument("--post-reboot", action="append", default=None, metavar="CSV",
                           help="capture providing post-reboot segments")
    p_compare.add_argument("--out", default=None,
                           help="output directory (default: next to the captures)")
    p_compare.add_argument("--stamp", action="store_true",
                           help="include a wall-clock timestamp in outputs")
    _add_marker_flags(p_compare)
    _add_compare_flags(p_compare)
    p_compare.set_defaults(func=_cmd_compare)

    p_agg = sub.add_parser("aggregate", help="fold comparison reports into fractions")
    p_agg.add_argument("reports", nargs="+", help="comparison JSON files")
    p_agg.add_argument("--out", default=".", help="output directory (default: .)")
    p_agg.add_argument("--stamp", action="store_true",
                       help="include a wall-clock timestamp in outputs")
    p_agg.set_defaults(func=_cmd_aggregate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PowerTraceError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
