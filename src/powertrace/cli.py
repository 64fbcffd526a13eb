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
import importlib
import json
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import AggregationError, ComparisonError, PowerTraceError
from .model import (RAIL_ORDER, MachineState, RailKind, decode, from_wire, read_json, to_wire,
                    fork_helper, reap_helper, usable_cpus)
from .report import (CompareParams, ComparisonFile, ComparisonReport, MarkerParams, aggregate,
                     write_text_output)

if TYPE_CHECKING:
    from collections.abc import Sequence

    from .compare import SegmentPool
    from .model import CaptureRun, PowerSeries

# The pipeline stages, by the name this module calls them: each is imported,
# with numpy, on first use, so --help and aggregate start without numpy.
# perfbench replaces some of them at this module's globals to trace them,
# so a command binds them with _load_stages, which keeps a replacement.
_STAGES = {
    "CalibrationConfig": "ingest.CalibrationConfig",
    "_read_capture": "ingest.read_capture",
    "manifest_path_for": "ingest.manifest_path_for",
    "write_capture": "ingest.write_capture",
    "write_series_csv": "ingest.write_series_csv",
    "compute_power": "power.compute_power",
    "detect_markers": "segment.detect_markers",
    "segment_events": "segment.segment_events",
    "run_canonical_comparisons": "compare.run_canonical_comparisons",
    "segment_power_pool": "compare.segment_power_pool",
    "check_ensemble": "synth.check_ensemble",
    "generate_ensemble": "synth.generate_ensemble",
    "ground_truth_to_json": "synth.ground_truth_to_json",
    "load_scenario": "synth.load_scenario",
}


def __getattr__(name: str):
    try:
        module, _, attr = _STAGES[name].partition(".")
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __package__), attr)


def _load_stages() -> None:
    """Bind every stage in this module's globals; a name already bound is kept."""
    for name in _STAGES:
        globals().setdefault(name, __getattr__(name))


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


# One row per tunable: (flag, field, metavar, help). Each flag's default,
# type and "(default: ...)" text come from the field's own default.
_FLAG_TABLES = {
    MarkerParams: ("marker detection", (
        ("--marker-rail", "marker_rail", "RAIL", "rail carrying the stress markers"),
        ("--smooth-window", "smooth_window", "S", "moving-average window in seconds"),
        ("--hi", "hi_fraction", "F", "rise threshold as a fraction of the smoothed range"),
        ("--lo", "lo_fraction", "F", "fall threshold as a fraction of the smoothed range"),
        ("--min-duration", "min_duration", "S", "shortest accepted marker in seconds"),
        ("--max-duration", "max_duration", "S", "longest accepted marker in seconds"),
    )),
    CompareParams: ("comparison", (
        ("--window", "window", "S", "windowed-mean width in seconds"),
        ("--rel-threshold", "rel_threshold", "F", "relative increment threshold"),
        ("--abs-threshold", "abs_threshold", "W", "absolute increment threshold in watts"),
        ("--max-lag", "max_lag", "F", "lag search bound as a fraction of segment length"),
        ("--spike-k", "spike_k", "K", "MAD multiplier for spike detection"),
        ("--spike-window", "spike_window", "S", "rolling window for spike statistics in seconds"),
    )),
}


def _add_flags(parser: argparse.ArgumentParser, params: type) -> None:
    title, rows = _FLAG_TABLES[params]
    group = parser.add_argument_group(title)
    for flag, name, metavar, text in rows:
        default = to_wire(getattr(params, name))
        group.add_argument(flag, dest=name, type=type(default), default=default,
                           metavar=metavar, help=f"{text} (default: {default})")


def _params(params: type, args: argparse.Namespace):
    """A *params* instance from the flags of its table; an enum field is read by wire name."""
    values = {}
    for _, name, _, _ in _FLAG_TABLES[params][1]:
        value, default = getattr(args, name), getattr(params, name)
        if isinstance(default, Enum):
            value = from_wire(type(default), value, name.replace("_", " "), PowerTraceError)
        values[name] = value
    try:
        return params(**values)
    except ValueError as exc:
        raise PowerTraceError(str(exc)) from None


class AnalyzedRun:
    """A capture run's labels with its power series, markers, and segments.

    The one power -> markers -> segments -> pool pipeline. It stays in
    this module because perfbench's traced run wraps each stage function
    at this module's globals. It keeps no reference to the run's sample
    table, so a command holds one capture's table at a time.
    """

    def __init__(self, run: CaptureRun, marker_params: MarkerParams):
        _load_stages()
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
            expected_count=run.expected_marker_count,
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


def _plot_paths(out_dir: Path, stem: str) -> list[Path]:
    return [out_dir / f"{stem}.plot.{rail.wire_name}.csv" for rail in RAIL_ORDER]


def _plot_tables(analyzed: AnalyzedRun, out_dir: Path, stem: str) -> list[tuple]:
    return [
        (path, "time_s,power_w", [analyzed.powers[rail].power])
        for path, rail in zip(_plot_paths(out_dir, stem), RAIL_ORDER)
    ]


def _plot_error(sample_period: float, tables: list) -> str:
    """Write *tables*; the text of a write error, or '' once they are written."""
    try:
        write_series_csv(sample_period, tables)
    except PowerTraceError as exc:
        return str(exc)
    return ""


class _PlotWriter:
    """Writes analyze's plot files, one capture at a time, in argument order.

    With more than one usable CPU and os.fork, start() forks a helper per
    CPU, up to one per rail, to write a round-robin share of the tables
    while the caller reads the next capture. A helper gets the power
    arrays through fork, so nothing is pickled, and reports by its exit
    status alone; while helpers run, usable_cpus() leaves their CPUs out of
    the next read's parts. Every stage perfbench wraps stays in the calling
    process. Without helpers the tables are written in-process in two
    shares, so that a call holds two columns' text, not four. A share whose
    fork fails is written in-process too, and wait() writes again one whose
    helper did not exit 0; such a write words any error. wait() prints a
    capture's note or first error, so stderr keeps the captures' order.
    """

    def __init__(self) -> None:
        cpus = usable_cpus() if hasattr(os, "fork") else 1
        self.helpers = min(cpus, len(RAIL_ORDER)) if cpus > 1 else 0  # per capture
        self.pending: tuple | None = None

    def start(self, sample_period: float, tables: list, note: str) -> None:
        """Begin writing a capture's *tables*; wait() for the previous capture first."""
        shares = max(self.helpers, 2)
        errors, running = [], []  # running: (pid, share) of each helper
        for share in (tables[i::shares] for i in range(shares)):
            if self.helpers:
                try:
                    running.append((fork_helper(lambda: write_series_csv(sample_period, share)),
                                    share))
                    continue
                except OSError:  # no process to spare: this share is written here
                    pass
            errors.append(_plot_error(sample_period, share))
        self.pending = (sample_period, note, errors, running)

    def wait(self) -> int:
        """Finish the started capture and print its note or first error; returns the exit status."""
        if self.pending is None:
            return 0
        sample_period, note, errors, running = self.pending
        self.pending = None
        for pid, share in running:
            if reap_helper(pid):  # an error, a signal or any other exit: write it again
                errors.append(_plot_error(sample_period, share))
        error = next(filter(None, errors), "")
        if error:
            return _fail(error)
        _note(note)
        return 0


def _aggregate_payload(dataset_reports: list[Sequence[ComparisonReport]]) -> dict:
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


def _refuse_shared_outputs(planned: list) -> None:
    """Refuse an output file that is an input capture or manifest, or that
    two different inputs would write.

    *planned* lists (captures an output is made from, output) pairs.
    Inputs that resolve to the same files write the same bytes, so they may repeat.
    """
    def named(paths) -> str:
        return " + ".join(map(str, dict.fromkeys(paths)))

    read = {os.path.realpath(path): path for inputs, _ in planned for capture in inputs
            for path in (capture, manifest_path_for(capture))}
    first: dict[str, tuple[Path, ...]] = {}
    for inputs, output in planned:
        resolved = os.path.realpath(output)
        if resolved in read:
            raise PowerTraceError(f"{output} would be written for {named(inputs)}, "
                                  f"but it is the input file {read[resolved]}")
        other = first.setdefault(resolved, inputs)
        if list(map(os.path.realpath, other)) != list(map(os.path.realpath, inputs)):
            raise PowerTraceError(
                f"{output} would be written for both {named(other)} and {named(inputs)}")


def _cmd_synth(args: argparse.Namespace) -> int:
    _load_stages()
    config, overrides = load_scenario(args.config)
    out_dir = _output_dir(args.out)
    if args.datasets < 1:
        raise PowerTraceError(f"--datasets must be >= 1, got {args.datasets}")
    if overrides is not None and len(overrides) != args.datasets:
        raise PowerTraceError(f"scenario.dataset_infections has {len(overrides)} entries "
                              f"for --datasets {args.datasets}")
    check_ensemble(config, args.datasets, overrides)
    cal = CalibrationConfig()
    # One dataset at a time: each run is written and dropped before the
    # next is built, so memory holds one capture whatever --datasets is.
    for k in range(1, args.datasets + 1):
        [(run, truth)] = generate_ensemble(config, args.datasets, overrides, indices=[k])
        sample_path, manifest_path = write_capture(run, cal, out_dir)
        truth_path = sample_path.with_name(sample_path.stem + ".truth.json")
        _write_json(truth_path, {"run_id": run.run_id, **ground_truth_to_json(truth)},
                    stamp=args.stamp)
        del run, truth
        _note(f"wrote {sample_path} {manifest_path.name} {truth_path.name}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    _load_stages()
    params = _params(MarkerParams, args)
    out = _output_dir(args.out) if args.out else None
    captures = [Path(capture) for capture in args.captures]
    report_paths = [(out or path.parent) / f"{path.stem}.analysis.json" for path in captures]
    # A capture's plot files share its report's directory and stem.
    _refuse_shared_outputs([((path,), output) for path, report in zip(captures, report_paths)
                            for output in (report, *_plot_paths(report.parent, path.stem))])
    status = 0
    plots = _PlotWriter()
    try:
        for sample_path, report_path in zip(captures, report_paths):
            try:
                analyzed = _analyze(sample_path, params)
                _write_json(report_path, _analysis_payload(analyzed), stamp=args.stamp)
            except PowerTraceError as exc:
                status |= plots.wait() | _fail(str(exc))
                continue
            # The previous capture's plot files are complete, and reported,
            # before this capture's are started.
            status |= plots.wait()
            tables = _plot_tables(analyzed, report_path.parent, sample_path.stem)
            plots.start(analyzed.sample_period, tables,
                        f"analyzed {sample_path}: {len(analyzed.markers)} markers, "
                        f"{len(analyzed.segments)} segments -> {report_path.name}, "
                        f"{len(tables)} plot files")
    finally:  # no helper outlives the command
        status |= plots.wait()
    return status


def _cmd_compare(args: argparse.Namespace) -> int:
    _load_stages()
    marker_params = _params(MarkerParams, args)
    compare_params = _params(CompareParams, args)
    pre_paths = [Path(p) for p in args.pre]
    post_paths = [Path(p) for p in args.post] if args.post else pre_paths
    reboot_paths = [Path(p) for p in args.post_reboot] if args.post_reboot else post_paths
    for flag, paths in (("--post", post_paths), ("--post-reboot", reboot_paths)):
        if len(paths) != len(pre_paths):
            return _fail(f"got {len(pre_paths)} --pre captures but {len(paths)} {flag} captures")
    out = _output_dir(args.out) if args.out else None
    report_paths = [(out or post.parent) / f"{post.stem}.comparison.json" for post in post_paths]
    agg_path = (out or pre_paths[0].parent) / "aggregate.json"
    datasets = list(zip(pre_paths, post_paths, reboot_paths))
    every_capture = (*pre_paths, *post_paths, *reboot_paths)
    _refuse_shared_outputs([*zip(datasets, report_paths), (every_capture, agg_path)])

    comparisons: list[ComparisonFile] = []
    for dataset, report_path in zip(datasets, report_paths):
        # A capture given for several roles is read, analyzed and pooled once.
        analyzed = {path: _analyze(path, marker_params) for path in dict.fromkeys(dataset)}
        pre_path, post_path, reboot_path = dataset
        pre, post = analyzed[pre_path], analyzed[post_path]
        for path, run in analyzed.items():
            # Windows and lags are counted in samples, so the captures need one period.
            if run.sample_period != pre.sample_period:
                raise PowerTraceError(f"{path}: sample period {run.sample_period} s differs "
                                      f"from {pre.sample_period} s of --pre capture {pre_path}")
        pools = {path: run.pool() for path, run in analyzed.items()}
        # Each post state's segments come only from the capture given for it.
        sources = {MachineState.POST_INFECTION: pools[post_path],
                   MachineState.POST_INFECTION_REBOOT: pools[reboot_path]}
        suspect_pool = {key: series for state, pool in sources.items()
                        for key, series in pool.items() if key[0] is state}
        try:
            reports = run_canonical_comparisons(
                pools[pre_path], suspect_pool, compare_params, pre.sample_period
            )
        except ComparisonError as exc:
            captures = (("--pre", pre_path), ("--post", args.post and post_path),
                        ("--post-reboot", args.post_reboot and reboot_path))
            named = ", ".join(f"{flag} {path}" for flag, path in captures if path)
            raise ComparisonError(f"{named}: {exc}") from None
        comparisons.append(ComparisonFile(pre.run_id, post.run_id, post.dataset_index,
                                          compare_params, tuple(reports)))

    for report_path, comparison in zip(report_paths, comparisons):
        _write_json(report_path, to_wire(comparison), stamp=args.stamp)
        _note(f"wrote {report_path}")

    payload = _aggregate_payload([comparison.reports for comparison in comparisons])
    _write_json(agg_path, payload, stamp=args.stamp)
    _note(f"wrote {agg_path}")
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    out_dir = _output_dir(args.out)
    paths = [Path(report_file) for report_file in args.reports]
    comparisons: list[ComparisonFile] = []
    for path in paths:
        obj = read_json(path, "comparison report", PowerTraceError)
        if isinstance(obj, dict):
            obj.pop("generated_at", None)  # the time --stamp adds

        def malformed(message: str) -> PowerTraceError:
            return PowerTraceError(f"{path}: malformed comparison report ({message})")

        comparison = decode(ComparisonFile, obj, "", malformed)
        first = comparisons[0].params if comparisons else comparison.params
        if comparison.params != first:
            key = min(f.name for f in fields(first)
                      if getattr(first, f.name) != getattr(comparison.params, f.name))
            raise PowerTraceError(
                f"{path}: params differ from those of {paths[0]}, first at '{key}'")
        comparisons.append(comparison)
    try:
        payload = _aggregate_payload([comparison.reports for comparison in comparisons])
    except AggregationError as exc:
        if exc.dataset is None:
            raise
        # The fold numbers datasets from 0; name the files given instead.
        detail = str(exc).removeprefix(f"dataset {exc.dataset}")
        return _fail(f"{paths[exc.dataset]}{detail.replace(' as dataset 0', f' as {paths[0]}')}")
    agg_path = out_dir / "aggregate.json"
    _write_json(agg_path, payload, stamp=args.stamp)
    _note(f"wrote {agg_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powertrace",
        description="Power-trace forensics: generate, segment, and compare "
                    "multi-rail capture runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    stamp = argparse.ArgumentParser(add_help=False)
    stamp.add_argument("--stamp", action="store_true",
                       help="include a wall-clock timestamp in outputs")

    p_synth = sub.add_parser("synth", parents=[stamp], help="generate seeded synthetic captures")
    p_synth.add_argument("--config", required=True, help="scenario JSON file")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--datasets", type=int, default=1, metavar="N",
                         help="number of datasets to generate (default: 1)")
    p_synth.set_defaults(func=_cmd_synth)

    p_analyze = sub.add_parser("analyze", parents=[stamp],
                               help="segment captures and emit reports")
    p_analyze.add_argument("captures", nargs="+", help="capture CSV files")
    p_analyze.add_argument("--out", default=None,
                           help="output directory (default: next to each capture)")
    _add_flags(p_analyze, MarkerParams)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_compare = sub.add_parser("compare", parents=[stamp], help="run the canonical comparisons")
    p_compare.add_argument("--pre", action="append", required=True, metavar="CSV",
                           help="baseline capture (repeat per dataset)")
    p_compare.add_argument("--post", action="append", default=None, metavar="CSV",
                           help="suspect capture (default: the --pre capture itself)")
    p_compare.add_argument("--post-reboot", action="append", default=None, metavar="CSV",
                           help="capture providing the post-reboot segments "
                                "(default: the --post capture)")
    p_compare.add_argument("--out", default=None,
                           help="output directory (default: next to the captures)")
    _add_flags(p_compare, MarkerParams)
    _add_flags(p_compare, CompareParams)
    p_compare.set_defaults(func=_cmd_compare)

    p_agg = sub.add_parser("aggregate", parents=[stamp],
                           help="fold comparison reports into fractions")
    p_agg.add_argument("reports", nargs="+", help="comparison JSON files")
    p_agg.add_argument("--out", default=".", help="output directory (default: .)")
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
