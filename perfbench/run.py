"""powertrace benchmark: CLI round-trip times, verdict quality and per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload readme_selfcompare --seed 1 --seconds 30 --trace 0

``--trace 0`` times the real CLI, one child process at a time: a bare
``--help`` start-up (``setup_s``), then repeated round trips
``synth -> analyze -> compare -> aggregate`` over the workload's batch
until ``--seconds`` is spent (at least two). Each subcommand's wall time is
the median over the round trips, scaled to reference machine speed by a
calibration task timed in the same run (see ``REF_CODE``); peak RSS comes
from each child's rusage.
Every output file is hashed and the first round trip's outputs are checked
against the ground truth synth wrote (see ``oracle.py``); a later round
trip whose outputs differ by a single byte counts as a failed invocation.

``--trace 1`` runs the same round trip in-process through
``powertrace.cli.main``, once untraced and once with every layer function
wrapped in a span (see ``spans.py``), alternating which goes first per
subcommand, and reports per-layer times and counts. It makes that one pair
of round trips whatever ``--seconds`` says.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report. Full results, span lists and output digests go to
``perfbench/.work/results/``. Caches are used warm: nothing is dropped,
no CPU is pinned and no cgroup is touched.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import oracle
from spans import MB, Tracer
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

# Run speed drifts over seconds on a shared machine, so the cheap start-up
# samples are spread over every round trip, not taken in a row. aggregate
# runs several times per round trip for the same reason: on the workloads
# that fold one comparison file it costs little more than a start-up.
SETUP_PER_REP = 2
AGGREGATE_REPEATS = 3
MIN_REPS = 2
INVOCATION_TIMEOUT_S = 150.0
# BLAS worker threads made the start-up time of a child spread four times
# wider (interquartile range of 30 bare starts: 27-32% of the median with
# them, 8% without), so every measured process runs single-threaded BLAS.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Calibration task, run as its own process next to the CLI: interpreter
# start, numpy import, a Python loop and rolling medians, the same mix as
# the pipeline's. The machine's speed drifts by 10-25% over minutes, so
# every time metric is reported at reference speed: its median multiplied by
# REF_SECONDS / (median time of this task in the same run). Across two
# batches of runs 15 minutes apart, that cut the drift of compare_s from 9%
# to 1% and of synth_s from 15% to 7%. Raw medians are reported too.
REF_CODE = """
import numpy as np
x = np.random.default_rng(0).normal(size=300_000)
s = 0
for i in range(300_000):
    s += i * i
for _ in range(5):
    np.median(np.lib.stride_tricks.sliding_window_view(x[:20000], 100), axis=1)
"""
# The task's median time on a 2-core Intel Xeon VM (Python 3.11, numpy 2.4).
REF_SECONDS = 0.45
COMMANDS = ("synth", "analyze", "compare", "aggregate")

END_TO_END = {
    "setup_s": "s",
    "synth_s": "s",
    "analyze_s": "s",
    "compare_s": "s",
    "aggregate_s": "s",
    "peak_rss_mb": "MB",
    "verdict_accuracy": "ratio",
}

PER_LAYER = {
    "synth.generate_ensemble.s": "s",
    "synth.samples": "count",
    "ingest.write_capture.s": "s",
    "ingest.write_capture.mb": "MB",
    "ingest.read_capture.s": "s",
    "ingest.read_capture.mb": "MB",
    "ingest.read_capture.alloc_peak_mb": "MB",
    "ingest.read_capture.errors": "count",
    "power.compute_power.s": "s",
    "power.windowed_means.s": "s",
    "segment.detect_markers.s": "s",
    "segment.markers_found": "count",
    "segment.markers_expected": "count",
    "segment.segment_events.s": "s",
    "segment.errors": "count",
    "compare.segment_power_pool.s": "s",
    "compare.detect_spikes.s": "s",
    "compare.detect_spikes.samples": "count",
    "compare.detect_spikes.edge_windows": "count",
    "compare.detect_spikes.distinct_ratio": "ratio",
    "compare.estimate_lag.s": "s",
    "compare.estimate_lag.shifts": "count",
    "compare.run_canonical_comparisons.self_s": "s",
    "compare.reports": "count",
    "compare.missed_increments": "count",
    "compare.false_increments": "count",
    "compare.aggregate.s": "s",
    "cli.synth.self_s": "s",
    "cli.analyze.self_s": "s",
    "cli.analyze.plot_mb": "MB",
    "cli.compare.self_s": "s",
    "cli.aggregate.self_s": "s",
    "trace.overhead_s": "s",
    "trace.missing_wrappers": "count",
}

LAYERS = ("synth", "ingest", "power", "segment", "compare", "cli")


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "caches": "warm; no cache dropped, no CPU pinned, no cgroup touched",
        "blas_threads": BLAS_ENV,
    }


class CliRunner:
    """Runs ``python -m powertrace.cli`` children one at a time."""

    def __init__(self, work: Path):
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work), **BLAS_ENV)
        self.log = open(work / "cli.log", "ab")
        self.attempted = 0
        self.failed = 0

    def close(self) -> None:
        self.log.close()

    def run_ref(self) -> float:
        """Wall seconds of one calibration task."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", REF_CODE], env=self.env, check=True,
                       timeout=INVOCATION_TIMEOUT_S)
        return time.perf_counter() - start

    def run(self, argv: list[str]) -> tuple[float, int, float]:
        """Wall seconds, exit code and peak RSS (MB) of one invocation.

        A nonzero exit counts as a failed invocation.
        """
        self.attempted += 1
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "powertrace.cli", *argv],
                                env=self.env, stdout=self.log, stderr=self.log)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.failed += proc.returncode != 0
        return wall, proc.returncode, usage.ru_maxrss * 1024 / MB


def check_outputs(workload: Workload, rep_dir: Path,
                  digests: dict[str, dict[str, oracle.FileDigest]]) -> oracle.VerdictTally:
    """Run every oracle check on one round trip's outputs."""
    problems: list[str] = []
    truths = oracle.load_truths(workload, rep_dir, problems)
    problems += oracle.check_synth(workload, digests["synth"], truths)
    problems += oracle.check_analyze(workload, rep_dir, digests["analyze"], truths)
    tally = oracle.check_compare(workload, rep_dir, truths)
    tally.problems = problems + tally.problems + oracle.check_aggregate(workload, rep_dir)
    return tally


def out_dir(argv: list[str]) -> Path:
    return Path(argv[argv.index("--out") + 1])


def output_dir(rep_dir: Path, workload: Workload, command: str) -> Path:
    return out_dir(dict(workload.commands(rep_dir))[command])


def run_untraced(workload: Workload, work: Path, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    runner = CliRunner(work)
    try:
        runner.run(["--help"])  # warm-up: bytecode and page caches
        setup = []
        ref = []
        walls: dict[str, list[float]] = {c: [] for c in COMMANDS}
        peak_rss = 0.0
        first: dict[str, str] = {}
        first_files: dict[str, dict[str, oracle.FileDigest]] = {}
        tally = None
        rep_times: list[float] = []
        while len(rep_times) < MIN_REPS or (
                time.perf_counter() + statistics.median(rep_times) <= deadline):
            rep_start = time.perf_counter()
            rep_dir = work / f"rep{len(rep_times)}"
            files = {}
            for _ in range(SETUP_PER_REP):
                setup.append(runner.run(["--help"])[0])
                ref.append(runner.run_ref())
            for command, argv in workload.commands(rep_dir):
                workload.stage(command, rep_dir)
                for _ in range(AGGREGATE_REPEATS if command == "aggregate" else 1):
                    wall, rc, rss = runner.run(argv)
                    walls[command].append(wall)
                    peak_rss = max(peak_rss, rss)
                    files[command] = oracle.digest_tree(out_dir(argv))
                    digest = oracle.combined_digest(files[command])
                    first.setdefault(command, digest)
                    # A missing output or one that differs from the first
                    # round trip's fails the invocation too.
                    runner.failed += rc == 0 and (not files[command] or digest != first[command])
            if tally is None:
                # Later round trips are checked by digest against this one.
                tally = check_outputs(workload, rep_dir, files)
                first_files = files
            shutil.rmtree(rep_dir)
            rep_times.append(time.perf_counter() - rep_start)
    finally:
        runner.close()

    samples = {"setup_s": setup, **{f"{c}_s": walls[c] for c in COMMANDS}}
    raw = {name: statistics.median(values) for name, values in samples.items()}
    speed = REF_SECONDS / statistics.median(ref)
    metrics = {name: value * speed for name, value in raw.items()}
    metrics["peak_rss_mb"] = peak_rss
    metrics["verdict_accuracy"] = tally.accuracy
    return {
        "metrics": metrics,
        "samples": samples,
        "raw_medians": raw,
        "reference_s": ref,
        "round_trips": len(rep_times),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "tally": tally,
        "digests": first,
        "files": {c: {name: d.sha256 for name, d in fs.items()} for c, fs in first_files.items()},
    }


def import_program(module: str):
    """Import a powertrace module from this checkout's sources, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mod = importlib.import_module(module)
    if not Path(mod.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported {module} from {mod.__file__}, not from {SRC}")
    return mod


def run_both(workload: Workload, work: Path, log, tracer: Tracer,
             trace_prefix: str) -> tuple[float, float, int, int]:
    """One untraced and one traced in-process round trip, interleaved.

    Per subcommand the untraced and traced calls alternate which goes
    first, so warm-up effects do not all land on one side. Returns the
    seconds spent in cli.main on each side, invocations and failures.
    """
    main = import_program("powertrace.cli").main
    plain_s = traced_s = 0.0
    attempted = failed = 0
    steps = zip(workload.commands(work / "plain"), workload.commands(work / "traced"))
    for i, ((command, plain_argv), (_, traced_argv)) in enumerate(steps):
        workload.stage(command, work / "plain")
        workload.stage(command, work / "traced")
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            originals = tracer.install() if traced else []
            start = time.perf_counter()
            try:
                with contextlib.redirect_stderr(log):
                    if traced:
                        tracer.trace_id = f"{trace_prefix}/{command}"
                        with tracer.span(f"cli.{command}"):
                            rc = main(traced_argv)
                    else:
                        rc = main(plain_argv)
            finally:
                elapsed = time.perf_counter() - start
                Tracer.uninstall(originals)
            if traced:
                traced_s += elapsed
            else:
                plain_s += elapsed
            attempted += 1
            failed += rc != 0
    return plain_s, traced_s, attempted, failed


def read_alloc_peak_mb(workload: Workload, rep_dir: Path) -> float:
    """Largest tracemalloc peak of ingest.read_capture over the batch's first captures."""
    ingest = import_program("powertrace.ingest")
    peak = 0
    cap = output_dir(rep_dir, workload, "synth")
    for stem in workload.stems[:3]:
        tracemalloc.start()
        try:
            ingest.read_capture(cap / f"{stem}.csv", cap / f"{stem}.manifest.json")
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / MB


def run_traced(workload: Workload, work: Path, trace_prefix: str) -> dict:
    tracer = Tracer()
    with open(work / "cli.log", "a") as log:
        plain_s, traced_s, attempted, failed = run_both(workload, work, log, tracer, trace_prefix)

    rep_dir = work / "traced"
    files = {c: oracle.digest_tree(output_dir(rep_dir, workload, c)) for c in COMMANDS}
    tally = check_outputs(workload, rep_dir, files)

    self_times = tracer.self_times()
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    by_command: dict[str, dict[str, float]] = {}
    for s in tracer.spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + self_times[s.span_id]
        layers = by_command.setdefault(s.trace_id.rsplit("/", 1)[-1], dict.fromkeys(LAYERS, 0.0))
        layers[s.name.split(".", 1)[0]] += self_times[s.span_id]

    c = tracer.counts
    metrics = {name: total.get(name[:-2], 0.0) for name in PER_LAYER if name.endswith(".s")}
    metrics.update({name: own.get(name[:-7], 0.0) for name in PER_LAYER if name.endswith(".self_s")})
    metrics.update({name: float(c[name]) for name in PER_LAYER if name not in metrics})
    calls = c["compare.detect_spikes.calls"]
    metrics["compare.detect_spikes.distinct_ratio"] = (
        len(tracer.spike_inputs) / calls if calls else 0.0)
    metrics["compare.missed_increments"] = float(tally.missed)
    metrics["compare.false_increments"] = float(tally.false)
    metrics["cli.analyze.plot_mb"] = sum(
        d.size for name, d in files["analyze"].items() if ".plot." in name) / MB
    metrics["ingest.read_capture.alloc_peak_mb"] = read_alloc_peak_mb(workload, rep_dir)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.missing_wrappers"] = float(len(tracer.missing))
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "tally": tally,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "by_command": by_command,
        "missing": tracer.missing,
        "spans": tracer.dump(),
        "digests": {c: oracle.combined_digest(f) for c, f in files.items()},
    }


def report(name: str, seed: int, result: dict, units: dict[str, str]) -> None:
    """Print the readable report that precedes the JSON line."""
    print(f"workload {name} seed {seed}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for metric, unit in units.items():
        line = f"  {metric:42s} {result['metrics'][metric]:14.6f} {unit}"
        values = result.get("samples", {}).get(metric)
        if values:
            line += (f"  (raw median {result['raw_medians'][metric]:.4f} of n={len(values)}, "
                     f"min {min(values):.4f}, max {max(values):.4f})")
        print(line)
    tally = result["tally"]
    print(f"  {'missed_increments':42s} {tally.missed:14d} count")
    print(f"  {'false_increments':42s} {tally.false:14d} count")
    print(f"  {'failed_frac':42s} {result['failed'] / result['attempted']:14.6f} ratio"
          f"  ({result['failed']} of {result['attempted']} invocations)")
    print(f"  verdict cells: {tally.reports} reports, {tally.judged} judged")
    if "round_trips" in result:
        ref = result["reference_s"]
        print(f"  round trips: {result['round_trips']}; calibration task median "
              f"{statistics.median(ref):.4f} s of n={len(ref)}, times scaled by "
              f"{REF_SECONDS / statistics.median(ref):.4f}")
    for command, digest in result["digests"].items():
        print(f"  outputs sha256 {command:10s} {digest}")
    for command, layers in result.get("by_command", {}).items():
        print(f"  self time {command:10s} " + "  ".join(f"{k} {v:.4f}" for k, v in layers.items()))
    if result.get("missing"):
        print("  MISSING wrapped names: " + ", ".join(result["missing"]))
    for problem in tally.problems:
        print(f"  PROBLEM {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "powertrace" / "cli.py").is_file():
        print(f"perfbench: no powertrace sources under {SRC}", file=sys.stderr)
        return 2

    os.environ.update(BLAS_ENV)  # before the traced run imports numpy
    workload = WORKLOADS[args.workload](args.seed, tiny=args.size == "tiny")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = WORK / f"{tag}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        (work / "scenario.json").write_text(json.dumps(workload.scenario, indent=2))
        if args.trace:
            result = run_traced(workload, work, f"{args.workload}/{args.seed}")
            units = PER_LAYER
        else:
            result = run_untraced(workload, work, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result["env"] = environment()
    tally = result["tally"]
    correct = not tally.problems and tally.missed == 0
    metrics = {m: {"value": result["metrics"][m], "unit": u} for m, u in units.items()}
    report(args.workload, args.seed, result, units)

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    detail = {k: v for k, v in result.items() if k != "tally"}
    detail.update(workload=args.workload, seed=args.seed, scenario=workload.scenario,
                  correct=correct, missed_increments=tally.missed,
                  false_increments=tally.false, judged_cells=tally.judged,
                  problems=tally.problems)
    (results_dir / f"{tag}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
