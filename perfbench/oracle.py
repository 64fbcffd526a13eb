"""Output checks: file digests, structural checks and the verdict oracle.

The oracle works from the ground truth that synth writes next to each
capture (``<stem>.truth.json``) and from the README's rules. It imports
nothing from powertrace and takes no figure from the program's reports,
so a change to the program cannot change what the checks expect.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import AGGREGATES, ANALYSES, CAPTURES, COMPARISONS, RAILS, Workload

# The CLI defaults the workloads run with (README, "Comparison").
ABS_THRESHOLD_W = 0.05
REL_THRESHOLD = 0.02
# The verdict threshold is max(ABS_THRESHOLD_W, REL_THRESHOLD x baseline
# median). synth's rail levels stay below 35 W (30 W boot on 12v_cpu plus a
# 5 W ramp), so no threshold exceeds 0.7 W. Every injected delta must be at
# least this large, so every cell has a definite expected verdict.
MIN_INJECTED_W = 1.0
# Recovered marker and segment edges may sit this many samples off the
# injected ones (the acceptance gate's MARKER_EDGE_TOL).
EDGE_TOL = 5

# Baseline and suspect (state/event) per comparison kind (README, "Comparison").
KIND_PAIRING = {
    "boot_pre_vs_reboot_post": ("pre_infection/boot", "post_infection/boot"),
    "idle_pre_vs_idle_post": ("pre_infection/idle", "post_infection/idle"),
    "idle_pre_vs_idle_post_reboot": ("pre_infection/idle", "post_infection_reboot/idle"),
    "ie_pre_vs_ie_post": ("pre_infection/open_browser", "post_infection/open_browser"),
    "ie_pre_vs_ie_post_reboot": (
        "pre_infection/open_browser", "post_infection_reboot/open_browser"),
}


@dataclass(frozen=True)
class FileDigest:
    sha256: str
    lines: int
    size: int


def digest_tree(root: Path) -> dict[str, FileDigest]:
    """sha256, newline count and size of every file under *root*, by relative path."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        out[path.relative_to(root).as_posix()] = FileDigest(
            hashlib.sha256(data).hexdigest(), data.count(b"\n"), len(data))
    return out


def combined_digest(files: dict[str, FileDigest]) -> str:
    h = hashlib.sha256()
    for name, d in sorted(files.items()):
        h.update(f"{name}\0{d.sha256}\n".encode())
    return h.hexdigest()


@dataclass
class VerdictTally:
    """Oracle counts over comparison reports.

    Every well-formed cell is judged: it expects increment when the suspect
    side carries more injected power than the baseline side, and
    no_increment otherwise.
    """

    reports: int = 0
    judged: int = 0
    missed: int = 0
    false: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        return (self.judged - self.missed - self.false) / self.judged if self.judged else 0.0


def _load_json(path: Path, problems: list[str]) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return None


def load_truths(workload: Workload, rep_dir: Path, problems: list[str]) -> dict[str, dict]:
    truths = {}
    for stem in workload.stems:
        truth = _load_json(rep_dir / CAPTURES / f"{stem}.truth.json", problems)
        if truth is not None:
            truths[stem] = truth
    return truths


def check_synth(workload: Workload, files: dict[str, FileDigest],
                truths: dict[str, dict]) -> list[str]:
    problems = []
    for stem in workload.stems:
        truth = truths.get(stem)
        csv = files.get(f"{stem}.csv")
        if truth is None or csv is None or f"{stem}.manifest.json" not in files:
            problems.append(f"synth: missing outputs for {stem}")
            continue
        if truth.get("run_id") != stem:
            problems.append(f"synth: {stem}.truth.json names run {truth.get('run_id')!r}")
        if csv.lines != truth["sample_count"] + 1:
            problems.append(f"synth: {stem}.csv has {csv.lines} lines, "
                            f"truth says {truth['sample_count']} samples")
    return problems


def _near(got: int, want: int) -> bool:
    return abs(got - want) <= EDGE_TOL


def check_analyze(workload: Workload, rep_dir: Path, files: dict[str, FileDigest],
                  truths: dict[str, dict]) -> list[str]:
    problems: list[str] = []
    for stem in workload.stems:
        truth = truths.get(stem)
        report = _load_json(rep_dir / ANALYSES / f"{stem}.analysis.json", problems)
        if truth is None or report is None:
            continue
        markers = report.get("markers", [])
        if report.get("marker_count") != len(truth["markers"]) or len(markers) != len(truth["markers"]):
            problems.append(f"analyze: {stem}: {report.get('marker_count')} markers, "
                            f"truth has {len(truth['markers'])}")
        elif not all(_near(m["start_index"], s) and _near(m["end_index"], e)
                     for m, (s, e) in zip(markers, truth["markers"])):
            problems.append(f"analyze: {stem}: a marker edge is off by more than {EDGE_TOL}")
        segments = report.get("segments", [])
        if len(segments) != len(truth["events"]) * len(RAILS):
            problems.append(f"analyze: {stem}: {len(segments)} segments")
        for seg in segments:
            span = truth["events"].get(f"{seg['state']}/{seg['event']}")
            if span is None or not (_near(seg["start_index"], span[0])
                                    and _near(seg["end_index"], span[1])):
                problems.append(f"analyze: {stem}: segment {seg['state']}/{seg['event']} "
                                f"[{seg['start_index']}, {seg['end_index']}) vs truth {span}")
                break
        for rail in RAILS:
            plot = files.get(f"{stem}.plot.{rail}.csv")
            if plot is None or plot.lines != truth["sample_count"] + 1:
                problems.append(f"analyze: {stem}: plot file for {rail} missing or short")
    return problems


def score_reports(reports: list[dict], base_truth: dict, truths_by_state: dict[str, dict],
                  tally: VerdictTally, source: str) -> None:
    """Add one comparison file's reports to *tally*.

    *truths_by_state* maps a suspect machine state to the truth of the
    capture whose segments served that state.
    """
    seen = set()
    for r in reports:
        tally.reports += 1
        kind, rail, verdict = r.get("kind"), r.get("rail"), r.get("verdict")
        if kind not in KIND_PAIRING or rail not in RAILS or (kind, rail) in seen:
            tally.problems.append(f"compare: {source}: bad or duplicate cell ({kind}, {rail})")
            continue
        seen.add((kind, rail))
        base_median = r.get("baseline_median_w")
        if verdict not in ("increment", "no_increment") or not isinstance(base_median, (int, float)) \
                or not math.isfinite(base_median):
            tally.problems.append(f"compare: {source}: ({kind}, {rail}) verdict {verdict!r}, "
                                  f"baseline median {base_median!r}")
            continue
        base_key, susp_key = KIND_PAIRING[kind]
        susp_truth = truths_by_state[susp_key.split("/")[0]]
        injected = (susp_truth["applied_deltas"].get(f"{susp_key}/{rail}", 0.0)
                    - base_truth["applied_deltas"].get(f"{base_key}/{rail}", 0.0))
        if 0.0 < injected < MIN_INJECTED_W:
            tally.problems.append(f"compare: {source}: ({kind}, {rail}) injects {injected} W, "
                                  f"below the {MIN_INJECTED_W} W the oracle can judge")
            continue
        tally.judged += 1
        if injected > 0.0:
            tally.missed += verdict == "no_increment"
        else:
            tally.false += verdict == "increment"
    if len(seen) != len(KIND_PAIRING) * len(RAILS):
        tally.problems.append(f"compare: {source}: {len(seen)} cells, expected "
                              f"{len(KIND_PAIRING) * len(RAILS)}")


def check_compare(workload: Workload, rep_dir: Path, truths: dict[str, dict]) -> VerdictTally:
    tally = VerdictTally()
    increments: dict[tuple[str, str], int] = {}
    for c in workload.comparisons:
        name = f"{c.post}.comparison.json"
        doc = _load_json(rep_dir / COMPARISONS / name, tally.problems)
        if doc is None or not all(s in truths for s in (c.pre, c.post, c.reboot or c.post)):
            tally.problems.append(f"compare: {name} or its truth files missing")
            continue
        params = doc.get("params", {})
        if (params.get("abs_threshold"), params.get("rel_threshold")) != (ABS_THRESHOLD_W, REL_THRESHOLD):
            tally.problems.append(f"compare: {name}: thresholds {params}")
        by_state = {"post_infection": truths[c.post],
                    "post_infection_reboot": truths[c.reboot or c.post]}
        reports = doc.get("reports", [])
        score_reports(reports, truths[c.pre], by_state, tally, name)
        for r in reports:
            key = (r.get("rail"), r.get("kind"))
            increments[key] = increments.get(key, 0) + (r.get("verdict") == "increment")
    batch_cells = len(workload.comparisons) * len(KIND_PAIRING) * len(RAILS)
    if tally.judged != batch_cells:
        tally.problems.append(f"compare: judged {tally.judged} cells, the batch has {batch_cells}")
    agg = _load_json(rep_dir / COMPARISONS / "aggregate.json", tally.problems)
    if agg is not None:
        cells = {(cell["rail"], cell["kind"]): cell["n_increment"] for cell in agg.get("cells", [])}
        if agg.get("n_datasets") != len(workload.comparisons) or cells != increments:
            tally.problems.append("compare: aggregate.json disagrees with the comparison files")
    return tally


def check_aggregate(workload: Workload, rep_dir: Path) -> list[str]:
    """aggregate's output must be compare's aggregate.json with every count
    multiplied by the number of copies of each comparison file it folded."""
    problems: list[str] = []
    ours = _load_json(rep_dir / AGGREGATES / "aggregate.json", problems)
    theirs = _load_json(rep_dir / COMPARISONS / "aggregate.json", problems)
    if ours is None or theirs is None:
        return ["aggregate: aggregate.json missing"]
    k = workload.aggregate_copies
    expected = {
        "n_datasets": theirs.get("n_datasets", 0) * k,
        "cells": [{**cell, "n_datasets": cell["n_datasets"] * k,
                   "n_increment": cell["n_increment"] * k} for cell in theirs.get("cells", [])],
    }
    if ours != expected:
        return [f"aggregate: folding {k} copies of each comparison file does not "
                f"scale compare's aggregate.json"]
    return []
