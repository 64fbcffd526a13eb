"""Workload definitions: seeded scenario files and the CLI batch each one runs.

Every workload is one round trip ``synth -> analyze -> compare ->
aggregate``: a single invocation per subcommand over the workload's whole
batch of captures. The scenario JSON is derived from the benchmark seed
alone, so the same seed always produces the same captures.
"""

from __future__ import annotations

import itertools
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

RAILS = ("3v3", "5v", "12v_mb", "12v_cpu")
EVENTS = ("boot", "idle", "open_browser")

# The infection from the README walk-through.
README_INFECTION = {
    "delta_power": {"12v_mb": {"idle": 1.0}},
    "lag_s": 0.05,
    "spike_rate_per_min": 6.0,
}

# Short event bodies, as in the test suite's compact scenario (21,000 samples).
COMPACT = {"idle_duration": 10.0, "ie_windows": 4, "ie_spacing": 2.5, "boot_duration": 8.0}

# ensemble_pairs' aggregate folds this many copies of each comparison file.
ENSEMBLE_COPIES = 125

# Directory names inside one repetition's working directory.
CAPTURES, ANALYSES, COMPARISONS, AGGREGATES, ENSEMBLE = "cap", "ana", "cmp", "agg", "ens"


@dataclass(frozen=True)
class Comparison:
    """One dataset of a compare invocation: capture stems for each role."""

    pre: str
    post: str
    reboot: str | None = None


def capture_stems(scenario: dict, datasets: int) -> tuple[str, ...]:
    """File stems synth gives dataset 1..n (run id ``<label>-d<k>-s<seed>``)."""
    label, seed = scenario["rootkit_label"], scenario["seed"]
    return tuple(f"{label}-d{k}-s{seed}" for k in range(1, datasets + 1))


@dataclass(frozen=True)
class Workload:
    """A scenario plus the CLI batch that runs it end to end."""

    name: str
    scenario: dict
    stems: tuple[str, ...]
    comparisons: tuple[Comparison, ...]
    # aggregate folds this many copies of each comparison file; above 1 the
    # copies are distinct files under ENSEMBLE, written by stage().
    aggregate_copies: int = 1

    def aggregate_inputs(self, rep_dir: Path) -> list[Path]:
        if self.aggregate_copies == 1:
            return [rep_dir / COMPARISONS / f"{c.post}.comparison.json" for c in self.comparisons]
        return [rep_dir / ENSEMBLE / f"{c.post}.r{k}.comparison.json"
                for k in range(self.aggregate_copies) for c in self.comparisons]

    def stage(self, command: str, rep_dir: Path) -> None:
        """Write *command*'s inputs that no earlier subcommand writes: aggregate's copies.

        The runner calls this before each subcommand, outside the timing.
        """
        if command != "aggregate" or self.aggregate_copies == 1:
            return
        (rep_dir / ENSEMBLE).mkdir(exist_ok=True)
        for copy, c in zip(self.aggregate_inputs(rep_dir), itertools.cycle(self.comparisons)):
            shutil.copyfile(rep_dir / COMPARISONS / f"{c.post}.comparison.json", copy)

    def commands(self, rep_dir: Path) -> list[tuple[str, list[str]]]:
        """(subcommand, argv) pairs of one round trip, in pipeline order."""
        cap = rep_dir / CAPTURES
        csv = [str(cap / f"{stem}.csv") for stem in self.stems]
        compare = ["compare"]
        for c in self.comparisons:
            compare += ["--pre", str(cap / f"{c.pre}.csv")]
            if c.post != c.pre:
                compare += ["--post", str(cap / f"{c.post}.csv")]
            if c.reboot is not None:
                compare += ["--post-reboot", str(cap / f"{c.reboot}.csv")]
        compare += ["--out", str(rep_dir / COMPARISONS)]
        reports = [str(path) for path in self.aggregate_inputs(rep_dir)]
        return [
            ("synth", ["synth", "--config", str(rep_dir.parent / "scenario.json"),
                       "--out", str(cap), "--datasets", str(len(self.stems))]),
            ("analyze", ["analyze", *csv, "--out", str(rep_dir / ANALYSES)]),
            ("compare", compare),
            ("aggregate", ["aggregate", *reports, "--out", str(rep_dir / AGGREGATES)]),
        ]


def _scenario_seed(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def readme_selfcompare(seed: int, tiny: bool = False) -> Workload:
    rng = _scenario_seed("readme_selfcompare", seed)
    scenario = {"seed": rng.randrange(1, 1_000_000), "rootkit_label": "demo",
                "infection": README_INFECTION}
    if tiny:
        scenario.update(COMPACT)
    stems = capture_stems(scenario, 1)
    comparisons = tuple(Comparison(pre=s, post=s) for s in stems)
    return Workload("readme_selfcompare", scenario, stems, comparisons)


def ensemble_pairs(seed: int, tiny: bool = False) -> Workload:
    """Clean pre captures (odd datasets) paired with post captures (even ones).

    Post infections rotate over rails and events from a seeded start, with a
    seeded delta of 1.0-1.5 W, which clears every cell's verdict threshold;
    every third post capture is clean. aggregate then folds an ensemble of
    ENSEMBLE_COPIES copies of each pair's comparison file, so that folding,
    not interpreter start-up, is most of aggregate's time.
    """
    rng = _scenario_seed("ensemble_pairs", seed)
    n_pairs = 2 if tiny else 4
    infections: list[dict] = []
    infected = rng.randrange(len(RAILS) * len(EVENTS))
    for p in range(n_pairs):
        infections.append({})  # clean pre capture
        if p % 3 == 2:
            infections.append({})
            continue
        rail, event = RAILS[infected % len(RAILS)], EVENTS[infected % len(EVENTS)]
        infected += 1
        infections.append({
            "delta_power": {rail: {event: round(rng.uniform(1.0, 1.5), 3)}},
            "lag_s": 0.05,
            "spike_rate_per_min": 6.0,
        })
    scenario = {"seed": rng.randrange(1, 1_000_000), "rootkit_label": "ens",
                "dataset_infections": infections, **COMPACT}
    stems = capture_stems(scenario, 2 * n_pairs)
    comparisons = tuple(
        Comparison(pre=stems[2 * p], post=stems[2 * p + 1]) for p in range(n_pairs)
    )
    return Workload("ensemble_pairs", scenario, stems, comparisons,
                    aggregate_copies=3 if tiny else ENSEMBLE_COPIES)


def long_idle(seed: int, tiny: bool = False) -> Workload:
    """Clean pre, infected post and infected post-reboot captures with 2-minute idle bodies."""
    rng = _scenario_seed("long_idle", seed)
    scenario = {"seed": rng.randrange(1, 1_000_000), "rootkit_label": "long",
                "idle_duration": 120.0,
                "dataset_infections": [{}, README_INFECTION, README_INFECTION]}
    if tiny:
        scenario.update(COMPACT, idle_duration=20.0)
    pre, post, reboot = capture_stems(scenario, 3)
    return Workload("long_idle", scenario, (pre, post, reboot),
                    (Comparison(pre=pre, post=post, reboot=reboot),))


WORKLOADS = {
    "readme_selfcompare": readme_selfcompare,
    "ensemble_pairs": ensemble_pairs,
    "long_idle": long_idle,
}
