"""Tunables, comparison reports and their fold, without numpy.

Everything the command line needs before it knows its subcommand lives
here: the marker and comparison parameters its flags are built from, the
report types, the cross-dataset aggregate and the output-file helpers.
None of it imports numpy, so ``powertrace --help`` and ``powertrace
aggregate`` start without loading it; the numpy-backed stages import it
on first use.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import AggregationError, PowerTraceError
from .model import EventKind, MachineState, RailKind, ScheduleEntry


@dataclass(frozen=True)
class MarkerParams:
    """Tuning for marker detection on the stress rail."""

    marker_rail: RailKind = RailKind.RAIL_12V_CPU
    smooth_window: float = 0.1
    hi_fraction: float = 0.6
    lo_fraction: float = 0.4
    min_duration: float = 3.0
    max_duration: float = 8.0

    def __post_init__(self):
        if not 0 < self.smooth_window < math.inf:
            raise ValueError(f"smooth_window must be positive and finite, got {self.smooth_window}")
        if not 0.0 < self.lo_fraction < self.hi_fraction < 1.0:
            raise ValueError(
                f"need 0 < lo_fraction < hi_fraction < 1, got "
                f"lo={self.lo_fraction}, hi={self.hi_fraction}"
            )
        if not 0 < self.min_duration < self.max_duration < math.inf:
            raise ValueError(
                f"need 0 < min_duration < max_duration < inf, got "
                f"min={self.min_duration}, max={self.max_duration}"
            )


class ComparisonKind(Enum):
    """The five canonical comparisons, each an (event, suspect state) pair.

    A kind compares the suspect entry (state, event) with the pre-infection
    entry of the same event; the post-infection BOOT entry is the reboot
    right after installation. Boot power is dominated by OS startup churn,
    so a boot kind is noisy and its verdicts deserve less weight downstream.
    """

    BOOT_PRE_VS_REBOOT_POST = (EventKind.BOOT, MachineState.POST_INFECTION)
    IDLE_PRE_VS_IDLE_POST = (EventKind.IDLE, MachineState.POST_INFECTION)
    IDLE_PRE_VS_IDLE_POST_REBOOT = (EventKind.IDLE, MachineState.POST_INFECTION_REBOOT)
    IE_PRE_VS_IE_POST = (EventKind.OPEN_BROWSER, MachineState.POST_INFECTION)
    IE_PRE_VS_IE_POST_REBOOT = (EventKind.OPEN_BROWSER, MachineState.POST_INFECTION_REBOOT)

    def __init__(self, event: EventKind, state: MachineState):
        self.baseline = ScheduleEntry(MachineState.PRE_INFECTION, event)
        self.suspect = ScheduleEntry(state, event)
        self.noisy = event is EventKind.BOOT

    @property
    def wire_name(self) -> str:
        return self.name.lower()


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
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0.0 < self.max_lag <= 0.5:
            raise ValueError(f"max_lag must be in (0, 0.5], got {self.max_lag}")


@dataclass(frozen=True)
class LagResult:
    lag_s: float
    lag_samples: int
    zero_variance: bool


@dataclass(frozen=True)
class CellResult:
    """Metrics and verdict for one baseline/suspect pair, from classify_increment.

    relative_increase is None when the baseline median is not positive.
    """

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


@dataclass(frozen=True)
class ComparisonReport(CellResult):
    """A cell result labeled with its kind and rail; noisy is the kind's flag."""

    kind: ComparisonKind
    rail: RailKind
    noisy: bool


@dataclass(frozen=True)
class ComparisonFile:
    """One dataset's comparison file, as compare writes it and aggregate reads
    it: the two runs compared, the params they were judged under and a
    non-empty list of reports. Like a CaptureRun, it refuses an empty run
    id and a dataset_index below 1."""

    pre_run_id: str
    post_run_id: str
    dataset_index: int
    params: CompareParams
    reports: tuple[ComparisonReport, ...]

    def __post_init__(self):
        for name in ("pre_run_id", "post_run_id"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if self.dataset_index < 1:
            raise ValueError(f"dataset_index must be >= 1, got {self.dataset_index}")
        if not self.reports:
            raise ValueError("empty 'reports' list")


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


def aggregate(dataset_reports: Sequence[Sequence[ComparisonReport]]) -> AggregateReport:
    """Fold per-dataset comparison reports into increment fractions.

    Every dataset must cover the same (rail, kind) cells exactly once.
    """
    if not dataset_reports:
        raise AggregationError("need at least one dataset")
    # A cell is keyed by its members' ids: enum members are singletons, and
    # an int pair hashes in C where Enum.__hash__ is a Python function.
    coverage: set[tuple[int, int]] | None = None
    tallies: dict[tuple[int, int], int] = {}
    labels: dict[tuple[int, int], tuple[RailKind, ComparisonKind]] = {}
    for d, reports in enumerate(dataset_reports):
        seen: set[tuple[int, int]] = set()
        for report in reports:
            rail, kind = report.rail, report.kind
            key = (id(rail), id(kind))
            if key in seen:
                raise AggregationError(
                    f"dataset {d}: duplicate cell ({rail.wire_name}, {kind.wire_name})", d
                )
            seen.add(key)
            tallies[key] = tallies.get(key, 0) + (report.verdict is Verdict.INCREMENT)
            if coverage is None:
                labels[key] = (rail, kind)
        if coverage is None:
            coverage = seen
        elif seen != coverage:
            raise AggregationError(
                f"dataset {d} covers {len(seen)} cells, expected the same "
                f"{len(coverage)} cells as dataset 0", d
            )
    n = len(dataset_reports)
    cells = tuple(
        AggregateCell(*labels[key], n_datasets=n, n_increment=count)
        for key, count in tallies.items()
    )
    return AggregateReport(cells=cells)


def _open_output(path: Path):
    """Open *path* as a new ASCII file for writing, creating its directory.

    An existing regular file is unlinked, not truncated: truncating in place
    can cost a flush of the old blocks (tens of ms a file on ext4). A
    symlink is kept and written through.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_file() and not path.is_symlink():
        path.unlink()
    return path.open("w", encoding="ascii")


def _output_error(path: Path, exc: OSError) -> PowerTraceError:
    """The one-line error for an output *path* that cannot be written."""
    reason = exc.strerror or str(exc)
    if exc.filename is not None and Path(exc.filename) != path:
        reason = f"{exc.filename}: {reason}"
    return PowerTraceError(f"{path}: {reason}")


def write_text_output(path: Path, text: str) -> None:
    """Write *text* to the output file *path*; an OSError becomes a one-line error."""
    try:
        with _open_output(path) as fh:
            fh.write(text)
    except OSError as exc:
        raise _output_error(path, exc) from None
