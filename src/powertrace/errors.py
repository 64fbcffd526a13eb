"""Exception types shared across the powertrace package."""

from __future__ import annotations


class PowerTraceError(Exception):
    """Base class for all powertrace failures."""


class CaptureFormatError(PowerTraceError):
    """Sample file is malformed (header, row shape, or numeric content)."""


class TimingError(PowerTraceError):
    """Timestamp column deviates from uniform sampling beyond tolerance."""


class ManifestError(PowerTraceError):
    """Run manifest is missing keys or carries unknown names."""


class AdcRangeError(PowerTraceError):
    """A raw value falls outside the ADC input range."""


class PowerComputationError(PowerTraceError):
    """A rail's voltage x current product is not a finite number."""


class MarkerDetectionError(PowerTraceError):
    """Marker detection cannot run (degenerate or too-short input)."""


class SegmentationError(PowerTraceError):
    """Marker count or pairing does not match the run schedule."""


class AlignmentError(PowerTraceError):
    """Segment pair cannot be aligned (empty input)."""


class ComparisonError(PowerTraceError):
    """A comparison lacks required segments or usable windows."""


class AggregationError(PowerTraceError):
    """Datasets disagree on rail/comparison coverage; *dataset* is the
    0-based index of the one at fault, when there is one."""

    def __init__(self, message: str, dataset: int | None = None):
        super().__init__(message)
        self.dataset = dataset


class ScenarioConfigError(PowerTraceError):
    """Synthetic scenario configuration violates an invariant."""
