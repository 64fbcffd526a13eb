"""Multi-rail power-trace forensics.

Ingest scripted voltage/current captures, compute per-rail power, cut
runs into event segments using CPU-stress markers, and compare clean
versus infected profiles. A seeded synthetic testbed generates captures
with known ground truth for testing.
"""

import importlib

# Each public name and the module that defines it. Most modules import
# numpy, so a name is imported on first use (PEP 562): the command line can
# print --help and run aggregate without loading numpy.
_EXPORTS = {
    **dict.fromkeys(("align", "classify_increment", "detect_spikes", "estimate_lag",
                     "run_canonical_comparisons", "segment_power_pool"), "compare"),
    **dict.fromkeys(("AdcRangeError", "AggregationError", "AlignmentError", "CaptureFormatError",
                     "ComparisonError", "ManifestError", "MarkerDetectionError",
                     "PowerComputationError", "PowerTraceError", "ScenarioConfigError",
                     "SegmentationError", "TimingError"), "errors"),
    **dict.fromkeys(("CalibrationConfig", "Manifest", "ScheduleEntry", "capture_paths",
                     "manifest_path_for", "quantize", "read_capture", "write_capture"), "ingest"),
    **dict.fromkeys(("DEFAULT_SAMPLE_PERIOD_S", "RAIL_NOMINAL_VOLTAGE", "RAIL_ORDER", "CaptureRun",
                     "EventKind", "MachineState", "PowerSeries", "RailKind", "RailTrace",
                     "RunSchedule"), "model"),
    **dict.fromkeys(("compute_power", "window_sample_count", "windowed_means"), "power"),
    **dict.fromkeys(("AggregateCell", "AggregateReport", "CellResult", "CompareParams",
                     "ComparisonFile", "ComparisonKind", "ComparisonReport", "LagResult",
                     "MarkerParams", "Verdict", "aggregate"), "report"),
    **dict.fromkeys(("EventSegment", "Marker", "detect_markers", "segment_events",
                     "smooth_series"), "segment"),
    **dict.fromkeys(("GroundTruth", "InfectionEffect", "ScenarioConfig", "generate_ensemble",
                     "generate_run", "ground_truth_to_json", "load_scenario",
                     "scenario_from_dict"), "synth"),
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
