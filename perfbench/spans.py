"""In-memory spans around powertrace's layer functions.

The traced run calls ``powertrace.cli.main`` in-process with the public
function of each layer replaced, at the module attribute its caller looks
up, by a wrapper that records a span (name, start, end, parent, trace id)
and the counts its hook in ``WRAPPED`` derives from the call. Nothing in the package is edited;
``Tracer.install`` returns the originals so they can be restored.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass

MB = 1e6


@dataclass
class Span:
    name: str
    trace_id: str
    span_id: int
    parent_id: int | None
    start: float
    end: float = math.nan

    @property
    def duration(self) -> float:
        return self.end - self.start


def _synth(t: Tracer, args, kwargs, result) -> None:
    t.counts["synth.samples"] += sum(truth.sample_count for _, truth in result)


def _write(t: Tracer, args, kwargs, result) -> None:
    t.counts["ingest.write_capture.mb"] += sum(os.path.getsize(p) for p in result) / MB


def _read(t: Tracer, args, kwargs, result) -> None:
    t.counts["ingest.read_capture.mb"] += sum(os.path.getsize(p) for p in args[:2]) / MB


def _markers(t: Tracer, args, kwargs, result) -> None:
    t.counts["segment.markers_found"] += len(result)
    t.counts["segment.markers_expected"] += kwargs.get("expected_count") or 0


def _reports(t: Tracer, args, kwargs, result) -> None:
    t.counts["compare.reports"] += len(result)


def _lag(t: Tracer, args, kwargs, result) -> None:
    # estimate_lag(baseline, suspect, max_lag, sample_period): one Pearson
    # correlation per candidate shift in [-floor(n * max_lag), +floor(n * max_lag)].
    n = min(len(args[0]), len(args[1]))
    t.counts["compare.estimate_lag.shifts"] += 2 * math.floor(n * args[2]) + 1


def _spikes(t: Tracer, args, kwargs, result) -> None:
    # detect_spikes(power, spike_k, spike_window, sample_period): the rolling
    # window of w samples leaves min(w, n) - 1 shrinking windows at the edges.
    x, spike_k, spike_window, period = args
    n = len(x)
    w = max(1, int(round(spike_window / period)))
    t.counts["compare.detect_spikes.samples"] += n
    t.counts["compare.detect_spikes.edge_windows"] += max(0, min(w, n) - 1)
    t.counts["compare.detect_spikes.calls"] += 1
    key = hashlib.blake2b(x.tobytes(), digest_size=16)
    key.update(repr((spike_k, spike_window, period)).encode())
    t.spike_inputs.add(key.digest())


# (module, attribute, span name, count hook). Attributes are wrapped where
# the caller resolves them: cli's module globals for the pipeline stages,
# compare's for the kernels classify_increment calls.
WRAPPED = (
    ("powertrace.cli", "generate_ensemble", "synth.generate_ensemble", _synth),
    ("powertrace.cli", "write_capture", "ingest.write_capture", _write),
    ("powertrace.cli", "_read_capture", "ingest.read_capture", _read),
    ("powertrace.cli", "compute_power", "power.compute_power", None),
    ("powertrace.cli", "detect_markers", "segment.detect_markers", _markers),
    ("powertrace.cli", "segment_events", "segment.segment_events", None),
    ("powertrace.cli", "segment_power_pool", "compare.segment_power_pool", None),
    ("powertrace.cli", "run_canonical_comparisons", "compare.run_canonical_comparisons", _reports),
    ("powertrace.cli", "aggregate", "compare.aggregate", None),
    ("powertrace.compare", "estimate_lag", "compare.estimate_lag", _lag),
    ("powertrace.compare", "detect_spikes", "compare.detect_spikes", _spikes),
    ("powertrace.compare", "windowed_means", "power.windowed_means", None),
)

# Errors raised inside these spans are counted under the layer's error counter.
ERROR_COUNTERS = {
    "ingest.read_capture": "ingest.read_capture.errors",
    "segment.detect_markers": "segment.errors",
    "segment.segment_events": "segment.errors",
}


class Tracer:
    """Collects spans and counts; one trace id per (workload, command)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.spike_inputs: set[bytes] = set()
        self.trace_id = ""
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].span_id if self._stack else None
        s = Span(name, self.trace_id, len(self.spans), parent, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, hook):
        def wrapper(*args, **kwargs):
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            except Exception:
                if name in ERROR_COUNTERS:
                    self.counts[ERROR_COUNTERS[name]] += 1
                raise
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> list[tuple[object, str, object]]:
        """Wrap every resolvable entry of WRAPPED; record the rest as missing."""
        originals = []
        self.missing = []
        for module_name, attr, name, hook in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))
        return originals

    @staticmethod
    def uninstall(originals: list[tuple[object, str, object]]) -> None:
        for module, attr, fn in originals:
            setattr(module, attr, fn)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        child_time: Counter = Counter()
        for s in self.spans:
            if s.parent_id is not None:
                child_time[s.parent_id] += s.duration
        return {s.span_id: s.duration - child_time[s.span_id] for s in self.spans}

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
