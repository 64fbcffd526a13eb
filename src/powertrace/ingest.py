"""Capture file io: sample CSV plus manifest JSON, with ADC emulation.

Sample CSV layout (one file per run, all eight channels sampled
synchronously)::

    t_s,v_3v3,i_3v3,v_5v,i_5v,v_12v_mb,i_12v_mb,v_12v_cpu,i_12v_cpu

Values are plain decimal numbers (decimal point, no separators). The
manifest declares whether the sample file holds engineering units (volts
and amperes) or raw ADC volts still awaiting the calibration scales.
Writing quantizes every raw value to the ADC lattice first, so reading a
written file reproduces the device's precision loss.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import AdcRangeError, CaptureFormatError, ManifestError, TimingError
from .model import (
    RAIL_ORDER,
    STATE_BY_WIRE,
    CaptureRun,
    EventKind,
    RailKind,
    RailTrace,
    RunSchedule,
    to_wire,
    validate_run,
)

SAMPLE_HEADER = "t_s,v_3v3,i_3v3,v_5v,i_5v,v_12v_mb,i_12v_mb,v_12v_cpu,i_12v_cpu"
_COLUMNS = SAMPLE_HEADER.split(",")

# Default voltage divider: a 12 V rail must land inside the +-10 V ADC input
# range, so raw volts are half the engineering volts.
DEFAULT_VOLTAGE_SCALE = 2.0
DEFAULT_CURRENT_SCALE = 1.0

# Rows per formatted block when writing, characters per read when parsing:
# both bound the memory of CSV I/O independently of the capture's length.
_WRITE_ROWS = 8192
_READ_CHARS = 1 << 16


def _per_rail(value: float):
    """Default factory for a table holding *value* on every rail."""
    return lambda: dict.fromkeys(RAIL_ORDER, value)


@dataclass(frozen=True)
class CalibrationConfig:
    """Scales converting raw ADC volts into engineering units, per rail.

    voltage_scale is volts-per-raw-volt (divider ratio); current_scale is
    amperes per volt of sense output. The ADC digitizes raw volts over
    [-adc_full_scale, +adc_full_scale] with adc_bits of precision.
    """

    voltage_scale: dict[RailKind, float] = field(default_factory=_per_rail(DEFAULT_VOLTAGE_SCALE))
    current_scale: dict[RailKind, float] = field(default_factory=_per_rail(DEFAULT_CURRENT_SCALE))
    adc_bits: int = 16
    adc_full_scale: float = 10.0

    def __post_init__(self):
        if not 8 <= self.adc_bits <= 24:
            raise ValueError(f"adc_bits must be in [8, 24], got {self.adc_bits}")
        if not self.adc_full_scale > 0:
            raise ValueError(f"adc_full_scale must be positive, got {self.adc_full_scale}")
        for name, scales in (("voltage_scale", self.voltage_scale), ("current_scale", self.current_scale)):
            for rail in RAIL_ORDER:
                if rail not in scales:
                    raise ValueError(f"{name} missing rail {rail.wire_name}")
                if not scales[rail] > 0:
                    raise ValueError(f"{name}[{rail.wire_name}] must be positive, got {scales[rail]}")

    @property
    def lsb(self) -> float:
        """ADC step in raw volts: 2 * full_scale / 2^bits."""
        return 2.0 * self.adc_full_scale / (1 << self.adc_bits)


def _quantize_array(raw: np.ndarray, lsb: float) -> np.ndarray:
    # Nearest lattice level, ties away from zero (0.5 offset before floor).
    return np.sign(raw) * np.floor(np.abs(raw) / lsb + 0.5) * lsb


def quantize(value, cal: CalibrationConfig):
    """Snap raw volts to the nearest representable ADC level.

    Accepts a scalar or an array; |value| may not exceed the full-scale
    input range.
    """
    raw = np.asarray(value, dtype=np.float64)
    _check_adc_range(raw, cal)
    out = _quantize_array(raw, cal.lsb)
    if np.isscalar(value) or np.ndim(value) == 0:
        return float(out)
    return out


def _check_adc_range(raw: np.ndarray, cal: CalibrationConfig, where: str = "") -> None:
    over = np.abs(raw) > cal.adc_full_scale
    if np.any(over):
        row = int(np.argmax(over))
        raise AdcRangeError(
            f"{where}row {row} raw value {float(raw.flat[row])} "
            f"outside ADC range [-{cal.adc_full_scale}, {cal.adc_full_scale}]"
        )


def _safe_stem(run_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", run_id) or "run"


def capture_paths(out_dir: str | Path, run_id: str) -> tuple[Path, Path]:
    """Conventional (sample, manifest) paths for a run written to *out_dir*."""
    stem = _safe_stem(run_id)
    out = Path(out_dir)
    return out / f"{stem}.csv", out / f"{stem}.manifest.json"


def manifest_path_for(sample_file: str | Path) -> Path:
    """Manifest path next to a sample CSV, by naming convention."""
    p = Path(sample_file)
    return p.with_name(p.stem + ".manifest.json")


def _convert(convert, value, context: str):
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ManifestError(f"{context}: expected {convert.__name__}, got {value!r}") from None


def _require_object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ManifestError(f"{context}: expected a JSON object, got {type(value).__name__}")
    return value


def _calibration_from_json(obj: dict) -> CalibrationConfig:
    _require_object(obj, "manifest calibration")
    for key in ("adc_bits", "adc_full_scale", "voltage_scale", "current_scale"):
        if key not in obj:
            raise ManifestError(f"calibration missing key '{key}'")
    scales: dict[str, dict[RailKind, float]] = {}
    for name in ("voltage_scale", "current_scale"):
        per_rail: dict[RailKind, float] = {}
        for rail_name, value in _require_object(obj[name], f"calibration {name}").items():
            try:
                rail = RailKind(rail_name)
            except ValueError:
                raise ManifestError(f"calibration {name}: unknown rail name '{rail_name}'") from None
            per_rail[rail] = _convert(float, value, f"calibration {name}[{rail_name}]")
        for rail in RAIL_ORDER:
            if rail not in per_rail:
                raise ManifestError(f"calibration {name}: missing rail {rail.wire_name}")
        scales[name] = per_rail
    try:
        return CalibrationConfig(
            voltage_scale=scales["voltage_scale"],
            current_scale=scales["current_scale"],
            adc_bits=_convert(int, obj["adc_bits"], "calibration adc_bits"),
            adc_full_scale=_convert(float, obj["adc_full_scale"], "calibration adc_full_scale"),
        )
    except ValueError as exc:
        raise ManifestError(f"invalid calibration: {exc}") from None


def _schedule_from_json(entries: list) -> RunSchedule:
    if not isinstance(entries, list):
        raise ManifestError(f"manifest schedule: expected a list, got {type(entries).__name__}")
    parsed = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "state" not in entry or "event" not in entry:
            raise ManifestError(f"schedule entry {i} must be an object with 'state' and 'event'")
        state = STATE_BY_WIRE.get(str(entry["state"]))
        if state is None:
            raise ManifestError(f"schedule entry {i}: unknown state '{entry['state']}'")
        try:
            event = EventKind(entry["event"])
        except ValueError:
            raise ManifestError(f"schedule entry {i}: unknown event '{entry['event']}'") from None
        parsed.append((state, event))
    return RunSchedule(entries=tuple(parsed))


def write_series_csv(
    sample_period: float, tables: list[tuple[Path, str, list[np.ndarray]]]
) -> None:
    """Write each ``(path, header, columns)`` table as a CSV file: *header*,
    then one row per sample, ``k * sample_period`` as ``.6f`` followed by
    ``repr`` of each column's float.

    Cells are formatted column-wise in blocks of _WRITE_ROWS rows, so
    memory stays bounded by one block whatever the capture's length, and
    the tables of one call share each block's time column.
    """
    n = len(tables[0][2][0])
    handles = []
    try:
        for path, header, _ in tables:
            handles.append(path.open("w", encoding="ascii"))
            handles[-1].write(header + "\n")
        for lo in range(0, n, _WRITE_ROWS):
            hi = min(lo + _WRITE_ROWS, n)
            times = [f"{k * sample_period:.6f}" for k in range(lo, hi)]
            for fh, (_, _, columns) in zip(handles, tables):
                cells = [times, *(map(repr, col[lo:hi].tolist()) for col in columns)]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    finally:
        for fh in handles:
            fh.close()


def write_capture(
    run: CaptureRun,
    cal: CalibrationConfig,
    out_dir: str | Path,
    units: str = "engineering",
) -> tuple[Path, Path]:
    """Emit a run as sample CSV plus manifest JSON under *out_dir*.

    Every channel is converted to raw ADC volts, quantized to the ADC
    lattice, then written in the requested units. Returns the two paths.
    """
    if units not in ("engineering", "raw"):
        raise ValueError(f"units must be 'engineering' or 'raw', got {units!r}")
    violations = validate_run(run)
    if violations:
        raise ValueError("run fails validation: " + "; ".join(violations))

    lsb = cal.lsb
    columns: list[np.ndarray] = []
    for rail in RAIL_ORDER:
        trace = run.rails[rail]
        raw_v = trace.voltage / cal.voltage_scale[rail]
        raw_i = trace.current / cal.current_scale[rail]
        _check_adc_range(raw_v, cal, f"rail {rail.wire_name} voltage channel: ")
        _check_adc_range(raw_i, cal, f"rail {rail.wire_name} current channel: ")
        qv = _quantize_array(raw_v, lsb)
        qi = _quantize_array(raw_i, lsb)
        if units == "engineering":
            qv = qv * cal.voltage_scale[rail]
            qi = qi * cal.current_scale[rail]
        columns.append(qv)
        columns.append(qi)

    sample_period = run.rails[RAIL_ORDER[0]].sample_period
    sample_path, manifest_path = capture_paths(out_dir, run.run_id)
    sample_path.parent.mkdir(parents=True, exist_ok=True)

    write_series_csv(sample_period, [(sample_path, SAMPLE_HEADER, columns)])

    manifest = {
        "run_id": run.run_id,
        "rootkit_label": run.rootkit_label,
        "dataset_index": run.dataset_index,
        "sample_period_s": sample_period,
        "units": units,
        "schedule": [
            {"state": state.wire_name, "event": event.wire_name}
            for state, event in run.schedule.entries
        ],
        "expected_marker_count": run.schedule.expected_marker_count,
        "calibration": to_wire(cal),
    }
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )
    return sample_path, manifest_path


def _load_sample_rows(fh) -> np.ndarray | None:
    """Fast path: the sample table of an open capture, via numpy's C reader.

    Lines are split as str.splitlines splits them, so the rows are those
    _parse_sample_text sees, and each cell is read by the same strtod as
    float(). Returns None, leaving the file to _parse_sample_text, unless
    the header is exact and every row holds 9 finite numbers that loadtxt
    accepts: loadtxt rejects whitespace-only lines and '1_0', which float()
    accepts, and only the slow path words the error messages.
    """

    def read() -> str:
        chunk = fh.read(_READ_CHARS)
        if "\x1f" in chunk:
            # loadtxt strips this from a cell as whitespace; float() rejects it.
            raise ValueError("unit separator in sample file")
        return chunk

    def lines(buf: str):
        while chunk := read():
            parts = (buf + chunk).splitlines(keepends=True)
            buf = parts.pop()
            yield from parts
        yield from buf.splitlines(keepends=True)

    try:
        if fh.readline() != SAMPLE_HEADER + "\n":
            return None
        head = read()
        if not head.strip("\n"):
            return None  # loadtxt would warn about an empty table
        data = np.loadtxt(lines(head), delimiter=",", dtype=np.float64, ndmin=2, comments=None)
    except ValueError:  # a cell loadtxt rejects, or a byte that is not ASCII
        return None
    if data.shape[1] != len(_COLUMNS) or not np.isfinite(data).all():
        return None
    return data


def _parse_sample_file(sample_file: Path) -> np.ndarray:
    try:
        with sample_file.open(encoding="ascii") as fh:
            data = _load_sample_rows(fh)
        if data is None:
            data = _parse_sample_text(sample_file.read_text(encoding="ascii"))
    except (OSError, UnicodeDecodeError) as exc:
        raise CaptureFormatError(f"cannot read sample file {sample_file}: {exc}") from None
    return data


def _parse_sample_text(text: str) -> np.ndarray:
    """Reference parser of a decoded sample file; names the first bad row or cell."""
    lines = text.splitlines()
    if not lines:
        raise CaptureFormatError("empty sample file (no header)")

    header_cells = lines[0].strip().split(",")
    if len(header_cells) != len(_COLUMNS):
        raise CaptureFormatError(
            f"header has {len(header_cells)} columns, expected {len(_COLUMNS)} ({SAMPLE_HEADER})"
        )
    for i, (got, expected) in enumerate(zip(header_cells, _COLUMNS)):
        if got != expected:
            raise CaptureFormatError(f"header column {i}: expected '{expected}', got '{got}'")

    rows = [line.split(",") for line in lines[1:] if line.strip()]
    if not rows:
        raise CaptureFormatError("no samples")
    try:
        data = np.asarray(rows, dtype=np.float64)
    except ValueError:
        for r, cells in enumerate(rows):
            if len(cells) != len(_COLUMNS):
                raise CaptureFormatError(
                    f"row {r}: {len(cells)} fields, expected {len(_COLUMNS)}"
                ) from None
            for c, cell in enumerate(cells):
                try:
                    float(cell)
                except ValueError:
                    raise CaptureFormatError(
                        f"row {r}, column {_COLUMNS[c]}: non-numeric value '{cell}'"
                    ) from None
        raise CaptureFormatError("malformed sample rows") from None
    if data.shape[1] != len(_COLUMNS):  # every row has the same wrong count
        raise CaptureFormatError(f"row 0: {data.shape[1]} fields, expected {len(_COLUMNS)}")
    if not np.isfinite(data).all():
        r, c = np.argwhere(~np.isfinite(data))[0]
        raise CaptureFormatError(
            f"row {r}, column {_COLUMNS[c]}: non-finite value '{rows[r][c]}'"
        )
    return data


def _check_timestamps(t: np.ndarray, sample_period: float) -> None:
    # A function of its own, so the step arrays are freed before the rails are built.
    if len(t) > 1:
        steps = np.diff(t)
        bad = np.abs(steps - sample_period) > 0.1 * sample_period
        if np.any(bad):
            row = int(np.argmax(bad)) + 1
            raise TimingError(
                f"non-uniform timestamp at row {row}: step {float(steps[row - 1]):.9g} s "
                f"vs sample period {sample_period:.9g} s",
                row_index=row,
            )


def read_capture(
    sample_file: str | Path,
    manifest_file: str | Path,
    cal: CalibrationConfig | None = None,
) -> CaptureRun:
    """Load a capture run, applying calibration to recover engineering units.

    When *cal* is omitted the manifest's embedded calibration is used.
    Rejects non-uniform timestamp columns (tolerance: 10% of the sample
    period at any step).
    """
    manifest_file = Path(manifest_file)
    try:
        manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {manifest_file}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from None
    _require_object(manifest, "manifest")

    required = (
        "run_id",
        "rootkit_label",
        "dataset_index",
        "sample_period_s",
        "units",
        "schedule",
        "expected_marker_count",
        "calibration",
    )
    for key in required:
        if key not in manifest:
            raise ManifestError(f"manifest missing key '{key}'")

    units = manifest["units"]
    if units not in ("engineering", "raw"):
        raise ManifestError(f"units must be 'engineering' or 'raw', got '{units}'")
    if cal is None:
        cal = _calibration_from_json(manifest["calibration"])
    schedule = _schedule_from_json(manifest["schedule"])
    if manifest["expected_marker_count"] != schedule.expected_marker_count:
        raise ManifestError(
            f"expected_marker_count {manifest['expected_marker_count']} != "
            f"2 x {len(schedule.entries)} schedule entries"
        )
    sample_period = _convert(float, manifest["sample_period_s"], "manifest sample_period_s")
    if not sample_period > 0:
        raise ManifestError(f"sample_period_s must be positive, got {sample_period}")

    data = _parse_sample_file(Path(sample_file))
    _check_timestamps(data[:, 0], sample_period)

    rails: dict[RailKind, RailTrace] = {}
    for j, rail in enumerate(RAIL_ORDER):
        v = data[:, 1 + 2 * j]
        i = data[:, 2 + 2 * j]
        if units == "raw":
            v = v * cal.voltage_scale[rail]
            i = i * cal.current_scale[rail]
        rails[rail] = RailTrace(rail=rail, voltage=v, current=i, sample_period=sample_period)

    run = CaptureRun(
        run_id=str(manifest["run_id"]),
        rootkit_label=str(manifest["rootkit_label"]),
        dataset_index=_convert(int, manifest["dataset_index"], "manifest dataset_index"),
        rails=rails,
        schedule=schedule,
    )
    violations = validate_run(run)
    if violations:
        raise ManifestError("capture fails validation: " + "; ".join(violations))
    return run
