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

import contextlib
import io
import itertools
import json
import math
import os
import re
import threading
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import AdcRangeError, CaptureFormatError, ManifestError, TimingError
from .model import (
    RAIL_ORDER,
    CaptureRun,
    RailKind,
    ScheduleEntry,
    decode,
    read_json,
    to_wire,
    usable_cpus,
)
from .report import _open_output, _output_error, write_text_output

SAMPLE_HEADER = ",".join(["t_s"] + [f"{q}_{rail.wire_name}" for rail in RAIL_ORDER for q in "vi"])
_COLUMNS = SAMPLE_HEADER.split(",")

# Default voltage divider: a 12 V rail must land inside the +-10 V ADC input
# range, so raw volts are half the engineering volts.
DEFAULT_VOLTAGE_SCALE = 2.0
DEFAULT_CURRENT_SCALE = 1.0

# Rows per formatted block when writing, bytes per read when checking a
# file to parse: both bound the memory of CSV I/O whatever the capture's length.
_WRITE_ROWS = 8192
_READ_BYTES = 1 << 16
# Rows per window over which an array column formats each distinct value once.
_FORMAT_ROWS = 8 * _WRITE_ROWS
# Rows each part of a sample file parsed in parts holds at least: a helper
# process costs a fork, so a smaller file is parsed in one part.
_PART_ROWS = _WRITE_ROWS

# A sample file holding one of these bytes, or one past 0x7f, goes to the
# reference parser: str.splitlines breaks lines at \x0b, \x0c and \x1c-\x1e
# and numpy does not, and loadtxt strips \x1f from a cell as whitespace and
# float() does not.
_SLOW_BYTES = tuple(bytes([byte]) for byte in (0x0B, 0x0C, 0x1C, 0x1D, 0x1E, 0x1F))
_HEADER_LINES = tuple(f"{SAMPLE_HEADER}{end}".encode("ascii") for end in ("\n", "\r\n"))


def _per_rail(value: float):
    """Default factory for a table holding *value* on every rail."""
    return lambda: dict.fromkeys(RAIL_ORDER, value)


def _check_scale(name: str, value: float) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    if not value < math.inf:
        raise ValueError(f"{name} must be finite, got {value}")


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
        _check_scale("adc_full_scale", self.adc_full_scale)
        for name, scales in (("voltage_scale", self.voltage_scale), ("current_scale", self.current_scale)):
            for rail in RAIL_ORDER:
                if rail not in scales:
                    raise ValueError(f"{name} missing rail {rail.wire_name}")
                _check_scale(f"{name}[{rail.wire_name}]", scales[rail])

    @property
    def lsb(self) -> float:
        """ADC step in raw volts: 2 * full_scale / 2^bits, without overflowing 2 * full_scale."""
        return self.adc_full_scale / (1 << (self.adc_bits - 1))

    @property
    def column_scales(self) -> np.ndarray:
        """Engineering units per raw volt of each column of a run's sample table."""
        pairs = (self.voltage_scale, self.current_scale)
        return np.array([scales[rail] for rail in RAIL_ORDER for scales in pairs])


@dataclass(frozen=True)
class Manifest:
    """A capture's manifest JSON: its labels, schedule, units and calibration.

    units says whether the sample file holds engineering units or raw
    ADC volts awaiting the calibration scales. The schedule's own rules
    are checked by the CaptureRun read_capture builds.
    """

    run_id: str
    rootkit_label: str
    dataset_index: int
    sample_period_s: float
    units: str
    schedule: tuple[ScheduleEntry, ...]
    expected_marker_count: int
    calibration: CalibrationConfig

    def __post_init__(self):
        if self.units not in ("engineering", "raw"):
            raise ValueError(f"units must be 'engineering' or 'raw', got {self.units!r}")
        if not self.sample_period_s > 0:
            raise ValueError(f"sample_period_s must be positive, got {self.sample_period_s}")
        if self.expected_marker_count != 2 * len(self.schedule):
            raise ValueError(f"expected_marker_count {self.expected_marker_count} != "
                             f"2 x {len(self.schedule)} schedule entries")


def _quantize_array(raw: np.ndarray, lsb: float) -> np.ndarray:
    # Nearest lattice level, ties away from zero (0.5 offset before floor).
    return np.sign(raw) * np.floor(np.abs(raw) / lsb + 0.5) * lsb


def quantize(value, cal: CalibrationConfig):
    """Snap raw volts to the nearest representable ADC level.

    Accepts a scalar or an array; |value| may not exceed the full-scale
    input range, and NaN is refused.
    """
    raw = np.asarray(value, dtype=np.float64)
    _check_adc_range(raw, cal)
    out = _quantize_array(raw, cal.lsb)
    if np.isscalar(value) or np.ndim(value) == 0:
        return float(out)
    return out


def _check_adc_range(raw: np.ndarray, cal: CalibrationConfig, where: str = "") -> None:
    """Raise at the first value past full scale or, failing that, the first NaN."""
    for bad, problem in (
        (np.abs(raw) > cal.adc_full_scale,
         f"outside ADC range [-{cal.adc_full_scale}, {cal.adc_full_scale}]"),
        (np.isnan(raw), "is not a number"),
    ):
        if np.any(bad):
            row = int(np.argmax(bad))
            raise AdcRangeError(f"{where}row {row} raw value {float(raw.flat[row])} {problem}")


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


# Below 2**40 a product y = k * period * 1e6 is off the exact k * period *
# 10**6 by at most half its ulp, 2**-14, so rint(y) rounds the exact value
# the same way unless y lies within _TIE_MARGIN of a tie.
_MICROS_LIMIT = 2.0**40
_TIE_MARGIN = 1e-3
# "000" to "999", each as its three code points in one 12-byte item; and
# the counts of seconds at which one more digit begins.
_DIGITS3 = (np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10
            + ord("0")).astype(np.uint32).view("V12").ravel()
_DECADES = 10 ** np.arange(1, 7)


def _time_cells(sample_period: float, lo: int, hi: int) -> list[str]:
    """``f"{k * sample_period:.6f}"`` for each k in range(lo, hi), built with numpy.

    Each row's count of microseconds is rint(k * sample_period * 1e6),
    written as code points: seven digits of seconds, the point and six
    decimals, then cut past the leading zeros of the seconds, whose digit
    count never falls as k grows. Rows within _TIE_MARGIN of a rounding
    tie go back to the f-string, and so does a block holding a negative
    time or reaching _MICROS_LIMIT, so the text is the f-string's by
    construction.
    """
    micros = np.arange(lo, hi, dtype=np.float64) * sample_period * 1e6
    if not (len(micros) and 0 <= micros.min() and micros.max() < _MICROS_LIMIT):
        return [f"{k * sample_period:.6f}" for k in range(lo, hi)]
    counts = np.rint(micros)
    ties = np.flatnonzero(np.abs(micros - counts) > 0.5 - _TIE_MARGIN)
    seconds, decimals = np.divmod(counts.astype(np.int64), 1_000_000)
    points = np.empty((len(micros), 14), dtype=np.uint32)
    points[:, 0] = seconds // 1_000_000 + ord("0")
    points[:, 7] = ord(".")
    for column, triples in ((1, seconds // 1000 % 1000), (4, seconds % 1000),
                            (8, decimals // 1000), (11, decimals % 1000)):
        points[:, column:column + 3].view("V12")[:, 0] = _DIGITS3[triples]
    # starts[d] is the first row whose seconds have more than d digits.
    starts = [0, *np.searchsorted(seconds, _DECADES).tolist(), len(micros)]
    text = []
    for digits in range(1, 8):
        rows = points[starts[digits - 1]:starts[digits], 7 - digits:]
        text += np.ascontiguousarray(rows).view(f"U{digits + 7}").ravel().tolist()
    for i in ties.tolist():
        text[i] = f"{(lo + i) * sample_period:.6f}"
    return text


@dataclass
class _QuantizedColumn:
    """A sample table column as its CSV holds it, one slice of rows at a
    time: converted to raw ADC volts, quantized and, in engineering units,
    scaled back.

    The text of each ADC level once formatted is kept for the next blocks
    of the same write, up to _WRITE_ROWS levels; a full table is cleared,
    so its memory stays that of one block's cells.
    """

    values: np.ndarray
    scale: float
    lsb: float
    engineering: bool
    _text: dict[int, str] = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.values)

    def cells(self, rows: slice) -> list[str]:
        """A comma, then ``repr``, for each quantized value in *rows*."""
        quantized = _quantize_array(self.values[rows] / self.scale, self.lsb)
        if self.engineering:
            quantized *= self.scale
        # Keyed by bits, like _ArrayColumn, so that -0.0 keeps its own text.
        bits, inverse = np.unique(quantized.view(np.int64), return_inverse=True)
        levels = bits.tolist()
        known = self._text
        new = [level for level in levels if level not in known]
        if len(known) + len(new) > _WRITE_ROWS:
            known.clear()
            new = levels
        values = np.array(new, dtype=np.int64).view(np.float64).tolist()
        known.update(zip(new, [f",{x!r}" for x in values]))
        text = np.array(list(map(known.__getitem__, levels)), dtype=object)
        return text[inverse].tolist()


@dataclass
class _ArrayColumn:
    """An array column as its CSV holds it: a comma, then ``repr``, for each
    float, with each distinct value formatted once per window of
    _FORMAT_ROWS rows.

    repr depends only on a float's bits, so at the first block of a window
    the window's distinct int64 bit patterns are formatted, and each block
    gathers its cells through the inverse index. Taking the unique over
    bits, not values, keeps -0.0 apart from 0.0. Only one window's text and
    index are held, whatever the column's length.
    """

    values: np.ndarray
    _first: int = field(default=0, init=False, repr=False)
    _text: np.ndarray | None = field(default=None, init=False, repr=False)
    _inverse: np.ndarray | None = field(default=None, init=False, repr=False)

    def cells(self, rows: slice) -> list[str]:
        """A comma, then ``repr``, for each float in *rows*, which run on from the last call's."""
        if self._inverse is None or rows.stop > self._first + len(self._inverse):
            window = np.asarray(self.values[rows.start:rows.start + _FORMAT_ROWS], dtype=np.float64)
            bits, self._inverse = np.unique(window.view(np.int64), return_inverse=True)
            self._text = np.array([f",{x!r}" for x in bits.view(np.float64).tolist()], dtype=object)
            self._first = rows.start
        return self._text[self._inverse[rows.start - self._first:rows.stop - self._first]].tolist()


# Rows per join when writing a block: a smaller string to hold at a time.
_JOIN_ROWS = 2048


def _write_rows(fh, columns: list[list[str]]) -> None:
    """Write equal-length columns of cells as CSV lines: each _JOIN_ROWS
    rows are one join over their cells and line feeds, without a string
    per row. Every column but the first carries its commas."""
    width = len(columns) + 1
    for lo in range(0, len(columns[0]), _JOIN_ROWS):
        hi = min(lo + _JOIN_ROWS, len(columns[0]))
        pieces = ["\n"] * (width * (hi - lo))
        for j, column in enumerate(columns):
            pieces[j::width] = column[lo:hi]
        fh.write("".join(pieces))


def write_series_csv(
    sample_period: float, tables: Sequence[tuple[Path, str, Sequence[np.ndarray | _QuantizedColumn]]]
) -> None:
    """Write each ``(path, header, columns)`` table as a CSV file: *header*,
    then one row per sample, ``k * sample_period`` as ``.6f`` followed by
    ``repr`` of each column's float.

    A column is an array, or write_capture's _QuantizedColumn. Cells are
    formatted column-wise in blocks of _WRITE_ROWS rows, and the tables of
    one call share each block's time column, built with numpy
    (_time_cells). An array (plot) column formats each distinct value once
    per window of _FORMAT_ROWS rows (_ArrayColumn), so its memory stays
    bounded by one window's text whatever the capture's length. A quantized
    capture column holds only a few hundred to a few thousand ADC levels,
    and keeps each level's text for the later blocks of the write, up to
    _WRITE_ROWS levels. Each cell's text is still its repr. An OSError
    ends in a one-line error naming the file being written.
    """
    n = len(tables[0][2][0])
    tables = [(path, header, [col if isinstance(col, _QuantizedColumn) else _ArrayColumn(col)
                              for col in columns]) for path, header, columns in tables]
    handles = []
    try:
        for path, header, _ in tables:
            handles.append(_open_output(path))
            handles[-1].write(header + "\n")
        for lo in range(0, n, _WRITE_ROWS):
            hi = min(lo + _WRITE_ROWS, n)
            times = _time_cells(sample_period, lo, hi)
            for fh, (path, _, columns) in zip(handles, tables):
                _write_rows(fh, [times, *(col.cells(slice(lo, hi)) for col in columns)])
        for fh, (path, _, _) in zip(handles, tables):
            fh.close()
    except OSError as exc:
        raise _output_error(path, exc) from None
    finally:
        for fh in handles:
            with contextlib.suppress(OSError):  # already failing on another file
                fh.close()


def write_capture(
    run: CaptureRun,
    cal: CalibrationConfig,
    out_dir: str | Path,
    units: str = "engineering",
) -> tuple[Path, Path]:
    """Emit a run as sample CSV plus manifest JSON under *out_dir*.

    Every channel is converted to raw ADC volts, quantized to the ADC
    lattice, then written in the requested units. Each block of rows is
    quantized as write_series_csv formats it, so no full quantized copy of
    the table is built. Returns the two paths.
    """
    manifest = Manifest(run.run_id, run.rootkit_label, run.dataset_index, run.sample_period,
                        units, run.schedule, run.expected_marker_count, cal)
    columns = []
    for j, scale in enumerate(cal.column_scales):
        column = run.samples[:, j]
        channel = ("voltage", "current")[j % 2]
        where = f"rail {RAIL_ORDER[j // 2].wire_name} {channel} channel: "
        _check_adc_range(column / scale, cal, where)
        columns.append(_QuantizedColumn(column, scale, cal.lsb, units == "engineering"))

    sample_path, manifest_path = capture_paths(out_dir, run.run_id)
    write_series_csv(run.sample_period, [(sample_path, SAMPLE_HEADER, columns)])

    write_text_output(manifest_path, json.dumps(to_wire(manifest), indent=2, sort_keys=True) + "\n")
    return sample_path, manifest_path


def _scan_parts(sample_file: Path) -> list[tuple[int, int, int]] | None:
    """The body of a sample file in line-aligned parts of equal line feeds:
    the byte offset, first row and end row of each; or None, leaving the
    file to the reference parser.

    One binary pass checks the header and counts the line feeds. A file
    holding _SLOW_BYTES, a non-ASCII byte or a '\r' without '\n' (which
    universal newlines count as a line break) gives None. There is a part
    per usable CPU, each of at least _PART_ROWS rows, and one without
    os.fork or while another thread is alive: forking a threaded process
    can deadlock the child.
    """
    with sample_file.open("rb") as fh:
        header = fh.readline(len(_HEADER_LINES[1]))
        if header not in _HEADER_LINES:
            return None
        # Each chunk's byte offset and the line feeds before it, then the end's.
        starts, feeds = [len(header)], [0]
        last = b"\n"
        while chunk := fh.read(_READ_BYTES):
            if chunk.endswith(b"\r"):  # keep each "\r\n" in one chunk
                chunk += fh.read(1)
            # Vectorized scans, 0.6 ms per MB together on a 2-core VM, against
            # 2.5 ms for bytes.translate and bytes.count, which loop per byte
            # (only a file holding '\r' pays for the counts).
            if (not chunk.isascii() or any(byte in chunk for byte in _SLOW_BYTES)
                    or b"\r" in chunk and chunk.count(b"\r") != chunk.count(b"\r\n")):
                return None
            feeds.append(feeds[-1] + np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")))
            starts.append(starts[-1] + len(chunk))
            last = chunk[-1:]
        rows = feeds[-1] + (last != b"\n")
        cpus = usable_cpus() if hasattr(os, "fork") and threading.active_count() == 1 else 1
        count = max(1, min(cpus, feeds[-1] // _PART_ROWS))
        cuts = [k * feeds[-1] // count for k in range(count)] + [rows]
        offsets = [starts[0]]
        for cut in cuts[1:-1]:  # the byte past the body's cut-th line feed
            c = np.searchsorted(feeds, cut) - 1
            fh.seek(starts[c])
            for _ in range(cut - feeds[c]):
                fh.readline()
            offsets.append(fh.tell())
    return list(zip(offsets, cuts, cuts[1:]))


def _load_part(sample_file: Path, offset: int, lo: int, hi: int, rows: int) -> np.ndarray:
    """Rows *lo* to *hi* of a sample file's *rows*, parsed by loadtxt from
    byte *offset*; ValueError unless they are all there and finite.

    Text mode's universal newlines split lines as str.splitlines does once
    _scan_parts has ruled out _SLOW_BYTES, non-ASCII bytes and a lone
    '\r', and loadtxt reads each cell by the same strtod as float(). A
    blank line, which loadtxt skips, leaves a part a row short; the last
    part reads a line more, so that it is also a row long if the file grew.
    """
    lines = hi - lo + (hi == rows)
    with sample_file.open("rb") as raw:
        raw.seek(offset)
        # Given a path, numpy would pick a decompressor by its suffix (.gz, .bz2, .xz).
        with io.TextIOWrapper(raw, encoding="ascii") as fh, warnings.catch_warnings():
            # max_rows makes loadtxt warn about blank lines and an empty table.
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(itertools.islice(fh, lines), delimiter=",", dtype=np.float64,
                              ndmin=2, comments=None, max_rows=lines)
    if data.shape != (hi - lo, len(_COLUMNS)) or not np.isfinite(data).all():
        raise ValueError(f"rows {lo} to {hi} are not {hi - lo} rows of finite cells")
    return data


def _load_sample_rows(sample_file: Path) -> np.ndarray | None:
    """Fast path: the sample table of a capture, via numpy's C reader.

    A file in one part (_scan_parts) is one loadtxt call, bounded by its
    row count so that it allocates the table once. Otherwise the table is
    one shared anonymous mmap: a forked helper parses each part but the
    first into its rows and leaves by os._exit, while this process parses
    the first part, then reaps every helper, on success or error (loadtxt
    holds the GIL, so threads would not overlap). Returns None, leaving
    the file to _parse_sample_text, if any part fails, a fork included:
    loadtxt rejects whitespace-only lines and '1_0', which float()
    accepts, and only the slow path words the error messages.
    """
    parts = _scan_parts(sample_file)
    if parts is None:
        return None
    rows = parts[-1][2]
    helpers = []
    try:
        if len(parts) == 1:
            return _load_part(sample_file, *parts[0], rows)
        import mmap  # here, so that a process that never splits a file does not load it

        table = np.frombuffer(mmap.mmap(-1, rows * len(_COLUMNS) * 8), np.float64).reshape(rows, -1)
        for offset, lo, hi in parts[1:]:
            pid = os.fork()
            if pid == 0:  # a helper: it never returns
                try:
                    table[lo:hi] = _load_part(sample_file, offset, lo, hi, rows)
                    os._exit(0)
                finally:
                    os._exit(1)
            helpers.append(pid)
        table[:parts[0][2]] = _load_part(sample_file, *parts[0], rows)
    except (OSError, ValueError):  # the reference parser reads the file, or words the error
        return None
    finally:
        failed = [pid for pid in helpers if os.waitpid(pid, 0)[1]]
    return None if failed else table


def _parse_sample_file(sample_file: Path) -> np.ndarray:
    try:
        data = _load_sample_rows(sample_file)
        if data is None:
            data = _parse_sample_text(sample_file.read_text(encoding="ascii"))
    except (OSError, UnicodeDecodeError) as exc:  # the caller names the file
        reason = getattr(exc, "strerror", None) or exc
        raise CaptureFormatError(f"cannot read sample file: {reason}") from None
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
    # A function of its own, so the step arrays are freed before the run is built.
    if len(t) > 1:
        steps = np.diff(t)
        bad = np.abs(steps - sample_period) > 0.1 * sample_period
        if np.any(bad):
            row = int(np.argmax(bad)) + 1
            raise TimingError(
                f"non-uniform timestamp at row {row}: step {float(steps[row - 1]):.9g} s "
                f"vs sample period {sample_period:.9g} s"
            )


def read_capture(sample_file: str | Path, manifest_file: str | Path) -> CaptureRun:
    """Load a capture run, applying the manifest's calibration to recover
    engineering units.

    Rejects non-uniform timestamp columns (tolerance: 10% of the sample
    period at any step). A sample file error does not name the file, which
    the caller knows; a manifest that cannot be read or decoded is named.
    """
    obj = read_json(manifest_file, "manifest", ManifestError)
    manifest = decode(Manifest, obj, "manifest", ManifestError)
    period = manifest.sample_period_s

    data = _parse_sample_file(Path(sample_file))
    _check_timestamps(data[:, 0], period)
    samples = data[:, 1:]
    if manifest.units == "raw":
        samples = samples * manifest.calibration.column_scales
    try:
        return CaptureRun(manifest.run_id, manifest.rootkit_label, manifest.dataset_index,
                          samples, period, manifest.schedule)
    except ValueError as exc:  # the parsed table has a valid shape: the manifest is at fault
        raise ManifestError(f"manifest: {exc}") from None
