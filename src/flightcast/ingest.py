"""ADS-B CSV ingestion: record parsing, trajectory cleaning, minute aggregation.

The raw schema is a header row with columns timestamp, utc_time, callsign,
longitude, latitude, altitude, velocity, heading (case-insensitive, extra
columns ignored). Missing cells are carried as None, never as zero.

Rows become numpy columns once (:class:`RecordTable`). Cleaning and minute
aggregation work on those columns and build ``Waypoint`` objects only for
what they return. Their results are bit for bit those of the per-record
rules the docstrings state: bucket sums add left to right as ``sum`` does,
heading means use ``math`` trigonometry, and rounding is
:func:`domain.round_values`.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
import time
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from decimal import Decimal
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from .domain import (
    ATTRIBUTES,
    INVALID_REASONS,
    Trajectory,
    Waypoint,
    round_attributes,
    validate_columns,
)

logger = logging.getLogger(__name__)

REQUIRED_COLUMNS = (
    "timestamp",
    "utc_time",
    "callsign",
    "longitude",
    "latitude",
    "altitude",
    "velocity",
    "heading",
)

NUMERIC_COLUMNS = ("longitude", "latitude", "altitude", "velocity", "heading")

_NUMBER = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)"

#: Numeric columns in the order their cells are checked, each with its cell
#: grammar, the characters a cell of that grammar is made of, the
#: conversion, and what a cell that does not parse reads in the column.
_NUMERIC_CELLS = (("timestamp", re.compile(r"^[+-]?\d+$"), b"+-0123456789", int, 0),) + tuple(
    (name, re.compile(rf"^{_NUMBER}$"), b"+-.0123456789", float, math.nan) for name in NUMERIC_COLUMNS
)

#: Timestamps from 1000-01-01 to 9999-12-31 UTC, where time.strftime's %Y
#: has the four digits strptime's %Y requires.
_FOUR_DIGIT_YEARS = (-30610224000, 253402300800)
_UTC_FORMAT = "%Y-%m-%d %H:%M:%S"

#: CSV rows parsed per batch; bounds the memory the row lists take.
_CHUNK_ROWS = 8192


class MalformedRowError(ValueError):
    """A CSV row that cannot be mapped onto the declared header."""


@dataclass(frozen=True)
class RawRecord:
    """One ADS-B report; any field may be None when the cell was missing."""

    timestamp: int | None
    utc_time: str | None
    callsign: str | None
    longitude: float | None
    latitude: float | None
    altitude: float | None
    velocity: float | None
    heading: float | None

    def missing_fields(self) -> list[str]:
        return [f.name for f in fields(self) if getattr(self, f.name) is None]

    @property
    def is_complete(self) -> bool:
        return None not in (
            self.timestamp,
            self.utc_time,
            self.callsign,
            self.longitude,
            self.latitude,
            self.altitude,
            self.velocity,
            self.heading,
        )


_RECORD_FIELDS = attrgetter(*REQUIRED_COLUMNS)


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Raw ADS-B records as columns; ``len()`` is the number of rows.

    ``timestamp`` is int64, or object where some timestamp does not fit in
    64 bits. ``values`` holds longitude, latitude, altitude, velocity and
    heading as five float64 rows. ``missing`` flags the missing cells of
    all eight REQUIRED_COLUMNS; a missing number reads 0 or NaN, so only
    ``missing`` tells it from a NaN that was really there.
    """

    timestamp: np.ndarray
    utc_time: np.ndarray  # object: str or None
    callsign: np.ndarray  # object: str or None
    values: np.ndarray
    missing: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamp)

    @classmethod
    def from_records(cls, records: Iterable[RawRecord]) -> RecordTable:
        rows = list(map(_RECORD_FIELDS, records))
        columns = list(zip(*rows)) if rows else [()] * len(REQUIRED_COLUMNS)
        return cls(
            _timestamp_array([0 if t is None else t for t in columns[0]]),
            _object_array(columns[1]),
            _object_array(columns[2]),
            np.array(columns[3:], dtype=np.float64).reshape(len(NUMERIC_COLUMNS), len(rows)),
            np.array([[v is None for v in column] for column in columns], dtype=bool).reshape(
                len(REQUIRED_COLUMNS), len(rows)
            ),
        )

    def to_records(self) -> list[RawRecord]:
        """One RawRecord per row, None where a cell is missing."""
        columns = [self.timestamp.tolist(), self.utc_time.tolist(), self.callsign.tolist()]
        columns += self.values.tolist()
        return list(
            map(
                RawRecord,
                *(
                    [None if m else v for v, m in zip(column, missing)]
                    for column, missing in zip(columns, self.missing.tolist())
                ),
            )
        )

    @classmethod
    def concat(cls, tables: list[RecordTable]) -> RecordTable:
        if len(tables) == 1:
            return tables[0]
        return cls(
            np.concatenate([t.timestamp for t in tables]),
            np.concatenate([t.utc_time for t in tables]),
            np.concatenate([t.callsign for t in tables]),
            np.concatenate([t.values for t in tables], axis=1),
            np.concatenate([t.missing for t in tables], axis=1),
        )


def _object_array(items) -> np.ndarray:
    out = np.empty(len(items), dtype=object)
    out[:] = items
    return out


def _timestamp_array(timestamps: list[int]) -> np.ndarray:
    try:
        return np.array(timestamps, dtype=np.int64)
    except OverflowError:  # kept exact; every such timestamp is out of range
        return _object_array(timestamps)


@dataclass(frozen=True)
class Header:
    """Column positions resolved from a CSV header row."""

    indexes: dict[str, int]
    width: int


def parse_header(cells: list[str] | str) -> Header:
    """Resolve the required columns from a header row (case-insensitive)."""
    if isinstance(cells, str):
        cells = next(csv.reader([cells]))
    lowered = [c.strip().lower() for c in cells]
    indexes: dict[str, int] = {}
    for name in REQUIRED_COLUMNS:
        if name not in lowered:
            raise MalformedRowError(f"header is missing required column {name!r}")
        indexes[name] = lowered.index(name)
    return Header(indexes=indexes, width=len(cells))


def parse_record(
    line: str | list[str],
    header: Header,
    *,
    row_number: int | None = None,
    strict: bool = False,
) -> RawRecord:
    """Parse one CSV row into a RawRecord.

    Numeric cells accept base-10 with optional sign and fraction. Empty
    cells become None in both modes; a non-numeric cell in a numeric
    column becomes None in tolerant mode and raises in strict mode.
    A row whose cell count differs from the header always raises.
    """
    cells = next(csv.reader([line])) if isinstance(line, str) else line
    _check_width(cells, header, row_number)
    return _parse_rows([cells], [row_number], header, strict).to_records()[0]


def _check_width(cells: list[str], header: Header, row_number: int | None) -> None:
    if len(cells) != header.width:
        raise MalformedRowError(
            f"malformed row{_where(row_number)}: expected {header.width} cells, got {len(cells)}"
        )


def _where(row_number: int | None) -> str:
    return f" (row {row_number})" if row_number is not None else ""


def _parse_numeric(raw: tuple[str, ...], cell_re, charset: bytes, convert, fill):
    """A numeric column: its values, then which cells parsed and the stripped
    cells, or two Nones when every cell parsed as it stood.

    Made of ASCII digits, signs and points only, a cell matches its grammar
    exactly when ``convert`` accepts it, so a column of such cells is
    converted without a per-cell match. Cells that do not parse read ``fill``.
    """
    joined = "".join(raw)
    if joined.isascii() and not joined.encode().translate(None, charset):
        try:
            return list(map(convert, raw)), None, None
        except ValueError:
            pass
    cells = list(map(str.strip, raw))
    parsed = [cell_re.match(cell) is not None for cell in cells]
    return [convert(c) if ok else fill for c, ok in zip(cells, parsed)], parsed, cells


def _parse_rows(rows: list[list[str]], row_numbers, header: Header, strict: bool) -> RecordTable:
    """Parse rows of the header's width into columns, logging as parse_record does.

    In strict mode the first non-numeric cell (by row, then in
    _NUMERIC_CELLS order) raises, after the rows before it were checked.
    """
    count = len(rows)
    columns = list(zip(*rows)) if rows else [()] * header.width
    numeric = [
        _parse_numeric(columns[header.indexes[name]], *grammar) for name, *grammar in _NUMERIC_CELLS
    ]
    missing = np.zeros((len(REQUIRED_COLUMNS), count), dtype=bool)
    error_row, error_cell = count, None
    for (name, *_), (_, parsed, cells) in zip(_NUMERIC_CELLS, numeric):
        if parsed is None:
            continue
        missing[REQUIRED_COLUMNS.index(name)] = np.logical_not(parsed)
        if strict:
            row = next((i for i, ok in enumerate(parsed) if not ok and cells[i]), count)
            if row < error_row:
                error_row, error_cell = row, f"{name} cell {cells[row]!r}"
    utc_time, callsign = (
        _object_array([cell.strip() or None for cell in columns[header.indexes[name]]])
        for name in ("utc_time", "callsign")
    )
    missing[1] = np.equal(utc_time, None)
    missing[2] = np.equal(callsign, None)
    timestamp = _timestamp_array(numeric[0][0])
    _log_utc_disagreements(timestamp, utc_time, ~(missing[0] | missing[1]), row_numbers, error_row)
    if error_cell is not None:
        raise MalformedRowError(f"malformed row{_where(row_numbers[error_row])}: non-numeric {error_cell}")
    values = np.array([column for column, *_ in numeric[1:]], dtype=np.float64)
    return RecordTable(timestamp, utc_time, callsign, values.reshape(len(NUMERIC_COLUMNS), count), missing)


def _log_utc_disagreements(timestamp, utc_time, present, row_numbers, stop: int) -> None:
    # The Unix timestamp is authoritative; a disagreeing UTC column is
    # only worth a log line. Where the year has four digits, strptime
    # reads the canonical rendering back to the same second, so only rows
    # whose text differs from it need strptime.
    rows = np.flatnonzero(present[:stop])
    stamps = timestamp[rows]
    canonical = np.full(len(rows), None, dtype=object)
    in_range = (_FOUR_DIGIT_YEARS[0] <= stamps) & (stamps < _FOUR_DIGIT_YEARS[1])
    if in_range.any():
        canonical[in_range] = _utc_texts(stamps[in_range].astype(np.int64))
    for row in rows[np.not_equal(canonical, utc_time[rows])].tolist():
        _check_utc_agreement(int(timestamp[row]), utc_time[row], row_numbers[row])


def _utc_texts(timestamps: np.ndarray) -> np.ndarray:
    """Canonical utc_time text of timestamps in four-digit years, as objects."""
    text = np.datetime_as_string(timestamps.astype("datetime64[s]"), unit="s")
    text.view(np.uint32).reshape(len(text), -1)[:, 10] = ord(" ")  # ISO 'T' -> ' '
    return text.astype(object)


def _check_utc_agreement(timestamp: int, utc_time: str, row_number: int | None) -> None:
    try:
        parsed = datetime.strptime(utc_time, _UTC_FORMAT)
    except ValueError:
        logger.debug("unparseable utc_time %r%s", utc_time, _where(row_number))
        return
    if int(parsed.replace(tzinfo=timezone.utc).timestamp()) != timestamp:
        logger.warning(
            "utc_time %r disagrees with timestamp %d%s",
            utc_time,
            timestamp,
            _where(row_number),
        )


@dataclass
class CleaningResult:
    """Kept trajectories plus per-reason drop counts."""

    trajectories: list[Trajectory]
    kept: int = 0
    incomplete: int = 0
    invalid: int = 0
    duplicate: int = 0

    @property
    def total(self) -> int:
        return self.kept + self.incomplete + self.invalid + self.duplicate

    def summary(self) -> dict[str, int]:
        return {
            "kept": self.kept,
            "incomplete": self.incomplete,
            "invalid": self.invalid,
            "duplicate": self.duplicate,
        }


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Flags the rows where any of the (sorted) keys changes."""
    starts = np.zeros(len(keys[0]), dtype=bool)
    starts[:1] = True
    for key in keys:
        starts[1:] |= key[1:] != key[:-1]
    return starts


def _callsign_ranks(callsigns: np.ndarray) -> tuple[list, np.ndarray]:
    """Sorted distinct callsigns (None last) and each row's index into them."""
    row_callsigns = callsigns.tolist()
    names = sorted(dict.fromkeys(row_callsigns), key=lambda c: (c is None, c or ""))
    index = {name: i for i, name in enumerate(names)}
    return names, np.fromiter(map(index.__getitem__, row_callsigns), np.int64, len(row_callsigns))


def clean_trajectories(records: RecordTable | Iterable[RawRecord]) -> CleaningResult:
    """Group records into trajectories, dropping bad ones with counts.

    Each callsign's records are stably sorted by timestamp (missing ones
    last), and the k-th record seen at any given timestamp goes to
    candidate trajectory k. A feed that contains the same flight twice
    therefore produces two parallel candidates, which the duplicate check
    collapses; unique timestamps produce exactly one.

    A candidate is dropped as *incomplete* if any record has a missing
    field, as *invalid* if any waypoint fails validation, and as
    *duplicate* if its (callsign, first timestamp, last timestamp) triple
    repeats one already kept (first occurrence wins, candidates taken by
    callsign, then k). Survivors are canonically rounded. Output is sorted
    by callsign then first timestamp.
    """
    table = records if isinstance(records, RecordTable) else RecordTable.from_records(records)
    count = len(table)
    if not count:
        return CleaningResult(trajectories=[])
    names, rank = _callsign_ranks(table.callsign)
    no_timestamp = table.missing[0]
    timestamp = table.timestamp
    # Order-preserving int64 stand-in for timestamps that do not fit.
    key = timestamp if timestamp.dtype != object else np.unique(timestamp, return_inverse=True)[1]

    order = np.lexsort((key, no_timestamp, rank))
    position = np.arange(count)
    same_stamp = np.where(_run_starts(rank[order], no_timestamp[order], key[order]), position, 0)
    layer = position - np.maximum.accumulate(same_stamp)
    by_candidate = np.lexsort((layer, rank[order]))
    rows = order[by_candidate]
    starts = np.flatnonzero(_run_starts(rank[rows], layer[by_candidate]))
    ends = np.append(starts[1:], count)

    incomplete = np.logical_or.reduceat(table.missing.any(axis=0)[rows], starts)
    reason = validate_columns(timestamp[rows], table.values[:, rows])
    first_bad = np.minimum.reduceat(np.where(reason > 0, position, count), starts)
    invalid = ~incomplete & (first_bad < ends)
    candidate_rank = rank[rows[starts]]
    for candidate in np.flatnonzero(invalid).tolist():
        bad = reason[first_bad[candidate]]
        logger.debug("dropping %s: %s", names[candidate_rank[candidate]], INVALID_REASONS[bad - 1])

    first, last = key[rows[starts]], key[rows[ends - 1]]
    valid = np.flatnonzero(~incomplete & ~invalid)
    by_triple = valid[np.lexsort((last[valid], first[valid], candidate_rank[valid]))]
    repeats = ~_run_starts(candidate_rank[by_triple], first[by_triple], last[by_triple])
    duplicate = np.zeros(len(starts), dtype=bool)
    duplicate[by_triple[repeats]] = True

    kept = np.flatnonzero(~incomplete & ~invalid & ~duplicate)
    kept = kept[np.lexsort((first[kept], candidate_rank[kept]))]
    lengths = (ends - starts)[kept]
    offsets = np.cumsum(lengths) - lengths
    taken = rows[np.arange(lengths.sum()) + np.repeat(starts[kept] - offsets, lengths)]
    rounded = round_attributes(table.values[:, taken])
    waypoints = list(map(Waypoint, timestamp[taken].tolist(), *rounded.tolist()))
    trajectories = [
        Trajectory(names[r], tuple(waypoints[offset : offset + length]))
        for r, offset, length in zip(candidate_rank[kept].tolist(), offsets.tolist(), lengths.tolist())
    ]
    return CleaningResult(
        trajectories,
        kept=len(kept),
        incomplete=int(incomplete.sum()),
        invalid=int(invalid.sum()),
        duplicate=int(duplicate.sum()),
    )


_WAYPOINT_FIELDS = attrgetter("timestamp", *ATTRIBUTES)


def _bucket_sums(columns: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-bucket sums of each row of ``columns``, added left to right from +0.0.

    The adds run across buckets, one within-bucket rank at a time, so each
    bucket's sum is the one ``sum`` gives; numpy's pairwise reductions are
    not.
    """
    sums = np.zeros((len(columns), len(starts)))
    live = np.arange(len(starts))
    for rank in range(int(counts.max(initial=0))):
        live = live[counts[live] > rank]
        sums[:, live] += columns[:, starts[live] + rank]
    return sums


def _minute_columns(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Bucket timestamps and the unrounded (5, buckets) minute means."""
    if not traj.waypoints:
        return np.zeros(0, dtype=np.int64), np.zeros((len(ATTRIBUTES), 0))
    stamps, *attributes = zip(*map(_WAYPOINT_FIELDS, traj.waypoints))
    bucket = np.array(stamps, dtype=np.int64) // 60
    values = np.array(attributes, dtype=np.float64)
    if (bucket[1:] < bucket[:-1]).any():
        order = np.argsort(bucket, kind="stable")
        bucket, values = bucket[order], values[:, order]
    starts = np.flatnonzero(_run_starts(bucket))
    counts = np.diff(np.append(starts, len(bucket)))
    single = counts == 1

    # Heading: the direction of the summed unit vectors, or the one angle
    # itself (mod 360) in a one-waypoint bucket, as circular_mean does.
    # math's sin, cos and atan2 keep it identical on every platform.
    trig = np.repeat(~single, counts)
    radians = np.radians(values[4, trig]).tolist()
    unit = np.zeros((2, len(bucket)))
    unit[0, trig] = list(map(math.sin, radians))
    unit[1, trig] = list(map(math.cos, radians))
    sums = _bucket_sums(np.vstack([values[:4], unit]), starts, counts)
    heading = np.empty(len(starts))
    with np.errstate(invalid="ignore"):
        heading[single] = values[4, starts[single]] % 360.0
        angles = list(map(math.atan2, sums[4, ~single].tolist(), sums[5, ~single].tolist()))
        heading[~single] = np.degrees(angles) % 360.0
    heading[heading >= 360.0] = 0.0
    return bucket[starts] * 60, np.vstack([sums[:4] / counts, heading])


def minute_means(traj: Trajectory) -> list[tuple[int, tuple[float, float, float, float, float]]]:
    """Unrounded minute-bucket aggregates, as (bucket_timestamp, values).

    Buckets are floor(timestamp / 60); linear attributes are arithmetic
    means, heading is the circular mean. Exposed separately so the
    rounding step can be checked against these raw values.
    """
    timestamps, means = _minute_columns(traj)
    return list(zip(timestamps.tolist(), zip(*means.tolist())))


def aggregate_minutes(traj: Trajectory) -> Trajectory:
    """Aggregate a cleaned trajectory to one canonical waypoint per minute.

    Empty minutes yield no waypoint; the resulting gaps are handled by
    windowing, not here.
    """
    timestamps, means = _minute_columns(traj)
    rounded = round_attributes(means)
    return Trajectory(traj.callsign, tuple(map(Waypoint, timestamps.tolist(), *rounded.tolist())))


# --- CSV I/O ---------------------------------------------------------------


def read_adsb_csv(source: str | Path | TextIO, *, strict: bool = False) -> RecordTable:
    """Read raw records from a CSV file or file-like object.

    Rows are parsed in batches as they are read; blank lines are ignored.
    A row whose cell count differs from the header raises in strict mode.
    In tolerant mode it is skipped, and one warning gives the number
    skipped and the first such row.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as fh:
            return read_adsb_csv(fh, strict=strict)
    reader = csv.reader(source)
    try:
        header = parse_header(next(reader))
    except StopIteration:
        raise MalformedRowError("empty file: header row required") from None
    tables = []
    skipped, first_skipped = 0, None
    next_row = 2
    while chunk := list(islice(reader, _CHUNK_ROWS)):
        numbers = range(next_row, next_row + len(chunk))
        next_row += len(chunk)
        if list(map(len, chunk)).count(header.width) != len(chunk):
            odd = [i for i, cells in enumerate(chunk) if cells and len(cells) != header.width]
            end = odd[0] if odd and strict else len(chunk)
            keep = [i for i in range(end) if len(chunk[i]) == header.width]
            rows, row_numbers = [chunk[i] for i in keep], [numbers[i] for i in keep]
            if end < len(chunk):  # strict: a cell in the rows before it may raise first
                _parse_rows(rows, row_numbers, header, strict)
                _check_width(chunk[end], header, numbers[end])
            if odd and not skipped:
                first_skipped = numbers[odd[0]]
            skipped += len(odd)
            chunk, numbers = rows, row_numbers
        tables.append(_parse_rows(chunk, numbers, header, strict))
    if skipped:
        logger.warning(
            "skipped %d row(s) whose cell count differs from the header's %d (first: row %d)",
            skipped,
            header.width,
            first_skipped,
        )
    return RecordTable.concat(tables) if tables else _parse_rows([], [], header, strict)


def _utc_text(timestamp: int) -> str:
    # time.gmtime is ~3x faster than datetime and renders the same text
    # wherever the year has four digits.
    if _FOUR_DIGIT_YEARS[0] <= timestamp < _FOUR_DIGIT_YEARS[1]:
        return time.strftime(_UTC_FORMAT, time.gmtime(timestamp))
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).strftime(_UTC_FORMAT)


def format_waypoint_row(callsign: str, w: Waypoint) -> list[str]:
    """Canonical CSV cells for one waypoint (fixed decimal counts)."""
    return [
        str(w.timestamp),
        _utc_text(w.timestamp),
        callsign,
        f"{w.longitude:.5f}",
        f"{w.latitude:.5f}",
        f"{w.altitude:.3f}",
        f"{w.velocity:.3f}",
        f"{w.heading:.2f}",
    ]


def write_trajectories_csv(trajectories: Iterable[Trajectory], target: str | Path | TextIO) -> None:
    """Write cleaned, aggregated trajectories back out in the input schema."""
    if isinstance(target, (str, Path)):
        with open(target, "w", newline="", encoding="utf-8") as fh:
            write_trajectories_csv(trajectories, fh)
            return
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(REQUIRED_COLUMNS)
    for traj in trajectories:
        for w in traj.waypoints:
            writer.writerow(format_waypoint_row(traj.callsign, w))


def _plain_float_text(value: float) -> str:
    """Shortest round-trippable decimal, never in scientific notation.

    The raw-CSV number grammar has no exponent form, so tiny values like
    7.5e-14 must be written positionally.
    """
    text = repr(float(value))
    if "e" in text or "E" in text:
        text = format(Decimal(text), "f")
    return text


def write_records_csv(records: Iterable[RawRecord], target: str | Path | TextIO) -> None:
    """Write raw records (full float precision, None as empty cell)."""
    if isinstance(target, (str, Path)):
        with open(target, "w", newline="", encoding="utf-8") as fh:
            write_records_csv(records, fh)
            return
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(REQUIRED_COLUMNS)
    for r in records:
        writer.writerow(
            [
                "" if r.timestamp is None else str(r.timestamp),
                r.utc_time or "",
                r.callsign or "",
            ]
            + [
                "" if v is None else _plain_float_text(v)
                for v in (r.longitude, r.latitude, r.altitude, r.velocity, r.heading)
            ]
        )


def records_to_csv_text(records: Iterable[RawRecord]) -> str:
    buf = io.StringIO()
    write_records_csv(records, buf)
    return buf.getvalue()
