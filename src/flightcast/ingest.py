"""ADS-B CSV ingestion: record parsing, trajectory cleaning, minute aggregation.

The raw schema is a header row with columns timestamp, utc_time, callsign,
longitude, latitude, altitude, velocity, heading (case-insensitive, extra
columns ignored). Missing cells are carried as None, never as zero.

Rows become numpy columns once (:class:`RecordTable`). Cleaning, minute
aggregation and the trajectory writer work on columns end to end: their
trajectories are columnar (:meth:`Trajectory.from_columns`) and no
``Waypoint`` is built. Their results are bit for bit those of the
per-record rules the docstrings state: bucket sums add left to right as
``sum`` does, heading means use ``math`` trigonometry, and rounding is
:func:`domain.round_values`.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import operator
import re
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from decimal import Decimal
from itertools import chain, compress, count, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .domain import (
    ATTRIBUTES,
    CANONICAL_DECIMALS,
    DECIMAL_RE,
    INVALID_REASONS,
    TIMESTAMP_RANGE,
    Trajectory,
    round_attributes,
    validate_columns,
    wrap_heading,
)

logger = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("timestamp", "utc_time", "callsign", *ATTRIBUTES)

#: Numeric columns in the order their cells are checked, each with its cell
#: grammar, the characters a cell of that grammar is made of, the
#: conversion, and what a cell that does not parse reads in the column.
_NUMERIC_CELLS = (("timestamp", re.compile(r"^[+-]?\d+$"), "+-0123456789", int, 0),) + tuple(
    (name, DECIMAL_RE, "+-.0123456789", float, math.nan) for name in ATTRIBUTES
)

_UTC_FORMAT = "%Y-%m-%d %H:%M:%S"

#: CSV rows parsed per batch; bounds the memory the row lists take.
_CHUNK_ROWS = 8192
#: Cells per block that _parse_numeric scans for a character outside a column's charset.
_SCAN_CELLS = 64


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

    def __iter__(self) -> Iterator[RawRecord]:
        """One RawRecord per row, None wherever a cell is missing."""
        columns = [self.timestamp.tolist(), self.utc_time.tolist(), self.callsign.tolist(), *self.values.tolist()]
        for column, row in np.argwhere(self.missing).tolist():
            columns[column][row] = None
        return map(RawRecord, *columns)

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


def parse_header(cells: list[str]) -> Header:
    """Resolve the required columns from a header row's cells (case-insensitive)."""
    lowered = [c.strip().lower() for c in cells]
    indexes: dict[str, int] = {}
    for name in REQUIRED_COLUMNS:
        if name not in lowered:
            raise MalformedRowError(f"header is missing required column {name!r}")
        indexes[name] = lowered.index(name)
    return Header(indexes=indexes, width=len(cells))


def _parse_numeric(raw, cell_re, charset: str, convert, fill) -> tuple[list, dict[int, str]]:
    """A numeric column: its values, and the stripped text of each cell that
    did not parse (reading ``fill``), keyed by row.

    Made of ASCII digits, signs and points only, a cell matches its grammar
    exactly when ``convert`` accepts it, and ``strip`` leaves it as it is.
    So one ``convert`` pass reads the column. An empty cell and a cell with
    another character take ``str(fill)``, which ``convert`` reads as ``fill``,
    in that pass. Only a cell with another character and a cell ``convert``
    refuses are then stripped and matched on their own. Another character is
    looked for in blocks of cells, and only a block that holds one is stripped.
    """
    kept = charset.encode()
    if not "".join(raw).encode("utf-8", "surrogatepass").translate(None, kept):
        other = []
    else:  # blocks are cut by cell, as a cell may hold a newline or a NUL; strip(charset) empties all other cells
        blocks = (raw[k : k + _SCAN_CELLS] for k in range(0, len(raw), _SCAN_CELLS))
        other = [k * _SCAN_CELLS + i for k, block in enumerate(blocks)
                 if "".join(block).encode("utf-8", "surrogatepass").translate(None, kept)
                 for i in compress(count(), map(str.strip, block, repeat(charset)))]
    empty = list(compress(count(), map(operator.not_, raw))) if "" in raw else []
    cells = raw
    if other or empty:
        cells, stand_in = list(raw), str(fill)
        for i in chain(other, empty):
            cells[i] = stand_in
    values, rest = [], iter(cells)
    while True:  # list.extend keeps what it appended before a refusal; the map goes on after that cell
        try:
            values.extend(map(convert, rest))
            break
        except ValueError:
            other.append(len(values))
            values.append(fill)
    # Each of these reads fill already; a stripped cell that matches the grammar is converted alone.
    texts = list(map(str.strip, map(raw.__getitem__, other)))
    matched = list(map(cell_re.match, texts))
    unmatched = list(map(operator.not_, matched))
    unparsed = dict.fromkeys(empty, "")
    unparsed.update(zip(compress(other, unmatched), compress(texts, unmatched)))
    for i, cell in zip(compress(other, matched), compress(texts, matched)):
        try:
            values[i] = convert(cell)
        except ValueError:  # int refuses more digits than sys.get_int_max_str_digits(): saturate, out of any range
            bound = 10 ** sys.get_int_max_str_digits() - 1
            values[i] = max(-bound, min(bound, int(Decimal(cell))))
    return values, unparsed


def _transpose(rows: list[list[str]], width: int) -> list:
    """Rows of ``width`` cells as ``width`` columns."""
    return list(zip(*rows)) if rows else [()] * width


def _parse_rows(columns: list, row_numbers, header: Header, strict: bool) -> RecordTable:
    """Parse the columns of rows of the header's width, logging utc_time disagreements.

    ``columns`` holds one cell sequence per header column, and
    ``row_numbers`` one number per row. In strict mode the first
    non-numeric cell (by row, then in _NUMERIC_CELLS order) raises, after
    the rows before it were checked.
    """
    count = len(row_numbers)
    numeric = [
        _parse_numeric(columns[header.indexes[name]], *grammar) for name, *grammar in _NUMERIC_CELLS
    ]
    missing = np.zeros((len(REQUIRED_COLUMNS), count), dtype=bool)
    error_row, error_cell = count, None
    for (name, *_), (_, unparsed) in zip(_NUMERIC_CELLS, numeric):
        missing[REQUIRED_COLUMNS.index(name), list(unparsed)] = True
        row = min((i for i, cell in unparsed.items() if cell), default=count) if strict else count
        if row < error_row:
            error_row, error_cell = row, f"{name} cell {unparsed[row]!r}"
    # Equal stripped cells share one str (an empty one reads None); the memo lives as long as the chunk.
    utc_time, callsign = (
        _object_array([shared.setdefault(cell, cell) for cell in map(str.strip, columns[header.indexes[name]])])
        for name, shared in (("utc_time", {"": None}), ("callsign", {"": None}))
    )
    missing[1] = np.equal(utc_time, None)
    missing[2] = np.equal(callsign, None)
    timestamp = _timestamp_array(numeric[0][0])
    _log_utc_disagreements(timestamp, utc_time, ~(missing[0] | missing[1]), row_numbers, error_row)
    if error_cell is not None:
        raise MalformedRowError(f"malformed row (row {row_numbers[error_row]}): non-numeric {error_cell}")
    values = np.array([column for column, *_ in numeric[1:]], dtype=np.float64)
    return RecordTable(timestamp, utc_time, callsign, values.reshape(len(ATTRIBUTES), count), missing)


def _log_utc_disagreements(timestamp, utc_time, present, row_numbers, stop: int) -> None:
    # The Unix timestamp is authoritative; a disagreeing UTC column is
    # only worth a log line. strptime reads the canonical rendering of any
    # timestamp in TIMESTAMP_RANGE back to the same second, so only rows
    # whose text differs from it need strptime. Many aircraft report in
    # the same second, so each distinct second is rendered once.
    rows = np.flatnonzero(present[:stop])
    stamps = timestamp[rows]
    canonical = np.full(len(rows), None, dtype=object)
    in_range = (TIMESTAMP_RANGE[0] <= stamps) & (stamps <= TIMESTAMP_RANGE[1])
    distinct, inverse = np.unique(stamps[in_range].astype(np.int64), return_inverse=True)
    canonical[in_range] = _utc_texts(distinct)[inverse]
    for row in rows[np.not_equal(canonical, utc_time[rows])].tolist():
        _check_utc_agreement(int(timestamp[row]), utc_time[row], row_numbers[row])


def _utc_texts(timestamps: np.ndarray) -> np.ndarray:
    """Canonical utc_time text ("%Y-%m-%d %H:%M:%S") of int64 timestamps, as str objects.

    Every year in TIMESTAMP_RANGE (0001-9999) has four digits, as numpy
    writes it and as strptime's %Y reads it. Elsewhere numpy writes another
    width, which the fixed-position edit below would garble, so a timestamp
    outside that range raises ValueError.
    """
    outside = (timestamps < TIMESTAMP_RANGE[0]) | (timestamps > TIMESTAMP_RANGE[1])
    if outside.any():
        raise ValueError(f"timestamp {timestamps[outside][0]} lies outside years 0001-9999 UTC")
    text = np.datetime_as_string(timestamps.astype("datetime64[s]"), unit="s")
    text.view(np.uint32).reshape(-1, text.itemsize // 4)[:, 10] = ord(" ")  # ISO 'T' -> ' '
    return text.astype(object)


def _check_utc_agreement(timestamp: int, utc_time: str, row_number: int) -> None:
    try:
        parsed = datetime.strptime(utc_time, _UTC_FORMAT)
    except ValueError:
        logger.debug("unparseable utc_time %r (row %d)", utc_time, row_number)
        return
    if int(parsed.replace(tzinfo=timezone.utc).timestamp()) != timestamp:
        logger.warning("utc_time %r disagrees with timestamp %d (row %d)", utc_time, timestamp, row_number)


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
        return sum(self.summary().values())

    def summary(self) -> dict[str, int]:
        """The count fields by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trajectories"}


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Flags the rows where any of the (sorted) keys changes."""
    starts = np.zeros(len(keys[0]), dtype=bool)
    starts[:1] = True
    for key in keys:
        starts[1:] |= key[1:] != key[:-1]
    return starts


def _batches(lengths: list[int]) -> Iterator[slice]:
    """Consecutive runs of items of at most ``_CHUNK_ROWS`` rows in all (or one longer item)."""
    start, size = 0, 0
    for i, length in enumerate(lengths):
        if i > start and size + length > _CHUNK_ROWS:
            yield slice(start, i)
            start, size = i, 0
        size += length
    if start < len(lengths):
        yield slice(start, len(lengths))


def _callsign_ranks(callsigns: np.ndarray) -> tuple[list, np.ndarray]:
    """Sorted distinct callsigns (None last) and each row's index into them."""
    row_callsigns = callsigns.tolist()
    names = sorted(dict.fromkeys(row_callsigns), key=lambda c: (c is None, c or ""))
    index = {name: i for i, name in enumerate(names)}
    return names, np.fromiter(map(index.__getitem__, row_callsigns), np.int64, len(row_callsigns))


def clean_trajectories(table: RecordTable) -> CleaningResult:
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
    del same_stamp
    by_candidate = np.lexsort((layer, rank[order]))
    rows = order[by_candidate]
    del order
    starts = np.flatnonzero(_run_starts(rank[rows], layer[by_candidate]))
    del layer, by_candidate
    ends = np.append(starts[1:], count)

    incomplete = np.logical_or.reduceat(table.missing.any(axis=0)[rows], starts)
    reason = validate_columns(timestamp, table.values)[rows]  # per-element checks: no gathered copy of the values
    first_bad = np.minimum.reduceat(np.where(reason > 0, position, count), starts)
    del position
    invalid = ~incomplete & (first_bad < ends)
    candidate_rank = rank[rows[starts]]
    del rank
    for candidate in np.flatnonzero(invalid).tolist():
        bad = reason[first_bad[candidate]]
        logger.debug("dropping %s: %s", names[candidate_rank[candidate]], INVALID_REASONS[bad - 1])
    del reason

    first, last = key[rows[starts]], key[rows[ends - 1]]
    valid = np.flatnonzero(~incomplete & ~invalid)
    by_triple = valid[np.lexsort((last[valid], first[valid], candidate_rank[valid]))]
    repeats = ~_run_starts(candidate_rank[by_triple], first[by_triple], last[by_triple])
    duplicate = np.zeros(len(starts), dtype=bool)
    duplicate[by_triple[repeats]] = True

    kept = np.flatnonzero(~incomplete & ~invalid & ~duplicate)
    kept = kept[np.lexsort((first[kept], candidate_rank[kept]))]
    spans = list(zip(starts[kept].tolist(), ends[kept].tolist()))
    kept_names = [names[r] for r in candidate_rank[kept].tolist()]
    lengths = [end - start for start, end in spans]
    trajectories = []
    for batch in _batches(lengths):
        taken = np.concatenate([rows[start:end] for start, end in spans[batch]])
        cuts = np.cumsum(lengths[batch])[:-1]
        trajectories += map(Trajectory.from_columns, kept_names[batch],
                            np.split(timestamp[taken].astype(np.int64, copy=False), cuts),  # kept rows are in range
                            np.split(round_attributes(table.values[:, taken]), cuts, axis=1))
    return CleaningResult(
        trajectories,
        kept=len(kept),
        incomplete=int(incomplete.sum()),
        invalid=int(invalid.sum()),
        duplicate=int(duplicate.sum()),
    )


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


def _minute_columns(trajectories: list[Trajectory]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bucket timestamps, unrounded (5, buckets) minute means and the bucket each trajectory but the first
    starts at; a stable sort by (trajectory, minute) adds each trajectory's waypoints in its own order."""
    owner = np.repeat(np.arange(len(trajectories)), [len(t) for t in trajectories])
    bucket = np.concatenate([t.timestamps for t in trajectories]) // 60
    values = np.hstack([t.values for t in trajectories])
    if ((bucket[1:] < bucket[:-1]) & (owner[1:] == owner[:-1])).any():
        order = np.lexsort((bucket, owner))
        bucket, values = bucket[order], values[:, order]
    starts = np.flatnonzero(_run_starts(owner, bucket))
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
    angles = list(map(math.atan2, sums[4, ~single].tolist(), sums[5, ~single].tolist()))
    heading = np.empty(len(starts))
    heading[single] = values[4, starts[single]]
    heading[~single] = np.degrees(angles)
    with np.errstate(invalid="ignore"):
        heading = wrap_heading(heading)
    cuts = np.searchsorted(owner[starts], np.arange(1, len(trajectories)))
    return bucket[starts] * 60, np.vstack([sums[:4] / counts, heading]), cuts


def aggregate_trajectories(trajectories: Iterable[Trajectory]) -> list[Trajectory]:
    """Aggregate cleaned trajectories to one canonical waypoint per minute each.

    Empty minutes yield no waypoint; the resulting gaps are handled by
    windowing, not here. The work runs a batch of trajectories at a time,
    at most ``_CHUNK_ROWS`` waypoints (or one longer trajectory).
    """
    trajectories = list(trajectories)
    out = []
    for batch in _batches(list(map(len, trajectories))):
        timestamps, means, cuts = _minute_columns(trajectories[batch])
        out += map(Trajectory.from_columns, [t.callsign for t in trajectories[batch]], np.split(timestamps, cuts),
                   np.split(round_attributes(means), cuts, axis=1))
    return out


def aggregate_minutes(traj: Trajectory) -> Trajectory:
    """:func:`aggregate_trajectories` of one trajectory."""
    return aggregate_trajectories([traj])[0]


# --- CSV I/O ---------------------------------------------------------------


def _record_chunks(source: Iterator[str], width: int) -> Iterator[tuple[list | None, list | None]]:
    """The records after the header, one chunk of ``_CHUNK_ROWS`` lines at a time.

    Yields ``(columns, None)`` for a plain chunk: one with no quote, CR or
    NUL, no line longer than ``csv.field_size_limit()``, and ``width``
    cells on every line. Any other chunk is read by csv.reader, which reads
    on from ``source`` where a quoted field runs past the chunk's end, and
    yields ``(None, rows)``: one cell list per record, as many records as
    the chunk has lines. Where csv.reader raises, the records before the
    error are yielded first, so that they are checked as a one-pass reader
    checks them.
    """
    while lines := list(islice(source, _CHUNK_ROWS)):
        text = "".join(lines)
        plain = not ('"' in text or "\r" in text or "\0" in text) and max(map(len, lines)) <= csv.field_size_limit()
        if plain and list(map(str.count, lines, repeat(","))).count(width - 1) == len(lines):
            del lines
            cells = text.replace("\n", ",").split(",")
            if text.endswith("\n"):
                cells.pop()  # the empty cell after the last line end
            del text
            columns = [cells[j::width] for j in range(width)]
            del cells
            yield columns, None
            del columns  # not held while the next chunk is read
            continue
        del text
        rows = []
        try:
            rows.extend(islice(csv.reader(chain(lines, source)), len(lines)))
        except csv.Error:
            yield None, rows
            raise
        del lines
        yield None, rows


def read_adsb_csv(source: str | Path | TextIO, *, strict: bool = False) -> RecordTable:
    """Read raw records from a CSV file or file-like object.

    Numeric cells follow ``domain.DECIMAL_RE`` (timestamps: an optionally
    signed integer). An empty cell is missing in both modes; a non-numeric
    cell in a numeric column is missing in tolerant mode and raises in
    strict mode. Rows are parsed in batches as they are read; blank lines
    are ignored. A row whose cell count differs from the header raises in
    strict mode, after the rows before it were checked. In tolerant mode
    it is skipped, and one warning gives the number skipped and the first
    such row.

    A file is read as UTF-8. One leading byte order mark (U+FEFF), as
    Excel's "CSV UTF-8" export writes, is dropped from the first line of
    a file and of a stream alike. The rows are what csv.reader reads. A
    batch that holds no quote, CR or NUL (which csv.reader refuses before
    Python 3.11), no line longer than ``csv.field_size_limit()``, and the
    header's width on every line, is cut at its commas and newlines with
    ``str.split``: none of the CSV quoting rules apply to it, so this gives
    csv.reader's cells at a fraction of the cost. csv.reader reads every
    other batch; the package's own writers quote callsigns that need it.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as fh:
            return read_adsb_csv(fh, strict=strict)
    source = iter(source)
    first = next(source, "").removeprefix("\ufeff")
    if not first:
        raise MalformedRowError("empty file: header row required")
    header = parse_header(next(csv.reader(chain([first], source))))
    tables = []
    skipped, first_skipped = 0, None
    next_row = 2
    for columns, rows in _record_chunks(source, header.width):
        numbers = range(next_row, next_row + (len(rows) if columns is None else len(columns[0])))
        next_row = numbers.stop
        if columns is None:
            odd = [i for i, cells in enumerate(rows) if cells and len(cells) != header.width]
            if odd and not skipped:
                first_skipped = numbers[odd[0]], len(rows[odd[0]])
            skipped += len(odd)
            end = odd[0] if odd and strict else len(rows)
            keep = [i for i in range(end) if len(rows[i]) == header.width]
            columns = _transpose([rows[i] for i in keep], header.width)
            numbers = [numbers[i] for i in keep]
            del rows
        tables.append(_parse_rows(columns, numbers, header, strict))
        del columns  # not held while the next chunk is read
        if strict and skipped:  # raised once the rows before it are checked
            row, width = first_skipped
            raise MalformedRowError(f"malformed row (row {row}): expected {header.width} cells, got {width}")
    if skipped:
        logger.warning(
            "skipped %d row(s) whose cell count differs from the header's %d (first: row %d)",
            skipped,
            header.width,
            first_skipped[0],
        )
    return RecordTable.concat(tables) if tables else _parse_rows(_transpose([], header.width), [], header, strict)


#: One output row: timestamp, utc_time, csv-quoted callsign, then the
#: attributes in ATTRIBUTES order at their canonical decimal counts.
_ROW_FORMAT = "{},{},{}," + ",".join(f"{{:.{d}f}}" for d in CANONICAL_DECIMALS) + "\n"


def _csv_cell(text: str) -> str:
    """``text`` as csv.writer writes it inside a row (quoted where needed)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def write_trajectories_csv(trajectories: Iterable[Trajectory], target: str | Path | TextIO) -> None:
    """Write cleaned, aggregated trajectories back out in the input schema."""
    if isinstance(target, (str, Path)):
        with open(target, "w", newline="", encoding="utf-8") as fh:
            write_trajectories_csv(trajectories, fh)
            return
    target.write(",".join(REQUIRED_COLUMNS) + "\n")
    for traj in trajectories:
        stamps = traj.timestamps
        utc_times = _utc_texts(stamps).tolist()
        cells = (stamps.tolist(), utc_times, repeat(_csv_cell(traj.callsign)), *traj.values.tolist())
        target.writelines(map(_ROW_FORMAT.format, *cells))


def _plain_float_texts(column: np.ndarray) -> list[str]:
    """Shortest round-trippable decimals, never in scientific notation.

    The raw-CSV number grammar has no exponent form, so tiny values like
    7.5e-14 must be written positionally.
    """
    return [format(Decimal(text), "f") if "e" in text else text for text in map(repr, column.tolist())]


def write_records_csv(table: RecordTable, target: str | Path | TextIO) -> None:
    """Write raw records through csv.writer (full float precision, a missing cell empty)."""
    if isinstance(target, (str, Path)):
        with open(target, "w", newline="", encoding="utf-8") as fh:
            write_records_csv(table, fh)
            return
    columns = [table.timestamp.tolist(), table.utc_time.tolist(), table.callsign.tolist(),
               *map(_plain_float_texts, table.values)]
    for column, row in np.argwhere(table.missing).tolist():
        columns[column][row] = ""
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(REQUIRED_COLUMNS)
    writer.writerows(zip(*columns))


def records_to_csv_text(table: RecordTable) -> str:
    buf = io.StringIO()
    write_records_csv(table, buf)
    return buf.getvalue()
