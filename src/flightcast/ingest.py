"""ADS-B CSV ingestion: record parsing, trajectory cleaning, minute aggregation.

The raw schema is a header row with columns timestamp, utc_time, callsign,
longitude, latitude, altitude, velocity, heading (case-insensitive, extra
columns ignored). Missing cells are carried as None, never as zero.
"""

from __future__ import annotations

import csv
import io
import logging
import re
import time
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path
from typing import Iterable, TextIO

from .domain import Trajectory, Waypoint, circular_mean, round_waypoint, validate_waypoint

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

_INT_RE = re.compile(r"^[+-]?\d+$")
_NUMBER_RE = re.compile(r"^[+-]?(?:\d+(?:\.\d*)?|\.\d+)$")

#: Numeric columns with their cell grammar, in the order parse_record checks them.
_NUMERIC_CELLS = (("timestamp", _INT_RE),) + tuple((name, _NUMBER_RE) for name in NUMERIC_COLUMNS)

#: Timestamps from 1000-01-01 to 9999-12-31 UTC, where time.strftime's %Y
#: has the four digits strptime's %Y requires.
_FOUR_DIGIT_YEARS = (-30610224000, 253402300800)
_UTC_FORMAT = "%Y-%m-%d %H:%M:%S"


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
    if len(cells) != header.width:
        raise MalformedRowError(
            f"malformed row{_where(row_number)}: expected {header.width} cells, got {len(cells)}"
        )
    indexes = header.indexes
    values = []
    for name, pattern in _NUMERIC_CELLS:
        value = cells[indexes[name]].strip()
        if not value:
            values.append(None)
        elif pattern.match(value):
            values.append(value)
        elif strict:
            raise MalformedRowError(
                f"malformed row{_where(row_number)}: non-numeric {name} cell {value!r}"
            )
        else:
            values.append(None)
    ts_text, lon, lat, alt, vel, hdg = values
    record = RawRecord(
        None if ts_text is None else int(ts_text),
        cells[indexes["utc_time"]].strip() or None,
        cells[indexes["callsign"]].strip() or None,
        None if lon is None else float(lon),
        None if lat is None else float(lat),
        None if alt is None else float(alt),
        None if vel is None else float(vel),
        None if hdg is None else float(hdg),
    )
    _check_utc_agreement(record, row_number)
    return record


def _where(row_number: int | None) -> str:
    return f" (row {row_number})" if row_number is not None else ""


def _check_utc_agreement(record: RawRecord, row_number: int | None) -> None:
    # The Unix timestamp is authoritative; a disagreeing UTC column is
    # only worth a log line. Where the year has four digits, strptime
    # reads the canonical rendering back to the same second, so only other
    # text needs strptime.
    timestamp, utc_time = record.timestamp, record.utc_time
    if timestamp is None or utc_time is None:
        return
    if _FOUR_DIGIT_YEARS[0] <= timestamp < _FOUR_DIGIT_YEARS[1] and utc_time == _utc_text(timestamp):
        return
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


def _candidate_trajectories(records: list[RawRecord]) -> list[list[RawRecord]]:
    """Split one callsign's records into candidate trajectories.

    Records are stably sorted by timestamp; the k-th record seen at any
    given timestamp goes to candidate k. A feed that contains the same
    flight twice therefore produces two parallel candidates, which the
    duplicate check collapses; unique timestamps produce exactly one.
    """
    ordered = sorted(
        records, key=lambda r: (r.timestamp is None, r.timestamp if r.timestamp is not None else 0)
    )
    layers: list[list[RawRecord]] = []
    seen: dict[int | None, int] = {}
    for record in ordered:
        layer = seen.get(record.timestamp, 0)
        seen[record.timestamp] = layer + 1
        while len(layers) <= layer:
            layers.append([])
        layers[layer].append(record)
    return layers


def clean_trajectories(records: Iterable[RawRecord]) -> CleaningResult:
    """Group records into trajectories, dropping bad ones with counts.

    A candidate trajectory is dropped as *incomplete* if any record has a
    missing field, as *invalid* if any waypoint fails validation, and as
    *duplicate* if its (callsign, first timestamp, last timestamp) triple
    repeats one already kept (first occurrence wins). Survivors are
    canonically rounded. Output is sorted by callsign then first timestamp.
    """
    groups: dict[str | None, list[RawRecord]] = {}
    for record in records:
        groups.setdefault(record.callsign, []).append(record)

    result = CleaningResult(trajectories=[])
    seen_triples: set[tuple[str, int, int]] = set()
    for callsign in sorted(groups, key=lambda c: (c is None, c or "")):
        for candidate in _candidate_trajectories(groups[callsign]):
            if any(not r.is_complete for r in candidate):
                result.incomplete += 1
                continue
            waypoints = [
                Waypoint(r.timestamp, r.longitude, r.latitude, r.altitude, r.velocity, r.heading)
                for r in candidate
            ]
            verdicts = [validate_waypoint(w) for w in waypoints]
            if not all(verdicts):
                first_bad = next(v for v in verdicts if not v)
                logger.debug("dropping %s: %s", callsign, first_bad.reason)
                result.invalid += 1
                continue
            triple = (callsign, waypoints[0].timestamp, waypoints[-1].timestamp)
            if triple in seen_triples:
                result.duplicate += 1
                continue
            seen_triples.add(triple)
            result.kept += 1
            result.trajectories.append(
                Trajectory(callsign, tuple(round_waypoint(w) for w in waypoints))
            )

    result.trajectories.sort(key=lambda t: (t.callsign, t.waypoints[0].timestamp))
    return result


def minute_means(traj: Trajectory) -> list[tuple[int, tuple[float, float, float, float, float]]]:
    """Unrounded minute-bucket aggregates, as (bucket_timestamp, values).

    Buckets are floor(timestamp / 60); linear attributes are arithmetic
    means, heading is the circular mean. Exposed separately so the
    rounding step can be checked against these raw values.
    """
    buckets: dict[int, list[Waypoint]] = {}
    for w in traj.waypoints:
        buckets.setdefault(w.timestamp // 60, []).append(w)
    out = []
    for bucket in sorted(buckets):
        group = buckets[bucket]
        n = len(group)
        values = (
            sum(w.longitude for w in group) / n,
            sum(w.latitude for w in group) / n,
            sum(w.altitude for w in group) / n,
            sum(w.velocity for w in group) / n,
            circular_mean([w.heading for w in group]),
        )
        out.append((bucket * 60, values))
    return out


def aggregate_minutes(traj: Trajectory) -> Trajectory:
    """Aggregate a cleaned trajectory to one canonical waypoint per minute.

    Empty minutes yield no waypoint; the resulting gaps are handled by
    windowing, not here.
    """
    waypoints = tuple(
        round_waypoint(Waypoint(ts, *values)) for ts, values in minute_means(traj)
    )
    return Trajectory(traj.callsign, waypoints)


# --- CSV I/O ---------------------------------------------------------------


def read_adsb_csv(source: str | Path | TextIO, *, strict: bool = False) -> list[RawRecord]:
    """Read raw records from a CSV file or file-like object.

    Rows are parsed as they are read; blank lines are ignored. A row whose
    cell count differs from the header raises in strict mode. In tolerant
    mode it is skipped, and one warning gives the number skipped and the
    first such row.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as fh:
            return read_adsb_csv(fh, strict=strict)
    reader = csv.reader(source)
    try:
        header = parse_header(next(reader))
    except StopIteration:
        raise MalformedRowError("empty file: header row required") from None
    records = []
    skipped, first_skipped = 0, None
    for row_number, cells in enumerate(reader, start=2):
        if not cells:
            continue
        if len(cells) != header.width and not strict:
            if not skipped:
                first_skipped = row_number
            skipped += 1
            continue
        records.append(parse_record(cells, header, row_number=row_number, strict=strict))
    if skipped:
        logger.warning(
            "skipped %d row(s) whose cell count differs from the header's %d (first: row %d)",
            skipped,
            header.width,
            first_skipped,
        )
    return records


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
