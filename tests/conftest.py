"""Shared builders for randomized, seeded test data, and reference ingest."""

import csv
import io
import logging
import math
import re
from datetime import datetime, timezone
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest
from hypothesis import settings

from flightcast.domain import (
    LATITUDE_RANGE,
    LONGITUDE_RANGE,
    MIN_ALTITUDE_M,
    TIMESTAMP_RANGE,
    Trajectory,
    Waypoint,
    circular_mean,
    round_waypoint,
)
from flightcast.ingest import CleaningResult, MalformedRowError, RawRecord, parse_header
from flightcast.windowing import INPUT_LENGTH, Window

# Properties draw the same examples on every run and never time out, so a
# slow or loaded machine cannot make them flaky.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def decimal_round_value(value: float, decimals: int) -> float:
    """Bit-exact oracle for ``domain.round_value``: half away from zero on the repr."""
    quantum = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(float(value))).quantize(quantum, rounding=ROUND_HALF_UP))


# --- Reference ingest ----------------------------------------------------------
# The per-record parse, clean and minute aggregation that flightcast.ingest's
# column code must reproduce bit for bit. Rounding uses the Decimal rule and
# every utc_time goes through strptime. It logs as flightcast.ingest does, so
# one caplog can compare the two.

_reference_log = logging.getLogger("flightcast.ingest")
_REFERENCE_CELLS = (("timestamp", re.compile(r"^[+-]?\d+$")),) + tuple(
    (name, re.compile(r"^[+-]?(?:\d+(?:\.\d*)?|\.\d+)$"))
    for name in ("longitude", "latitude", "altitude", "velocity", "heading")
)


def _where(row_number):
    return f" (row {row_number})" if row_number is not None else ""


def reference_parse_record(cells, header, row_number=None, strict=False) -> RawRecord:
    if len(cells) != header.width:
        raise MalformedRowError(
            f"malformed row{_where(row_number)}: expected {header.width} cells, got {len(cells)}"
        )
    values = []
    for name, pattern in _REFERENCE_CELLS:
        value = cells[header.indexes[name]].strip()
        if not value:
            values.append(None)
        elif pattern.match(value):
            values.append(value)
        elif strict:
            raise MalformedRowError(f"malformed row{_where(row_number)}: non-numeric {name} cell {value!r}")
        else:
            values.append(None)
    ts_text, *numbers = values
    record = RawRecord(
        None if ts_text is None else int(ts_text),
        cells[header.indexes["utc_time"]].strip() or None,
        cells[header.indexes["callsign"]].strip() or None,
        *(None if v is None else float(v) for v in numbers),
    )
    if record.timestamp is not None and record.utc_time is not None:
        try:
            parsed = datetime.strptime(record.utc_time, "%Y-%m-%d %H:%M:%S")
        except ValueError:
            _reference_log.debug("unparseable utc_time %r%s", record.utc_time, _where(row_number))
        else:
            if int(parsed.replace(tzinfo=timezone.utc).timestamp()) != record.timestamp:
                _reference_log.warning(
                    "utc_time %r disagrees with timestamp %d%s",
                    record.utc_time,
                    record.timestamp,
                    _where(row_number),
                )
    return record


def reference_read_adsb_csv(text: str, strict=False) -> list[RawRecord]:
    reader = csv.reader(io.StringIO(text))
    header = parse_header(next(reader))
    records, skipped, first_skipped = [], 0, None
    for row_number, cells in enumerate(reader, start=2):
        if not cells:
            continue
        if len(cells) != header.width and not strict:
            if not skipped:
                first_skipped = row_number
            skipped += 1
            continue
        records.append(reference_parse_record(cells, header, row_number, strict))
    if skipped:
        _reference_log.warning(
            "skipped %d row(s) whose cell count differs from the header's %d (first: row %d)",
            skipped,
            header.width,
            first_skipped,
        )
    return records


def reference_invalid_reason(w: Waypoint) -> str | None:
    if not (TIMESTAMP_RANGE[0] <= w.timestamp <= TIMESTAMP_RANGE[1]):
        return "timestamp out of range"
    if not (LONGITUDE_RANGE[0] <= w.longitude <= LONGITUDE_RANGE[1]):
        return "longitude out of range"
    if not (LATITUDE_RANGE[0] <= w.latitude <= LATITUDE_RANGE[1]):
        return "latitude out of range"
    if not (MIN_ALTITUDE_M <= w.altitude < math.inf):
        return "altitude out of range"
    if not (0.0 <= w.velocity < math.inf):
        return "velocity out of range"
    if not (0.0 <= w.heading < 360.0):
        return "heading out of range"
    return None


def reference_round_waypoint(w: Waypoint) -> Waypoint:
    heading = decimal_round_value(w.heading, 2)
    return Waypoint(
        w.timestamp,
        decimal_round_value(w.longitude, 5),
        decimal_round_value(w.latitude, 5),
        decimal_round_value(w.altitude, 3),
        decimal_round_value(w.velocity, 3),
        0.0 if heading >= 360.0 else heading,
    )


def _reference_candidates(records):
    ordered = sorted(
        records, key=lambda r: (r.timestamp is None, r.timestamp if r.timestamp is not None else 0)
    )
    layers, seen = [], {}
    for record in ordered:
        layer = seen.get(record.timestamp, 0)
        seen[record.timestamp] = layer + 1
        while len(layers) <= layer:
            layers.append([])
        layers[layer].append(record)
    return layers


def reference_clean_trajectories(records) -> CleaningResult:
    groups = {}
    for record in records:
        groups.setdefault(record.callsign, []).append(record)
    result = CleaningResult(trajectories=[])
    seen_triples = set()
    for callsign in sorted(groups, key=lambda c: (c is None, c or "")):
        for candidate in _reference_candidates(groups[callsign]):
            if any(not r.is_complete for r in candidate):
                result.incomplete += 1
                continue
            waypoints = [
                Waypoint(r.timestamp, r.longitude, r.latitude, r.altitude, r.velocity, r.heading)
                for r in candidate
            ]
            reasons = [reference_invalid_reason(w) for w in waypoints]
            if any(reasons):
                _reference_log.debug("dropping %s: %s", callsign, next(r for r in reasons if r))
                result.invalid += 1
                continue
            triple = (callsign, waypoints[0].timestamp, waypoints[-1].timestamp)
            if triple in seen_triples:
                result.duplicate += 1
                continue
            seen_triples.add(triple)
            result.kept += 1
            result.trajectories.append(
                Trajectory(callsign, tuple(reference_round_waypoint(w) for w in waypoints))
            )
    result.trajectories.sort(key=lambda t: (t.callsign, t.waypoints[0].timestamp))
    return result


def reference_minute_means(traj: Trajectory):
    buckets = {}
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


def reference_aggregate_minutes(traj: Trajectory) -> Trajectory:
    return Trajectory(
        traj.callsign,
        tuple(reference_round_waypoint(Waypoint(ts, *values)) for ts, values in reference_minute_means(traj)),
    )


def make_waypoint(timestamp=0, longitude=0.0, latitude=0.0, altitude=0.0,
                  velocity=0.0, heading=0.0) -> Waypoint:
    return Waypoint(timestamp, longitude, latitude, altitude, velocity, heading)


def random_canonical_waypoint(rng: np.random.Generator, timestamp: int) -> Waypoint:
    """A valid waypoint at canonical precision, anywhere in the value box."""
    return round_waypoint(
        Waypoint(
            timestamp=timestamp,
            longitude=float(rng.uniform(-180.0, 180.0)),
            latitude=float(rng.uniform(-90.0, 90.0)),
            altitude=float(rng.uniform(-500.0, 15000.0)),
            velocity=float(rng.uniform(0.0, 1200.0)),
            heading=float(rng.uniform(0.0, 360.0)),
        )
    )


def random_window(rng: np.random.Generator, horizon: int, callsign="TST") -> Window:
    """Random valid window whose position moves like something that flies.

    Longitude/latitude follow a bounded walk (at most 0.3 degrees per
    minute, faster than any airliner), so a window's own targets are
    always a plausible continuation of its inputs; altitude, velocity,
    and heading are drawn freely from their boxes.
    """
    start = int(rng.integers(0, 10_000)) * 60
    lon = float(rng.uniform(-180.0, 180.0))
    lat = float(rng.uniform(-90.0, 90.0))
    waypoints = []
    for i in range(INPUT_LENGTH + horizon):
        waypoints.append(
            round_waypoint(
                Waypoint(
                    timestamp=start + 60 * i,
                    longitude=lon,
                    latitude=lat,
                    altitude=float(rng.uniform(-500.0, 15000.0)),
                    velocity=float(rng.uniform(0.0, 1200.0)),
                    heading=float(rng.uniform(0.0, 360.0)),
                )
            )
        )
        lon = float(np.clip(lon + rng.uniform(-0.3, 0.3), -180.0, 180.0))
        lat = float(np.clip(lat + rng.uniform(-0.3, 0.3), -90.0, 90.0))
    return Window(
        callsign=callsign,
        inputs=tuple(waypoints[:INPUT_LENGTH]),
        targets=tuple(waypoints[INPUT_LENGTH:]),
    )


def cruise_window(rng: np.random.Generator, horizon: int, callsign="CRZ") -> Window:
    """A physically plausible cruise window: smooth track, constant altitude."""
    start = int(rng.integers(0, 10_000)) * 60
    lon = float(rng.uniform(95.0, 115.0))
    lat = float(rng.uniform(20.0, 45.0))
    heading = float(rng.uniform(0.0, 360.0))
    speed = float(rng.uniform(700.0, 950.0))
    alt = float(rng.uniform(8000.0, 12000.0))
    dlon = speed / 60.0 / 111.32 * np.sin(np.radians(heading))
    dlat = speed / 60.0 / 111.32 * np.cos(np.radians(heading))
    waypoints = [
        round_waypoint(
            Waypoint(start + 60 * i, lon + dlon * i, lat + dlat * i, alt, speed, heading)
        )
        for i in range(INPUT_LENGTH + horizon)
    ]
    return Window(callsign, tuple(waypoints[:INPUT_LENGTH]), tuple(waypoints[INPUT_LENGTH:]))


def gap_seeded_trajectory(rng: np.random.Generator, callsign="GAP") -> Trajectory:
    """Minute-aligned trajectory with random continuity breaks."""
    length = int(rng.integers(5, 120))
    ts = int(rng.integers(0, 100_000)) * 60
    waypoints = []
    for _ in range(length):
        waypoints.append(random_canonical_waypoint(rng, ts))
        if rng.random() < 0.15:
            ts += 60 * int(rng.integers(2, 6))  # gap
        else:
            ts += 60
    return Trajectory(callsign, tuple(waypoints))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
