"""Shared helpers for randomized, seeded test data, and reference synth, ingest, windowing and parsing."""

import csv
import io
import json
import logging
import math
import re
import sys
from datetime import datetime, timezone
from decimal import ROUND_HALF_UP, Decimal
from itertools import chain
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from flightcast.cli import main
from flightcast.domain import (
    ATTRIBUTES,
    DECIMAL_RE,
    LATITUDE_RANGE,
    LONGITUDE_RANGE,
    MIN_ALTITUDE_M,
    TIMESTAMP_RANGE,
    Trajectory,
    Waypoint,
    check_object,
    round_attributes,
)
from flightcast.ingest import (
    REQUIRED_COLUMNS,
    CleaningResult,
    MalformedRowError,
    RawRecord,
    RecordTable,
    _minute_columns,
    _object_array,
    _timestamp_array,
    _utc_texts,
    parse_header,
    read_adsb_csv,
)
from flightcast.predictors.baselines import KM_PER_DEGREE, POLAR_LATITUDE_LIMIT
from flightcast.predictors.lstm import LstmParams, _views, lstm_forward
from flightcast.prompts import PLAUSIBILITY_RADIUS_DEG, FailureKind, extract_tuples
from flightcast.synth import (
    LANDING_SPEED_KMH,
    TAKEOFF_SPEED_KMH,
    DropEvent,
    FlightSpec,
    NoiseStd,
    TurnEvent,
    _phase_minutes,
    validate_spec,
)
from flightcast.windowing import INPUT_LENGTH, STEP_SECONDS, Window, window_to_obj

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


def reference_int(text: str) -> int:
    """``int(text)`` of an integer cell; one with more significant digits
    than ``int`` converts saturates at the largest magnitude it renders."""
    negative = text.startswith("-")
    digits = text.lstrip("+-").lstrip("0") or "0"
    limit = sys.get_int_max_str_digits()
    magnitude = int(digits) if not limit or len(digits) <= limit else 10**limit - 1
    return -magnitude if negative else magnitude


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
        None if ts_text is None else reference_int(ts_text),
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


CSV_HEADER = ",".join(REQUIRED_COLUMNS)


_RECORD_FIELDS = attrgetter(*REQUIRED_COLUMNS)


def records_table(records) -> RecordTable:
    """The RecordTable of RawRecords: a missing number reads 0 or NaN, flagged in ``missing``."""
    rows = list(map(_RECORD_FIELDS, records))
    columns = list(zip(*rows)) if rows else [()] * len(REQUIRED_COLUMNS)
    return RecordTable(
        _timestamp_array([0 if t is None else t for t in columns[0]]),
        _object_array(columns[1]),
        _object_array(columns[2]),
        np.array(columns[3:], dtype=np.float64).reshape(len(ATTRIBUTES), len(rows)),
        np.array([[v is None for v in column] for column in columns], dtype=bool).reshape(
            len(REQUIRED_COLUMNS), len(rows)
        ),
    )


def read_row(row: str, header: str = CSV_HEADER, strict: bool = False) -> RawRecord:
    """The one record read_adsb_csv reads from ``header``, then ``row`` (row 2)."""
    (record,) = read_adsb_csv(io.StringIO(f"{header}\n{row}\n"), strict=strict)
    return record


def reference_plain_float_text(value: float) -> str:
    """Shortest round-trippable decimal, never in scientific notation."""
    text = repr(float(value))
    if "e" in text or "E" in text:
        text = format(Decimal(text), "f")
    return text


def reference_write_records_csv(records, target) -> None:
    """The raw CSV written one record row at a time through csv.writer (None as an empty cell)."""
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
                "" if v is None else reference_plain_float_text(v)
                for v in (r.longitude, r.latitude, r.altitude, r.velocity, r.heading)
            ]
        )


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
            if any(None in vars(r).values() for r in candidate):
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


def reference_circular_mean(angles: list[float]) -> float:
    """Mean of angles in degrees: the direction of the summed unit vectors,
    or a single angle itself (mod 360), in [0, 360)."""
    if len(angles) == 1:
        mean = angles[0] % 360.0
    else:
        sin_sum = sum(math.sin(math.radians(a)) for a in angles)
        cos_sum = sum(math.cos(math.radians(a)) for a in angles)
        mean = math.degrees(math.atan2(sin_sum, cos_sum)) % 360.0
    return 0.0 if mean >= 360.0 else mean  # x % 360.0 can be 360.0


def minute_means(traj: Trajectory) -> list[tuple[int, tuple[float, float, float, float, float]]]:
    """ingest's unrounded minute-bucket aggregates, as (bucket_timestamp, values)."""
    timestamps, means, _ = _minute_columns([traj])
    return list(zip(timestamps.tolist(), zip(*means.tolist())))


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
            reference_circular_mean([w.heading for w in group]),
        )
        out.append((bucket * 60, values))
    return out


def reference_aggregate_minutes(traj: Trajectory) -> Trajectory:
    return Trajectory(
        traj.callsign,
        tuple(reference_round_waypoint(Waypoint(ts, *values)) for ts, values in reference_minute_means(traj)),
    )


def reference_format_waypoint_row(callsign: str, w: Waypoint) -> list[str]:
    """Canonical CSV cells for one waypoint (four-digit year, fixed decimal counts)."""
    return [
        str(w.timestamp),
        padded_utc_text(w.timestamp),
        callsign,
        f"{w.longitude:.5f}",
        f"{w.latitude:.5f}",
        f"{w.altitude:.3f}",
        f"{w.velocity:.3f}",
        f"{w.heading:.2f}",
    ]


def padded_utc_text(timestamp: int) -> str:
    """datetime's utc_time text with the year zero-padded to four digits."""
    stamp = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    return f"{stamp.year:04d}-" + stamp.strftime("%m-%d %H:%M:%S")


def reference_write_trajectories_csv(trajectories, target) -> None:
    """The trajectory CSV written one waypoint row at a time through csv.writer."""
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(REQUIRED_COLUMNS)
    for traj in trajectories:
        for w in traj.waypoints:
            writer.writerow(reference_format_waypoint_row(traj.callsign, w))


# --- Reference motion and synth --------------------------------------------------
# The scalar motion step that flightcast.predictors.kinematic_track and
# predict_kinematic must reproduce bit for bit when iterated, and the
# per-sample flight loop that flightcast.synth's columns must reproduce:
# closed-form state from scalar helpers, one five-value noise draw and one
# reference_kinematic_step per sample.


def reference_kinematic_step(longitude: float, latitude: float, altitude: float, speed_kmh: float,
                             heading_deg: float, dt_s: float,
                             vertical_rate_m_per_min: float = 0.0) -> tuple[float, float, float]:
    """Advance a position by dt seconds of constant-velocity flight (flat earth, heading clockwise from north)."""
    if abs(latitude) >= POLAR_LATITUDE_LIMIT:
        raise ValueError(f"polar singularity: latitude {latitude} too close to a pole")
    distance_km = speed_kmh * dt_s / 3600.0
    heading_rad = math.radians(heading_deg)
    dlat = distance_km * math.cos(heading_rad) / KM_PER_DEGREE
    dlon = distance_km * math.sin(heading_rad) / (KM_PER_DEGREE * math.cos(math.radians(latitude)))
    dalt = vertical_rate_m_per_min * dt_s / 60.0
    return longitude + dlon, latitude + dlat, altitude + dalt


def reference_predict_kinematic(inputs: np.ndarray, horizon: int) -> np.ndarray:
    """The (5, horizon) dead-reckoning forecast from one window's (5, 16) input columns, one
    reference_kinematic_step per row."""
    prev, last = inputs[:, INPUT_LENGTH - 2 : INPUT_LENGTH].T.tolist()
    north_km = (last[1] - prev[1]) * KM_PER_DEGREE
    east_km = (last[0] - prev[0]) * KM_PER_DEGREE * math.cos(math.radians(prev[1]))
    speed_kmh = math.hypot(east_km, north_km) * 60.0
    track_deg = math.degrees(math.atan2(east_km, north_km)) % 360.0
    vertical_rate = last[2] - prev[2]  # meters per minute

    lon, lat, alt, velocity, heading = last
    out = np.empty((len(last), horizon))
    for step in range(horizon):
        lon, lat, alt = reference_kinematic_step(lon, lat, alt, speed_kmh, track_deg, STEP_SECONDS, vertical_rate)
        out[:, step] = lon, lat, alt, velocity, heading
    return out


def reference_heading_at(spec: FlightSpec, minute: float) -> float:
    heading = spec.initial_heading
    for turn in spec.turns:
        progress = min(max((minute - turn.minute) / turn.duration_min, 0.0), 1.0)
        heading += turn.delta_deg * progress
    heading %= 360.0
    return 0.0 if heading >= 360.0 else heading


def reference_altitude_at(spec: FlightSpec, minute: float) -> float:
    takeoff, cruise, landing = _phase_minutes(spec)
    cruise_alt = spec.cruise_altitude_m
    if spec.drop and minute >= spec.drop.minute:
        cruise_alt -= spec.drop.drop_m
    if minute < takeoff:
        return spec.climb_rate_m_per_min * minute
    if minute < takeoff + cruise:
        return cruise_alt
    descended = spec.descent_rate_m_per_min * (minute - takeoff - cruise)
    return max(cruise_alt - descended, 0.0)


def reference_speed_at(spec: FlightSpec, minute: float) -> float:
    takeoff, cruise, landing = _phase_minutes(spec)
    if minute < takeoff:
        return TAKEOFF_SPEED_KMH + (spec.cruise_speed_kmh - TAKEOFF_SPEED_KMH) * minute / takeoff
    if minute < takeoff + cruise or landing == 0.0:
        return spec.cruise_speed_kmh
    progress = min((minute - takeoff - cruise) / landing, 1.0)
    return spec.cruise_speed_kmh + (LANDING_SPEED_KMH - spec.cruise_speed_kmh) * progress


def reference_generate_flight(spec: FlightSpec) -> list[RawRecord]:
    validate_spec(spec)
    rng = np.random.default_rng(spec.seed)
    takeoff, cruise, landing = _phase_minutes(spec)
    total_s = int(round((takeoff + cruise + landing) * 60.0))
    dt = spec.sample_interval_s

    values = []
    lon, lat = spec.origin_longitude, spec.origin_latitude
    for t_s in range(0, total_s + 1, dt):
        minute = t_s / 60.0
        alt = reference_altitude_at(spec, minute)
        speed = reference_speed_at(spec, minute)
        heading = reference_heading_at(spec, minute)

        noise = rng.normal(0.0, 1.0, size=5)
        out_lon = float(min(max(lon + noise[0] * spec.noise.longitude, -180.0), 180.0))
        out_lat = float(min(max(lat + noise[1] * spec.noise.latitude, -90.0), 90.0))
        out_alt = float(max(alt + noise[2] * spec.noise.altitude, -500.0))
        out_vel = float(max(speed + noise[3] * spec.noise.velocity, 0.0))
        out_hdg = float((heading + noise[4] * spec.noise.heading) % 360.0)
        if out_hdg >= 360.0:
            out_hdg = 0.0
        values.append((out_lon, out_lat, out_alt, out_vel, out_hdg))
        lon, lat, _ = reference_kinematic_step(lon, lat, alt, speed, heading, dt)

    timestamps = np.arange(spec.start_timestamp, spec.start_timestamp + total_s + 1, dt, dtype=np.int64)
    utc_times = _utc_texts(timestamps).tolist()
    return [RawRecord(t, u, spec.callsign, *v) for t, u, v in zip(timestamps.tolist(), utc_times, values)]


def spec_from_dict(obj: dict) -> FlightSpec:
    """Read ``dataclasses.asdict(spec)`` back."""
    obj = dict(obj)
    obj["turns"] = tuple(TurnEvent(**t) for t in obj.get("turns", ()))
    obj["drop"] = DropEvent(**obj["drop"]) if obj.get("drop") else None
    obj["noise"] = NoiseStd(**obj.get("noise", {}))
    return FlightSpec(**obj)


def read_manifest(path) -> list[FlightSpec]:
    """The specs ``synth.write_manifest`` wrote."""
    with open(path, encoding="utf-8") as fh:
        return [spec_from_dict(obj) for obj in json.load(fh)]


def read_jsonl(path) -> list:
    """The object on each non-blank line of a JSON Lines file."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# --- Reference windowing -------------------------------------------------------


def check_continuity(waypoints) -> bool:
    """True iff every adjacent timestamp gap is exactly 60 s."""
    seq = list(waypoints)
    return all(b.timestamp - a.timestamp == STEP_SECONDS for a, b in zip(seq, seq[1:]))


def _reference_first_break(waypoints, start: int, size: int):
    """Index of the first waypoint whose successor is not 60 s later."""
    for i in range(start, start + size - 1):
        if waypoints[i + 1].timestamp - waypoints[i].timestamp != STEP_SECONDS:
            return i
    return None


def reference_sample_windows(traj: Trajectory, horizon: int, stride: int) -> list[Window]:
    """The waypoint-by-waypoint scan sample_windows must reproduce (arguments already valid)."""
    window_size = INPUT_LENGTH + horizon
    waypoints = traj.waypoints
    windows, k = [], 0
    while k + window_size <= len(waypoints):
        break_at = _reference_first_break(waypoints, k, window_size)
        if break_at is None:
            windows.append(Window(traj.callsign, tuple(waypoints[k : k + window_size])))
            k += stride
        else:
            k = break_at + 1
    return windows


def reference_window_from_obj(obj) -> Window:
    """One row's window, its rules checked on that row alone, in the order and with the messages
    ``window_from_obj`` states; the readers' stacked decoder must give the same window and error."""
    check_object("window row", obj, "callsign", "input", "target")
    callsign = obj["callsign"]
    if not isinstance(callsign, str):
        raise ValueError(f"window callsign {callsign!r} is not a string")
    inputs, targets = obj["input"], obj["target"]
    if not isinstance(inputs, list) or not isinstance(targets, list):
        raise ValueError("window input and target must be arrays of waypoint rows")
    if len(inputs) != INPUT_LENGTH:
        raise ValueError(f"window input holds {len(inputs)} rows, expected {INPUT_LENGTH}")
    if not targets:
        raise ValueError("window target is empty")
    rows = inputs + targets
    if not all(isinstance(row, list) and len(row) == 1 + len(ATTRIBUTES) for row in rows):
        raise ValueError(f"window holds a waypoint row that is not an array of {1 + len(ATTRIBUTES)} cells")
    horizon = obj.get("horizon", len(targets))
    if type(horizon) is not int or horizon != len(targets):
        raise ValueError(f"window horizon {horizon!r} does not match its {len(targets)} target rows")
    cells = [row[1:] for row in rows]
    if not set(map(type, chain.from_iterable(cells))) <= {int, float}:
        cell = next(c for c in chain.from_iterable(cells) if type(c) not in (int, float))
        raise ValueError(f"window holds a non-numeric cell ({cell!r})")
    values = np.array(cells)
    if values.dtype.kind not in "iuf":  # object: some int fits no 64-bit integer
        cell = next(c for c in chain.from_iterable(cells) if type(c) is int and not -(2**63) <= c < 2**63)
        raise ValueError(f"window holds integer cell {cell} outside the int64 range")
    if not np.isfinite(values).all():
        raise ValueError("window holds a non-finite cell")
    timestamps = [row[0] for row in rows]
    for t in timestamps:
        if type(t) is not int:
            raise ValueError(f"window timestamp {t!r} is not an integer")
    for a, b in zip(timestamps, timestamps[1:]):
        if b - a != STEP_SECONDS:
            raise ValueError(f"window timestamps {a} and {b} are not {STEP_SECONDS} s apart")
    for t in (timestamps[0], timestamps[-1]):
        if not -(2**63) <= t < 2**63:
            raise ValueError(f"window timestamp {t} outside the int64 range")
    return Window.from_columns(callsign, timestamps, values.T)


def reference_window_rows(text: str) -> list:
    """``(row number, window or the message refusing it)`` of each non-blank line, read one row at a time."""
    out = []
    for number, line in enumerate(filter(str.strip, io.StringIO(text)), start=1):
        try:
            out.append((number, reference_window_from_obj(json.loads(line))))
        except ValueError as exc:
            out.append((number, str(exc)))
    return out


#: ``windowing.CANONICAL_ROW`` as it was written before its lookbehinds: the language it must match.
_REFERENCE_CELL = r"-?(?:[1-9][0-9]{0,5}\.(?:0|[0-9]{0,8}[1-9])|0\.(?:0|(?!0000)[0-9]{0,8}[1-9]))"
_REFERENCE_ROW = rf"\[(?:0|-?[1-9][0-9]*)(?:, {_REFERENCE_CELL}){{5}}\]"
REFERENCE_CANONICAL_ROW = re.compile(
    rf'\{{"callsign": "[ !#-\[\]-~]*", "horizon": [1-9][0-9]*, '
    rf'"input": \[{_REFERENCE_ROW}(?:, {_REFERENCE_ROW}){{15}}\], '
    rf'"target": \[{_REFERENCE_ROW}(?:, {_REFERENCE_ROW})*\]\}}'
)


#: Integers at the 64-bit bounds: numpy reads a cell in [-2**63, 2**64) and refuses the rest.
BOUND_INTEGERS = (-(2**63) - 1, -(2**63), 2**63 - 1, 2**63, 2**64 - 1, 2**64)


def with_defect(data, obj: dict, defect: str) -> str:
    """The text of a windows row, ``obj`` with one defect ``window_from_obj`` names."""
    rows = obj["input"] + obj["target"]
    row = data.draw(st.integers(0, len(rows) - 1))
    cell = data.draw(st.integers(1, 5))
    if defect == "missing key":
        del obj[data.draw(st.sampled_from(("callsign", "input", "target")))]
    elif defect in ("bool cell", "null cell", "NaN cell", "integer cell"):
        bad = {"bool cell": st.booleans(), "null cell": st.none(), "NaN cell": st.just(math.nan),
               "integer cell": st.sampled_from(BOUND_INTEGERS)}[defect]
        rows[row][cell] = data.draw(bad)
    elif defect == "integer cells":  # every cell an int, as a writer that drops ".0" leaves them
        for r in rows:
            r[1:] = map(round, r[1:])
    elif defect == "timestamps past int64":
        for k, r in enumerate(rows):
            r[0] = data.draw(st.sampled_from((2**63, 2**70))) + 60 * k if k == 0 else rows[0][0] + 60 * k
    elif defect == "int64 wrap":  # 60 s apart once the difference wraps round 64 bits
        top = data.draw(st.integers(0, len(rows) - 2))
        for k, r in enumerate(rows):
            r[0] = 2**63 - 1 - 60 * (top - k) if k <= top else -(2**63) + 59 + 60 * (k - top - 1)
    elif defect == "61 s gap":
        for r in rows[max(row, 1) :]:
            r[0] += 1
    elif defect == "wrong horizon":
        obj["horizon"] = len(obj["target"]) + data.draw(st.sampled_from((-1, 1)))
    elif defect == "horizon true":
        obj["horizon"] = True
    text = json.dumps(obj)
    return text[: len(text) // 2] if defect == "not JSON" else text


DEFECTS = ("missing key", "bool cell", "null cell", "NaN cell", "integer cell", "integer cells",
           "timestamps past int64", "int64 wrap", "61 s gap", "wrong horizon", "horizon true", "not JSON")


@st.composite
def window_files(draw, horizons=(1, 4), max_rows=150):
    """A windows file of up to ``max_rows`` rows, most of them over more rows than one decoded group,
    mixing valid rows with up to six that each carry one defect, and blank lines (not rows) here and there."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, max_rows))
    defects = draw(st.dictionaries(st.integers(0, count - 1), st.sampled_from(DEFECTS), max_size=6))
    data = draw(st.data())
    lengths = INPUT_LENGTH + rng.choice(horizons, size=count)
    values = rng.uniform(-180.0, 180.0, size=(5, lengths.sum()))
    lines = []
    for k, (end, length) in enumerate(zip(np.cumsum(lengths).tolist(), lengths.tolist())):
        start = 60 * int(rng.integers(0, 10**8))
        window = Window.from_columns(f"W{k}", start + 60 * np.arange(length), values[:, end - length : end])
        obj = window_to_obj(window)
        lines.append(with_defect(data, obj, defects[k]) if k in defects else json.dumps(obj))
        if rng.integers(20) == 0:
            lines.append("  ")
    return "".join(line + "\n" for line in lines)


def assert_same_window(got: Window, want: Window) -> None:
    """Equal bit for bit: the callsign, and the timestamps and values with their dtypes."""
    assert type(got) is Window and got.callsign == want.callsign
    assert got.timestamps.dtype == want.timestamps.dtype and got.timestamps.tobytes() == want.timestamps.tobytes()
    assert got.values.dtype == want.values.dtype and got.values.tobytes() == want.values.tobytes()


class Text(str):
    """A JSON value's text, which :func:`json_text` writes as it is."""


def json_text(obj, number=repr, items=", ", pairs=": ", ensure_ascii=True) -> str:
    """``obj`` as JSON text with each float written by ``number``, in json's layout by default."""
    if isinstance(obj, Text):
        return obj
    if isinstance(obj, float):
        return number(obj)
    if isinstance(obj, list):
        return "[" + items.join(json_text(v, number, items, pairs, ensure_ascii) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + items.join(json.dumps(k) + pairs + json_text(v, number, items, pairs, ensure_ascii)
                                for k, v in obj.items()) + "}"
    return json.dumps(obj, ensure_ascii=ensure_ascii)


def reference_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function split by sign, so exp never overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _reference_forward_batch(params: LstmParams, x: np.ndarray, steps: list) -> tuple[np.ndarray, np.ndarray]:
    """The recurrence one step at a time, appending each step's activations to ``steps``."""
    a, hidden = params.arrays, params.hidden_dim
    h = np.zeros((x.shape[0], hidden))
    c = np.zeros((x.shape[0], hidden))
    for t in range(x.shape[1]):
        xt = x[:, t, :]
        z = xt @ a["w"].T + h @ a["u"].T + a["b"]
        ifo = reference_sigmoid(z[:, : 3 * hidden])
        i, f, o = ifo[:, :hidden], ifo[:, hidden : 2 * hidden], ifo[:, 2 * hidden :]
        g = np.tanh(z[:, 3 * hidden :])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        steps.append((xt, h, c, ifo, i, f, o, g, tanh_c))
        h, c = o * tanh_c, c_new
    return h @ a["w_out"].T + a["b_out"], h


def _reference_backward_batch(params: LstmParams, steps: list, h_final: np.ndarray,
                              d_prediction: np.ndarray) -> np.ndarray:
    """Flat gradient of a recorded pass, accumulating every weight gradient step by step."""
    a, hidden = params.arrays, params.hidden_dim
    gradient = np.zeros_like(params.vector)
    grads = _views(gradient, a)
    grads["w_out"][:] = d_prediction.T @ h_final
    grads["b_out"][:] = d_prediction.sum(axis=0)
    dh = d_prediction @ a["w_out"]
    dc = np.zeros_like(dh)
    for xt, h_prev, c_prev, ifo, i, f, o, g, tanh_c in reversed(steps):
        dc = dc + dh * o * (1.0 - tanh_c**2)
        da = np.concatenate([dc * g, dc * c_prev, dh * tanh_c, dc * i], axis=1)
        np.multiply(da[:, : 3 * hidden] * ifo, 1.0 - ifo, out=da[:, : 3 * hidden])
        da[:, 3 * hidden :] *= 1.0 - g**2
        grads["w"] += da.T @ xt
        grads["u"] += da.T @ h_prev
        grads["b"] += da.sum(axis=0)
        dh = da @ a["u"]
        dc = dc * f
    return gradient


def lstm_loss(params: LstmParams, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Forward-only batch MSE; what finite-difference probes call."""
    prediction = lstm_forward(params, inputs)
    return float(np.mean((prediction - np.asarray(targets, dtype=np.float64)) ** 2))


def reference_loss_gradients(params: LstmParams, inputs: np.ndarray,
                             targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch MSE and its flat gradient from per-step activation tuples and per-step weight sums."""
    steps: list = []
    prediction, h_final = _reference_forward_batch(params, inputs, steps)
    diff = prediction - targets
    d_prediction = 2.0 * diff / diff.size
    return float(np.mean(diff**2)), _reference_backward_batch(params, steps, h_final, d_prediction)


def reference_lstm_rollout(params: LstmParams, inputs: np.ndarray, horizon: int, forward=lstm_forward) -> np.ndarray:
    """``lstm_predict``'s raw (n, 5, horizon) forecasts, unrounded, taken as it took them before it
    normalized each row once: every step re-normalizes the whole slid raw window and runs ``forward``."""
    sequence = inputs.transpose(0, 2, 1)
    raw = np.empty((len(inputs), horizon, inputs.shape[1]))
    for step in range(horizon):
        out = forward(params, (sequence - params.norm_mean) / params.norm_std)
        raw[:, step] = out * params.norm_std + params.norm_mean
        sequence = np.concatenate([sequence[:, 1:], raw[:, step, None]], axis=1)
    return raw.transpose(0, 2, 1)


# --- Reference scores ----------------------------------------------------------
# MAE and RMSE as flightcast.evaluation took them before it had an overflow
# fallback: one sorted mean each. Wherever these are finite, the scores must
# equal them bit for bit.


def reference_mae(errors) -> float:
    with np.errstate(over="ignore"):
        return float(np.mean(np.sort(np.abs(np.asarray(errors, dtype=np.float64)))))


def reference_rmse(errors) -> float:
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.mean(np.sort(np.asarray(errors, dtype=np.float64) ** 2))))


def not_json(constant):
    """A ``json.loads`` ``parse_constant`` that refuses ``NaN``, ``Infinity`` and ``-Infinity``."""
    raise ValueError(f"{constant} is not JSON")


# --- Reference parse -----------------------------------------------------------
# The per-waypoint severity check and parse that flightcast.prompts' block
# code must reproduce: the same class, the same diagnostic, and values equal
# bit for bit to the reference's waypoints.


def reference_classify_severe(predicted: Waypoint, context: Window) -> bool:
    last_lon, last_lat = context.values[:2, INPUT_LENGTH - 1].tolist()
    if not all(map(math.isfinite, predicted.values())):
        return True
    if not (LONGITUDE_RANGE[0] <= predicted.longitude <= LONGITUDE_RANGE[1]):
        return True
    if not (LATITUDE_RANGE[0] <= predicted.latitude <= LATITUDE_RANGE[1]):
        return True
    if abs(predicted.longitude - last_lon) > PLAUSIBILITY_RADIUS_DEG:
        return True
    if abs(predicted.latitude - last_lat) > PLAUSIBILITY_RADIUS_DEG:
        return True
    if abs(last_lon) > 1.0 and predicted.longitude * last_lon < 0.0:
        return True
    if abs(last_lat) > 1.0 and predicted.latitude * last_lat < 0.0:
        return True
    return False


def reference_parse_completion(text, horizon: int, context: Window):
    """``(waypoints, failure, diagnostic)``: exactly one of waypoints and failure is None."""
    if not isinstance(text, str):
        return None, FailureKind.UNEXPECTED_FORMAT, f"completion is {type(text).__name__}, not text"
    candidates = extract_tuples(text)
    if not candidates:
        return None, FailureKind.MISSING_TRAJECTORY, "no coordinate tuples found"
    if len(candidates) < horizon:
        return None, FailureKind.UNEXPECTED_FORMAT, f"found {len(candidates)} tuple(s), expected {horizon}"

    last_ts = int(context.timestamps[INPUT_LENGTH - 1])
    waypoints = []
    for step, items in enumerate(candidates[:horizon], start=1):
        if len(items) != 5:
            return None, FailureKind.UNEXPECTED_FORMAT, f"tuple {step} has {len(items)} fields, expected 5"
        bad = [item for item in items if not DECIMAL_RE.match(item)]
        if bad:
            return None, FailureKind.UNEXPECTED_FORMAT, f"tuple {step} has non-numeric field {bad[0]!r}"
        waypoints.append(Waypoint(last_ts + step * STEP_SECONDS, *[float(item) for item in items]))

    for step, w in enumerate(waypoints, start=1):
        if reference_classify_severe(w, context):
            return (None, FailureKind.SEVERE_DEVIATION,
                    f"waypoint {step} deviates implausibly from the last observed position")

    diagnostic = ""
    if len(candidates) > horizon:
        diagnostic = f"ignored {len(candidates) - horizon} extra tuple(s)"
    return tuple(waypoints), None, diagnostic


# --- Test data ---------------------------------------------------------------


def make_waypoint(timestamp=0, longitude=0.0, latitude=0.0, altitude=0.0,
                  velocity=0.0, heading=0.0) -> Waypoint:
    return Waypoint(timestamp, longitude, latitude, altitude, velocity, heading)


def canonical_window(callsign: str, start: int, rows) -> Window:
    """A window of the given (lon, lat, alt, vel, hdg) rows at canonical precision, 60 s apart from ``start``."""
    values = round_attributes(np.array(rows, dtype=np.float64).reshape(-1, 5).T)
    return Window.from_columns(callsign, start + STEP_SECONDS * np.arange(values.shape[1]), values)


def random_canonical_waypoint(rng: np.random.Generator, timestamp: int) -> Waypoint:
    """A valid waypoint at canonical precision, anywhere in the value box."""
    values = [rng.uniform(-180.0, 180.0), rng.uniform(-90.0, 90.0), rng.uniform(-500.0, 15000.0),
              rng.uniform(0.0, 1200.0), rng.uniform(0.0, 360.0)]
    return Waypoint(timestamp, *round_attributes(np.array(values)[:, None])[:, 0].tolist())


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
    rows = []
    for _ in range(INPUT_LENGTH + horizon):
        rows.append((lon, lat, rng.uniform(-500.0, 15000.0), rng.uniform(0.0, 1200.0), rng.uniform(0.0, 360.0)))
        lon = float(np.clip(lon + rng.uniform(-0.3, 0.3), -180.0, 180.0))
        lat = float(np.clip(lat + rng.uniform(-0.3, 0.3), -90.0, 90.0))
    return canonical_window(callsign, start, rows)


def window_inputs(windows) -> np.ndarray:
    """The (n, 5, 16) stack of the windows' input columns that the stacked forecasters take."""
    return np.array([w.values[:, :INPUT_LENGTH] for w in windows])


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
    rows = [(lon + dlon * i, lat + dlat * i, alt, speed, heading) for i in range(INPUT_LENGTH + horizon)]
    return canonical_window(callsign, start, rows)


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


# --- The CLI in process ----------------------------------------------------------


def run(*args) -> int:
    """One ``flightcast`` command run in process through ``cli.main``, each argument as its text."""
    return main([str(a) for a in args])


@pytest.fixture(scope="session")
def pipeline_dir(tmp_path_factory):
    """6 synthetic flights at seed 7: ``raw.csv``, ``clean.csv`` and horizon-4 ``windows.jsonl``, built
    once for the session. Tests read it and write under their own ``tmp_path``; a file written or changed
    here fails the fixture's teardown at the end of the session."""
    work = tmp_path_factory.mktemp("pipeline")
    assert run("synth", "--flights", 6, "--seed", 7, "--out", work / "raw.csv") == 0
    assert run("ingest", "--in", work / "raw.csv", "--out", work / "clean.csv") == 0
    assert run("sample", "--in", work / "clean.csv", "--horizon", 4, "--out", work / "windows.jsonl") == 0
    built = {path.name: path.read_bytes() for path in work.iterdir()}
    yield work
    assert {path.name: path.read_bytes() for path in work.iterdir()} == built, "a test wrote into pipeline_dir"
