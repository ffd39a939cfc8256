"""Seeded synthetic flights in the raw ADS-B schema.

A flight is a take-off (climb with speed ramp), a cruise with optional
scripted turns and a sudden-altitude-drop event, and a descent. Positions
advance with ``kinematic_track``, the motion rule the dead-reckoning
predictor extrapolates with, which is deliberate: on a noise-free
straight flight the predictor must reproduce the generator exactly, and
tests lean on that identity. Altitude, speed, and heading are closed-form
functions of flight time, so nothing drifts with the sample interval.
A flight is computed as numpy columns and returned as an
``ingest.RecordTable``; a corpus is the flights' tables concatenated.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .domain import (ATTRIBUTES, LATITUDE_RANGE, LONGITUDE_RANGE, MIN_ALTITUDE_M, check_integer, check_number,
                     wrap_heading)
from .ingest import REQUIRED_COLUMNS, RecordTable, _utc_texts
from .predictors import kinematic_track

TAKEOFF_SPEED_KMH = 250.0
LANDING_SPEED_KMH = 280.0

# Randomized-corpus envelopes (roughly airliner-shaped).
CORPUS_CRUISE_ALTITUDE_M = (8000.0, 12000.0)
CORPUS_CRUISE_SPEED_KMH = (700.0, 950.0)
CORPUS_CLIMB_RATE_M_PER_MIN = (400.0, 800.0)
CORPUS_DESCENT_RATE_M_PER_MIN = (350.0, 700.0)
CORPUS_CRUISE_DURATION_MIN = (45, 75)


@dataclass(frozen=True)
class TurnEvent:
    """Linear heading ramp: delta degrees applied over duration minutes."""

    minute: float
    delta_deg: float
    duration_min: float


@dataclass(frozen=True)
class DropEvent:
    """Sudden altitude loss at a flight minute, held afterwards."""

    minute: float
    drop_m: float


@dataclass(frozen=True)
class NoiseStd:
    """Gaussian noise standard deviation per emitted attribute."""

    longitude: float = 0.0
    latitude: float = 0.0
    altitude: float = 0.0
    velocity: float = 0.0
    heading: float = 0.0


@dataclass(frozen=True)
class FlightSpec:
    seed: int
    callsign: str = "SYN000"
    origin_longitude: float = 104.0
    origin_latitude: float = 30.5
    initial_heading: float = 90.0
    cruise_altitude_m: float = 10000.0
    cruise_speed_kmh: float = 850.0
    climb_rate_m_per_min: float = 600.0
    descent_rate_m_per_min: float = 500.0
    cruise_duration_min: float = 30.0
    turns: tuple[TurnEvent, ...] = ()
    drop: DropEvent | None = None
    noise: NoiseStd = field(default_factory=NoiseStd)
    sample_interval_s: int = 10
    include_takeoff: bool = True
    include_landing: bool = True
    start_timestamp: int = 1_700_000_000


def validate_spec(spec: FlightSpec) -> None:
    """Raise ValueError naming the first offending field; every float field must be finite."""
    floats = [(f.name, getattr(spec, f.name)) for f in fields(spec) if f.type == "float"]
    floats += [(f"turns: {f.name}", getattr(turn, f.name)) for turn in spec.turns for f in fields(turn)]
    floats += [(f"drop.{f.name}", getattr(spec.drop, f.name)) for f in fields(DropEvent) if spec.drop is not None]
    for name, value in floats:
        if not math.isfinite(value):
            raise ValueError(f"{name} {value!r} is not a finite number")
    for name in ("climb_rate_m_per_min", "descent_rate_m_per_min", "cruise_altitude_m", "cruise_speed_kmh"):
        if getattr(spec, name) <= 0:
            raise ValueError(f"{name} must be > 0")
    if spec.drop is not None and not 0 <= spec.drop.drop_m < spec.cruise_altitude_m:
        raise ValueError("drop.drop_m must be >= 0 and below cruise_altitude_m")
    if spec.cruise_duration_min < 1:
        raise ValueError("cruise_duration_min must be >= 1")
    check_integer("sample_interval_s", spec.sample_interval_s, 1)
    for turn in spec.turns:
        if turn.duration_min < 1:
            raise ValueError("turns: duration_min must be >= 1")
    for name in ATTRIBUTES:
        check_number(f"noise.{name}", getattr(spec.noise, name))


def _phase_minutes(spec: FlightSpec) -> tuple[float, float, float]:
    takeoff = spec.cruise_altitude_m / spec.climb_rate_m_per_min if spec.include_takeoff else 0.0
    cruise_alt_end = spec.cruise_altitude_m - (spec.drop.drop_m if spec.drop else 0.0)
    landing = cruise_alt_end / spec.descent_rate_m_per_min if spec.include_landing else 0.0
    return takeoff, spec.cruise_duration_min, landing


def _true_state(spec: FlightSpec, minute: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """True altitude, speed and heading at each flight minute, in closed form.

    Altitude climbs, holds cruise (lowered after a drop) and descends to
    the ground; speed ramps from take-off speed to cruise and on to landing
    speed; heading adds each turn's linear ramp, in [0, 360).
    """
    takeoff, cruise, landing = _phase_minutes(spec)
    climbing = minute < takeoff
    descending = ~climbing & (minute >= takeoff + cruise)
    into_descent = minute[descending] - takeoff - cruise

    alt = np.full(len(minute), spec.cruise_altitude_m, dtype=np.float64)
    if spec.drop:
        alt[minute >= spec.drop.minute] = spec.cruise_altitude_m - spec.drop.drop_m
    alt[descending] = np.maximum(alt[descending] - spec.descent_rate_m_per_min * into_descent, 0.0)
    alt[climbing] = spec.climb_rate_m_per_min * minute[climbing]

    speed = np.full(len(minute), spec.cruise_speed_kmh, dtype=np.float64)
    speed[climbing] = TAKEOFF_SPEED_KMH + (spec.cruise_speed_kmh - TAKEOFF_SPEED_KMH) * minute[climbing] / takeoff
    if landing != 0.0:
        progress = np.minimum(into_descent / landing, 1.0)
        speed[descending] = spec.cruise_speed_kmh + (LANDING_SPEED_KMH - spec.cruise_speed_kmh) * progress

    heading = np.full(len(minute), spec.initial_heading, dtype=np.float64)
    for turn in spec.turns:
        heading += turn.delta_deg * np.minimum(np.maximum((minute - turn.minute) / turn.duration_min, 0.0), 1.0)
    return alt, speed, wrap_heading(heading)


def generate_flight(spec: FlightSpec) -> RecordTable:
    """Simulate one flight and emit raw records at the sample interval.

    The emitted values are the closed-form state plus seeded Gaussian
    noise, lightly clamped so every record stays inside the valid
    attribute boxes (heading wraps, velocity floors at zero). Every column
    is computed as an array; the noise is one draw of five values per
    sample, in sample order, and no cell is missing.
    """
    validate_spec(spec)
    takeoff, cruise, landing = _phase_minutes(spec)
    total_s = int(round((takeoff + cruise + landing) * 60.0))
    dt = spec.sample_interval_s
    minute = np.arange(0, total_s + 1, dt) / 60.0
    alt, speed, heading = _true_state(spec, minute)
    # Advance the true position with the shared motion rule.
    lon, lat = kinematic_track(spec.origin_longitude, spec.origin_latitude, speed, heading, dt)

    noise = np.random.default_rng(spec.seed).normal(0.0, 1.0, size=(len(minute), 5)).T
    std = spec.noise
    # np.clip/np.maximum give what Python's max/min give on these clamps:
    # they differ only on NaN and on -0.0 against a 0.0 bound, and neither occurs.
    values = np.array(
        [
            np.clip(lon[:-1] + noise[0] * std.longitude, *LONGITUDE_RANGE),
            np.clip(lat[:-1] + noise[1] * std.latitude, *LATITUDE_RANGE),
            np.maximum(alt + noise[2] * std.altitude, MIN_ALTITUDE_M),
            np.maximum(speed + noise[3] * std.velocity, 0.0),
            wrap_heading(heading + noise[4] * std.heading),
        ]
    )
    timestamps = np.arange(spec.start_timestamp, spec.start_timestamp + total_s + 1, dt, dtype=np.int64)
    callsigns = np.full(len(timestamps), spec.callsign, dtype=object)
    missing = np.zeros((len(REQUIRED_COLUMNS), len(timestamps)), dtype=bool)
    return RecordTable(timestamps, _utc_texts(timestamps), callsigns, values, missing)


def generate_corpus(count: int, base_seed: int) -> tuple[RecordTable, list[FlightSpec]]:
    """Randomized flights with per-flight seeds base_seed + i, as one table.

    Spec parameters are drawn inside realistic airliner envelopes from an
    independent stream per flight; the returned spec list is the manifest
    and regenerating from it reproduces the corpus byte for byte. The
    table holds the flights one after another, in spec order.
    """
    check_integer("count", count, 1)
    check_integer("seed", base_seed)
    specs: list[FlightSpec] = []
    for i in range(count):
        draw = np.random.default_rng([base_seed, i])
        climb = float(draw.uniform(*CORPUS_CLIMB_RATE_M_PER_MIN))
        turns = []
        cruise_alt = float(draw.uniform(*CORPUS_CRUISE_ALTITUDE_M))
        cruise_min = int(draw.integers(*CORPUS_CRUISE_DURATION_MIN))
        climb_min = cruise_alt / climb
        for _ in range(int(draw.integers(0, 3))):
            turns.append(
                TurnEvent(
                    minute=float(draw.uniform(climb_min + 2.0, climb_min + cruise_min - 6.0)),
                    delta_deg=float(draw.uniform(5.0, 40.0) * draw.choice([-1.0, 1.0])),
                    duration_min=float(draw.uniform(1.0, 3.0)),
                )
            )
        spec = FlightSpec(
            seed=base_seed + i,
            callsign=f"SYN{i:03d}",
            origin_longitude=float(draw.uniform(100.0, 118.0)),
            origin_latitude=float(draw.uniform(22.0, 42.0)),
            initial_heading=float(draw.uniform(0.0, 360.0)),
            cruise_altitude_m=cruise_alt,
            cruise_speed_kmh=float(draw.uniform(*CORPUS_CRUISE_SPEED_KMH)),
            climb_rate_m_per_min=climb,
            descent_rate_m_per_min=float(draw.uniform(*CORPUS_DESCENT_RATE_M_PER_MIN)),
            cruise_duration_min=float(cruise_min),
            turns=tuple(turns),
            noise=NoiseStd(
                longitude=2e-5, latitude=2e-5, altitude=5.0, velocity=2.0, heading=0.5
            ),
        )
        specs.append(spec)
    return RecordTable.concat([generate_flight(spec) for spec in specs]), specs


# --- Manifest I/O ------------------------------------------------------------


def write_manifest(specs: list[FlightSpec], path: str | Path) -> None:
    payload = json.dumps([asdict(s) for s in specs], indent=2, sort_keys=True)
    Path(path).write_text(payload + "\n", encoding="utf-8")
