"""Seeded synthetic flights in the raw ADS-B schema.

A flight is a take-off (climb with speed ramp), a cruise with optional
scripted turns and a sudden-altitude-drop event, and a descent. Positions
advance with the same kinematic step the dead-reckoning predictor uses,
which is deliberate: on a noise-free straight flight the predictor must
reproduce the generator exactly, and tests lean on that identity.
Altitude, speed, and heading are closed-form functions of flight time, so
nothing drifts with the sample interval.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .ingest import RawRecord, _utc_texts
from .predictors import kinematic_step

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
    """Raise ValueError naming the first offending field."""
    if spec.climb_rate_m_per_min <= 0:
        raise ValueError("climb_rate_m_per_min must be > 0")
    if spec.descent_rate_m_per_min <= 0:
        raise ValueError("descent_rate_m_per_min must be > 0")
    if spec.cruise_altitude_m <= 0:
        raise ValueError("cruise_altitude_m must be > 0")
    if spec.cruise_duration_min < 1:
        raise ValueError("cruise_duration_min must be >= 1")
    if spec.cruise_speed_kmh <= 0:
        raise ValueError("cruise_speed_kmh must be > 0")
    if spec.sample_interval_s < 1:
        raise ValueError("sample_interval_s must be >= 1")
    for turn in spec.turns:
        if turn.duration_min < 1:
            raise ValueError("turns: duration_min must be >= 1")
    for name in ("longitude", "latitude", "altitude", "velocity", "heading"):
        if getattr(spec.noise, name) < 0:
            raise ValueError(f"noise.{name} must be >= 0")


def _phase_minutes(spec: FlightSpec) -> tuple[float, float, float]:
    takeoff = spec.cruise_altitude_m / spec.climb_rate_m_per_min if spec.include_takeoff else 0.0
    cruise_alt_end = spec.cruise_altitude_m - (spec.drop.drop_m if spec.drop else 0.0)
    landing = cruise_alt_end / spec.descent_rate_m_per_min if spec.include_landing else 0.0
    return takeoff, spec.cruise_duration_min, landing


def _heading_at(spec: FlightSpec, minute: float) -> float:
    heading = spec.initial_heading
    for turn in spec.turns:
        progress = min(max((minute - turn.minute) / turn.duration_min, 0.0), 1.0)
        heading += turn.delta_deg * progress
    heading %= 360.0
    return 0.0 if heading >= 360.0 else heading


def _altitude_at(spec: FlightSpec, minute: float) -> float:
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


def _speed_at(spec: FlightSpec, minute: float) -> float:
    takeoff, cruise, landing = _phase_minutes(spec)
    if minute < takeoff:
        return TAKEOFF_SPEED_KMH + (spec.cruise_speed_kmh - TAKEOFF_SPEED_KMH) * minute / takeoff
    if minute < takeoff + cruise or landing == 0.0:
        return spec.cruise_speed_kmh
    progress = min((minute - takeoff - cruise) / landing, 1.0)
    return spec.cruise_speed_kmh + (LANDING_SPEED_KMH - spec.cruise_speed_kmh) * progress


def generate_flight(spec: FlightSpec) -> list[RawRecord]:
    """Simulate one flight and emit raw records at the sample interval.

    The emitted values are the closed-form state plus seeded Gaussian
    noise, lightly clamped so every record stays inside the valid
    attribute boxes (heading wraps, velocity floors at zero).
    """
    validate_spec(spec)
    rng = np.random.default_rng(spec.seed)
    takeoff, cruise, landing = _phase_minutes(spec)
    total_s = int(round((takeoff + cruise + landing) * 60.0))
    dt = spec.sample_interval_s

    values = []
    lon, lat = spec.origin_longitude, spec.origin_latitude
    for t_s in range(0, total_s + 1, dt):
        minute = t_s / 60.0
        alt = _altitude_at(spec, minute)
        speed = _speed_at(spec, minute)
        heading = _heading_at(spec, minute)

        noise = rng.normal(0.0, 1.0, size=5)
        out_lon = float(min(max(lon + noise[0] * spec.noise.longitude, -180.0), 180.0))
        out_lat = float(min(max(lat + noise[1] * spec.noise.latitude, -90.0), 90.0))
        out_alt = float(max(alt + noise[2] * spec.noise.altitude, -500.0))
        out_vel = float(max(speed + noise[3] * spec.noise.velocity, 0.0))
        out_hdg = float((heading + noise[4] * spec.noise.heading) % 360.0)
        if out_hdg >= 360.0:
            out_hdg = 0.0
        values.append((out_lon, out_lat, out_alt, out_vel, out_hdg))
        # Advance the true position with the shared motion rule.
        lon, lat, _ = kinematic_step(lon, lat, alt, speed, heading, dt)

    timestamps = np.arange(spec.start_timestamp, spec.start_timestamp + total_s + 1, dt, dtype=np.int64)
    utc_times = _utc_texts(timestamps).tolist()
    return [RawRecord(t, u, spec.callsign, *v) for t, u, v in zip(timestamps.tolist(), utc_times, values)]


def generate_corpus(count: int, base_seed: int) -> tuple[list[RawRecord], list[FlightSpec]]:
    """Randomized flights with per-flight seeds base_seed + i.

    Spec parameters are drawn inside realistic airliner envelopes from an
    independent stream per flight; the returned spec list is the manifest
    and regenerating from it reproduces the corpus byte for byte.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    records: list[RawRecord] = []
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
        records.extend(generate_flight(spec))
    return records, specs


# --- Manifest I/O ------------------------------------------------------------


def spec_to_dict(spec: FlightSpec) -> dict:
    return asdict(spec)


def spec_from_dict(obj: dict) -> FlightSpec:
    obj = dict(obj)
    obj["turns"] = tuple(TurnEvent(**t) for t in obj.get("turns", ()))
    obj["drop"] = DropEvent(**obj["drop"]) if obj.get("drop") else None
    obj["noise"] = NoiseStd(**obj.get("noise", {}))
    return FlightSpec(**obj)


def write_manifest(specs: list[FlightSpec], path: str | Path) -> None:
    payload = json.dumps([spec_to_dict(s) for s in specs], indent=2, sort_keys=True)
    Path(path).write_text(payload + "\n", encoding="utf-8")


def read_manifest(path: str | Path) -> list[FlightSpec]:
    return [spec_from_dict(obj) for obj in json.loads(Path(path).read_text(encoding="utf-8"))]
