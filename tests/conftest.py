"""Shared builders for randomized, seeded test data."""

from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest
from hypothesis import settings

from flightcast.domain import Trajectory, Waypoint, round_waypoint
from flightcast.windowing import INPUT_LENGTH, Window

# Properties draw the same examples on every run and never time out, so a
# slow or loaded machine cannot make them flaky.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def decimal_round_value(value: float, decimals: int) -> float:
    """Bit-exact oracle for ``domain.round_value``: half away from zero on the repr."""
    quantum = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(float(value))).quantize(quantum, rounding=ROUND_HALF_UP))


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
