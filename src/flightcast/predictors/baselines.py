"""Persistence and flat-earth kinematic extrapolation.

The kinematic step here is the single motion rule of the project: the
synthetic flight generator advances aircraft with the same function the
predictor extrapolates with, which makes "dead reckoning is exact on a
noise-free straight flight" a checkable identity rather than a hope.
"""

from __future__ import annotations

import math

import numpy as np

from ..windowing import INPUT_LENGTH, STEP_SECONDS, Window

#: Kilometers per degree of latitude (and of longitude at the equator).
KM_PER_DEGREE = 111.32

#: Above this absolute latitude the longitude step degenerates.
POLAR_LATITUDE_LIMIT = 89.9


def kinematic_step(
    longitude: float,
    latitude: float,
    altitude: float,
    speed_kmh: float,
    heading_deg: float,
    dt_s: float,
    vertical_rate_m_per_min: float = 0.0,
) -> tuple[float, float, float]:
    """Advance a position by dt seconds of constant-velocity flight.

    Flat-earth geometry with heading measured clockwise from north:
    the north displacement maps to latitude directly, the east
    displacement is inflated by 1/cos(latitude). Good to well under a
    meter for the sub-minute steps used here.
    """
    if abs(latitude) >= POLAR_LATITUDE_LIMIT:
        raise ValueError(f"polar singularity: latitude {latitude} too close to a pole")
    distance_km = speed_kmh * dt_s / 3600.0
    heading_rad = math.radians(heading_deg)
    dlat = distance_km * math.cos(heading_rad) / KM_PER_DEGREE
    dlon = distance_km * math.sin(heading_rad) / (KM_PER_DEGREE * math.cos(math.radians(latitude)))
    dalt = vertical_rate_m_per_min * dt_s / 60.0
    return longitude + dlon, latitude + dlat, altitude + dalt


def predict_persistence(window: Window, horizon: int) -> np.ndarray:
    """Repeat the last observed row: a (5, horizon) block in ATTRIBUTES order."""
    return np.repeat(window.values[:, INPUT_LENGTH - 1 : INPUT_LENGTH], horizon, axis=1)


def predict_kinematic(window: Window, horizon: int) -> np.ndarray:
    """Dead-reckon the next ``horizon`` rows from the last two observed positions.

    Ground speed and track are derived from the displacement between the
    last two input rows (so a stationary aircraft stays put, whatever its
    reported velocity), altitude advances by the last observed per-minute
    delta, and the reported velocity and heading attributes are held
    constant. Returns a (5, horizon) block in ATTRIBUTES order. Raises near
    the poles where the step rule degenerates.
    """
    prev, last = window.values[:, INPUT_LENGTH - 2 : INPUT_LENGTH].T.tolist()
    north_km = (last[1] - prev[1]) * KM_PER_DEGREE
    east_km = (last[0] - prev[0]) * KM_PER_DEGREE * math.cos(math.radians(prev[1]))
    speed_kmh = math.hypot(east_km, north_km) * 60.0
    track_deg = math.degrees(math.atan2(east_km, north_km)) % 360.0
    vertical_rate = last[2] - prev[2]  # meters per minute

    lon, lat, alt, velocity, heading = last
    out = np.empty((len(last), horizon))
    for step in range(horizon):
        lon, lat, alt = kinematic_step(lon, lat, alt, speed_kmh, track_deg, STEP_SECONDS, vertical_rate)
        out[:, step] = lon, lat, alt, velocity, heading
    return out
