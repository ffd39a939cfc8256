"""Persistence and flat-earth kinematic extrapolation.

The kinematic step here is the single motion rule of the project, in two
forms: :func:`kinematic_step` advances one position (the predictor
extrapolates with it) and :func:`kinematic_track` runs a whole sequence of
steps at once (the synthetic flight generator advances aircraft with it).
Both evaluate the same formula with the same ``math`` trigonometry, so
the track equals iterated steps bit for bit, and "dead reckoning is exact
on a noise-free straight flight" is a checkable identity rather than a
hope.
"""

from __future__ import annotations

import math

import numpy as np

from ..windowing import INPUT_LENGTH, STEP_SECONDS, Window

#: Kilometers per degree of latitude (and of longitude at the equator).
KM_PER_DEGREE = 111.32

#: Above this absolute latitude the longitude step degenerates.
POLAR_LATITUDE_LIMIT = 89.9


def _polar_error(latitude: float) -> ValueError:
    return ValueError(f"polar singularity: latitude {latitude} too close to a pole")


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
        raise _polar_error(latitude)
    distance_km = speed_kmh * dt_s / 3600.0
    heading_rad = math.radians(heading_deg)
    dlat = distance_km * math.cos(heading_rad) / KM_PER_DEGREE
    dlon = distance_km * math.sin(heading_rad) / (KM_PER_DEGREE * math.cos(math.radians(latitude)))
    dalt = vertical_rate_m_per_min * dt_s / 60.0
    return longitude + dlon, latitude + dlat, altitude + dalt


def kinematic_track(
    longitude: float,
    latitude: float,
    speed_kmh: np.ndarray,
    heading_deg: np.ndarray,
    dt_s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Longitudes and latitudes of ``len(speed_kmh)`` chained kinematic steps.

    Step k flies dt seconds at ``speed_kmh[k]`` and ``heading_deg[k]``; the
    k-th entry of each returned array (n + 1 long) is where step k starts,
    the last where the final step ends. Each entry is what iterating
    :func:`kinematic_step` from (longitude, latitude) gives, bit for bit:
    the same operations in the same order, ``math`` sine and cosine, and
    positions accumulated left to right. Raises the same ValueError for the
    first step that starts too close to a pole.
    """
    distance_km = speed_kmh * dt_s / 3600.0
    heading_rad = np.radians(heading_deg).tolist()
    dlat = distance_km * np.array(list(map(math.cos, heading_rad))) / KM_PER_DEGREE
    lat = np.cumsum(np.concatenate(([latitude], dlat)))
    polar = np.flatnonzero(np.abs(lat[:-1]) >= POLAR_LATITUDE_LIMIT)
    if polar.size:
        first = int(polar[0])
        raise _polar_error(latitude if first == 0 else float(lat[first]))
    cos_lat = np.array(list(map(math.cos, np.radians(lat[:-1]).tolist())))
    dlon = distance_km * np.array(list(map(math.sin, heading_rad))) / (KM_PER_DEGREE * cos_lat)
    return np.cumsum(np.concatenate(([longitude], dlon))), lat


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
