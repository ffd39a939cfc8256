"""Persistence and flat-earth kinematic extrapolation.

:func:`kinematic_track` is the single motion rule of the project: the
synthetic flight generator advances aircraft with it and the kinematic
predictor extrapolates with it, so "dead reckoning is exact on a
noise-free straight flight" is a checkable identity rather than a hope.
Both forecasters take a stack of windows' input columns and forecast
every window in one call.
"""

from __future__ import annotations

import math

import numpy as np

from ..windowing import INPUT_LENGTH, STEP_SECONDS

#: Kilometers per degree of latitude (and of longitude at the equator).
KM_PER_DEGREE = 111.32

#: Above this absolute latitude the longitude step degenerates.
POLAR_LATITUDE_LIMIT = 89.9


def _map(function, values: np.ndarray) -> np.ndarray:
    """``function`` (a ``math`` one) applied to every element, in the shape of ``values``."""
    return np.array(list(map(function, values.ravel().tolist()))).reshape(values.shape)


def kinematic_track(longitude, latitude, speed_kmh: np.ndarray, heading_deg: np.ndarray,
                    dt_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Longitudes and latitudes of chained constant-velocity steps.

    ``longitude`` and ``latitude`` are start positions with any leading
    shape; ``speed_kmh`` and ``heading_deg`` have that shape plus one last
    axis of steps. Step k flies dt seconds at ``speed_kmh[..., k]`` and
    ``heading_deg[..., k]`` (clockwise from north) in flat-earth geometry:
    the north displacement maps to latitude directly, the east
    displacement is inflated by 1/cos(latitude). Entry k of each returned
    array's last axis (one longer than the steps) is where step k starts,
    the last entry where the final step ends. ``math`` sine and cosine and
    positions accumulated left to right keep every entry bit-stable.

    Raises ValueError for the first track (in C order) with a step that
    starts too close to a pole, naming that step's latitude; a start
    latitude is named as given.
    """
    distance_km = speed_kmh * dt_s / 3600.0
    heading_rad = np.radians(heading_deg)
    lat0 = np.broadcast_to(latitude, distance_km.shape[:-1])
    dlat = distance_km * _map(math.cos, heading_rad) / KM_PER_DEGREE
    lat = np.cumsum(np.concatenate((lat0[..., None], dlat), axis=-1), axis=-1)
    polar = np.abs(lat[..., :-1]) >= POLAR_LATITUDE_LIMIT
    if polar.any():
        first = np.unravel_index(polar.argmax(), polar.shape)
        named = lat0[first[:-1]] if first[-1] == 0 else float(lat[first])
        raise ValueError(f"polar singularity: latitude {named} too close to a pole")
    cos_lat = _map(math.cos, np.radians(lat[..., :-1]))
    dlon = distance_km * _map(math.sin, heading_rad) / (KM_PER_DEGREE * cos_lat)
    lon0 = np.broadcast_to(longitude, distance_km.shape[:-1])
    return np.cumsum(np.concatenate((lon0[..., None], dlon), axis=-1), axis=-1), lat


def predict_persistence(inputs: np.ndarray, horizon: int) -> np.ndarray:
    """Repeat each window's last observed row.

    ``inputs`` is an (n, 5, 16) stack of windows' input columns in
    ATTRIBUTES order; returns the (n, 5, horizon) forecasts.
    """
    return np.repeat(inputs[..., INPUT_LENGTH - 1 : INPUT_LENGTH], horizon, axis=-1)


def predict_kinematic(inputs: np.ndarray, horizon: int) -> np.ndarray:
    """Dead-reckon each window's next ``horizon`` rows from its last two observed positions.

    ``inputs`` is an (n, 5, 16) stack of windows' input columns in
    ATTRIBUTES order; returns the (n, 5, horizon) forecasts. Ground speed
    and track are derived from the displacement between the last two input
    rows (so a stationary aircraft stays put, whatever its reported
    velocity), altitude advances by the last observed per-minute delta,
    and the reported velocity and heading attributes are held constant.
    Raises for the first window whose track comes too close to a pole,
    where the step rule degenerates.
    """
    prev, last = inputs[..., INPUT_LENGTH - 2], inputs[..., INPUT_LENGTH - 1]
    north_km = (last[:, 1] - prev[:, 1]) * KM_PER_DEGREE
    east_km = (last[:, 0] - prev[:, 0]) * KM_PER_DEGREE * _map(math.cos, np.radians(prev[:, 1]))
    speed_kmh = np.array(list(map(math.hypot, east_km.tolist(), north_km.tolist()))) * 60.0
    track_rad = np.array(list(map(math.atan2, east_km.tolist(), north_km.tolist())))
    steps = (len(inputs), horizon)
    lon, lat = kinematic_track(
        last[:, 0], last[:, 1],
        np.broadcast_to(speed_kmh[:, None], steps),
        np.broadcast_to((np.degrees(track_rad) % 360.0)[:, None], steps),
        STEP_SECONDS,
    )
    climb = (last[:, 2] - prev[:, 2]) * STEP_SECONDS / 60.0  # meters per step, from the last per-minute delta
    alt = np.cumsum(np.concatenate((last[:, 2:3], np.broadcast_to(climb[:, None], steps)), axis=-1), axis=-1)
    out = predict_persistence(inputs, horizon)
    out[:, 0], out[:, 1], out[:, 2] = lon[:, 1:], lat[:, 1:], alt[:, 1:]
    return out
