"""Core value types shared across the pipeline.

Waypoints and trajectories are immutable values: safe to copy, hash, and
share between threads. Validation never raises; it returns a verdict so
that dirty upstream data can be counted instead of crashing the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum

import numpy as np

#: Attribute order used everywhere a waypoint becomes a vector or a tuple.
ATTRIBUTES = ("longitude", "latitude", "altitude", "velocity", "heading")

#: Canonical decimal places per attribute, in ATTRIBUTES order.
CANONICAL_DECIMALS = (5, 5, 3, 3, 2)

LONGITUDE_RANGE = (-180.0, 180.0)
LATITUDE_RANGE = (-90.0, 90.0)
MIN_ALTITUDE_M = -500.0  # admits below-sea-level airports
#: Unix timestamps datetime can render: 0001-01-01 00:00:00 to 9999-12-31 23:59:59 UTC.
TIMESTAMP_RANGE = (-62_135_596_800, 253_402_300_799)


@dataclass(frozen=True)
class Waypoint:
    """One timestamped aircraft state sample.

    Units: longitude/latitude in degrees, altitude in meters, velocity in
    kilometers per hour, heading in degrees clockwise from north, [0, 360).
    Construction does not validate; see :func:`validate_waypoint`.
    """

    timestamp: int
    longitude: float
    latitude: float
    altitude: float
    velocity: float
    heading: float

    def values(self) -> tuple[float, float, float, float, float]:
        """Attribute values in canonical order (no timestamp)."""
        return (self.longitude, self.latitude, self.altitude, self.velocity, self.heading)


@dataclass(frozen=True)
class Trajectory:
    """Ordered waypoint sequence for one callsign."""

    callsign: str
    waypoints: tuple[Waypoint, ...]

    def __len__(self) -> int:
        return len(self.waypoints)


class PhaseLabel(Enum):
    TAKE_OFF = "take-off"
    CRUISE = "cruise"
    LANDING = "landing"


@dataclass(frozen=True)
class Validity:
    """Verdict of a waypoint check; falsy when invalid."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


VALID = Validity(True)


#: What validate_waypoint reports, in the order its checks run.
INVALID_REASONS = (
    "timestamp out of range",
    "longitude out of range",
    "latitude out of range",
    "altitude out of range",
    "velocity out of range",
    "heading out of range",
)


def validate_columns(timestamp: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Check waypoint columns against the attribute bounds.

    ``timestamp`` has one entry per waypoint and ``values`` one row per
    attribute, in ATTRIBUTES order. Returns 0 where a waypoint is valid,
    else 1 + the index in INVALID_REASONS of its first violated bound. NaN
    fails every range test, and altitude and velocity must be finite.
    """
    longitude, latitude, altitude, velocity, heading = values
    failed = (
        ~((TIMESTAMP_RANGE[0] <= timestamp) & (timestamp <= TIMESTAMP_RANGE[1])),
        ~((LONGITUDE_RANGE[0] <= longitude) & (longitude <= LONGITUDE_RANGE[1])),
        ~((LATITUDE_RANGE[0] <= latitude) & (latitude <= LATITUDE_RANGE[1])),
        ~((MIN_ALTITUDE_M <= altitude) & (altitude < math.inf)),
        ~((0.0 <= velocity) & (velocity < math.inf)),
        ~((0.0 <= heading) & (heading < 360.0)),
    )
    reason = np.zeros(len(timestamp), dtype=np.int8)
    for code in range(len(failed), 0, -1):  # the earliest check is written last
        reason[failed[code - 1]] = code
    return reason


def validate_waypoint(w: Waypoint) -> Validity:
    """Check a waypoint against the attribute bounds.

    Returns ``Validity(True)`` or the first violated bound, checked in
    field order (timestamp first); see :func:`validate_columns`.
    """
    timestamp = np.array([w.timestamp], dtype=object)
    code = validate_columns(timestamp, np.array(w.values(), dtype=np.float64).reshape(5, 1))[0]
    return Validity(False, INVALID_REASONS[code - 1]) if code else VALID


# Powers of ten that round_value scales by; each one is an exact double.
_SCALES = tuple(float(10**d) for d in range(16))
# Above this, |x|·10^d no longer has a fractional part to round.
_FAST_LIMIT = 2.0**52


def round_value(value: float, decimals: int) -> float:
    """Round half away from zero at the given decimal count.

    Rounding is applied to the shortest decimal representation of the
    float, so ``round_value(125.005, 2) == 125.01`` even though the
    nearest double to 125.005 is slightly below it.

    With ``m = floor(|x|·10^d)``, a value that is not the double nearest
    the tie ``(m + 1/2)/10^d`` has its shortest repr on the same side of
    the tie, so comparing against that double decides the rounding
    exactly, and ``n/10^d`` is the correctly rounded value of the decimal
    result. The ``Decimal`` rule runs only where that argument does not
    reach: exact ties, ``decimals`` outside 0..15, ``|x|·10^d >= 2^52``
    and non-finite input (NaN stays NaN; infinity raises
    ``decimal.InvalidOperation``).
    """
    x = float(value)
    if 0 <= decimals <= 15:
        scale = _SCALES[decimals]
        magnitude = abs(x)
        scaled = magnitude * scale
        if scaled < _FAST_LIMIT:  # false for NaN and infinity
            m = int(scaled)
            tie = (2 * m + 1) / (2 * scale)
            if magnitude != tie:
                return math.copysign((m + (magnitude > tie)) / scale, x)
    quantum = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(x)).quantize(quantum, rounding=ROUND_HALF_UP))


def round_values(values: np.ndarray, decimals: int) -> np.ndarray:
    """Column form of :func:`round_value`: the same double for every element.

    The exact float rule runs on the whole array. Only the elements it
    does not reach (exact ties, ``|x|·10^d >= 2^52``, non-finite input, or
    any ``decimals`` outside 0..15) go through ``round_value`` one by one.
    """
    x = np.asarray(values, dtype=np.float64)
    if not 0 <= decimals <= 15:
        return np.array([round_value(v, decimals) for v in x.flat]).reshape(x.shape)
    scale = _SCALES[decimals]
    magnitude = np.abs(x)
    with np.errstate(over="ignore"):
        scaled = magnitude * scale
    fast = scaled < _FAST_LIMIT  # false for NaN and infinity
    m = np.floor(np.where(fast, scaled, 0.0))
    tie = (2.0 * m + 1.0) / (2.0 * scale)
    fast &= magnitude != tie
    out = np.copysign((m + (magnitude > tie)) / scale, x)
    for i in np.flatnonzero(~fast):
        out.flat[i] = round_value(x.flat[i], decimals)
    return out


def round_attributes(values: np.ndarray) -> np.ndarray:
    """Round attribute rows (ATTRIBUTES order) as round_waypoint rounds one waypoint."""
    out = np.array([round_values(row, d) for row, d in zip(values, CANONICAL_DECIMALS)])
    heading = out[4]
    heading[heading >= 360.0] = 0.0  # wraps inside out, as round_waypoint does
    return out


def round_waypoint(w: Waypoint) -> Waypoint:
    """Round a valid waypoint to canonical precision (5/5/3/3/2 decimals).

    The timestamp is unchanged. A heading that rounds up to exactly 360
    wraps to 0 so the result stays inside [0, 360).
    """
    heading = round_value(w.heading, 2)
    if heading >= 360.0:
        heading = 0.0
    return Waypoint(
        w.timestamp,
        round_value(w.longitude, 5),
        round_value(w.latitude, 5),
        round_value(w.altitude, 3),
        round_value(w.velocity, 3),
        heading,
    )


def circular_mean(angles: list[float]) -> float:
    """Mean of angles in degrees, wrap-aware, result in [0, 360).

    Uses the direction of the summed unit vectors, so [350, 10] averages
    to 0 rather than 180. A single angle is returned unchanged (modulo
    360), avoiding any trig round-off.
    """
    if not angles:
        raise ValueError("circular_mean: empty input")
    if len(angles) == 1:
        mean = angles[0] % 360.0
    else:
        sin_sum = sum(math.sin(math.radians(a)) for a in angles)
        cos_sum = sum(math.cos(math.radians(a)) for a in angles)
        mean = math.degrees(math.atan2(sin_sum, cos_sum)) % 360.0
    # Guard the pathological float case where x % 360.0 returns 360.0.
    return 0.0 if mean >= 360.0 else mean
