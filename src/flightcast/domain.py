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


def validate_waypoint(w: Waypoint) -> Validity:
    """Check a waypoint against the attribute bounds.

    Returns ``Validity(True)`` or the first violated bound, checked in
    field order (timestamp first). NaN fails every range test, so a NaN
    field reports that field as out of range.
    """
    if not (TIMESTAMP_RANGE[0] <= w.timestamp <= TIMESTAMP_RANGE[1]):
        return Validity(False, "timestamp out of range")
    if not (LONGITUDE_RANGE[0] <= w.longitude <= LONGITUDE_RANGE[1]):
        return Validity(False, "longitude out of range")
    if not (LATITUDE_RANGE[0] <= w.latitude <= LATITUDE_RANGE[1]):
        return Validity(False, "latitude out of range")
    if not (w.altitude >= MIN_ALTITUDE_M):
        return Validity(False, "altitude out of range")
    if not (w.velocity >= 0.0):
        return Validity(False, "velocity out of range")
    if not (0.0 <= w.heading < 360.0):
        return Validity(False, "heading out of range")
    return VALID


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
