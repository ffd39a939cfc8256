"""Core value types and input rules shared across the pipeline.

Waypoints and trajectories are immutable values: safe to copy, hash, and
share between threads. ``validate_columns`` never raises; its verdicts let
dirty upstream data be counted instead of crashing the pipeline. The
``check_*`` rules raise ValueError naming the config, row or report field.
"""

from __future__ import annotations

import re
import sys
from dataclasses import FrozenInstanceError, dataclass
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
#: The decimal grammar of numbers in CSV cells and in completions: optional
#: sign, digits with an optional fraction or a bare fraction, no exponent.
#: The completion parser must accept what the CSV reader accepts.
DECIMAL_RE = re.compile(r"^[+-]?(?:\d+(?:\.\d*)?|\.\d+)$")
#: Unix timestamps datetime can render: 0001-01-01 00:00:00 to 9999-12-31 23:59:59 UTC.
TIMESTAMP_RANGE = (-62_135_596_800, 253_402_300_799)


@dataclass(frozen=True)
class Waypoint:
    """One timestamped aircraft state sample.

    Units: longitude/latitude in degrees, altitude in meters, velocity in
    kilometers per hour, heading in degrees clockwise from north, [0, 360).
    Construction does not validate; see :func:`validate_columns`.
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


class Trajectory:
    """Ordered waypoint sequence for one callsign, held as columns.

    ``timestamps`` is int64 with one entry per waypoint and ``values`` is
    float64 with one row per attribute, in ATTRIBUTES order; both are
    read-only, and they are all a trajectory stores. ``Trajectory(callsign,
    waypoints)`` converts a waypoint tuple into them, and ``waypoints``
    builds one from them on each access. Equality, hash and repr are those
    of the waypoint tuple: ``-0.0 == 0.0``, NaN equals nothing, and the repr
    is complete.
    """

    __slots__ = ("callsign", "timestamps", "values")

    def __init__(self, callsign: str, waypoints: tuple[Waypoint, ...]):
        timestamps = np.array([w.timestamp for w in waypoints], dtype=np.int64)
        values = np.array([w.values() for w in waypoints], dtype=np.float64).reshape(-1, len(ATTRIBUTES))
        self._init(callsign, timestamps, values.T)

    @classmethod
    def from_columns(cls, callsign: str, timestamps: np.ndarray, values: np.ndarray) -> Trajectory:
        """A trajectory over the given arrays, which are taken over (not copied) and set read-only."""
        traj = cls.__new__(cls)
        traj._init(callsign, np.asarray(timestamps, dtype=np.int64), np.asarray(values, dtype=np.float64))
        return traj

    def _init(self, callsign, timestamps, values) -> None:
        if values.shape != (len(ATTRIBUTES), len(timestamps)):
            raise ValueError(f"values of shape {values.shape} for {len(timestamps)} timestamps")
        timestamps.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "callsign", callsign)
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "values", values)

    @property
    def waypoints(self) -> tuple[Waypoint, ...]:
        return tuple(map(Waypoint, self.timestamps.tolist(), *self.values.tolist()))

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.callsign == other.callsign
            and np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        # Adding +0.0 turns -0.0 into 0.0, so equal trajectories hash alike.
        return hash((self.callsign, self.timestamps.tobytes(), (self.values + 0.0).tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(callsign={self.callsign!r}, waypoints={self.waypoints!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self).from_columns, (self.callsign, self.timestamps, self.values)


class PhaseLabel(Enum):
    TAKE_OFF = "take-off"
    CRUISE = "cruise"
    LANDING = "landing"


#: What validate_columns reports, in the order its checks run.
INVALID_REASONS = tuple(f"{name} out of range" for name in ("timestamp", *ATTRIBUTES))

_FLOAT_MAX = np.finfo(np.float64).max
#: Closed bounds of the attribute rows, in ATTRIBUTES order, as columns
#: that broadcast over a (5, n) block. An open bound is the nearest double
#: inside it: heading < 360 is the largest double below 360, and altitude
#: and velocity < inf the largest finite double.
_LOWER_BOUNDS = np.array([LONGITUDE_RANGE[0], LATITUDE_RANGE[0], MIN_ALTITUDE_M, 0.0, 0.0])[:, None]
_UPPER_BOUNDS = np.array(
    [LONGITUDE_RANGE[1], LATITUDE_RANGE[1], _FLOAT_MAX, _FLOAT_MAX, np.nextafter(360.0, 0.0)]
)[:, None]
#: The code of each check row validate_columns fills, then 0 for its last row, which no column passes.
_REASON_CODES = np.array([*range(1, len(INVALID_REASONS) + 1), 0], dtype=np.int8)


def validate_columns(timestamp: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Check waypoint columns against the attribute bounds.

    ``timestamp`` has one entry per waypoint and ``values`` one row per
    attribute, in ATTRIBUTES order. Returns 0 where a waypoint is valid,
    else 1 + the index in INVALID_REASONS of its first violated bound. NaN
    fails every range test, and altitude and velocity must be finite.
    """
    # One row per check, then a row that always fails; argmin finds the
    # first failed row. Timestamps are compared as given: an object-dtype
    # column holds ints too large for any numpy number.
    passed = np.zeros((len(INVALID_REASONS) + 1, len(timestamp)), dtype=bool)
    passed[0] = (TIMESTAMP_RANGE[0] <= timestamp) & (timestamp <= TIMESTAMP_RANGE[1])
    passed[1:-1] = (_LOWER_BOUNDS <= values) & (values <= _UPPER_BOUNDS)
    return _REASON_CODES[passed.argmin(axis=0)]


def check_number(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an int or float, not a bool, in 0..the largest double.
    An int is compared exactly, so one past the double range fails; NaN fails every comparison."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= sys.float_info.max:
        raise ValueError(f"{name} {value!r} is not a finite number >= 0")


def check_integer(name: str, value, low: int = 0) -> None:
    """Raise ValueError unless ``value`` is an int, not a bool, and at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} {value!r} is not an integer >= {low}")


def check_object(name: str, value, *keys) -> dict:
    """Return ``value`` if it is a JSON object (a dict) holding every one of ``keys``, else raise ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} is not a JSON object (got {type(value).__name__})")
    missing = [key for key in keys if key not in value]
    if missing:
        raise ValueError(f"{name} lacks {', '.join(map(repr, missing))}")
    return value


def check_one_line(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a string without CR or LF."""
    if not isinstance(value, str):
        raise ValueError(f"{name} {value!r} is not a string")
    if "\r" in value or "\n" in value:
        raise ValueError(f"{name} {value!r} is not one line of text")


# Powers of ten that round_values scales by; each one is an exact double.
_SCALES = np.array([float(10**d) for d in range(16)])
# Above this, |x|·10^d no longer has a fractional part to round.
_FAST_LIMIT = 2.0**52
_TIE_LIMIT = 2.0**48  # below it an exact tie rounds up in numpy; see round_values
# Decimal counts of attribute rows, shaped to broadcast over a (5, n) block.
_ATTRIBUTE_DECIMALS = np.array(CANONICAL_DECIMALS)[:, None]


def round_value(value: float, decimals: int) -> float:
    """Round half away from zero at the given decimal count.

    Rounding is applied to the shortest decimal representation of the
    float, so ``round_value(125.005, 2) == 125.01`` even though the
    nearest double to 125.005 is slightly below it. NaN stays NaN;
    infinity raises ``decimal.InvalidOperation``.
    """
    quantum = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(float(value))).quantize(quantum, rounding=ROUND_HALF_UP))


def round_values(values: np.ndarray, decimals) -> np.ndarray:
    """Array form of :func:`round_value`: the same double for every element.

    ``decimals`` is an int or an integer array that broadcasts to the
    shape of ``values``, one decimal count per element. With
    ``m = floor(|x|·10^d)``, a value that is not the double nearest the
    tie ``T = (m + 1/2)/10^d`` has its shortest repr on the same side of
    the tie, so comparing against that double decides the rounding
    exactly, and ``n/10^d`` is the correctly rounded value of the decimal
    result. A value that is that double rounds to ``m + 1`` where
    ``m < 2^48``: there ``|x| < 2^48/10^d``, so doubles near x lie less
    than ``2^-4/10^d < 10^-(d+1)`` apart, no other decimal of d+1 places
    is within half that of x, and repr(x) is T's own text. Only the other
    elements (ties with ``m >= 2^48``, ``|x|·10^d >= 2^52``, non-finite
    input, or a decimal count outside 0..15) go through ``round_value``.
    """
    x = np.asarray(values, dtype=np.float64)
    d = np.asarray(decimals)
    in_range = (0 <= d) & (d <= 15)
    scale = _SCALES[np.where(in_range, d, 0)]
    # m and tie are the only value-sized buffers; |x| >= tie is x >= tie or x <= -tie.
    m = np.abs(x)
    with np.errstate(over="ignore"):
        m *= scale
    fast = in_range & (m < _FAST_LIMIT)  # false for NaN and infinity
    m[~fast] = 0.0
    np.floor(m, out=m)
    tie = 2.0 * m
    tie += 1.0
    tie /= 2.0 * scale
    above = x >= tie
    fast &= (x != tie) | (m < _TIE_LIMIT)
    np.negative(tie, out=tie)
    above |= x <= tie
    fast &= (x != tie) | (m < _TIE_LIMIT)
    m += above
    m /= scale
    out = np.copysign(m, x, out=m)
    d = np.broadcast_to(d, x.shape)
    for i in np.flatnonzero(~fast):
        out.flat[i] = round_value(x.flat[i], int(d.flat[i]))
    return out


def wrap_heading(degrees: np.ndarray) -> np.ndarray:
    """Angles in degrees taken into [0, 360), as a new array.

    A tiny negative angle such as -1e-20 comes out of ``% 360`` as exactly
    360, which wraps to 0. NaN stays NaN.
    """
    heading = np.remainder(degrees, 360.0)
    heading[heading >= 360.0] = 0.0
    return heading


def round_attributes(values: np.ndarray) -> np.ndarray:
    """Round blocks of attribute rows (ATTRIBUTES order) to canonical precision.

    ``values`` is a (5, n) block or a stack of them with any leading axes.
    The decimal counts are 5/5/3/3/2. A heading that rounds up to exactly
    360 wraps to 0 so the result stays inside [0, 360).
    """
    out = round_values(values, _ATTRIBUTE_DECIMALS)
    heading = out[..., 4, :]  # no wrap_heading: its remainder would turn a -0.0 heading into 0.0
    heading[heading >= 360.0] = 0.0
    return out
