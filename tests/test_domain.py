import math
import struct
from decimal import InvalidOperation

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flightcast.domain import (
    Waypoint,
    circular_mean,
    round_value,
    round_waypoint,
    validate_waypoint,
)

from conftest import decimal_round_value, make_waypoint, random_canonical_waypoint


class TestValidateWaypoint:
    def test_out_of_range_latitude(self):
        verdict = validate_waypoint(make_waypoint(latitude=91.0))
        assert not verdict
        assert "latitude" in verdict.reason

    def test_all_zero_waypoint_is_valid(self):
        assert validate_waypoint(make_waypoint())

    def test_heading_360_is_rejected(self):
        verdict = validate_waypoint(make_waypoint(heading=360.0))
        assert not verdict
        assert "heading" in verdict.reason

    @pytest.mark.parametrize(
        "field,value,ok",
        [
            ("timestamp", -62_135_596_800, True),  # 0001-01-01 00:00:00 UTC
            ("timestamp", -62_135_596_801, False),
            ("timestamp", 253_402_300_799, True),  # 9999-12-31 23:59:59 UTC
            ("timestamp", 253_402_300_800, False),
            ("longitude", -180.0, True),
            ("longitude", 180.0, True),
            ("longitude", 180.00001, False),
            ("longitude", -180.00001, False),
            ("latitude", 90.0, True),
            ("latitude", -90.0, True),
            ("latitude", -90.00001, False),
            ("altitude", -500.0, True),
            ("altitude", -500.001, False),
            ("velocity", 0.0, True),
            ("velocity", -0.001, False),
            ("heading", 0.0, True),
            ("heading", 359.99, True),
            ("heading", -0.01, False),
        ],
    )
    def test_bound_boundaries(self, field, value, ok):
        verdict = validate_waypoint(make_waypoint(**{field: value}))
        assert bool(verdict) == ok
        if not ok:
            assert field in verdict.reason

    def test_nan_field_is_invalid(self):
        verdict = validate_waypoint(make_waypoint(longitude=float("nan")))
        assert not verdict
        assert "longitude" in verdict.reason

    def test_accepts_exactly_the_box(self, rng):
        # Inside points pass; pushing any single field just past its bound fails
        # and names that field.
        for _ in range(200):
            w = random_canonical_waypoint(rng, 0)
            assert validate_waypoint(w)
        bad = {
            "longitude": 180.1,
            "latitude": -90.1,
            "altitude": -500.1,
            "velocity": -1.0,
            "heading": 360.0,
        }
        for field, value in bad.items():
            verdict = validate_waypoint(make_waypoint(**{field: value}))
            assert not verdict and field in verdict.reason


class TestRoundWaypoint:
    def test_longitude_five_decimals(self):
        w = round_waypoint(make_waypoint(longitude=13.611841))
        assert w.longitude == 13.61184

    def test_altitude_already_at_precision(self):
        w = round_waypoint(make_waypoint(altitude=10058.4))
        assert w.altitude == 10058.4

    def test_heading_half_away_from_zero(self):
        w = round_waypoint(make_waypoint(heading=125.005))
        assert w.heading == 125.01

    def test_timestamp_unchanged(self):
        w = round_waypoint(make_waypoint(timestamp=1727926166, longitude=1.23456789))
        assert w.timestamp == 1727926166

    def test_heading_that_rounds_to_360_wraps_to_zero(self):
        w = round_waypoint(make_waypoint(heading=359.996))
        assert w.heading == 0.0

    def test_negative_value_rounds_away_from_zero(self):
        assert round_value(-125.005, 2) == -125.01

    def test_idempotent(self, rng):
        for _ in range(500):
            w = Waypoint(
                0,
                float(rng.uniform(-180, 180)),
                float(rng.uniform(-90, 90)),
                float(rng.uniform(-500, 20000)),
                float(rng.uniform(0, 1200)),
                float(rng.uniform(0, 360)),
            )
            once = round_waypoint(w)
            assert round_waypoint(once) == once


class TestCircularMean:
    def test_identical_inputs(self):
        assert circular_mean([90.0, 90.0]) == pytest.approx(90.0, abs=1e-9)

    def test_across_north(self):
        assert circular_mean([350.0, 10.0]) == pytest.approx(0.0, abs=1e-9)

    def test_quarter_turn(self):
        assert circular_mean([0.0, 90.0]) == pytest.approx(45.0, abs=1e-9)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            circular_mean([])

    def test_single_element_unchanged(self):
        assert circular_mean([123.456]) == 123.456

    def test_result_in_range(self, rng):
        for _ in range(300):
            angles = list(rng.uniform(0, 360, size=int(rng.integers(1, 8))))
            mean = circular_mean(angles)
            assert 0.0 <= mean < 360.0

    def test_rotation_equivariance(self, rng):
        for _ in range(200):
            angles = list(rng.uniform(0, 360, size=int(rng.integers(1, 6))))
            delta = float(rng.uniform(-720, 720))
            rotated = circular_mean([(a + delta) % 360.0 for a in angles])
            expected = (circular_mean(angles) + delta) % 360.0
            # Compare on the circle: 0 and 360 are the same direction.
            diff = abs(rotated - expected)
            assert min(diff, 360.0 - diff) < 1e-9


ROUNDING_DECIMALS = st.sampled_from((0, 2, 3, 5, 15))


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_matches_oracle(value: float, decimals: int) -> None:
    """round_value gives the oracle's double bit for bit, or raises as it does."""
    try:
        want = decimal_round_value(value, decimals)
    except InvalidOperation:
        with pytest.raises(InvalidOperation):
            round_value(value, decimals)
        return
    assert bits(round_value(value, decimals)) == bits(want), (value, decimals)


class TestRoundValueMatchesDecimalOracle:
    @given(st.floats(allow_nan=False, allow_infinity=False), ROUNDING_DECIMALS)
    def test_any_finite_double(self, value, decimals):
        assert_matches_oracle(value, decimals)

    @given(st.floats(-1e6, 1e6), ROUNDING_DECIMALS)
    def test_coordinate_scale_doubles(self, value, decimals):
        assert_matches_oracle(value, decimals)

    @given(st.integers(0, 2**52), ROUNDING_DECIMALS, st.booleans())
    def test_ties_and_their_neighbours(self, k, decimals, negative):
        tie = (2 * k + 1) / (2 * 10**decimals)
        for value in (tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf)):
            assert_matches_oracle(-value if negative else value, decimals)

    @given(st.floats(1.0, 2.0**12), ROUNDING_DECIMALS, st.booleans())
    def test_magnitudes_past_the_fast_range(self, factor, decimals, negative):
        value = factor * 2.0**52 / 10**decimals
        assert_matches_oracle(-value if negative else value, decimals)

    @pytest.mark.parametrize("decimals", [0, 2, 3, 5, 15])
    @pytest.mark.parametrize("value", [0.0, -0.0, -1e-9, 5e-324, -5e-324])
    def test_signed_zeros_and_tiny_values(self, value, decimals):
        assert_matches_oracle(value, decimals)

    def test_negative_value_rounding_to_zero_keeps_sign(self):
        assert bits(round_value(-0.001, 2)) == bits(-0.0)

    @pytest.mark.parametrize("decimals", [0, 2, 3, 5, 15])
    def test_nan_stays_nan(self, decimals):
        assert math.isnan(round_value(math.nan, decimals))

    @pytest.mark.parametrize("decimals", [0, 2, 3, 5, 15])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinity_raises(self, value, decimals):
        with pytest.raises(InvalidOperation):
            round_value(value, decimals)
