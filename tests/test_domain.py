import math
import struct
from decimal import InvalidOperation

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flightcast.domain import (
    INVALID_REASONS,
    Waypoint,
    circular_mean,
    round_attributes,
    round_value,
    round_values,
    round_waypoint,
    validate_columns,
    validate_waypoint,
)

from conftest import decimal_round_value, make_waypoint, random_canonical_waypoint, reference_invalid_reason


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
            ("altitude", math.inf, False),
            ("velocity", math.inf, False),
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


def rounding_inputs(decimals: int):
    """Doubles that stress the rounding rule at ``decimals`` places."""
    tie = st.integers(0, 2**52).map(lambda k: (2 * k + 1) / (2 * 10.0**decimals))
    return st.one_of(
        st.floats(allow_infinity=False),
        tie,
        tie.map(lambda t: math.nextafter(t, 0.0)),
        tie.map(lambda t: math.nextafter(t, math.inf)),
        st.floats(1.0, 2.0**12).map(lambda f: f * 2.0**52 / 10.0**decimals),
        st.sampled_from((0.0, -0.0, 5e-324, math.nan)),
    ).flatmap(lambda v: st.sampled_from((v, -v)))


def scalar_rounding(values: list[float], decimals: int) -> list[float] | None:
    """round_value on each element, or None where one of them raises."""
    try:
        return [round_value(v, decimals) for v in values]
    except InvalidOperation:
        return None


class TestRoundValuesMatchesRoundValue:
    @given(
        st.sampled_from((-1, 0, 2, 3, 5, 15, 16)).flatmap(
            lambda d: st.tuples(st.just(d), st.lists(rounding_inputs(d), max_size=16))
        )
    )
    def test_elementwise_and_bitwise(self, case):
        decimals, values = case
        want = scalar_rounding(values, decimals)
        if want is None:
            with pytest.raises(InvalidOperation):
                round_values(np.array(values), decimals)
            return
        got = round_values(np.array(values, dtype=np.float64), decimals)
        assert [bits(v) for v in got.tolist()] == [bits(v) for v in want]

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinity_raises(self, value):
        with pytest.raises(InvalidOperation):
            round_values(np.array([1.5, value]), 2)

    @given(
        st.lists(
            st.builds(
                Waypoint,
                timestamp=st.just(0),
                longitude=rounding_inputs(5),
                latitude=rounding_inputs(5),
                altitude=rounding_inputs(3),
                velocity=rounding_inputs(3),
                heading=st.one_of(
                    st.floats(0.0, 360.0, exclude_max=True),
                    st.sampled_from((359.995, math.nextafter(360.0, 0.0), 359.994999, 0.0)),
                ),
            ),
            max_size=12,
        )
    )
    def test_round_attributes_is_round_waypoint(self, waypoints):
        try:
            want = [round_waypoint(w) for w in waypoints]
        except InvalidOperation:
            return
        got = round_attributes(np.array([w.values() for w in waypoints]).reshape(-1, 5).T)
        assert [[bits(v) for v in w.values()] for w in want] == [[bits(v) for v in row] for row in got.T.tolist()]


class TestValidateColumns:
    @given(
        st.lists(
            st.builds(
                Waypoint,
                timestamp=st.one_of(st.integers(-(2**40), 2**40), st.sampled_from((-62_135_596_801, 253_402_300_800))),
                longitude=st.one_of(st.floats(), st.sampled_from((-180.0, 180.0))),
                latitude=st.one_of(st.floats(), st.sampled_from((-90.0, 90.0))),
                altitude=st.one_of(st.floats(), st.sampled_from((-500.0, math.inf))),
                velocity=st.one_of(st.floats(), st.sampled_from((0.0, -0.0, math.inf))),
                heading=st.one_of(st.floats(), st.sampled_from((0.0, 360.0, math.nextafter(360.0, 0.0)))),
            ),
            max_size=12,
        )
    )
    def test_matches_per_waypoint_checks(self, waypoints):
        codes = validate_columns(
            np.array([w.timestamp for w in waypoints], dtype=np.int64),
            np.array([w.values() for w in waypoints]).reshape(-1, 5).T,
        )
        assert [INVALID_REASONS[c - 1] if c else None for c in codes.tolist()] == [
            reference_invalid_reason(w) for w in waypoints
        ]
        assert [validate_waypoint(w).reason for w in waypoints] == [reference_invalid_reason(w) for w in waypoints]
