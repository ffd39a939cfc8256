import copy
import dataclasses
import math
import pickle
import re
import struct
import sys
from decimal import InvalidOperation

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flightcast.domain import (
    INVALID_REASONS,
    Trajectory,
    Waypoint,
    check_integer,
    check_number,
    check_one_line,
    round_attributes,
    round_value,
    round_values,
    validate_columns,
)

from flightcast.ingest import RawRecord, clean_trajectories

from conftest import (
    decimal_round_value,
    make_waypoint,
    minute_means,
    random_canonical_waypoint,
    records_table,
    reference_invalid_reason,
    reference_round_waypoint,
)


def invalid_reason(w: Waypoint) -> str | None:
    """What validate_columns says of one waypoint as a one-column array: its first violated bound, or None."""
    (code,) = validate_columns(np.array([w.timestamp]), np.array(w.values(), dtype=np.float64).reshape(5, 1))
    return INVALID_REASONS[code - 1] if code else None


class TestValidateWaypoint:
    def test_out_of_range_latitude(self):
        assert "latitude" in invalid_reason(make_waypoint(latitude=91.0))

    def test_all_zero_waypoint_is_valid(self):
        assert invalid_reason(make_waypoint()) is None

    def test_heading_360_is_rejected(self):
        assert "heading" in invalid_reason(make_waypoint(heading=360.0))

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
            ("altitude", sys.float_info.max, True),
            ("velocity", sys.float_info.max, True),
            ("heading", 0.0, True),
            ("heading", 359.99, True),
            ("heading", math.nextafter(360.0, 0.0), True),
            ("heading", -0.01, False),
        ],
    )
    def test_bound_boundaries(self, field, value, ok):
        reason = invalid_reason(make_waypoint(**{field: value}))
        assert (reason is None) == ok
        if not ok:
            assert field in reason

    def test_nan_field_is_invalid(self):
        assert "longitude" in invalid_reason(make_waypoint(longitude=float("nan")))

    def test_accepts_exactly_the_box(self, rng):
        # Inside points pass; pushing any single field just past its bound fails
        # and names that field.
        for _ in range(200):
            w = random_canonical_waypoint(rng, 0)
            assert invalid_reason(w) is None
        bad = {
            "longitude": 180.1,
            "latitude": -90.1,
            "altitude": -500.1,
            "velocity": -1.0,
            "heading": 360.0,
        }
        for field, value in bad.items():
            reason = invalid_reason(make_waypoint(**{field: value}))
            assert reason is not None and field in reason


def round_one(**fields) -> Waypoint:
    """round_attributes on the one-column block of a waypoint with these fields."""
    w = make_waypoint(**fields)
    return Waypoint(w.timestamp, *round_attributes(np.array(w.values())[:, None])[:, 0].tolist())


class TestRoundWaypoint:
    """round_attributes on a single waypoint's column."""

    def test_longitude_five_decimals(self):
        assert round_one(longitude=13.611841).longitude == 13.61184

    def test_altitude_already_at_precision(self):
        assert round_one(altitude=10058.4).altitude == 10058.4

    def test_heading_half_away_from_zero(self):
        assert round_one(heading=125.005).heading == 125.01

    def test_heading_that_rounds_to_360_wraps_to_zero(self):
        assert round_one(heading=359.996).heading == 0.0
        assert round_one(heading=359.995).heading == 0.0

    def test_negative_value_rounds_away_from_zero(self):
        assert round_value(-125.005, 2) == -125.01

    def test_idempotent(self, rng):
        low, high = [-180, -90, -500, 0, 0], [180, 90, 20000, 1200, 360]
        once = round_attributes(rng.uniform(low, high, size=(500, 5)).T)
        assert np.array_equal(round_attributes(once), once)


def heading_mean(angles: list[float]) -> float:
    """The heading minute_means gives one minute bucket holding these headings."""
    traj = Trajectory("H", tuple(make_waypoint(timestamp=i, heading=float(a)) for i, a in enumerate(angles)))
    ((_, values),) = minute_means(traj)
    return values[4]


class TestCircularMean:
    """The wrap-aware heading mean of a minute bucket."""

    def test_identical_inputs(self):
        assert heading_mean([90.0, 90.0]) == pytest.approx(90.0, abs=1e-9)

    def test_across_north(self):
        assert heading_mean([350.0, 10.0]) == pytest.approx(0.0, abs=1e-9)

    def test_quarter_turn(self):
        assert heading_mean([0.0, 90.0]) == pytest.approx(45.0, abs=1e-9)

    def test_single_element_unchanged(self):
        assert heading_mean([123.456]) == 123.456

    def test_result_in_range(self, rng):
        for _ in range(300):
            angles = list(rng.uniform(0, 360, size=int(rng.integers(1, 8))))
            mean = heading_mean(angles)
            assert 0.0 <= mean < 360.0

    def test_rotation_equivariance(self, rng):
        for _ in range(200):
            angles = list(rng.uniform(0, 360, size=int(rng.integers(1, 6))))
            delta = float(rng.uniform(-720, 720))
            rotated = heading_mean([(a + delta) % 360.0 for a in angles])
            expected = (heading_mean(angles) + delta) % 360.0
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

    @given(
        st.integers(0, 15).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.lists(
                    st.tuples(
                        st.one_of(
                            st.integers(0, 2**48 - 1),
                            st.integers(2**48, 2**52 - 1),
                            st.sampled_from((0, 1, 2**48 - 2, 2**48 - 1, 2**48, 2**48 + 1)),
                        ),
                        st.sampled_from((1.0, -1.0)),
                    ),
                    min_size=1,
                    max_size=16,
                ),
            )
        )
    )
    def test_exact_ties_on_both_sides_of_two_to_the_48(self, case):
        """An exact tie (2m+1)/(2·10^d) rounds as round_value does, whether numpy or Decimal settles it."""
        decimals, draws = case
        values = [sign * (2 * m + 1) / (2 * 10.0**decimals) for m, sign in draws]
        got = round_values(np.array(values), decimals)
        assert [bits(v) for v in got.tolist()] == [bits(round_value(v, decimals)) for v in values]
        assert [bits(v) for v in got.tolist()] == [bits(decimal_round_value(v, decimals)) for v in values]

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
            want = [reference_round_waypoint(w) for w in waypoints]
        except InvalidOperation:
            return
        got = round_attributes(np.array([w.values() for w in waypoints]).reshape(-1, 5).T)
        assert [[bits(v) for v in w.values()] for w in want] == [[bits(v) for v in row] for row in got.T.tolist()]

    @given(
        st.lists(st.sampled_from((-1, 0, 2, 3, 5, 15, 16)), min_size=1, max_size=5).flatmap(
            lambda ds: st.tuples(
                st.just(ds),
                st.integers(0, 6).flatmap(
                    lambda n: st.tuples(*(st.lists(rounding_inputs(d), min_size=n, max_size=n) for d in ds))
                ),
            )
        )
    )
    def test_broadcast_decimals_are_per_row_rounding(self, case):
        decimals, rows = case
        block = np.array(rows, dtype=np.float64).reshape(len(decimals), -1)
        try:
            want = [round_values(row, d) for row, d in zip(block, decimals)]
        except InvalidOperation:
            with pytest.raises(InvalidOperation):
                round_values(block, np.array(decimals)[:, None])
            return
        got = round_values(block, np.array(decimals)[:, None])
        assert [[bits(v) for v in row] for row in got.tolist()] == [[bits(v) for v in row.tolist()] for row in want]


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


def trajectory_pair(waypoints, callsign="T"):
    """The same content through both constructors."""
    by_waypoints = Trajectory(callsign, tuple(waypoints))
    timestamps = np.array([w.timestamp for w in waypoints], dtype=np.int64)
    values = np.array([w.values() for w in waypoints], dtype=np.float64).reshape(-1, 5).T.copy()
    return by_waypoints, Trajectory.from_columns(callsign, timestamps, values)


TRAJECTORY_WAYPOINTS = st.lists(
    st.builds(
        Waypoint,
        timestamp=st.integers(-(2**40), 2**40),
        longitude=st.sampled_from((0.0, -0.0, 1.5, -180.0)),
        latitude=st.sampled_from((0.0, -0.0, 45.25)),
        altitude=st.floats(allow_nan=False),
        velocity=st.sampled_from((0.0, 900.5)),
        heading=st.sampled_from((0.0, -0.0, 359.99)),
    ),
    max_size=8,
)


class TestTrajectory:
    @given(TRAJECTORY_WAYPOINTS)
    def test_both_constructors_give_the_same_value(self, waypoints):
        by_waypoints, by_columns = trajectory_pair(waypoints)
        assert by_waypoints == by_columns and by_columns == by_waypoints
        assert hash(by_waypoints) == hash(by_columns)
        assert repr(by_waypoints) == repr(by_columns)
        assert by_columns.waypoints == by_waypoints.waypoints
        assert len(by_columns) == len(by_waypoints) == len(waypoints)

    @given(TRAJECTORY_WAYPOINTS, TRAJECTORY_WAYPOINTS)
    def test_hash_agrees_with_equality(self, first, second):
        a, b = trajectory_pair(first)[1], Trajectory("T", tuple(second))
        assert (a == b) == (tuple(first) == tuple(second))
        if a == b:
            assert hash(a) == hash(b)

    def test_signed_zeros_are_equal_and_nan_equals_nothing(self):
        zero, negative_zero = make_waypoint(longitude=0.0), make_waypoint(longitude=-0.0)
        assert Trajectory("T", (zero,)) == Trajectory("T", (negative_zero,))
        assert hash(Trajectory("T", (zero,))) == hash(Trajectory("T", (negative_zero,)))
        nan = trajectory_pair([make_waypoint(heading=math.nan)])
        assert nan[0] != nan[1] and nan[1] != nan[1]
        assert Trajectory("T", (zero,)) != Trajectory("U", (zero,))
        assert Trajectory("T", (zero,)) != Trajectory("T", (zero, zero))
        assert Trajectory("T", (zero,)) != object() and Trajectory("T", (zero,)).__eq__(object()) is NotImplemented

    def test_waypoints_are_built_from_the_columns(self):
        waypoints = (Waypoint(60, 10, 20, 1000, 900, 90),)  # int-valued fields
        traj = Trajectory("T", waypoints)
        assert traj.values.dtype == np.float64 and traj.timestamps.dtype == np.int64
        assert traj.waypoints == waypoints
        assert [type(value) for value in dataclasses.astuple(traj.waypoints[0])] == [int] + [float] * 5
        assert "longitude=10.0," in repr(traj)

    def test_repr_is_complete_past_a_thousand_rows(self):
        waypoints = [make_waypoint(timestamp=60 * i, longitude=i / 1000) for i in range(1500)]
        for traj in trajectory_pair(waypoints):
            text = repr(traj)
            assert "..." not in text
            assert text == f"Trajectory(callsign='T', waypoints={tuple(waypoints)!r})"

    def test_columns_are_read_only(self):
        for traj in trajectory_pair([make_waypoint(timestamp=60 * i) for i in range(3)]):
            with pytest.raises(ValueError, match="read-only"):
                traj.timestamps[0] = 1
            with pytest.raises(ValueError, match="read-only"):
                traj.values[0, 0] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                traj.callsign = "U"
            with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'values'"):
                del traj.values

    def test_columns_of_cleaned_trajectories_are_read_only(self):
        records = [RawRecord(60 * i, "x", c, 1.0, 2.0, 3.0, 4.0, 5.0) for c in ("A", "B") for i in range(3)]
        trajectories = clean_trajectories(records_table(records)).trajectories
        assert [t.callsign for t in trajectories] == ["A", "B"]
        for traj in trajectories:
            with pytest.raises(ValueError, match="read-only"):
                traj.timestamps[0] = 1
            with pytest.raises(ValueError, match="read-only"):
                traj.values[:, 0] = 0.0

    def test_copy_and_pickle_keep_the_value(self):
        for traj in trajectory_pair([make_waypoint(timestamp=60 * i, heading=-0.0) for i in range(3)]):
            for twin in (copy.copy(traj), copy.deepcopy(traj), pickle.loads(pickle.dumps(traj))):
                assert twin == traj and repr(twin) == repr(traj)

    def test_columns_must_match_in_length(self):
        with pytest.raises(ValueError, match="shape"):
            Trajectory.from_columns("T", np.zeros(3, dtype=np.int64), np.zeros((5, 2)))


#: Values that neither check_number nor check_integer accepts.
REFUSED_BY_BOTH = (True, False, None, "1", math.nan, math.inf, -math.inf, -1, -0.5, [1])


class TestChecks:
    @pytest.mark.parametrize(
        "check, accepted, refused, rule",
        [
            (check_number, (0, 0.0, sys.float_info.max, 10**300, np.float64(1.5)), (10**400, np.int64(3)),
             "is not a finite number >= 0"),
            (check_integer, (0, 7, 10**300, 10**400), (0.0, 1.0, sys.float_info.max, np.float64(1.5), np.int64(3), "3"),
             "is not an integer >= 0"),
        ],
        ids=["check_number", "check_integer"],
    )
    def test_accepts_and_refuses(self, check, accepted, refused, rule):
        for value in accepted:
            check("field", value)
        for value in (*REFUSED_BY_BOTH, *refused):
            with pytest.raises(ValueError, match=f"^{re.escape(f'field {value!r} {rule}')}$"):
                check("field", value)

    def test_check_integer_takes_a_lower_bound(self):
        check_integer("epochs", 1, 1)
        with pytest.raises(ValueError, match="^epochs 0 is not an integer >= 1$"):
            check_integer("epochs", 0, 1)

    def test_check_one_line(self):
        check_one_line("model", "org,model-7b")
        with pytest.raises(ValueError, match=re.escape("model 7 is not a string")):
            check_one_line("model", 7)
        for text in ("a\rb", "v1\n"):
            with pytest.raises(ValueError, match=re.escape(f"model {text!r} is not one line of text")):
                check_one_line("model", text)
