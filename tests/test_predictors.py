import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flightcast.domain import ATTRIBUTES, Waypoint
from flightcast.predictors import kinematic_track, predict_kinematic, predict_persistence
from flightcast.windowing import INPUT_LENGTH, Window

from conftest import cruise_window, random_window, reference_predict_kinematic, window_inputs


def stationary_window(lon=103.2, lat=30.5, alt=10000.0, vel=900.0, hdg=45.0) -> Window:
    inputs = tuple(Waypoint(60 * i, lon, lat, alt, vel, hdg) for i in range(INPUT_LENGTH))
    return Window("STAT", inputs)


def moving_window(dlat_per_min=0.1, dlon_per_min=0.0, lat0=0.0) -> Window:
    inputs = tuple(
        Waypoint(60 * i, dlon_per_min * i, lat0 + dlat_per_min * i, 10000.0, 900.0, 0.0)
        for i in range(INPUT_LENGTH)
    )
    return Window("MOV", inputs)


def kinematic(window: Window, horizon: int) -> np.ndarray:
    """predict_kinematic on a stack of one window: that window's (5, horizon) block."""
    return predict_kinematic(window_inputs([window]), horizon)[0]


def persistence(window: Window, horizon: int) -> np.ndarray:
    return predict_persistence(window_inputs([window]), horizon)[0]


class TestPersistence:
    def test_constant_window_repeats(self):
        window = stationary_window()
        out = persistence(window, 4)
        assert out.shape == (len(ATTRIBUTES), 4)
        for column in out.T.tolist():
            assert column == window.values[:, INPUT_LENGTH - 1].tolist()

    def test_single_step(self, rng):
        windows = [random_window(rng, 1) for _ in range(5)]
        expected = np.array([w.values[:, INPUT_LENGTH - 1 : INPUT_LENGTH] for w in windows])
        assert np.array_equal(predict_persistence(window_inputs(windows), 1), expected)

    def test_zero_error_on_stationary_flight(self):
        # A parked aircraft: persistence is exact, so every error is zero.
        from flightcast.evaluation import evaluate
        from flightcast.prompts import ParseOutcome

        stationary = stationary_window()
        window = Window.from_columns("STAT", 60 * np.arange(INPUT_LENGTH + 4), stationary.values[:, [0] * (INPUT_LENGTH + 4)])
        outcome = ParseOutcome(values=persistence(window, 4))
        report = evaluate([(window, outcome, 0.0)])
        assert all(s.mae == 0.0 and s.rmse == 0.0 for s in report.attributes.values())


class TestKinematicStep:
    """One step of the motion rule, through kinematic_track and predict_kinematic."""

    def test_northbound_latitude_step(self):
        # 667.92 km/h is 11.132 km/min; 11.132 / 111.32 = 0.1 degrees.
        lon, lat = kinematic_track(0.0, 0.0, np.array([667.92]), np.array([0.0]), 60.0)
        assert lat[1] == pytest.approx(0.1, abs=1e-12)
        assert lon[1] == pytest.approx(0.0, abs=1e-12)

    def test_eastbound_at_equator(self):
        lon, lat = kinematic_track(0.0, 0.0, np.array([667.92]), np.array([90.0]), 60.0)
        assert lon[1] == pytest.approx(0.1, abs=1e-12)
        assert lat[1] == pytest.approx(0.0, abs=1e-12)

    def test_vertical_rate(self):
        # A climb of 100 m between the last two rows: a hovering climb adds 100 m a minute.
        inputs = tuple(Waypoint(60 * i, 0.0, 0.0, 1000.0 + 100.0 * max(i - 14, 0), 0.0, 0.0)
                       for i in range(INPUT_LENGTH))
        out = kinematic(Window("VRT", inputs), 2)
        assert out[2].tolist() == pytest.approx([1200.0, 1300.0])
        assert out[:2].tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_polar_singularity(self):
        with pytest.raises(ValueError, match="polar"):
            kinematic_track(0.0, 89.95, np.array([900.0]), np.array([0.0]), 60.0)


class TestPredictKinematic:
    def test_stationary_equals_persistence(self):
        window = stationary_window()
        assert np.array_equal(kinematic(window, 4), persistence(window, 4))

    def test_zero_rates_property(self, rng):
        # Whatever the reported velocity/heading, identical last positions
        # mean zero derived rates.
        for _ in range(50):
            window = stationary_window(
                lon=float(rng.uniform(-170, 170)),
                lat=float(rng.uniform(-80, 80)),
                vel=float(rng.uniform(0, 1000)),
                hdg=float(rng.uniform(0, 360)),
            )
            for horizon in (1, 4, 8):
                assert np.array_equal(kinematic(window, horizon), persistence(window, horizon))

    def test_northbound_extrapolation(self):
        window = moving_window(dlat_per_min=0.1)
        lon, lat = kinematic(window, 4)[:2]
        last_lat = window.values[1, INPUT_LENGTH - 1]
        assert lat == pytest.approx([last_lat + 0.1 * k for k in (1, 2, 3, 4)], abs=1e-9)
        assert lon == pytest.approx([0.0] * 4, abs=1e-9)

    def test_altitude_follows_last_delta(self):
        inputs = tuple(
            Waypoint(60 * i, 0.0, 0.0, 5000.0 + 120.0 * i, 900.0, 0.0) for i in range(INPUT_LENGTH)
        )
        window = Window("CLB", inputs)
        out = kinematic(window, 3)
        last_alt = inputs[-1].altitude
        assert out[2] == pytest.approx(
            [last_alt + 120.0, last_alt + 240.0, last_alt + 360.0]
        )

    def test_velocity_and_heading_held_constant(self, rng):
        window = cruise_window(rng, 4)
        out = kinematic(window, 4)
        velocity, heading = window.values[3:, INPUT_LENGTH - 1].tolist()
        assert out[3].tolist() == [velocity] * 4
        assert out[4].tolist() == [heading] * 4

    def test_polar_error(self):
        inputs = tuple(Waypoint(60 * i, 0.0, 89.95, 10000.0, 900.0, 0.0) for i in range(INPUT_LENGTH))
        with pytest.raises(ValueError, match="polar"):
            kinematic(Window("P", inputs), 1)

    def test_track_derived_from_displacement(self):
        # Due-east displacement at the equator: 0.1 degrees/min = 11.132 km/min.
        window = moving_window(dlat_per_min=0.0, dlon_per_min=0.1)
        out = kinematic(window, 2)
        last_lon = window.values[0, INPUT_LENGTH - 1]
        assert out[0, 0] == pytest.approx(last_lon + 0.1, abs=1e-9)
        assert out[0, 1] == pytest.approx(last_lon + 0.2, abs=1e-9)
        assert out[1, 0] == pytest.approx(0.0, abs=1e-12)


# The last two input rows decide a kinematic forecast; latitudes reach past the
# polar limit, and a displacement may be zero or cross the pole.
_LAST_TWO_ROWS = st.tuples(
    st.floats(-180.0, 180.0), st.floats(-89.99, 89.99), st.floats(-500.0, 15000.0),
    st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-300.0, 300.0),
    st.floats(0.0, 1200.0), st.floats(0.0, 359.99),
)


def _inputs(row: tuple) -> np.ndarray:
    lon, lat, alt, dlon, dlat, dalt, velocity, heading = row
    inputs = np.zeros((len(ATTRIBUTES), INPUT_LENGTH))
    inputs[:, -2] = lon, lat, alt, velocity, heading
    inputs[:, -1] = lon + dlon, lat + dlat, alt + dalt, velocity, heading
    return inputs


class TestStackedForecast:
    @given(st.lists(st.tuples(_LAST_TWO_ROWS, st.integers(1, 8)), min_size=1, max_size=8))
    def test_mixed_horizon_stack_equals_iterated_steps(self, cases):
        # A caller forecasts the stack to its largest horizon; each window keeps its leading steps.
        inputs = np.array([_inputs(row) for row, _ in cases])
        horizons = [horizon for _, horizon in cases]
        try:
            expected = [reference_predict_kinematic(block, max(horizons)) for block in inputs]
        except ValueError as exc:
            with pytest.raises(ValueError) as shipped:
                predict_kinematic(inputs, max(horizons))
            assert str(shipped.value) == str(exc)
            assert str(exc).startswith("polar singularity: latitude ")
            return
        predicted = predict_kinematic(inputs, max(horizons))
        assert predicted.shape == (len(cases), len(ATTRIBUTES), max(horizons))
        for block, want, horizon, window in zip(predicted, expected, horizons, inputs):
            assert repr(block[:, :horizon].tolist()) == repr(want[:, :horizon].tolist())
            assert repr(want[:, :horizon].tolist()) == repr(reference_predict_kinematic(window, horizon).tolist())

    def test_first_polar_window_names_the_error(self):
        rows = [(10.0, 40.0, 9000.0, 0.1, 0.1, 0.0, 800.0, 45.0),
                (0.0, 89.8, 9000.0, 0.0, 0.08, 0.0, 800.0, 0.0),
                (0.0, 89.95, 9000.0, 0.0, 0.0, 0.0, 800.0, 0.0)]
        inputs = np.array([_inputs(row) for row in rows])
        with pytest.raises(ValueError) as expected:
            reference_predict_kinematic(inputs[1], 4)
        with pytest.raises(ValueError) as shipped:
            predict_kinematic(inputs, 4)
        assert str(shipped.value) == str(expected.value)
        # The second window's second step starts past the limit; the third window's first step would name 89.95.
        assert str(shipped.value).startswith("polar singularity: latitude 89.96")
