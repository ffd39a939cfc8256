import numpy as np
import pytest

from flightcast.domain import ATTRIBUTES, Waypoint
from flightcast.predictors import (
    kinematic_step,
    predict_kinematic,
    predict_persistence,
)
from flightcast.windowing import INPUT_LENGTH, Window

from conftest import cruise_window, random_window


def stationary_window(lon=103.2, lat=30.5, alt=10000.0, vel=900.0, hdg=45.0) -> Window:
    inputs = tuple(Waypoint(60 * i, lon, lat, alt, vel, hdg) for i in range(INPUT_LENGTH))
    return Window("STAT", inputs)


def moving_window(dlat_per_min=0.1, dlon_per_min=0.0, lat0=0.0) -> Window:
    inputs = tuple(
        Waypoint(60 * i, dlon_per_min * i, lat0 + dlat_per_min * i, 10000.0, 900.0, 0.0)
        for i in range(INPUT_LENGTH)
    )
    return Window("MOV", inputs)


class TestPersistence:
    def test_constant_window_repeats(self):
        window = stationary_window()
        out = predict_persistence(window, 4)
        assert out.shape == (len(ATTRIBUTES), 4)
        for column in out.T.tolist():
            assert column == window.values[:, INPUT_LENGTH - 1].tolist()

    def test_single_step(self, rng):
        window = random_window(rng, 1)
        assert np.array_equal(predict_persistence(window, 1), window.values[:, INPUT_LENGTH - 1 : INPUT_LENGTH])

    def test_zero_error_on_stationary_flight(self):
        # A parked aircraft: persistence is exact, so every error is zero.
        from flightcast.evaluation import evaluate
        from flightcast.prompts import ParseOutcome

        stationary = stationary_window()
        window = Window.from_columns("STAT", 60 * np.arange(INPUT_LENGTH + 4), stationary.values[:, [0] * (INPUT_LENGTH + 4)])
        outcome = ParseOutcome.success(predict_persistence(window, 4))
        report = evaluate([(window, outcome, 0.0)])
        assert all(s.mae == 0.0 and s.rmse == 0.0 for s in report.attributes.values())


class TestKinematicStep:
    def test_northbound_latitude_step(self):
        # 667.92 km/h is 11.132 km/min; 11.132 / 111.32 = 0.1 degrees.
        lon, lat, alt = kinematic_step(0.0, 0.0, 1000.0, 667.92, 0.0, 60.0)
        assert lat == pytest.approx(0.1, abs=1e-12)
        assert lon == pytest.approx(0.0, abs=1e-12)
        assert alt == 1000.0

    def test_eastbound_at_equator(self):
        lon, lat, alt = kinematic_step(0.0, 0.0, 1000.0, 667.92, 90.0, 60.0)
        assert lon == pytest.approx(0.1, abs=1e-12)
        assert lat == pytest.approx(0.0, abs=1e-12)

    def test_vertical_rate(self):
        _, _, alt = kinematic_step(0.0, 0.0, 1000.0, 0.0, 0.0, 30.0, vertical_rate_m_per_min=100.0)
        assert alt == pytest.approx(1050.0)

    def test_polar_singularity(self):
        with pytest.raises(ValueError, match="polar"):
            kinematic_step(0.0, 89.95, 1000.0, 900.0, 0.0, 60.0)


class TestPredictKinematic:
    def test_stationary_equals_persistence(self):
        window = stationary_window()
        assert np.array_equal(predict_kinematic(window, 4), predict_persistence(window, 4))

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
                assert np.array_equal(predict_kinematic(window, horizon), predict_persistence(window, horizon))

    def test_northbound_extrapolation(self):
        window = moving_window(dlat_per_min=0.1)
        lon, lat = predict_kinematic(window, 4)[:2]
        last_lat = window.values[1, INPUT_LENGTH - 1]
        assert lat == pytest.approx([last_lat + 0.1 * k for k in (1, 2, 3, 4)], abs=1e-9)
        assert lon == pytest.approx([0.0] * 4, abs=1e-9)

    def test_altitude_follows_last_delta(self):
        inputs = tuple(
            Waypoint(60 * i, 0.0, 0.0, 5000.0 + 120.0 * i, 900.0, 0.0) for i in range(INPUT_LENGTH)
        )
        window = Window("CLB", inputs)
        out = predict_kinematic(window, 3)
        last_alt = inputs[-1].altitude
        assert out[2] == pytest.approx(
            [last_alt + 120.0, last_alt + 240.0, last_alt + 360.0]
        )

    def test_velocity_and_heading_held_constant(self, rng):
        window = cruise_window(rng, 4)
        out = predict_kinematic(window, 4)
        velocity, heading = window.values[3:, INPUT_LENGTH - 1].tolist()
        assert out[3].tolist() == [velocity] * 4
        assert out[4].tolist() == [heading] * 4

    def test_polar_error(self):
        inputs = tuple(Waypoint(60 * i, 0.0, 89.95, 10000.0, 900.0, 0.0) for i in range(INPUT_LENGTH))
        with pytest.raises(ValueError, match="polar"):
            predict_kinematic(Window("P", inputs), 1)

    def test_track_derived_from_displacement(self):
        # Due-east displacement at the equator: 0.1 degrees/min = 11.132 km/min.
        window = moving_window(dlat_per_min=0.0, dlon_per_min=0.1)
        out = predict_kinematic(window, 2)
        last_lon = window.values[0, INPUT_LENGTH - 1]
        assert out[0, 0] == pytest.approx(last_lon + 0.1, abs=1e-9)
        assert out[0, 1] == pytest.approx(last_lon + 0.2, abs=1e-9)
        assert out[1, 0] == pytest.approx(0.0, abs=1e-12)
