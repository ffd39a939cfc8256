import io

import numpy as np
import pytest

from flightcast.domain import INVALID_REASONS, Trajectory, Waypoint, validate_columns
from flightcast.ingest import aggregate_minutes, clean_trajectories, read_adsb_csv, records_to_csv_text
from flightcast.predictors import predict_kinematic
from flightcast.synth import (
    DropEvent,
    FlightSpec,
    NoiseStd,
    TurnEvent,
    generate_corpus,
    generate_flight,
    read_manifest,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
    write_manifest,
)
from flightcast.windowing import sample_windows

from conftest import check_continuity


def trajectory_from_records(records) -> Trajectory:
    waypoints = tuple(
        Waypoint(r.timestamp, r.longitude, r.latitude, r.altitude, r.velocity, r.heading)
        for r in records
    )
    return Trajectory(records[0].callsign, waypoints)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"climb_rate_m_per_min": 0.0}, "climb_rate"),
            ({"descent_rate_m_per_min": -5.0}, "descent_rate"),
            ({"cruise_altitude_m": 0.0}, "cruise_altitude"),
            ({"cruise_duration_min": 0.5}, "cruise_duration"),
            ({"sample_interval_s": 0}, "sample_interval"),
            ({"noise": NoiseStd(altitude=-1.0)}, "noise.altitude"),
            ({"turns": (TurnEvent(5.0, 30.0, 0.2),)}, "duration_min"),
        ],
    )
    def test_invalid_specs_name_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            validate_spec(FlightSpec(seed=0, **kwargs))


class TestGenerateFlight:
    def test_cruise_only_no_noise_is_flat_and_straight(self):
        spec = FlightSpec(seed=0, initial_heading=77.0, cruise_duration_min=10,
                          include_takeoff=False, include_landing=False)
        records = generate_flight(spec)
        assert all(r.heading == 77.0 for r in records)
        assert all(r.altitude == spec.cruise_altitude_m for r in records)
        assert all(r.velocity == spec.cruise_speed_kmh for r in records)

    def test_deterministic(self):
        spec = FlightSpec(seed=5, noise=NoiseStd(0.0001, 0.0001, 5.0, 2.0, 0.5))
        assert generate_flight(spec) == generate_flight(spec)

    def test_turn_ramp_reaches_target_heading(self):
        spec = FlightSpec(
            seed=0, initial_heading=90.0, cruise_duration_min=20,
            include_takeoff=False, include_landing=False,
            turns=(TurnEvent(minute=10.0, delta_deg=30.0, duration_min=2.0),),
        )
        records = generate_flight(spec)
        on_minute = {
            (r.timestamp - spec.start_timestamp) // 60: r
            for r in records
            if (r.timestamp - spec.start_timestamp) % 60 == 0
        }
        assert on_minute[5].heading == 90.0
        assert on_minute[11].heading == pytest.approx(105.0, abs=1e-9)  # mid-ramp
        assert on_minute[13].heading == pytest.approx(120.0, abs=1e-9)  # ramp done

    def test_drop_event_lowers_cruise_altitude(self):
        spec = FlightSpec(
            seed=0, cruise_duration_min=20, include_takeoff=False, include_landing=False,
            drop=DropEvent(minute=10.0, drop_m=200.0),
        )
        records = generate_flight(spec)
        by_minute = {(r.timestamp - spec.start_timestamp) // 60: r for r in records}
        assert by_minute[9].altitude == spec.cruise_altitude_m
        assert by_minute[11].altitude == spec.cruise_altitude_m - 200.0

    def test_full_profile_has_three_phases(self):
        spec = FlightSpec(seed=0, cruise_duration_min=15)
        records = generate_flight(spec)
        altitudes = [r.altitude for r in records]
        assert altitudes[0] == 0.0
        assert max(altitudes) == spec.cruise_altitude_m
        assert altitudes[-1] <= spec.descent_rate_m_per_min  # back near the ground

    def test_all_waypoints_valid_even_with_heavy_noise(self):
        spec = FlightSpec(seed=3, cruise_duration_min=10,
                          noise=NoiseStd(0.3, 0.3, 400.0, 300.0, 90.0))
        traj = trajectory_from_records(generate_flight(spec))
        reasons = validate_columns(traj.timestamps, traj.values)
        assert not reasons.any(), INVALID_REASONS[reasons.max() - 1]

    def test_noise_free_continuity_after_aggregation(self):
        spec = FlightSpec(seed=0, cruise_duration_min=25)
        traj = trajectory_from_records(generate_flight(spec))
        aggregated = aggregate_minutes(traj)
        assert check_continuity(aggregated.waypoints)
        assert len(aggregated.waypoints) >= 25

    def test_kinematic_exact_on_straight_cruise_minute_sampling(self):
        # Minute-sampled, noise-free, constant-speed cruise: the predictor
        # and the generator share the step rule, so the rollout must land
        # on the generator's own waypoints at any heading.
        for heading in (0.0, 37.0, 123.4, 200.0, 318.9):
            spec = FlightSpec(seed=0, initial_heading=heading, cruise_duration_min=40,
                              sample_interval_s=60, include_takeoff=False, include_landing=False)
            traj = trajectory_from_records(generate_flight(spec))
            for horizon in (1, 4, 8):
                windows = sample_windows(traj, horizon, 16 + horizon)
                assert windows
                for window in windows:
                    error = np.abs(predict_kinematic(window, horizon) - window.values[:, 16:])
                    assert np.all(error[:2] < 1e-6)  # longitude, latitude
                    assert np.all(error[2] < 1e-3)  # altitude


class TestGenerateCorpus:
    def test_single_flight(self):
        records, specs = generate_corpus(1, base_seed=11)
        assert len(specs) == 1
        assert specs[0].seed == 11
        assert records[0].callsign == "SYN000"

    def test_manifest_regenerates_identical_corpus(self, tmp_path):
        records, specs = generate_corpus(3, base_seed=4)
        path = tmp_path / "manifest.json"
        write_manifest(specs, path)
        loaded = read_manifest(path)
        assert loaded == specs
        regenerated = [r for spec in loaded for r in generate_flight(spec)]
        assert regenerated == records

    def test_unique_callsigns_and_seeds(self):
        _, specs = generate_corpus(10, base_seed=0)
        assert len({s.callsign for s in specs}) == 10
        assert [s.seed for s in specs] == list(range(10))

    def test_corpus_survives_pipeline_and_yields_windows(self):
        records, specs = generate_corpus(8, base_seed=21)
        parsed = read_adsb_csv(io.StringIO(records_to_csv_text(records)))
        result = clean_trajectories(parsed)
        assert result.kept == 8
        total = 0
        for traj in result.trajectories:
            total += len(sample_windows(aggregate_minutes(traj), 8, 25))
        assert total > 0

    def test_spec_dict_round_trip(self):
        _, specs = generate_corpus(2, base_seed=9)
        for spec in specs:
            assert spec_from_dict(spec_to_dict(spec)) == spec
