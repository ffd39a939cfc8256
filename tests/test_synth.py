import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flightcast.domain import INVALID_REASONS, TIMESTAMP_RANGE, Trajectory, validate_columns
from flightcast.ingest import RecordTable, aggregate_minutes, clean_trajectories, read_adsb_csv, records_to_csv_text
from flightcast.predictors import kinematic_track, predict_kinematic
from flightcast.synth import (
    DropEvent,
    FlightSpec,
    NoiseStd,
    TurnEvent,
    generate_corpus,
    generate_flight,
    validate_spec,
    write_manifest,
)
from flightcast.windowing import sample_windows

from conftest import (
    check_continuity,
    read_manifest,
    reference_generate_flight,
    reference_kinematic_step,
    reference_write_records_csv,
    spec_from_dict,
    window_inputs,
)


def trajectory_from_table(table: RecordTable) -> Trajectory:
    return Trajectory.from_columns(table.callsign[0], table.timestamp, table.values)


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
            ({"noise": NoiseStd(velocity=float("nan"))}, "noise.velocity nan is not a finite number >= 0"),
            ({"turns": (TurnEvent(5.0, 30.0, 0.2),)}, "duration_min"),
            ({"sample_interval_s": 7.5}, "sample_interval_s 7.5 is not an integer"),
            ({"sample_interval_s": 10.0}, "sample_interval_s 10.0 is not an integer"),
            ({"sample_interval_s": True}, "sample_interval_s True is not an integer"),
            ({"sample_interval_s": np.int64(10)}, r"sample_interval_s np.int64\(10\) is not an integer"),
            # A drop past the cruise altitude would leave a negative landing phase.
            ({"drop": DropEvent(20.0, 20000.0)}, "drop.drop_m"),
            ({"drop": DropEvent(20.0, 10000.0)}, "drop.drop_m"),
            ({"drop": DropEvent(20.0, -1.0)}, "drop.drop_m"),
            ({"drop": DropEvent(20.0, float("nan"))}, "drop.drop_m"),
            ({"cruise_speed_kmh": 0.0}, "cruise_speed_kmh must be > 0"),
        ],
    )
    def test_invalid_specs_name_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            validate_spec(FlightSpec(seed=0, **kwargs))

    @pytest.mark.parametrize(
        "kwargs,field",
        [({name: math.nan}, name) for name in (
            "origin_longitude", "origin_latitude", "initial_heading", "cruise_altitude_m", "cruise_speed_kmh",
            "climb_rate_m_per_min", "descent_rate_m_per_min", "cruise_duration_min",
        )]
        + [({"turns": (TurnEvent(**{"minute": 5.0, "delta_deg": 30.0, "duration_min": 2.0, name: math.nan}),)},
            f"turns: {name}") for name in ("minute", "delta_deg", "duration_min")]
        + [({"drop": DropEvent(**{"minute": 20.0, "drop_m": 100.0, name: math.nan})}, f"drop.{name}")
           for name in ("minute", "drop_m")],
    )
    def test_a_nan_float_field_is_refused_by_name(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} nan is not a finite number$"):
            validate_spec(FlightSpec(seed=0, **kwargs))


class TestGenerateFlight:
    def test_cruise_only_no_noise_is_flat_and_straight(self):
        spec = FlightSpec(seed=0, initial_heading=77.0, cruise_duration_min=10,
                          include_takeoff=False, include_landing=False)
        records = list(generate_flight(spec))
        assert all(r.heading == 77.0 for r in records)
        assert all(r.altitude == spec.cruise_altitude_m for r in records)
        assert all(r.velocity == spec.cruise_speed_kmh for r in records)

    def test_deterministic(self):
        spec = FlightSpec(seed=5, noise=NoiseStd(0.0001, 0.0001, 5.0, 2.0, 0.5))
        assert list(generate_flight(spec)) == list(generate_flight(spec))

    def test_columns_of_one_flight(self):
        table = generate_flight(FlightSpec(seed=2, callsign="ONE", cruise_duration_min=5))
        assert table.timestamp.dtype == np.int64
        assert table.values.shape == (5, len(table))
        assert set(table.callsign.tolist()) == {"ONE"}
        assert not table.missing.any()

    def test_turn_ramp_reaches_target_heading(self):
        spec = FlightSpec(
            seed=0, initial_heading=90.0, cruise_duration_min=20,
            include_takeoff=False, include_landing=False,
            turns=(TurnEvent(minute=10.0, delta_deg=30.0, duration_min=2.0),),
        )
        records = list(generate_flight(spec))
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
        records = list(generate_flight(spec))
        by_minute = {(r.timestamp - spec.start_timestamp) // 60: r for r in records}
        assert by_minute[9].altitude == spec.cruise_altitude_m
        assert by_minute[11].altitude == spec.cruise_altitude_m - 200.0

    def test_full_profile_has_three_phases(self):
        spec = FlightSpec(seed=0, cruise_duration_min=15)
        altitudes = generate_flight(spec).values[2].tolist()
        assert altitudes[0] == 0.0
        assert max(altitudes) == spec.cruise_altitude_m
        assert altitudes[-1] <= spec.descent_rate_m_per_min  # back near the ground

    def test_all_waypoints_valid_even_with_heavy_noise(self):
        spec = FlightSpec(seed=3, cruise_duration_min=10,
                          noise=NoiseStd(0.3, 0.3, 400.0, 300.0, 90.0))
        traj = trajectory_from_table(generate_flight(spec))
        reasons = validate_columns(traj.timestamps, traj.values)
        assert not reasons.any(), INVALID_REASONS[reasons.max() - 1]

    def test_noise_free_continuity_after_aggregation(self):
        spec = FlightSpec(seed=0, cruise_duration_min=25)
        traj = trajectory_from_table(generate_flight(spec))
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
            traj = trajectory_from_table(generate_flight(spec))
            for horizon in (1, 4, 8):
                windows = sample_windows(traj, horizon, 16 + horizon)
                assert windows
                targets = np.array([w.values[:, 16:] for w in windows])
                error = np.abs(predict_kinematic(window_inputs(windows), horizon) - targets)
                assert np.all(error[:, :2] < 1e-6)  # longitude, latitude
                assert np.all(error[:, 2] < 1e-3)  # altitude


class TestGenerateCorpus:
    def test_single_flight(self):
        records, specs = generate_corpus(1, base_seed=11)
        assert len(specs) == 1
        assert specs[0].seed == 11
        assert set(records.callsign.tolist()) == {"SYN000"}

    def test_manifest_regenerates_identical_corpus(self, tmp_path):
        records, specs = generate_corpus(3, base_seed=4)
        path = tmp_path / "manifest.json"
        write_manifest(specs, path)
        loaded = read_manifest(path)
        assert loaded == specs
        regenerated = RecordTable.concat([generate_flight(spec) for spec in loaded])
        assert records_to_csv_text(regenerated) == records_to_csv_text(records)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="count 0 is not an integer >= 1"):
            generate_corpus(0, base_seed=0)

    @pytest.mark.parametrize("count", [True, 2.0])
    def test_a_count_that_is_not_an_integer_is_rejected(self, count):
        with pytest.raises(ValueError, match=f"^count {count!r} is not an integer >= 1$"):
            generate_corpus(count, base_seed=0)

    @pytest.mark.parametrize("seed", [-1, True, 1.0])
    def test_a_seed_that_is_not_an_integer_from_0_is_rejected(self, seed):
        with pytest.raises(ValueError, match=f"^seed {seed!r} is not an integer >= 0$"):
            generate_corpus(2, seed)

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
            assert spec_from_dict(dataclasses.asdict(spec)) == spec


# --- columns against the per-sample reference ------------------------------------

TURNS = st.builds(
    TurnEvent,
    minute=st.floats(-5.0, 90.0),
    delta_deg=st.one_of(st.floats(-400.0, 400.0), st.sampled_from((-360.0, 360.0, 90.0))),
    duration_min=st.floats(1.0, 20.0),
)
NOISE = st.one_of(
    st.builds(
        NoiseStd,
        longitude=st.sampled_from((0.0, 2e-5, 0.3, 5.0)),
        latitude=st.sampled_from((0.0, 2e-5, 0.3, 5.0)),
        altitude=st.sampled_from((0.0, 5.0, 400.0, 20000.0)),
        velocity=st.sampled_from((0.0, 2.0, 300.0, 2000.0)),
        # 1e-30 turns a true heading of 0.0 into -1e-30, whose % 360 is 360.0.
        heading=st.sampled_from((0.0, 1e-30, 0.5, 90.0, 400.0)),
    ),
    st.just(NoiseStd()),
)
SPECS = st.builds(
    FlightSpec,
    seed=st.integers(0, 2**32),
    callsign=st.sampled_from(("SYN000", 'Q,"X')),
    origin_longitude=st.one_of(st.floats(-180.0, 180.0), st.sampled_from((-179.9999, 179.9999))),
    origin_latitude=st.floats(-80.0, 80.0),
    # -1e-20 % 360 is exactly 360, which wraps to 0.
    initial_heading=st.one_of(st.floats(0.0, 360.0, exclude_max=True), st.sampled_from((-1e-20, 359.9, 0.0))),
    cruise_altitude_m=st.floats(300.0, 12000.0),
    cruise_speed_kmh=st.floats(50.0, 1100.0),
    climb_rate_m_per_min=st.floats(300.0, 1500.0),
    descent_rate_m_per_min=st.floats(300.0, 1500.0),
    cruise_duration_min=st.floats(1.0, 40.0),
    turns=st.lists(TURNS, max_size=3).map(tuple),
    drop=st.one_of(st.none(), st.builds(DropEvent, minute=st.floats(0.0, 60.0), drop_m=st.floats(0.0, 3000.0))),
    noise=NOISE,
    sample_interval_s=st.one_of(st.integers(1, 120), st.sampled_from((1, 10, 60))),
    include_takeoff=st.booleans(),
    include_landing=st.booleans(),
    start_timestamp=st.integers(TIMESTAMP_RANGE[0], TIMESTAMP_RANGE[1] - 10**6),
)


def outcome(generate, spec: FlightSpec) -> str:
    """The repr of a flight's rows, or the text of the ValueError it raised."""
    try:
        return repr(list(generate(spec)))
    except ValueError as exc:
        return f"ValueError: {exc}"


EDGE_SPECS = [
    # True heading 0.0 plus noise of -1e-30 is 360.0 after % 360, which wraps to 0.
    FlightSpec(seed=4, initial_heading=0.0, cruise_duration_min=5, noise=NoiseStd(heading=1e-30)),
    FlightSpec(seed=5, initial_heading=-1e-20, origin_longitude=0.0, cruise_duration_min=5),
    FlightSpec(seed=6, include_takeoff=False, drop=DropEvent(minute=3.0, drop_m=500.0), cruise_duration_min=8),
    FlightSpec(seed=7, include_landing=False, turns=(TurnEvent(2.0, 350.0, 3.0), TurnEvent(3.0, -20.0, 1.0)),
               initial_heading=359.9, noise=NoiseStd(0.3, 0.3, 400.0, 300.0, 90.0)),
    FlightSpec(seed=8, origin_longitude=179.9999, origin_latitude=-89.0, sample_interval_s=1, cruise_duration_min=2,
               noise=NoiseStd(longitude=0.3, latitude=5.0)),
]


class TestColumnsMatchReference:
    @settings(max_examples=80)
    @given(SPECS)
    def test_flight(self, spec):
        assert outcome(generate_flight, spec) == outcome(reference_generate_flight, spec)

    @pytest.mark.parametrize("spec", EDGE_SPECS, ids=range(len(EDGE_SPECS)))
    def test_edge_flight(self, spec):
        assert outcome(generate_flight, spec) == outcome(reference_generate_flight, spec)

    @pytest.mark.parametrize(
        "latitude, heading",
        # An int start latitude is named as given ("latitude 90"), as reference_kinematic_step names it.
        [(89.5, 0.0), (-89.5, 180.0), (89.95, 90.0), (90, 0.0), (-89.9, 270.0), (89.0, 10.0)],
    )
    def test_polar_limit_raises_the_same_error(self, latitude, heading):
        spec = FlightSpec(seed=3, origin_latitude=latitude, initial_heading=heading, cruise_duration_min=20,
                          noise=NoiseStd(1e-5, 1e-5, 1.0, 1.0, 0.1))
        shipped = outcome(generate_flight, spec)
        assert shipped.startswith("ValueError: polar singularity: latitude ")
        assert shipped == outcome(reference_generate_flight, spec)

    @given(st.floats(88.0, 89.9), st.floats(-30.0, 30.0), st.integers(1, 120))
    def test_flight_toward_the_pole(self, latitude, heading, interval):
        spec = FlightSpec(seed=1, origin_latitude=latitude, initial_heading=heading % 360.0,
                          cruise_duration_min=10, sample_interval_s=interval)
        assert outcome(generate_flight, spec) == outcome(reference_generate_flight, spec)

    @pytest.mark.parametrize("count, seed", [(3, 0), (2, 19), (1, 100005)])
    def test_corpus_is_the_reference_flights_concatenated(self, count, seed):
        table, specs = generate_corpus(count, seed)
        records = [r for spec in specs for r in reference_generate_flight(spec)]
        assert repr(list(table)) == repr(records)
        oracle = io.StringIO()
        reference_write_records_csv(records, oracle)
        assert records_to_csv_text(table) == oracle.getvalue()


class TestKinematicTrack:
    @given(
        st.floats(-180.0, 180.0),
        st.one_of(st.floats(-89.0, 89.0), st.integers(-89, 89)),
        st.lists(st.tuples(st.floats(0.0, 1500.0), st.floats(-720.0, 720.0)), max_size=30),
        st.one_of(st.integers(1, 120), st.floats(0.5, 600.0)),
    )
    def test_equals_iterated_steps(self, longitude, latitude, steps, dt):
        speeds = np.array([speed for speed, _ in steps], dtype=np.float64)
        headings = np.array([heading for _, heading in steps], dtype=np.float64)
        expected = [(longitude, latitude)]
        try:
            for speed, heading in steps:
                lon, lat, _ = reference_kinematic_step(*expected[-1], 0.0, speed, heading, dt)
                expected.append((lon, lat))
        except ValueError as exc:
            with pytest.raises(ValueError) as shipped:
                kinematic_track(longitude, latitude, speeds, headings, dt)
            assert str(shipped.value) == str(exc)
            return
        lon, lat = kinematic_track(longitude, latitude, speeds, headings, dt)
        assert repr(list(zip(lon.tolist(), lat.tolist()))) == repr([(float(x), float(y)) for x, y in expected])

    def test_polar_step_raises_with_the_step_latitude(self):
        lat = [89.85, 89.85 + 12.0 / 111.32]
        with pytest.raises(ValueError, match=f"latitude {lat[1]} too close"):
            kinematic_track(0.0, lat[0], np.array([720.0, 720.0]), np.array([0.0, 0.0]), 60)
        assert reference_kinematic_step(0.0, lat[0], 0.0, 720.0, 0.0, 60)[1] == lat[1]
