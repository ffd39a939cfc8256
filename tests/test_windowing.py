import copy
import io
import json
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flightcast.domain import TIMESTAMP_RANGE, Trajectory, Waypoint
from flightcast.windowing import (
    INPUT_LENGTH,
    SUPPORTED_HORIZONS,
    Window,
    default_stride,
    read_windows_jsonl,
    sample_windows,
    window_from_obj,
    window_to_obj,
    write_windows_jsonl,
)

from conftest import check_continuity, gap_seeded_trajectory, reference_sample_windows


def minute_trajectory(minutes, callsign="T") -> Trajectory:
    """Waypoints at the given minute marks (gaps where minutes skip)."""
    return Trajectory(
        callsign,
        tuple(Waypoint(60 * m, 10.0, 20.0, 10000.0, 900.0, 90.0) for m in minutes),
    )


def brute_force_offsets(traj: Trajectory, horizon: int, stride: int) -> list[int]:
    """Independent enumerator: try every offset in order, apply continuity
    and stride arithmetic."""
    size = INPUT_LENGTH + horizon
    ts = [w.timestamp for w in traj.waypoints]
    offsets = []
    next_allowed = 0
    for k in range(len(ts) - size + 1):
        if k < next_allowed:
            continue
        if all(ts[i + 1] - ts[i] == 60 for i in range(k, k + size - 1)):
            offsets.append(k)
            next_allowed = k + stride
    return offsets


class TestCheckContinuity:
    def test_continuous(self):
        traj = minute_trajectory([0, 1, 2])
        assert check_continuity(traj.waypoints)

    def test_one_second_off(self):
        wps = (Waypoint(0, 0, 0, 0, 0, 0), Waypoint(60, 0, 0, 0, 0, 0), Waypoint(121, 0, 0, 0, 0, 0))
        assert not check_continuity(wps)

    def test_singleton(self):
        assert check_continuity([Waypoint(60, 0, 0, 0, 0, 0)])


class TestSampleWindows:
    def test_41_minutes_stride_18(self):
        traj = minute_trajectory(range(41))
        windows = sample_windows(traj, 1, 18)
        assert len(windows) == 2
        assert [int(w.timestamps[0]) for w in windows] == [0, 18 * 60]

    def test_too_short_trajectory(self):
        traj = minute_trajectory(range(16))
        assert sample_windows(traj, 1, 18) == []

    def test_gap_never_spanned(self):
        # 34 minutes of flight with minutes 21 and 22 missing.
        minutes = list(range(21)) + list(range(23, 34))
        traj = minute_trajectory(minutes)
        windows = sample_windows(traj, 4, 21)
        assert len(windows) == 1
        assert windows[0].timestamps[0] == 0
        for w in windows:
            assert check_continuity(w.waypoints)

    def test_stride_too_small(self):
        traj = minute_trajectory(range(40))
        with pytest.raises(ValueError, match="stride too small"):
            sample_windows(traj, 4, 19)

    def test_unsupported_horizon(self):
        traj = minute_trajectory(range(40))
        with pytest.raises(ValueError, match="unsupported horizon"):
            sample_windows(traj, 3, 40)
        assert sample_windows(traj, 3, 40, allow_any_horizon=True)

    def test_default_stride_is_window_plus_one(self):
        assert default_stride(1) == 18
        assert default_stride(8) == 25

    def test_window_shape(self):
        traj = minute_trajectory(range(30))
        (window,) = sample_windows(traj, 8, 25)
        assert len(window) == INPUT_LENGTH + 8
        assert len(window.targets) == 8
        assert window.horizon == 8
        assert window.targets[0].timestamp - window.timestamps[INPUT_LENGTH - 1] == 60

    def test_matches_brute_force_on_gap_seeded_trajectories(self, rng):
        for _ in range(60):
            traj = gap_seeded_trajectory(rng)
            for horizon in (1, 4, 8):
                stride = int(rng.integers(INPUT_LENGTH + horizon, INPUT_LENGTH + horizon + 10))
                windows = sample_windows(traj, horizon, stride)
                offsets = brute_force_offsets(traj, horizon, stride)
                got = [int(w.timestamps[0]) for w in windows]
                want = [traj.waypoints[k].timestamp for k in offsets]
                assert got == want
                for w in windows:
                    assert check_continuity(w.waypoints)

    def test_no_shared_waypoints_at_minimal_stride(self, rng):
        for _ in range(30):
            traj = gap_seeded_trajectory(rng)
            for horizon in (1, 4, 8):
                windows = sample_windows(traj, horizon, INPUT_LENGTH + horizon)
                seen = set()
                for w in windows:
                    stamps = set(w.timestamps.tolist())
                    assert not (stamps & seen)
                    seen |= stamps


class TestJsonLines:
    def test_round_trip(self, rng):
        traj = gap_seeded_trajectory(rng)
        windows = sample_windows(traj, 4, 21)
        buf = io.StringIO()
        write_windows_jsonl(windows, buf)
        back = read_windows_jsonl(io.StringIO(buf.getvalue()))
        assert back == windows

    def test_schema_fields(self, rng):
        import json

        windows = sample_windows(minute_trajectory(range(20)), 4, 21)
        buf = io.StringIO()
        write_windows_jsonl(windows, buf)
        obj = json.loads(buf.getvalue().splitlines()[0])
        assert set(obj) == {"callsign", "horizon", "input", "target"}
        assert len(obj["input"]) == 16
        assert len(obj["target"]) == 4
        assert len(obj["input"][0]) == 6  # t, lon, lat, alt, vel, hdg


#: Runs of one-minute steps, each ended by a gap, a repeat, a step back or
#: an off-minute step.
RUNS = st.lists(st.tuples(st.integers(0, 45), st.sampled_from((0, -60, -3600, 1, 61, 120, 300))), max_size=4)


@st.composite
def gappy_trajectories(draw):
    steps = [step for run, odd in draw(RUNS) for step in [60] * run + [odd]]
    stamps = np.cumsum([draw(st.integers(-10**6, 10**6)) * 60] + steps + [60] * draw(st.integers(0, 30)))
    values = draw(st.lists(st.floats(-90.0, 90.0), min_size=5, max_size=5))
    waypoints = tuple(Waypoint(t, *values) for t in stamps.tolist())
    return Trajectory("GAP", waypoints)


class TestSampleWindowsProperty:
    @given(
        gappy_trajectories(),
        st.sampled_from((1, 4, 8, 2, 13)),
        st.integers(0, 6),
        st.booleans(),
    )
    def test_matches_reference_scan(self, traj, horizon, extra_stride, columnar):
        stride = INPUT_LENGTH + horizon + extra_stride
        if columnar:
            traj = Trajectory.from_columns(traj.callsign, traj.timestamps.copy(), traj.values.copy())
        shipped = sample_windows(traj, horizon, stride, allow_any_horizon=horizon not in (1, 4, 8))
        oracle = reference_sample_windows(traj, horizon, stride)
        assert shipped == oracle
        assert repr(shipped) == repr(oracle)


class TestWindowAsTrajectory:
    def test_sampled_columns_are_read_only_views_of_the_trajectory(self, rng):
        traj = Trajectory.from_columns("V", 60 * np.arange(60), rng.uniform(size=(5, 60)))
        windows = sample_windows(traj, 4)
        assert len(windows) == 2
        for window in windows:
            assert isinstance(window, Trajectory) and type(window) is Window
            assert np.shares_memory(window.timestamps, traj.timestamps)
            assert np.shares_memory(window.values, traj.values)
            with pytest.raises(ValueError, match="read-only"):
                window.values[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                window.timestamps[0] = 1

    def test_copy_deepcopy_and_pickle_keep_class_and_value(self, rng):
        traj = Trajectory.from_columns("V", 60 * np.arange(20), rng.uniform(-1.0, 1.0, size=(5, 20)))
        (sampled,) = sample_windows(traj, 1)
        by_waypoints = Window("W", tuple(Waypoint(60 * i, i, -0.0, 1.0, 2.0, 3.0) for i in range(17)))
        for window in (sampled, by_waypoints):
            for twin in (copy.copy(window), copy.deepcopy(window), pickle.loads(pickle.dumps(window))):
                assert type(twin) is Window
                assert twin == window and repr(twin) == repr(window)
                assert repr(twin).startswith("Window(callsign=")

    def test_fewer_than_sixteen_rows_raise(self):
        waypoints = tuple(Waypoint(60 * i, 0, 0, 0, 0, 0) for i in range(INPUT_LENGTH - 1))
        with pytest.raises(ValueError, match="expected at least 16"):
            Window("S", waypoints)
        with pytest.raises(ValueError, match="expected at least 16"):
            Window.from_columns("S", np.zeros(3, dtype=np.int64), np.zeros((5, 3)))
        assert Window("S", waypoints + waypoints[:2]).horizon == 1


#: Doubles the codec must carry exactly: signed zeros, subnormals and 17-digit values.
CODEC_VALUES = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 0.30000000000000004, 103.12345678901234)),
)


@st.composite
def codec_windows(draw):
    horizon = draw(st.sampled_from(SUPPORTED_HORIZONS))
    n = INPUT_LENGTH + horizon
    start = draw(st.integers(TIMESTAMP_RANGE[0], TIMESTAMP_RANGE[1] - 60 * n))
    values = draw(st.lists(CODEC_VALUES, min_size=5 * n, max_size=5 * n))
    return Window.from_columns(draw(st.text(max_size=8)), start + 60 * np.arange(n), np.array(values).reshape(5, n))


class TestWindowCodecProperty:
    @given(codec_windows())
    def test_write_read_write_is_identical(self, window):
        first, second = io.StringIO(), io.StringIO()
        write_windows_jsonl([window], first)
        (back,) = read_windows_jsonl(io.StringIO(first.getvalue()))
        write_windows_jsonl([back], second)
        assert second.getvalue() == first.getvalue()
        assert back == window and type(back) is Window
        # The rows are the per-waypoint form the codec has always written.
        rows = [[w.timestamp, *w.values()] for w in window.waypoints]
        obj = {"callsign": window.callsign, "horizon": window.horizon,
               "input": rows[:INPUT_LENGTH], "target": rows[INPUT_LENGTH:]}
        assert first.getvalue() == json.dumps(obj) + "\n"

    @given(codec_windows())
    def test_short_input_and_empty_target_raise(self, window):
        obj = window_to_obj(window)
        with pytest.raises(ValueError, match="input holds 15 rows, expected 16"):
            window_from_obj({**obj, "input": obj["input"][1:]})
        with pytest.raises(ValueError, match="target is empty"):
            window_from_obj({**obj, "target": []})
