import copy
import io
import json
import math
import pickle
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flightcast.domain import CANONICAL_DECIMALS, TIMESTAMP_RANGE, Trajectory, Waypoint
from flightcast.ingest import clean_trajectories, read_adsb_csv, write_trajectories_csv
from flightcast.windowing import (
    CANONICAL_ROW,
    INPUT_LENGTH,
    Window,
    default_stride,
    read_window_rows,
    read_windows_jsonl,
    row_with,
    sample_windows,
    window_from_obj,
    window_rows,
    window_to_obj,
    write_windows_jsonl,
)

from conftest import (
    REFERENCE_CANONICAL_ROW,
    Text,
    assert_same_window,
    check_continuity,
    gap_seeded_trajectory,
    json_text,
    random_window,
    reference_sample_windows,
    reference_window_from_obj,
    reference_window_rows,
    window_files,
)


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
        with pytest.raises(ValueError, match="horizon 0 is not an integer >= 1"):
            sample_windows(traj, 0)

    @pytest.mark.parametrize("horizon", [True, 2.0])
    def test_a_horizon_that_is_not_an_integer_is_rejected(self, horizon):
        with pytest.raises(ValueError, match=f"^horizon {horizon!r} is not an integer >= 1$"):
            sample_windows(minute_trajectory(range(40)), horizon)

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
                want = [int(traj.timestamps[k]) for k in offsets]
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
        shipped = sample_windows(traj, horizon, stride)
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
# Finite only: window_from_obj rejects a NaN or infinite cell (see test_non_finite_cell_raises).
CODEC_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 0.30000000000000004, 103.12345678901234)),
)


@st.composite
def codec_windows(draw, cells=CODEC_VALUES, callsigns=st.text(max_size=8)):
    horizon = draw(st.sampled_from((1, 4, 8)))
    n = INPUT_LENGTH + horizon
    start = draw(st.integers(TIMESTAMP_RANGE[0], TIMESTAMP_RANGE[1] - 60 * n))
    values = draw(st.lists(cells, min_size=5 * n, max_size=5 * n))
    return Window.from_columns(draw(callsigns), start + 60 * np.arange(n), np.array(values).reshape(5, n))


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

    @given(codec_windows(), st.data(), st.sampled_from((math.nan, math.inf, -math.inf)))
    def test_non_finite_cell_raises(self, window, data, bad):
        obj = json.loads(json.dumps(window_to_obj(window)))
        rows = obj["input"] + obj["target"]
        row = data.draw(st.integers(0, len(rows) - 1))
        rows[row][data.draw(st.integers(1, 5))] = bad
        with pytest.raises(ValueError, match="window holds a non-finite cell"):
            window_from_obj(json.loads(json.dumps(obj)))

    @given(codec_windows(), st.data())
    def test_timestamp_off_the_minute_grid_raises(self, window, data):
        obj = window_to_obj(window)
        rows = obj["input"] + obj["target"]
        row = data.draw(st.integers(0, len(rows) - 1))
        rows[row][0] = data.draw(st.sampled_from((rows[row][0] + 0.5, float(rows[row][0]), True)))
        with pytest.raises(ValueError, match=r"window timestamp .* is not an integer"):
            window_from_obj(json.loads(json.dumps(obj)))
        rows[row][0] = window.timestamps[row].item() + data.draw(st.sampled_from((-60, -1, 1, 360)))
        with pytest.raises(ValueError, match="are not 60 s apart"):
            window_from_obj(json.loads(json.dumps(obj)))

    @given(codec_windows(), st.sampled_from((0, 1, 3, 5, 8, True, 4.0, "4", None)))
    def test_horizon_key_must_count_the_target_rows(self, window, horizon):
        obj = window_to_obj(window)
        assert window_from_obj({k: v for k, v in obj.items() if k != "horizon"}) == window
        if type(horizon) is int and horizon == window.horizon:
            assert window_from_obj({**obj, "horizon": horizon}) == window
        else:
            message = f"window horizon {horizon!r} does not match its {window.horizon} target rows"
            with pytest.raises(ValueError, match=re.escape(message)):
                window_from_obj({**obj, "horizon": horizon})


#: Decimals that ``repr`` writes in plain notation with at most 15 digits, ±0.0 among them.
PLAIN_VALUES = st.builds(round, st.floats(-999_999, 999_999), st.integers(0, 9)).filter(
    lambda v: v == 0 or abs(v) >= 1e-4)
#: Rounded decimals of every size and digit count, values below 1e-4, and any finite double.
DECIMAL_VALUES = st.one_of(
    CODEC_VALUES,
    st.builds(round, st.floats(-1e7, 1e7), st.integers(0, 11)),
    st.builds(round, st.floats(-2e-4, 2e-4), st.integers(4, 9)),
)
PRINTABLE_CALLSIGNS = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=8)

#: Ways to write a number that JSON reads: ``repr`` (json's own), fixed decimals, 17, 16 or
#: 15 significant digits, an exponent, an integer, or the plain decimal of ``repr``.
NUMBER_TEXTS = st.one_of(
    st.just(repr),
    st.just(lambda v: format(Decimal(repr(v)), "f")),
    st.integers(0, 12).map(lambda k: f"%.{k}f".__mod__),
    st.sampled_from(("%.17g", "%.16g", "%.15g", "%.3e", "%.0f")).map(lambda spec: spec.__mod__),
)
#: Cell texts at the edges of the pattern's cell rule: up to 7 integer and 11 fraction digits
#: (leading and trailing zeros among them), values below 1e-4, and exponents.
CELL_TEXTS = st.one_of(
    st.from_regex(r"-?(0|[1-9][0-9]{0,6})\.[0-9]{1,11}", fullmatch=True),
    st.from_regex(r"-?[1-9](\.[0-9]{1,16})?e-0[4-9]", fullmatch=True),
    CODEC_VALUES.map(repr),
)


#: Row layouts: json's own, compact separators, raw non-ASCII, no ``horizon``, an extra key,
#: another key order, and a callsign spelled with escapes.
LAYOUTS = {
    "json": lambda obj, number: json_text(obj, number),
    "compact": lambda obj, number: json_text(obj, number, ",", ":"),
    "raw": lambda obj, number: json_text(obj, number, ensure_ascii=False),
    "no horizon": lambda obj, number: json_text({k: v for k, v in obj.items() if k != "horizon"}, number),
    "extra key": lambda obj, number: json_text({**obj, "note": 1.5}, number),
    "reordered": lambda obj, number: json_text(dict(reversed(obj.items())), number),
    "escaped": lambda obj, number: json_text(obj, number).replace(
        json.dumps(obj["callsign"]), '"' + "".join(f"\\u{ord(c):04x}" for c in obj["callsign"]) + '"', 1),
}


def canonical_decimals(decimals: int, low: int, high: int):
    """Values of ``decimals`` places in [low, high], none below 1e-4 in size but zero."""
    smallest = 10 ** max(decimals - 4, 0)
    return st.integers(low * 10**decimals, high * 10**decimals).filter(
        lambda m: m == 0 or abs(m) >= smallest).map(lambda m: m / 10**decimals)


#: Attribute rows as the canonical-decimal CSV that ``ingest`` writes holds them.
CANONICAL_WAYPOINTS = st.tuples(*(
    canonical_decimals(d, low, high)
    for d, (low, high) in zip(CANONICAL_DECIMALS, ((-180, 180), (-90, 90), (-500, 20000), (0, 2000), (0, 359)))
))


def check_row_with(text: str) -> None:
    """Check that a matching row is json's text of its window, and that ``row_with`` writes json's row."""
    try:
        window = window_from_obj(json.loads(text))
    except ValueError:  # the spelling overflowed a double (inf) or an int64 (an integer cell)
        return
    if CANONICAL_ROW.fullmatch(text):
        assert text == json.dumps(window_to_obj(window))
    keys = {"completion": "(1.5, 2.0)", "latency_s": 0.25}
    assert row_with(text, window, keys) == json.dumps({**window_to_obj(window), **keys})


def _with_cell(obj: dict, row: list, column: int, text: str) -> str:
    row[column] = Text(text)
    return json_text(obj)


def _with_leading_zero(cell: str) -> str:
    sign = "-" if cell.startswith("-") else ""
    return sign + "0" + cell[len(sign) :]


#: A canonical row's text and its mutants at the edges of ``CANONICAL_ROW``, each made from a
#: window's object, one of its waypoint rows and a cell column of that row.
ROW_MUTANTS = {
    "as json writes it": lambda obj, row, column: json_text(obj),
    "trailing zero": lambda obj, row, column: _with_cell(obj, row, column, repr(row[column]) + "0"),
    "leading zero": lambda obj, row, column: _with_cell(obj, row, column, _with_leading_zero(repr(row[column]))),
    "16 digits": lambda obj, row, column: _with_cell(obj, row, column, "%#.16g" % row[column]),
    "1e-05": lambda obj, row, column: _with_cell(obj, row, column, "1e-05"),
    "int attribute cell": lambda obj, row, column: _with_cell(obj, row, column, "%.0f" % row[column]),
    "escaped callsign": lambda obj, row, column: LAYOUTS["escaped"](obj, repr),
    "missing horizon": lambda obj, row, column: LAYOUTS["no horizon"](obj, repr),
}


PLAIN_WINDOW = Window.from_columns("AB12", 60 * np.arange(20), np.full((5, 20), 1.5))


class TestCanonicalRow:
    @given(codec_windows(PLAIN_VALUES, PRINTABLE_CALLSIGNS), st.integers(0, 5 * 24), CELL_TEXTS)
    # Cells just outside the rule: 16 digits that name the same double as another 16
    # (repr 586111.6225516706 and 9357406.63692618), a superfluous zero, and 5e-05.
    @example(PLAIN_WINDOW, 0, "586111.6225516707")
    @example(PLAIN_WINDOW, 0, "9357406.636926179")
    @example(PLAIN_WINDOW, 0, "1.50")
    @example(PLAIN_WINDOW, 0, "0.00005")
    def test_a_matching_cell_is_the_one_repr_writes(self, window, at, cell):
        obj = window_to_obj(window)
        rows = obj["input"] + obj["target"]
        rows[at // 5 % len(rows)][1 + at % 5] = Text(cell)
        check_row_with(json_text(obj))

    @given(st.one_of(codec_windows(PLAIN_VALUES, PRINTABLE_CALLSIGNS), codec_windows(DECIMAL_VALUES)),
           NUMBER_TEXTS, st.sampled_from(sorted(LAYOUTS)))
    def test_a_matching_row_is_the_one_json_writes(self, window, number, layout):
        check_row_with(LAYOUTS[layout](window_to_obj(window), number))

    @given(st.lists(CANONICAL_WAYPOINTS, min_size=INPUT_LENGTH + 8, max_size=40),
           st.sampled_from((1, 4, 8)))
    def test_windows_cut_from_a_canonical_decimal_csv_match(self, rows, horizon):
        csv_text = io.StringIO()
        write_trajectories_csv([Trajectory.from_columns("AB 12", 60 * np.arange(len(rows)), np.array(rows).T)],
                               csv_text)
        (traj,) = clean_trajectories(read_adsb_csv(io.StringIO(csv_text.getvalue()))).trajectories
        out = io.StringIO()
        write_windows_jsonl(sample_windows(traj, horizon), out)
        lines = out.getvalue().splitlines()
        assert lines and all(CANONICAL_ROW.fullmatch(line) for line in lines)

    @given(st.one_of(codec_windows(PLAIN_VALUES, PRINTABLE_CALLSIGNS), codec_windows(DECIMAL_VALUES)),
           st.sampled_from(sorted(ROW_MUTANTS)), st.integers(0, 5 * 24), st.data())
    def test_the_pattern_matches_what_the_backtracking_one_matches(self, window, mutant, at, data):
        obj = window_to_obj(window)
        rows = obj["input"] + obj["target"]
        row, column = rows[at // 5 % len(rows)], 1 + at % 5
        text = ROW_MUTANTS[mutant](obj, row, column)
        for candidate in (text, text[: data.draw(st.integers(0, len(text)))]):
            assert bool(CANONICAL_ROW.fullmatch(candidate)) == bool(REFERENCE_CANONICAL_ROW.fullmatch(candidate))


# --- The stacked decoder against the per-row reference ----------------------------------

class TestStackedDecodeMatchesPerRowReference:
    @settings(max_examples=100)
    @given(window_files())
    def test_same_windows_and_errors_as_the_per_row_loop(self, text):
        want = reference_window_rows(text)
        # Row by row, as eval reads a file: each window, or the error that refuses it.
        got = list(window_rows(io.StringIO(text)))
        assert [number for number, *_ in got] == [number for number, _ in want]
        for (_, _, _, window), (_, expected) in zip(got, want):
            if isinstance(expected, str):
                assert isinstance(window, ValueError) and str(window) == expected
            else:
                assert_same_window(window, expected)
        # As the stages read a file: every window, or the first bad row's error.
        first = next(((number, message) for number, message in want if isinstance(message, str)), None)
        if first is not None:
            with pytest.raises(ValueError) as caught:
                read_window_rows(io.StringIO(text))
            assert str(caught.value) == f"row {first[0]}: {first[1]}"
        else:
            rows = read_window_rows(io.StringIO(text))
            assert [line for line, _ in rows] == list(filter(None, map(str.strip, text.splitlines())))
            for (_, window), (_, expected) in zip(rows, want, strict=True):
                assert_same_window(window, expected)

    @given(window_files(max_rows=1))
    def test_one_row_reads_as_the_reference_reads_it(self, text):
        try:
            want = reference_window_from_obj(json.loads(text))
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                window_from_obj(json.loads(text))
            assert str(caught.value) == str(exc)
        else:
            assert_same_window(window_from_obj(json.loads(text)), want)

    def test_each_window_is_a_read_only_view_of_its_group_stack(self, rng):
        text = "".join(json.dumps(window_to_obj(random_window(rng, 4))) + "\n" for _ in range(3))
        windows = read_windows_jsonl(io.StringIO(text))
        assert all(not w.values.flags.writeable and not w.timestamps.flags.writeable for w in windows)
        assert windows[0].values.base is windows[2].values.base is not None
        assert windows[0].timestamps.base is windows[2].timestamps.base is not None
