import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flightcast.prompts import (
    FailureKind,
    ParseOutcome,
    PromptRecord,
    build_prompt,
    classify_severe,
    emit_dataset,
    estimate_tokens,
    horizon_from_system,
    parse_completion,
    read_dataset,
    serialize_values,
)
from flightcast.windowing import INPUT_LENGTH, Window

from conftest import cruise_window, make_waypoint, random_window, reference_parse_completion


def column(**attributes) -> np.ndarray:
    """A (5, 1) block of one step with the given attributes, zero elsewhere."""
    return np.array(make_waypoint(**attributes).values())[:, None]


class TestSerialize:
    def test_reference_waypoint(self):
        values = np.array([[13.61184], [50.48944], [10058.400], [968.596], [125.00]])
        assert serialize_values(values) == "(13.61184, 50.48944, 10058.400, 968.596, 125.00)"

    def test_zero_waypoint(self):
        assert serialize_values(np.zeros((5, 1))) == "(0.00000, 0.00000, 0.000, 0.000, 0.00)"

    def test_two_waypoints_newline_joined(self):
        text = serialize_values(np.zeros((5, 2)))
        assert text.count("\n") == 1
        assert not text.endswith("\n")


class TestBuildPrompt:
    def test_single_step_assistant_has_one_line(self, rng):
        record = build_prompt(random_window(rng, 1), include_assistant=True)
        assert record.assistant
        assert "\n" not in record.assistant

    def test_inference_masks_assistant(self, rng):
        record = build_prompt(random_window(rng, 4), include_assistant=False)
        assert record.assistant == ""

    def test_deterministic(self, rng):
        window = random_window(rng, 8)
        assert build_prompt(window, True) == build_prompt(window, True)

    def test_user_encodes_sixteen_waypoints(self, rng):
        record = build_prompt(random_window(rng, 1), include_assistant=True)
        assert record.user.count("\n") == 15

    def test_system_states_horizon_and_units(self, rng):
        record = build_prompt(random_window(rng, 4), include_assistant=False)
        assert horizon_from_system(record.system) == 4
        for word in ("degrees", "meters", "kilometers per hour"):
            assert word in record.system

    def test_outcome_requires_exactly_one_variant(self):
        with pytest.raises(ValueError):
            ParseOutcome()
        with pytest.raises(ValueError):
            ParseOutcome(values=np.zeros((5, 0)), failure=FailureKind.MISSING_TRAJECTORY)

    def test_outcome_values_are_a_read_only_copy(self):
        block = np.zeros((5, 2))
        outcome = ParseOutcome.success(block)
        block[0, 0] = 1.0
        assert outcome.values.dtype == np.float64 and outcome.values[0, 0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            outcome.values[0, 0] = 2.0


class TestParseCompletion:
    def test_empty_completion_is_missing(self, rng):
        outcome = parse_completion("", 4, random_window(rng, 4))
        assert outcome.failure is FailureKind.MISSING_TRAJECTORY

    def test_prose_without_tuples_is_missing(self, rng):
        outcome = parse_completion("The aircraft will continue northeast.", 1, random_window(rng, 1))
        assert outcome.failure is FailureKind.MISSING_TRAJECTORY

    def test_arity_three_is_unexpected_format(self, rng):
        outcome = parse_completion("(103.2, 30.5, 10000)", 1, random_window(rng, 1))
        assert outcome.failure is FailureKind.UNEXPECTED_FORMAT

    def test_fewer_tuples_than_horizon(self, rng):
        window = cruise_window(rng, 4)
        text = serialize_values(window.values[:, INPUT_LENGTH : INPUT_LENGTH + 2])
        outcome = parse_completion(text, 4, window)
        assert outcome.failure is FailureKind.UNEXPECTED_FORMAT

    def test_non_numeric_field(self, rng):
        outcome = parse_completion("(1.0, 2.0, three, 4.0, 5.0)", 1, random_window(rng, 1))
        assert outcome.failure is FailureKind.UNEXPECTED_FORMAT
        assert "three" in outcome.diagnostic

    def test_tolerates_prose_and_markdown(self, rng):
        window = cruise_window(rng, 1)
        text = (
            "Here is my prediction (based on the trend):\n"
            f"**{serialize_values(window.values[:, INPUT_LENGTH:])}**\n"
            "Let me know if you need more."
        )
        outcome = parse_completion(text, 1, window)
        assert outcome.ok
        assert np.array_equal(outcome.values, window.values[:, INPUT_LENGTH:])

    def test_extras_ignored_with_diagnostic(self, rng):
        window = cruise_window(rng, 1)
        text = serialize_values(window.values[:, [INPUT_LENGTH, INPUT_LENGTH]])
        outcome = parse_completion(text, 1, window)
        assert outcome.ok
        assert "extra" in outcome.diagnostic

    def test_round_trip_reproduces_targets(self, rng):
        for horizon in (1, 4, 8):
            for _ in range(50):
                window = random_window(rng, horizon)
                outcome = parse_completion(serialize_values(window.values[:, INPUT_LENGTH:]), horizon, window)
                assert outcome.ok
                assert outcome.values.shape == (5, horizon)
                assert np.array_equal(outcome.values, window.values[:, INPUT_LENGTH:])

    def test_never_raises_on_arbitrary_bytes(self, rng):
        window = random_window(rng, 4)
        for _ in range(300):
            length = int(rng.integers(0, 120))
            blob = bytes(rng.integers(0, 256, size=length, dtype="uint8"))
            text = blob.decode("utf-8", errors="replace")
            outcome = parse_completion(text, 4, window)
            assert outcome.ok or outcome.failure is not None

    @pytest.mark.parametrize("text", [42, 4.2, None, ["(1.0, 2.0, 3.0, 4.0, 5.0)"], {"content": "x"}])
    def test_non_string_completion_is_unexpected_format(self, text, rng):
        outcome = parse_completion(text, 1, random_window(rng, 1))
        assert outcome.failure is FailureKind.UNEXPECTED_FORMAT
        assert type(text).__name__ in outcome.diagnostic

    @pytest.mark.parametrize("field", range(5))
    def test_number_too_long_for_a_double_is_severe(self, field, rng):
        # float() reads it as infinity, which no score may include.
        window = cruise_window(rng, 1)
        items = serialize_values(window.values[:, INPUT_LENGTH:])[1:-1].split(", ")
        items[field] = "1" + "0" * 400
        outcome = parse_completion("(" + ", ".join(items) + ")", 1, window)
        assert outcome.failure is FailureKind.SEVERE_DEVIATION

    def test_block_with_two_bad_steps_names_the_first(self, rng):
        window = cruise_window(rng, 4)
        block = np.array(window.values[:, INPUT_LENGTH:])
        block[0, [1, 3]] *= -1.0  # steps 2 and 4 flip the longitude's sign
        assert classify_severe(block, window).tolist() == [False, True, False, True]
        outcome = parse_completion(serialize_values(block), 4, window)
        assert outcome.failure is FailureKind.SEVERE_DEVIATION
        assert outcome.diagnostic.startswith("waypoint 2 deviates")


class TestClassifySevere:
    def window_at(self, lon, lat, rng):
        window = cruise_window(rng, 1)
        values = np.array(window.values)
        values[:2, INPUT_LENGTH - 1] = lon, lat
        return Window.from_columns(window.callsign, window.timestamps, values)

    def test_sign_flip_is_severe(self, rng):
        window = self.window_at(103.2, 30.5, rng)
        predicted = column(longitude=-103.2, latitude=30.5, altitude=10000.0)
        assert classify_severe(predicted, window).tolist() == [True]

    def test_last_input_itself_is_not_severe(self, rng):
        for _ in range(100):
            window = random_window(rng, 1)
            assert classify_severe(window.values[:, INPUT_LENGTH - 1 : INPUT_LENGTH], window).tolist() == [False]

    def test_small_step_is_not_severe(self, rng):
        window = self.window_at(103.2, 30.5, rng)
        predicted = column(longitude=104.0, latitude=30.5)
        assert classify_severe(predicted, window).tolist() == [False]

    def test_outside_coordinate_box_is_severe(self, rng):
        window = self.window_at(179.0, 30.5, rng)
        assert classify_severe(column(longitude=181.0, latitude=30.5), window).tolist() == [True]

    def test_radius_is_configurable(self, rng):
        window = self.window_at(103.2, 30.5, rng)
        predicted = column(longitude=104.5, latitude=30.5)
        assert classify_severe(predicted, window, radius=5.0).tolist() == [False]
        assert classify_severe(predicted, window, radius=1.0).tolist() == [True]

    def test_parse_flags_severe_deviation(self, rng):
        window = self.window_at(103.2, 30.5, rng)
        outcome = parse_completion("(-103.2, 30.5, 10000.0, 900.0, 90.0)", 1, window)
        assert outcome.failure is FailureKind.SEVERE_DEVIATION


# --- Block parse against the per-waypoint reference ----------------------------

OVERFLOW = "1" + "0" * 400
#: Last observed coordinates: both sides of the sign-flip threshold |last| = 1.0,
#: zero, and positions near the edges of the coordinate box.
LAST_COORDINATES = (0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 3.0, 89.9, 103.2, 179.9)
#: Coordinate texts at and just past the edges of the box.
BOX_EDGES = ("180", "180.0", "180.00001", "179.99999", "90", "90.00001", "89.99999", "0", "0.0")
NOT_A_NUMBER = ("", "abc", "1e5", "nan", "inf", "--1", "1.2.3")


def positional(value: float) -> str:
    """Shortest text that reads back as ``value``, never with an exponent."""
    return np.format_float_positional(value)


@st.composite
def edge_coordinate(draw, kind: str, last: float, radius: float) -> str:
    """A longitude or latitude at a radius edge, a sign flip, a box edge, anywhere, or past a double."""
    if kind == "radius":
        edge = draw(st.sampled_from((np.nextafter(radius, 0.0), radius, np.nextafter(radius, np.inf))))
        return positional(last + draw(st.sampled_from((-1.0, 1.0))) * edge)
    if kind == "flip":
        return positional(-last + draw(st.sampled_from((0.0, 1e-9, -1e-9))))
    if kind == "box":
        return draw(st.sampled_from(("", "-", "+"))) + draw(st.sampled_from(BOX_EDGES))
    if kind == "any":
        return positional(draw(st.floats(-400.0, 400.0)))
    return draw(st.sampled_from(("", "-"))) + OVERFLOW


@st.composite
def replies(draw):
    """A context window, a horizon, a radius and a reply with edge-case tuples.

    Most coordinates stay within half a degree of the last observed position;
    up to three are drawn from one edge kind, and at most one tuple has a
    defect: wrong arity, a non-numeric field, or a number past a double.
    """
    horizon = draw(st.sampled_from((1, 2, 4, 8)))
    radius = draw(st.sampled_from((0.5, 1.0, 5.0)))
    last = [draw(st.sampled_from(LAST_COORDINATES)) * draw(st.sampled_from((-1.0, 1.0))) for _ in range(2)]
    values = np.zeros((5, INPUT_LENGTH + horizon))
    values[:2, INPUT_LENGTH - 1] = last
    context = Window.from_columns("DIF", 60 * np.arange(INPUT_LENGTH + horizon), values)

    count = horizon + draw(st.sampled_from((0, 0, 0, 0, 1, 3, -1, -horizon)))
    kind = draw(st.sampled_from(("radius", "flip", "box", "any", "overflow")))
    edges = draw(st.sets(st.integers(0, 2 * count - 1), max_size=3)) if count else set()
    rows = []
    for t in range(count):
        row = [
            draw(edge_coordinate(kind, last[a], radius)) if 2 * t + a in edges
            else positional(last[a] + draw(st.floats(-0.5, 0.5)))
            for a in range(2)
        ]
        row += [positional(draw(st.floats(-1000.0, 20000.0))) for _ in range(3)]
        rows.append(row)

    defect = draw(st.sampled_from(("none",) * 4 + ("arity", "text", "overflow")))
    if rows and defect != "none":
        row = rows[draw(st.integers(0, count - 1))]
        if defect == "arity":
            row[:] = row[: draw(st.integers(1, 4))] if draw(st.booleans()) else row + ["1.0"]
        elif defect == "text":
            row[draw(st.sampled_from(range(5)))] = draw(st.sampled_from(NOT_A_NUMBER))
        else:  # coordinates past a double come from the "overflow" edge kind
            row[draw(st.sampled_from((2, 3, 4)))] = draw(st.sampled_from(("", "-"))) + OVERFLOW
    return "\n".join("(" + ", ".join(row) + ")" for row in rows), horizon, context, radius


class TestBlockParseMatchesReference:
    @settings(max_examples=400)
    @given(replies())
    def test_same_class_diagnostic_and_bits(self, reply):
        text, horizon, context, radius = reply
        got = parse_completion(text, horizon, context, radius)
        waypoints, failure, diagnostic = reference_parse_completion(text, horizon, context, radius)
        assert (got.ok, got.failure, got.diagnostic) == (waypoints is not None, failure, diagnostic)
        if waypoints is not None:
            want = np.array([w.values() for w in waypoints]).T
            assert got.values.shape == want.shape == (5, horizon)
            assert got.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("last", [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_sign_flip_threshold(self, last, sign, axis):
        values = np.zeros((5, INPUT_LENGTH + 1))
        values[:2, INPUT_LENGTH - 1] = 50.0
        values[axis, INPUT_LENGTH - 1] = sign * last
        context = Window.from_columns("FLP", 60 * np.arange(INPUT_LENGTH + 1), values)
        for flipped in (-sign * last, -sign * 1e-9, 0.0, -0.0, sign * 1e-9):
            row = ["50.0", "50.0", "1000.0", "500.0", "90.0"]
            row[axis] = positional(flipped)
            text = "(" + ", ".join(row) + ")"
            waypoints, failure, diagnostic = reference_parse_completion(text, 1, context)
            got = parse_completion(text, 1, context)
            assert (got.failure, got.diagnostic) == (failure, diagnostic), text


class TestEmitDataset:
    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "data.jsonl"
        manifest = emit_dataset([], path)
        assert path.read_text() == ""
        assert manifest["records"] == 0
        sidecar = json.loads((tmp_path / "data.jsonl.manifest.json").read_text())
        assert sidecar == manifest

    def test_two_records(self, tmp_path, rng):
        records = [build_prompt(random_window(rng, 4), True) for _ in range(2)]
        path = tmp_path / "data.jsonl"
        manifest = emit_dataset(records, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(set(json.loads(l)) == {"system", "user", "assistant"} for l in lines)
        assert manifest["horizon"] == 4
        assert manifest["template_version"] == records[0].template_version
        assert read_dataset(path) == records

    def test_deterministic_bytes(self, tmp_path, rng):
        records = [build_prompt(random_window(rng, 1), True) for _ in range(3)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        emit_dataset(records, a)
        emit_dataset(records, b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.jsonl.manifest.json").read_text() == (
            tmp_path / "b.jsonl.manifest.json"
        ).read_text()

    def test_mixed_template_versions_rejected(self, tmp_path, rng):
        good = build_prompt(random_window(rng, 1), True)
        bad = PromptRecord(good.system, good.user, good.assistant, template_version="other")
        with pytest.raises(ValueError, match="template versions"):
            emit_dataset([good, bad], tmp_path / "x.jsonl")

    def test_mixed_horizons_rejected(self, tmp_path, rng):
        records = [build_prompt(random_window(rng, horizon), True) for horizon in (4, 1, 4)]
        with pytest.raises(ValueError, match=r"records mix horizons: \[1, 4\]"):
            emit_dataset(records, tmp_path / "x.jsonl")


class TestEstimateTokens:
    def test_number_is_one_token(self):
        assert estimate_tokens("103.25") == 1

    def test_word_is_one_token(self):
        # "climb", "to", "8000", "m" and three spaces
        assert estimate_tokens("climb to 8000 m") == 7

    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_small_tuple(self):
        # 2 numbers + "(" + "," + " " + ")" = 6
        assert estimate_tokens("(1.0, 2.0)") == 6
