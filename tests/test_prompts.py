import json

import numpy as np
import pytest

from flightcast.domain import Waypoint
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

from conftest import cruise_window, make_waypoint, random_window


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
            ParseOutcome(waypoints=(), failure=FailureKind.MISSING_TRAJECTORY)


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
        assert outcome.waypoints == window.targets

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
                assert outcome.waypoints == window.targets

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

    def test_parsed_timestamps_continue_the_window(self, rng):
        window = cruise_window(rng, 4)
        outcome = parse_completion(serialize_values(window.values[:, INPUT_LENGTH:]), 4, window)
        last = window.inputs[-1].timestamp
        assert [w.timestamp for w in outcome.waypoints] == [last + 60 * k for k in (1, 2, 3, 4)]


class TestClassifySevere:
    def window_at(self, lon, lat, rng):
        window = cruise_window(rng, 1)
        inputs = list(window.inputs)
        last = inputs[-1]
        inputs[-1] = Waypoint(last.timestamp, lon, lat, last.altitude, last.velocity, last.heading)
        return Window(window.callsign, tuple(inputs) + window.targets)

    def test_sign_flip_is_severe(self, rng):
        window = self.window_at(103.2, 30.5, rng)
        predicted = make_waypoint(longitude=-103.2, latitude=30.5, altitude=10000.0)
        assert classify_severe(predicted, window)

    def test_last_input_itself_is_not_severe(self, rng):
        for _ in range(100):
            window = random_window(rng, 1)
            assert not classify_severe(window.inputs[-1], window)

    def test_small_step_is_not_severe(self, rng):
        window = self.window_at(103.2, 30.5, rng)
        predicted = make_waypoint(longitude=104.0, latitude=30.5)
        assert not classify_severe(predicted, window)

    def test_outside_coordinate_box_is_severe(self, rng):
        window = self.window_at(179.0, 30.5, rng)
        assert classify_severe(make_waypoint(longitude=181.0, latitude=30.5), window)

    def test_radius_is_configurable(self, rng):
        window = self.window_at(103.2, 30.5, rng)
        predicted = make_waypoint(longitude=104.5, latitude=30.5)
        assert not classify_severe(predicted, window, radius=5.0)
        assert classify_severe(predicted, window, radius=1.0)

    def test_parse_flags_severe_deviation(self, rng):
        window = self.window_at(103.2, 30.5, rng)
        outcome = parse_completion("(-103.2, 30.5, 10000.0, 900.0, 90.0)", 1, window)
        assert outcome.failure is FailureKind.SEVERE_DEVIATION


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
