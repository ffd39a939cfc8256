import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flightcast.domain import ATTRIBUTES, PhaseLabel, Waypoint
from flightcast.evaluation import (
    AttributeStats,
    MetricsReport,
    ReportFormat,
    emit_report,
    evaluate,
    few_shot_split,
    mae,
    mean_latency,
    rmse,
    segment_phase,
)
from flightcast.prompts import FailureKind, ParseOutcome
from flightcast.windowing import INPUT_LENGTH, Window

from conftest import cruise_window, not_json, reference_mae, reference_rmse


LARGEST = float(np.finfo(np.float64).max)


def brute_mae(truth, pred):
    return sum(abs(a - b) for a, b in zip(truth, pred)) / len(truth)


def brute_rmse(truth, pred):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(truth, pred)) / len(truth))


class TestMetricPrimitives:
    def test_mae_examples(self):
        assert mae([1, 2, 3], [1, 2, 3]) == 0.0
        assert mae([0, 0], [1, 3]) == 2.0
        assert mae([5], [2]) == 3.0

    def test_rmse_examples(self):
        assert rmse([1, 2, 3], [1, 2, 3]) == 0.0
        assert rmse([0, 0], [1, 3]) == pytest.approx(math.sqrt(5), abs=1e-12)
        assert rmse([5], [2]) == 3.0  # n=1 degenerates to MAE

    def test_latency_examples(self):
        assert mean_latency([1.0]) == 1.0
        assert mean_latency([1.0, 3.0]) == 2.0
        assert mean_latency([0.0, 0.0]) == 0.0
        # Where the sum overflows, each latency is divided by the count first.
        largest = np.finfo(np.float64).max
        assert mean_latency([1.7e308, 1.7e308]) == 1.7e308
        assert mean_latency([1.7e308, 0.0]) == 0.85e308
        assert mean_latency([largest] * 3) == largest

    def test_errors(self):
        with pytest.raises(ValueError):
            mae([], [])
        with pytest.raises(ValueError):
            mae([1, 2], [1])
        with pytest.raises(ValueError):
            rmse([1.0], [float("nan")])
        with pytest.raises(ValueError):
            mean_latency([])
        with pytest.raises(ValueError):
            mean_latency([-1.0])

    def test_against_brute_force(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 64))
            truth = rng.uniform(-1000, 1000, size=n)
            pred = rng.uniform(-1000, 1000, size=n)
            assert mae(truth, pred) == pytest.approx(brute_mae(truth, pred), abs=1e-12)
            assert rmse(truth, pred) == pytest.approx(brute_rmse(truth, pred), abs=1e-12)
            assert rmse(truth, pred) >= mae(truth, pred)

    @given(st.lists(st.one_of(st.floats(-LARGEST, LARGEST), st.floats(1e150, LARGEST)), min_size=1, max_size=40))
    @example([LARGEST, LARGEST])
    @example([1e200, 0.0, 1.0])
    @example([1e154, 1e154])
    def test_scores_stay_finite_up_to_the_largest_error(self, errors):
        truth = [0.0] * len(errors)
        scores = mae(truth, errors), rmse(truth, errors)
        assert all(math.isfinite(score) for score in scores)
        assert scores[1] >= scores[0] - 1e-12 * max(1.0, scores[0])
        # Only where the plain sorted mean overflows may a score differ from it.
        for score, reference in zip(scores, (reference_mae(errors), reference_rmse(errors))):
            if math.isfinite(reference):
                assert np.float64(score).tobytes() == np.float64(reference).tobytes()


class TestSegmentPhase:
    def base_window(self, altitudes):
        inputs = tuple(
            Waypoint(60 * i, 100.0, 30.0, altitudes[i], 800.0, 90.0) for i in range(INPUT_LENGTH)
        )
        return Window("PH", inputs)

    def test_constant_altitude_is_cruise(self):
        window = self.base_window([10000.0] * INPUT_LENGTH)
        assert segment_phase(window) is PhaseLabel.CRUISE

    def test_fast_climb_is_take_off(self):
        # 3000 m over 15 minutes is 3.33 m/s.
        altitudes = [1000.0 + 3000.0 * i / 15 for i in range(INPUT_LENGTH)]
        assert segment_phase(self.base_window(altitudes)) is PhaseLabel.TAKE_OFF

    def test_fast_descent_is_landing(self):
        # 2700 m down over 15 minutes is -3.0 m/s.
        altitudes = [9000.0 - 2700.0 * i / 15 for i in range(INPUT_LENGTH)]
        assert segment_phase(self.base_window(altitudes)) is PhaseLabel.LANDING


def success_sample(window: Window, predicted=None, latency=0.5):
    block = predicted if predicted is not None else window.values[:, INPUT_LENGTH:]
    return (window, ParseOutcome(values=block), latency)


def failed_sample(window: Window, kind: FailureKind, latency=0.5):
    return (window, ParseOutcome(failure=kind, diagnostic="scripted"), latency)


#: Climb, level and descent rates (m per minute) on either side of the phase threshold.
PHASE_RATES = (240.0, 0.0, -240.0)
OUTCOMES = ("ok",) * 3 + tuple(FailureKind)


def phase_sample(rng, horizon: int, rate: float, kind):
    """A window climbing, cruising or descending at ``rate``, with a noisy
    prediction when ``kind`` is "ok" and a scripted failure otherwise."""
    start = int(rng.integers(0, 10_000)) * 60
    lon, lat = float(rng.uniform(95.0, 115.0)), float(rng.uniform(20.0, 45.0))
    waypoints = [
        Waypoint(start + 60 * i, lon + 0.1 * i, lat - 0.05 * i, 5000.0 + rate * i,
                 float(rng.uniform(300.0, 900.0)), float(rng.uniform(0.0, 360.0)))
        for i in range(INPUT_LENGTH + horizon)
    ]
    window = Window("PHS", tuple(waypoints))
    if kind != "ok":
        return failed_sample(window, kind, latency=float(rng.uniform(0.0, 2.0)))
    noise = rng.normal(scale=(0.05, 0.05, 30.0, 10.0, 5.0), size=(horizon, len(ATTRIBUTES)))
    predicted = window.values[:, INPUT_LENGTH:] + noise.T
    return success_sample(window, predicted, latency=float(rng.uniform(0.0, 2.0)))


class TestEvaluate:
    def test_perfect_predictions_zero_errors(self, rng):
        samples = [success_sample(cruise_window(rng, 4)) for _ in range(5)]
        report = evaluate(samples)
        for stats in report.attributes.values():
            assert stats.mae == 0.0
            assert stats.rmse == 0.0
        assert report.evaluated == 5

    def test_bookkeeping_with_one_failure(self, rng):
        window = cruise_window(rng, 1)
        samples = [
            success_sample(window),
            failed_sample(cruise_window(rng, 1), FailureKind.MISSING_TRAJECTORY),
        ]
        report = evaluate(samples)
        assert report.evaluated == 1
        assert report.failed_missing == 1
        assert report.total_submitted == 2
        assert report.attributes is not None

    def test_counts_partition_samples(self, rng):
        samples = [
            success_sample(cruise_window(rng, 4)),
            failed_sample(cruise_window(rng, 4), FailureKind.MISSING_TRAJECTORY),
            failed_sample(cruise_window(rng, 4), FailureKind.UNEXPECTED_FORMAT),
            failed_sample(cruise_window(rng, 4), FailureKind.SEVERE_DEVIATION),
        ]
        report = evaluate(samples)
        assert report.evaluated == 1
        assert report.failed_missing == 1
        assert report.failed_format == 1
        assert report.excluded_severe == 1
        assert report.total_submitted == len(samples)

    def test_pooled_metrics_match_flattened_oracle(self, rng):
        samples = []
        for _ in range(3):
            window = cruise_window(rng, 4)
            offsets = rng.uniform((-0.1, -0.1, -40, -5, 0), (0.1, 0.1, 40, 5, 0), size=(4, len(ATTRIBUTES)))
            samples.append(success_sample(window, window.values[:, INPUT_LENGTH:] + offsets.T))
        report = evaluate(samples)
        for col, attr in enumerate(ATTRIBUTES):
            truth = [t for w, o, _ in samples for t in w.values[col, INPUT_LENGTH:].tolist()]
            pred = [p for w, o, _ in samples for p in o.values[col].tolist()]
            assert len(truth) == 12
            assert report.attributes[attr].mae == pytest.approx(brute_mae(truth, pred), abs=1e-12)
            assert report.attributes[attr].rmse == pytest.approx(brute_rmse(truth, pred), abs=1e-12)

    def test_latency_includes_failures(self, rng):
        samples = [
            success_sample(cruise_window(rng, 1), latency=1.0),
            failed_sample(cruise_window(rng, 1), FailureKind.MISSING_TRAJECTORY, latency=3.0),
        ]
        assert evaluate(samples).mean_latency_s == 2.0

    def test_zero_successes_metrics_unavailable(self, rng):
        samples = [failed_sample(cruise_window(rng, 4), FailureKind.MISSING_TRAJECTORY)]
        report = evaluate(samples)
        assert report.attributes is None
        assert report.failed_missing == 1
        assert report.mean_latency_s == 0.5

    def test_permutation_invariance(self, rng):
        samples = []
        for _ in range(12):
            window = cruise_window(rng, 4)
            offsets = rng.uniform((-0.2, 0, -100, 0, 0), (0.2, 0, 100, 0, 0), size=(4, len(ATTRIBUTES)))
            predicted = window.values[:, INPUT_LENGTH:] + offsets.T
            samples.append(success_sample(window, predicted, latency=float(rng.uniform(0, 2))))
        report_a = evaluate(samples)
        shuffled = [samples[i] for i in rng.permutation(len(samples))]
        report_b = evaluate(shuffled)
        for attr in ATTRIBUTES:
            assert report_a.attributes[attr] == report_b.attributes[attr]
        assert report_a.mean_latency_s == report_b.mean_latency_s

    def test_removing_excluded_sample_changes_nothing(self, rng):
        good = [success_sample(cruise_window(rng, 4)) for _ in range(3)]
        severe = failed_sample(cruise_window(rng, 4), FailureKind.SEVERE_DEVIATION)
        with_severe = evaluate(good + [severe])
        without = evaluate(good)
        for attr in ATTRIBUTES:
            assert with_severe.attributes[attr] == without.attributes[attr]

    def test_mixed_horizons_rejected(self, rng):
        samples = [success_sample(cruise_window(rng, 1)), success_sample(cruise_window(rng, 4))]
        with pytest.raises(ValueError, match="horizons"):
            evaluate(samples)

    @pytest.mark.parametrize("steps", [3, 5])
    def test_block_of_another_horizon_rejected(self, steps, rng):
        window = cruise_window(rng, 4)
        block = window.values[:, INPUT_LENGTH - 1 :][:, :steps]
        with pytest.raises(ValueError, match=rf"shape \(5, {steps}\) for a horizon-4 window"):
            evaluate([success_sample(window, block)])

    @given(
        horizon=st.sampled_from((1, 4, 8)),
        kinds=st.lists(st.tuples(st.sampled_from(PHASE_RATES), st.sampled_from(OUTCOMES)), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_pool_matches_brute_force(self, horizon, kinds, seed):
        rng = np.random.default_rng(seed)
        samples = [phase_sample(rng, horizon, rate, kind) for rate, kind in kinds]
        report = evaluate(samples)

        entire, by_phase, by_step = [], {}, {}
        for window, outcome, _ in samples:
            if outcome.ok:
                phase = segment_phase(window).value
                for step, pair in enumerate(zip(window.values[:, INPUT_LENGTH:].T, outcome.values.T), start=1):
                    entire.append(pair)
                    by_phase.setdefault(phase, []).append(pair)
                    by_step.setdefault(step, []).append(pair)

        def check(stats, pairs):
            for col, attr in enumerate(ATTRIBUTES):
                truth = [t[col] for t, _ in pairs]
                pred = [p[col] for _, p in pairs]
                assert stats[attr].mae == mae(truth, pred)
                assert stats[attr].rmse == rmse(truth, pred)
                assert stats[attr].mae == pytest.approx(brute_mae(truth, pred), rel=1e-12, abs=1e-12)
                assert stats[attr].rmse == pytest.approx(brute_rmse(truth, pred), rel=1e-12, abs=1e-12)

        assert report.evaluated == sum(outcome.ok for _, outcome, _ in samples)
        assert report.total_submitted == len(samples)
        if entire:
            check(report.attributes, entire)
        else:
            assert report.attributes is None
        assert sorted(report.phases) == sorted(by_phase)
        for name, pairs in by_phase.items():
            assert report.phases[name].samples == len(pairs) // horizon
            check(report.phases[name].attributes, pairs)
        assert sorted(report.per_step) == sorted(by_step)
        for step, pairs in by_step.items():
            check(report.per_step[step], pairs)

    def test_phase_subreports(self, rng):
        climb = [
            Waypoint(60 * i, 100.0, 30.0, 1000.0 + 250.0 * i, 700.0, 90.0)
            for i in range(INPUT_LENGTH + 1)
        ]
        window_climb = Window("UP", tuple(climb))
        window_cruise = cruise_window(rng, 1)
        report = evaluate([success_sample(window_climb), success_sample(window_cruise)])
        assert report.phases[PhaseLabel.TAKE_OFF.value].samples == 1
        assert report.phases[PhaseLabel.CRUISE.value].samples == 1


class TestFewShotSplit:
    def test_full_proportion_is_identity(self):
        data = list(range(17))
        assert few_shot_split(data, 1.0, seed=0) == data

    def test_exact_cardinality(self):
        data = list(range(1000))
        subset = few_shot_split(data, 0.01, seed=1)
        assert len(subset) == 10

    def test_deterministic(self):
        data = list(range(200))
        assert few_shot_split(data, 0.3, seed=7) == few_shot_split(data, 0.3, seed=7)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            few_shot_split([1, 2], 0.0, seed=0)
        with pytest.raises(ValueError):
            few_shot_split([1, 2], 1.5, seed=0)

    @pytest.mark.parametrize("seed", [-1, True])
    def test_a_seed_that_is_not_an_integer_from_0_is_rejected(self, seed):
        with pytest.raises(ValueError, match=f"^seed {seed!r} is not an integer >= 0$"):
            few_shot_split(list(range(10)), 1.0, seed=seed)

    def test_rounds_to_zero(self):
        with pytest.raises(ValueError, match="zero"):
            few_shot_split(list(range(10)), 0.01, seed=0)

    def test_sampling_without_replacement(self):
        data = list(range(100))
        subset = few_shot_split(data, 0.5, seed=3)
        assert len(subset) == 50
        assert len(set(subset)) == 50
        assert all(x in data for x in subset)


class TestEmitReport:
    def make_report(self, rng, horizon=4):
        samples = []
        for _ in range(6):
            window = cruise_window(rng, horizon)
            predicted = window.values[:, INPUT_LENGTH:] + np.array([[0.01], [-0.02], [25.0], [2.0], [0.0]])
            samples.append(success_sample(window, predicted, latency=0.25))
        return evaluate(samples, model="testmodel", template_version="v1")

    def test_zero_error_table_shows_zeros(self, rng):
        report = evaluate([success_sample(cruise_window(rng, 1))], model="m")
        table = emit_report(report, ReportFormat.TABLE)
        assert "0.0000" in table

    def test_table_contains_phases_when_present(self, rng):
        report = self.make_report(rng)
        table = emit_report(report, ReportFormat.TABLE)
        assert "entire" in table
        assert "cruise" in table

    def test_csv_round_trip(self, rng):
        report = self.make_report(rng)
        text = emit_report(report, ReportFormat.CSV)
        rows = list(csv.DictReader(io.StringIO(text)))
        by_key = {
            (r["phase"], r["step"], r["attribute"], r["metric"]): float(r["value"]) for r in rows
        }
        for attr in ATTRIBUTES:
            assert by_key[("entire", "all", attr, "mae")] == report.attributes[attr].mae
            assert by_key[("entire", "all", attr, "rmse")] == report.attributes[attr].rmse
        assert by_key[("entire", "all", "latency", "mean_s")] == report.mean_latency_s
        # Per-step breakdown rides along.
        assert ("entire", "1", "longitude", "mae") in by_key
        assert all(r["model"] == "testmodel" and r["horizon"] == "4" for r in rows)

    def test_json_round_trip(self, rng):
        report = self.make_report(rng)
        text = emit_report(report, ReportFormat.JSON)
        back = MetricsReport.from_dict(json.loads(text))
        assert back == report

    def test_from_dict_ignores_keys_that_name_no_field(self, rng):
        report = self.make_report(rng)
        obj = json.loads(emit_report(report, ReportFormat.JSON))
        obj["note"] = "extra"
        obj["counts"]["retried"] = 3
        obj["attributes"]["longitude"]["samples"] = 12
        obj["phases"]["cruise"]["attributes"]["heading"]["median"] = 0.5
        obj["per_step"]["1"]["latitude"]["n"] = 4
        assert MetricsReport.from_dict(obj) == report

    def test_rmse_not_below_mae_everywhere(self, rng):
        report = self.make_report(rng)
        for fmt in ReportFormat:
            emit_report(report, fmt)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda obj: obj["attributes"]["longitude"].update(rmse=math.nan),
             "attributes longitude RMSE nan is not a finite number >= 0"),
            (lambda obj: obj["phases"]["cruise"]["attributes"]["altitude"].update(mae=math.inf),
             "phase cruise altitude MAE inf is not a finite number >= 0"),
            (lambda obj: obj["per_step"]["2"]["heading"].update(rmse=-math.inf),
             "step 2 heading RMSE -inf is not a finite number >= 0"),
            (lambda obj: obj["attributes"]["latitude"].update(mae=1.0, rmse=0.5), "RMSE < MAE for latitude"),
            (lambda obj: obj["per_step"]["4"]["velocity"].update(mae=-1.0),
             "step 4 velocity MAE -1.0 is not a finite number >= 0"),
            (lambda obj: obj.update(model="a\rb"), "model 'a\\rb' is not one line of text"),
            (lambda obj: obj.update(template_version=None), "template_version None is not a string"),
            (lambda obj: obj.update(mean_latency_s=-0.5), "mean_latency_s -0.5 is not a finite number >= 0"),
            (lambda obj: obj.update(mean_latency_s=math.inf), "mean_latency_s inf is not a finite number >= 0"),
            (lambda obj: obj.update(mean_latency_s=True), "mean_latency_s True is not a finite number >= 0"),
            (lambda obj: obj.update(mean_latency_s="x"), "mean_latency_s 'x' is not a finite number >= 0"),
            pytest.param(lambda obj: obj.update(mean_latency_s=10**400),
                         f"mean_latency_s {10**400} is not a finite number >= 0", id="latency-past-the-double-range"),
            (lambda obj: obj["attributes"]["longitude"].update(mae=False),
             "attributes longitude MAE False is not a finite number >= 0"),
            pytest.param(lambda obj: obj["attributes"]["longitude"].update(mae=10**400, rmse=10**400),
                         f"attributes longitude MAE {10**400} is not a finite number >= 0",
                         id="mae-past-the-double-range"),
            (lambda obj: obj["phases"]["cruise"]["attributes"]["heading"].update(rmse="0.5"),
             "phase cruise heading RMSE '0.5' is not a finite number >= 0"),
            (lambda obj: obj["per_step"]["3"]["altitude"].update(mae=None),
             "step 3 altitude MAE None is not a finite number >= 0"),
            (lambda obj: obj["per_step"].update({"0": obj["per_step"].pop("1")}), "step 0 is not an integer >= 1"),
            (lambda obj: obj["per_step"].update({"-2": obj["per_step"].pop("2")}),
             "per_step key '-2' is not a whole number as str() writes it"),
            *((lambda obj, key=key: obj["per_step"].update({key: {a: {"mae": 9.0, "rmse": 9.0} for a in ATTRIBUTES}}),
               f"per_step key {key!r} is not a whole number as str() writes it") for key in ("03", "+3", " 3", "x")),
            (lambda obj: obj["per_step"].update({"5": obj["per_step"]["4"]}), "step 5 is not an integer in 1..4"),
            (lambda obj: obj.update(horizon="4\nx"), "horizon '4\\nx' is not an integer >= 0"),
            (lambda obj: obj.update(horizon=-1), "horizon -1 is not an integer >= 0"),
            (lambda obj: obj.update(horizon=True), "horizon True is not an integer >= 0"),
            (lambda obj: obj.update(horizon=4.0), "horizon 4.0 is not an integer >= 0"),
            (lambda obj: obj["counts"].update(excluded_severe=-3), "excluded_severe -3 is not an integer >= 0"),
            (lambda obj: obj["counts"].update(failed_format="many"), "failed_format 'many' is not an integer >= 0"),
            (lambda obj: obj["counts"].update(evaluated=False), "evaluated False is not an integer >= 0"),
            (lambda obj: obj["phases"]["cruise"].update(samples="6\nx"),
             "phase cruise samples '6\\nx' is not an integer >= 0"),
            (lambda obj: obj["attributes"].pop("latitude"), "attributes does not hold exactly the attributes"),
            (lambda obj: obj["phases"]["cruise"]["attributes"].pop("heading"),
             "phase cruise does not hold exactly the attributes"),
            (lambda obj: obj["per_step"]["3"].update(speed={"mae": 1.0, "rmse": 1.0}),
             "step 3 does not hold exactly the attributes"),
        ],
    )
    def test_from_dict_refuses_a_report_that_breaks_a_rule(self, rng, edit, message):
        obj = json.loads(emit_report(self.make_report(rng), ReportFormat.JSON))
        edit(obj)
        with pytest.raises(ValueError, match=re.escape(message)):
            MetricsReport.from_dict(obj)

    @pytest.mark.parametrize("key", ["model", "template_version"])
    def test_evaluate_refuses_a_name_of_more_than_one_line(self, rng, key):
        with pytest.raises(ValueError, match=re.escape(f"{key} 'a\\rb' is not one line of text")):
            evaluate([success_sample(cruise_window(rng, 1))], **{key: "a\rb"})

    def test_evaluate_keeps_rmse_finite_where_the_squared_errors_overflow(self, rng):
        windows = [cruise_window(rng, 4) for _ in range(3)]
        missed = windows[1].values[:, INPUT_LENGTH:] + np.array([[0.0], [0.0], [1e200], [0.0], [0.0]])
        report = evaluate([success_sample(windows[0]), success_sample(windows[1], missed), success_sample(windows[2])])
        for stats in (report.attributes, report.phases["cruise"].attributes, *report.per_step.values()):
            assert math.isfinite(stats["altitude"].rmse) and stats["altitude"].rmse >= stats["altitude"].mae > 0
        assert json.loads(emit_report(report, ReportFormat.JSON), parse_constant=not_json)

    def test_a_table_number_past_14_characters_is_written_in_scientific_notation(self, rng):
        report = self.make_report(rng)
        for latency, text in [(999999999.0, "999999999.0000"), (1e9, "1.0000e+09"), (1e300, "1.0000e+300")]:
            report.mean_latency_s = latency
            assert f"mean latency: {text} s\n" in emit_report(report, ReportFormat.TABLE)
        report.attributes["altitude"] = AttributeStats(mae=4e199, rmse=2e200)
        table = emit_report(report, ReportFormat.TABLE)
        assert "4.0000e+199" in table and "2.0000e+200" in table
        assert max(map(len, table.splitlines())) <= 120

    def test_a_table_number_too_small_for_four_decimals_is_written_in_scientific_notation(self, rng):
        report = self.make_report(rng)
        for latency, text in [(2.02e-05, "2.0200e-05"), (4.9e-05, "4.9000e-05"), (0.0, "0.0000"),
                              (5e-05, "0.0001"), (1e-4, "0.0001")]:
            report.mean_latency_s = latency
            assert f"mean latency: {text} s\n" in emit_report(report, ReportFormat.TABLE)
        report.attributes["altitude"] = AttributeStats(mae=3e-06, rmse=4e-06)
        table = emit_report(report, ReportFormat.TABLE)
        assert "3.0000e-06" in table and "4.0000e-06" in table

    def test_unavailable_metrics_render(self, rng):
        report = evaluate([failed_sample(cruise_window(rng, 1), FailureKind.MISSING_TRAJECTORY)])
        table = emit_report(report, ReportFormat.TABLE)
        assert "failed-missing=1" in table
        csv_text = emit_report(report, ReportFormat.CSV)
        assert "latency" in csv_text  # latency row still present

    def test_table_text_is_pinned(self):
        def window(start: int, rate: float) -> Window:
            return Window("PIN", tuple(
                Waypoint(start + 60 * i, 100.0 + 0.125 * i, 30.0 - 0.0625 * i, 6000.0 + rate * i, 800.0, 45.0)
                for i in range(INPUT_LENGTH + 2)
            ))

        offsets = np.array([[0.25], [-0.125], [40.0], [-8.0], [3.0]])
        scored = [window(0, 0.0), window(6000, 0.0), window(12000, 300.0), window(18000, 300.0)]
        kinds = [FailureKind.SEVERE_DEVIATION] * 3 + [FailureKind.MISSING_TRAJECTORY] * 2
        kinds.append(FailureKind.UNEXPECTED_FORMAT)
        samples = [success_sample(w, w.values[:, INPUT_LENGTH:] + k * offsets) for k, w in enumerate(scored, 1)]
        samples += [failed_sample(window(0, 0.0), kind, latency=1.25) for kind in kinds]
        report = evaluate(samples, model="pin-model", template_version="v1")
        assert emit_report(report, ReportFormat.TABLE) == (
            "model=pin-model  horizon=2  template=v1\n"
            "   phase  samples  MAE lon  MAE lat   MAE alt  RMSE lon  RMSE lat  RMSE alt\n"
            "  entire        4   0.6250   0.3125  100.0000    0.6847    0.3423  109.5445\n"
            "take-off        2   0.8750   0.4375  140.0000    0.8839    0.4419  141.4214\n"
            "  cruise        2   0.3750   0.1875   60.0000    0.3953    0.1976   63.2456\n"
            "extended: MAE vel=20.0000 hdg=7.5000  RMSE vel=21.9089 hdg=8.2158\n"
            "mean latency: 0.9500 s\n"
            "samples: evaluated=4 excluded-severe=3 failed-missing=2 failed-format=1\n"
        )
