import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flightcast.domain import ATTRIBUTES, PhaseLabel, Waypoint
from flightcast.evaluation import (
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

from conftest import cruise_window


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
    return (window, ParseOutcome.success(block), latency)


def failed_sample(window: Window, kind: FailureKind, latency=0.5):
    return (window, ParseOutcome.failed(kind, "scripted"), latency)


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

    def test_rmse_not_below_mae_everywhere(self, rng):
        report = self.make_report(rng)
        for fmt in ReportFormat:
            emit_report(report, fmt)  # assertion inside must not fire

    def test_unavailable_metrics_render(self, rng):
        report = evaluate([failed_sample(cruise_window(rng, 1), FailureKind.MISSING_TRAJECTORY)])
        table = emit_report(report, ReportFormat.TABLE)
        assert "failed-missing=1" in table
        csv_text = emit_report(report, ReportFormat.CSV)
        assert "latency" in csv_text  # latency row still present
