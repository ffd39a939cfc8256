"""Acceptance suite: one test per headline criterion, one PASS line each.

Every expected value here is produced by an independent oracle written in
plain Python loops (or by hand arithmetic frozen into the test), never by
the code path under test. Run with `pytest -v -s` to see the PASS lines.
"""

import io
import math
import time

import numpy as np

from flightcast.domain import PhaseLabel, Trajectory, Waypoint, round_waypoint
from flightcast.evaluation import evaluate, few_shot_split, mae, mean_latency, rmse, segment_phase
from flightcast.ingest import (
    aggregate_minutes,
    clean_trajectories,
    minute_means,
    read_adsb_csv,
    records_to_csv_text,
)
from flightcast.llm import MockBehavior, mock_complete
from flightcast.predictors import TrainConfig, lstm_predict, lstm_train, predict_kinematic, predict_persistence
from flightcast.predictors.lstm import LstmParams, lstm_loss, lstm_loss_gradients
from flightcast.prompts import FailureKind, ParseOutcome, build_prompt, parse_completion, serialize_waypoints
from flightcast.synth import FlightSpec, generate_corpus, generate_flight
from flightcast.windowing import INPUT_LENGTH, check_continuity, sample_windows

from conftest import cruise_window, gap_seeded_trajectory, random_canonical_waypoint, random_window


def _pass(number: int, message: str) -> None:
    print(f"\nPASS criterion {number}: {message}", flush=True)


# --- 1. metric oracles --------------------------------------------------------


def test_criterion_01_metric_oracles():
    rng = np.random.default_rng(101)
    cases = []
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        cases.append((rng.uniform(-1e3, 1e3, n).tolist(), rng.uniform(-1e3, 1e3, n).tolist()))

    start = time.perf_counter()
    for truth, pred in cases:
        brute_mae = sum(abs(a - b) for a, b in zip(truth, pred)) / len(truth)
        brute_rmse = math.sqrt(sum((a - b) ** 2 for a, b in zip(truth, pred)) / len(truth))
        brute_latency = sum(abs(x) for x in truth) / len(truth)
        got_mae = mae(truth, pred)
        got_rmse = rmse(truth, pred)
        assert abs(got_mae - brute_mae) <= 1e-12 * max(1.0, abs(brute_mae))
        assert abs(got_rmse - brute_rmse) <= 1e-12 * max(1.0, abs(brute_rmse))
        assert got_rmse >= got_mae - 1e-12 * max(1.0, got_mae)
        latencies = [abs(x) for x in truth]
        assert abs(mean_latency(latencies) - brute_latency) <= 1e-12 * max(1.0, brute_latency)
    elapsed = time.perf_counter() - start

    assert elapsed < 1.0, f"metric oracle run took {elapsed:.2f}s"
    _pass(1, f"mae/rmse/mean_latency match brute force on 1000 vectors in {elapsed:.2f}s")


# --- 2. LSTM gradient check ---------------------------------------------------


def test_criterion_02_lstm_gradient_check():
    rng = np.random.default_rng(202)
    eps = 1e-5
    worst = 0.0
    start = time.perf_counter()
    for draw in range(20):
        hidden = (2, 4, 8)[draw % 3]
        params = LstmParams.initialize(5, hidden, rng)
        x = rng.normal(size=(1, INPUT_LENGTH, 5))
        y = rng.normal(size=(1, 5))
        _, grads = lstm_loss_gradients(params, x, y)
        analytic = np.concatenate([grads[k].ravel() for k in sorted(grads)])
        vec = params.to_vector()
        for i in range(vec.size):
            up, down = vec.copy(), vec.copy()
            up[i] += eps
            down[i] -= eps
            fd = (lstm_loss(params.with_vector(up), x, y) - lstm_loss(params.with_vector(down), x, y)) / (2 * eps)
            rel = abs(fd - analytic[i]) / max(abs(fd) + abs(analytic[i]), 1e-6)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start

    assert worst < 1e-4, f"max relative gradient error {worst:.2e}"
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    _pass(2, f"analytic gradients match central differences, max rel err {worst:.2e} in {elapsed:.1f}s")


# --- 3. codec round-trip ------------------------------------------------------


def test_criterion_03_codec_round_trip():
    rng = np.random.default_rng(303)
    failures = 0
    for i in range(1000):
        horizon = (1, 4, 8)[i % 3]
        window = random_window(rng, horizon)
        outcome = parse_completion(serialize_waypoints(window.targets), horizon, window)
        if not (outcome.ok and outcome.waypoints == window.targets):
            failures += 1
    assert failures == 0
    _pass(3, "1000 windows round-trip exactly at canonical precision, zero failures")


# --- 4. windowing equivalence -------------------------------------------------


def test_criterion_04_windowing_equivalence():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    for _ in range(200):
        traj = gap_seeded_trajectory(rng)
        stamps = [w.timestamp for w in traj.waypoints]
        for horizon in (1, 4, 8):
            size = INPUT_LENGTH + horizon
            stride = size + int(rng.integers(0, 8))
            # Independent enumerator: every offset in order, continuity
            # plus stride arithmetic.
            expected = []
            next_allowed = 0
            for k in range(len(stamps) - size + 1):
                if k < next_allowed:
                    continue
                if all(stamps[j + 1] - stamps[j] == 60 for j in range(k, k + size - 1)):
                    expected.append(stamps[k])
                    next_allowed = k + stride
            windows = sample_windows(traj, horizon, stride)
            assert [w.inputs[0].timestamp for w in windows] == expected
            seen: set[int] = set()
            for w in windows:
                assert check_continuity(w.waypoints())
                window_stamps = {p.timestamp for p in w.waypoints()}
                assert not (window_stamps & seen), "windows overlap"
                seen |= window_stamps
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"windowing equivalence took {elapsed:.1f}s"
    _pass(4, f"sample_windows matches the brute-force enumerator on 200 trajectories in {elapsed:.1f}s")


# --- 5. aggregation correctness -------------------------------------------------


def test_criterion_05_aggregation_correctness():
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    for _ in range(100):
        ts = int(rng.integers(0, 1000)) * 60
        waypoints = []
        for _ in range(int(rng.integers(30, 300))):
            waypoints.append(random_canonical_waypoint(rng, ts))
            ts += 10
        traj = Trajectory("AGG", tuple(waypoints))

        buckets: dict[int, list[Waypoint]] = {}
        for w in waypoints:
            buckets.setdefault(w.timestamp // 60, []).append(w)

        got = minute_means(traj)
        assert [b for b, _ in got] == [b * 60 for b in sorted(buckets)]
        for bucket_ts, values in got:
            group = buckets[bucket_ts // 60]
            for col, attr in enumerate(("longitude", "latitude", "altitude", "velocity")):
                want = sum(getattr(w, attr) for w in group) / len(group)
                assert abs(values[col] - want) < 1e-9
            sin_sum = sum(math.sin(math.radians(w.heading)) for w in group)
            cos_sum = sum(math.cos(math.radians(w.heading)) for w in group)
            want_heading = math.degrees(math.atan2(sin_sum, cos_sum)) % 360.0
            diff = abs(values[4] - want_heading)
            assert min(diff, 360.0 - diff) < 1e-9

        # The public op is exactly these means, canonically rounded.
        rounded = aggregate_minutes(traj)
        assert rounded.waypoints == tuple(
            round_waypoint(Waypoint(b, *vals)) for b, vals in got
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"aggregation check took {elapsed:.1f}s"
    _pass(5, f"minute aggregates equal brute-force bucket means on 100 trajectories in {elapsed:.1f}s")


# --- 6. failure taxonomy ------------------------------------------------------


def test_criterion_06_failure_taxonomy():
    rng = np.random.default_rng(606)
    expected = {
        MockBehavior.EMPTY: FailureKind.MISSING_TRAJECTORY,
        MockBehavior.GARBLED: FailureKind.UNEXPECTED_FORMAT,
        MockBehavior.SIGN_FLIP: FailureKind.SEVERE_DEVIATION,
    }
    for behavior, kind in expected.items():
        hits = 0
        for _ in range(100):
            window = cruise_window(rng, 4)
            record = build_prompt(window, include_assistant=False)
            reply = mock_complete(record, behavior)
            outcome = parse_completion(reply.text, window.horizon, window)
            if outcome.failure is kind:
                hits += 1
        assert hits == 100, f"{behavior.value}: {hits}/100 classified as {kind.value}"

    # Bookkeeping: counts partition the submitted samples.
    samples = []
    for i in range(40):
        window = cruise_window(rng, 4)
        behavior = list(MockBehavior)[i % 4]
        reply = mock_complete(build_prompt(window, include_assistant=False), behavior)
        samples.append((window, parse_completion(reply.text, 4, window), reply.latency_s))
    report = evaluate(samples)
    assert report.evaluated + report.excluded_severe + report.failed_missing + report.failed_format == 40
    assert report.evaluated == 10 and report.excluded_severe == 10
    assert report.failed_missing == 10 and report.failed_format == 10
    _pass(6, "Empty/Garbled/SignFlip classify 100/100 each; counts partition the samples")


# --- 7. kinematic self-consistency ---------------------------------------------


def test_criterion_07_kinematic_self_consistency():
    worst_deg, worst_alt = 0.0, 0.0
    for heading in (0.0, 37.0, 90.0, 123.4, 200.0, 318.9):
        spec = FlightSpec(
            seed=707,
            initial_heading=heading,
            cruise_duration_min=40,
            sample_interval_s=60,
            include_takeoff=False,
            include_landing=False,
        )
        records = generate_flight(spec)
        traj = Trajectory(
            spec.callsign,
            tuple(
                Waypoint(r.timestamp, r.longitude, r.latitude, r.altitude, r.velocity, r.heading)
                for r in records
            ),
        )
        for horizon in (1, 4, 8):
            windows = sample_windows(traj, horizon, INPUT_LENGTH + horizon)
            assert windows, f"no windows at heading {heading}, horizon {horizon}"
            for window in windows:
                predicted = predict_kinematic(window, horizon)
                for p, t in zip(predicted, window.targets):
                    worst_deg = max(worst_deg, abs(p.longitude - t.longitude), abs(p.latitude - t.latitude))
                    worst_alt = max(worst_alt, abs(p.altitude - t.altitude))
    assert worst_deg < 1e-6, f"worst coordinate error {worst_deg:.2e} deg"
    assert worst_alt < 1e-3, f"worst altitude error {worst_alt:.2e} m"
    _pass(7, f"dead reckoning reproduces noise-free cruise targets (worst {worst_deg:.1e} deg, {worst_alt:.1e} m)")


# --- 8/9 shared corpus ----------------------------------------------------------

_CORPUS_SEED = 2024
_SPLIT_SEED = 7
_TREND_CONFIG = TrainConfig(epochs=1500, batch_size=16, learning_rate=2e-3, seed=1, hidden_dim=12)
_HEADLINE = ("longitude", "latitude", "altitude")
_cache: dict = {}


def _trend_data() -> dict:
    """Seeded 50-flight corpus, window split, and the trained LSTM.

    Built once and shared by the trend and few-shot criteria. The LSTM is
    trained on a seeded 70% of the one-step windows; the held-out 30% is
    the test pool for model comparisons.
    """
    if _cache:
        return _cache
    records, _ = generate_corpus(50, base_seed=_CORPUS_SEED)
    parsed = read_adsb_csv(io.StringIO(records_to_csv_text(records)))
    trajectories = [aggregate_minutes(t) for t in clean_trajectories(parsed).trajectories]

    one_step = [w for t in trajectories for w in sample_windows(t, 1, 17)]
    order = np.random.default_rng(_SPLIT_SEED).permutation(len(one_step))
    split = int(0.7 * len(one_step))
    train = [one_step[i] for i in order[:split]]
    test = [one_step[i] for i in order[split:]]

    _cache.update(
        trajectories=trajectories,
        train=train,
        test=test,
        params=lstm_train(train, _TREND_CONFIG),
    )
    return _cache


def _mae_by_attribute(samples) -> dict[str, float]:
    report = evaluate(samples)
    assert report.failed_missing == report.failed_format == report.excluded_severe == 0, (
        "unexpected parse failures in trend evaluation"
    )
    return {attr: report.attributes[attr].mae for attr in _HEADLINE}


def _evaluate_backend(backend: str, windows, params) -> dict[str, float]:
    samples = []
    for window in windows:
        if backend == "persistence":
            outcome = ParseOutcome.success(tuple(predict_persistence(window, window.horizon)))
        elif backend == "lstm":
            (predicted,) = lstm_predict(params, [window])
            outcome = ParseOutcome.success(tuple(predicted))
        else:  # the mock chat backend answering with dead reckoning
            record = build_prompt(window, include_assistant=False)
            reply = mock_complete(record, MockBehavior.KINEMATIC)
            outcome = parse_completion(reply.text, window.horizon, window)
        samples.append((window, outcome, 0.0))
    return _mae_by_attribute(samples)


# --- 8. trend reproduction ------------------------------------------------------


def test_criterion_08_trend_reproduction():
    start = time.perf_counter()
    data = _trend_data()

    # Horizon degradation: pooled MAE must not decrease as the horizon
    # grows, for each predictor, on identical per-horizon pools.
    pools = {h: [w for t in data["trajectories"] for w in sample_windows(t, h)] for h in (1, 4, 8)}
    for backend in ("persistence", "mock-kinematic", "lstm"):
        maes = {h: _evaluate_backend(backend, pools[h], data["params"]) for h in (1, 4, 8)}
        for attr in _HEADLINE:
            assert maes[1][attr] <= maes[4][attr] <= maes[8][attr], (
                f"{backend} {attr}: {maes[1][attr]:.5f} -> {maes[4][attr]:.5f} -> {maes[8][attr]:.5f}"
            )

    # The trained LSTM must beat the persistence floor on held-out
    # cruise-phase windows: strictly on longitude and latitude, and on the
    # persistence-normalized score pooled over the headline attributes
    # (flat-cruise altitude is where persistence is already near optimal).
    cruise = [w for w in data["test"] if segment_phase(w) is PhaseLabel.CRUISE]
    assert len(cruise) >= 20
    lstm = _evaluate_backend("lstm", cruise, data["params"])
    naive = _evaluate_backend("persistence", cruise, data["params"])
    assert lstm["longitude"] < naive["longitude"]
    assert lstm["latitude"] < naive["latitude"]
    pooled = sum(lstm[a] / naive[a] for a in _HEADLINE) / len(_HEADLINE)
    assert pooled < 1.0, f"pooled normalized MAE {pooled:.3f}"

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"trend criterion took {elapsed:.0f}s"
    _pass(
        8,
        "MAE non-decreasing over horizons 1->4->8 for all three predictors; "
        f"LSTM beats persistence on held-out cruise windows (pooled ratio {pooled:.2f}) "
        f"in {elapsed:.0f}s",
    )


# --- 9. few-shot mechanics ------------------------------------------------------


def test_criterion_09_few_shot_mechanics():
    data = list(range(1000))
    expected_sizes = {0.01: 10, 0.05: 50, 0.10: 100, 0.30: 300, 0.50: 500, 1.00: 1000}
    for proportion, size in expected_sizes.items():
        first = few_shot_split(data, proportion, seed=99)
        again = few_shot_split(data, proportion, seed=99)
        assert first == again, "split is not deterministic"
        assert len(first) == size
        assert len(set(first)) == size
        assert set(first) <= set(data)
    assert few_shot_split(data, 1.0, seed=99) == data

    # Data efficiency: training on 10% of the windows must not beat
    # training on all of them by more than the 5% tolerance band.
    trend = _trend_data()
    small_train = few_shot_split(trend["train"], 0.10, seed=5)
    assert len(small_train) == round(0.10 * len(trend["train"]))
    small_params = lstm_train(small_train, _TREND_CONFIG)

    naive = _evaluate_backend("persistence", trend["test"], None)
    full = _evaluate_backend("lstm", trend["test"], trend["params"])
    small = _evaluate_backend("lstm", trend["test"], small_params)
    score_full = sum(full[a] / naive[a] for a in _HEADLINE) / len(_HEADLINE)
    score_small = sum(small[a] / naive[a] for a in _HEADLINE) / len(_HEADLINE)
    assert score_full <= score_small * 1.05, (
        f"full-data score {score_full:.3f} vs 10% score {score_small:.3f}"
    )
    _pass(
        9,
        "splits at 1/5/10/30/50/100% are deterministic with exact cardinalities; "
        f"test score improves with more data ({score_small:.2f} -> {score_full:.2f})",
    )


# --- 10. end-to-end reproducibility ----------------------------------------------


def test_criterion_10_end_to_end_reproducibility(tmp_path):
    from flightcast.cli import main

    artifacts = [
        "raw.csv",
        "raw.csv.manifest.json",
        "clean.csv",
        "windows.jsonl",
        "dataset.jsonl",
        "dataset.jsonl.manifest.json",
        "pred.jsonl",
        "report.json",
        "report.csv",
        "report.txt",
    ]

    def run_pipeline(workdir):
        workdir.mkdir()
        steps = [
            ["synth", "--flights", "8", "--seed", "31", "--out", str(workdir / "raw.csv")],
            ["ingest", "--in", str(workdir / "raw.csv"), "--out", str(workdir / "clean.csv")],
            ["sample", "--in", str(workdir / "clean.csv"), "--horizon", "4",
             "--out", str(workdir / "windows.jsonl")],
            ["prompt", "--in", str(workdir / "windows.jsonl"), "--out", str(workdir / "dataset.jsonl"),
             "--inference"],
            ["predict", "--in", str(workdir / "windows.jsonl"), "--out", str(workdir / "pred.jsonl"),
             "--backend", "mock"],
            ["eval", "--pred", str(workdir / "pred.jsonl"), "--out-prefix", str(workdir / "report"),
             "--no-latency"],
        ]
        for step in steps:
            assert main(step) == 0, f"stage failed: {step[0]}"

    run_pipeline(tmp_path / "run_a")
    run_pipeline(tmp_path / "run_b")
    for name in artifacts:
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b, f"artifact differs between runs: {name}"
        assert a, f"artifact is empty: {name}"
    _pass(10, f"two CLI pipeline runs produced byte-identical artifacts ({len(artifacts)} files)")
