import functools
import json
import operator
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flightcast.domain import Waypoint
from flightcast.predictors import TrainConfig, forecast_windows, lstm, lstm_predict, lstm_train
from flightcast.predictors.lstm import (
    ATTR_DIM,
    FORMAT_TAG,
    LstmParams,
    Tape,
    _forward,
    denormalize,
    lstm_forward,
    lstm_loss_gradients,
    normalize,
)
from flightcast.windowing import INPUT_LENGTH, Window

from conftest import (
    cruise_window,
    lstm_loss,
    reference_loss_gradients,
    reference_lstm_rollout,
    reference_sigmoid,
    window_inputs,
)


def constant_windows(n=8, horizon=1, value=(103.2, 30.5, 10000.0, 900.0, 90.0)):
    windows = []
    for k in range(n):
        waypoints = [Waypoint(60 * (k * 40 + i), *value) for i in range(INPUT_LENGTH + horizon)]
        windows.append(Window("CST", tuple(waypoints)))
    return windows


def blocks(forecasts) -> list[list]:
    """Forecast blocks as nested lists, which compare with ==."""
    return [block.tolist() for block in forecasts]


def forecast(params: LstmParams, windows) -> list[np.ndarray]:
    """One rollout of the windows' stack; each window keeps its own horizon's steps."""
    return forecast_windows(functools.partial(lstm_predict, params), windows)


def params_equal(a: LstmParams, b: LstmParams) -> bool:
    return (
        all(np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays)
        and np.array_equal(a.norm_mean, b.norm_mean)
        and np.array_equal(a.norm_std, b.norm_std)
    )


def relative_errors(params, x, y, eps=1e-5, probes=None, rng=None):
    """Analytic vs central finite-difference gradients on the flat vector."""
    _, analytic = lstm_loss_gradients(params, x, y)
    vec = params.vector
    indices = range(vec.size) if probes is None else rng.choice(vec.size, probes, replace=False)
    rel = []
    for i in indices:
        saved = vec[i]
        vec[i] = saved + eps
        loss_up, _ = lstm_loss_gradients(params, x, y)
        vec[i] = saved - eps
        loss_down, _ = lstm_loss_gradients(params, x, y)
        vec[i] = saved
        fd = (loss_up - loss_down) / (2 * eps)
        rel.append(abs(fd - analytic[i]) / max(abs(fd) + abs(analytic[i]), 1e-6))
    return max(rel)


def assert_views_of_vector(params: LstmParams) -> None:
    assert sorted(params.arrays) == ["b", "b_out", "u", "w", "w_out"]
    assert sum(a.size for a in params.arrays.values()) == params.vector.size
    for key, array in params.arrays.items():
        assert np.shares_memory(array, params.vector), key


finite_or_not = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
edge_values = st.sampled_from(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
     745.2, -745.2, 800.0, -800.0, 1e308, -1e308]
)


def recorded_gates(x: np.ndarray) -> np.ndarray:
    """The i, f and o activations a recording tape holds for pre-activations x, one per row.

    One input, one hidden unit, unit input weights and nothing else: each
    element of x becomes one sample whose every gate pre-activation is that
    element.
    """
    params = LstmParams.initialize(1, 1, np.random.default_rng(0))
    params.vector[:] = 0.0
    params.arrays["w"][:] = 1.0
    tape = Tape(params, np.size(x), 1)
    _forward(params, tape, np.reshape(x, (-1, 1, 1)))
    return tape.sig[0, :, :, 0].reshape((3,) + np.shape(x))


class TestSigmoid:
    """The gates' sigmoid, 0.5 + 0.5 tanh(a / 2), against the exp-based logistic."""

    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=40),
                      elements=st.one_of(finite_or_not, edge_values)))
    def test_within_2_pow_minus_52_of_split_by_sign(self, x):
        expected = reference_sigmoid(x)
        for gate in recorded_gates(x):
            np.testing.assert_allclose(gate, expected, rtol=0.0, atol=2.0**-52)

    def test_edge_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 746.0, -746.0, np.nan])
        expected = [0.5, 0.5, 1.0, 0.0, 0.5, 0.5, 1.0, 0.0, np.nan]
        np.testing.assert_array_equal(reference_sigmoid(x), expected)
        for gate in recorded_gates(x):
            np.testing.assert_array_equal(gate, expected)


class TestForward:
    def test_zero_params_predict_output_bias(self):
        params = LstmParams.initialize(ATTR_DIM, 4, np.random.default_rng(0))
        for key in params.arrays:
            params.arrays[key][:] = 0.0
        params.arrays["b_out"][:] = [1.0, 2.0, 3.0, 4.0, 5.0]
        prediction = lstm_forward(params, np.zeros((1, INPUT_LENGTH, ATTR_DIM)))
        assert np.allclose(prediction, [[1.0, 2.0, 3.0, 4.0, 5.0]])

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        params = LstmParams.initialize(ATTR_DIM, 8, rng)
        x = rng.normal(size=(INPUT_LENGTH, ATTR_DIM))
        a = lstm_forward(params, x[None])
        b = lstm_forward(params, x[None])
        assert np.array_equal(a, b)

    def test_non_finite_input_rejected(self):
        params = LstmParams.initialize(ATTR_DIM, 4, np.random.default_rng(0))
        x = np.zeros((INPUT_LENGTH, ATTR_DIM))
        x[3, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            lstm_forward(params, x[None])

    def test_input_without_a_batch_axis_rejected(self):
        params = LstmParams.initialize(ATTR_DIM, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"expected input of shape \(batch, steps, input_dim\), got \(16, 5\)"):
            lstm_forward(params, np.zeros((INPUT_LENGTH, ATTR_DIM)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        params = LstmParams.initialize(ATTR_DIM, 4, rng)
        x = rng.normal(size=(2, INPUT_LENGTH, ATTR_DIM))
        y = rng.normal(size=(2, ATTR_DIM))
        assert relative_errors(params, x, y, probes=80, rng=rng) < 1e-4

    def test_gradient_is_one_vector_in_params_layout(self):
        rng = np.random.default_rng(12)
        params = LstmParams.initialize(ATTR_DIM, 3, rng)
        x = rng.normal(size=(2, INPUT_LENGTH, ATTR_DIM))
        y = rng.normal(size=(2, ATTR_DIM))
        before = params.vector.copy()
        _, gradient = lstm_loss_gradients(params, x, y)
        assert gradient.shape == params.vector.shape
        assert np.array_equal(params.vector, before)
        # Every block is filled, the output projection included.
        offset = 0
        for key in sorted(params.arrays):
            size = params.arrays[key].size
            assert np.any(gradient[offset : offset + size] != 0.0), key
            offset += size


def random_batch(batch, hidden, steps, weight_scale, seed):
    """Params, inputs and targets; a large weight scale drives gates into saturation."""
    rng = np.random.default_rng(seed)
    params = LstmParams.initialize(ATTR_DIM, hidden, rng)
    x, y = rng.normal(size=(batch, steps, ATTR_DIM)), rng.normal(size=(batch, ATTR_DIM))
    params.arrays["b"][:] = rng.normal(size=4 * hidden)  # initialize leaves it zero, which hides a stale bias
    params.vector *= weight_scale
    return params, x, y


BATCHES = st.builds(random_batch, st.integers(1, 9), st.integers(1, 33), st.integers(1, 16),
                    st.sampled_from([0.1, 1.0, 4.0]), st.integers(0, 2**32 - 1))


class TestAgainstPerStepReference:
    @given(BATCHES)
    def test_loss_and_gradient_match(self, batch):
        params, x, y = batch
        loss, gradient = lstm_loss_gradients(params, x, y)
        reference_loss, reference_gradient = reference_loss_gradients(params, x, y)
        np.testing.assert_allclose(loss, reference_loss, rtol=1e-12)
        # Weight gradients sum the same terms in another order, so an entry
        # that nearly cancels is compared on the gradient's own scale.
        np.testing.assert_allclose(gradient, reference_gradient, rtol=1e-12,
                                   atol=1e-12 * np.abs(reference_gradient).max())

    @given(BATCHES)
    @example(random_batch(170, 32, 16, 1.0, 0))  # the shape the lstm workload rolls out
    def test_forward_equals_the_recording_pass_bitwise(self, batch):
        params, x, _ = batch
        prediction = _forward(params, Tape(params, *x.shape[:2]), x)
        assert np.array_equal(lstm_forward(params, x).view(np.uint64), prediction.view(np.uint64))

    def test_forward_keeps_only_the_running_state(self):
        params, x, _ = random_batch(3, 4, 64, 1.0, 0)
        for record, lengths in ((False, [2, 2, 2, 1, 1]), (True, [65, 65, 65, 64, 64])):
            tape = Tape(params, 3, 64, record)
            _forward(params, tape, x)
            assert [len(array) for array in (tape.h, tape.c, tape.gates, tape.sig, tape.tanh_c)] == lengths


def reference_train(windows, cfg: TrainConfig) -> LstmParams:
    """lstm_train's loop with a fresh tape for every batch and Adam written with new arrays."""
    x_raw = np.array([w.values[:, :INPUT_LENGTH].T for w in windows])
    y_raw = np.array([w.values[:, INPUT_LENGTH] for w in windows])
    std = x_raw.reshape(-1, ATTR_DIM).std(axis=0)
    std[std == 0.0] = 1.0
    rng = np.random.default_rng(cfg.seed)
    params = LstmParams.initialize(ATTR_DIM, cfg.hidden_dim, rng, x_raw.reshape(-1, ATTR_DIM).mean(axis=0), std)
    x, y = normalize(params, x_raw), normalize(params, y_raw)
    m, v = np.zeros_like(params.vector), np.zeros_like(params.vector)
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(windows))
        for start in range(0, len(windows), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            _, grad = lstm_loss_gradients(params, x[batch], y[batch])
            step += 1
            m = 0.9 * m + (1.0 - 0.9) * grad
            v = 0.999 * v + (1.0 - 0.999) * grad**2
            params.vector -= cfg.learning_rate * (m / (1.0 - 0.9**step)) / (np.sqrt(v / (1.0 - 0.999**step)) + 1e-8)
    return params


class TestTape:
    @given(BATCHES, st.integers(0, 2**32 - 1))
    def test_a_reused_tape_leaves_nothing_behind(self, batch, seed):
        params, x_a, y_a = batch
        rng = np.random.default_rng(seed)
        x_b, y_b = rng.normal(size=x_a.shape), rng.normal(size=y_a.shape)
        fresh_loss, fresh_gradient = lstm_loss_gradients(params, x_b, y_b)
        tape = Tape(params, *x_a.shape[:2])
        lstm_loss_gradients(params, x_a, y_a, tape)
        loss, gradient = lstm_loss_gradients(params, x_b, y_b, tape)
        assert np.float64(loss).tobytes() == np.float64(fresh_loss).tobytes()
        assert gradient.tobytes() == fresh_gradient.tobytes()
        # A ring's state slots take turns, so the zero state of a second pass must be written afresh.
        ring = Tape(params, *x_a.shape[:2], record=False)
        lstm_forward(params, x_a, ring)
        assert lstm_forward(params, x_b, ring).tobytes() == lstm_forward(params, x_b).tobytes()

    @given(BATCHES, st.integers(0, 2**32 - 1))
    def test_a_ring_run_under_two_parameter_sets_equals_fresh_tapes(self, batch, seed):
        params_a, x, _ = batch
        params_b, _, _ = random_batch(len(x), params_a.hidden_dim, 1, 1.0, seed)
        ring = Tape(params_a, *x.shape[:2], record=False)
        for params in (params_a, params_b, params_a):
            assert lstm_forward(params, x, ring).tobytes() == lstm_forward(params, x).tobytes()

    def test_a_tape_that_does_not_fit_the_input_is_named(self):
        params, x, y = random_batch(3, 4, 16, 1.0, 0)
        with pytest.raises(ValueError, match=r"^inference tape of batch 3, 16 steps does not fit a training "
                                             r"input of shape \(3, 16, 5\)$"):
            lstm_loss_gradients(params, x, y, Tape(params, 3, 16, record=False))
        for batch, steps, record in ((2, 16, True), (3, 8, True), (4, 16, False)):
            kind = "recording" if record else "inference"
            tape = Tape(params, batch, steps, record)
            with pytest.raises(ValueError, match=rf"^{kind} tape of batch {batch}, {steps} steps does not fit an "
                                                 r"input of shape \(3, 16, 5\)$"):
                lstm_forward(params, x, tape)
            if record:
                with pytest.raises(ValueError, match=rf"^{kind} tape of batch {batch}, {steps} steps does not fit a "
                                                     r"training input of shape \(3, 16, 5\)$"):
                    lstm_loss_gradients(params, x, y, tape)

    @settings(max_examples=12)
    @given(st.integers(2, 13), st.integers(2, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_training_with_a_partial_last_batch_is_repeatable_and_leaves_nothing_behind(self, n, size, hidden, seed):
        assume(n % size != 0)
        rng = np.random.default_rng(seed)
        windows = [cruise_window(rng, 1) for _ in range(n)]
        cfg = TrainConfig(epochs=3, batch_size=size, learning_rate=1e-2, seed=seed, hidden_dim=hidden)
        trained = lstm_train(windows, cfg).vector.tobytes()
        assert lstm_train(windows, cfg).vector.tobytes() == trained
        assert reference_train(windows, cfg).vector.tobytes() == trained


class TestTrain:
    def test_constant_trajectory_converges(self):
        windows = constant_windows()
        cfg = TrainConfig(epochs=50, batch_size=4, learning_rate=0.01, seed=3, hidden_dim=8)
        params = lstm_train(windows, cfg)
        x = np.array([win.values[:, :INPUT_LENGTH].T for win in windows])
        y = np.array([win.values[:, INPUT_LENGTH] for win in windows])
        assert lstm_loss(params, normalize(params, x), normalize(params, y)) < 1e-6

    def test_same_seed_same_params(self, rng):
        windows = [cruise_window(rng, 1) for _ in range(10)]
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3, seed=5, hidden_dim=4)
        assert params_equal(lstm_train(windows, cfg), lstm_train(windows, cfg))

    def test_zero_learning_rate_is_a_no_op(self, rng):
        windows = [cruise_window(rng, 1) for _ in range(6)]
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.0, seed=9, hidden_dim=4)
        trained = lstm_train(windows, cfg)
        expected = LstmParams.initialize(
            ATTR_DIM, 4, np.random.default_rng(9),
            trained.norm_mean, trained.norm_std,
        )
        assert all(np.array_equal(trained.arrays[k], expected.arrays[k]) for k in trained.arrays)

    def test_initialize_draws_gate_by_gate(self):
        # Each gate's w then u, then w_out: a seed gives the same model as
        # the per-gate /1 layout did.
        params = LstmParams.initialize(ATTR_DIM, 3, np.random.default_rng(4))
        rng, s = np.random.default_rng(4), 1.0 / np.sqrt(3)
        draws = [(rng.uniform(-s, s, (3, ATTR_DIM)), rng.uniform(-s, s, (3, 3))) for _ in range(4)]
        assert np.array_equal(params.arrays["w"], np.concatenate([w for w, _ in draws]))
        assert np.array_equal(params.arrays["u"], np.concatenate([u for _, u in draws]))
        assert np.array_equal(params.arrays["w_out"], rng.uniform(-s, s, (ATTR_DIM, 3)))

    def test_arrays_are_views_of_the_vector(self, rng):
        assert_views_of_vector(LstmParams.initialize(ATTR_DIM, 3, np.random.default_rng(0)))
        windows = [cruise_window(rng, 1) for _ in range(6)]
        trained = lstm_train(windows, TrainConfig(epochs=2, seed=2, hidden_dim=3))
        assert_views_of_vector(trained)
        # Training moved the weights through the vector, so the views see it.
        fresh = LstmParams.initialize(ATTR_DIM, 3, np.random.default_rng(2))
        assert not np.array_equal(trained.arrays["w"], fresh.arrays["w"])

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            lstm_train([], TrainConfig())

    def test_mixed_horizons_train_as_their_h1_cut(self, rng):
        mixed = [cruise_window(rng, h) for h in (1, 4, 8) * 3]
        cut = [Window.from_columns(w.callsign, w.timestamps[: INPUT_LENGTH + 1], w.values[:, : INPUT_LENGTH + 1])
               for w in mixed]
        cfg = TrainConfig(epochs=2, batch_size=2, seed=3, hidden_dim=4)
        assert lstm_train(mixed, cfg).vector.tobytes() == lstm_train(cut, cfg).vector.tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1e-4)
        with pytest.raises(ValueError, match="hidden_dim 0 is not an integer >= 1"):
            TrainConfig(hidden_dim=0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf"), -1e-4])
    def test_learning_rate_must_be_finite_and_non_negative(self, rate):
        with pytest.raises(ValueError, match=rf"^learning_rate {rate!r} is not a finite number >= 0$"):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("epochs", True, "an integer >= 1"),
            ("epochs", 2.5, "an integer >= 1"),
            ("epochs", 3.0, "an integer >= 1"),
            ("batch_size", "4", "an integer >= 1"),
            ("hidden_dim", True, "an integer >= 1"),
            ("seed", -1, "an integer >= 0"),
            ("seed", True, "an integer >= 0"),
            pytest.param("learning_rate", 10**400, "a finite number >= 0", id="learning_rate-past-the-double-range"),
        ],
    )
    def test_config_refuses_a_value_of_the_wrong_kind_naming_the_field(self, field, value, rule):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{field} {value!r} is not {rule}')}$"):
            TrainConfig(**{field: value})

    def test_divergence_is_reported_with_its_epoch(self, rng):
        windows = [cruise_window(rng, 1) for _ in range(8)]
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="^training diverged at epoch 1$"):
            lstm_train(windows, TrainConfig(epochs=2, batch_size=4, learning_rate=1e300, hidden_dim=2))


class TestNormalization:
    def test_round_trip(self, rng):
        params = LstmParams.initialize(ATTR_DIM, 4, np.random.default_rng(0),
                                       norm_mean=rng.normal(size=ATTR_DIM),
                                       norm_std=rng.uniform(0.5, 3.0, size=ATTR_DIM))
        for _ in range(100):
            x = rng.normal(scale=100.0, size=ATTR_DIM)
            assert np.allclose(denormalize(params, normalize(params, x)), x, atol=1e-9)

    def test_params_with_a_zero_std_rejected(self):
        with pytest.raises(ValueError, match="normalization std must be positive for every attribute"):
            LstmParams.initialize(ATTR_DIM, 2, np.random.default_rng(0), norm_std=np.array([1.0, 1.0, 0.0, 1.0, 1.0]))

    def test_zero_std_replaced(self):
        windows = constant_windows(n=4)
        params = lstm_train(windows, TrainConfig(epochs=1, hidden_dim=2, seed=0))
        assert np.all(params.norm_std > 0)


class TestPredict:
    def test_single_step_matches_forward(self, rng):
        windows = [cruise_window(rng, 1) for _ in range(8)]
        params = lstm_train(windows, TrainConfig(epochs=2, seed=1, hidden_dim=4))
        window = windows[0]
        (out,) = lstm_predict(params, window_inputs([window]), 1)
        x = window.values[:, :INPUT_LENGTH].T
        raw = denormalize(params, lstm_forward(params, normalize(params, x)[None])[0])
        from flightcast.domain import CANONICAL_DECIMALS, round_value

        expected = [round_value(float(v), d) for v, d in zip(raw, CANONICAL_DECIMALS)]
        assert out.shape == (ATTR_DIM, 1)
        assert out[:, 0].tolist() == expected

    def test_rollout_deterministic(self, rng):
        windows = [cruise_window(rng, 1) for _ in range(8)]
        params = lstm_train(windows, TrainConfig(epochs=2, seed=1, hidden_dim=4))
        inputs = window_inputs([cruise_window(rng, 8)])
        assert lstm_predict(params, inputs, 8).tolist() == lstm_predict(params, inputs, 8).tolist()

    def test_batch_equals_single_windows(self, rng):
        windows = [cruise_window(rng, 1) for _ in range(8)]
        params = lstm_train(windows, TrainConfig(epochs=2, seed=1, hidden_dim=4))
        mixed = [cruise_window(rng, h) for h in (8, 1, 4, 1, 8, 4)]
        batch = forecast(params, mixed)
        assert blocks(batch) == [lstm_predict(params, window_inputs([w]), w.horizon)[0].tolist() for w in mixed]
        assert [out.shape for out in batch] == [(ATTR_DIM, h) for h in (8, 1, 4, 1, 8, 4)]

    def test_rollout_of_170_windows_equals_their_one_window_rollouts(self, rng):
        windows = [cruise_window(rng, 1) for _ in range(8)]
        params = lstm_train(windows, TrainConfig(epochs=2, seed=1, hidden_dim=32))
        inputs = window_inputs([cruise_window(rng, 8) for _ in range(170)])
        together = lstm_predict(params, inputs, 8)
        assert together.tolist() == [lstm_predict(params, one[None], 8)[0].tolist() for one in inputs]

    def test_mixed_horizons_keep_their_own_steps(self, rng):
        windows = [cruise_window(rng, 1) for _ in range(8)]
        params = lstm_train(windows, TrainConfig(epochs=1, seed=1, hidden_dim=2))
        window = cruise_window(rng, 8)
        cut = [Window(window.callsign, window.waypoints[: INPUT_LENGTH + h]) for h in (1, 4, 8)]
        h1, h4, h8 = blocks(forecast(params, cut))
        assert h1 == [row[:1] for row in h8] and h4 == [row[:4] for row in h8]
        assert len(h8[0]) == 8

    def test_no_windows(self):
        params = LstmParams.initialize(ATTR_DIM, 4, np.random.default_rng(0))
        assert lstm_predict(params, np.empty((0, ATTR_DIM, INPUT_LENGTH)), 4).shape == (0, ATTR_DIM, 4)
        assert forecast(params, []) == []

    def test_window_without_targets_rolls_out_nothing(self, rng):
        params = LstmParams.initialize(ATTR_DIM, 4, np.random.default_rng(0))
        assert lstm_predict(params, window_inputs([cruise_window(rng, 1)]), 0).shape == (1, ATTR_DIM, 0)

    @pytest.mark.parametrize("horizon", [1, 4, 8])
    @pytest.mark.parametrize("batch", [1, 2, 170])
    def test_rollout_equals_the_one_that_re_normalizes_the_slid_window_bitwise(self, batch, horizon, monkeypatch):
        rng = np.random.default_rng(batch + horizon)
        params, _, _ = random_batch(1, 32, 1, 1.0, batch * horizon)
        params.norm_mean[:], params.norm_std[:] = (100.0, 30.0, 9000.0, 800.0, 90.0), (5.0, 2.0, 300.0, 40.0, 30.0)
        inputs = window_inputs([cruise_window(rng, horizon) for _ in range(batch)])
        monkeypatch.setattr(lstm, "round_values", lambda values, decimals: values)
        got = lstm_predict(params, inputs, horizon)
        assert got.shape == (batch, ATTR_DIM, horizon)
        assert got.tobytes() == reference_lstm_rollout(params, inputs, horizon).tobytes()

    @pytest.mark.parametrize("horizon", [1, 2, 8])
    def test_an_overflowing_forecast_raises_at_the_same_step(self, horizon, rng, monkeypatch):
        params = LstmParams.initialize(ATTR_DIM, 4, np.random.default_rng(0))
        params.norm_std[0], params.arrays["b_out"][0] = 1e300, 1e10  # the first longitude is past the double range
        inputs = window_inputs([cruise_window(rng, horizon) for _ in range(3)])
        calls, forward = [], lstm.lstm_forward

        def counted(*args):
            calls.append(args)
            return forward(*args)

        monkeypatch.setattr(lstm, "round_values", lambda values, decimals: values)
        monkeypatch.setattr(lstm, "lstm_forward", counted)
        outcomes = []
        for rollout in (lstm_predict, functools.partial(reference_lstm_rollout, forward=counted)):
            calls.clear()
            with np.errstate(over="ignore"):
                try:
                    outcomes.append((rollout(params, inputs, horizon).tobytes(), len(calls)))
                except ValueError as exc:
                    outcomes.append((str(exc), len(calls)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == min(horizon, 2)
        if horizon > 1:
            assert outcomes[0][0] == "non-finite value in input sequence"


class TestPersistenceFile:
    def test_save_load_round_trip(self, tmp_path, rng):
        windows = [cruise_window(rng, 1) for _ in range(6)]
        params = lstm_train(windows, TrainConfig(epochs=1, seed=2, hidden_dim=4))
        path = tmp_path / "model.json"
        params.save(path)
        assert json.loads(path.read_text())["format"] == FORMAT_TAG
        loaded = LstmParams.load(path)
        assert params_equal(params, loaded)
        assert np.array_equal(params.vector, loaded.vector)
        assert_views_of_vector(loaded)
        inputs = window_inputs([cruise_window(rng, 4)])
        assert lstm_predict(params, inputs, 4).tolist() == lstm_predict(loaded, inputs, 4).tolist()

    def test_format_tag_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        for fmt in ("something-else", "flightcast-lstm/1"):
            path.write_text(json.dumps({"format": fmt}))
            with pytest.raises(ValueError, match=rf"^unrecognized model file format: '{fmt}'$"):
                LstmParams.load(path)

    def test_v2_array_shape_checked(self, tmp_path):
        params = LstmParams.initialize(ATTR_DIM, 4, np.random.default_rng(0))
        path = tmp_path / "model.json"
        params.save(path)
        obj = json.loads(path.read_text())
        obj["arrays"]["u"] = obj["arrays"]["u"][:-1]
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=r"'u' has shape \(15, 4\), expected \(16, 4\)"):
            LstmParams.load(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda arrays: arrays.update(extra=[1.0]), "unexpected array 'extra' in model file"),
        (lambda arrays: arrays.pop("b_out"), "model file lacks array 'b_out'"),
    ])
    def test_unexpected_or_missing_array_rejected(self, tmp_path, edit, message):
        model = tmp_path / "model.json"
        LstmParams.initialize(ATTR_DIM, 4, np.random.default_rng(0)).save(model)
        obj = json.loads(model.read_text())
        edit(obj["arrays"])
        model.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=f"^{message}$"):
            LstmParams.load(model)

    @pytest.mark.parametrize("name, path, value", [
        pytest.param("norm_std", ("norm_std",), 10**400, id="norm_std"),
        pytest.param("u", ("arrays", "u", 0), -10**400, id="u"),
    ])
    def test_number_past_the_double_range_rejected(self, tmp_path, name, path, value):
        # json reads an integer of any size as an int, which float64 cannot hold.
        model = tmp_path / "model.json"
        LstmParams.initialize(ATTR_DIM, 4, np.random.default_rng(0)).save(model)
        obj = json.loads(model.read_text())
        functools.reduce(operator.getitem, path, obj)[0] = value
        model.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=f"^array '{name}' holds a number past the double range$"):
            LstmParams.load(model)

    @pytest.mark.parametrize("name, path, value", [
        ("w_out", ("arrays", "w_out", 2), float("nan")),
        ("b", ("arrays", "b"), float("inf")),
        ("norm_std", ("norm_std",), float("-inf")),
    ])
    def test_non_finite_value_rejected(self, tmp_path, name, path, value):
        # json writes and reads NaN and Infinity, so the file itself is valid.
        params = LstmParams.initialize(ATTR_DIM, 4, np.random.default_rng(0))
        model = tmp_path / "model.json"
        params.save(model)
        obj = json.loads(model.read_text())
        functools.reduce(operator.getitem, path, obj)[1] = value
        model.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=rf"array '{name}' holds a non-finite value"):
            LstmParams.load(model)
