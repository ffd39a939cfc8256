import json

import numpy as np
import pytest

from flightcast.domain import Waypoint
from flightcast.predictors import TrainConfig, lstm_predict, lstm_train
from flightcast.predictors.lstm import (
    ATTR_DIM,
    FORMAT_TAG,
    LstmParams,
    denormalize,
    lstm_forward,
    lstm_loss_gradients,
    normalize,
    training_mse,
)
from flightcast.windowing import INPUT_LENGTH, Window

from conftest import cruise_window


def constant_windows(n=8, horizon=1, value=(103.2, 30.5, 10000.0, 900.0, 90.0)):
    windows = []
    for k in range(n):
        waypoints = [Waypoint(60 * (k * 40 + i), *value) for i in range(INPUT_LENGTH + horizon)]
        windows.append(Window("CST", tuple(waypoints[:INPUT_LENGTH]), tuple(waypoints[INPUT_LENGTH:])))
    return windows


def params_equal(a: LstmParams, b: LstmParams) -> bool:
    return (
        all(np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays)
        and np.array_equal(a.norm_mean, b.norm_mean)
        and np.array_equal(a.norm_std, b.norm_std)
    )


def v1_model(params: LstmParams, path) -> dict:
    """The saved model rewritten as a /1 file: one w, u and b array per gate."""
    params.save(path)
    obj = json.loads(path.read_text())
    for key in ("w", "u", "b"):
        blocks = np.split(np.array(obj["arrays"].pop(key)), 4)
        for gate, block in zip("ifog", blocks):
            obj["arrays"][f"{key}_{gate}"] = block.tolist()
    obj["format"] = "flightcast-lstm/1"
    return obj


def relative_errors(params, x, y, eps=1e-5, probes=None, rng=None):
    """Analytic vs central finite-difference gradients on the flat vector."""
    loss, grads = lstm_loss_gradients(params, x, y)
    analytic = np.concatenate([grads[k].ravel() for k in sorted(grads)])
    vec = params.to_vector()
    indices = range(vec.size) if probes is None else rng.choice(vec.size, probes, replace=False)
    rel = []
    for i in indices:
        up, down = vec.copy(), vec.copy()
        up[i] += eps
        down[i] -= eps
        loss_up, _ = lstm_loss_gradients(params.with_vector(up), x, y)
        loss_down, _ = lstm_loss_gradients(params.with_vector(down), x, y)
        fd = (loss_up - loss_down) / (2 * eps)
        rel.append(abs(fd - analytic[i]) / max(abs(fd) + abs(analytic[i]), 1e-6))
    return max(rel)


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

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        params = LstmParams.initialize(ATTR_DIM, 4, rng)
        x = rng.normal(size=(2, INPUT_LENGTH, ATTR_DIM))
        y = rng.normal(size=(2, ATTR_DIM))
        assert relative_errors(params, x, y, probes=80, rng=rng) < 1e-4


class TestTrain:
    def test_constant_trajectory_converges(self):
        windows = constant_windows()
        cfg = TrainConfig(epochs=50, batch_size=4, learning_rate=0.01, seed=3, hidden_dim=8)
        params = lstm_train(windows, cfg)
        assert training_mse(params, windows) < 1e-6

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

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            lstm_train([], TrainConfig())

    def test_mixed_horizons_rejected(self, rng):
        windows = [cruise_window(rng, 1), cruise_window(rng, 4)]
        with pytest.raises(ValueError, match="horizons"):
            lstm_train(windows, TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1e-4)


class TestNormalization:
    def test_round_trip(self, rng):
        params = LstmParams.initialize(ATTR_DIM, 4, np.random.default_rng(0),
                                       norm_mean=rng.normal(size=ATTR_DIM),
                                       norm_std=rng.uniform(0.5, 3.0, size=ATTR_DIM))
        for _ in range(100):
            x = rng.normal(scale=100.0, size=ATTR_DIM)
            assert np.allclose(denormalize(params, normalize(params, x)), x, atol=1e-9)

    def test_zero_std_replaced(self):
        windows = constant_windows(n=4)
        params = lstm_train(windows, TrainConfig(epochs=1, hidden_dim=2, seed=0))
        assert np.all(params.norm_std > 0)


class TestPredict:
    def test_single_step_matches_forward(self, rng):
        windows = [cruise_window(rng, 1) for _ in range(8)]
        params = lstm_train(windows, TrainConfig(epochs=2, seed=1, hidden_dim=4))
        window = windows[0]
        ((out,),) = lstm_predict(params, [window])
        x = np.array([w.values() for w in window.inputs])
        raw = denormalize(params, lstm_forward(params, normalize(params, x)[None])[0])
        from flightcast.domain import CANONICAL_DECIMALS, round_value

        expected = [round_value(float(v), d) for v, d in zip(raw, CANONICAL_DECIMALS)]
        assert list(out.values()) == expected
        assert out.timestamp == window.inputs[-1].timestamp + 60

    def test_rollout_deterministic(self, rng):
        windows = [cruise_window(rng, 1) for _ in range(8)]
        params = lstm_train(windows, TrainConfig(epochs=2, seed=1, hidden_dim=4))
        window = cruise_window(rng, 8)
        assert lstm_predict(params, [window]) == lstm_predict(params, [window])

    def test_rollout_timestamps(self, rng):
        windows = [cruise_window(rng, 1) for _ in range(8)]
        params = lstm_train(windows, TrainConfig(epochs=1, seed=1, hidden_dim=2))
        window = cruise_window(rng, 4)
        (out,) = lstm_predict(params, [window])
        last = window.inputs[-1].timestamp
        assert [w.timestamp for w in out] == [last + 60 * k for k in (1, 2, 3, 4)]

    def test_batch_equals_single_windows(self, rng):
        windows = [cruise_window(rng, 1) for _ in range(8)]
        params = lstm_train(windows, TrainConfig(epochs=2, seed=1, hidden_dim=4))
        mixed = [cruise_window(rng, h) for h in (8, 1, 4, 1, 8, 4)]
        batch = lstm_predict(params, mixed)
        assert batch == [out for w in mixed for out in lstm_predict(params, [w])]
        assert [len(out) for out in batch] == [8, 1, 4, 1, 8, 4]

    def test_mixed_horizons_keep_their_own_steps(self, rng):
        windows = [cruise_window(rng, 1) for _ in range(8)]
        params = lstm_train(windows, TrainConfig(epochs=1, seed=1, hidden_dim=2))
        window = cruise_window(rng, 8)
        cut = [Window(window.callsign, window.inputs, window.targets[:h]) for h in (1, 4, 8)]
        h1, h4, h8 = lstm_predict(params, cut)
        assert (len(h1), len(h4), len(h8)) == (1, 4, 8)
        assert h1 == h8[:1] and h4 == h8[:4]

    def test_no_windows(self):
        params = LstmParams.initialize(ATTR_DIM, 4, np.random.default_rng(0))
        assert lstm_predict(params, []) == []


class TestPersistenceFile:
    def test_save_load_round_trip(self, tmp_path, rng):
        windows = [cruise_window(rng, 1) for _ in range(6)]
        params = lstm_train(windows, TrainConfig(epochs=1, seed=2, hidden_dim=4))
        path = tmp_path / "model.json"
        params.save(path)
        assert json.loads(path.read_text())["format"] == FORMAT_TAG
        loaded = LstmParams.load(path)
        assert params_equal(params, loaded)
        window = cruise_window(rng, 4)
        assert lstm_predict(params, [window]) == lstm_predict(loaded, [window])

    def test_format_tag_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="format"):
            LstmParams.load(path)

    def test_v1_file_loads_by_stacking_gates(self, tmp_path, rng):
        windows = [cruise_window(rng, 1) for _ in range(6)]
        params = lstm_train(windows, TrainConfig(epochs=1, seed=2, hidden_dim=4))
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(v1_model(params, path)))
        loaded = LstmParams.load(path)
        assert params_equal(params, loaded)
        window = cruise_window(rng, 8)
        assert lstm_predict(params, [window]) == lstm_predict(loaded, [window])

    def test_v2_array_shape_checked(self, tmp_path):
        params = LstmParams.initialize(ATTR_DIM, 4, np.random.default_rng(0))
        path = tmp_path / "model.json"
        params.save(path)
        obj = json.loads(path.read_text())
        obj["arrays"]["u"] = obj["arrays"]["u"][:-1]
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=r"'u' has shape \(15, 4\), expected \(16, 4\)"):
            LstmParams.load(path)

    def test_v1_array_shape_checked(self, tmp_path):
        params = LstmParams.initialize(ATTR_DIM, 4, np.random.default_rng(0))
        path = tmp_path / "model.json"
        obj = v1_model(params, path)
        obj["arrays"]["w_f"] = [row[:-1] for row in obj["arrays"]["w_f"]]
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=r"'w_f' has shape \(4, 4\), expected \(4, 5\)"):
            LstmParams.load(path)
