"""Single-layer LSTM forecaster with hand-written backpropagation.

Everything is plain numpy in float64: forward recurrence, exact gradients
through the gate algebra, and an Adam loop. The model predicts the next
waypoint from the previous 16; longer horizons roll the model forward on
its own output. Feature scaling is z-score with statistics taken from the
training inputs and stored inside the parameters, so a saved model is
self-contained.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..domain import ATTRIBUTES, CANONICAL_DECIMALS, Waypoint, round_value
from ..windowing import STEP_SECONDS, Window

logger = logging.getLogger(__name__)

ATTR_DIM = len(ATTRIBUTES)
FORMAT_TAG = "flightcast-lstm/2"
# Per-gate arrays w_i..w_g, u_i..u_g, b_i..b_g; load stacks them.
_FORMAT_TAG_V1 = "flightcast-lstm/1"

_GATES = ("i", "f", "o", "g")


@dataclass
class TrainConfig:
    """Training hyperparameters; defaults follow the common setup."""

    epochs: int = 30
    batch_size: int = 4
    learning_rate: float = 2e-4
    seed: int = 0
    hidden_dim: int = 32

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        # Zero is allowed so a no-op training run can serve as a smoke test.
        if self.learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        if self.hidden_dim < 1:
            raise ValueError("hidden dim must be >= 1")


class LstmParams:
    """Fused gate weights, output projection, and normalization statistics.

    ``arrays`` holds ``w`` (4H, D), ``u`` (4H, H) and ``b`` (4H,), whose row
    blocks are the i, f, o and g gates in that order, plus the output
    projection ``w_out`` (D, H) and ``b_out`` (D,).
    """

    def __init__(self, input_dim: int, hidden_dim: int, arrays: dict[str, np.ndarray],
                 norm_mean: np.ndarray, norm_std: np.ndarray):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.arrays = arrays
        self.norm_mean = np.asarray(norm_mean, dtype=np.float64)
        self.norm_std = np.asarray(norm_std, dtype=np.float64)
        if np.any(self.norm_std <= 0):
            raise ValueError("normalization std must be positive for every attribute")

    @classmethod
    def initialize(
        cls,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        norm_mean: np.ndarray | None = None,
        norm_std: np.ndarray | None = None,
    ) -> "LstmParams":
        """Uniform(-s, s) weights with s = 1/sqrt(hidden), zero biases."""
        s = 1.0 / np.sqrt(hidden_dim)
        # One draw per gate, w then u, keeps a seed's model the same as when
        # each gate had its own matrices.
        w, u = [], []
        for _ in _GATES:
            w.append(rng.uniform(-s, s, size=(hidden_dim, input_dim)))
            u.append(rng.uniform(-s, s, size=(hidden_dim, hidden_dim)))
        arrays = {
            "w": np.concatenate(w),
            "u": np.concatenate(u),
            "b": np.zeros(4 * hidden_dim),
            "w_out": rng.uniform(-s, s, size=(input_dim, hidden_dim)),
            "b_out": np.zeros(input_dim),
        }
        if norm_mean is None:
            norm_mean = np.zeros(input_dim)
        if norm_std is None:
            norm_std = np.ones(input_dim)
        return cls(input_dim, hidden_dim, arrays, norm_mean, norm_std)

    def copy(self) -> "LstmParams":
        return LstmParams(
            self.input_dim,
            self.hidden_dim,
            {k: v.copy() for k, v in self.arrays.items()},
            self.norm_mean.copy(),
            self.norm_std.copy(),
        )

    # Flattened views, used by the finite-difference gradient check.
    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.arrays[k].ravel() for k in sorted(self.arrays)])

    def with_vector(self, vec: np.ndarray) -> "LstmParams":
        out = self.copy()
        offset = 0
        for k in sorted(out.arrays):
            size = out.arrays[k].size
            out.arrays[k] = vec[offset : offset + size].reshape(out.arrays[k].shape).copy()
            offset += size
        return out

    def save(self, path: str | Path) -> None:
        obj = {
            "format": FORMAT_TAG,
            "input_dim": self.input_dim,
            "hidden_dim": self.hidden_dim,
            "norm_mean": self.norm_mean.tolist(),
            "norm_std": self.norm_std.tolist(),
            "arrays": {k: v.tolist() for k, v in sorted(self.arrays.items())},
        }
        Path(path).write_text(json.dumps(obj) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "LstmParams":
        """Read a ``/2`` model file, or a ``/1`` file with one matrix set per gate.

        Raises ValueError naming the first array whose shape does not fit
        the file's ``input_dim`` and ``hidden_dim``.
        """
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        fmt = obj.get("format")
        if fmt not in (FORMAT_TAG, _FORMAT_TAG_V1):
            raise ValueError(f"unrecognized model file format: {fmt!r}")
        dim, hidden = obj["input_dim"], obj["hidden_dim"]
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in obj["arrays"].items()}
        arrays["norm_mean"] = np.asarray(obj["norm_mean"], dtype=np.float64)
        arrays["norm_std"] = np.asarray(obj["norm_std"], dtype=np.float64)
        shapes = {"w_out": (dim, hidden), "b_out": (dim,), "norm_mean": (dim,), "norm_std": (dim,)}
        fused = {"w": (dim,), "u": (hidden,), "b": ()}
        if fmt == _FORMAT_TAG_V1:
            shapes.update(
                {f"{k}_{gate}": (hidden,) + tail for k, tail in fused.items() for gate in _GATES}
            )
        else:
            shapes.update({k: (4 * hidden,) + tail for k, tail in fused.items()})
        unexpected = sorted(arrays.keys() - shapes.keys())
        if unexpected:
            raise ValueError(f"unexpected array {unexpected[0]!r} in model file")
        for name, shape in shapes.items():
            if name not in arrays:
                raise ValueError(f"model file lacks array {name!r}")
            if arrays[name].shape != shape:
                raise ValueError(
                    f"array {name!r} has shape {arrays[name].shape}, expected {shape}"
                    f" for input_dim {dim}, hidden_dim {hidden}"
                )
        if fmt == _FORMAT_TAG_V1:
            for k in fused:
                arrays[k] = np.concatenate([arrays.pop(f"{k}_{gate}") for gate in _GATES])
        norm_mean, norm_std = arrays.pop("norm_mean"), arrays.pop("norm_std")
        return cls(dim, hidden, arrays, norm_mean, norm_std)


def normalize(params: LstmParams, values: np.ndarray) -> np.ndarray:
    return (np.asarray(values, dtype=np.float64) - params.norm_mean) / params.norm_std


def denormalize(params: LstmParams, values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float64) * params.norm_std + params.norm_mean


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign for numerical stability at large |x|.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _forward_batch(
    params: LstmParams, x: np.ndarray, steps: list | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Run the recurrence over x of shape (batch, steps, input_dim).

    Returns the prediction and the final hidden state. When ``steps`` is a
    list, each step's activations are appended to it for the backward pass.
    """
    a = params.arrays
    hidden = params.hidden_dim
    h = np.zeros((x.shape[0], hidden))
    c = np.zeros((x.shape[0], hidden))
    for t in range(x.shape[1]):
        xt = x[:, t, :]
        z = xt @ a["w"].T + h @ a["u"].T + a["b"]
        ifo = _sigmoid(z[:, : 3 * hidden])
        i, f, o = ifo[:, :hidden], ifo[:, hidden : 2 * hidden], ifo[:, 2 * hidden :]
        g = np.tanh(z[:, 3 * hidden :])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        if steps is not None:
            steps.append((xt, h, c, i, f, o, g, tanh_c))
        h, c = o * tanh_c, c_new
    return h @ a["w_out"].T + a["b_out"], h


def _backward_batch(
    params: LstmParams, steps: list, h_final: np.ndarray, d_prediction: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact gradients of a recorded forward pass for d(loss)/d(prediction)."""
    a = params.arrays
    grads = {k: np.zeros_like(v) for k, v in a.items()}
    grads["w_out"] = d_prediction.T @ h_final
    grads["b_out"] = d_prediction.sum(axis=0)
    dh = d_prediction @ a["w_out"]
    dc = np.zeros_like(dh)
    for xt, h_prev, c_prev, i, f, o, g, tanh_c in reversed(steps):
        dc = dc + dh * o * (1.0 - tanh_c**2)
        da = np.hstack([
            dc * g * i * (1.0 - i),
            dc * c_prev * f * (1.0 - f),
            dh * tanh_c * o * (1.0 - o),
            dc * i * (1.0 - g**2),
        ])
        grads["w"] += da.T @ xt
        grads["u"] += da.T @ h_prev
        grads["b"] += da.sum(axis=0)
        dh = da @ a["u"]
        dc = dc * f
    return grads


def lstm_forward(params: LstmParams, x: np.ndarray) -> np.ndarray:
    """Next-step predictions for normalized x of shape (batch, steps, input_dim).

    Returns a (batch, input_dim) array. Keeps no activations: training
    goes through :func:`lstm_loss_gradients`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected input of shape (batch, steps, input_dim), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite value in input sequence")
    return _forward_batch(params, x)[0]


def lstm_loss_gradients(
    params: LstmParams, inputs: np.ndarray, targets: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean squared error over a normalized batch and its exact gradients.

    inputs has shape (batch, steps, input_dim), targets (batch, input_dim);
    the loss is averaged over both batch and attribute dimensions.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    steps: list = []
    prediction, h_final = _forward_batch(params, inputs, steps)
    diff = prediction - targets
    loss = float(np.mean(diff**2))
    d_prediction = 2.0 * diff / diff.size
    return loss, _backward_batch(params, steps, h_final, d_prediction)


def lstm_loss(params: LstmParams, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Forward-only batch MSE; what finite-difference probes should call."""
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    prediction, _ = _forward_batch(params, inputs)
    return float(np.mean((prediction - targets) ** 2))


def _window_arrays(windows: Sequence[Window]) -> tuple[np.ndarray, np.ndarray]:
    x = np.array([[w.values() for w in win.inputs] for win in windows], dtype=np.float64)
    y = np.array([win.targets[0].values() for win in windows], dtype=np.float64)
    return x, y


def training_mse(params: LstmParams, windows: Sequence[Window]) -> float:
    """Normalized-space one-step MSE of the model on the given windows."""
    x, y = _window_arrays(windows)
    prediction, _ = _forward_batch(params, normalize(params, x))
    return float(np.mean((prediction - normalize(params, y)) ** 2))


def lstm_train(windows: Sequence[Window], cfg: TrainConfig) -> LstmParams:
    """Fit the one-step predictor with Adam on shuffled mini-batches.

    Normalization statistics are computed from the training inputs before
    any update. Deterministic for a fixed (windows, cfg): a single seeded
    generator drives initialization and every shuffle.
    """
    if not windows:
        raise ValueError("training set is empty")
    horizons = {w.horizon for w in windows}
    if len(horizons) > 1:
        raise ValueError(f"training windows mix horizons: {sorted(horizons)}")

    x_raw, y_raw = _window_arrays(windows)
    mean = x_raw.reshape(-1, ATTR_DIM).mean(axis=0)
    std = x_raw.reshape(-1, ATTR_DIM).std(axis=0)
    std[std == 0.0] = 1.0  # constant attributes normalize to zero

    rng = np.random.default_rng(cfg.seed)
    params = LstmParams.initialize(ATTR_DIM, cfg.hidden_dim, rng, mean, std)
    x = normalize(params, x_raw)
    y = normalize(params, y_raw)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = {k: np.zeros_like(v) for k, v in params.arrays.items()}
    v = {k: np.zeros_like(val) for k, val in params.arrays.items()}
    step = 0
    n = len(windows)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grads = lstm_loss_gradients(params, x[batch], y[batch])
            epoch_loss += loss * len(batch)
            step += 1
            for key, grad in grads.items():
                m[key] = beta1 * m[key] + (1.0 - beta1) * grad
                v[key] = beta2 * v[key] + (1.0 - beta2) * grad**2
                m_hat = m[key] / (1.0 - beta1**step)
                v_hat = v[key] / (1.0 - beta2**step)
                params.arrays[key] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        epoch_loss /= n
        if not np.isfinite(epoch_loss):
            raise ValueError(f"training diverged at epoch {epoch}")
        logger.info("epoch %d/%d loss %.6g", epoch, cfg.epochs, epoch_loss)
    return params


def lstm_predict(params: LstmParams, windows: Sequence[Window]) -> list[list[Waypoint]]:
    """Iterative rollout of all windows at once: predict, append, slide, repeat.

    The batch rolls forward to the largest horizon and each window keeps
    its first ``window.horizon`` steps. Each prediction is denormalized and
    appended to the raw sequence (the oldest step drops off); the outputs
    are rounded to canonical precision with timestamps advancing by 60 s.
    """
    if not windows:
        return []
    if len({len(win.inputs) for win in windows}) > 1:
        raise ValueError("windows mix input lengths")
    sequence = np.array([[w.values() for w in win.inputs] for win in windows], dtype=np.float64)
    raw = np.empty((len(windows), max(win.horizon for win in windows), ATTR_DIM))
    for step in range(raw.shape[1]):
        raw[:, step] = denormalize(params, lstm_forward(params, normalize(params, sequence)))
        sequence = np.concatenate([sequence[:, 1:], raw[:, step, None]], axis=1)
    return [
        [
            Waypoint(win.inputs[-1].timestamp + step * STEP_SECONDS,
                     *map(round_value, values, CANONICAL_DECIMALS))
            for step, values in enumerate(predicted[: win.horizon], start=1)
        ]
        for win, predicted in zip(windows, raw.tolist())
    ]
