"""Single-layer LSTM forecaster with hand-written backpropagation.

Everything is plain numpy in float64: forward recurrence, exact gradients
through the gate algebra, and an Adam loop over one flat weight vector
whose named arrays are views (model files still store the named arrays).
The model predicts the next waypoint from the previous 16; longer horizons
roll the model forward on its own output. Feature scaling is z-score with
statistics taken from the training inputs and stored inside the
parameters, so a saved model is self-contained.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..domain import ATTRIBUTES, CANONICAL_DECIMALS, round_values
from ..windowing import INPUT_LENGTH, Window

logger = logging.getLogger(__name__)

ATTR_DIM = len(ATTRIBUTES)
FORMAT_TAG = "flightcast-lstm/2"

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


def _views(vector: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views into a flat vector, shaped like ``like``'s arrays and laid out in sorted-name order."""
    names = sorted(like)
    blocks = np.split(vector, np.cumsum([np.size(like[k]) for k in names])[:-1])
    return {k: block.reshape(np.shape(like[k])) for k, block in zip(names, blocks)}


class LstmParams:
    """Fused gate weights, output projection, and normalization statistics.

    ``arrays`` names in-place views into ``vector``: ``w`` (4H, D), ``u``
    (4H, H) and ``b`` (4H,), whose row blocks are the i, f, o and g gates in
    that order, plus the output projection ``w_out`` (D, H) and ``b_out`` (D,).
    """

    def __init__(self, input_dim: int, hidden_dim: int, arrays: dict[str, np.ndarray],
                 norm_mean: np.ndarray, norm_std: np.ndarray):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.vector = np.concatenate([np.ravel(arrays[k]) for k in sorted(arrays)], dtype=np.float64)
        self.arrays = _views(self.vector, arrays)
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
        w, u = zip(*[(rng.uniform(-s, s, size=(hidden_dim, input_dim)),
                      rng.uniform(-s, s, size=(hidden_dim, hidden_dim))) for _ in _GATES])
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
        """Read a model file of format ``FORMAT_TAG``; any other format raises.

        Raises ValueError naming the first array whose shape does not fit
        the file's ``input_dim`` and ``hidden_dim``, or that holds a
        non-finite value (``json`` reads ``NaN`` and ``Infinity``).
        """
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        fmt = obj.get("format")
        if fmt != FORMAT_TAG:
            raise ValueError(f"unrecognized model file format: {fmt!r}")
        dim, hidden = obj["input_dim"], obj["hidden_dim"]
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in obj["arrays"].items()}
        arrays["norm_mean"] = np.asarray(obj["norm_mean"], dtype=np.float64)
        arrays["norm_std"] = np.asarray(obj["norm_std"], dtype=np.float64)
        shapes = {"w_out": (dim, hidden), "b_out": (dim,), "norm_mean": (dim,), "norm_std": (dim,),
                  "w": (4 * hidden, dim), "u": (4 * hidden, hidden), "b": (4 * hidden,)}
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
            if not np.all(np.isfinite(arrays[name])):
                raise ValueError(f"array {name!r} holds a non-finite value")
        norm_mean, norm_std = arrays.pop("norm_mean"), arrays.pop("norm_std")
        return cls(dim, hidden, arrays, norm_mean, norm_std)


def normalize(params: LstmParams, values: np.ndarray) -> np.ndarray:
    return (np.asarray(values, dtype=np.float64) - params.norm_mean) / params.norm_std


def denormalize(params: LstmParams, values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float64) * params.norm_std + params.norm_mean


def _forward_batch(
    params: LstmParams, x: np.ndarray, record: bool = False
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Run the recurrence over x of shape (batch, steps, input_dim).

    Returns the prediction and the time-major activations ``(h, c, act,
    tanh_c)``: hidden and cell states (steps + 1, batch, H) from the zero
    state, fused i|f|o|g gate activations (steps, batch, 4H) and tanh of
    each new cell state (steps, batch, H). With ``record`` every step keeps
    its slot for the backward pass; without it the arrays are rings of one
    or two slots that hold only the running state, so memory stays
    O(batch x hidden) whatever the length of x.

    One tanh activates all four gates: sigmoid(a) = 0.5 + 0.5 tanh(a / 2),
    and the i, f and o rows of the weights are halved up front (exact in
    binary floating point), so their pre-activations arrive already halved.
    """
    a = params.arrays
    hidden = params.hidden_dim
    batch, steps = x.shape[0], x.shape[1]
    scale = np.ones((4 * hidden, 1))
    scale[: 3 * hidden] = 0.5
    w_t, u_t, b = (a["w"] * scale).T, (a["u"] * scale).T, a["b"] * scale[:, 0]
    slots = steps if record else 1
    h = np.zeros((slots + 1, batch, hidden))
    c = np.zeros((slots + 1, batch, hidden))
    act = np.empty((slots, batch, 4 * hidden))
    tanh_c = np.empty((slots, batch, hidden))
    # Pre-activations sum x w, then b, then h u on both paths, so both give
    # the same bits. Recording projects every step's input at once into the
    # slots it fills anyway; the ring projects per step, since hoisting there
    # would allocate (steps, batch, 4H) for a rollout of many windows.
    if record:
        np.matmul(x.transpose(1, 0, 2), w_t, out=act)
        act += b
    for t in range(steps):
        # Slot t + 1 follows slot t; in a ring the two alternate.
        z, tc = act[t % slots], tanh_c[t % slots]
        h_prev, h_new = h[t % (slots + 1)], h[(t + 1) % (slots + 1)]
        c_prev, c_new = c[t % (slots + 1)], c[(t + 1) % (slots + 1)]
        if not record:
            np.matmul(x[:, t, :], w_t, out=z)
            z += b
        z += h_prev @ u_t
        np.tanh(z, out=z)
        ifo = z[:, : 3 * hidden]
        ifo *= 0.5
        ifo += 0.5
        np.multiply(z[:, hidden : 2 * hidden], c_prev, out=c_new)
        c_new += z[:, :hidden] * z[:, 3 * hidden :]
        np.tanh(c_new, out=tc)
        np.multiply(z[:, 2 * hidden : 3 * hidden], tc, out=h_new)
    return h[steps % (slots + 1)] @ a["w_out"].T + a["b_out"], (h, c, act, tanh_c)


def _backward_batch(
    params: LstmParams, x: np.ndarray, recorded: tuple[np.ndarray, ...], d_prediction: np.ndarray
) -> np.ndarray:
    """Exact flat gradient, laid out like ``params.vector``, of a recorded forward pass."""
    a, hidden = params.arrays, params.hidden_dim
    h, c, act, tanh_c = recorded
    steps, batch = act.shape[:2]
    gates = act.reshape(steps, batch, 4, hidden)
    i, f, o, g = (gates[:, :, k] for k in range(4))
    # Every step's local derivatives at once: gate k's pre-activation
    # gradient is factors[..., k, :] times dc (dh for the o gate).
    factors = np.empty_like(gates)
    ifo = gates[:, :, :3]
    np.multiply(ifo, 1.0 - ifo, out=factors[:, :, :3])
    factors[:, :, 0] *= g
    factors[:, :, 1] *= c[:-1]
    factors[:, :, 2] *= tanh_c
    np.multiply(1.0 - g**2, i, out=factors[:, :, 3])
    dc_dh = o * (1.0 - tanh_c**2)  # dc picks up dh times this

    dh = d_prediction @ a["w_out"]
    dc = np.zeros_like(dh)
    da = np.empty_like(gates)
    for t in reversed(range(steps)):
        dc += dh * dc_dh[t]
        np.multiply(dc[:, None, :], factors[t], out=da[t])
        np.multiply(dh, factors[t, :, 2], out=da[t, :, 2])
        dh = da[t].reshape(batch, 4 * hidden) @ a["u"]
        dc *= f[t]
    # Weight gradients sum over every (step, sample) pair, so they wait for the whole da.
    da = da.reshape(steps * batch, 4 * hidden)
    grads = {
        "w": da.T @ x.transpose(1, 0, 2).reshape(steps * batch, params.input_dim),
        "u": da.T @ h[:-1].reshape(steps * batch, hidden),
        "b": da.sum(axis=0),
        "w_out": d_prediction.T @ h[-1],
        "b_out": d_prediction.sum(axis=0),
    }
    return np.concatenate([np.ravel(grads[k]) for k in sorted(grads)])


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
) -> tuple[float, np.ndarray]:
    """Mean squared error over a normalized batch and its exact flat gradient.

    inputs has shape (batch, steps, input_dim), targets (batch, input_dim);
    the loss is averaged over both batch and attribute dimensions.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    prediction, recorded = _forward_batch(params, inputs, record=True)
    diff = prediction - targets
    loss = float(np.mean(diff**2))
    d_prediction = 2.0 * diff / diff.size
    return loss, _backward_batch(params, inputs, recorded, d_prediction)


def lstm_train(windows: Sequence[Window], cfg: TrainConfig) -> LstmParams:
    """Fit the one-step predictor with Adam on shuffled mini-batches.

    Each window's first target row is its target, whatever its horizon.

    Normalization statistics are computed from the training inputs before
    any update. Deterministic for a fixed (windows, cfg): a single seeded
    generator drives initialization and every shuffle.
    """
    if not windows:
        raise ValueError("training set is empty")

    x_raw = np.array([w.values[:, :INPUT_LENGTH].T for w in windows])
    y_raw = np.array([w.values[:, INPUT_LENGTH] for w in windows])
    mean = x_raw.reshape(-1, ATTR_DIM).mean(axis=0)
    std = x_raw.reshape(-1, ATTR_DIM).std(axis=0)
    std[std == 0.0] = 1.0  # constant attributes normalize to zero

    rng = np.random.default_rng(cfg.seed)
    params = LstmParams.initialize(ATTR_DIM, cfg.hidden_dim, rng, mean, std)
    x = normalize(params, x_raw)
    y = normalize(params, y_raw)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m, v = np.zeros_like(params.vector), np.zeros_like(params.vector)
    step = 0
    n = len(windows)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grad = lstm_loss_gradients(params, x[batch], y[batch])
            epoch_loss += loss * len(batch)
            step += 1
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad**2
            m_hat, v_hat = m / (1.0 - beta1**step), v / (1.0 - beta2**step)
            params.vector -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        epoch_loss /= n
        if not np.isfinite(epoch_loss):
            raise ValueError(f"training diverged at epoch {epoch}")
        logger.info("epoch %d/%d loss %.6g", epoch, cfg.epochs, epoch_loss)
    return params


def lstm_predict(params: LstmParams, inputs: np.ndarray, horizon: int) -> np.ndarray:
    """Iterative rollout of a stack of windows at once: predict, append, slide, repeat.

    ``inputs`` is an (n, 5, 16) stack of windows' input columns in
    ATTRIBUTES order. Each prediction is denormalized and appended to the
    raw sequence (the oldest step drops off). Returns the (n, 5, horizon)
    forecasts, rounded to canonical precision.
    """
    sequence = np.ascontiguousarray(inputs.transpose(0, 2, 1))
    raw = np.empty((len(inputs), horizon, ATTR_DIM))
    for step in range(horizon):
        raw[:, step] = denormalize(params, lstm_forward(params, normalize(params, sequence)))
        sequence = np.concatenate([sequence[:, 1:], raw[:, step, None]], axis=1)
    return round_values(raw, CANONICAL_DECIMALS).transpose(0, 2, 1)
