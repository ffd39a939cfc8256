"""Single-layer LSTM forecaster with hand-written backpropagation.

Everything is plain numpy in float64: forward recurrence, exact gradients
through the gate algebra, and an Adam loop over one flat weight vector
whose named arrays are views (model files still store the named arrays).
Every pass runs on a ``Tape`` of arrays allocated once per batch shape,
laid out gate-major so that each gate of a step is one contiguous block.
The model predicts the next waypoint from the previous 16; longer horizons
roll the model forward on its own output. Feature scaling is z-score with
statistics taken from the training inputs and stored inside the
parameters, so a saved model is self-contained.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..domain import ATTRIBUTES, CANONICAL_DECIMALS, check_integer, check_number, check_object, round_values
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
        for name in ("epochs", "batch_size", "hidden_dim"):
            check_integer(name, getattr(self, name), 1)
        check_integer("seed", self.seed)
        check_number("learning_rate", self.learning_rate)  # 0 allowed: a no-op run serves as a smoke test


def _views(vector: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views into a flat vector, shaped like ``like``'s arrays and laid out in sorted-name order."""
    names = sorted(like)
    ends = itertools.accumulate(np.size(like[k]) for k in names)
    return {k: vector[end - np.size(like[k]) : end].reshape(np.shape(like[k])) for k, end in zip(names, ends)}


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

        Raises ValueError naming a missing key, a dimension that is not an
        integer >= 1, the first array with a cell that is not an int or a
        float (``true``, ``null``, a string, or a row of a ragged array) or
        that is an integer past the double range, or the first array whose
        shape does not fit the dims or that holds a non-finite value
        (``json`` reads ``NaN`` and ``Infinity``).
        """
        obj = check_object("model file", json.loads(Path(path).read_text(encoding="utf-8")))
        fmt = obj.get("format")
        if fmt != FORMAT_TAG:
            raise ValueError(f"unrecognized model file format: {fmt!r}")
        check_object("model file", obj, "input_dim", "hidden_dim", "arrays", "norm_mean", "norm_std")
        dim, hidden = obj["input_dim"], obj["hidden_dim"]
        check_integer("input_dim", dim, 1)
        check_integer("hidden_dim", hidden, 1)
        arrays = {k: _number_array(k, v) for k, v in check_object("arrays", obj["arrays"]).items()}
        arrays["norm_mean"] = _number_array("norm_mean", obj["norm_mean"])
        arrays["norm_std"] = _number_array("norm_std", obj["norm_std"])
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


def _number_array(name: str, value) -> np.ndarray:
    """A JSON array as float64; ValueError naming it for a cell that is not an int or a float (nor a bool), or
    that is past the double range."""
    cells = np.asarray(value, dtype=object)  # a ragged array holds a list where its rows part ways
    if not set(map(type, cells.flat)) <= {int, float}:  # type, not isinstance: a bool is an int too
        cell = next(c for c in cells.flat if type(c) not in (int, float))
        what = "a ragged row" if isinstance(cell, list) else f"a non-numeric cell ({cell!r})"
        raise ValueError(f"array {name!r} holds {what}")
    try:
        return cells.astype(np.float64)
    except OverflowError:  # json reads an integer of any size
        raise ValueError(f"array {name!r} holds a number past the double range") from None


def normalize(params: LstmParams, values: np.ndarray) -> np.ndarray:
    return (np.asarray(values, dtype=np.float64) - params.norm_mean) / params.norm_std


def denormalize(params: LstmParams, values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float64) * params.norm_std + params.norm_mean


class Tape:
    """The arrays of every pass over inputs of one (batch, steps) shape, and each step's views.

    Time-major and gate-major: input ``x``, hidden states ``h`` from the
    zero state, and per step one (5, batch, H) block of ``gates`` holding
    the i, f, o and g pre-activations as the matmuls write them (then their
    ``tanh``, in place) and, in slot 4, the cell state ``c`` entering the
    step. The sigmoids of i, f and o (0.5 tanh + 0.5) are a contiguous
    (3, batch, H) block of ``sig``, and ``tanh_c`` is tanh of the new cell,
    so every elementwise op of a step reads and writes whole contiguous
    blocks: the cell update multiplies [i|f] by [g|c] in one call. A
    recording tape keeps all steps (steps + 1 state slots), the gate
    derivatives and the flat ``gradient``; an inference tape is a ring of
    two state slots and one sigmoid slot, O(batch x hidden) at any length.
    """

    def __init__(self, params: LstmParams, batch: int, steps: int, record: bool = True):
        dim, hidden = params.input_dim, params.hidden_dim
        slots = steps if record else 1
        self.record = record
        self.x = np.empty((steps, batch, dim))
        self.h = np.zeros((slots + 1, batch, hidden))
        self.gates = np.empty((slots + 1, 5, batch, hidden))
        self.c = self.gates[:, 4]
        self.sig = np.empty((slots, 3, batch, hidden))
        self.tanh_c = np.empty((slots, batch, hidden))
        self.products = np.empty((4, batch, hidden))  # h u per gate; then i g and f c
        self.scale = np.ones((4 * hidden, 1))  # halves the i, f and o rows of w, u and b on each pass
        self.scale[: 3 * hidden] = 0.5
        self.w, self.u, self.b = np.empty((4 * hidden, dim)), np.empty((4 * hidden, hidden)), np.empty(4 * hidden)
        # Gate k's (in, H) weights, so a matmul writes each gate as its own block.
        self.w_gates, self.u_gates = (m.reshape(4, hidden, -1).transpose(0, 2, 1) for m in (self.w, self.u))
        self.b_gates = self.b.reshape(4, 1, hidden)
        self.bias = None if record else np.empty((4, batch, hidden))  # b, broadcast once per inference pass
        self.prediction, self.diff, self.d_prediction = np.empty((3, batch, dim))
        # Views come from iterating whole arrays, which is cheaper than slicing per step.
        sig = [(s, s[:2], s[2], tanh_c) for s, tanh_c in zip(self.sig, self.tanh_c)]
        h, gates, state = list(self.h), list(self.gates), (lambda t: t % (slots + 1))
        self.steps = [(x_t, gates[state(t)][:4], gates[state(t)][:3], *sig[t % slots], gates[state(t)][3:],
                       h[state(t)], h[state(t + 1)], gates[state(t + 1)][4]) for t, x_t in enumerate(self.x)]
        self.h_last = h[state(steps)]
        self.cell_terms = self.products[:2]
        self.i_g, self.f_c = self.cell_terms
        if record:
            self.x_wide, self.projected = self.x[:, None], self.gates[:-1, :4]
            self.factors = np.empty((steps, 4, batch, hidden))
            self.da = np.empty((steps, batch, 4 * hidden))
            self.dc_dh = np.empty((steps, batch, hidden))
            self.dh, self.dc = np.empty((2, batch, hidden))
            self.gradient = np.empty_like(params.vector)
            self.grads = _views(self.gradient, params.arrays)
            # Each step's da is written gate by gate into the row layout that dh = da u reads.
            da = self.da.reshape(steps, batch, 4, hidden).transpose(0, 2, 1, 3)
            self.back_steps = list(zip(self.dc_dh, self.sig[:, 1], self.factors, self.factors[:, 2], da,
                                       da[:, 2], self.da))[::-1]

    def checked(self, x: np.ndarray, record: bool) -> "Tape":
        """This tape; ValueError naming its kind, batch and steps if x, or a training pass on it, does not fit."""
        steps, batch, dim = self.x.shape
        if x.shape != (batch, steps, dim) or record and not self.record:
            raise ValueError(f"{'recording' if self.record else 'inference'} tape of batch {batch}, {steps} steps"
                             f" does not fit {'a training' if record else 'an'} input of shape {x.shape}")
        return self


# 0-d arrays: a ufunc takes one with less overhead than a Python float.
_HALF, _ONE = np.array(0.5), np.array(1.0)


def _forward(params: LstmParams, tape: Tape, x: np.ndarray) -> np.ndarray:
    """Run the recurrence over x of shape (batch, steps, input_dim) on ``tape``.

    Returns the tape's prediction array. One tanh activates all four gates:
    sigmoid(a) = 0.5 + 0.5 tanh(a / 2), and the i, f and o rows of the
    weights are halved up front (exact in binary floating point).
    """
    t, a = tape, params.arrays
    np.multiply(a["w"], t.scale, out=t.w)
    np.multiply(a["u"], t.scale, out=t.u)
    np.multiply(a["b"], t.scale[:, 0], out=t.b)
    np.copyto(t.x, x.transpose(1, 0, 2))
    t.h[0], t.c[0] = 0.0, 0.0
    # Pre-activations sum x w, then b, then h u on both kinds of tape, so
    # both give the same bits. Recording projects every step's input at
    # once into the blocks it fills anyway; the ring projects per step.
    if t.record:
        np.matmul(t.x_wide, t.w_gates, out=t.projected)
        t.projected += t.b_gates
    else:
        np.copyto(t.bias, t.b_gates)
    # A step is a few calls on small blocks, so call overhead sets its time:
    # the loop reads every function and array from a local name.
    matmul, tanh, multiply, add, half = np.matmul, np.tanh, np.multiply, np.add, _HALF
    ring, u_gates, products, cell_terms, i_g, f_c = not t.record, t.u_gates, t.products, t.cell_terms, t.i_g, t.f_c
    for x_t, z, z_ifo, sig, i_f, o, tanh_c, g_c, h_prev, h_new, c_new in t.steps:
        if ring:
            matmul(x_t, t.w_gates, out=z)
            z += t.bias  # a block of z's own shape: a broadcast add costs twice as much
        z += matmul(h_prev, u_gates, out=products)
        tanh(z, out=z)
        multiply(z_ifo, half, out=sig)
        sig += half
        multiply(i_f, g_c, out=cell_terms)
        add(i_g, f_c, out=c_new)
        tanh(c_new, out=tanh_c)
        multiply(o, tanh_c, out=h_new)
    np.matmul(t.h_last, a["w_out"].T, out=t.prediction)
    t.prediction += a["b_out"]
    return t.prediction


def _backward(params: LstmParams, tape: Tape, d_prediction: np.ndarray) -> np.ndarray:
    """Exact flat gradient, laid out like ``params.vector``, of the pass recorded on ``tape``."""
    t, u = tape, params.arrays["u"]
    (i, _, o), g = t.sig.transpose(1, 0, 2, 3), t.gates[:-1, 3]
    # Every step's local derivatives at once: gate k's pre-activation
    # gradient is factor k times dc (dh for the o gate).
    sig_factors, factor_o, factor_g = t.factors[:, :3], t.factors[:, 2], t.factors[:, 3]
    np.multiply(t.sig, np.subtract(_ONE, t.sig, out=sig_factors), out=sig_factors)
    t.factors[:, :2] *= t.gates[:-1, 3:]  # i by g, f by c
    factor_o *= t.tanh_c
    np.subtract(_ONE, np.square(g, out=factor_g), out=factor_g)
    factor_g *= i
    np.subtract(_ONE, np.square(t.tanh_c, out=t.dc_dh), out=t.dc_dh)
    t.dc_dh *= o  # dc picks up dh times this

    dh, dc = np.matmul(d_prediction, params.arrays["w_out"], out=t.dh), t.dc
    dc.fill(0.0)
    multiply, matmul = np.multiply, np.matmul  # local names, as in the forward loop
    for dc_dh, f_t, factors, factor_o, da, da_o, da_row in t.back_steps:
        dc += multiply(dh, dc_dh, out=dc_dh)  # each step's dc_dh is read once
        multiply(dc, factors, out=da)
        multiply(dh, factor_o, out=da_o)
        matmul(da_row, u, out=dh)
        dc *= f_t
    # Weight gradients sum over every (step, sample) pair, so they wait for the whole da.
    da, grads = t.da.reshape(-1, u.shape[0]), t.grads
    np.matmul(da.T, t.x.reshape(len(da), -1), out=grads["w"])
    np.matmul(da.T, t.h[:-1].reshape(len(da), -1), out=grads["u"])
    np.sum(da, axis=0, out=grads["b"])
    np.matmul(d_prediction.T, t.h_last, out=grads["w_out"])
    np.sum(d_prediction, axis=0, out=grads["b_out"])
    return t.gradient


def lstm_forward(params: LstmParams, x: np.ndarray, tape: Tape | None = None) -> np.ndarray:
    """Next-step predictions for normalized x of shape (batch, steps, input_dim).

    Returns a (batch, input_dim) array, which the next pass on the same
    ``tape`` (an inference tape of x's shape; a fresh one by default)
    overwrites. Training goes through :func:`lstm_loss_gradients`.
    A window's raw bits depend on its batch: numpy hands a one-row product
    to gemv and a larger one to gemm, which round differently, so forecasts
    are batch-invariant only after rounding to canonical decimals.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected input of shape (batch, steps, input_dim), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite value in input sequence")
    return _forward(params, tape.checked(x, False) if tape else Tape(params, x.shape[0], x.shape[1], record=False), x)


def lstm_loss_gradients(
    params: LstmParams, inputs: np.ndarray, targets: np.ndarray, tape: Tape | None = None
) -> tuple[float, np.ndarray]:
    """Mean squared error over a normalized batch and its exact flat gradient.

    inputs has shape (batch, steps, input_dim), targets (batch, input_dim);
    the loss is averaged over both batch and attribute dimensions. The
    gradient is ``tape``'s array (a recording tape of the inputs' shape;
    a fresh one by default), which its next pass overwrites.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    t = tape.checked(inputs, True) if tape else Tape(params, inputs.shape[0], inputs.shape[1])
    diff = np.subtract(_forward(params, t, inputs), targets, out=t.diff)
    loss = float(np.mean(np.square(diff, out=t.d_prediction)))
    np.multiply(2.0, diff, out=t.d_prediction)
    t.d_prediction /= diff.size
    return loss, _backward(params, t, t.d_prediction)


def lstm_train(windows: Sequence[Window], cfg: TrainConfig) -> LstmParams:
    """Fit the one-step predictor with Adam on shuffled mini-batches.

    Each window's first target row is its target, whatever its horizon.

    Normalization statistics are computed from the training inputs before
    any update. Deterministic for a fixed (windows, cfg): a single seeded
    generator drives initialization and every shuffle. The batches of one
    size share a tape; Adam updates in place through two scratch vectors.
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
    m, v, s, r = np.zeros((4, params.vector.size))
    step = 0
    n = len(windows)
    # A full batch and, where the batch size does not divide n, the last one.
    tapes = {k: Tape(params, k, INPUT_LENGTH) for k in {min(cfg.batch_size, n), n % cfg.batch_size} - {0}}
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grad = lstm_loss_gradients(params, x[batch], y[batch], tapes[len(batch)])
            epoch_loss += loss * len(batch)
            step += 1
            m *= beta1
            m += np.multiply(1.0 - beta1, grad, out=s)
            v *= beta2
            v += np.multiply(1.0 - beta2, np.square(grad, out=s), out=s)
            np.multiply(cfg.learning_rate, np.divide(m, 1.0 - beta1**step, out=s), out=s)
            np.add(np.sqrt(np.divide(v, 1.0 - beta2**step, out=r), out=r), eps, out=r)
            params.vector -= np.divide(s, r, out=s)
        epoch_loss /= n
        if not np.isfinite(epoch_loss):
            raise ValueError(f"training diverged at epoch {epoch}")
        logger.info("epoch %d/%d loss %.6g", epoch, cfg.epochs, epoch_loss)
    return params


def lstm_predict(params: LstmParams, inputs: np.ndarray, horizon: int) -> np.ndarray:
    """Iterative rollout of a stack of windows at once: predict, append, slide, repeat.

    ``inputs`` is an (n, 5, 16) stack of windows' input columns in
    ATTRIBUTES order. The stack is normalized once, and so is each
    prediction as it joins the sequence (the oldest step drops off): each
    step reads a slice of one normalized array, on one inference tape that
    broadcasts the gate bias once per pass. Returns the (n, 5, horizon)
    forecasts, denormalized and rounded to canonical precision.
    """
    n, _, steps = inputs.shape
    raw = np.empty((n, horizon, ATTR_DIM))
    # The inputs, then each forecast: step k reads rows k to k + steps - 1.
    sequence = np.empty((n, steps + horizon, ATTR_DIM))
    sequence[:, :steps] = normalize(params, inputs.transpose(0, 2, 1))
    tape = Tape(params, n, steps, record=False)
    for step in range(horizon):
        raw[:, step] = denormalize(params, lstm_forward(params, sequence[:, step : step + steps], tape))
        sequence[:, steps + step] = normalize(params, raw[:, step])
    return round_values(raw, CANONICAL_DECIMALS).transpose(0, 2, 1)
