"""MSE training with Adam, manual backprop, and fit metrics on fresh points."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .domain import BoxDomain
from .objectives import (DATASET_BUDGET, ROW_BLOCK, Dataset, Objective, _check_dims, _integer,
                         _real, _within_budget, _write_csv)
from .resnet import ResNet

# Adam's decay rates and denominator guard, fixed at the values of Kingma & Ba (2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8
# Row passes (rows x epochs) that train makes at most. This bounds its time and
# the loss history's length; the full multimin pipeline makes 4,000 x 1,000.
TRAIN_BUDGET = 10**7
# Steps (epochs x batches per epoch) that train makes at most. Each costs about a
# millisecond whatever its rows, so this bounds the time of few rows over many
# epochs; the reduced drop-wave pipeline makes 600 x 24 = 14,400.
STEP_BUDGET = 10**5
# Weights rounded at a time by _short_decimals. Its strings come from the heap, which glibc
# shrinks only from the top; for 58,081 weights, 4,096-weight slices left the train command's
# peak RSS 0.2 MB higher than 1,024-weight slices, and one slice of all of them 5 MB higher.
_ROUND_SLICE = 1024


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 1000
    batch_size: int | None = None  # None: full batch up to 4096 rows, else 256
    seed: int = 0

    def __post_init__(self):
        if not 0 < _real("learning_rate", self.learning_rate) < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        self.epochs = _integer("epochs", self.epochs, 1)
        if self.batch_size is not None:
            self.batch_size = _integer("batch_size", self.batch_size, 1)
        self.seed = _integer("seed", self.seed, 0)

    def resolve_batch_size(self, n_rows: int) -> int:
        if self.batch_size is not None:
            if self.batch_size > n_rows:
                raise ValueError(f"batch_size {self.batch_size} exceeds the dataset's {n_rows} rows")
            return self.batch_size
        return n_rows if n_rows <= 4096 else 256


@dataclass
class FitReport:
    mae: float
    mse: float
    n_eval_points: int
    eval_domain: BoxDomain
    eval_seed: int


class _TrainWorkspace:
    """Every array a training step writes, allocated once for batches of up to ``rows`` rows.

    Each layer's output and ReLU derivative mask go into ``outputs[k]`` and
    ``derivs[k]`` (None without activation); a batch of n rows uses their
    leading n rows, which ``_rows(n)`` hands to the layer loop. Beside
    those: the flat gradient ``grad``, in ``_layer_views``' order and with
    per-layer ``(dW, db)`` views in ``grads``; two dL/dh buffers sized to
    the widest layer, which the backward pass alternates between; and one
    scratch array for Adam. All of them take the network's dtype, except the
    bool ReLU derivative masks.
    """

    def __init__(self, net: ResNet, rows: int):
        dtype = net.layers[0].weights.dtype
        self.outputs = [np.empty((rows, lyr.out_width), dtype) for lyr in net.layers]
        self.derivs = [np.empty((rows, lyr.out_width), bool) if lyr.has_activation
                       else None for lyr in net.layers]
        self.grad = np.empty(net.num_params, dtype)
        self.grads = _layer_views(self.grad, net)
        widest = max(net.widths())
        self.chain = (np.empty(rows * widest, dtype), np.empty(rows * widest, dtype))
        self.scratch = np.empty(net.num_params, dtype)

    def _rows(self, n: int) -> list:
        """Per layer, views of the first n rows of its output and derivative buffers."""
        return [(z[:n], None if d is None else d[:n]) for z, d in zip(self.outputs, self.derivs)]


def _layer_views(flat: np.ndarray, net: ResNet) -> list:
    """Per layer, (W, b) views of a flat buffer holding, layer by layer, row-major W then b."""
    views, start = [], 0
    for lyr in net.layers:
        mid = start + lyr.weights.size
        views.append((flat[start:mid].reshape(lyr.weights.shape), flat[mid : mid + lyr.out_width]))
        start = mid + lyr.out_width
    return views


def _bind(net: ResNet, flat: np.ndarray) -> None:
    """Make every weight and bias of the network a view of the flat buffer."""
    for lyr, (w, b) in zip(net.layers, _layer_views(flat, net)):
        lyr.weights, lyr.bias = w, b


def _short_decimals(params: np.ndarray) -> np.ndarray:
    """Per float32 value w, ``float(str(w))``: the float64 nearest the shortest decimal
    that rounds to w in float32, so it prints as that decimal (at most 9 significant
    digits) and narrows back to w. numpy's float32 -> str cast writes that decimal; it
    runs a slice at a time, so the strings of one slice are all that is held."""
    wide = np.empty(params.size)
    for start in range(0, params.size, _ROUND_SLICE):
        part = slice(start, start + _ROUND_SLICE)
        wide[part] = params[part].astype(str).astype(np.float64)
    return wide


def loss_and_gradients(net: ResNet, X: np.ndarray, targets: np.ndarray,
                       ws: _TrainWorkspace | None = None):
    """Mean squared error over the rows and its gradient w.r.t. every weight and bias.

    Returns (loss, grads) where grads is a list of (dW, db) per layer, views
    of ``ws.grad`` in the network's dtype; the inputs and targets should
    already have it. Without a workspace (``train`` passes its own), the
    pass allocates one for the rows of X. The forward pass runs the network's
    layer loop into the workspace unchecked, so a non-finite output gives a
    non-finite loss (``train`` then asks ``forward`` which layer it was).
    """
    n = len(X)
    ws = _TrainWorkspace(net, n) if ws is None else ws
    layers = ws._rows(n)
    resid = net._layers(net._input(X), layers)[:, 0] - targets
    loss = float(np.mean(resid**2))

    g = (2.0 / n * resid)[:, None]  # dL/dh for the output layer, shape (n, 1)
    for i in range(len(net.layers) - 1, -1, -1):
        lyr = net.layers[i]
        z, d = layers[i]
        dW, db = ws.grads[i]
        # the pre-activation gradient, into layer i's output: layer i + 1's dW has used it
        gz = g if d is None else np.multiply(g, d, out=z)
        np.matmul(gz.T, layers[i - 1][0] if i else X, out=dW)
        np.sum(gz, axis=0, out=db)
        if i:  # dL/dh_in into one of the two chain buffers; no result reads layer 0's
            w = lyr.in_width
            g_in = np.matmul(gz, lyr.weights, out=ws.chain[i % 2][: n * w].reshape(n, w))
            if lyr.has_skip:
                g_in += g
            g = g_in
    return loss, ws.grads


@np.errstate(over="ignore", invalid="ignore")  # entered once per call, not per step
def train(net: ResNet, data: Dataset, cfg: TrainConfig) -> tuple[ResNet, list[float]]:
    """Train a copy of the network by Adam on MSE; returns (net, loss history).

    All of the training arithmetic is float32: the copy's weights, the
    dataset's inputs and targets, the workspace and Adam's moments. The
    returned network evaluates in float64 like any other: each weight is the
    float64 nearest the shortest decimal that rounds to its float32 value,
    numpy's own shortest float32 repr (``_short_decimals``), so the weight
    file holds at most 9 significant digits per weight and training it again
    starts from the same float32 values.

    Deterministic for fixed config and dataset: row order is shuffled by the
    seeded generator and all reductions run in fixed order. Raises
    ValueError, before any step, when a weight, a bias, an input or a target
    is not a finite float32, when the batch size exceeds the rows, when
    rows x epochs exceed TRAIN_BUDGET or when batches x epochs exceed STEP_BUDGET.
    On a non-finite loss it runs ``forward`` on that step's batch, which raises
    FloatingPointError naming the first non-finite layer when the network output
    itself is not finite; else it raises TrainingDiverged. Since those errors
    say where values stopped being finite, numpy's overflow and invalid-value
    warnings are silenced.
    """
    if data.dim != net.input_dim:
        raise ValueError(f"dataset dimension {data.dim} != network input {net.input_dim}")
    batch = cfg.resolve_batch_size(len(data))
    rows, epochs, batches = len(data), cfg.epochs, -(-len(data) // batch)
    _within_budget(rows * epochs, TRAIN_BUDGET, f"{rows} rows x {epochs} epochs", "row passes",
                   "epochs or the rows")
    _within_budget(batches * epochs, STEP_BUDGET, f"{batches} batches x {epochs} epochs", "steps",
                   "epochs or raise the batch size")
    limit = float(np.finfo(np.float32).max)
    weights = [a for lyr in net.layers for a in (lyr.weights, lyr.bias)]
    if not all(np.all(np.abs(a) <= limit) for a in weights):
        raise ValueError(f"network weights must be finite and within float32's range "
                         f"(|w| <= {limit:.4g}) to train in float32")
    # min and max propagate NaN and allocate no copy of the dataset
    if not all(-limit <= a.min() and a.max() <= limit for a in (data.inputs, data.targets)):
        raise ValueError(f"training data must be finite and within float32's range "
                         f"(|v| <= {limit:.4g}) to train in float32")
    # every weight and bias of a copy of each layer becomes a view of one float32
    # buffer, in _layer_views' order; the caller's layers keep their arrays
    net = ResNet([replace(lyr) for lyr in net.layers])
    params = np.concatenate([a.ravel() for a in weights], dtype=np.float32)
    _bind(net, params)
    inputs, targets = data.inputs.astype(np.float32), data.targets.astype(np.float32)
    n = len(data)
    rng = np.random.default_rng(cfg.seed)
    ws = _TrainWorkspace(net, batch)
    g, s = ws.grad, ws.scratch

    m_state, v_state = np.zeros_like(params), np.zeros_like(params)
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    t = 0
    history: list[float] = []

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            loss, _ = loss_and_gradients(net, inputs[idx], targets[idx], ws)
            if not np.isfinite(loss):
                net.forward(inputs[idx])  # names the first non-finite layer, if the output is one
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
            epoch_loss += loss * len(idx)
            t += 1
            # a Python float: an np.float64 scalar would promote the float32 arrays
            lr_t = cfg.learning_rate * math.sqrt(1.0 - b2**t) / (1.0 - b1**t)
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g ** 2 and
            # params -= lr_t m / (sqrt(v) + eps), rounded as written, in place;
            # g's buffer, once spent, holds sqrt(v) + eps
            np.multiply(g, 1 - b1, out=s)
            m_state *= b1
            m_state += s
            np.square(g, out=s)
            s *= 1 - b2
            v_state *= b2
            v_state += s
            np.sqrt(v_state, out=g)
            g += eps
            np.multiply(m_state, lr_t, out=s)
            s /= g
            params -= s
        history.append(epoch_loss / n)
    _bind(net, _short_decimals(params))
    return net, history


def evaluate_fit(
    net: ResNet,
    f: Objective,
    eval_domain: BoxDomain,
    n: int = 1000,
    seed: int = 0,
) -> FitReport:
    """MAE/MSE between the network and the target on fresh uniform points.

    The network runs ROW_BLOCK rows at a time, each block through ``forward``,
    which names the first non-finite layer. ValueError, before any
    evaluation, when the dimensions differ or unless 1 <= n <= DATASET_BUDGET
    and seed >= 0 are integers."""
    if f.dim != net.input_dim:
        raise ValueError(f"network input dimension {net.input_dim} != objective dimension {f.dim}")
    _check_dims(f, eval_domain)
    n, seed = _integer("n", n, 1), _integer("seed", seed, 0)
    _within_budget(n, DATASET_BUDGET, f"n = {n} points", "points", "n")
    rng = np.random.default_rng(seed)
    X = eval_domain.sample_uniform(rng, n)
    outputs = np.concatenate([net.forward(X[s : s + ROW_BLOCK]) for s in range(0, n, ROW_BLOCK)])
    err = outputs - f.evaluate_many(X)
    return FitReport(
        mae=float(np.mean(np.abs(err))),
        mse=float(np.mean(err**2)),
        n_eval_points=n,
        eval_domain=eval_domain,
        eval_seed=seed,
    )


def save_loss_history(history: list[float], path) -> None:
    _write_csv(path, ("epoch", "loss"), [np.arange(len(history)), history])
