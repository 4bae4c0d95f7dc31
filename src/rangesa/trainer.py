"""MSE training with Adam, manual backprop, and fit metrics on fresh points."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BoxDomain
from .objectives import Dataset, Objective, _write_csv
from .resnet import ResNet, Workspace

# Adam's decay rates and denominator guard, fixed at the values of Kingma & Ba (2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 1000
    batch_size: int | None = None  # None: full batch up to 4096 rows, else 256
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")

    def resolve_batch_size(self, n_rows: int) -> int:
        if self.batch_size is not None:
            if self.batch_size > n_rows:
                raise ValueError("batch_size exceeds dataset size")
            return self.batch_size
        return n_rows if n_rows <= 4096 else 256


@dataclass
class FitReport:
    mae: float
    mse: float
    n_eval_points: int
    eval_domain: BoxDomain
    eval_seed: int

    def to_json_dict(self) -> dict:
        return {
            "mae": self.mae,
            "mse": self.mse,
            "n_eval_points": self.n_eval_points,
            "eval_domain": [list(b) for b in self.eval_domain.bounds],
            "eval_seed": self.eval_seed,
        }


class _TrainWorkspace(Workspace):
    """Every array a training step writes, allocated once for batches of up to ``rows`` rows.

    Beside the forward cache's buffers: the flat gradient ``grad``, laid out
    like ``flatten_gradients`` and with per-layer ``(dW, db)`` views in
    ``grads``; two dL/dh buffers sized to the widest layer, which the
    backward pass alternates between; and one scratch array for Adam.
    """

    def __init__(self, net: ResNet, rows: int):
        super().__init__(net, rows)
        self.grad = np.empty(net.num_params)
        self.grads = _layer_views(self.grad, net)
        widest = max(net.widths())
        self.chain = (np.empty(rows * widest), np.empty(rows * widest))
        self.scratch = np.empty(net.num_params)

    def _layer(self, i: int, n: int):
        """The arrays layer i's backward step on n rows writes: dW, db, the
        pre-activation gradient (into layer i's output buffer, spent once layer
        i + 1's dW is done) and dL/dh_in (into one of the two chain buffers)."""
        dW, db = self.grads[i]
        width_in = dW.shape[1]
        return dW, db, self.outputs[i][:n], self.chain[i % 2][: n * width_in].reshape(n, width_in)


def _layer_views(flat: np.ndarray, net: ResNet) -> list:
    """Per layer, (W, b) views of a flat buffer in flatten_gradients' order."""
    views, start = [], 0
    for lyr in net.layers:
        mid = start + lyr.weights.size
        views.append((flat[start:mid].reshape(lyr.weights.shape), flat[mid : mid + lyr.out_width]))
        start = mid + lyr.out_width
    return views


def loss_and_gradients(net: ResNet, X: np.ndarray, targets: np.ndarray,
                       ws: _TrainWorkspace | None = None):
    """Mean squared error over the rows and its gradient w.r.t. every weight and bias.

    Returns (loss, grads) where grads is a list of (dW, db) per layer. Without
    a workspace every array is allocated; with one (``train``'s), the pass
    writes into its buffers and grads are views of ``ws.grad``, with the same
    bits.
    """
    cache = [] if ws is None else ws
    out = net.forward(X, cache)
    resid = out - targets
    loss = float(np.mean(resid**2))

    n = len(X)
    g = (2.0 / n * resid)[:, None]  # dL/dh for the output layer, shape (n, 1)
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        lyr = net.layers[i]
        h_in, d = cache[i]
        dW, db, gz, gh = (None,) * 4 if ws is None else ws._layer(i, n)
        gz = g if d is None else np.multiply(g, d, out=gz)
        dW = np.matmul(gz.T, h_in, out=dW)
        db = np.sum(gz, axis=0, out=db)
        gh = np.matmul(gz, lyr.weights, out=gh)
        if lyr.has_skip:
            gh += g
        grads[i] = (dW, db)
        g = gh
    return loss, grads


def flatten_gradients(grads) -> np.ndarray:
    """Deterministic parameter ordering: per layer, row-major W then b."""
    parts = []
    for dW, db in grads:
        parts.append(dW.ravel())
        parts.append(db)
    return np.concatenate(parts)


def gradient(net: ResNet, x, target: float) -> np.ndarray:
    """Gradient of (forward(net, x) - target)^2 over all parameters, flattened."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise ValueError(f"expected input of dimension {net.input_dim}, got shape {x.shape}")
    _, grads = loss_and_gradients(net, x[None, :], np.array([target]))  # one row: mean = sum
    return flatten_gradients(grads)


def train(net: ResNet, data: Dataset, cfg: TrainConfig) -> tuple[ResNet, list[float]]:
    """Train a copy of the network by Adam on MSE; returns (net, loss history).

    Deterministic for fixed config and dataset: row order is shuffled by the
    seeded generator and all reductions run in fixed order. Raises
    TrainingDiverged on a non-finite loss, or the forward pass's
    FloatingPointError when the network output itself is not finite.
    """
    if data.dim != net.input_dim:
        raise ValueError(f"dataset dimension {data.dim} != network input {net.input_dim}")
    net = net.copy()
    # every weight and bias becomes a view of one buffer, in flatten_gradients' order
    params = np.concatenate([a.ravel() for lyr in net.layers for a in (lyr.weights, lyr.bias)])
    for lyr, (w, b) in zip(net.layers, _layer_views(params, net)):
        lyr.weights, lyr.bias = w, b
    n = len(data)
    batch = cfg.resolve_batch_size(n)
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
            loss, _ = loss_and_gradients(net, data.inputs[idx], data.targets[idx], ws)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
            epoch_loss += loss * len(idx)
            t += 1
            lr_t = cfg.learning_rate * np.sqrt(1.0 - b2**t) / (1.0 - b1**t)
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
    return net, history


def evaluate_fit(
    net: ResNet,
    f: Objective,
    eval_domain: BoxDomain,
    n: int = 1000,
    seed: int = 0,
) -> FitReport:
    """MAE/MSE between the network and the target on fresh uniform points."""
    if f.dim != net.input_dim or eval_domain.dim != net.input_dim:
        raise ValueError("objective, domain and network dimensions must agree")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    X = eval_domain.sample_uniform(rng, n)
    err = net.forward(X) - f.evaluate_many(X)
    return FitReport(
        mae=float(np.mean(np.abs(err))),
        mse=float(np.mean(err**2)),
        n_eval_points=n,
        eval_domain=eval_domain,
        eval_seed=seed,
    )


def save_loss_history(history: list[float], path) -> None:
    _write_csv(path, ("epoch", "loss"), [range(len(history)), history])
