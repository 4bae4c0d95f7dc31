"""MSE training with Adam, manual backprop, and fit metrics on fresh points."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import BoxDomain
from .objectives import Dataset, Objective, _check_dims, _integer, _write_csv
from .resnet import ResNet

# Adam's decay rates and denominator guard, fixed at the values of Kingma & Ba (2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8
# Weights rounded at a time by _short_decimals. Its temporaries come from the heap,
# which glibc shrinks only from the top; in 4,096-weight slices they left the train
# command's peak RSS about 0.4 MB higher than in 1,024-weight slices.
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
        if not 0 < self.learning_rate < math.inf:
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


class _TrainWorkspace(list):
    """Every array a training step writes, allocated once for batches of up to ``rows`` rows.

    A forward cache (see ``ResNet.forward``) that records like a list, with
    each layer's output and activation derivative in ``outputs[k]`` and
    ``derivs[k]`` (None without activation); a batch of n rows uses their
    leading n rows. Beside those: the flat gradient ``grad``, in
    ``_layer_views``' order and with per-layer ``(dW, db)`` views in
    ``grads``; two dL/dh buffers sized to the widest layer, which the
    backward pass alternates between; and one scratch array for Adam. All
    of them take the network's dtype, except a ReLU's bool derivative mask.
    """

    def __init__(self, net: ResNet, rows: int):
        super().__init__()
        dtype = net.layers[0].weights.dtype
        deriv_dtype = bool if net.activation == "relu" else dtype
        self.outputs = [np.empty((rows, lyr.out_width), dtype) for lyr in net.layers]
        self.derivs = [np.empty((rows, lyr.out_width), deriv_dtype) if lyr.has_activation
                       else None for lyr in net.layers]
        self.grad = np.empty(net.num_params, dtype)
        self.grads = _layer_views(self.grad, net)
        widest = max(net.widths())
        self.chain = (np.empty(rows * widest, dtype), np.empty(rows * widest, dtype))
        self.scratch = np.empty(net.num_params, dtype)

    def _rows(self, n: int) -> list:
        """Drop the previous records; per layer, views of the first n rows of
        its output and derivative buffers (see ``ResNet.forward``)."""
        self.clear()
        return [(z[:n], None if d is None else d[:n]) for z, d in zip(self.outputs, self.derivs)]

    def _layer(self, i: int, n: int):
        """The arrays layer i's backward step on n rows writes: dW, db, the
        pre-activation gradient (into layer i's output buffer, spent once layer
        i + 1's dW is done) and dL/dh_in (into one of the two chain buffers)."""
        dW, db = self.grads[i]
        width_in = dW.shape[1]
        return dW, db, self.outputs[i][:n], self.chain[i % 2][: n * width_in].reshape(n, width_in)


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
    """Per float32 value w, the float64 nearest the shortest decimal that rounds to w in float32.

    That is ``float(str(w))``, so the float64 prints as that decimal (at
    most 9 significant digits) and narrows back to w. For 1e-14 <= |w| <
    1e22, where every power 10^k used is exact in float64, it is computed
    a slice at a time: for p = 1, ..., 9 significant digits, the nearest
    p-digit decimal round(w 10^k) / 10^k (for k < 0, times 10^-k), one
    correctly rounded operation on exact operands, is kept where it rounds
    back to w in float32. Other values, zeros among them, go through ``str``.
    """
    wide = params.astype(np.float64)
    for start in range(0, wide.size, _ROUND_SLICE):
        w32, w = params[start : start + _ROUND_SLICE], wide[start : start + _ROUND_SLICE]
        a = np.abs(w)
        fast = (a >= 1e-14) & (a < 1e22)
        todo = fast.copy()
        e = np.floor(np.log10(np.where(fast, a, 1.0)))  # w's decimal exponent
        for p in range(1, 10):
            k = p - 1 - e
            scale = 10.0 ** np.abs(k)
            up = k >= 0
            q = np.round(np.where(up, w * scale, w / scale))
            c = np.where(up, q / scale, q * scale)
            kept = todo & (c.astype(np.float32) == w32)
            w[kept] = c[kept]
            todo &= ~kept
        rest = np.flatnonzero(todo | ~fast)
        w[rest] = [float(str(v)) for v in w32[rest]]
    return wide


def loss_and_gradients(net: ResNet, X: np.ndarray, targets: np.ndarray,
                       ws: _TrainWorkspace | None = None):
    """Mean squared error over the rows and its gradient w.r.t. every weight and bias.

    Returns (loss, grads) where grads is a list of (dW, db) per layer, in the
    network's dtype; the inputs and targets should already have it. Without
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


@np.errstate(over="ignore", invalid="ignore")  # entered once per call, not per step
def train(net: ResNet, data: Dataset, cfg: TrainConfig) -> tuple[ResNet, list[float]]:
    """Train a copy of the network by Adam on MSE; returns (net, loss history).

    All of the training arithmetic is float32: the copy's weights, the
    dataset's inputs and targets, the workspace and Adam's moments. The
    returned network evaluates in float64 like any other: each weight is the
    float64 nearest the shortest decimal that rounds to its float32 value
    (``_short_decimals``), so the weight file holds at most 9 significant
    digits per weight and training it again starts from the same float32
    values.

    Deterministic for fixed config and dataset: row order is shuffled by the
    seeded generator and all reductions run in fixed order. Raises
    ValueError, before any step, when a weight, a bias, an input or a target
    is not a finite float32, or when the batch size exceeds the rows;
    TrainingDiverged on a non-finite loss, or the forward pass's
    FloatingPointError when the network output itself is not finite. Since
    those errors say where values stopped being finite, numpy's overflow and
    invalid-value warnings are silenced.
    """
    if data.dim != net.input_dim:
        raise ValueError(f"dataset dimension {data.dim} != network input {net.input_dim}")
    batch = cfg.resolve_batch_size(len(data))
    limit = float(np.finfo(np.float32).max)
    weights = [a for lyr in net.layers for a in (lyr.weights, lyr.bias)]
    if not all(np.all(np.abs(a) <= limit) for a in weights):
        raise ValueError(f"network weights must be finite and within float32's range "
                         f"(|w| <= {limit:.4g}) to train in float32")
    # min and max propagate NaN and allocate no copy of the dataset
    if not all(-limit <= a.min() and a.max() <= limit for a in (data.inputs, data.targets)):
        raise ValueError(f"training data must be finite and within float32's range "
                         f"(|v| <= {limit:.4g}) to train in float32")
    net = net.copy()
    # every weight and bias becomes a view of one float32 buffer, in _layer_views' order
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

    ValueError, before any evaluation, when the dimensions differ or unless
    n >= 1 and seed >= 0 are integers."""
    if f.dim != net.input_dim:
        raise ValueError(f"network input dimension {net.input_dim} != objective dimension {f.dim}")
    _check_dims(f, eval_domain)
    n, seed = _integer("n", n, 1), _integer("seed", seed, 0)
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
