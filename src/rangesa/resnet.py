"""Residual networks: construction, forward evaluation, weight files.

Evaluation is float64: ``Layer`` casts every weight and bias to float64, so
the annealer, the grid oracle and the fit report see float64 values. The
annealer compares tiny value differences, and float32 noise would pollute
its acceptance decisions. Training is float32: ``trainer.train`` fits a
private copy whose weights are float32, since float32 matrix products run
about twice as fast and Adam's noisy steps do not need float64; it returns
each float32 weight as the float64 nearest its shortest decimal. ``forward``
and the backward pass compute in the dtype of the network's own arrays.
``as_objective`` evaluates through ``forward`` into two buffers per thread,
which the layers write by turns, so a batch allocates no layer output.
"""
from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .objectives import Objective, _integer

WEIGHT_FORMAT_VERSION = 1
_SAVE_SLICE = 4096  # floats turned into Python objects at a time by ResNet.save


class WeightFormatError(ValueError):
    """Raised when a weight file is malformed or violates the width chain."""


def _relu(z, out=None):
    return np.maximum(z, 0.0, out=out)


# Each derivative is computed from the activation's output a = act(z), as
# sigmoid' = s (1 - s) and tanh' = 1 - t ** 2, so the forward pass needs no
# second array of z and can write the derivative into a buffer of its own.
def _relu_deriv(a, out=None):
    # z > 0 exactly where max(z, 0) > 0; subgradient 0 at exactly 0; a bool mask,
    # since g * mask equals g * 1.0 or g * 0.0
    return np.greater(a, 0.0, out=out)


def _sigmoid(z, out=None):
    # 1 / (1 + exp(-z)), one operation at a time so that ``out=z`` works in place
    out = np.negative(z, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _sigmoid_deriv(a, out=None):
    # s * (1 - s) as (1 - s) * s: the product is commutative bit for bit
    out = np.subtract(1.0, a, out=out)
    out *= a
    return out


def _tanh_deriv(a, out=None):
    # 1 - tanh(z) ** 2
    out = np.square(a, out=out)
    return np.subtract(1.0, out, out=out)


_ACT_FNS = {
    "relu": (_relu, _relu_deriv),
    "sigmoid": (_sigmoid, _sigmoid_deriv),
    "tanh": (np.tanh, _tanh_deriv),
}
ACTIVATIONS = tuple(_ACT_FNS)


@dataclass
class Layer:
    """One affine stage, optionally followed by activation and identity skip."""

    weights: np.ndarray  # (out_width, in_width)
    bias: np.ndarray     # (out_width,)
    has_activation: bool = True
    has_skip: bool = False

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("weights must be (out, in) with matching bias")
        if self.has_skip and self.in_width != self.out_width:
            raise ValueError("identity skip requires in_width == out_width")

    @property
    def in_width(self) -> int:
        return self.weights.shape[1]

    @property
    def out_width(self) -> int:
        return self.weights.shape[0]


@dataclass
class ResNet:
    """Scalar-output residual network: affine + activation (+ identity skip) stack."""

    layers: list[Layer]
    activation: str = "relu"
    input_dim: int = field(init=False)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        if self.activation not in _ACT_FNS:
            raise ValueError(f"unknown activation {self.activation!r}; one of {ACTIVATIONS}")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_width != b.in_width:
                raise ValueError(
                    f"width chain broken: layer out {a.out_width} feeds layer in {b.in_width}"
                )
        out = self.layers[-1]
        if out.out_width != 1 or out.has_activation or out.has_skip:
            raise ValueError("output layer must be plain affine with a single output")
        self.input_dim = self.layers[0].in_width

    @property
    def num_params(self) -> int:
        return sum((lyr.in_width + 1) * lyr.out_width for lyr in self.layers)

    def widths(self) -> list[int]:
        return [self.input_dim] + [lyr.out_width for lyr in self.layers]

    def forward(self, X, buffers=None, strict: bool = True):
        """Network output at a (d,) point (a float) or an (n, d) batch (an (n,) array).

        Each layer computes its matmul result into a new array, or into the
        ``z`` of its ``(z, d)`` pair in ``buffers``, and applies the bias,
        activation and skip to it in place; where ``d`` is not None, the
        activation's derivative at the pre-activation goes into it (a bool
        mask for ReLU). ``X`` is never written. Raises FloatingPointError
        naming the first non-finite layer when the output is not finite;
        training runs through here, so ``train`` may raise it too; with
        ``strict=False`` the outputs are returned as computed. The arithmetic
        is in the dtype of the layers' arrays.
        """
        X = np.asarray(X, dtype=self.layers[0].weights.dtype)
        if X.ndim not in (1, 2) or X.shape[-1] != self.input_dim:
            raise ValueError(f"expected input of dimension {self.input_dim}, got shape {X.shape}")
        act, act_deriv = _ACT_FNS[self.activation]
        h = X
        for lyr, (z_out, d_out) in zip(self.layers, buffers or repeat((None, None))):
            z = np.matmul(h, lyr.weights.T, out=z_out)
            z += lyr.bias
            if lyr.has_activation:
                act(z, out=z)
                if d_out is not None:
                    act_deriv(z, out=d_out)
            if lyr.has_skip:
                z += h
            h = z
        if strict and not np.isfinite(h).all():
            # walk the layers again, each into an array of its own, to find the first bad one
            outputs = [np.empty(X.shape[:-1] + (lyr.out_width,), X.dtype) for lyr in self.layers]
            self.forward(X, [(z, None) for z in outputs], strict=False)
            layer = next(k for k, z in enumerate(outputs, start=1) if not np.isfinite(z).all())
            raise FloatingPointError(f"non-finite value at layer {layer}")
        out = h[..., 0]
        return out if out.ndim else float(out)

    def as_objective(self) -> Objective:
        """The network as a black box; a row whose output overflows evaluates to NaN
        (see ``Objective``), which the annealer rejects and the grid oracle skips.
        Each calling thread's hidden layers write into buffers of its own (``_Buffers``)."""
        buffers = _Buffers(self)
        return Objective(lambda X: self.forward(X, buffers._rows(len(X)), strict=False),
                         self.input_dim, name="resnet")

    def copy(self) -> "ResNet":
        return ResNet(
            layers=[
                Layer(lyr.weights.copy(), lyr.bias.copy(), lyr.has_activation, lyr.has_skip)
                for lyr in self.layers
            ],
            activation=self.activation,
        )

    # --- serialization -------------------------------------------------

    def save(self, path) -> None:
        """Write the weight file: ``json.dumps(doc) + "\n"`` of the header fields
        and, per layer, the widths, flags and the flattened weights and bias.

        The text goes to the file in pieces, the weights a slice at a time,
        so memory stays bounded by one slice of Python floats.
        """
        header = {"format_version": WEIGHT_FORMAT_VERSION, "activation": self.activation,
                  "input_dim": self.input_dim}
        with open(path, "w") as f:
            f.write(json.dumps(header)[:-1] + ', "layers": [')
            for i, lyr in enumerate(self.layers):
                shape = {"in_width": lyr.in_width, "out_width": lyr.out_width,
                         "has_skip": lyr.has_skip, "has_activation": lyr.has_activation}
                f.write((", " if i else "") + json.dumps(shape)[:-1] + ', "weights": ')
                _write_json_floats(f, lyr.weights.ravel())
                f.write(', "bias": ')
                _write_json_floats(f, lyr.bias)
                f.write("}")
            f.write("]}\n")

    @classmethod
    def load(cls, path) -> "ResNet":
        try:
            # each layer's weights and bias become arrays as soon as the layer is parsed
            doc = json.loads(Path(path).read_text(), object_hook=_layer_arrays)
        except json.JSONDecodeError as exc:
            raise WeightFormatError(f"malformed weight file {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise WeightFormatError(f"weight file {path} must hold a JSON object")
        try:
            version = doc["format_version"]
            if version != WEIGHT_FORMAT_VERSION:
                raise WeightFormatError(f"unsupported format_version {version}")
            layers = []
            for i, entry in enumerate(doc["layers"]):
                where = f"weight file {path}: layer {i}: field"
                # JSON integers only: 2.7, 2.0 and true are refused, not truncated
                n_in, n_out = (_integer(f"{where} '{key}'", entry[key], 1)
                               for key in ("in_width", "out_width"))
                for key in ("has_activation", "has_skip"):
                    if not isinstance(entry[key], bool):
                        raise WeightFormatError(
                            f"{where} '{key}' must be true or false, got {entry[key]!r}")
                for key in ("weights", "bias"):
                    if not isinstance(entry[key], np.ndarray):  # see _layer_arrays
                        raise WeightFormatError(
                            f"{where} '{key}' must be a list of numbers, without null or strings"
                        )
                w, b = entry["weights"], entry["bias"]
                if w.size != n_in * n_out:
                    raise WeightFormatError(
                        f"layer {i}: field 'weights' has {w.size} numbers, "
                        f"expected {n_out}x{n_in}"
                    )
                if b.size != n_out:
                    raise WeightFormatError(
                        f"layer {i}: field 'bias' has {b.size} numbers, expected {n_out}"
                    )
                layers.append(
                    Layer(
                        weights=w.reshape(n_out, n_in),
                        bias=b,
                        has_activation=entry["has_activation"],
                        has_skip=entry["has_skip"],
                    )
                )
            net = cls(layers=layers, activation=doc["activation"])
            if type(doc["input_dim"]) is not int or doc["input_dim"] != net.input_dim:
                raise WeightFormatError(f"weight file {path}: field 'input_dim' is "
                                        f"{doc['input_dim']!r}, but layer 0 has in_width "
                                        f"{net.input_dim}")
        except KeyError as exc:
            raise WeightFormatError(f"weight file missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise WeightFormatError(str(exc)) from exc
        return net


class _Buffers(threading.local):
    """Per thread, two flat buffers that a forward pass's hidden layers write by turns.

    Layer k writes into buffer k % 2 and reads its input, and its skip term,
    from the other one. The buffers hold the widest layer for the most rows
    seen so far, and grow only when a larger batch arrives; the views for the
    last row count are kept, so a repeated batch size pays no slicing. The
    output layer's (n, 1) result is allocated, so the values returned belong
    to the caller.
    """

    def __init__(self, net: ResNet):
        self.widths = [lyr.out_width for lyr in net.layers]
        self.dtype = net.layers[0].weights.dtype
        self.pair = (np.empty(0, self.dtype),) * 2
        self.n, self.views = -1, []

    def _rows(self, n: int) -> list:
        """Per layer, the (n, width) view to write its output into (None for the output
        layer), and None for the derivative, which is not needed."""
        if n != self.n:
            size = n * max(self.widths)
            if size > self.pair[0].size:
                self.pair = (np.empty(size, self.dtype), np.empty(size, self.dtype))
            self.views = [(self.pair[k % 2][: n * w].reshape(n, w), None)
                          for k, w in enumerate(self.widths[:-1])] + [(None, None)]
            self.n = n
        return self.views


def _write_json_floats(f, values: np.ndarray) -> None:
    """Write ``json.dumps(values.tolist())`` of a flat array, one slice at a time."""
    f.write("[")
    for start in range(0, values.size, _SAVE_SLICE):
        text = json.dumps(values[start:start + _SAVE_SLICE].tolist())
        f.write((", " if start else "") + text[1:-1])
    f.write("]")


def _layer_arrays(obj: dict) -> dict:
    """json.loads hook: a layer's ``weights`` and ``bias`` lists of numbers as float
    arrays (true and false count as 1 and 0). Any other list, such as one holding
    null or a string, or a ragged one, is left for ResNet.load's checks to reject."""
    for key in ("weights", "bias"):
        if isinstance(obj.get(key), list):
            try:
                values = np.asarray(obj[key])
            except (TypeError, ValueError):
                continue
            if values.dtype.kind == "O" and not any(v is None or isinstance(v, str)
                                                    for v in values.flat):
                values = values.astype(float)  # integers beyond int64's range
            if values.dtype.kind in "biuf":
                obj[key] = values.astype(float, copy=False)
    return obj


def build_resnet(
    widths: list[int],
    activation: str = "relu",
    seed: int = 0,
) -> ResNet:
    """Build a ResNet from the full width chain [d, h1, ..., hk, 1].

    Hidden layers get the activation; the identity skip is active exactly on
    equal-width hidden transitions. Weights use uniform He-style init
    (+- sqrt(6/in_width)) from the seeded generator.
    """
    if len(widths) < 2 or widths[-1] != 1:
        raise ValueError("widths must be [input_dim, hidden..., 1]")
    rng = np.random.default_rng(_integer("seed", seed, 0))
    layers = []
    n_layers = len(widths) - 1
    for i in range(n_layers):
        n_in, n_out = widths[i], widths[i + 1]
        is_output = i == n_layers - 1
        bound = np.sqrt(6.0 / n_in)
        layers.append(
            Layer(
                weights=rng.uniform(-bound, bound, size=(n_out, n_in)),
                bias=np.zeros(n_out),
                has_activation=not is_output,
                has_skip=(not is_output) and i > 0 and n_in == n_out,
            )
        )
    return ResNet(layers=layers, activation=activation)
