"""ReLU residual networks: construction, forward evaluation, weight files.

Every hidden layer applies ReLU, the experiments' only activation; a weight
file says ``"activation": "relu"``, and ``load`` refuses any other value.
The range method itself needs only point values, so a network of another
architecture can be analysed as any ``Objective``.

Evaluation is float64: ``Layer`` casts every weight and bias to float64, so
the annealer, the grid oracle and the fit report see float64 values. The
annealer compares tiny value differences, and float32 noise would pollute
its acceptance decisions. Training is float32: ``trainer.train`` fits a
private copy whose weights are float32, since float32 matrix products run
about twice as fast and Adam's noisy steps do not need float64; it returns
each float32 weight parsed as float64 from numpy's shortest float32 repr.
``forward`` and the backward pass compute in the dtype of the network's own
arrays. ``forward`` checks its input and runs one private layer loop;
``as_objective`` (whose batch ``Objective.evaluate_many`` has checked) and
the training step run that loop directly, into buffers of their own:
``as_objective``'s are two per thread, which the layers write by turns, so
a batch allocates no layer output. A small batch, such as a chain step's
one row per chain, adds each bias from a copy tiled to its rows, which
needs no broadcast: the same sums, in half the time.
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
# as_objective adds the biases of a batch of up to this many rows (a chain step's: one
# row per chain) from copies tiled to its rows: twice as fast as a broadcast row
_TILE_ROWS = 64


class WeightFormatError(ValueError):
    """Raised when a weight file is malformed or violates the width chain."""


@dataclass
class Layer:
    """One affine stage, optionally followed by ReLU and identity skip."""

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
    """Scalar-output residual network: affine + ReLU (+ identity skip) stack."""

    layers: list[Layer]
    input_dim: int = field(init=False)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
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

    def forward(self, X):
        """Network output at a (d,) point (a float) or an (n, d) batch (an (n,) array).

        Each layer computes into a new array; ``X`` is never written. Raises
        FloatingPointError naming the first non-finite layer when the output
        is not finite. The arithmetic is in the dtype of the layers' arrays.
        """
        X = self._input(X)
        h = self._layers(X)
        if not np.isfinite(h).all():
            # walk the layers again, each into an array of its own, to find the first bad one
            outputs = [np.empty(X.shape[:-1] + (lyr.out_width,), X.dtype) for lyr in self.layers]
            self._layers(X, [(z, None) for z in outputs])
            layer = next(k for k, z in enumerate(outputs, start=1) if not np.isfinite(z).all())
            raise FloatingPointError(f"non-finite value at layer {layer}")
        out = h[..., 0]
        return out if out.ndim else float(out)

    def _input(self, X) -> np.ndarray:
        """``X`` as an array in the layers' dtype; ValueError unless it is a (d,) point or
        an (n, d) batch. ``forward`` and ``trainer.loss_and_gradients`` check it here."""
        X = np.asarray(X, dtype=self.layers[0].weights.dtype)
        if X.ndim not in (1, 2) or X.shape[-1] != self.input_dim:
            raise ValueError(f"expected input of dimension {self.input_dim}, got shape {X.shape}")
        return X

    def _layers(self, h: np.ndarray, buffers=None, biases=None) -> np.ndarray:
        """The layer loop of ``forward``, unchecked: ``h`` is a (d,) or (n, d) array in the
        layers' dtype. Each layer computes its matmul result into a new array, or into the
        ``z`` of its ``(z, d)`` pair in ``buffers``, and applies the bias, ReLU and skip to it
        in place; where ``d`` is not None, ReLU's derivative at the pre-activation goes into
        it as a bool mask. ``h`` is never written. ``biases`` default to the layers' own;
        ``_Buffers`` passes them tiled to a small batch's rows, which add with no broadcast.
        Returns the output layer's (..., 1) array."""
        zero = np.zeros((), h.dtype)  # ReLU's 0.0, converted once rather than per layer
        for lyr, (z_out, d_out), bias in zip(self.layers, buffers or repeat((None, None)),
                                             biases or [lyr.bias for lyr in self.layers]):
            z = np.dot(h, lyr.weights.T, out=z_out)  # matmul's BLAS call, less overhead
            z += bias
            if lyr.has_activation:
                np.maximum(z, zero, out=z)
                if d_out is not None:
                    # z > 0 exactly where max(z, 0) > 0; subgradient 0 at exactly 0; a bool
                    # mask, since g * mask equals g * 1.0 or g * 0.0
                    np.greater(z, zero, out=d_out)
            if lyr.has_skip:
                z += h
            h = z
        return h

    def as_objective(self) -> Objective:
        """The network as a black box; a row whose output overflows evaluates to NaN
        (see ``Objective``), which the annealer rejects and the grid oracle skips.
        ``Objective.evaluate_many`` checks each batch, so the layer loop runs unchecked.
        Each calling thread's hidden layers write into buffers of its own, and a batch of
        up to _TILE_ROWS rows adds biases tiled to its rows (``_Buffers``)."""
        buffers = _Buffers(self)

        def evaluate(X):
            rows = buffers._rows(len(X))
            return self._layers(X, rows, buffers.biases)[:, 0]
        return Objective(evaluate, self.input_dim, name="resnet")

    # --- serialization -------------------------------------------------

    def save(self, path) -> None:
        """Write the weight file: ``json.dumps(doc) + "\n"`` of the header fields
        and, per layer, the widths, flags and the flattened weights and bias.

        The text goes to the file in pieces, the weights a slice at a time,
        so memory stays bounded by one slice of Python floats.
        """
        header = {"format_version": WEIGHT_FORMAT_VERSION, "activation": "relu",
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
        except (json.JSONDecodeError, OverflowError) as exc:  # an integer too large for a float
            raise WeightFormatError(f"malformed weight file {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise WeightFormatError(f"weight file {path} must hold a JSON object")
        try:
            version = doc["format_version"]
            if version != WEIGHT_FORMAT_VERSION:
                raise WeightFormatError(f"unsupported format_version {version}")
            if doc["activation"] != "relu":
                raise WeightFormatError(f"weight file {path}: field 'activation' is "
                                        f"{doc['activation']!r}, but only 'relu' is supported")
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
            net = cls(layers=layers)
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
    seen so far, never more than ROW_BLOCK since ``Objective.evaluate_many``
    passes a larger batch a block at a time, and grow only when a larger
    batch arrives; the views for the last row count are kept, so a repeated
    batch size pays no slicing. The output layer's (n, 1) result is
    allocated, so the values returned belong to the caller. With the views,
    ``biases`` holds each layer's bias: for a batch of up to _TILE_ROWS rows
    a copy tiled to its rows, made when the row count changes (so it holds
    the bias of that moment), else the layer's own array.
    """

    def __init__(self, net: ResNet):
        self.layers = net.layers
        self.widths = [lyr.out_width for lyr in net.layers]
        self.dtype = net.layers[0].weights.dtype
        self.pair = (np.empty(0, self.dtype),) * 2
        self.n, self.views, self.biases = -1, [], []

    def _rows(self, n: int) -> list:
        """Per layer, the (n, width) view to write its output into (None for the output
        layer), and None for the derivative, which is not needed."""
        if n != self.n:
            size = n * max(self.widths)
            if size > self.pair[0].size:
                self.pair = (np.empty(size, self.dtype), np.empty(size, self.dtype))
            self.views = [(self.pair[k % 2][: n * w].reshape(n, w), None)
                          for k, w in enumerate(self.widths[:-1])] + [(None, None)]
            self.biases = [np.tile(lyr.bias, (n, 1)) if n <= _TILE_ROWS else lyr.bias
                           for lyr in self.layers]
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


def build_resnet(widths: list[int], seed: int = 0) -> ResNet:
    """Build a ResNet from the full width chain [d, h1, ..., hk, 1].

    Hidden layers get ReLU; the identity skip is active exactly on
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
    return ResNet(layers=layers)
