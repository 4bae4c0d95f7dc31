"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports rangesa: the drop-wave formula, the ResNet forward pass
and the temperature schedule are written out again from their definitions, so a
fault in the program cannot hide by agreeing with itself.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GRID_CHUNK = 1 << 15


def drop_wave(X):
    """Drop-wave on R^2, rows of X are points; values in [-1, 0], minimum -1 at the origin."""
    r2 = X[:, 0] ** 2 + X[:, 1] ** 2
    return -(1.0 + np.cos(12.0 * np.sqrt(r2))) / (0.5 * r2 + 2.0)


class Net:
    """Plain ReLU network read straight from a weights JSON file."""

    def __init__(self, path):
        doc = json.loads(Path(path).read_text())
        self.layers = []
        for entry in doc["layers"]:
            n_in, n_out = int(entry["in_width"]), int(entry["out_width"])
            W = np.array(entry["weights"], dtype=float).reshape(n_out, n_in)
            b = np.array(entry["bias"], dtype=float)
            self.layers.append((W, b, bool(entry["has_activation"]), bool(entry["has_skip"])))
        if doc["activation"] != "relu":
            raise ValueError(f"reference forward supports relu only, got {doc['activation']}")

    def __call__(self, X):
        h = np.asarray(X, dtype=float)
        for W, b, act, skip in self.layers:
            z = h @ W.T + b
            a = np.maximum(z, 0.0) if act else z
            h = a + h if skip else a
        return h[:, 0]


def grid_extremes(f, box, points_per_dim):
    """(min, max) of f over the uniform tensor grid with endpoints, 2-d box."""
    (lo1, hi1), (lo2, hi2) = box
    xs = np.linspace(lo1, hi1, points_per_dim)
    ys = np.linspace(lo2, hi2, points_per_dim)
    lo, hi = np.inf, -np.inf
    rows = max(1, GRID_CHUNK // points_per_dim)
    for start in range(0, points_per_dim, rows):
        X = np.stack(np.meshgrid(xs[start:start + rows], ys, indexing="ij"), -1).reshape(-1, 2)
        v = f(X)
        lo, hi = min(lo, float(v.min())), max(hi, float(v.max()))
    return lo, hi


def temperature_levels(t_max, t_min, delta):
    """Number of levels T_i = t_max * delta**i with T_i > t_min."""
    n = 0
    while t_max * delta**n > t_min:
        n += 1
    return n


def expected_eval_count(n_seeds, inner_iters, n_levels):
    """One start point plus one evaluation per step, per chain; min and max
    chains for every seed; plus the re-evaluation of both endpoints."""
    return 2 * n_seeds * (1 + inner_iters * n_levels) + 2
