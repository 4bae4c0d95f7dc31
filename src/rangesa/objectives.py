"""Black-box objectives, analytic benchmark functions and noisy sample generation."""
from __future__ import annotations

import json
import numbers
import operator
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import BoxDomain

# Points sample_dataset and evaluate_fit draw at most (generate-data peaked under 100 MB at 10^6)
DATASET_BUDGET = 10**6
# Rows of one network pass: evaluate_many, the grid oracle and evaluate_fit evaluate a
# larger batch a block at a time, so memory holds one block's layers. A 1,024-row block
# keeps a ResNet's widest reduced layer (1,024 x 128 float64 = 1 MiB) inside a 2 MiB L2
# cache; 512 and 1,024 rows were fastest on a 2-vCPU machine, 2,048 already spilled.
ROW_BLOCK = 1024
_CSV_SLICE = 4096  # rows turned into text at a time by _write_csv


class Objective:
    """A scalar black-box function on R^d.

    Wraps a vectorized callable taking an (n, d) batch and returning (n,)
    values; a single point is evaluated as a batch of one row, and a batch
    of more than ROW_BLOCK rows one block at a time. Evaluation
    must be deterministic; the annealer only ever queries points, never
    gradients. ``grid_oracle`` may call ``evaluate_many`` from several threads at once
    (see there); the builtins and ``ResNet.as_objective``, whose layer buffers are per
    thread, are safe to call that way.
    Non-finite values follow one rule: ``evaluate_many`` returns every NaN,
    +inf and -inf value as NaN, which the annealer rejects (a start is
    redrawn) and the grid oracle skips.
    """

    def __init__(self, fn, dim: int, name: str | None = None):
        self._fn = fn
        self.dim = int(dim)
        self.name = name

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected point of dimension {self.dim}, got shape {x.shape}")
        return float(self.evaluate_many(x[None, :])[0])

    def evaluate_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) batch, got shape {X.shape}")
        values = self._block(X) if len(X) <= ROW_BLOCK else np.concatenate(
            [self._block(X[s : s + ROW_BLOCK]) for s in range(0, len(X), ROW_BLOCK)])
        finite = np.isfinite(values)
        if np.count_nonzero(finite) == len(values):  # cheaper than finite.all() on small arrays
            return values
        return np.where(finite, values, np.nan)

    def _block(self, X: np.ndarray) -> np.ndarray:
        values = np.asarray(self._fn(X), dtype=float)
        if values.shape != X.shape[:1]:
            raise ValueError(f"objective returned shape {values.shape} for {len(X)} points, "
                             f"expected ({len(X)},)")
        return values

    def __repr__(self):
        return f"Objective(name={self.name!r}, dim={self.dim})"


def _integer(name: str, value, least: int) -> int:
    """``value`` as an int of at least ``least``, else ValueError naming ``name``.

    Python and numpy integers pass; bools, floats and strings do not. Every count
    and seed that a library entry point takes goes through here."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__") or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return operator.index(value)


def _real(name: str, value):
    """``value`` if it is a real number, else ValueError naming ``name``.

    Python and numpy reals pass; bools, which Python counts as integers, and strings
    do not. Every float argument of a library entry point goes through here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _within_budget(count: int, budget: int, what: str, unit: str, lower: str) -> None:
    """ValueError "<what> exceed the budget of <budget> <unit>; lower <lower>" when
    count > budget. Every budget of a library entry point is checked here, before any work."""
    if count > budget:
        raise ValueError(f"{what} exceed the budget of {budget} {unit}; lower {lower}")


def _check_dims(f: Objective, domain: BoxDomain) -> None:
    """ValueError unless the objective and the domain have the same dimension."""
    if f.dim != domain.dim:
        raise ValueError(f"the objective has dimension {f.dim}, the domain {domain.dim}")


def _points(p, d: int) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != d:
        raise ValueError(f"expected {d}-dimensional input, got shape {p.shape}")
    return p


def ackley(p):
    """Ackley benchmark on R^2; global minimum 0 at the origin."""
    # each ufunc call covers both coordinates: the per-coordinate arithmetic, fewer calls
    p = _points(p, 2)
    sq, c = p * p, np.cos(2.0 * np.pi * p)
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(0.5 * (sq[..., 0] + sq[..., 1])))
        - np.exp(0.5 * (c[..., 0] + c[..., 1]))
        + np.e
        + 20.0
    )


def drop_wave(p):
    """Drop-Wave benchmark on R^2; multimodal, range within [-1, 0]."""
    p = _points(p, 2)
    r2 = p[..., 0] ** 2 + p[..., 1] ** 2
    return -(1.0 + np.cos(12.0 * np.sqrt(r2))) / (0.5 * r2 + 2.0)


def multi_minima(p):
    """Separable quartic on R^3 with 8 global minima at (+-1, +-1, +-1)."""
    return np.sum((_points(p, 3) ** 2 - 1.0) ** 2, axis=-1)


@dataclass
class Dataset:
    """Noisy sample (x_i, f(x_i) + eps_i) drawn uniformly from a box domain."""

    inputs: np.ndarray   # (m, d)
    targets: np.ndarray  # (m,)
    source: str
    noise_sd: float
    seed: int
    domain: BoxDomain

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.inputs.ndim != 2 or len(self.inputs) == 0:
            raise ValueError("dataset needs at least one row")
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets length mismatch")

    def __len__(self):
        return len(self.inputs)

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def save(self, csv_path) -> None:
        """Write CSV (header x1,...,xd,target) plus a .meta.json sidecar."""
        csv_path = Path(csv_path)
        header = [f"x{j+1}" for j in range(self.dim)] + ["target"]
        _write_csv(csv_path, header, [*self.inputs.T, self.targets])
        meta = {
            "source": self.source,
            "noise_sd": self.noise_sd,
            "seed": self.seed,
            "domain": [list(b) for b in self.domain.bounds],
        }
        text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
        csv_path.with_suffix(".meta.json").write_text(text)

    @classmethod
    def load(cls, csv_path) -> "Dataset":
        """Read what ``save`` wrote; ValueError names a CSV or sidecar that does not parse."""
        csv_path = Path(csv_path)
        meta_path = csv_path.with_suffix(".meta.json")
        try:
            with warnings.catch_warnings():  # numpy only warns on a file without rows
                warnings.simplefilter("error", UserWarning)
                raw = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        except (ValueError, UserWarning) as exc:
            raise ValueError(f"malformed dataset {csv_path}: {exc}") from exc
        try:
            meta = json.loads(meta_path.read_text())
            domain = BoxDomain(tuple(tuple(b) for b in meta["domain"]))
            source, noise_sd, seed = meta["source"], meta["noise_sd"], meta["seed"]
        # json.JSONDecodeError is a ValueError; OverflowError: a bound too large for a float
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed dataset sidecar {meta_path}: {exc!r}") from exc
        return cls(raw[:, :-1], raw[:, -1], source, noise_sd, seed, domain)


def _write_csv(path, header, columns) -> None:
    """A header line, then one line per row of the equal-length columns, formatted by column:
    each value as str of its ``.tolist()`` value (a float's shortest repr). The text goes
    to the file _CSV_SLICE rows at a time, so memory stays bounded by one slice."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_SLICE):
            rows = zip(*(map(str, c[start:start + _CSV_SLICE].tolist()) for c in columns))
            f.write("".join(",".join(row) + "\n" for row in rows))


def sample_dataset(
    f: Objective,
    domain: BoxDomain,
    m: int,
    noise_sd: float = 0.1,
    seed: int = 0,
) -> Dataset:
    """Draw m uniform points from the domain and record noisy function values.

    ValueError, before any evaluation, unless f and the domain have the same
    dimension, 1 <= m <= DATASET_BUDGET and seed >= 0 are integers and noise_sd
    is finite and >= 0."""
    _check_dims(f, domain)
    m, seed = _integer("m", m, 1), _integer("seed", seed, 0)
    _within_budget(m, DATASET_BUDGET, f"m = {m} points", "points", "m")
    if not 0 <= _real("noise_sd", noise_sd) < np.inf:
        raise ValueError(f"noise_sd must be finite and >= 0, got {noise_sd!r}")
    noise_sd = float(noise_sd)
    rng = np.random.default_rng(seed)
    X = domain.sample_uniform(rng, m)
    y = f.evaluate_many(X)
    if noise_sd > 0:
        y = y + rng.normal(0.0, noise_sd, size=m)
    return Dataset(
        inputs=X,
        targets=y,
        source=f.name or "objective",
        noise_sd=noise_sd,
        seed=seed,
        domain=domain,
    )
