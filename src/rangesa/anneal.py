"""Simulated annealing with reflective boundary conditions.

A chain proposes Gaussian steps, folds them back into the box (reflected
mode), and accepts with the Metropolis rule under a geometrically decreasing
temperature. Classical mode runs the identical loop without the fold and may
wander outside the box. One kernel advances a batch of chains in lockstep,
with one objective call per step for the whole batch.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .domain import BoxDomain
from .objectives import Objective, _write_csv

MODES = ("reflected", "classical")
COOLINGS = ("theorem", "algorithm1")
EVAL_BUDGET = 10**7  # chain steps x chains in one batch
START_REDRAWS = 100  # extra start draws for a chain whose start value is not finite


class EvalBudgetExceeded(ValueError):
    """Raised when a batch of annealing runs would take more steps than EVAL_BUDGET."""


@dataclass(frozen=True)
class AnnealConfig:
    t_max: float = 10.0
    t_min: float = 1e-3
    delta: float = 0.95
    inner_iters: int = 100
    proposal_variance: float | None = None  # None: (0.1 * min side length)^2
    seed: int = 0
    mode: str = "reflected"
    cooling: str = "theorem"  # T_i = T0*delta^i; "algorithm1": T_i = T_{i-1}*delta^i

    def __post_init__(self):
        if not 0 < self.t_min < self.t_max < math.inf:
            raise ValueError("need 0 < t_min < t_max < inf")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.inner_iters < 1:
            raise ValueError("inner_iters must be at least 1")
        if self.proposal_variance is not None and not 0 < self.proposal_variance < math.inf:
            raise ValueError("proposal_variance must be positive and finite")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.cooling not in COOLINGS:
            raise ValueError(f"cooling must be one of {COOLINGS}")

    def resolve_variance(self, domain: BoxDomain) -> float:
        if self.proposal_variance is not None:
            return self.proposal_variance
        return (0.1 * float(np.min(domain.widths))) ** 2

    def _max_levels(self) -> int:
        """An upper bound on len(temperature_levels()), found without visiting the levels."""
        # level i has T0 * delta^e(i) > t_min, with e(i) = i (theorem) or i(i+1)/2 (algorithm1)
        e = (math.log(self.t_min) - math.log(self.t_max)) / math.log(self.delta)
        if self.cooling == "algorithm1":
            e = (math.sqrt(1.0 + 8.0 * e) - 1.0) / 2.0
        return math.ceil(e) + 1  # one more for rounding near the last level

    def temperature_levels(self) -> list[float]:
        """Temperatures visited by the outer loop, strictly decreasing."""
        levels, t = [], self.t_max
        while t > self.t_min:
            levels.append(t)
            t = self._cooled(self.t_max if self.cooling == "theorem" else t, len(levels))
        return levels

    def _cooled(self, t: float, n: int) -> float:
        """t * delta^n; in log space once delta^n would leave the normal float range."""
        factor = self.delta**n
        if factor >= sys.float_info.min:
            return t * factor
        return math.exp(math.log(t) + n * math.log(self.delta))


@dataclass
class Trace:
    """Per-step record of the chain; one row per inner iteration."""

    iterations: np.ndarray
    temperatures: np.ndarray
    points: np.ndarray  # (n, d)
    values: np.ndarray
    accepted: np.ndarray  # bool
    best_values: np.ndarray
    left_box: np.ndarray  # bool: the step's proposal, before any fold, lay outside the box

    def __len__(self):
        return len(self.iterations)


@dataclass
class AnnealResult:
    best: np.ndarray
    best_value: float  # of sign * f, like the trace's values
    trace: Trace
    eval_count: int
    config: AnnealConfig
    sign: float = 1.0  # -1: the run minimized -f


@dataclass
class LevelSummary:
    """One row per chain per temperature level, with values in f's units.

    Each row reduces the level's inner_iters steps of one chain's trace: the
    share of accepted moves, the number of proposals that left the box
    before any fold, the mean value held after each step and the best value
    held by the level's end (the running maximum of f on a run with sign -1).
    Levels count from 0, so level i of theorem cooling has T = t_max delta^i.
    """

    kind: np.ndarray
    seed: np.ndarray
    level: np.ndarray
    temperature: np.ndarray
    acceptance_rate: np.ndarray
    left_box: np.ndarray
    mean_value: np.ndarray
    best_value: np.ndarray

    @classmethod
    def of(cls, labelled) -> "LevelSummary":
        """Rows of (kind, AnnealResult) pairs, chain after chain."""
        parts = []
        for kind, r in labelled:
            t, m = r.trace, r.config.inner_iters
            n = len(t) // m
            with np.errstate(over="ignore"):
                mean = t.values.reshape(n, m).mean(axis=1)
                big = np.isinf(mean)  # a sum past the largest float: add values / m instead
                mean[big] = (t.values.reshape(n, m)[big] / m).sum(axis=1)
            parts.append((
                np.full(n, kind), np.full(n, r.config.seed), np.arange(n), t.temperatures[::m],
                t.accepted.reshape(n, m).mean(axis=1), t.left_box.reshape(n, m).sum(axis=1),
                r.sign * mean, r.sign * t.best_values[m - 1::m],
            ))
        return cls(*(np.concatenate(col) for col in zip(*parts)))

    def to_csv(self, path) -> None:
        """One line per row under a header of LEVEL_COLUMNS."""
        _write_csv(path, LEVEL_COLUMNS, [getattr(self, name) for name in LEVEL_COLUMNS])


LEVEL_COLUMNS = tuple(f.name for f in fields(LevelSummary))


def acceptance_probability(delta_f, temperature):
    """Metropolis rule exp(-max(dF, 0) / T), elementwise on arrays (a float for scalars).

    Downhill moves get 1; a NaN difference gives NaN, which no uniform draw accepts.
    """
    if not ((temperature > 0).all() if isinstance(temperature, np.ndarray) else temperature > 0):
        raise ValueError("temperature must be positive")
    q = np.exp(np.maximum(delta_f, 0.0) / -temperature)
    return q if isinstance(q, np.ndarray) else float(q)


@np.errstate(over="ignore", invalid="ignore")
def run_many(f: Objective, domain: BoxDomain, cfgs, signs=None) -> list[AnnealResult]:
    """Annealing runs advanced in lockstep, one per config; configs differ only in seed and mode.

    Run c minimizes ``signs[c] * f`` (default +1; -1 maximizes f). Its own
    ``default_rng(seed)`` draws the uniform start, redrawn up to START_REDRAWS
    times while its value is not finite, then per temperature level
    inner_iters x d Gaussian increments and then inner_iters uniforms, so its
    path depends only on its seed and the values it sees. Those values may
    depend on the batch: a ResNet's row value can change in the last bits
    with the batch's row count (BLAS kernels), so on a network a seed's
    chain can differ between batches of different sizes.
    Each step proposes for every run, folds the reflected ones, evaluates f
    once on the batch and applies the acceptance rule to all rows at once.
    After each level, the level's proposals are formed again from the stored
    states with the same add, to mark those that left the box.
    Raises EvalBudgetExceeded, before any work, when the batch could take
    more than EVAL_BUDGET chain steps. Overflow and NaN raise no numpy warning
    here: f returns every non-finite value as NaN (see ``Objective``), so a
    non-finite start is redrawn and a non-finite proposal rejected.
    """
    cfg = cfgs[0]
    if any(replace(c, seed=cfg.seed, mode=cfg.mode) != cfg for c in cfgs):
        raise ValueError("runs in one batch may differ only in seed and mode")
    max_levels = cfg._max_levels()
    if max_levels * cfg.inner_iters * len(cfgs) > EVAL_BUDGET:
        raise EvalBudgetExceeded(
            f"{len(cfgs)} chains of up to {max_levels} temperature levels x "
            f"{cfg.inner_iters} steps exceed the budget of {EVAL_BUDGET} chain steps; "
            "lower delta or inner_iters, or raise t_min"
        )
    levels, m, d, n = cfg.temperature_levels(), cfg.inner_iters, domain.dim, len(cfgs)
    sd = np.sqrt(cfg.resolve_variance(domain))
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    signs = np.ones(n) if signs is None else np.asarray(signs, dtype=float)
    fold = np.array([[c.mode == "reflected"] for c in cfgs])
    fold_all, fold_any = bool(fold.all()), bool(fold.any())

    # step-major storage; row 0 holds the start, row i every run's state after step i
    points = np.empty((1 + len(levels) * m, n, d))
    values = np.empty(points.shape[:2])
    accepted = np.zeros(points.shape[:2], dtype=bool)
    left_box = np.zeros(points.shape[:2], dtype=bool)
    lower, upper = domain.lower, domain.upper
    x = np.array([domain.sample_uniform(rng) for rng in rngs])
    fx = signs * f.evaluate_many(x)
    start_evals = np.ones(n, dtype=int)
    for _ in range(START_REDRAWS):  # a chain at a NaN start would reject every move
        bad = np.flatnonzero(~np.isfinite(fx))
        if not len(bad):
            break
        x[bad] = [domain.sample_uniform(rngs[c]) for c in bad]
        fx[bad] = signs[bad] * f.evaluate_many(x[bad])
        start_evals[bad] += 1
    points[0], values[0] = x, fx
    i = 0
    for t in levels:
        i0 = i
        noise = np.stack([rng.normal(0.0, sd, size=(m, d)) for rng in rngs], axis=1)
        uniforms = np.stack([rng.uniform(size=m) for rng in rngs], axis=1)
        for k in range(m):
            y = x + noise[k]
            if fold_any:
                y = domain.reflect(y) if fold_all else np.where(fold, domain.reflect(y), y)
            fy = signs * f.evaluate_many(y)
            acc = uniforms[k] <= acceptance_probability(fy - fx, t)
            taken = np.count_nonzero(acc)
            if 0 < taken < n:  # merge only when needed: a lone chain never does
                y, fy = np.where(acc[:, None], y, x), np.where(acc, fy, fx)
            if taken:
                x, fx = y, fy
            i += 1
            points[i], values[i], accepted[i] = x, fx, acc
        proposals = points[i0:i] + noise  # the level's steps, unfolded
        left_box[i0 + 1:i + 1] = ((proposals < lower) | (proposals > upper)).any(axis=2)

    # the best state is where the running minimum is first reached (NaN stays NaN)
    best_values = np.minimum.accumulate(values)
    first = np.argmin(values, axis=0)
    temperatures, iterations = np.repeat(levels, m), np.arange(1, i + 1)
    return [
        AnnealResult(
            best=points[j, c].copy(),
            best_value=float(values[j, c]),
            trace=Trace(iterations, temperatures, points[1:, c], values[1:, c], accepted[1:, c],
                        best_values[1:, c], left_box[1:, c]),
            eval_count=int(start_evals[c]) + i,
            config=cfg,
            sign=float(signs[c]),
        )
        for c, (j, cfg) in enumerate(zip(first, cfgs))
    ]


def max_excursion(trace: Trace, domain: BoxDomain) -> float:
    """Largest componentwise overshoot of any trace point outside the box."""
    over = np.maximum(trace.points - domain.upper, 0.0)
    under = np.maximum(domain.lower - trace.points, 0.0)
    return float(np.max(np.maximum(over, under)))
