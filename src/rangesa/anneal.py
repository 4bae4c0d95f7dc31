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
from .objectives import Objective, _check_dims, _integer, _real, _write_csv

MODES = ("reflected", "classical")
COOLINGS = ("theorem", "algorithm1")
# Chain steps x chains in one batch. This bounds a run's time only: the kernel
# keeps one level's steps, so memory does not grow with the number of levels.
EVAL_BUDGET = 10**7
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
        if not 0 < _real("t_min", self.t_min) < _real("t_max", self.t_max) < math.inf:
            raise ValueError("need 0 < t_min < t_max < inf")
        if not 0 < _real("delta", self.delta) < 1:
            raise ValueError("delta must be in (0, 1)")
        object.__setattr__(self, "inner_iters", _integer("inner_iters", self.inner_iters, 1))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        variance = self.proposal_variance
        if variance is not None and not 0 < _real("proposal_variance", variance) < math.inf:
            raise ValueError("proposal_variance must be positive and finite")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.cooling not in COOLINGS:
            raise ValueError(f"cooling must be one of {COOLINGS}")

    def resolve_variance(self, domain: BoxDomain) -> float:
        if self.proposal_variance is not None:
            return self.proposal_variance
        side = float(np.min(domain.widths))
        try:
            return (0.1 * side) ** 2
        except OverflowError:
            raise ValueError(f"the default proposal_variance (0.1 * {side:g})^2 overflows on "
                             "this box; give a finite proposal_variance") from None

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
class AnnealResult:
    best: np.ndarray
    best_value: float  # of sign * f, the minimized objective
    eval_count: int
    config: AnnealConfig
    levels: "LevelSummary"  # the run's rows, labelled with its mode
    iters_to_best: int  # the first step that held the best value over the steps, from 1
    max_excursion: float  # largest componentwise overshoot of any state outside the box
    sign: float = 1.0  # -1: the run minimized -f


@dataclass
class LevelSummary:
    """One row per chain per temperature level, with values in f's units.

    Each row reduces the level's inner_iters steps of one chain: the share of
    accepted moves, the number of proposals that left the box before any
    fold, the mean value held after each step and the best value held by the
    level's end (the running maximum of f on a run with sign -1). Levels
    count from 0, so level i of theorem cooling has T = t_max delta^i.
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
        """The rows of (kind, AnnealResult) pairs, chain after chain, labelled with kind."""
        parts = [replace(r.levels, kind=np.full(len(r.levels.kind), kind)) for kind, r in labelled]
        return cls(*(np.concatenate([getattr(p, name) for p in parts]) for name in LEVEL_COLUMNS))

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


def _check_budget(cfg: AnnealConfig, n_chains: int) -> None:
    """EvalBudgetExceeded when n_chains runs of cfg could take more than EVAL_BUDGET chain steps."""
    max_levels = cfg._max_levels()
    if max_levels * cfg.inner_iters * n_chains > EVAL_BUDGET:
        raise EvalBudgetExceeded(
            f"{n_chains} chains of up to {max_levels} temperature levels x "
            f"{cfg.inner_iters} steps exceed the budget of {EVAL_BUDGET} chain steps; "
            "lower n_seeds, delta or inner_iters, or raise t_min"
        )


def run_many(f: Objective, domain: BoxDomain, cfgs, signs=None) -> list[AnnealResult]:
    """Annealing runs advanced in lockstep, one per config; configs differ only in seed and mode.

    Run c minimizes ``signs[c] * f`` (default +1; -1 maximizes f). Its own
    ``default_rng(seed)`` draws the uniform start, redrawn up to START_REDRAWS
    times while its value is not finite, then per temperature level
    inner_iters x d Gaussian increments and then inner_iters uniforms. So its
    path depends only on its seed and the values it sees, which may depend on
    the batch: a ResNet's row value can change in the last bits with the
    batch's row count (BLAS kernels).
    Each step proposes for every run, folds the reflected ones, evaluates f
    once on the batch and applies the acceptance rule to all rows at once.
    Each level is reduced as it ends, into the runs' ``levels`` rows, best
    states, ``iters_to_best`` and ``max_excursion``; no per-step record is
    kept, so memory holds one level's steps whatever the number of levels.
    Raises ValueError (f and the domain differ in dimension, or the default
    proposal variance overflows on the box) or EvalBudgetExceeded (over
    EVAL_BUDGET chain steps) before any evaluation.
    Overflow and NaN raise no numpy warning here: f returns every non-finite
    value as NaN (see ``Objective``), so a non-finite start is redrawn and a
    non-finite proposal rejected.
    """
    signs = np.ones(len(cfgs)) if signs is None else np.asarray(signs, dtype=float)
    return _results(_lockstep(f, domain, cfgs, signs), domain, cfgs, signs)


def _lockstep(f: Objective, domain: BoxDomain, cfgs, signs: np.ndarray):
    """The kernel of ``run_many``. Yields the runs' start points, values and start draws,
    then per level ``(t, proposals, states, values, accepted)``: the unfolded proposals and
    the states after each step, (m, n, d), with the states' values and accepted flags, (m, n),
    for m = inner_iters. The next level overwrites these buffers."""
    cfg = cfgs[0]
    if any(replace(c, seed=cfg.seed, mode=cfg.mode) != cfg for c in cfgs):
        raise ValueError("runs in one batch may differ only in seed and mode")
    _check_dims(f, domain)
    _check_budget(cfg, len(cfgs))
    m, d, n = cfg.inner_iters, domain.dim, len(cfgs)
    sd = np.sqrt(cfg.resolve_variance(domain))
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    fold = np.array([[c.mode == "reflected"] for c in cfgs])
    fold_all, fold_any = bool(fold.all()), bool(fold.any())

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
    yield x, fx, start_evals

    proposals, states = np.empty((m, n, d)), np.empty((m, n, d))
    values, accepted = np.empty((m, n)), np.empty((m, n), dtype=bool)
    for t in cfg.temperature_levels():
        noise = np.stack([rng.normal(0.0, sd, size=(m, d)) for rng in rngs], axis=1)
        uniforms = np.stack([rng.uniform(size=m) for rng in rngs], axis=1)
        for k in range(m):
            y = np.add(x, noise[k], out=proposals[k])
            if fold_any:
                y = domain.reflect(y) if fold_all else np.where(fold, domain.reflect(y), y)
            fy = signs * f.evaluate_many(y)
            acc = uniforms[k] <= acceptance_probability(fy - fx, t)
            taken = np.count_nonzero(acc)
            if 0 < taken < n:  # merge only when needed: a lone chain never does
                y, fy = np.where(acc[:, None], y, x), np.where(acc, fy, fx)
            if taken:
                x, fx = y, fy
            states[k], values[k], accepted[k] = x, fx, acc
        x = x.copy()  # unfolded, x may be a view of the proposals that the next level overwrites
        yield t, proposals, states, values, accepted


@np.errstate(over="ignore", invalid="ignore")
def _results(levels, domain: BoxDomain, cfgs, signs: np.ndarray) -> list[AnnealResult]:
    """The runs of ``_lockstep``'s records. Each level is reduced to a row per run before
    the next one starts; the runs' best states and scalars come from those rows."""
    x0, fx0, start_evals = next(levels)
    chains, rows = np.arange(len(cfgs)), []
    for t, proposals, states, values, accepted in levels:
        m, k = len(values), np.argmin(values, axis=0)  # per run, the level's first lowest step
        by_run = values.T.copy()  # one contiguous row of m values per run, summed pairwise
        mean = by_run.sum(axis=1) / m
        big = np.isinf(mean)  # a sum past the largest float: add values / m instead
        mean[big] = (by_run[big] / m).sum(axis=1)
        outside = ((proposals < domain.lower) | (proposals > domain.upper)).any(axis=2)
        rows.append((t, accepted.sum(axis=0) / m, outside.sum(axis=0), mean, k, values[k, chains],
                     states[k, chains], states.min(axis=0), states.max(axis=0)))
    t, acceptance, left_box, mean, k, low, low_x, lo, hi = (np.array(col) for col in zip(*rows))
    level = np.argmin(low, axis=0)  # NaN runs: every value is NaN, and step 1 holds it
    best = np.minimum.accumulate(np.concatenate([fx0[None], low]))[1:]  # the start included
    from_steps = low[level, chains] < fx0  # strictly: on a tie the start held the value first
    best_x = np.where(from_steps[:, None], low_x[level, chains], x0)
    over = np.maximum(hi.max(axis=0) - domain.upper, domain.lower - lo.min(axis=0)).max(axis=1)
    return [AnnealResult(
        best=best_x[c], best_value=float(best[-1, c]), eval_count=int(start_evals[c]) + len(t) * m,
        config=cfg, iters_to_best=int(level[c] * m + k[level[c], c] + 1),
        max_excursion=max(float(over[c]), 0.0),
        levels=LevelSummary(np.full(len(t), cfg.mode), np.full(len(t), cfg.seed),
                            np.arange(len(t)), t, acceptance[:, c], left_box[:, c],
                            signs[c] * mean[:, c], signs[c] * best[:, c]),
        sign=float(signs[c])) for c, cfg in enumerate(cfgs)]
