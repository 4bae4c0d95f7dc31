"""Simulated annealing with reflective boundary conditions.

A chain proposes Gaussian steps, folds them back into the box (reflected
mode), and accepts with the Metropolis rule under a geometrically decreasing
temperature. Classical mode runs the identical loop without the fold and may
wander outside the box. One kernel advances a batch of chains, each with its
own seed, sign and mode, under one schedule (an ``AnnealConfig``) in lockstep,
with one objective call per step for the whole batch.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .domain import BoxDomain
from .objectives import Objective, _check_dims, _integer, _real, _within_budget, _write_csv

MODES = ("reflected", "classical")
COOLINGS = ("theorem", "algorithm1")
# Chain steps x chains in one batch. This bounds a run's time. The kernel keeps one
# level's steps, and per level one row per chain: run_many peaks at about 48 bytes a row
# (the LevelSummary it returns included), so memory grows with the levels, not the steps.
EVAL_BUDGET = 10**7
START_REDRAWS = 100  # extra start draws for a chain whose start value is not finite


@dataclass(frozen=True)
class AnnealConfig:
    t_max: float = 10.0
    t_min: float = 1e-3
    delta: float = 0.95
    inner_iters: int = 100
    proposal_variance: float | None = None  # None: (0.1 * min side length)^2
    cooling: str = "theorem"  # T_i = T0*delta^i; "algorithm1": T_i = T_{i-1}*delta^i

    def __post_init__(self):
        if not 0 < _real("t_min", self.t_min) < _real("t_max", self.t_max) < math.inf:
            raise ValueError("need 0 < t_min < t_max < inf")
        if not 0 < _real("delta", self.delta) < 1:
            raise ValueError("delta must be in (0, 1)")
        object.__setattr__(self, "inner_iters", _integer("inner_iters", self.inner_iters, 1))
        variance = self.proposal_variance
        if variance is not None and not 0 < _real("proposal_variance", variance) < math.inf:
            raise ValueError("proposal_variance must be positive and finite")
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
    best_value: float  # f's value at best: its lowest, or its highest on a run that maximized
    eval_count: int
    config: AnnealConfig  # the schedule, shared by every run of the batch
    seed: int
    mode: str  # "reflected" or "classical"
    levels: "LevelSummary"  # the run's statistics, one row per temperature level
    iters_to_best: int  # the first step that held the best value over the steps, from 1
    max_excursion: float  # largest componentwise overshoot of any state outside the box


@dataclass
class LevelSummary:
    """One row per temperature level of one run, with values in f's units.

    Each row reduces the level's inner_iters steps of the chain: the share of
    accepted moves, the number of proposals that left the box before any
    fold, the mean value held after each step and the best value held by the
    level's end (the running maximum of f on a run with sign -1). Row i is
    level i of the run's schedule, from 0: T = t_max delta^i in theorem cooling.
    """

    acceptance_rate: np.ndarray
    left_box: np.ndarray
    mean_value: np.ndarray
    best_value: np.ndarray


# levels.csv's columns: the labels save_levels adds, then the statistics
LEVEL_COLUMNS = ("kind", "seed", "level", "temperature", *(f.name for f in fields(LevelSummary)))


def save_levels(labelled, path) -> None:
    """Write levels.csv from (kind, AnnealResult) pairs: run after run, one line per level
    under a header of LEVEL_COLUMNS, the run's statistics after its kind, its seed, the
    level's number and its temperature."""
    columns = {name: [] for name in LEVEL_COLUMNS}
    for kind, run in labelled:
        t = np.array(run.config.temperature_levels())
        # the kind as references to one string, 8 bytes a row (np.full copies it per row)
        labels = (np.array([kind] * len(t), dtype=object), np.full(len(t), run.seed),
                  np.arange(len(t)), t)
        stats = (getattr(run.levels, f.name) for f in fields(LevelSummary))
        for name, values in zip(LEVEL_COLUMNS, (*labels, *stats)):
            columns[name].append(values)
    # pop: each column's per-run parts are freed once it is joined
    _write_csv(path, LEVEL_COLUMNS, [np.concatenate(columns.pop(name)) for name in LEVEL_COLUMNS])


def acceptance_probability(delta_f, temperature):
    """Metropolis rule exp(-max(dF, 0) / T), elementwise on arrays (a float for scalars).

    Downhill moves get 1; a NaN difference gives NaN, which no uniform draw accepts.
    """
    if not ((temperature > 0).all() if isinstance(temperature, np.ndarray) else temperature > 0):
        raise ValueError("temperature must be positive")
    q = np.exp(np.maximum(delta_f, 0.0) / -temperature)
    return q if isinstance(q, np.ndarray) else float(q)


def _check_budget(cfg: AnnealConfig, n_chains: int) -> None:
    """ValueError when n_chains runs of cfg could take more than EVAL_BUDGET chain steps."""
    levels, steps = cfg._max_levels(), cfg.inner_iters
    _within_budget(levels * steps * n_chains, EVAL_BUDGET,
                   f"{n_chains} chains of up to {levels} temperature levels x {steps} steps",
                   "chain steps", "n_seeds, delta or inner_iters, or raise t_min")


def run_many(f: Objective, domain: BoxDomain, cfg: AnnealConfig, seeds, signs=None,
             modes=None) -> list[AnnealResult]:
    """Annealing runs of one schedule, advanced in lockstep, one per seed.

    Run c minimizes ``signs[c] * f`` (default +1; -1 maximizes f) in mode
    ``modes[c]`` (default "reflected"; "classical" does not fold). Its own
    ``default_rng(seeds[c])`` draws the uniform start, redrawn up to START_REDRAWS
    times while its value is not finite, then per temperature level
    inner_iters x d Gaussian increments and then inner_iters uniforms. So its
    path depends only on its seed and the values it sees, which may depend on
    the batch: a ResNet's row value can change in the last bits with the
    batch's row count (BLAS kernels).
    Each step proposes for every run, folds the reflected ones, evaluates f
    once on the batch and applies the acceptance rule to all rows at once.
    Each level is reduced as it ends, into the runs' ``levels`` rows, best
    states, ``iters_to_best`` and ``max_excursion``; no per-step record is
    kept, so memory holds one level's steps and a row per run per level.
    Each result's ``best_value`` is f's value at its ``best``.
    Raises ValueError before any evaluation when seeds, signs and modes differ
    in length or are empty, a seed is not an integer of at least 0, a sign is
    not 1 or -1, a mode is not in MODES, f and the domain differ in dimension,
    the default proposal variance overflows on the box or the runs could take
    over EVAL_BUDGET chain steps.
    Overflow and NaN raise no numpy warning here: f returns every non-finite
    value as NaN (see ``Objective``), so a non-finite start is redrawn and a
    non-finite proposal rejected.
    """
    seeds = [_integer("seed", s, 0) for s in seeds]
    signs = [1] * len(seeds) if signs is None else list(signs)
    modes = ["reflected"] * len(seeds) if modes is None else list(modes)
    if not 0 < len(seeds) == len(signs) == len(modes):
        raise ValueError("seeds, signs and modes need one entry per run, and at least one run; "
                         f"got {len(seeds)}, {len(signs)} and {len(modes)}")
    for name, values, allowed in (("signs", signs, (1, -1)), ("modes", modes, MODES)):
        bad = [v for v in values if v not in allowed]
        if bad:
            raise ValueError(f"{name} must be in {allowed}, got {bad[0]!r}")
    signs = np.array(signs, dtype=float)
    return _results(_lockstep(f, domain, cfg, seeds, signs, modes), domain, cfg, seeds, signs,
                    modes)


def _lockstep(f: Objective, domain: BoxDomain, cfg: AnnealConfig, seeds, signs, modes):
    """The kernel of ``run_many``, on its checked runs. Yields the start points, values and
    draws, then per level ``(start, noise, states, values, accepted)``: the states at its
    start, (n, d), the Gaussian increments and states after each step, (m, n, d), and their
    values and accepted flags, (m, n), for m = inner_iters. The next level overwrites the
    states, values and flags in place."""
    _check_dims(f, domain)
    _check_budget(cfg, len(seeds))
    m, d, n = cfg.inner_iters, domain.dim, len(seeds)
    sd = np.sqrt(cfg.resolve_variance(domain))
    rngs = [np.random.default_rng(s) for s in seeds]
    fold = np.array([[mode == "reflected"] for mode in modes])
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

    states, values, accepted = np.empty((m, n, d)), np.empty((m, n)), np.empty((m, n), dtype=bool)
    for t in cfg.temperature_levels():
        noise = np.stack([rng.normal(0.0, sd, size=(m, d)) for rng in rngs], axis=1)
        uniforms = np.stack([rng.uniform(size=m) for rng in rngs], axis=1)
        start = x
        for k in range(m):
            y = x + noise[k]
            if fold_any:  # the fold returns y itself when every run is inside the box
                y = domain._fold(y) if fold_all else np.where(fold, domain._fold(y), y)
            fy = signs * f.evaluate_many(y)
            acc = uniforms[k] <= acceptance_probability(fy - fx, t)
            taken = np.count_nonzero(acc)
            if 0 < taken < n:  # merge only when needed: a lone chain never does
                y, fy = np.where(acc[:, None], y, x), np.where(acc, fy, fx)
            if taken:
                x, fx = y, fy
            states[k], values[k], accepted[k] = x, fx, acc
        yield start, noise, states, values, accepted


@np.errstate(over="ignore", invalid="ignore")
def _results(levels, domain: BoxDomain, cfg: AnnealConfig, seeds, signs, modes):
    """The runs of ``_lockstep``'s records. Level i is reduced, before the next one starts,
    into row i of arrays of one row per level and run, and into each run's lowest step so
    far and its state bounds; so memory grows by those rows alone, 32 bytes a run a level."""
    x0, fx0, start_evals = next(levels)
    n_levels, m, n = len(cfg.temperature_levels()), cfg.inner_iters, len(seeds)
    chains = np.arange(n)
    acceptance, mean, best = (np.empty((n_levels, n)) for _ in range(3))
    left_box = np.empty((n_levels, n), dtype=int)
    # per run, the first lowest step: its value, level, step in the level and state
    low, level, step, low_x = np.full(n, np.inf), np.zeros(n, int), np.zeros(n, int), x0.copy()
    lo, hi = np.full_like(x0, np.inf), np.full_like(x0, -np.inf)  # the states' bounds
    for i, (start, noise, states, values, accepted) in enumerate(levels):
        k = np.argmin(values, axis=0)  # per run, the level's first lowest step
        by_run = values.T.copy()  # one contiguous row of m values per run, summed pairwise
        mean[i] = by_run.sum(axis=1) / m
        big = np.isinf(mean[i])  # a sum past the largest float: add values / m instead
        mean[i, big] = (by_run[big] / m).sum(axis=1)
        proposals = np.concatenate([start[None], states[:-1]])  # the state before each step,
        proposals += noise  # plus its increment: the kernel's own addition, unfolded
        outside = ((proposals < domain.lower) | (proposals > domain.upper)).any(axis=2)
        acceptance[i], left_box[i] = accepted.sum(axis=0) / m, outside.sum(axis=0)
        level_low = values[k, chains]
        new = level_low < low  # strictly, so the first level holding it stays
        low[new], level[new], step[new] = level_low[new], i, k[new]
        low_x[new] = states[k[new], chains[new]]
        best[i] = np.minimum(best[i - 1] if i else fx0, level_low)  # the start included
        np.minimum(lo, states.min(axis=0), out=lo)
        np.maximum(hi, states.max(axis=0), out=hi)
    # NaN runs: every value is NaN, so no level is lower, and step 1 holds the start
    best_x = np.where((low < fx0)[:, None], low_x, x0)  # strictly: on a tie the start held it first
    over = np.maximum(hi - domain.upper, domain.lower - lo).max(axis=1)
    return [AnnealResult(
        best=best_x[c], best_value=float(signs[c] * best[-1, c]),
        eval_count=int(start_evals[c]) + n_levels * m, config=cfg, seed=seed, mode=mode,
        iters_to_best=int(level[c] * m + step[c] + 1), max_excursion=max(float(over[c]), 0.0),
        levels=LevelSummary(acceptance[:, c], left_box[:, c],
                            signs[c] * mean[:, c], signs[c] * best[:, c]))
        for c, (seed, mode) in enumerate(zip(seeds, modes))]
