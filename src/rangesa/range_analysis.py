"""Range estimation: paired min/max annealing runs, the boundary-mode comparison and
the brute-force grid oracle."""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .anneal import MODES, AnnealConfig, AnnealResult, _check_budget, run_many
from .domain import BoxDomain
from .objectives import ROW_BLOCK, Objective, _check_dims, _integer, _within_budget

GRID_BUDGET = 10**8


def _best_finite(runs: list[AnnealResult], highest: bool = False) -> AnnealResult:
    """The run with the lowest best value (the highest with ``highest``), the first one on ties.

    Best values are finite or NaN (see ``Objective``), and NaN is never
    chosen; ValueError when every one is NaN.
    """
    values = np.array([r.best_value for r in runs])
    if np.isnan(values).all():
        raise ValueError("the objective returned no finite value")
    return runs[int((np.nanargmax if highest else np.nanargmin)(values))]


@dataclass
class RangeResult:
    """Inner interval of witnessed values: endpoints are actual evaluations."""

    f_min: float
    f_max: float
    x_min: np.ndarray
    x_max: np.ndarray
    eval_count: int
    seeds_used: list[int]
    interval_type: str = "inner"
    # per kind ("min", "max"): the annealing runs, in seed order
    runs: dict[str, list[AnnealResult]] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.f_min > self.f_max:
            raise ValueError("f_min must not exceed f_max")

    def seed_agreement(self) -> dict:
        """Per kind: the seeds' best values, their spread and the spread's share of the range.

        Non-finite best values are left out of the spread; the share is None when
        the range has zero width.
        """
        width = self.f_max - self.f_min
        doc = {}
        for kind, runs in self.runs.items():
            values = [r.best_value for r in runs]
            spread = np.nanmax(values) - np.nanmin(values)
            doc[kind] = {"best_values": values, "spread": spread,
                         "spread_share_of_range": spread / width if width > 0 else None}
        return doc


def estimate_range(f: Objective, domain: BoxDomain, cfg: AnnealConfig, n_seeds: int = 10,
                   seed: int = 0) -> RangeResult:
    """Estimate [f_min, f_max] via n_seeds reflected annealing runs of cfg on f and on -f.

    All run in one batch, both on the seeds seed, seed + 1, ..., so estimate_range(-f)
    swaps and negates the interval exactly. Each endpoint comes from the chain with the
    lowest finite best value (the first seed on ties); ValueError when no chain saw a
    finite value. Both argpoints are re-validated by a fresh evaluation of f. The result
    keeps the runs, with their per-level rows, in ``runs``. The runs are reflected: only
    they stay in the box, so only their values are attained on it.
    """
    n_seeds, seed = _integer("n_seeds", n_seeds, 1), _integer("seed", seed, 0)
    _check_budget(cfg, 2 * n_seeds)  # before the seed list is built
    seeds = list(range(seed, seed + n_seeds))
    runs = run_many(f, domain, cfg, seeds * 2, [1] * n_seeds + [-1] * n_seeds)
    min_runs, max_runs = runs[:n_seeds], runs[n_seeds:]
    x_min, x_max = _best_finite(min_runs).best, _best_finite(max_runs, highest=True).best
    return RangeResult(f_min=f(x_min), f_max=f(x_max), x_min=x_min, x_max=x_max,
                       eval_count=sum(r.eval_count for r in runs) + 2, seeds_used=seeds,
                       runs={"min": min_runs, "max": max_runs})


def compare_modes(f: Objective, domain: BoxDomain, cfg: AnnealConfig, n_seeds: int = 10,
                  seed: int = 0) -> list[AnnealResult]:
    """Reflected and classical runs of cfg on the seeds seed, seed + 1, ..., in one batch.

    Returns the runs seed by seed, the reflected run first.
    """
    n_seeds, seed = _integer("n_seeds", n_seeds, 1), _integer("seed", seed, 0)
    _check_budget(cfg, 2 * n_seeds)  # before the seed list is built
    seeds = [s for s in range(seed, seed + n_seeds) for _ in MODES]
    return run_many(f, domain, cfg, seeds, modes=list(MODES) * n_seeds)


@dataclass
class OracleResult:
    min_value: float
    min_point: np.ndarray
    max_value: float
    max_point: np.ndarray
    n_points: int


def _oracle_workers() -> int:
    """max(1, cpus // BLAS threads); 1 when OPENBLAS_NUM_THREADS and OMP_NUM_THREADS are unset."""
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, (cpus or 1) // int(blas)) if blas and blas.isdigit() and int(blas) else 1


def grid_oracle(f: Objective, domain: BoxDomain, points_per_dim: int) -> OracleResult:
    """Exhaustive evaluation on the uniform tensor grid (endpoints included).

    Evaluated ROW_BLOCK rows at a time by ``_oracle_workers()`` threads.
    Deterministic; ties resolve to the first grid point in row-major order.
    Only finite values count; ValueError when the grid has none, and before
    any evaluation when f and the domain differ in dimension or the grid has
    over GRID_BUDGET points.
    """
    _check_dims(f, domain)
    points_per_dim = _integer("points_per_dim", points_per_dim, 2)
    d = domain.dim
    n_total = points_per_dim**d
    _within_budget(n_total, GRID_BUDGET, f"{points_per_dim}^{d} = {n_total} grid points", "points",
                   "points_per_dim")
    axes = [np.linspace(lo, hi, points_per_dim) for lo, hi in domain.bounds]

    def points(idx):  # grid points by row-major index
        ijk = np.unravel_index(idx, (points_per_dim,) * d)
        return np.stack([axis[i] for axis, i in zip(axes, ijk)], axis=1)

    @np.errstate(over="ignore", invalid="ignore")  # set per call, so in each worker thread
    def scan(first):  # (min, index) and (-max, index) over every workers-th block
        best = [(np.inf, -1), (np.inf, -1)]
        for start in range(first * ROW_BLOCK, n_total, workers * ROW_BLOCK):
            vals = f.evaluate_many(points(np.arange(start, min(start + ROW_BLOCK, n_total))))
            finite = np.isfinite(vals)
            for j, v in enumerate((vals, -vals)):
                k = int(np.argmin(np.where(finite, v, np.inf)))
                if finite[k] and v[k] < best[j][0]:
                    best[j] = (float(v[k]), start + k)
        return best

    workers = min(_oracle_workers(), -(-n_total // ROW_BLOCK))
    if workers == 1:
        scans = [scan(0)]
    else:
        from concurrent.futures import ThreadPoolExecutor  # 384 KB of RSS: imported only here
        with ThreadPoolExecutor(workers) as pool:  # one block in flight per worker
            scans = list(pool.map(scan, range(workers)))
    (min_value, i_min), (neg_max, i_max) = map(min, zip(*scans))  # ties: lowest index
    if i_min < 0:
        raise ValueError("the objective returned no finite value on the grid")
    min_point, max_point = points(np.array([i_min, i_max]))
    return OracleResult(min_value=min_value, min_point=min_point, max_value=-neg_max,
                        max_point=max_point, n_points=n_total)
