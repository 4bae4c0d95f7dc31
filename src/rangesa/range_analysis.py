"""Range estimation: paired min/max annealing runs, the boundary-mode comparison and
the brute-force grid oracle."""
from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .anneal import MODES, AnnealConfig, AnnealResult, _check_budget, run_many
from .domain import BoxDomain
from .objectives import Objective, _integer

GRID_BUDGET = 10**8
# Grid rows evaluated per objective call. A 1,024-row chunk keeps a ResNet's
# widest reduced layer (1,024 x 128 float64 = 1 MiB) inside a 2 MiB L2 cache;
# 512 and 1,024 rows were fastest on a 2-vCPU machine, 2,048 already spilled.
ORACLE_CHUNK = 1024


class GridBudgetExceeded(ValueError):
    """Raised when the requested tensor grid is larger than the evaluation budget."""


def _best_finite(runs: list[AnnealResult]) -> AnnealResult:
    """The run with the lowest best value, the first one on ties.

    Best values are finite or NaN (see ``Objective``), and NaN is never
    chosen; ValueError when every one is NaN.
    """
    values = np.array([r.best_value for r in runs])
    if np.isnan(values).all():
        raise ValueError("the objective returned no finite value")
    return runs[int(np.nanargmin(values))]


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

    def _seed_agreement(self) -> dict:
        """Per kind: the seeds' best values, their spread and the spread's share of the range.

        Non-finite best values are written as None and left out of the spread;
        the share is None when the range has zero width.
        """
        width = self.f_max - self.f_min
        doc = {}
        for kind, runs in self.runs.items():
            values = [r.sign * r.best_value for r in runs]
            finite = [v for v in values if np.isfinite(v)]
            spread = max(finite) - min(finite)
            doc[kind] = {
                "best_values": [v if np.isfinite(v) else None for v in values],
                "spread": spread,
                "spread_share_of_range": spread / width if width > 0 else None,
            }
        return doc

    def to_json_dict(self, config: AnnealConfig | None = None) -> dict:
        doc = {
            "f_min": self.f_min,
            "f_max": self.f_max,
            "x_min": list(map(float, self.x_min)),
            "x_max": list(map(float, self.x_max)),
            "interval_type": self.interval_type,
            "eval_count": self.eval_count,
            "seeds_used": self.seeds_used,
        }
        if self.runs:
            doc["seed_agreement"] = self._seed_agreement()
        if config is not None:
            doc["config"] = asdict(config)
        return doc


def estimate_range(
    f: Objective,
    domain: BoxDomain,
    cfg: AnnealConfig,
    n_seeds: int = 10,
) -> RangeResult:
    """Estimate [f_min, f_max] via n_seeds annealing runs on f and on -f, all in one batch.

    The runs on -f reuse the same seeds, so estimate_range(-f) swaps and negates
    the interval exactly. Each endpoint comes from the chain with the lowest
    finite best value (the first seed on ties); ValueError when no chain saw a
    finite value. Both argpoints are re-validated by a fresh evaluation of f.
    The result keeps the runs, with their per-level rows, in ``runs``.
    """
    n_seeds = _integer("n_seeds", n_seeds, 1)
    _check_budget(cfg, 2 * n_seeds)  # before any config is built
    seeds = [cfg.seed + k for k in range(n_seeds)]
    cfgs = [replace(cfg, seed=s) for s in seeds]
    runs = run_many(f, domain, cfgs * 2, [1] * n_seeds + [-1] * n_seeds)
    min_runs, max_runs = runs[:n_seeds], runs[n_seeds:]

    x_min, x_max = _best_finite(min_runs).best, _best_finite(max_runs).best

    return RangeResult(
        f_min=f(x_min),
        f_max=f(x_max),
        x_min=x_min,
        x_max=x_max,
        eval_count=sum(r.eval_count for r in runs) + 2,
        seeds_used=seeds,
        runs={"min": min_runs, "max": max_runs},
    )


def compare_modes(
    f: Objective,
    domain: BoxDomain,
    cfg: AnnealConfig,
    n_seeds: int = 10,
) -> tuple[list[dict], list[AnnealResult]]:
    """Reflected and classical runs of cfg on the seeds cfg.seed, cfg.seed + 1, ..., in one batch.

    Returns one summary row per run, seed by seed and reflected first:
    seed, mode, best value, the iteration that first held it and the
    largest overshoot of a state outside the box (0 for reflected runs);
    and the runs themselves.
    """
    n_seeds = _integer("n_seeds", n_seeds, 1)
    _check_budget(cfg, 2 * n_seeds)  # before any config is built
    cfgs = [replace(cfg, seed=cfg.seed + k, mode=mode) for k in range(n_seeds) for mode in MODES]
    runs = run_many(f, domain, cfgs)
    rows = [{"seed": r.config.seed, "mode": r.config.mode, "best_value": r.best_value,
             "iters_to_best": r.iters_to_best, "max_excursion": r.max_excursion} for r in runs]
    return rows, runs


@dataclass
class OracleResult:
    min_value: float
    min_point: np.ndarray
    max_value: float
    max_point: np.ndarray
    n_points: int

    def to_json_dict(self) -> dict:
        return {
            "min_value": self.min_value,
            "min_point": list(map(float, self.min_point)),
            "max_value": self.max_value,
            "max_point": list(map(float, self.max_point)),
            "n_points": self.n_points,
        }


def _oracle_workers() -> int:
    """max(1, cpus // BLAS threads); 1 when OPENBLAS_NUM_THREADS and OMP_NUM_THREADS are unset."""
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, (cpus or 1) // int(blas)) if blas and blas.isdigit() and int(blas) else 1


def grid_oracle(
    f: Objective,
    domain: BoxDomain,
    points_per_dim: int,
) -> OracleResult:
    """Exhaustive evaluation on the uniform tensor grid (endpoints included).

    Evaluated ORACLE_CHUNK rows at a time by ``_oracle_workers()`` threads.
    Deterministic; ties resolve to the first grid point in row-major order.
    Only finite values count; ValueError when the grid has none.
    """
    points_per_dim = _integer("points_per_dim", points_per_dim, 2)
    d = domain.dim
    n_total = points_per_dim**d
    if n_total > GRID_BUDGET:
        raise GridBudgetExceeded(
            f"grid of {n_total} points exceeds the {GRID_BUDGET} budget; "
            "reduce points_per_dim"
        )
    axes = [np.linspace(lo, hi, points_per_dim) for lo, hi in domain.bounds]

    def points(idx):  # grid points by row-major index
        ijk = np.unravel_index(idx, (points_per_dim,) * d)
        return np.stack([axis[i] for axis, i in zip(axes, ijk)], axis=1)

    @np.errstate(over="ignore", invalid="ignore")  # set per call, so in each worker thread
    def scan(first):  # (min, index) and (-max, index) over every workers-th chunk
        best = [(np.inf, -1), (np.inf, -1)]
        for start in range(first * ORACLE_CHUNK, n_total, workers * ORACLE_CHUNK):
            vals = f.evaluate_many(points(np.arange(start, min(start + ORACLE_CHUNK, n_total))))
            finite = np.isfinite(vals)
            for j, v in enumerate((vals, -vals)):
                k = int(np.argmin(np.where(finite, v, np.inf)))
                if finite[k] and v[k] < best[j][0]:
                    best[j] = (float(v[k]), start + k)
        return best

    workers = min(_oracle_workers(), -(-n_total // ORACLE_CHUNK))
    if workers == 1:
        scans = [scan(0)]
    else:
        from concurrent.futures import ThreadPoolExecutor  # 384 KB of RSS: imported only here
        with ThreadPoolExecutor(workers) as pool:  # one chunk in flight per worker
            scans = list(pool.map(scan, range(workers)))
    (min_value, i_min), (neg_max, i_max) = map(min, zip(*scans))  # ties: lowest index
    if i_min < 0:
        raise ValueError("the objective returned no finite value on the grid")
    min_point, max_point = points(np.array([i_min, i_max]))
    return OracleResult(min_value=min_value, min_point=min_point, max_value=-neg_max,
                        max_point=max_point, n_points=n_total)
