"""Range estimation: paired min/max annealing runs and the brute-force grid oracle."""
from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .anneal import AnnealConfig, AnnealResult, _chains
from .domain import BoxDomain
from .objectives import Objective

GRID_BUDGET = 10**8
# Grid rows evaluated per objective call. A 1,024-row chunk keeps a ResNet's
# widest reduced layer (1,024 x 128 float64 = 1 MiB) inside a 2 MiB L2 cache;
# 512 and 1,024 rows were fastest on a 2-vCPU machine, 2,048 already spilled.
ORACLE_CHUNK = 1024


class GridBudgetExceeded(ValueError):
    """Raised when the requested tensor grid is larger than the evaluation budget."""


def _best_finite(runs: list[AnnealResult]) -> AnnealResult:
    """The run with the lowest finite best value, the first one on ties.

    NaN and infinite values are never chosen; ValueError when none is finite.
    """
    values = np.array([r.best_value for r in runs])
    finite = np.isfinite(values)
    if not finite.any():
        raise ValueError("the objective returned no finite value")
    return runs[int(np.argmin(np.where(finite, values, np.inf)))]


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

    def __post_init__(self):
        if self.f_min > self.f_max:
            raise ValueError("f_min must not exceed f_max")

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
        if config is not None:
            doc["config"] = asdict(config)
        return doc


def estimate_range(
    f: Objective,
    domain: BoxDomain,
    cfg: AnnealConfig,
    n_seeds: int = 10,
    return_traces: bool = False,
):
    """Estimate [f_min, f_max] via n_seeds annealing runs on f and on -f, all in one batch.

    The runs on -f reuse the same seeds, so estimate_range(-f) swaps and negates
    the interval exactly. Each endpoint comes from the chain with the lowest
    finite best value (the first seed on ties); ValueError when no chain saw a
    finite value. Both argpoints are re-validated by a fresh evaluation of f.
    """
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    seeds = [cfg.seed + k for k in range(n_seeds)]
    cfgs = [replace(cfg, seed=s) for s in seeds]
    runs = _chains(f, domain, cfgs * 2, [1] * n_seeds + [-1] * n_seeds)
    min_runs, max_runs = runs[:n_seeds], runs[n_seeds:]

    x_min, x_max = _best_finite(min_runs).best, _best_finite(max_runs).best

    result = RangeResult(
        f_min=f(x_min),
        f_max=f(x_max),
        x_min=x_min,
        x_max=x_max,
        eval_count=sum(r.eval_count for r in min_runs + max_runs) + 2,
        seeds_used=seeds,
    )
    if return_traces:
        return result, {"min": min_runs, "max": max_runs}
    return result


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


def grid_oracle(
    f: Objective,
    domain: BoxDomain,
    points_per_dim: int,
) -> OracleResult:
    """Exhaustive evaluation on the uniform tensor grid (endpoints included).

    Evaluated ORACLE_CHUNK rows at a time. Deterministic; ties resolve to
    the first grid point in row-major order.
    Only finite values count; ValueError when the grid has none.
    """
    if points_per_dim < 2:
        raise ValueError("points_per_dim must be at least 2")
    d = domain.dim
    n_total = points_per_dim**d
    if n_total > GRID_BUDGET:
        raise GridBudgetExceeded(
            f"grid of {n_total} points exceeds the {GRID_BUDGET} budget; "
            "reduce points_per_dim"
        )
    axes = [np.linspace(lo, hi, points_per_dim) for lo, hi in domain.bounds]

    min_value = np.inf
    max_value = -np.inf
    min_point = max_point = None
    for start in range(0, n_total, ORACLE_CHUNK):
        idx = np.arange(start, min(start + ORACLE_CHUNK, n_total))
        coords = np.empty((len(idx), d))
        rem = idx
        for j in range(d - 1, -1, -1):
            coords[:, j] = axes[j][rem % points_per_dim]
            rem = rem // points_per_dim
        vals = f.evaluate_many(coords)
        finite = np.isfinite(vals)
        k = int(np.argmin(np.where(finite, vals, np.inf)))
        if finite[k] and vals[k] < min_value:
            min_value, min_point = float(vals[k]), coords[k].copy()
        k = int(np.argmax(np.where(finite, vals, -np.inf)))
        if finite[k] and vals[k] > max_value:
            max_value, max_point = float(vals[k]), coords[k].copy()
    if min_point is None:
        raise ValueError("the objective returned no finite value on the grid")
    return OracleResult(
        min_value=min_value,
        min_point=min_point,
        max_value=max_value,
        max_point=max_point,
        n_points=n_total,
    )
