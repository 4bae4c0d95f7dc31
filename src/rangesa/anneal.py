"""Simulated annealing with reflective boundary conditions.

The chain proposes Gaussian steps, folds them back into the box (reflected
mode), and accepts with the Metropolis rule under a geometrically decreasing
temperature. Classical mode runs the identical loop without the fold and may
wander outside the box.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import BoxDomain
from .objectives import Objective

MODES = ("reflected", "classical")
COOLINGS = ("theorem", "algorithm1")


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

    def temperature_levels(self) -> list[float]:
        """Temperatures visited by the outer loop, strictly decreasing."""
        levels = []
        t = self.t_max
        i = 0
        while t > self.t_min:
            levels.append(t)
            i += 1
            if self.cooling == "theorem":
                t = self.t_max * self.delta**i
            else:
                t = t * self.delta**i
        return levels


@dataclass
class Trace:
    """Per-step record of the chain; one row per inner iteration."""

    iterations: np.ndarray
    temperatures: np.ndarray
    points: np.ndarray  # (n, d)
    values: np.ndarray
    accepted: np.ndarray  # bool
    best_values: np.ndarray

    def __len__(self):
        return len(self.iterations)

    def to_csv(self, path) -> None:
        d = self.points.shape[1]
        header = "iter,temperature," + ",".join(f"x{j+1}" for j in range(d)) + ",value,accepted,best_value"
        lines = [header]
        for i in range(len(self)):
            lines.append(
                ",".join(
                    [str(int(self.iterations[i])), repr(float(self.temperatures[i]))]
                    + [repr(float(v)) for v in self.points[i]]
                    + [
                        repr(float(self.values[i])),
                        str(int(self.accepted[i])),
                        repr(float(self.best_values[i])),
                    ]
                )
            )
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class AnnealResult:
    best: np.ndarray
    best_value: float
    trace: Trace
    eval_count: int
    config: AnnealConfig


def propose(x: np.ndarray, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Isotropic Gaussian step around x with the given per-coordinate variance."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    return x + rng.normal(0.0, np.sqrt(variance), size=x.shape)


def acceptance_probability(delta_f: float, temperature: float) -> float:
    """Metropolis rule: 1 for downhill moves, exp(-dF/T) for uphill."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if delta_f <= 0:
        return 1.0
    return float(np.exp(-delta_f / temperature))


def _chain(
    f: Objective,
    domain: BoxDomain,
    temperatures: np.ndarray,
    variance: float,
    reflect: bool,
    seed: int,
) -> tuple[Trace, np.ndarray, float]:
    """The Metropolis chain: one step per entry of ``temperatures``.

    The start point is uniform on the box. Each step draws one Gaussian
    proposal, folds it into the box when ``reflect`` is set, evaluates f once
    and then draws one uniform for the acceptance test. Returns the trace and
    the best point and value seen, start point included.
    """
    if f.dim != domain.dim:
        raise ValueError(f"objective dimension {f.dim} != domain dimension {domain.dim}")
    rng = np.random.default_rng(seed)
    n_steps = len(temperatures)
    x = domain.sample_uniform(rng)
    fx = f(x)
    best, best_value = x.copy(), fx

    points = np.empty((n_steps, domain.dim))
    values = np.empty(n_steps)
    accepted = np.empty(n_steps, dtype=bool)
    best_values = np.empty(n_steps)
    for i, t in enumerate(temperatures.tolist()):
        y = propose(x, variance, rng)
        if reflect:
            y = domain.reflect(y)
        fy = f(y)
        acc = rng.uniform() <= acceptance_probability(fy - fx, t)
        if acc:
            x, fx = y, fy
            if fx < best_value:
                best, best_value = x.copy(), fx
        points[i] = x
        values[i] = fx
        accepted[i] = acc
        best_values[i] = best_value

    trace = Trace(np.arange(1, n_steps + 1), temperatures, points, values, accepted, best_values)
    return trace, best, best_value


def run(f: Objective, domain: BoxDomain, cfg: AnnealConfig) -> AnnealResult:
    """Full annealing loop: N inner steps per temperature level, then cool.

    The start point is uniform on the box; total objective evaluations are
    1 + inner_iters * number of temperature levels.
    """
    temperatures = np.repeat(cfg.temperature_levels(), cfg.inner_iters)
    trace, best, best_value = _chain(
        f, domain, temperatures, cfg.resolve_variance(domain), cfg.mode == "reflected", cfg.seed
    )
    return AnnealResult(
        best=best,
        best_value=best_value,
        trace=trace,
        eval_count=1 + len(trace),
        config=cfg,
    )


def fixed_temperature_chain(
    f: Objective,
    domain: BoxDomain,
    temperature: float,
    variance: float,
    n_steps: int,
    seed: int = 0,
    burn_in: int = 0,
) -> np.ndarray:
    """Reflected Metropolis chain at one fixed temperature; returns post-burn-in points."""
    temperatures = np.full(burn_in + n_steps, float(temperature))
    trace, _, _ = _chain(f, domain, temperatures, variance, True, seed)
    return trace.points[burn_in:]


def max_excursion(trace: Trace, domain: BoxDomain) -> float:
    """Largest componentwise overshoot of any trace point outside the box."""
    over = np.maximum(trace.points - domain.upper, 0.0)
    under = np.maximum(domain.lower - trace.points, 0.0)
    return float(np.max(np.maximum(over, under)))


def iterations_to_best(trace: Trace) -> int:
    """Iteration at which the chain first held its lowest value."""
    return int(trace.iterations[int(np.argmin(trace.values))])


def gibbs_density(
    f: Objective,
    domain: BoxDomain,
    temperature: float,
    grid_n: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """Tabulated equilibrium density exp(-(F - F_min)/T) on a 1-d grid.

    Normalized by trapezoidal quadrature; used by the stationarity check.
    """
    if domain.dim != 1:
        raise ValueError("gibbs_density is defined for 1-d domains only")
    if grid_n < 100:
        raise ValueError("grid_n must be at least 100")
    lo, hi = domain.bounds[0]
    xs = np.linspace(lo, hi, grid_n)
    vals = f.evaluate_many(xs[:, None])
    dens = np.exp(-(vals - vals.min()) / temperature)
    dens /= np.trapezoid(dens, xs)
    return xs, dens
