"""Helpers that only the tests use: per-step records of the annealing kernel, a
one-chain run, a fixed-temperature chain, the Gibbs reference density and the
single-point parameter gradient."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rangesa import AnnealConfig, AnnealResult, BoxDomain, Objective, ResNet
from rangesa.anneal import _lockstep, _results
from rangesa.trainer import loss_and_gradients


@dataclass
class Trace:
    """Per-step record of a chain; one row per inner iteration."""

    iterations: np.ndarray
    temperatures: np.ndarray
    points: np.ndarray  # (n, d): the state held after each step
    values: np.ndarray
    accepted: np.ndarray  # bool
    best_values: np.ndarray  # running minimum of the values, the start's included
    left_box: np.ndarray  # bool: the step's proposal, before any fold, lay outside the box

    def __len__(self):
        return len(self.iterations)


def traced(f: Objective, domain: BoxDomain, cfg: AnnealConfig, seeds, signs=None,
           modes=None) -> list[tuple[AnnealResult, Trace]]:
    """``run_many(f, domain, cfg, seeds, signs, modes)``, each run paired with its per-step
    record.

    The records are copies of the kernel's level records, taken as the
    runs' results are reduced from them.
    """
    n = len(seeds)
    signs = np.ones(n) if signs is None else np.asarray(signs, dtype=float)
    modes = ["reflected"] * n if modes is None else list(modes)
    records = []

    def copying(levels):
        for record in levels:
            records.append([np.copy(a) for a in record])
            yield record

    results = _results(copying(_lockstep(f, domain, cfg, seeds, signs, modes)), domain, cfg,
                       seeds, signs, modes)
    (_, start_values, _), levels = records[0], records[1:]
    starts, noise, states, values, accepted = zip(*levels)
    m = len(values[0])
    # each step's state before it plus its increment: the unfolded proposals
    proposals = np.concatenate([np.concatenate([start[None], s[:-1]]) + dx
                                for start, dx, s in zip(starts, noise, states)])
    states, values, accepted = (np.concatenate(a) for a in (states, values, accepted))
    best_values = np.minimum.accumulate(np.concatenate([start_values[None], values]))[1:]
    left_box = ((proposals < domain.lower) | (proposals > domain.upper)).any(axis=2)
    iterations = np.arange(1, len(values) + 1)
    temperatures = np.repeat(cfg.temperature_levels(), m)
    return [(r, Trace(iterations, temperatures, states[:, c], values[:, c], accepted[:, c],
                      best_values[:, c], left_box[:, c])) for c, r in enumerate(results)]


def run(f: Objective, domain: BoxDomain, cfg: AnnealConfig, seed: int = 0,
        mode: str = "reflected") -> tuple[AnnealResult, Trace]:
    """Full annealing loop of one chain, and its per-step record.

    N inner steps per temperature level, then cool. The start point is
    uniform on the box; total objective evaluations are 1 + inner_iters *
    number of temperature levels, plus any start redraws.
    """
    return traced(f, domain, cfg, [seed], modes=[mode])[0]


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
    # a schedule of one level: T, then T / 2, which is not above t_min
    cfg = AnnealConfig(t_max=temperature, t_min=temperature / 2, delta=0.5,
                       inner_iters=burn_in + n_steps, proposal_variance=variance)
    return run(f, domain, cfg, seed)[1].points[burn_in:]


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


def flatten_gradients(grads) -> np.ndarray:
    """Deterministic parameter ordering: per layer, row-major W then b."""
    parts = []
    for dW, db in grads:
        parts.append(dW.ravel())
        parts.append(db)
    return np.concatenate(parts)


def gradient(net: ResNet, x, target: float) -> np.ndarray:
    """Gradient of (net.forward(x) - target)^2 over all parameters, flattened."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise ValueError(f"expected input of dimension {net.input_dim}, got shape {x.shape}")
    _, grads = loss_and_gradients(net, x[None, :], np.array([target]))  # one row: mean = sum
    return flatten_gradients(grads)
