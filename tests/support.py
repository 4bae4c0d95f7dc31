"""Helpers that only the tests use: a one-chain run, a fixed-temperature chain,
the Gibbs reference density and the single-point parameter gradient."""
from __future__ import annotations

import numpy as np

from rangesa import AnnealConfig, AnnealResult, BoxDomain, Objective, ResNet, run_many
from rangesa.trainer import loss_and_gradients


def run(f: Objective, domain: BoxDomain, cfg: AnnealConfig) -> AnnealResult:
    """Full annealing loop: N inner steps per temperature level, then cool.

    The start point is uniform on the box; total objective evaluations are
    1 + inner_iters * number of temperature levels, plus any start redraws.
    """
    return run_many(f, domain, [cfg])[0]


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
                       inner_iters=burn_in + n_steps, proposal_variance=variance, seed=seed)
    return run(f, domain, cfg).trace.points[burn_in:]


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
    """Gradient of (forward(net, x) - target)^2 over all parameters, flattened."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise ValueError(f"expected input of dimension {net.input_dim}, got shape {x.shape}")
    _, grads = loss_and_gradients(net, x[None, :], np.array([target]))  # one row: mean = sum
    return flatten_gradients(grads)
