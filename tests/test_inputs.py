"""Every library entry point checks its own arguments before any work."""
import math
import re

import numpy as np
import pytest

from rangesa import (
    AnnealConfig,
    BoxDomain,
    Dataset,
    Objective,
    ResNet,
    TrainConfig,
    build_resnet,
    compare_modes,
    estimate_range,
    evaluate_fit,
    grid_oracle,
    run_many,
    sample_dataset,
    train,
)
from rangesa.anneal import EVAL_BUDGET
from rangesa.objectives import DATASET_BUDGET
from rangesa.presets import preset
from rangesa.range_analysis import GRID_BUDGET
from rangesa.resnet import PARAM_BUDGET
from rangesa.trainer import STEP_BUDGET, TRAIN_BUDGET

BOX = BoxDomain.cube(-1.0, 1.0, 2)
WIDE = BoxDomain.cube(-1e160, 1e160, 2)  # (0.1 x its side)^2 overflows a float
NET = build_resnet([2, 4, 1], seed=0)

# id -> the argument its error names, and a call with a bad value of it, given a 2-d objective f
PROBES = {
    "sample_dataset-seed": ("seed", lambda f: sample_dataset(f, BOX, m=5, seed=-1)),
    "TrainConfig-seed": ("seed", lambda f: TrainConfig(seed=-1)),
    "evaluate_fit-seed": ("seed", lambda f: evaluate_fit(NET, f, BOX, n=5, seed=-1)),
    "estimate_range-wide-box": ("proposal_variance",
                                lambda f: estimate_range(f, WIDE, AnnealConfig(), n_seeds=1)),
    "estimate_range-seed": ("seed",
                            lambda f: estimate_range(f, BOX, AnnealConfig(), n_seeds=1, seed=-1)),
    # run_many's per-run sequences: one entry per run in each, of the allowed values
    "run_many-unequal-lengths": ("signs",
                                 lambda f: run_many(f, BOX, AnnealConfig(), [0, 1], signs=[1])),
    "run_many-zero-sign": ("signs", lambda f: run_many(f, BOX, AnnealConfig(), [0], signs=[0])),
    "run_many-unknown-mode": ("modes",
                              lambda f: run_many(f, BOX, AnnealConfig(), [0], modes=["bogus"])),
    "run_many-negative-seed": ("seed", lambda f: run_many(f, BOX, AnnealConfig(), [-1])),
    "run_many-no-runs": ("seeds", lambda f: run_many(f, BOX, AnnealConfig(), [])),
    "compare_modes-wide-box": ("proposal_variance",
                               lambda f: compare_modes(f, WIDE, AnnealConfig(), n_seeds=1)),
    "TrainConfig-fractional-epochs": ("epochs", lambda f: TrainConfig(epochs=2.5)),
    "TrainConfig-bool-epochs": ("epochs", lambda f: TrainConfig(epochs=True)),
    # bools are Python integers, yet no float argument takes one
    "TrainConfig-bool-learning_rate": ("learning_rate",
                                       lambda f: TrainConfig(learning_rate=True)),
    "sample_dataset-bool-noise": ("noise_sd",
                                  lambda f: sample_dataset(f, BOX, m=5, noise_sd=True)),
    "architecture-bool-width_scale": ("width_scale",
                                      lambda f: preset("ackley").architecture(width_scale=True)),
    "AnnealConfig-bool-delta": ("delta", lambda f: AnnealConfig(delta=True)),
    "grid_oracle-points_per_dim": ("points_per_dim", lambda f: grid_oracle(f, BOX, 2.5)),
    "sample_dataset-m": ("m", lambda f: sample_dataset(f, BOX, m=2.5)),
    "sample_dataset-nan-noise": ("noise_sd",
                                 lambda f: sample_dataset(f, BOX, m=5, noise_sd=math.nan)),
    "sample_dataset-inf-noise": ("noise_sd",
                                 lambda f: sample_dataset(f, BOX, m=5, noise_sd=math.inf)),
    # 2 x 300,000 chains of 181 levels x 100 steps, far over EVAL_BUDGET
    "estimate_range-n_seeds": ("n_seeds",
                               lambda f: estimate_range(f, BOX, AnnealConfig(), n_seeds=300_000)),
    "compare_modes-n_seeds": ("n_seeds",
                              lambda f: compare_modes(f, BOX, AnnealConfig(), n_seeds=300_000)),
    "build_resnet-zero-width": ("widths", lambda f: build_resnet([2, 0, 1])),
    "build_resnet-zero-input": ("widths", lambda f: build_resnet([0, 1])),
    "build_resnet-fractional-width": ("widths", lambda f: build_resnet([2, 2.5, 1])),
    "build_resnet-bool-width": ("widths", lambda f: build_resnet([True, 3, 1])),
}


@pytest.mark.parametrize("probe", list(PROBES))
def test_bad_argument_refused_before_any_evaluation(probe):
    name, call = PROBES[probe]
    calls = []
    f = Objective(lambda X: calls.append(len(X)) or np.zeros(len(X)), 2)
    with pytest.raises(ValueError, match=rf"\b{re.escape(name)}\b"):
        call(f)
    assert calls == []


class _Started(Exception):
    """Raised by the first evaluation: the call got past its checks."""


def _started(*args, **kwargs):
    raise _Started


ZEROS = Dataset(np.zeros((100, 2)), np.zeros(100))
ONE_ROW = Dataset(np.zeros((1, 2)), np.zeros(1))


def two_levels(steps):
    """A schedule of at most 2 temperature levels of ``steps`` steps each."""
    return AnnealConfig(t_max=2.0, t_min=1.0, delta=0.5, inner_iters=steps)


# entry point -> its budget, and a call of it with k points (k row passes for train,
# k steps for train-steps, at least k grid points, k chain steps for the annealers)
BUDGETS = {
    "train": (TRAIN_BUDGET, lambda f, k: train(NET, ZEROS, TrainConfig(epochs=k // 100))),
    "train-steps": (STEP_BUDGET, lambda f, k: train(NET, ONE_ROW, TrainConfig(epochs=k))),
    "sample_dataset": (DATASET_BUDGET, lambda f, k: sample_dataset(f, BOX, m=k)),
    "evaluate_fit": (DATASET_BUDGET, lambda f, k: evaluate_fit(NET, f, BOX, n=k)),
    # the smallest square grid of at least k points
    "grid_oracle": (GRID_BUDGET, lambda f, k: grid_oracle(f, BOX, math.isqrt(k - 1) + 1)),
    "run_many": (EVAL_BUDGET, lambda f, k: run_many(f, BOX, two_levels(k // 2), [0])),
    # n_seeds runs on f and as many on -f
    "estimate_range": (EVAL_BUDGET,
                       lambda f, k: estimate_range(f, BOX, two_levels(k // 4), n_seeds=1)),
    "compare_modes": (EVAL_BUDGET,
                      lambda f, k: compare_modes(f, BOX, two_levels(k // 4), n_seeds=1)),
    # a [2, h, 1] network holds 4h + 1 parameters; the work is built, then run forward
    "build_resnet": (PARAM_BUDGET,
                     lambda f, k: build_resnet([2, (k - 1) // 4, 1]).forward([0.0, 0.0])),
}


@pytest.mark.parametrize("entry", list(BUDGETS))
def test_over_budget_refused_before_any_evaluation(entry, monkeypatch):
    budget, call = BUDGETS[entry]
    # train's steps and evaluate_fit's forward passes run the network's layer loop
    monkeypatch.setattr(ResNet, "_layers", _started)
    f = Objective(_started, 2)
    with pytest.raises(ValueError, match=rf"\bexceed the budget of {budget} [a-z ]+; lower \w"):
        call(f, budget + 100)
    with pytest.raises(_Started):  # at the budget the work starts
        call(f, budget)


def test_one_row_at_the_row_pass_budget_refused_before_any_step(monkeypatch):
    # 1 row x TRAIN_BUDGET epochs stays within the row passes, yet would take 10^7 steps
    # of about a millisecond each; the first step raises, so a missing check fails fast
    monkeypatch.setattr(ResNet, "_layers", _started)
    with pytest.raises(ValueError, match=rf"exceed the budget of {STEP_BUDGET} steps"):
        train(NET, ONE_ROW, TrainConfig(epochs=TRAIN_BUDGET))
