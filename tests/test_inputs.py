"""Every library entry point checks its own arguments before any work."""
import math
import re

import numpy as np
import pytest

from rangesa import (
    AnnealConfig,
    BoxDomain,
    Objective,
    TrainConfig,
    build_resnet,
    compare_modes,
    estimate_range,
    evaluate_fit,
    grid_oracle,
    sample_dataset,
)

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
    # a classical chain may leave the box, and its values would not be attained on it
    "estimate_range-classical": ("mode", lambda f: estimate_range(
        f, BOX, AnnealConfig(mode="classical"), n_seeds=1)),
    "compare_modes-wide-box": ("proposal_variance",
                               lambda f: compare_modes(f, WIDE, AnnealConfig(), n_seeds=1)),
    "TrainConfig-fractional-epochs": ("epochs", lambda f: TrainConfig(epochs=2.5)),
    "TrainConfig-bool-epochs": ("epochs", lambda f: TrainConfig(epochs=True)),
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
}


@pytest.mark.parametrize("probe", list(PROBES))
def test_bad_argument_refused_before_any_evaluation(probe):
    name, call = PROBES[probe]
    calls = []
    f = Objective(lambda X: calls.append(len(X)) or np.zeros(len(X)), 2)
    with pytest.raises(ValueError, match=rf"\b{re.escape(name)}\b"):
        call(f)
    assert calls == []
