"""Output range estimation for black-box functions and trained ResNets via
simulated annealing with reflective boundary conditions."""

from .anneal import (
    AnnealConfig,
    AnnealResult,
    Trace,
    acceptance_probability,
    fixed_temperature_chain,
    gibbs_density,
    run,
)
from .domain import BoxDomain
from .objectives import (
    Dataset,
    Objective,
    ackley,
    builtin,
    drop_wave,
    multi_minima,
    sample_dataset,
)
from .range_analysis import OracleResult, RangeResult, estimate_range, grid_oracle
from .resnet import (
    Layer,
    ResNet,
    WeightFormatError,
    architecture_ackley,
    architecture_dropwave,
    architecture_multimin,
    build_resnet,
)
from .trainer import FitReport, TrainConfig, evaluate_fit, gradient, train

__all__ = [
    "AnnealConfig",
    "AnnealResult",
    "BoxDomain",
    "Dataset",
    "FitReport",
    "Layer",
    "Objective",
    "OracleResult",
    "RangeResult",
    "ResNet",
    "Trace",
    "TrainConfig",
    "WeightFormatError",
    "acceptance_probability",
    "ackley",
    "architecture_ackley",
    "architecture_dropwave",
    "architecture_multimin",
    "build_resnet",
    "builtin",
    "drop_wave",
    "estimate_range",
    "evaluate_fit",
    "fixed_temperature_chain",
    "gibbs_density",
    "gradient",
    "grid_oracle",
    "multi_minima",
    "run",
    "sample_dataset",
    "train",
]

__version__ = "0.1.0"
