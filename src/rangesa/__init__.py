"""Output range estimation for black-box functions and trained ResNets via
simulated annealing with reflective boundary conditions."""

from .anneal import (
    AnnealConfig,
    AnnealResult,
    LevelSummary,
    acceptance_probability,
    run_many,
)
from .domain import BoxDomain
from .objectives import (
    Dataset,
    Objective,
    ackley,
    drop_wave,
    multi_minima,
    sample_dataset,
)
from .presets import builtin
from .range_analysis import OracleResult, RangeResult, compare_modes, estimate_range, grid_oracle
from .resnet import Layer, ResNet, WeightFormatError, build_resnet
from .trainer import FitReport, TrainConfig, evaluate_fit, train

__all__ = [
    "AnnealConfig",
    "AnnealResult",
    "BoxDomain",
    "Dataset",
    "FitReport",
    "Layer",
    "LevelSummary",
    "Objective",
    "OracleResult",
    "RangeResult",
    "ResNet",
    "TrainConfig",
    "WeightFormatError",
    "acceptance_probability",
    "ackley",
    "build_resnet",
    "builtin",
    "compare_modes",
    "drop_wave",
    "estimate_range",
    "evaluate_fit",
    "grid_oracle",
    "multi_minima",
    "run_many",
    "sample_dataset",
    "train",
]

__version__ = "0.1.0"
