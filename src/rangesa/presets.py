"""Experiment presets bundling objective, domain, architecture and protocol."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import BoxDomain
from .objectives import Objective, _real, ackley, drop_wave, multi_minima
from .resnet import ResNet, build_resnet


@dataclass(frozen=True)
class Preset:
    objective: Objective
    train_domain: BoxDomain
    eval_domain: BoxDomain
    eval_n: int
    default_m: int
    hidden: tuple[int, ...]  # hidden widths at width scale 1

    def architecture(self, seed: int = 0, width_scale: float = 1.0) -> ResNet:
        """The preset's ResNet, each hidden width scaled and rounded (at least 1)."""
        if not 0 < _real("width_scale", width_scale) < math.inf:
            raise ValueError(f"width_scale must be positive and finite, got {width_scale}")
        scaled = [max(1, int(round(h * width_scale))) for h in self.hidden]
        return build_resnet([self.objective.dim, *scaled, 1], seed=seed)


PRESETS = {
    "ackley": Preset(
        objective=Objective(ackley, 2),
        train_domain=BoxDomain.cube(-4.0, 4.0, 2),
        eval_domain=BoxDomain.cube(-5.0, 5.0, 2),
        eval_n=1000,
        default_m=2000,
        hidden=(128, 256, 256, 256, 256, 128),  # four 256-wide residual blocks
    ),
    "dropwave": Preset(
        objective=Objective(drop_wave, 2),
        train_domain=BoxDomain.cube(-5.12, 5.12, 2),
        eval_domain=BoxDomain.cube(-5.12, 5.12, 2),
        eval_n=1500,
        default_m=2000,
        hidden=(128, 256, 256, 512, 512, 512, 256, 128),  # deeper, 512-wide middle blocks
    ),
    "multimin": Preset(
        objective=Objective(multi_minima, 3),
        train_domain=BoxDomain.cube(-3.0, 3.0, 3),
        eval_domain=BoxDomain.cube(-3.0, 3.0, 3),
        eval_n=1500,
        default_m=4000,
        hidden=(128, 256, 256, 512, 512, 512, 256, 128),  # the drop-wave stack, 3-d input
    ),
}


def builtin(name: str) -> Objective:
    """The objective of the preset of that name."""
    if name not in PRESETS:
        raise ValueError(f"unknown objective {name!r}; builtins are: {', '.join(sorted(PRESETS))}")
    return PRESETS[name].objective


def preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; presets are: {', '.join(sorted(PRESETS))}"
        ) from None
