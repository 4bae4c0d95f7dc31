"""Hypercube search domains and the cyclic reflection map.

The reflection folds any real vector back into the box by mirroring at the
faces with period twice the side length per coordinate, so that Gaussian
proposals landing outside the box are exchanged for points inside it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoxDomain:
    """Product of closed intervals ``[l_j, u_j]``, one per input dimension.

    ``lower``, ``upper``, ``widths`` and ``period`` (twice the widths, the
    reflection's period) are read-only (d,) arrays.
    """

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if len(bounds) == 0:
            raise ValueError("domain must have at least one dimension")
        for j, (lo, hi) in enumerate(bounds):
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"dimension {j}: bounds must be finite, got [{lo}, {hi}]")
            if not lo < hi:
                raise ValueError(f"dimension {j}: need lower < upper, got [{lo}, {hi}]")
            if not np.isfinite(2.0 * (hi - lo)):  # the reflection's period
                raise ValueError(f"dimension {j}: [{lo}, {hi}] is too wide, its width overflows")
        object.__setattr__(self, "bounds", bounds)
        lower, upper = (np.array(side) for side in zip(*bounds))
        widths = upper - lower
        for name, a in (("lower", lower), ("upper", upper), ("widths", widths),
                        ("period", 2.0 * widths)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def _check_dim(self, p: np.ndarray) -> None:
        if p.shape[-1] != self.dim:
            raise ValueError(f"point has dimension {p.shape[-1]}, domain has {self.dim}")

    def contains(self, p) -> bool | np.ndarray:
        """Membership test; accepts a single point or an (..., d) batch."""
        p = np.asarray(p, dtype=float)
        self._check_dim(p)
        inside = np.all((p >= self.lower) & (p <= self.upper), axis=-1)
        return bool(inside) if inside.ndim == 0 else inside

    def reflect(self, y) -> np.ndarray:
        """Fold an arbitrary real vector into the box, component-wise, into a new array.

        Components already inside are returned unchanged. The map is the
        period-2(u-l) triangle wave per coordinate: the fractional offset
        ``t = (y - l) mod 2(u - l)`` maps to ``l + t`` when ``t <= u - l``
        and to ``u - (t - (u - l))`` otherwise.
        """
        y = np.asarray(y, dtype=float)
        self._check_dim(y)
        folded = self._fold(y)
        return y.copy() if folded is y else folded

    def _fold(self, y: np.ndarray) -> np.ndarray:
        """``reflect`` of a float array of the box's dimension, unchecked; ``y`` itself
        when every component is inside, else a new array."""
        lower, upper = self.lower, self.upper
        inside = (y >= lower) & (y <= upper)
        if np.count_nonzero(inside) == inside.size:  # cheaper than inside.all() on small arrays
            return y
        t = np.mod(y - lower, self.period)
        folded = lower + np.where(t <= self.widths, t, self.period - t)
        # rounding at the period seam must never produce a point outside the box; the
        # method runs np.clip's ufunc without np.clip's dispatch (np.minimum(np.maximum())
        # differs from it on a tie of zeros of opposite sign)
        return np.where(inside, y, folded.clip(lower, upper))

    def sample_uniform(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        size = self.dim if n is None else (n, self.dim)
        return rng.uniform(self.lower, self.upper, size=size)

    @classmethod
    def cube(cls, lo: float, hi: float, dim: int) -> "BoxDomain":
        return cls(tuple((lo, hi) for _ in range(dim)))
