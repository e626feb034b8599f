"""Level quantization and the pyramid stain membership function.

Every variable is mapped onto a uniform grid of ``levels`` discrete values
between ``min`` and ``max``.  Stains diffused onto a plane are pyramid-shaped
tents whose footprint is measured in level units, so the same radius means
the same number of grid cells regardless of the raw units of the variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantizationSpec:
    """Uniform grid over ``[min, max]`` with 1-based level indices."""

    min: float
    max: float
    levels: int

    def __post_init__(self):
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError(f"range bounds must be finite, got [{self.min}, {self.max}]")
        if not self.max > self.min:
            raise ValueError(f"max must exceed min, got [{self.min}, {self.max}]")
        if self.levels < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")

    @property
    def step(self) -> float:
        return (self.max - self.min) / (self.levels - 1)


@dataclass(frozen=True)
class StainRadii:
    """Stain footprint half-widths, in level units, along each plane axis."""

    radius_in: float
    radius_out: float

    def __post_init__(self):
        if not (self.radius_in > 0 and self.radius_out > 0):
            raise ValueError(f"radii must be positive, got {self.radius_in}, {self.radius_out}")


def quantize(spec: QuantizationSpec, x: float) -> int:
    """Nearest level index in 1..n for ``x``, ties to the even level.  Values
    out of range clamp to the edge level, -inf and +inf too; NaN raises ValueError."""
    t = (x - spec.min) / (spec.max - spec.min) * (spec.levels - 1)
    if t != t:
        raise ValueError("NaN has no quantization level")
    return int(round(min(max(t, 0.0), spec.levels - 1))) + 1


def quantize_many(spec: QuantizationSpec, xs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`quantize`; returns an int64 array of level indices."""
    t = (np.asarray(xs, dtype=float) - spec.min) / (spec.max - spec.min) * (spec.levels - 1)
    if np.isnan(t).any():
        raise ValueError("NaN has no quantization level")
    return np.clip(np.rint(t), 0, spec.levels - 1).astype(np.int64) + 1


def dequantize(spec: QuantizationSpec, k: float) -> float:
    """Raw value of level ``k``.

    ``k`` is normally an integer in 1..n; fractional indices are accepted
    because defuzzification produces a continuous level coordinate.
    """
    if not 1 <= k <= spec.levels:
        raise ValueError(f"level {k} outside 1..{spec.levels}")
    return spec.min + (k - 1) * (spec.max - spec.min) / (spec.levels - 1)


def level_values(spec: QuantizationSpec) -> np.ndarray:
    """Raw values of all levels 1..n as a float array.

    Evaluates the same expression as :func:`dequantize` term by term so the
    two agree bitwise on every level.
    """
    return spec.min + np.arange(spec.levels, dtype=float) * (spec.max - spec.min) / (spec.levels - 1)


def pyramid_membership(dx: float, dy: float, radii: StainRadii) -> float:
    """Confidence of a pyramid stain at offset (dx, dy) from its apex.

    Offsets are in level units.  The tent is the minimum of two 1-D ramps,
    clipped at zero, so the support is the open rectangle
    |dx| < radius_in, |dy| < radius_out and the apex value is exactly 1.
    """
    return max(0.0, min(1.0 - abs(dx) / radii.radius_in, 1.0 - abs(dy) / radii.radius_out))
