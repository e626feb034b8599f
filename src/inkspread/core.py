"""Level quantization, and the radii of the pyramid stains.

Every variable is mapped onto a uniform grid of ``levels`` discrete values
between ``min`` and ``max``.  Stains diffused onto a plane are pyramid-shaped
tents whose footprint is measured in level units, so the same radius means
the same number of grid cells regardless of the raw units of the variable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# levels on a model's output axis, and on every axis of a model file; this
# bounds the kernel's output-axis tables (at most MAX_LEVELS ** 2 slots)
MAX_LEVELS = 4096


def _check_integer(value, name: str) -> None:
    """Refuse a bool or a non-integral ``value``, naming it; numpy integers pass."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _index(i, n: int, name: str) -> int:
    """Integer ``i`` as an index into ``n`` items, a negative one counting from the end."""
    _check_integer(i, name)
    return range(n)[i]


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
        _check_integer(self.levels, "levels")
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
    # Python floats overflow to inf, and inf / inf gives NaN, without a
    # warning; so do these, and the NaN raises below as it does there
    with np.errstate(over="ignore", invalid="ignore"):
        t = (np.asarray(xs, dtype=float) - spec.min) / (spec.max - spec.min) * (spec.levels - 1)
    if np.isnan(t).any():
        raise ValueError("NaN has no quantization level")
    return np.clip(np.rint(t), 0, spec.levels - 1).astype(np.int64) + 1


def dequantize(spec: QuantizationSpec, k):
    """Raw value of level ``k``, or of each level in an array ``k``.

    ``k`` is normally an integer in 1..n; fractional indices are accepted
    because defuzzification produces a continuous level coordinate.  In an
    array, a NaN level gives NaN.
    """
    ks = np.asarray(k, dtype=float)
    if ((ks < 1) | (ks > spec.levels)).any() or (ks.ndim == 0 and ks != ks):
        raise ValueError(f"level {k} outside 1..{spec.levels}")
    values = spec.min + (ks - 1) * (spec.max - spec.min) / (spec.levels - 1)
    return float(values) if ks.ndim == 0 else values


def level_values(spec: QuantizationSpec) -> np.ndarray:
    """Raw values of all levels 1..n as a float array.

    Evaluates the same expression as :func:`dequantize` term by term so the
    two agree bitwise on every level.
    """
    return spec.min + np.arange(spec.levels, dtype=float) * (spec.max - spec.min) / (spec.levels - 1)

