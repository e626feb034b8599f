"""Stains, plane groups, and training policies.

Training a sample quantizes it into one stain: its level on every input
axis and its output level.  The stains of a group share one plane per input
variable, a dense grid over (input level, output level) holding the
cellwise max of pyramid tents centred on the stains; max keeps every cell
in [0,1] and makes a plane independent of stain order.  A model is its
stain list.  ``Model.plane`` and ``Model.input_stacks`` derive planes on
demand with ``diffuse``; inference reads the stains directly.

Two training policies are provided: ``train_full`` allocates one group per
sample, and ``train_error_gated`` allocates a group only when the current
model's prediction misses the sample by more than a tolerance.  A third,
memory-reduced layout packs several samples into one group via
``merge_into_group`` as long as their output levels differ.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import QuantizationSpec, StainRadii, quantize
from .errors import EqualOutputConflict, NoCoverageError


@dataclass
class Sample:
    """One training pattern: raw input values and the raw output value."""

    inputs: tuple[float, ...]
    output: float

    def __post_init__(self):
        self.inputs = tuple(float(v) for v in self.inputs)
        self.output = float(self.output)


@dataclass
class IdsPlane:
    """Confidence grid for one input variable, shape (input levels, output levels)."""

    input_spec: QuantizationSpec
    output_spec: QuantizationSpec
    grid: np.ndarray

    def __post_init__(self):
        expected = (self.input_spec.levels, self.output_spec.levels)
        if self.grid.shape != expected:
            raise ValueError(f"grid shape {self.grid.shape} does not match specs {expected}")


def empty_plane(input_spec: QuantizationSpec, output_spec: QuantizationSpec) -> IdsPlane:
    return IdsPlane(input_spec, output_spec, np.zeros((input_spec.levels, output_spec.levels)))


@dataclass(slots=True)
class IdsGroup:
    """Stains sharing one plane per input variable, each a pair (input levels,
    output level).  Output levels are distinct within a group, since two
    apices on one output row could not be told apart at inference time.
    """

    stains: list[tuple[tuple[int, ...], int]] = field(default_factory=list)

    def __post_init__(self):
        if len({c_out for _, c_out in self.stains}) != len(self.stains):
            raise ValueError(f"output levels repeat within one group: {self.stains}")


@dataclass
class Model:
    groups: list[IdsGroup]
    input_specs: list[QuantizationSpec]
    output_spec: QuantizationSpec
    radii: StainRadii

    def __post_init__(self):
        for group in self.groups:
            self._check_group(group)

    @property
    def n_inputs(self) -> int:
        return len(self.input_specs)

    def _check_group(self, group: IdsGroup) -> None:
        axes = [spec.levels for spec in [*self.input_specs, self.output_spec]]
        for c_in, c_out in group.stains:
            stain = (*c_in, c_out)
            if len(stain) != len(axes) or not all(1 <= c <= n for c, n in zip(stain, axes)):
                raise ValueError(f"stain levels {stain} lie outside the model's {axes} level axes")

    def append_group(self, group: IdsGroup) -> None:
        self._check_group(group)
        self.groups.append(group)

    def stains(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every stain as arrays, group by group: input levels (S, n_inputs),
        output levels (S,) and the number of stains in each group (n_groups,)."""
        c_in = [c for g in self.groups for levels, _ in g.stains for c in levels]
        c_out = [c for g in self.groups for _, c in g.stains]
        return (np.array(c_in, dtype=np.int64).reshape(len(c_out), self.n_inputs),
                np.array(c_out, dtype=np.int64),
                np.array([len(g.stains) for g in self.groups], dtype=np.int64))

    def plane(self, g: int, j: int) -> IdsPlane:
        """Plane ``j`` of group ``g`` (0-based), derived by diffusing the group's stains."""
        plane = empty_plane(self.input_specs[j], self.output_spec)
        for c_in, c_out in self.groups[g].stains:
            diffuse(plane, c_in[j], c_out, self.radii)
        return plane

    def input_stacks(self) -> list[np.ndarray]:
        """Per input variable, every group's plane stacked as (n_groups, n_in,
        n_out); derived on every call and not kept."""
        n_g, n_y = len(self.groups), self.output_spec.levels
        return [np.array([self.plane(g, j).grid for g in range(n_g)]).reshape(n_g, spec.levels, n_y)
                for j, spec in enumerate(self.input_specs)]


def diffuse(plane: IdsPlane, center_in: int, center_out: int, radii: StainRadii) -> IdsPlane:
    """Write one pyramid stain onto the plane, aggregating by cellwise max.

    Centers are 1-based level indices and must lie on the plane.  Only the
    stain's support window is touched.  Returns the same plane object.
    """
    n_in = plane.input_spec.levels
    n_out = plane.output_spec.levels
    if not (1 <= center_in <= n_in and 1 <= center_out <= n_out):
        raise ValueError(f"stain center ({center_in}, {center_out}) outside plane {n_in}x{n_out}")
    i_lo = max(1, int(math.ceil(center_in - radii.radius_in)))
    i_hi = min(n_in, int(math.floor(center_in + radii.radius_in)))
    j_lo = max(1, int(math.ceil(center_out - radii.radius_out)))
    j_hi = min(n_out, int(math.floor(center_out + radii.radius_out)))
    ramp_in = 1.0 - np.abs(np.arange(i_lo, i_hi + 1) - center_in) / radii.radius_in
    ramp_out = 1.0 - np.abs(np.arange(j_lo, j_hi + 1) - center_out) / radii.radius_out
    stain = np.maximum(0.0, np.minimum(ramp_in[:, None], ramp_out[None, :]))
    window = plane.grid[i_lo - 1 : i_hi, j_lo - 1 : j_hi]
    np.maximum(window, stain, out=window)
    return plane


def _check_samples(samples: list[Sample], input_specs: list[QuantizationSpec]) -> None:
    if not samples:
        raise ValueError("empty sample list")
    n = len(input_specs)
    for k, s in enumerate(samples):
        if len(s.inputs) != n:
            raise ValueError(f"sample {k} has {len(s.inputs)} inputs, expected {n}")


def _stain(sample: Sample, input_specs: list[QuantizationSpec],
           output_spec: QuantizationSpec) -> tuple[tuple[int, ...], int]:
    """A sample's stain: its input levels and its output level."""
    return (tuple(quantize(spec, x) for spec, x in zip(input_specs, sample.inputs)),
            quantize(output_spec, sample.output))


def train_full(
    samples: list[Sample],
    input_specs: list[QuantizationSpec],
    output_spec: QuantizationSpec,
    radii: StainRadii,
) -> Model:
    """One group per sample; the plain policy with no memory reduction."""
    _check_samples(samples, input_specs)
    model = Model([], list(input_specs), output_spec, radii)
    for s in samples:
        model.append_group(IdsGroup([_stain(s, model.input_specs, output_spec)]))
    return model


def train_error_gated(
    samples: list[Sample],
    input_specs: list[QuantizationSpec],
    output_spec: QuantizationSpec,
    radii: StainRadii,
    tolerance: float,
) -> Model:
    """Single pass over the samples; allocate a group only on prediction error.

    A sample is skipped when the model built so far already predicts its
    output within ``tolerance`` (absolute, raw output units).  No coverage at
    the sample's inputs counts as an error.  Group count never exceeds the
    sample count, and equals it when tolerance is negative.
    """
    from .inference import infer

    _check_samples(samples, input_specs)
    model = Model([], list(input_specs), output_spec, radii)
    for s in samples:
        needs_group = True
        if model.groups:
            try:
                needs_group = abs(infer(model, s.inputs) - s.output) > tolerance
            except NoCoverageError:
                needs_group = True
        if needs_group:
            model.append_group(IdsGroup([_stain(s, model.input_specs, output_spec)]))
    return model


def train_merged(
    samples: list[Sample],
    input_specs: list[QuantizationSpec],
    output_spec: QuantizationSpec,
    radii: StainRadii,
) -> Model:
    """Memory-reduced policy: pack samples into shared groups by first fit.

    Each sample goes into the first group that does not already store its
    output level; only when every group refuses is a new group allocated.
    Under that rule the k-th sample at an output level always lands in
    group k, because groups 0..k-1 already hold the level, so the group is
    found by counting instead of by trying.  Worst case (all outputs at one
    level) degenerates to one group per sample, best case needs only as many
    groups as the most popular output level has samples.
    """
    _check_samples(samples, input_specs)
    model = Model([], list(input_specs), output_spec, radii)
    seen: Counter[int] = Counter()
    for s in samples:
        level = quantize(output_spec, s.output)
        k = seen[level]
        seen[level] += 1
        if k == len(model.groups):
            model.append_group(IdsGroup())
        merge_into_group(model.groups[k], s, model.input_specs, output_spec)
    return model


def merge_into_group(
    group: IdsGroup,
    sample: Sample,
    input_specs: list[QuantizationSpec],
    output_spec: QuantizationSpec,
) -> IdsGroup:
    """Add a sample's stain to an existing group, provided its output level is new.

    Raises EqualOutputConflict when the sample's quantized output level is
    already stored, since two apices on one output row cannot be told apart
    at inference time.  An empty group accepts any sample.
    """
    if len(sample.inputs) != len(input_specs):
        raise ValueError(f"sample has {len(sample.inputs)} inputs, expected {len(input_specs)}")
    stain = _stain(sample, input_specs, output_spec)
    if stain[1] in (c_out for _, c_out in group.stains):
        raise EqualOutputConflict(
            f"output level {stain[1]} already stored in this group; "
            f"samples with equal output levels need separate groups"
        )
    group.stains.append(stain)
    return group
