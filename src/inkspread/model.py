"""Stains, plane groups, and training policies.

Training a sample quantizes it into one stain: its level on every input
axis and its output level.  The stains of a group share one plane per input
variable, a dense grid over (input level, output level) holding the
cellwise max of pyramid tents centred on the stains; max keeps every cell
in [0,1] and makes a plane independent of stain order.  A model holds its
stains as append-only columns: input levels (S, J), output levels (S,) and
one offset per group.  Next to them it holds the query-free half of the
inference kernel, its plan, built once with the model and extended as
groups are appended, so no query rebuilds it.  ``Model.groups`` reads the
columns back as ``IdsGroup`` snapshots; ``Model.plane_codes`` derives the
planes of a range of groups on demand, as codes into the few values a tent
takes, ``Model.planes``, ``Model.plane`` and ``Model.input_stacks`` read
their values from it, and ``diffuse`` writes the same tent block onto one
plane.

Two training policies are provided: ``train_full`` allocates one group per
sample, and ``train_error_gated`` allocates a group only when the current
model's prediction misses the sample by more than a tolerance.  A third,
memory-reduced layout packs several samples into one group via
``merge_into_group`` as long as their output levels differ.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import MAX_LEVELS, QuantizationSpec, StainRadii, _index, quantize, quantize_many
from .errors import EqualOutputConflict, NoCoverageError
from .inference import _extend_plan, _plan, infer


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


class Groups(Sequence):
    """A model's groups, read-only: item ``g`` is a fresh ``IdsGroup`` of
    group g's stains, so changing it leaves the model as it was."""

    __slots__ = ("_model",)

    def __init__(self, model: "Model"):
        self._model = model

    def __len__(self) -> int:
        return len(self._model._offsets) - 1

    def __getitem__(self, g: int) -> IdsGroup:
        lo, hi = self._model._span(g)
        return IdsGroup([(tuple(levels), c) for levels, c in
                         zip(self._model._c_in[lo:hi].tolist(), self._model._c_out[lo:hi].tolist())])

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Model:
    """Stains held as append-only columns, group by group, and the kernel
    plan built from them once and extended as groups are appended.

    The columns are input levels (S, n_inputs), output levels (S,) and
    offsets (n_groups + 1,): group g holds stains ``offsets[g]:offsets[g +
    1]``.  ``groups`` reads them back as ``IdsGroup`` snapshots.
    """

    def __init__(self, groups: Iterable[IdsGroup], input_specs: list[QuantizationSpec],
                 output_spec: QuantizationSpec, radii: StainRadii):
        groups = list(groups)
        self._input_specs, self._output_spec, self._radii = tuple(input_specs), output_spec, radii
        c_in, c_out = self._columns([stain for g in groups for stain in g.stains])
        self._hold(c_in, c_out, np.cumsum([0] + [len(g.stains) for g in groups]))

    @classmethod
    def from_columns(cls, c_in: np.ndarray, c_out: np.ndarray, offsets: np.ndarray,
                     input_specs: list[QuantizationSpec], output_spec: QuantizationSpec,
                     radii: StainRadii) -> "Model":
        """A model straight from its stain columns (see the class docstring)."""
        model = cls.__new__(cls)
        model._input_specs, model._output_spec, model._radii = tuple(input_specs), output_spec, radii
        model._hold(c_in, c_out, offsets)
        return model

    def _hold(self, c_in, c_out, offsets) -> None:
        """Check the stain columns, then hold read-only copies of them and
        build their plan."""
        if self._output_spec.levels > MAX_LEVELS:
            raise ValueError(f"an output axis of {self._output_spec.levels} levels exceeds "
                             f"the {MAX_LEVELS} a model holds")
        c_in, c_out, offsets = (_frozen(np.array(a, dtype=np.int64)) for a in (c_in, c_out, offsets))
        self._check(c_in, c_out, offsets)
        self._c_in, self._c_out, self._offsets = c_in, c_out, offsets
        self.plan = _plan(c_in, c_out, offsets, self._output_spec.levels, self._radii.radius_out)

    @property
    def input_specs(self) -> list[QuantizationSpec]:
        return list(self._input_specs)

    @property
    def output_spec(self) -> QuantizationSpec:
        return self._output_spec

    @property
    def radii(self) -> StainRadii:
        return self._radii

    @property
    def n_inputs(self) -> int:
        return len(self._input_specs)

    @property
    def groups(self) -> Groups:
        return Groups(self)

    def __eq__(self, other):
        if not isinstance(other, Model):
            return NotImplemented
        return (self._input_specs == other._input_specs and self._output_spec == other._output_spec
                and self._radii == other._radii
                and all(np.array_equal(a, b) for a, b in zip(self.stains(), other.stains())))

    def __repr__(self) -> str:
        return (f"Model({len(self.groups)} groups, {len(self._c_out)} stains, "
                f"input_specs={self.input_specs}, output_spec={self._output_spec}, radii={self._radii})")

    def _columns(self, stains) -> tuple[np.ndarray, np.ndarray]:
        for c_in, c_out in stains:
            if len(c_in) != self.n_inputs:
                raise ValueError(f"stain levels {(*c_in, c_out)} lie outside the model's "
                                 f"{self._axes()} level axes")
        return (np.array([c_in for c_in, _ in stains], dtype=np.int64).reshape(len(stains), self.n_inputs),
                np.array([c_out for _, c_out in stains], dtype=np.int64))

    def _axes(self) -> list[int]:
        return [spec.levels for spec in [*self._input_specs, self._output_spec]]

    def _check(self, c_in: np.ndarray, c_out: np.ndarray, offsets: np.ndarray) -> None:
        """Columns that fit together, levels on their axes and output levels
        distinct within each group."""
        sizes = offsets[1:] - offsets[:-1]
        if (c_in.shape != (len(c_out), self.n_inputs) or c_out.ndim != 1 or offsets.ndim != 1
                or len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != len(c_out) or (sizes < 0).any()):
            raise ValueError(f"stain columns of shapes {c_in.shape}, {c_out.shape} and offsets "
                             f"{offsets.shape} do not fit a model of {self.n_inputs} inputs")
        axes = self._axes()
        off = ((c_in < 1) | (c_in > axes[:-1])).any(axis=1) | (c_out < 1) | (c_out > axes[-1])
        if off.any():
            k = off.argmax()
            raise ValueError(f"stain levels {(*c_in[k].tolist(), int(c_out[k]))} lie outside the model's "
                             f"{axes} level axes")
        group_level = np.sort(np.repeat(np.arange(len(sizes)), sizes) * (axes[-1] + 1) + c_out)
        repeat = np.flatnonzero(group_level[1:] == group_level[:-1])
        if len(repeat):
            g, level = divmod(int(group_level[repeat[0]]), axes[-1] + 1)
            raise ValueError(f"output levels repeat within one group: group {g} holds level {level} twice")

    def append_group(self, group: IdsGroup) -> None:
        """Add one group: its stains join the columns and its runs the plan.

        A group holds at most one stain per output level, so it is checked
        stain by stain, which costs less than ``_check`` on a few stains.
        """
        axes = self._axes()
        for c_in, c_out in group.stains:
            levels = (*c_in, c_out)
            if len(levels) != len(axes) or not all(1 <= v <= n for v, n in zip(levels, axes)):
                raise ValueError(f"stain levels {levels} lie outside the model's {axes} level axes")
        if len({c_out for _, c_out in group.stains}) < len(group.stains):
            raise ValueError(f"output levels repeat within one group: {group.stains}")
        c_in, c_out = self._columns(group.stains)
        self.plan = _extend_plan(self.plan, c_in, c_out, np.array([0, len(c_out)]))
        self._c_in = _frozen(np.concatenate([self._c_in, c_in]))
        self._c_out = _frozen(np.concatenate([self._c_out, c_out]))
        self._offsets = _frozen(np.append(self._offsets, len(self._c_out)))

    def stains(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stain columns, as read-only views: input levels (S, n_inputs),
        output levels (S,) and group offsets (n_groups + 1,)."""
        return self._c_in[:], self._c_out[:], self._offsets[:]

    def _span(self, g: int) -> tuple[int, int]:
        """Where group ``g``'s stains begin and end; a negative ``g`` counts from the end."""
        g = _index(g, len(self._offsets) - 1, "group g")
        return self._offsets[g], self._offsets[g + 1]

    def tent_values(self, j: int) -> np.ndarray:
        """The distinct values plane ``j``'s cells can hold, sorted, 0 first:
        ``plane_codes`` indexes them."""
        return _tent_codes(self._radii, self._input_specs[_index(j, self.n_inputs, "input j")].levels,
                           self._output_spec.levels)[0]

    def plane_codes(self, j: int, g0: int = 0, g1: int | None = None) -> np.ndarray:
        """Plane ``j`` (0-based) of groups ``g0:g1`` as codes into
        ``tent_values(j)``, shaped (groups, output levels, input levels), as
        a crossbar holds a plane, and derived from the groups' stains.

        Stain levels are integers, so every stain is the block ``_tent``
        gives, shifted to its centre, and that block takes a handful of
        values.  Rank by rank (the k-th stain of every group that has one)
        the block's codes are maxed into the planes with one fancy-indexed
        write, and no two stains of one rank share a plane.  The values are
        sorted, so the max of codes is the code of the max.  Block cells off
        a plane land in a spare last row and column, which the returned view
        leaves out.
        """
        n_in, n_out = self._input_specs[_index(j, self.n_inputs, "input j")].levels, self._output_spec.levels
        span = range(len(self._offsets) - 1)[g0:g1]
        offsets = self._offsets[span.start:span.stop + 1]
        sizes = np.diff(offsets)
        block = _tent_codes(self._radii, n_in, n_out)[1].T
        out = np.zeros((len(sizes), n_out + 1, n_in + 1), dtype=block.dtype)
        for k in range(sizes.max(initial=0)):
            g = np.flatnonzero(sizes > k)
            s = offsets[g] + k
            rows = _spread(self._c_out[s] - 1, block.shape[0] // 2, n_out)
            cols = _spread(self._c_in[s, j] - 1, block.shape[1] // 2, n_in)
            at = (g[:, None, None], rows[:, :, None], cols[:, None, :])
            # every plane is still code 0, value 0, where a group's first stain lands
            out[at] = block if k == 0 else np.maximum(out[at], block)
        return out[:, :n_out, :n_in]

    def planes(self, j: int, g0: int = 0, g1: int | None = None) -> np.ndarray:
        """Plane ``j`` (0-based) of groups ``g0:g1``, shaped (groups, input
        levels, output levels): the values of ``plane_codes``, returned as a
        view that transposes them."""
        return self.tent_values(j)[self.plane_codes(j, g0, g1)].transpose(0, 2, 1)

    def plane(self, g: int, j: int) -> IdsPlane:
        """Plane ``j`` of group ``g`` (0-based; a negative one counts from the end)."""
        g, j = _index(g, len(self._offsets) - 1, "group g"), _index(j, self.n_inputs, "input j")
        return IdsPlane(self._input_specs[j], self._output_spec, self.planes(j, g, g + 1)[0].copy())

    def input_stacks(self) -> list[np.ndarray]:
        """Per input variable, every group's plane stacked as (n_groups, n_in,
        n_out); derived on every call and not kept."""
        return [self.planes(j) for j in range(self.n_inputs)]


def _tent(radii: StainRadii, n_in: int, n_out: int) -> np.ndarray:
    """The pyramid stain on an n_in x n_out plane, as a block over the level
    offsets d = -h..h from its centre on each axis:
    ``max(0, min(1 - |d_in| / radius_in, 1 - |d_out| / radius_out))``."""
    return np.maximum(0.0, np.minimum(_ramp(radii.radius_in, n_in)[:, None],
                                      _ramp(radii.radius_out, n_out)[None, :]))


@functools.lru_cache(maxsize=16)
def _tent_codes(radii: StainRadii, n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """``_tent``'s block as codes into its distinct values, with 0 first
    even where the block never reaches it: (values, block codes), both
    read-only, since every slab of a model's planes asks for them.  The
    codes are the narrowest unsigned integers that hold them."""
    block = _tent(radii, n_in, n_out)
    values, codes = np.unique(np.append(0.0, block), return_inverse=True)
    return _frozen(values), _frozen(codes[1:].reshape(block.shape).astype(np.min_scalar_type(len(values) - 1)))


def _ramp(radius: float, n: int) -> np.ndarray:
    """``1 - |d| / radius`` for d = -h..h, where h is the radius rounded down
    and at most n - 1, the farthest a cell of an n-level axis lies from a
    centre on it."""
    h = int(min(radius, n - 1))
    return 1.0 - np.abs(np.arange(-h, h + 1)) / radius


def _spread(centers: np.ndarray, h: int, n: int) -> np.ndarray:
    """The cells -h..h around each 0-based centre on an n-level axis, shaped
    (centres, 2h + 1); a cell off the axis is the spare cell n."""
    at = centers[:, None] + np.arange(-h, h + 1)
    return np.where((at < 0) | (at >= n), n, at)


def diffuse(plane: IdsPlane, center_in: int, center_out: int, radii: StainRadii) -> IdsPlane:
    """Write one pyramid stain onto the plane, aggregating by cellwise max.

    Centers are 1-based level indices and must be levels of the plane.
    Only the stain's support window is touched, with the block
    ``Model.planes`` writes.  Returns the same plane object.
    """
    n_in = plane.input_spec.levels
    n_out = plane.output_spec.levels
    if not (1 <= center_in <= n_in and 1 <= center_out <= n_out) or center_in % 1 or center_out % 1:
        raise ValueError(f"stain center ({center_in}, {center_out}) is not a level of plane {n_in}x{n_out}")
    center_in, center_out = int(center_in), int(center_out)
    block = _tent(radii, n_in, n_out)
    h_in, h_out = block.shape[0] // 2, block.shape[1] // 2
    i_lo, i_hi = max(1, center_in - h_in), min(n_in, center_in + h_in)
    j_lo, j_hi = max(1, center_out - h_out), min(n_out, center_out + h_out)
    stain = block[i_lo - center_in + h_in:i_hi - center_in + h_in + 1,
                  j_lo - center_out + h_out:j_hi - center_out + h_out + 1]
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
    x = np.array([s.inputs for s in samples], dtype=float)
    c_in = np.empty(x.shape, dtype=np.int64)
    for j, spec in enumerate(input_specs):
        c_in[:, j] = quantize_many(spec, x[:, j])
    c_out = quantize_many(output_spec, [s.output for s in samples])
    return Model.from_columns(c_in, c_out, np.arange(len(samples) + 1), input_specs, output_spec, radii)


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
    sample count, and equals it when tolerance is negative.  A NaN
    tolerance would keep no sample the model covers, so it raises
    ValueError, and so does a NaN output, whose error no tolerance can judge.
    """
    if math.isnan(tolerance):
        raise ValueError("tolerance is NaN")
    _check_samples(samples, input_specs)
    for k, s in enumerate(samples):
        if math.isnan(s.output):
            raise ValueError(f"sample {k} has a NaN output, which has no quantization level")
    model = Model([], input_specs, output_spec, radii)
    for s in samples:
        needs_group = True
        if len(model.groups):
            try:
                needs_group = abs(infer(model, s.inputs) - s.output) > tolerance
            except NoCoverageError:
                needs_group = True
        if needs_group:
            model.append_group(IdsGroup([_stain(s, input_specs, output_spec)]))
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
    groups as the most popular output level has samples.  The model and
    its plan are built once, from the packed groups.
    """
    _check_samples(samples, input_specs)
    groups: list[IdsGroup] = []
    seen: Counter[int] = Counter()
    for s in samples:
        level = quantize(output_spec, s.output)
        k = seen[level]
        seen[level] += 1
        if k == len(groups):
            groups.append(IdsGroup())
        merge_into_group(groups[k], s, input_specs, output_spec)
    return Model(groups, input_specs, output_spec, radii)


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
