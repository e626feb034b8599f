"""Brute-force reference implementation used to cross-check inference.

Computes confidences straight from the stain geometry of the training
samples, never touching trained plane grids.  Arithmetic mirrors the
production path operation for operation (same divisions, same min/max
selection, same np.sum accumulation) so agreement can be asserted bitwise.

Planes have their own oracle: each stain's window written one stain at a
time, by its own arithmetic.  The crossbar twin has its own references:
the write controller run array by array over every cell, the analog read
cascade run one array and one diode stage at a time, and the idealised
programming that sets every cell straight to its encoded target.  They use
their own copies of the device law, the attenuation, the read law and the
divider, written in the production operation order, and import only the
twin's dataclasses.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from inkspread.core import QuantizationSpec, StainRadii, dequantize, quantize
from inkspread.crossbar import DeviceParams, HardwareModel, ProgrammingParams, ProgrammingReport
from inkspread.errors import DividerUnderflowError, NoCoverageError
from inkspread.model import IdsPlane, Model, Sample


def stain_value(level: int, center: int, radius: float) -> float:
    """One axis of the pyramid ramp at an integer level offset."""
    return 1.0 - abs(level - center) / radius


def pyramid_at(
    x_level: int,
    y_level: int,
    center_in: int,
    center_out: int,
    radii: StainRadii,
) -> float:
    return max(
        0.0,
        min(
            stain_value(x_level, center_in, radii.radius_in),
            stain_value(y_level, center_out, radii.radius_out),
        ),
    )


def plane_mu(
    x_level: int,
    y_level: int,
    centers: list[tuple[int, int]],
    radii: StainRadii,
) -> float:
    """Confidence on one plane holding one stain per listed center."""
    return max(pyramid_at(x_level, y_level, ci, cj, radii) for ci, cj in centers)


def fuzzy_reference(
    grouped_samples: list[list[Sample]],
    input_specs: list[QuantizationSpec],
    output_spec: QuantizationSpec,
    radii: StainRadii,
    x,
) -> np.ndarray:
    """Per-output-level confidences for the query, from first principles.

    ``grouped_samples`` assigns each training sample to its group, matching
    whatever partition the training policy produced.
    """
    x_levels = [quantize(spec, xi) for spec, xi in zip(input_specs, x)]
    n_y = output_spec.levels
    mu = np.zeros(n_y)
    for group in grouped_samples:
        centers = [
            (
                [quantize(spec, xi) for spec, xi in zip(input_specs, s.inputs)],
                quantize(output_spec, s.output),
            )
            for s in group
        ]
        for j in range(1, n_y + 1):
            g = min(
                plane_mu(
                    x_levels[p],
                    j,
                    [(c_in[p], c_out) for c_in, c_out in centers],
                    radii,
                )
                for p in range(len(input_specs))
            )
            mu[j - 1] = max(mu[j - 1], g)
    return mu


def crisp_reference(
    grouped_samples: list[list[Sample]],
    input_specs: list[QuantizationSpec],
    output_spec: QuantizationSpec,
    radii: StainRadii,
    x,
) -> float:
    mu = fuzzy_reference(grouped_samples, input_specs, output_spec, radii, x)
    total = float(np.sum(mu))
    if total == 0.0:
        raise NoCoverageError("reference: zero total confidence")
    levels = np.array([dequantize(output_spec, j) for j in range(1, output_spec.levels + 1)])
    return float(np.sum(levels * mu)) / total


def class_reference(
    grouped_samples: list[list[Sample]],
    input_specs: list[QuantizationSpec],
    output_spec: QuantizationSpec,
    radii: StainRadii,
    x,
    class_count: int,
) -> int:
    """Max-membership class label from first principles.

    Class ``c`` is read at its own output level; the largest reading wins,
    the lower label on a tie, and 0 when every class level reads zero.
    """
    mu = fuzzy_reference(grouped_samples, input_specs, output_spec, radii, x)
    best, label = 0.0, 0
    for c in range(1, class_count + 1):
        reading = mu[quantize(output_spec, c) - 1]
        if reading > best:
            best, label = reading, c
    return label


def empty_plane(input_spec: QuantizationSpec, output_spec: QuantizationSpec) -> IdsPlane:
    return IdsPlane(input_spec, output_spec, np.zeros((input_spec.levels, output_spec.levels)))


def diffuse_reference(plane: IdsPlane, center_in: int, center_out: int, radii: StainRadii) -> IdsPlane:
    """One stain maxed into its support window, clipped to the plane."""
    n_in, n_out = plane.input_spec.levels, plane.output_spec.levels
    i_lo = max(1, int(math.ceil(center_in - radii.radius_in)))
    i_hi = min(n_in, int(math.floor(center_in + radii.radius_in)))
    j_lo = max(1, int(math.ceil(center_out - radii.radius_out)))
    j_hi = min(n_out, int(math.floor(center_out + radii.radius_out)))
    ramp_in = 1.0 - np.abs(np.arange(i_lo, i_hi + 1) - center_in) / radii.radius_in
    ramp_out = 1.0 - np.abs(np.arange(j_lo, j_hi + 1) - center_out) / radii.radius_out
    stain = np.maximum(0.0, np.minimum(ramp_in[:, None], ramp_out[None, :]))
    window = plane.grid[i_lo - 1:i_hi, j_lo - 1:j_hi]
    np.maximum(window, stain, out=window)
    return plane


def plane_reference(model: Model, g: int, j: int) -> IdsPlane:
    """Plane ``j`` of group ``g``: the group's stains diffused one at a time."""
    plane = empty_plane(model.input_specs[j], model.output_spec)
    for c_in, c_out in model.groups[g].stains:
        diffuse_reference(plane, c_in[j], c_out, model.radii)
    return plane


def _memristance_of_w(w: np.ndarray, p: DeviceParams) -> np.ndarray:
    """The linear-drift law R_on*(w/D) + R_off*(1 - w/D)."""
    frac = w / p.D
    return p.R_on * frac + p.R_off * (1.0 - frac)


def _w_of_memristance(r: np.ndarray, p: DeviceParams) -> np.ndarray:
    return p.D * (p.R_off - r) / (p.R_off - p.R_on)


def _attenuation(p: DeviceParams) -> float:
    """The factor 1 - R_on/R_off by which the readout scales every degree."""
    return 1.0 - p.R_on / p.R_off


def program_plane_reference(
    w: np.ndarray,
    target: IdsPlane,
    epsilon: float,
    prog: ProgrammingParams = ProgrammingParams(),
    p: DeviceParams = DeviceParams(),
) -> ProgrammingReport:
    """Program-and-verify one array of doped lengths ``w`` (rows, cols) in
    place, every cell stepped each iteration."""
    target_c = target.grid.T * _attenuation(p)
    r2 = _memristance_of_w(w, p) ** 2
    width = np.full(w.shape, prog.base_width)
    prev_sign = np.zeros(w.shape)
    growing = np.ones(w.shape, dtype=bool)
    pulses = np.zeros(w.shape, dtype=np.int64)
    iterations = 0
    while True:
        degree = 1.0 - p.R_on / np.sqrt(r2)
        need = target_c - degree
        active = (np.abs(need) > epsilon) & (pulses < prog.budget_per_cell)
        if not active.any():
            break
        iterations += 1
        s = np.sign(need)
        seen = prev_sign != 0.0
        same = active & seen & (s == prev_sign)
        reversed_ = active & seen & (s != prev_sign)
        width[same & growing] *= 2.0
        width[reversed_] *= 0.5
        growing[reversed_] = False
        prev_sign[active] = s[active]
        v = -prog.v_prog * s
        lo, hi = p.R_on**2, p.R_off**2
        h = width / prog.substeps
        step = p.kappa * v * h
        for _ in range(prog.substeps):
            r2 = np.where(active, np.clip(r2 - step, lo, hi), r2)
        pulses[active] += 1
    w[...] = np.clip(_w_of_memristance(np.sqrt(r2), p), 0.0, p.D)
    residuals = (1.0 - p.R_on / _memristance_of_w(w, p)) - target_c
    exhausted = (np.abs(residuals) > epsilon) & (pulses >= prog.budget_per_cell)
    return ProgrammingReport(int(pulses.sum()), float(np.abs(residuals).max()), exhausted, iterations)


def program_plane_exact(w: np.ndarray, target: IdsPlane, p: DeviceParams = DeviceParams()) -> None:
    """Set the doped lengths ``w`` (rows, cols) of one array in place straight
    to the encoded targets (the epsilon -> 0 limit).

    A measurement-free idealization: it checks that the attenuated hardware
    path agrees with the ideal pipeline once programming error is out of
    the picture.
    """
    r = p.R_on / (1.0 - target.grid.T * _attenuation(p))
    w[...] = np.clip(_w_of_memristance(r, p), 0.0, p.D)


def states_of(hw: HardwareModel) -> list[np.ndarray]:
    """Every cell's doped length, one (groups, rows, cols) array per input:
    the twin's palette gathered by its codes."""
    return [hw.palette[codes] for codes in hw.codes]


def with_states(hw: HardwareModel, states: list[np.ndarray]) -> HardwareModel:
    """A twin like ``hw`` whose cells hold the doped lengths ``states``, one
    (groups, rows, cols) array per input, coded into a palette of their
    distinct values in order of read voltage: ascending lengths, stably
    sorted by the voltage each reads."""
    lengths, codes = np.unique(np.concatenate([state.ravel() for state in states]), return_inverse=True)
    order = np.argsort(read_voltages_reference(lengths, hw), kind="stable")
    codes = np.split(np.argsort(order).astype(np.min_scalar_type(max(len(lengths) - 1, 0)))[codes],
                     np.cumsum([state.size for state in states])[:-1])
    return dataclasses.replace(hw, codes=[c.reshape(state.shape) for c, state in zip(codes, states)],
                               palette=lengths[order])


def _twin(states: list[np.ndarray], model: Model, params: DeviceParams, v_read: float, diode_drop: float,
          reports: list[list[ProgrammingReport]]) -> HardwareModel:
    empty = HardwareModel([], np.empty(0), list(model.input_specs), model.output_spec, params, v_read,
                          diode_drop, reports)
    return with_states(empty, states)


def _fresh_states(model: Model, params: DeviceParams) -> list[np.ndarray]:
    """One (groups, rows, cols) stack of fresh arrays, at R_on, per input."""
    return [np.full((len(model.groups), model.output_spec.levels, spec.levels), params.D)
            for spec in model.input_specs]


def program_from_model_reference(
    model: Model,
    epsilon: float = 0.01,
    params: DeviceParams = DeviceParams(),
    prog: ProgrammingParams = ProgrammingParams(),
    v_read: float = 0.5,
    diode_drop: float = 0.7,
) -> HardwareModel:
    """One fresh array per plane, each programmed on its own."""
    states = _fresh_states(model, params)
    reports = [[program_plane_reference(state[g], plane_reference(model, g, j), epsilon, prog, params)
                for j, state in enumerate(states)] for g in range(len(model.groups))]
    return _twin(states, model, params, v_read, diode_drop, reports)


def program_from_model_exact(
    model: Model,
    params: DeviceParams = DeviceParams(),
    v_read: float = 0.5,
    diode_drop: float = 0.7,
) -> HardwareModel:
    """One array per plane, each set exactly to its encoded targets; no reports."""
    states = _fresh_states(model, params)
    for g in range(len(model.groups)):
        for j, state in enumerate(states):
            program_plane_exact(state[g], plane_reference(model, g, j), params)
    return _twin(states, model, params, v_read, diode_drop, [])


def read_voltages_reference(w: np.ndarray, hw: HardwareModel) -> np.ndarray:
    """The op-amp output voltages of cells with doped lengths ``w``:
    v_read + v_read*(-R_on/R_m)."""
    r = _memristance_of_w(w, hw.params)
    return hw.v_read + hw.v_read * (-(hw.params.R_on / r))


def divider_reference(mu: np.ndarray, n_y: int, floor: float) -> float:
    """The two-stage adder and divider on one circuit's n_y level voltages:
    stage 1 weights level i by -i, stage 2 sums with gain -1, and a
    |stage 2| at or below ``floor`` underflows."""
    stage1 = -np.sum(mu * np.arange(1, n_y + 1))
    stage2 = -np.sum(mu)
    if abs(stage2) <= floor:
        raise DividerUnderflowError(f"reference: divider denominator {abs(stage2):.3e} at or below {floor:.3e}")
    return float(stage1) / float(stage2)


def read_column_reference(hw: HardwareModel, g: int, j: int, col: int) -> np.ndarray:
    """One 1-based column of array (g, j), read cell by cell from its doped lengths."""
    return read_voltages_reference(states_of(hw)[j][g][:, col - 1], hw)


def crossbar_infer_reference(hw: HardwareModel, x) -> float:
    """Analog inference read one column of one array at a time, each cell
    through the op-amp read law v_read + v_read*(-R_on/R_m)."""
    cols = [quantize(spec, float(xi)) for spec, xi in zip(hw.input_specs, x)]
    n_y = hw.output_spec.levels
    level_mu = np.zeros(n_y)
    states = states_of(hw)
    n_g = len(states[0]) if states else 0
    if n_g:
        group_mins = []
        for g in range(n_g):
            plane_vs = []
            for j, state in enumerate(states):
                plane_vs.append(read_voltages_reference(state[g][:, cols[j] - 1], hw))
            group_mins.append(np.minimum.reduce(plane_vs) + hw.diode_drop)
        level_mu = np.maximum.reduce(group_mins) - hw.diode_drop
    level = divider_reference(level_mu, n_y, hw.divider_floor)
    level = min(max(level, 1.0), float(n_y))
    return dequantize(hw.output_spec, level)
