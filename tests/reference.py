"""Brute-force reference implementation used to cross-check inference.

Computes confidences straight from the stain geometry of the training
samples, never touching trained plane grids.  Arithmetic mirrors the
production path operation for operation (same divisions, same min/max
selection, same np.sum accumulation) so agreement can be asserted bitwise.

The crossbar twin has its own references: the write controller run array
by array over every cell, and the analog read cascade run one array and
one diode stage at a time.
"""

from __future__ import annotations

import numpy as np

from inkspread.core import QuantizationSpec, StainRadii, dequantize, quantize
from inkspread.crossbar import (
    CrossbarArray,
    DeviceParams,
    HardwareModel,
    ProgrammingParams,
    ProgrammingReport,
    _memristance_of_w,
    _w_of_memristance,
    attenuation,
    defuzz_circuit,
    read_column_voltages,
)
from inkspread.errors import NoCoverageError
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


def program_plane_reference(
    array: CrossbarArray,
    target: IdsPlane,
    epsilon: float,
    prog: ProgrammingParams = ProgrammingParams(),
) -> ProgrammingReport:
    """Program-and-verify one array, every cell stepped in place each iteration."""
    p = array.params
    target_c = target.grid.T * attenuation(p)
    r2 = _memristance_of_w(array.w, p) ** 2
    width = np.full(array.w.shape, prog.base_width)
    prev_sign = np.zeros(array.w.shape)
    growing = np.ones(array.w.shape, dtype=bool)
    pulses = np.zeros(array.w.shape, dtype=np.int64)
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
    array.w = np.clip(_w_of_memristance(np.sqrt(r2), p), 0.0, p.D)
    residuals = (1.0 - p.R_on / _memristance_of_w(array.w, p)) - target_c
    exhausted = (np.abs(residuals) > epsilon) & (pulses >= prog.budget_per_cell)
    return ProgrammingReport(pulses, residuals, exhausted, epsilon, iterations)


def program_from_model_reference(
    model: Model,
    epsilon: float = 0.01,
    params: DeviceParams = DeviceParams(),
    prog: ProgrammingParams = ProgrammingParams(),
    v_read: float = 0.5,
    diode_drop: float = 0.7,
) -> HardwareModel:
    """One fresh array per plane, each programmed on its own."""
    n_y = model.output_spec.levels
    group_arrays, reports = [], []
    for g in range(len(model.groups)):
        arrays = [CrossbarArray(n_y, spec.levels, params, v_read, diode_drop)
                  for spec in model.input_specs]
        reports.append([program_plane_reference(arr, model.plane(g, j), epsilon, prog)
                        for j, arr in enumerate(arrays)])
        group_arrays.append(arrays)
    return HardwareModel(group_arrays, list(model.input_specs), model.output_spec,
                         diode_drop, 1e-4 * abs(v_read), reports)


def crossbar_infer_reference(hw: HardwareModel, x) -> float:
    """Analog inference read one column of one array at a time."""
    cols = [quantize(spec, float(xi)) for spec, xi in zip(hw.input_specs, x)]
    n_y = hw.output_spec.levels
    level_mu = np.zeros(n_y)
    if hw.group_arrays:
        group_mins = []
        for arrays in hw.group_arrays:
            plane_vs = [read_column_voltages(arr, cols[j]) for j, arr in enumerate(arrays)]
            group_mins.append(np.minimum.reduce(plane_vs) + hw.diode_drop)
        level_mu = np.maximum.reduce(group_mins) - hw.diode_drop
    level = defuzz_circuit(level_mu, n_y, floor=hw.divider_floor)
    level = min(max(level, 1.0), float(n_y))
    return dequantize(hw.output_spec, level)
