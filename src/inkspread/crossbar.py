"""Behavioral analog twin: memristor crossbars evaluating the fuzzy pipeline.

Each plane of the ideal model maps onto a crossbar (one memristor per grid
cell, rows are output levels, columns are input levels).  Cells are
programmed closed-loop to a memristance encoding the cell's confidence,
read out sub-threshold through an inverting op-amp, combined by diode
min/max networks, and defuzzified by a two-stage op-amp adder feeding an
analog divider.  A ``HardwareModel`` holds every crossbar: one code tensor
per input, with array (g, j), group g's array for input j, at
``codes[j][g]``.  ``program_from_model`` programs them all at once;
``program_plane`` reprograms and ``read_column_voltages`` reads one.

A twin holds codes, not states.  A cell's closed-loop trajectory depends
only on its start state and its target, the targets are tent values, and a
tent takes a handful of values, so a whole twin settles to a few distinct
doped lengths (11 across the 409,600 cells of a 50-group, 64-level model).
The twin keeps them once, in ``palette``, in order of read voltage, and
every cell holds the index of its own, as the narrowest unsigned integer
that indexes the palette: one byte, next to the one-byte exhausted mask of
its programming report, where a float state took eight.  One writer,
``_merge_palette``, keeps that order: both programming functions merge
their outcomes through it, and when ``program_plane`` grows the palette,
every code tensor is remapped to the new order and widened if the palette
outgrew its type (a radius as wide as a 200-level axis, or repeated
reprogramming, passes 256 entries).  Because a higher code never reads a
lower voltage, ``crossbar_infer`` takes the min over inputs and the max
over groups on the codes themselves, and only the winner becomes a voltage
(it says why that is bitwise).

The device follows the linear-drift model: memristance interpolates between
R_on (fully doped, w = D) and R_off (undoped, w = 0), and the state moves
only when the applied voltage magnitude exceeds a threshold.  Because
dR_M/dw is constant, R_M^2 integrates linearly in v*t, which lets pulses be
applied in closed form instead of by Euler stepping; substeps only refine
where the trajectory clamps at the rails.

Deliberate idealizations, stated once here: zero wire resistance (so reads
need no nodal solve and sneak paths vanish), half-select V/2 biasing keeps
unselected cells strictly sub-threshold during writes, diodes are ideal
switches with a constant forward drop, and the defuzzifier's resistor
ladder realizes its integer gains exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import QuantizationSpec, _check_integer, _index, dequantize, quantize_many
from .errors import DividerUnderflowError
from .model import IdsPlane, Model

# bounds the cells one step of a batched read converts or gathers: a slab of
# groups shrinks to fit, and so does a chunk of queries
_READ_ELEMENTS = 1 << 16
# bounds the cells of one slab of arrays whose codes programming derives,
# writes and counts at once, unless one array holds more
_PROGRAM_CELLS = 1 << 15


@dataclass(frozen=True)
class DeviceParams:
    """Linear-drift memristor device constants."""

    D: float = 1e-8          # film thickness, m
    R_on: float = 100.0      # fully doped memristance, ohm
    R_off: float = 10_000.0  # undoped memristance, ohm
    mu_v: float = 1e-14      # ion mobility, m^2/(V*s)
    V_th: float = 1.0        # programming threshold, V

    def __post_init__(self):
        if not all(map(math.isfinite, (self.D, self.R_on, self.R_off, self.mu_v, self.V_th))):
            raise ValueError("device constants must all be finite")
        if not 0 < self.R_on < self.R_off:
            raise ValueError(f"need 0 < R_on < R_off, got {self.R_on}, {self.R_off}")
        if not (self.R_on * self.R_on > 0 and math.isfinite(self.R_off * self.R_off)):
            raise ValueError(f"R_on^2 and R_off^2 must be positive and finite, "
                             f"got R_on = {self.R_on}, R_off = {self.R_off}")
        if self.D <= 0 or self.mu_v <= 0 or self.V_th <= 0:
            raise ValueError("D, mu_v, V_th must all be positive")
        try:
            kappa = self.kappa
        except (ZeroDivisionError, OverflowError):
            kappa = math.nan
        if not 0 < kappa < math.inf:
            raise ValueError("D and mu_v give no positive, finite drift rate")

    @property
    def kappa(self) -> float:
        """d(R_M^2)/dt per volt of super-threshold drive, ohm^2/(V*s)."""
        return 2.0 * self.mu_v * self.R_on * (self.R_off - self.R_on) / self.D**2


def _memristance_of_w(w: np.ndarray, params: DeviceParams) -> np.ndarray:
    """R_on*(w/D) + R_off*(1 - w/D); monotone decreasing in w."""
    frac = w / params.D
    return params.R_on * frac + params.R_off * (1.0 - frac)


def _w_of_memristance(r: np.ndarray, params: DeviceParams):
    return params.D * (params.R_off - r) / (params.R_off - params.R_on)


def _pulse_r_squared(r2, v, dt, substeps: int, params: DeviceParams):
    """Advance R_M^2 by a super-threshold pulse, clamping at the rails.

    Exact within each substep: R_M(t)^2 = R_M(0)^2 - kappa*v*t.  Positive v
    drives toward R_on (doping grows), negative toward R_off.  ``r2``, ``v``
    and ``dt`` may be per-cell arrays.
    """
    lo, hi = params.R_on**2, params.R_off**2
    h = dt / substeps
    # a very wide pulse drifts past a rail, to inf at worst, and the clip
    # puts it on that rail
    with np.errstate(over="ignore"):
        drift = params.kappa * v * h
        for _ in range(substeps):
            r2 = np.minimum(np.maximum(r2 - drift, lo), hi)
    return r2


def attenuation(params: DeviceParams) -> float:
    """Uniform confidence attenuation 1 - R_on/R_off of the readout encoding.

    Degree s is stored as R_on/(1 - s*attenuation): s = 0 is R_on, which
    reads exactly zero, and the read returns s*attenuation, a factor that
    cancels through min, max and the divider ratio.
    """
    return 1.0 - params.R_on / params.R_off


# substeps of one pulse, each a pass over the pulsed cells; the closed form
# is exact within a substep, so more only refine the clamp at the rails
MAX_SUBSTEPS = 1000


@dataclass
class ProgrammingParams:
    """Closed-loop write controller settings.

    Pulses keep a fixed amplitude and adapt their width: starting from
    base_width, the width doubles while the sign of the error is unchanged,
    then halves on every sign reversal, which brackets the target like a
    bisection.  A fixed-width scheme at these device constants would need
    ~3e5 pulses to cross the full resistance range and could not settle
    within tight epsilon near R_on.  ``substeps`` is an integer in
    1..MAX_SUBSTEPS and ``budget_per_cell`` a positive integer.
    """

    v_prog: float = 1.5
    base_width: float = 1e-6
    substeps: int = 10
    budget_per_cell: int = 10_000

    def __post_init__(self):
        for name in ("substeps", "budget_per_cell"):
            _check_integer(getattr(self, name), name)
        if not (math.isfinite(self.v_prog) and math.isfinite(self.base_width)):
            raise ValueError("v_prog and base_width must be finite")
        if self.v_prog <= 0 or self.base_width <= 0:
            raise ValueError("v_prog and base_width must be positive")
        if self.substeps < 1 or self.budget_per_cell < 1:
            raise ValueError("substeps and budget_per_cell must be >= 1")
        if self.substeps > MAX_SUBSTEPS:
            raise ValueError(f"substeps must be <= {MAX_SUBSTEPS}, got {self.substeps}")


@dataclass
class ProgrammingReport:
    """What programming one array did: its pulses in all, the largest
    |degree - target| left on a cell, the per-cell mask of cells out of
    pulse budget (for fault detection) and the controller iterations."""

    total_pulses: int
    max_abs_residual: float
    budget_exhausted: np.ndarray
    iterations: int


def _read_voltages(w: np.ndarray, params: DeviceParams, v_read: float) -> np.ndarray:
    """Op-amp output voltages of cells with doped lengths ``w``.

    The reference voltage is fixed to -v_read and the feedback resistor to
    R_on, so v_out = v_read + v_read*(-R_on/R_m) and v_out/v_read is the
    degree 1 - R_on/R_m: exactly 0 at R_on, which is what makes a fresh
    cell read zero, approaching 1 - R_on/R_off at R_off.
    """
    r = _memristance_of_w(w, params)
    return v_read + v_read * (-(params.R_on / r))


def read_column_voltages(hw: HardwareModel, g: int, j: int, col: int) -> np.ndarray:
    """Raw op-amp output voltages of every row of array (g, j), group g's
    array for input j, for one selected 1-based column.  ``g`` and ``j``
    count from 0, a negative one from the end; ``col`` is an integer, and
    a bool is refused."""
    codes = hw.codes[_index(j, len(hw.codes), "input j")]
    codes = codes[_index(g, len(codes), "group g")]
    _check_integer(col, "column")
    if not 1 <= col <= codes.shape[1]:
        raise ValueError(f"column {col} outside 1..{codes.shape[1]}")
    # the read law is elementwise, so reading the palette once and taking
    # the column's codes from it is bitwise reading the cells
    return _read_voltages(hw.palette, hw.params, hw.v_read)[codes[:, col - 1]]


def _check_programming(epsilon: float, prog: ProgrammingParams, p: DeviceParams) -> None:
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon}")
    if prog.v_prog <= p.V_th:
        raise ValueError(f"v_prog = {prog.v_prog} cannot move cells below V_th = {p.V_th}")
    if prog.v_prog / 2.0 > p.V_th:
        raise ValueError(f"half-select v_prog/2 = {prog.v_prog / 2} would disturb unselected cells")


def _settle(w: np.ndarray, target_c: np.ndarray, epsilon: float, prog: ProgrammingParams,
            p: DeviceParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The closed-loop write controller on independent cells.

    Returns each cell's final doped length, pulse count, residual
    |degree - target| and whether it ran out of pulse budget short of
    epsilon.  The loop verifies first, so already-converged cells
    (including every zero-target cell of a fresh array) receive no pulses.
    All still-erroneous cells get one width-adapted pulse per iteration;
    this parallel sweep is equivalent to per-cell sequencing because
    half-selected cells stay sub-threshold and do not move.
    """
    r2 = _memristance_of_w(w, p) ** 2
    width = np.full(w.shape, prog.base_width)
    prev_sign = np.zeros(w.shape)
    growing = np.ones(w.shape, dtype=bool)
    pulses = np.zeros(w.shape, dtype=np.int64)
    while True:
        degree = 1.0 - p.R_on / np.sqrt(r2)
        need = target_c - degree
        active = (np.abs(need) > epsilon) & (pulses < prog.budget_per_cell)
        if not active.any():
            break
        s = np.sign(need)
        seen = prev_sign != 0.0
        same = active & seen & (s == prev_sign)
        reversed_ = active & seen & (s != prev_sign)
        width[same & growing] *= 2.0
        width[reversed_] *= 0.5
        growing[reversed_] = False
        prev_sign[active] = s[active]
        # need > 0 means the degree must rise, i.e. R_M must grow: negative drive
        v = -prog.v_prog * s[active]
        r2[active] = _pulse_r_squared(r2[active], v, width[active], prog.substeps, p)
        pulses[active] += 1
    w = np.clip(_w_of_memristance(np.sqrt(r2), p), 0.0, p.D)
    residuals = np.abs((1.0 - p.R_on / _memristance_of_w(w, p)) - target_c)
    return w, pulses, residuals, (residuals > epsilon) & (pulses >= prog.budget_per_cell)


def _code_dtype(n: int) -> np.dtype:
    """The narrowest unsigned integers that index ``n`` entries."""
    return np.min_scalar_type(max(n - 1, 0))


def _merge_palette(palette: np.ndarray, w: np.ndarray, params: DeviceParams,
                   v_read: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The palette with the doped lengths ``w`` merged in, each distinct
    length once, sorted stably by read voltage, and the new codes of the old
    entries and of ``w``.  The order is fixed by the set of lengths, so
    merging in lengths already held changes no code."""
    merged, inverse = np.unique(np.concatenate([palette, w]), return_inverse=True)
    order = np.argsort(_read_voltages(merged, params, v_read), kind="stable")
    codes = np.argsort(order).astype(_code_dtype(len(merged)))[inverse]
    return merged[order], codes[:len(palette)], codes[len(palette):]


def _reports(counts: np.ndarray, pulses: np.ndarray, residuals: np.ndarray,
             masks: np.ndarray) -> list[ProgrammingReport]:
    """One report per array, from how many of its cells hold each settled
    pair (``counts``, arrays x pairs), the pairs' pulse counts and
    residuals, and the arrays' exhausted masks.  A cell that goes inactive
    never moves again, so an array's iteration count is its largest pulse
    count."""
    present = counts > 0
    return [ProgrammingReport(*fields) for fields in zip(
        (counts @ pulses).tolist(), np.where(present, residuals, 0.0).max(axis=1, initial=0.0).tolist(),
        masks, np.where(present, pulses, 0).max(axis=1, initial=0).tolist())]


def program_plane(
    hw: HardwareModel,
    g: int,
    j: int,
    target: IdsPlane,
    epsilon: float,
    prog: ProgrammingParams = ProgrammingParams(),
) -> ProgrammingReport:
    """Reprogram array (g, j) of the twin in place to mirror a confidence
    plane, starting from the state it holds.

    ``g`` and ``j`` count from 0, a negative one from the end.  Each cell's
    hardware target is its software degree scaled by the attenuation
    factor; cells are driven until within ``epsilon`` of it or out of pulse
    budget.  A cell's trajectory depends only on its start state and its
    target, so the controller settles each distinct (start code, target)
    pair once, and the outcomes are merged into the palette.  Only when
    that changes the palette are the code tensors of every input remapped;
    otherwise the write touches this array alone.  The report replaces
    ``hw.reports[g][j]`` and is returned.  A degree outside [0, 1], NaN and
    +-inf included, raises ValueError.
    """
    codes, p = hw.codes[_index(j, len(hw.codes), "input j")], hw.params
    g = _index(g, len(codes), "group g")
    if codes.shape[1:] != (target.output_spec.levels, target.input_spec.levels):
        raise ValueError(
            f"array {codes.shape[1]}x{codes.shape[2]} cannot hold plane "
            f"{target.output_spec.levels}x{target.input_spec.levels}"
        )
    outside = ~((target.grid >= 0.0) & (target.grid <= 1.0))
    if outside.any():
        raise ValueError(f"plane degrees must lie in [0, 1], got {target.grid[outside][0]}")
    _check_programming(epsilon, prog, p)
    t, t_codes = np.unique((target.grid.T * attenuation(p)).ravel(), return_inverse=True)
    keys, pair = np.unique(codes[g].ravel().astype(np.intp) * len(t) + t_codes, return_inverse=True)
    w, pulses, residuals, exhausted = _settle(hw.palette[keys // len(t)], t[keys % len(t)], epsilon, prog, p)
    palette, old_codes, new_codes = _merge_palette(hw.palette, w, p, hw.v_read)
    if not np.array_equal(palette, hw.palette):
        hw.palette, hw.codes[:] = palette, [old_codes[c] for c in hw.codes]
    hw.codes[j][g] = new_codes[pair].reshape(codes.shape[1:])
    report, = _reports(np.bincount(pair, minlength=len(keys))[None], pulses, residuals,
                       exhausted[pair].reshape(1, *codes.shape[1:]))
    hw.reports[g][j] = report
    return report


def diode_min(voltages, drop: float = 0.7, *, axis: int) -> np.ndarray:
    """Diode-network minimum: min of the inputs plus the forward drop.  The
    array holds one network per index of its other axes and is reduced
    along ``axis``, which must not be empty."""
    return np.min(np.asarray(voltages, dtype=float), axis=axis) + drop


def diode_max(voltages, drop: float = 0.7, *, axis: int) -> np.ndarray:
    """Diode-network maximum: max of the inputs minus the forward drop.  The
    array holds one network per index of its other axes and is reduced
    along ``axis``, which must not be empty."""
    return np.max(np.asarray(voltages, dtype=float), axis=axis) - drop


def defuzz_circuit(mu_voltages, n_y: int, floor: float = 0.0) -> np.ndarray:
    """Two-stage adder plus divider: returns the confidence-weighted level index.

    Stage 1 is an inverting adder whose feedback resistor n_y*R against
    input resistors (n_y/i)*R realizes gain -i for level i; stage 2 sums
    with unit gain.  The divider output stage1/stage2 equals
    sum(mu_i*i)/sum(mu_i), a fractional level index the caller dequantizes.
    The ladder's unit resistance R cancels algebraically, so no value of it
    enters the result.

    ``mu_voltages`` is a (batch, n_y) array, one circuit's level voltages
    per row, and one output is returned per row.  A row whose |stage2| is at
    or below ``floor``, the analog counterpart of an uncovered query, reads
    NaN.
    """
    # each row's sums run along contiguous memory
    mu = np.ascontiguousarray(mu_voltages, dtype=float)
    if mu.ndim != 2 or mu.shape[1] != n_y:
        raise ValueError(f"expected (batch, {n_y}) level voltages, got shape {mu.shape}")
    stage1 = -np.sum(mu * np.arange(1, n_y + 1), axis=1)
    stage2 = -np.sum(mu, axis=1)
    under = np.abs(stage2) <= floor
    return np.where(under, np.nan, stage1 / np.where(under, 1.0, stage2))


@dataclass
class HardwareModel:
    """A Model programmed onto crossbars, one per (group, input variable).

    Every cell holds a code into ``palette``, the distinct doped lengths
    programming has settled cells to, in order of read voltage: a higher
    code never reads a lower voltage.  ``codes[j]`` holds input j's arrays,
    one per group, shaped (groups, output levels, input levels), and every
    code tensor has the narrowest unsigned type that indexes the palette.
    Every array reads through the same device and read constants, and
    ``reports[g][j]`` is the programming report of group g's array for
    input j.
    """

    codes: list[np.ndarray]
    palette: np.ndarray
    input_specs: list[QuantizationSpec]
    output_spec: QuantizationSpec
    params: DeviceParams
    v_read: float
    diode_drop: float
    reports: list[list[ProgrammingReport]]

    @property
    def divider_floor(self) -> float:
        return 1e-4 * self.v_read

    @property
    def worst_residual(self) -> float:
        return max(
            (r.max_abs_residual for row in self.reports for r in row),
            default=0.0,
        )


def program_from_model(
    model: Model,
    epsilon: float = 0.01,
    params: DeviceParams = DeviceParams(),
    prog: ProgrammingParams = ProgrammingParams(),
    v_read: float = 0.5,
    diode_drop: float = 0.7,
) -> HardwareModel:
    """Program one crossbar per plane of the given model.

    Every array starts fresh, at R_on, so a cell's outcome depends only on
    its target, a tent value scaled by the attenuation factor: the write
    controller settles each distinct target of every input once, and the
    palette holds the distinct doped lengths they settle to, in order of
    read voltage.  Then, one slab of at most ``_PROGRAM_CELLS`` cells (or
    one array) at a time, the slab's tent codes are derived from its groups'
    stains (``Model.plane_codes``) and mapped to palette codes, and each
    array's report is reduced from how many of its cells hold each target,
    so no whole-model temporary is built.  Reads need 0 < v_read < V_th: at a
    negative bias a fresh cell would outread every programmed one.  The min
    stage adds the diode drop and the max stage takes it off, so a drop
    beyond [0, V_th] would only round away the read voltages.
    """
    _check_programming(epsilon, prog, params)
    if not 0 < v_read < params.V_th:
        raise ValueError(f"v_read = {v_read} must lie in (0, V_th = {params.V_th})")
    if not 0 <= diode_drop <= params.V_th:
        raise ValueError(f"diode_drop = {diode_drop} must lie in [0, V_th = {params.V_th}]")
    n_g, n_y, att = len(model.groups), model.output_spec.levels, attenuation(params)
    values = [model.tent_values(j) for j in range(model.n_inputs)]
    t, target_of = np.unique(np.concatenate(values) * att, return_inverse=True)
    w, pulses, residuals, exhausted = _settle(np.full(len(t), params.D), t, epsilon, prog, params)
    palette, _, code_of = _merge_palette(np.empty(0), w, params, v_read)
    codes, reports = [], [[None] * model.n_inputs for _ in range(n_g)]
    for j, (spec, tent_t) in enumerate(zip(model.input_specs,
                                           np.split(target_of, np.cumsum([len(v) for v in values])[:-1]))):
        # per tent value of input j: its palette code and its target's outcome
        lut, tent_pulses = code_of[tent_t], pulses[tent_t]
        tent_residuals, tent_exhausted = residuals[tent_t], exhausted[tent_t]
        codes.append(np.empty((n_g, n_y, spec.levels), dtype=lut.dtype))
        step = max(1, _PROGRAM_CELLS // (n_y * spec.levels))
        for g0 in range(0, n_g, step):
            tent = model.plane_codes(j, g0, min(g0 + step, n_g)).astype(np.intp)
            codes[j][g0:g0 + step] = lut[tent]
            # per array, how many of its cells hold each tent value
            counts = np.bincount((tent + len(lut) * np.arange(len(tent))[:, None, None]).ravel(),
                                 minlength=len(tent) * len(lut)).reshape(len(tent), -1)
            # cells rarely run out of budget, and an all-False mask takes no
            # memory until it is read
            masks = tent_exhausted[tent] if tent_exhausted.any() else np.zeros(tent.shape, dtype=bool)
            for g, report in enumerate(_reports(counts, tent_pulses, tent_residuals, masks), g0):
                reports[g][j] = report
    return HardwareModel(codes, palette, list(model.input_specs), model.output_spec, params, v_read, diode_drop,
                         reports)


def crossbar_infer(hw: HardwareModel, x):
    """Analog-path inference: reads, diode min/max cascade, divider, dequantize.

    ``x`` is one query, shaped (n_inputs,), or a batch shaped (batch,
    n_inputs).  One query returns a float and raises DividerUnderflowError
    off the stained region (including the empty model) and ValueError on a
    NaN input.  A batch returns a (batch,) array, NaN where the divider
    underflows or an input is NaN; the other rows do not depend on it.

    The batch is read as the hardware reads it, every array at once, but in
    code space: the palette's read voltages are computed once, and they
    never fall as the code rises (a twin whose palette breaks that order
    raises ValueError).  Per input, the distinct selected columns of its
    code tensor are taken once, a bounded slab of groups at a time, and
    each query gathers its rows from them.  The queries then pass, a chunk
    at a time, through the min over inputs and the max over groups on those
    small integers, and only the winning code becomes a voltage.  That is
    bitwise the float cascade: a min or max of values from one set selects
    one of them, the code order is the voltage order (codes of equal
    voltage read the same value), and rounding to nearest is monotone, so
    max_g fl(v_g + drop) = fl(max_g v_g + drop).
    """
    X = np.asarray(x, dtype=float)
    n_in = len(hw.input_specs)
    single = X.ndim == 1
    if single:
        if len(X) != n_in:
            raise ValueError(f"query has {len(X)} inputs, model expects {n_in}")
        X = X[None]
    if X.ndim != 2 or X.shape[1] != n_in:
        raise ValueError(f"expected queries shaped (batch, {n_in}), got {X.shape}")
    nan = np.isnan(X).any(axis=1)
    if single and nan[0]:
        raise ValueError("NaN has no quantization level")
    out, n_g = hw.output_spec, len(hw.codes[0]) if hw.codes else 0
    X = np.where(nan[:, None], [spec.min for spec in hw.input_specs], X)
    n_y = out.levels
    # per input: the codes of each distinct selected column, (cols, groups,
    # rows), taken a bounded slab of groups at a time, and each query's
    # index into them
    reads = []
    if n_g:
        volts = _read_voltages(hw.palette, hw.params, hw.v_read)
        if not (volts[1:] >= volts[:-1]).all():
            raise ValueError("the twin's palette is not in order of read voltage")
        # min and max are taken on codes, so each diode network's winner passes
        # its forward drop alone: the min stage adds it, the max stage takes it off
        level_of_code = diode_max(diode_min(volts[None], hw.diode_drop, axis=0)[None], hw.diode_drop, axis=0)
    for j, (spec, codes) in enumerate(zip(hw.input_specs, hw.codes) if n_g else ()):
        cols, inverse = np.unique(quantize_many(spec, X[:, j]) - 1, return_inverse=True)
        block = np.empty((len(cols), n_g, n_y), dtype=codes.dtype)
        slab = max(1, _READ_ELEMENTS // max(1, len(cols) * n_y))
        for g0 in range(0, n_g, slab):
            block[:, g0:g0 + slab] = codes[g0:g0 + slab].take(cols, axis=2).transpose(2, 0, 1)
        reads.append((block, inverse))
    levels = np.empty(len(X))
    step = max(1, _READ_ELEMENTS // (n_in * max(1, n_g) * n_y))
    for b0 in range(0, len(X), step):
        rows = slice(b0, b0 + step)
        if reads:
            # (queries, groups, rows) per input: min over inputs, max over groups
            winners = np.minimum.reduce([block[inverse[rows]] for block, inverse in reads]).max(axis=1)
            level_mu = level_of_code[winners]
        else:
            level_mu = np.zeros((len(X[rows]), n_y))
        levels[rows] = np.clip(defuzz_circuit(level_mu, n_y, floor=hw.divider_floor), 1.0, n_y)
    values = dequantize(out, levels)
    values[nan] = np.nan
    if not single:
        return values
    if np.isnan(values[0]):
        raise DividerUnderflowError(f"divider denominator at or below floor {hw.divider_floor:.3e}")
    return float(values[0])
