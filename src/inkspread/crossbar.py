"""Behavioral analog twin: memristor crossbars evaluating the fuzzy pipeline.

Each plane of the ideal model maps onto a crossbar (one memristor per grid
cell, rows are output levels, columns are input levels).  Cells are
programmed closed-loop to a memristance encoding the cell's confidence,
read out sub-threshold through an inverting op-amp, combined by diode
min/max networks, and defuzzified by a two-stage op-amp adder feeding an
analog divider.  A ``HardwareModel`` holds every crossbar: one state tensor
per input, with array (g, j), group g's array for input j, at
``states[j][g]``.  ``program_from_model`` programs them all at once;
``program_plane`` reprograms and ``read_column_voltages`` reads one.

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
import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import QuantizationSpec, dequantize, quantize_many
from .errors import DividerUnderflowError
from .model import IdsPlane, Model

# bounds the cells one step of a batched read converts or gathers: a slab of
# groups shrinks to fit, and so does a chunk of queries
_READ_ELEMENTS = 1 << 16
# bounds the cells of one slab of arrays that programming keys and writes
# back at once, unless one array holds more
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
        for _ in range(substeps):
            r2 = np.clip(r2 - params.kappa * v * h, lo, hi)
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
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
    count from 0, a negative one from the end."""
    state = hw.states[j][range(len(hw.states[j]))[g]]
    if not 1 <= col <= state.shape[1]:
        raise ValueError(f"column {col} outside 1..{state.shape[1]}")
    return _read_voltages(state[:, col - 1], hw.params, hw.v_read)


def _check_programming(epsilon: float, prog: ProgrammingParams, p: DeviceParams) -> None:
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon}")
    if prog.v_prog <= p.V_th:
        raise ValueError(f"v_prog = {prog.v_prog} cannot move cells below V_th = {p.V_th}")
    if prog.v_prog / 2.0 > p.V_th:
        raise ValueError(f"half-select v_prog/2 = {prog.v_prog / 2} would disturb unselected cells")


def _settle(w: np.ndarray, target_c: np.ndarray, epsilon: float, prog: ProgrammingParams,
            p: DeviceParams) -> tuple[np.ndarray, np.ndarray]:
    """The closed-loop write controller on independent cells.

    Returns each cell's final doped length and pulse count.  The loop
    verifies first, so already-converged cells (including every zero-target
    cell of a fresh array) receive no pulses.  All still-erroneous cells get
    one width-adapted pulse per iteration; this parallel sweep is equivalent
    to per-cell sequencing because half-selected cells stay sub-threshold
    and do not move.
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
    return np.clip(_w_of_memristance(np.sqrt(r2), p), 0.0, p.D), pulses


def _program_stacks(
    states: list[np.ndarray],
    targets: Callable[[int, int, int], np.ndarray],
    epsilon: float,
    prog: ProgrammingParams,
    p: DeviceParams,
) -> list[list[ProgrammingReport]]:
    """Program-and-verify stacks of arrays sharing one set of device constants.

    Each of ``states`` holds the doped lengths of one stack's arrays, shaped
    (arrays, rows, cols), and every stack holds the same number of arrays.
    ``targets(j, a0, a1)`` gives the hardware target grids of arrays a0:a1
    of stack j, shaped like ``states[j][a0:a1]``, with every value in
    [0, 1].  A cell's trajectory depends only on its start state and its
    target, so the controller settles each distinct (state, target) pair
    once and writes the outcome into every cell holding that pair, in
    place.  Keys are built and outcomes written one slab of at most
    ``_PROGRAM_CELLS`` cells (or one array) at a time, so no whole-stack
    temporary is held: in a slab, runs of equal neighbours (the unstained
    background) collapse to one (state, target) pair each, with a break at
    every array boundary.  An array's totals come from its runs, and only
    states and exhausted flags are expanded to cells.  A cell that goes
    inactive never moves again, so an array's iteration count is its
    largest pulse count.  Returns the reports indexed [array][stack].
    """
    slabs, run_w0, run_targets, run_lengths, run_firsts = [], [], [], [], []
    for j, state in enumerate(states):
        cells = math.prod(state.shape[1:])
        step = max(1, _PROGRAM_CELLS // cells)
        for a0 in range(0, len(state), step):
            a1 = min(a0 + step, len(state))
            w0, target = state[a0:a1].reshape(-1), targets(j, a0, a1).reshape(-1)
            new = np.empty(w0.size, dtype=bool)
            np.not_equal(w0[1:], w0[:-1], out=new[1:])
            new[1:] |= target[1:] != target[:-1]
            new[::cells] = True
            starts = np.flatnonzero(new)
            slabs.append((j, a0, a1))
            run_w0.append(w0[starts])
            run_targets.append(target[starts])
            run_lengths.append(np.diff(starts, append=w0.size))
            run_firsts.append(np.searchsorted(starts, np.arange(0, w0.size, cells)))
    if not slabs:
        return []
    # a pair is keyed by the ranks of its start state and its target among
    # their distinct values, since integer keys sort faster than complex
    # ones; the runs' own values are dropped before the pair keys are sorted
    w0, w0_rank = np.unique(np.concatenate(run_w0), return_inverse=True)
    t, t_rank = np.unique(np.concatenate(run_targets), return_inverse=True)
    del run_w0, run_targets
    pairs, run_pair = np.unique(w0_rank * len(t) + t_rank, return_inverse=True)
    w0, t = w0[pairs // len(t)], t[pairs % len(t)]
    w, pulses = _settle(w0, t, epsilon, prog, p)
    residuals = np.abs((1.0 - p.R_on / _memristance_of_w(w, p)) - t)
    exhausted = (residuals > epsilon) & (pulses >= prog.budget_per_cell)
    reports = [[None] * len(states) for _ in range(len(states[0]))]
    stop = 0
    for (j, a0, a1), lengths, firsts in zip(slabs, run_lengths, run_firsts):
        runs = run_pair[stop:stop + lengths.size]
        stop += lengths.size
        state = states[j][a0:a1]
        state[...] = np.repeat(w[runs], lengths).reshape(state.shape)
        masks = np.repeat(exhausted[runs], lengths).reshape(state.shape)
        run_pulses = pulses[runs]
        for a, total, worst, mask, iterations in zip(
                range(a0, a1), np.add.reduceat(run_pulses * lengths, firsts).tolist(),
                np.maximum.reduceat(residuals[runs], firsts).tolist(), masks,
                np.maximum.reduceat(run_pulses, firsts).tolist()):
            reports[a][j] = ProgrammingReport(total, worst, mask, iterations)
    return reports


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
    budget.  The report replaces ``hw.reports[g][j]`` and is returned.  A
    degree outside [0, 1], NaN and +-inf included, raises ValueError.
    """
    g = range(len(hw.states[j]))[g]
    state, p = hw.states[j][g:g + 1], hw.params
    if state.shape[1:] != (target.output_spec.levels, target.input_spec.levels):
        raise ValueError(
            f"array {state.shape[1]}x{state.shape[2]} cannot hold plane "
            f"{target.output_spec.levels}x{target.input_spec.levels}"
        )
    outside = ~((target.grid >= 0.0) & (target.grid <= 1.0))
    if outside.any():
        raise ValueError(f"plane degrees must lie in [0, 1], got {target.grid[outside][0]}")
    _check_programming(epsilon, prog, p)
    grid = target.grid.T * attenuation(p)
    report = _program_stacks([state], lambda *_: grid[None], epsilon, prog, p)[0][0]
    hw.reports[g][j] = report
    return report


def _diode_network(voltages, name: str, axis: int | None, reduce):
    """The min or max a diode network takes, before its forward drop."""
    vs = np.asarray(voltages if axis is not None else [float(v) for v in voltages], dtype=float)
    if vs.size == 0:
        raise ValueError(f"{name} needs at least one input voltage")
    v = reduce(vs, axis=axis)
    return float(v) if axis is None else v


def diode_min(voltages, drop: float = 0.7, axis: int | None = None):
    """Diode-network minimum: min of the inputs plus the forward drop.

    A flat sequence of voltages gives one float; with ``axis``, an array
    holds one network per index of its other axes and is reduced along it.
    """
    return _diode_network(voltages, "diode_min", axis, np.min) + drop


def diode_max(voltages, drop: float = 0.7, axis: int | None = None):
    """Diode-network maximum: max of the inputs minus the forward drop.

    A flat sequence of voltages gives one float; with ``axis``, an array
    holds one network per index of its other axes and is reduced along it.
    """
    return _diode_network(voltages, "diode_max", axis, np.max) - drop


def defuzz_circuit(mu_voltages, n_y: int, floor: float = 0.0):
    """Two-stage adder plus divider: returns the confidence-weighted level index.

    Stage 1 is an inverting adder whose feedback resistor n_y*R against
    input resistors (n_y/i)*R realizes gain -i for level i; stage 2 sums
    with unit gain.  The divider output stage1/stage2 equals
    sum(mu_i*i)/sum(mu_i), a fractional level index the caller dequantizes.
    The ladder's unit resistance R cancels algebraically, so no value of it
    enters the result.

    ``mu_voltages`` is one circuit's n_y level voltages, or a (batch, n_y)
    array with one circuit per row.  When |stage2| is at or below
    ``floor``, the analog counterpart of an uncovered query, one circuit
    raises DividerUnderflowError and a batch row reads NaN.
    """
    # each row's sums run along contiguous memory, as one circuit's do
    mu = np.ascontiguousarray(mu_voltages, dtype=float)
    if mu.ndim not in (1, 2) or mu.shape[-1] != n_y:
        raise ValueError(f"expected {n_y} level voltages, got shape {mu.shape}")
    stage1 = -np.sum(mu * np.arange(1, n_y + 1), axis=-1)
    stage2 = -np.sum(mu, axis=-1)
    under = np.abs(stage2) <= floor
    if mu.ndim == 1:
        if under:
            raise DividerUnderflowError(
                f"divider denominator {abs(stage2):.3e} at or below floor {floor:.3e}"
            )
        return float(stage1) / float(stage2)
    return np.where(under, np.nan, stage1 / np.where(under, 1.0, stage2))


@dataclass
class HardwareModel:
    """A Model programmed onto crossbars, one per (group, input variable).

    ``states[j]`` holds the doped lengths of input j's arrays, one per
    group, shaped (groups, output levels, input levels).  Every array reads
    through the same device and read constants, and ``reports[g][j]`` is
    the programming report of group g's array for input j.
    """

    states: list[np.ndarray]
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

    Every array starts fresh, at R_on, and all of them go through one run
    of the write controller, which settles each distinct (start state,
    target) pair once; each array still gets its own report.  The targets
    of a slab of groups are derived from their stains (``Model.planes``)
    when the slab is keyed, so no stack of the model's planes is held.
    Reads need 0 < v_read < V_th: at a negative bias a fresh cell would
    outread every programmed one.  The min stage adds the diode drop and
    the max stage takes it off, so a drop beyond [0, V_th] would only
    round away the read voltages.
    """
    _check_programming(epsilon, prog, params)
    if not 0 < v_read < params.V_th:
        raise ValueError(f"v_read = {v_read} must lie in (0, V_th = {params.V_th})")
    if not 0 <= diode_drop <= params.V_th:
        raise ValueError(f"diode_drop = {diode_drop} must lie in [0, V_th = {params.V_th}]")
    n_g, att = len(model.groups), attenuation(params)
    states = [np.full((n_g, model.output_spec.levels, spec.levels), params.D) for spec in model.input_specs]
    reports = _program_stacks(states, lambda j, g0, g1: model.planes(j, g0, g1).transpose(0, 2, 1) * att,
                              epsilon, prog, params)
    return HardwareModel(states, list(model.input_specs), model.output_spec, params, v_read, diode_drop, reports)


def crossbar_infer(hw: HardwareModel, x):
    """Analog-path inference: reads, diode min/max cascade, divider, dequantize.

    ``x`` is one query, shaped (n_inputs,), or a batch shaped (batch,
    n_inputs).  One query returns a float and raises DividerUnderflowError
    off the stained region (including the empty model) and ValueError on a
    NaN input.  A batch returns a (batch,) array, NaN where the divider
    underflows or an input is NaN; the other rows do not depend on it.

    The batch is read as the hardware reads it, every array at once: per
    input, the distinct selected columns of its state tensor are read
    once, a bounded slab of groups at a time, and each query gathers its
    rows from them.  The queries then pass, a chunk at a time, through the
    diode min over inputs, the diode max over groups and the divider.
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
    out, n_g = hw.output_spec, len(hw.states[0]) if hw.states else 0
    X = np.where(nan[:, None], [spec.min for spec in hw.input_specs], X)
    n_y = out.levels
    # per input: the voltages of each distinct selected column, (cols, groups,
    # rows), read a bounded slab of groups at a time, and each query's index
    # into them
    reads = []
    for j, (spec, state) in enumerate(zip(hw.input_specs, hw.states) if n_g else ()):
        cols, inverse = np.unique(quantize_many(spec, X[:, j]) - 1, return_inverse=True)
        block = np.empty((len(cols), n_g, n_y))
        slab = max(1, _READ_ELEMENTS // max(1, len(cols) * n_y))
        for g0 in range(0, n_g, slab):
            w = state[g0:g0 + slab].take(cols, axis=2)
            block[:, g0:g0 + slab] = _read_voltages(w, hw.params, hw.v_read).transpose(2, 0, 1)
        reads.append((block, inverse))
    levels = np.empty(len(X))
    step = max(1, _READ_ELEMENTS // (n_in * max(1, n_g) * n_y))
    for b0 in range(0, len(X), step):
        rows = slice(b0, b0 + step)
        if reads:
            # (inputs, queries, groups, rows): min over inputs, max over groups
            plane_vs = np.array([block[inverse[rows]] for block, inverse in reads])
            level_mu = diode_max(diode_min(plane_vs, hw.diode_drop, axis=0), hw.diode_drop, axis=1)
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

