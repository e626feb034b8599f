"""Behavioral analog twin: memristor crossbars evaluating the fuzzy pipeline.

Each plane of the ideal model maps onto a crossbar (one memristor per grid
cell, rows are output levels, columns are input levels).  Cells are
programmed closed-loop to a memristance encoding the cell's confidence,
read out sub-threshold through an inverting op-amp, combined by diode
min/max networks, and defuzzified by a two-stage op-amp adder feeding an
analog divider.

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
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .core import QuantizationSpec, dequantize, quantize
from .errors import DividerUnderflowError, ModeViolationError
from .model import IdsPlane, Model


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


@dataclass
class MemristorState:
    """Doped-region length w of one device; w = D means R_on, w = 0 means R_off."""

    w: float
    params: DeviceParams

    def __post_init__(self):
        if not 0 <= self.w <= self.params.D:
            raise ValueError(f"w = {self.w} outside [0, {self.params.D}]")


def memristance(state: MemristorState) -> float:
    """R_on*(w/D) + R_off*(1 - w/D); monotone decreasing in w."""
    frac = state.w / state.params.D
    return state.params.R_on * frac + state.params.R_off * (1.0 - frac)


def _memristance_of_w(w: np.ndarray, params: DeviceParams) -> np.ndarray:
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
    for _ in range(substeps):
        r2 = np.clip(r2 - params.kappa * v * h, lo, hi)
    return r2


def apply_pulse(state: MemristorState, v: float, dt: float, substeps: int = 10) -> MemristorState:
    """One programming pulse on a single device; sub-threshold pulses are inert.

    The state is untouched (bit-identical) when |v| <= V_th.  Otherwise w
    moves per the linear-drift law, clamped to [0, D], and the same state
    object is returned updated.
    """
    if dt <= 0:
        raise ValueError(f"pulse duration must be positive, got {dt}")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    p = state.params
    if abs(v) <= p.V_th:
        return state
    r2 = _pulse_r_squared(memristance(state) ** 2, v, dt, substeps, p)
    state.w = float(np.clip(_w_of_memristance(math.sqrt(r2), p), 0.0, p.D))
    return state


def attenuation(params: DeviceParams) -> float:
    """Uniform confidence attenuation 1 - R_on/R_off of the readout encoding."""
    return 1.0 - params.R_on / params.R_off


def degree_to_memristance(params: DeviceParams, s: float) -> float:
    """Memristance encoding software degree s: R_on/(1 - s*(1 - R_on/R_off)).

    s = 0 maps to R_on (reads exactly zero), s = 1 maps to R_off, and the
    readout returns s times the attenuation factor, which cancels through
    min, max, and the divider ratio.
    """
    return params.R_on / (1.0 - s * attenuation(params))


@dataclass
class ProgrammingParams:
    """Closed-loop write controller settings.

    Pulses keep a fixed amplitude and adapt their width: starting from
    base_width, the width doubles while the sign of the error is unchanged,
    then halves on every sign reversal, which brackets the target like a
    bisection.  A fixed-width scheme at these device constants would need
    ~3e5 pulses to cross the full resistance range and could not settle
    within tight epsilon near R_on.
    """

    v_prog: float = 1.5
    base_width: float = 1e-6
    substeps: int = 10
    budget_per_cell: int = 10_000

    def __post_init__(self):
        if not (math.isfinite(self.v_prog) and math.isfinite(self.base_width)):
            raise ValueError("v_prog and base_width must be finite")
        if self.v_prog <= 0 or self.base_width <= 0:
            raise ValueError("v_prog and base_width must be positive")
        if self.substeps < 1 or self.budget_per_cell < 1:
            raise ValueError("substeps and budget_per_cell must be >= 1")


@dataclass
class ProgrammingReport:
    """Per-cell outcome of one program_plane run."""

    pulse_counts: np.ndarray
    residuals: np.ndarray
    budget_exhausted: np.ndarray
    epsilon: float
    iterations: int

    @property
    def converged(self) -> bool:
        return not bool(self.budget_exhausted.any())

    @property
    def total_pulses(self) -> int:
        return int(self.pulse_counts.sum())

    @property
    def max_abs_residual(self) -> float:
        return float(np.abs(self.residuals).max()) if self.residuals.size else 0.0


class CrossbarArray:
    """One plane's worth of memristors plus its readout and bias constants.

    Rows index output levels, columns index input levels (both 1-based in
    the public API).  ``w`` holds every cell's doped-region length; all
    cells start at w = D, i.e. R_on, the all-zero-confidence state.  The
    reference voltage is fixed to -v_read and the feedback resistor to R_on,
    which is what makes a fresh cell read exactly zero.

    A mode flag stands in for the learning-path isolation switches: user
    reads are refused while the write controller owns the array.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        params: DeviceParams = DeviceParams(),
        v_read: float = 0.5,
        diode_drop: float = 0.7,
    ):
        if rows < 1 or cols < 1:
            raise ValueError(f"array must be at least 1x1, got {rows}x{cols}")
        if not 0 < abs(v_read) < params.V_th:
            raise ValueError(f"|v_read| = {abs(v_read)} must lie in (0, V_th = {params.V_th})")
        self.rows = rows
        self.cols = cols
        self.params = params
        self.v_read = v_read
        self.v_ref = -v_read
        self.R_f = params.R_on
        self.diode_drop = diode_drop
        self.w = np.full((rows, cols), params.D, dtype=float)
        self._mode = "read"

    @property
    def mode(self) -> str:
        return self._mode

    def set_mode(self, mode: str) -> None:
        if mode not in ("read", "program"):
            raise ValueError(f"unknown mode {mode!r}")
        self._mode = mode

    def _require_read(self) -> None:
        if self._mode != "read":
            raise ModeViolationError("array is being programmed; reads are isolated")

    def memristance_grid(self) -> np.ndarray:
        return _memristance_of_w(self.w, self.params)

    def cell(self, row: int, col: int) -> MemristorState:
        """Snapshot of one device's state (1-based row/col)."""
        return MemristorState(float(self.w[row - 1, col - 1]), self.params)


def read_confidence(array: CrossbarArray, col: int, row: int) -> float:
    """Op-amp readout of one cell, normalized by v_read.

    v_out = -v_ref + v_read*(-R_f/R_m) with v_ref = -v_read and R_f = R_on,
    so the returned degree is 1 - R_on/R_m: exactly 0 at R_on, approaching
    1 - R_on/R_off at R_off.
    """
    array._require_read()
    r_m = float(_memristance_of_w(array.w[row - 1, col - 1], array.params))
    v_out = -array.v_ref + array.v_read * (-(array.R_f / r_m))
    return v_out / array.v_read


def _read_voltages(array: CrossbarArray, w: np.ndarray) -> np.ndarray:
    """Op-amp output voltages of cells with doped lengths ``w``, read through
    ``array``'s device and bias constants."""
    r = _memristance_of_w(w, array.params)
    return -array.v_ref + array.v_read * (-(array.R_f / r))


def read_column_voltages(array: CrossbarArray, col: int) -> np.ndarray:
    """Raw op-amp output voltages of every row for one selected column."""
    array._require_read()
    return _read_voltages(array, array.w[:, col - 1])


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


def _program_arrays(
    arrays: list[CrossbarArray],
    targets: Iterable[np.ndarray],
    epsilon: float,
    prog: ProgrammingParams,
) -> list[ProgrammingReport]:
    """Program-and-verify arrays sharing one set of device constants.

    ``targets`` yields each array's hardware target grid.  A cell's
    trajectory depends only on its start state and its target, so the
    controller settles each distinct (state, target) pair once and the
    outcome is copied to every cell holding that pair.  A cell that goes
    inactive never moves again, so an array's iteration count is its
    largest pulse count.
    """
    if not arrays:
        return []
    p = arrays[0].params
    for array in arrays:
        array.set_mode("program")
    try:
        # per array, runs of equal neighbours (the unstained background)
        # collapse to one complex (state, target) key each; a NaN target
        # stays a pair of its own, as it would in a per-cell loop
        run_keys, run_lengths = [], []
        for array, target in zip(arrays, targets):
            key = array.w.ravel() + 1j * target.ravel()
            starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            run_keys.append(key[starts])
            run_lengths.append(np.diff(np.r_[starts, key.size]))
        pairs, run_pair = np.unique(np.concatenate(run_keys), return_inverse=True, equal_nan=False)
        w, pulses = _settle(pairs.real, pairs.imag, epsilon, prog, p)
        residuals = (1.0 - p.R_on / _memristance_of_w(w, p)) - pairs.imag
        exhausted = (np.abs(residuals) > epsilon) & (pulses >= prog.budget_per_cell)
        reports = []
        stop = 0
        for array, lengths in zip(arrays, run_lengths):
            runs = run_pair[stop:stop + lengths.size]
            stop += lengths.size
            shape = array.w.shape

            def cells(per_pair):
                return np.repeat(per_pair[runs], lengths).reshape(shape)

            array.w = cells(w)
            reports.append(ProgrammingReport(cells(pulses), cells(residuals), cells(exhausted),
                                             epsilon, int(pulses[runs].max())))
        return reports
    finally:
        for array in arrays:
            array.set_mode("read")


def program_plane(
    array: CrossbarArray,
    target: IdsPlane,
    epsilon: float,
    prog: ProgrammingParams = ProgrammingParams(),
) -> ProgrammingReport:
    """Program-and-verify the whole array to mirror a confidence plane.

    Each cell's hardware target is its software degree scaled by the
    attenuation factor; cells are driven until within ``epsilon`` of it or
    out of pulse budget.
    """
    p = array.params
    if (array.rows, array.cols) != (target.output_spec.levels, target.input_spec.levels):
        raise ValueError(
            f"array {array.rows}x{array.cols} cannot hold plane "
            f"{target.output_spec.levels}x{target.input_spec.levels}"
        )
    _check_programming(epsilon, prog, p)
    return _program_arrays([array], [target.grid.T * attenuation(p)], epsilon, prog)[0]


def program_plane_exact(array: CrossbarArray, target: IdsPlane) -> None:
    """Set cell states directly to the encoded targets (the epsilon -> 0 limit).

    A measurement-free idealization used to check that the attenuated
    hardware path agrees with the ideal pipeline once programming error is
    out of the picture.
    """
    p = array.params
    if (array.rows, array.cols) != (target.output_spec.levels, target.input_spec.levels):
        raise ValueError("array dimensions do not match the plane")
    r = p.R_on / (1.0 - target.grid.T * attenuation(p))
    array.w = np.clip(_w_of_memristance(r, p), 0.0, p.D)


def diode_min(voltages, drop: float = 0.7) -> float:
    """Diode-network minimum: min of the inputs plus the forward drop."""
    vs = [float(v) for v in voltages]
    if not vs:
        raise ValueError("diode_min needs at least one input voltage")
    return min(vs) + drop


def diode_max(voltages, drop: float = 0.7) -> float:
    """Diode-network maximum: max of the inputs minus the forward drop."""
    vs = [float(v) for v in voltages]
    if not vs:
        raise ValueError("diode_max needs at least one input voltage")
    return max(vs) - drop


def defuzz_circuit(mu_voltages, n_y: int, R: float = 1000.0, floor: float = 0.0) -> float:
    """Two-stage adder plus divider: returns the confidence-weighted level index.

    Stage 1 is an inverting adder whose feedback resistor n_y*R against
    input resistors (n_y/i)*R realizes gain -i for level i; stage 2 sums
    with unit gain.  The divider output stage1/stage2 equals
    sum(mu_i*i)/sum(mu_i), a fractional level index the caller dequantizes.
    R cancels algebraically and is kept only as the ladder's unit value.

    Raises DividerUnderflowError when |stage2| is at or below ``floor``,
    the analog counterpart of an uncovered query.
    """
    mu = np.asarray(mu_voltages, dtype=float)
    if mu.shape != (n_y,):
        raise ValueError(f"expected {n_y} level voltages, got shape {mu.shape}")
    if R <= 0:
        raise ValueError("unit resistance must be positive")
    stage1 = -float(np.sum(mu * np.arange(1, n_y + 1)))
    stage2 = -float(np.sum(mu))
    if abs(stage2) <= floor:
        raise DividerUnderflowError(
            f"divider denominator {abs(stage2):.3e} at or below floor {floor:.3e}"
        )
    return stage1 / stage2


@dataclass
class HardwareModel:
    """A programmed crossbar per (group, input variable), mirroring a Model."""

    group_arrays: list[list[CrossbarArray]]
    input_specs: list[QuantizationSpec]
    output_spec: QuantizationSpec
    diode_drop: float
    divider_floor: float
    reports: list[list[ProgrammingReport]] = field(default_factory=list)

    @property
    def n_groups(self) -> int:
        return len(self.group_arrays)

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
    exact: bool = False,
) -> HardwareModel:
    """Build and program one crossbar per plane of the given model.

    Every array of the model goes through one run of the write controller,
    which settles each distinct (start state, target) pair once; each array
    still gets its own report.
    """
    _check_programming(epsilon, prog, params)
    stacks = model.input_stacks()
    group_arrays = [[CrossbarArray(model.output_spec.levels, spec.levels, params, v_read, diode_drop)
                     for spec in model.input_specs] for _ in model.groups]
    arrays = [arr for row in group_arrays for arr in row]
    planes = [IdsPlane(spec, model.output_spec, stack[g]) for g in range(len(group_arrays))
              for spec, stack in zip(model.input_specs, stacks)]
    if exact:
        for arr, plane in zip(arrays, planes):
            program_plane_exact(arr, plane)
        reports: list[list[ProgrammingReport]] = [[] for _ in group_arrays]
    else:
        att = attenuation(params)
        flat = _program_arrays(arrays, (plane.grid.T * att for plane in planes), epsilon, prog)
        n_in = model.n_inputs
        reports = [flat[k:k + n_in] for k in range(0, len(flat), n_in)]
    return HardwareModel(
        group_arrays,
        list(model.input_specs),
        model.output_spec,
        diode_drop,
        1e-4 * abs(v_read),
        reports,
    )


def crossbar_infer(hw: HardwareModel, x) -> float:
    """Analog-path inference: reads, diode min/max cascade, divider, dequantize.

    Every array of ``hw`` shares the device and read constants that
    program_from_model gave it.  Per input, the selected column of every
    group is gathered and read in one step.  Raises DividerUnderflowError
    off the stained region (including the empty model) and
    ModeViolationError if any array is still being programmed.
    """
    xs = [float(v) for v in x]
    if len(xs) != len(hw.input_specs):
        raise ValueError(f"query has {len(xs)} inputs, model expects {len(hw.input_specs)}")
    cols = [quantize(spec, xi) for spec, xi in zip(hw.input_specs, xs)]
    n_y = hw.output_spec.levels
    drop = hw.diode_drop
    level_mu = np.zeros(n_y)
    if hw.group_arrays:
        for arrays in hw.group_arrays:
            for arr in arrays:
                arr._require_read()
        # (inputs, groups, rows): min over inputs, then max over groups
        w = np.array([[arrays[j].w[:, col - 1] for arrays in hw.group_arrays]
                      for j, col in enumerate(cols)])
        plane_vs = _read_voltages(hw.group_arrays[0][0], w)
        level_mu = (np.minimum.reduce(plane_vs) + drop).max(axis=0) - drop
    level = defuzz_circuit(level_mu, n_y, floor=hw.divider_floor)
    level = min(max(level, 1.0), float(n_y))
    return dequantize(hw.output_spec, level)


def array_state_to_csv(array: CrossbarArray, path) -> None:
    """Dump per-cell state: row, col (1-based), w/D, memristance."""
    grid = array.memristance_grid()
    with open(path, "w") as fh:
        fh.write("row,col,w_over_D,memristance_ohm\n")
        for r in range(array.rows):
            for c in range(array.cols):
                fh.write(f"{r + 1},{c + 1},{array.w[r, c] / array.params.D:.9g},{grid[r, c]:.9g}\n")


def report_to_csv(report: ProgrammingReport, path) -> None:
    """Dump per-cell programming outcome: pulses, residual, budget flag."""
    rows, cols = report.pulse_counts.shape
    with open(path, "w") as fh:
        fh.write("row,col,pulses,residual,budget_exhausted\n")
        for r in range(rows):
            for c in range(cols):
                fh.write(
                    f"{r + 1},{c + 1},{report.pulse_counts[r, c]},"
                    f"{report.residuals[r, c]:.9g},{int(report.budget_exhausted[r, c])}\n"
                )
