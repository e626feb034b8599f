"""Device model, closed-loop programming, analog stages, end-to-end twin."""

import dataclasses
import functools
import math
import tracemalloc
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inkspread import crossbar
from inkspread.core import QuantizationSpec, StainRadii
from inkspread.errors import DividerUnderflowError, NoCoverageError
from inkspread.crossbar import (
    MAX_SUBSTEPS,
    DeviceParams,
    ProgrammingParams,
    _memristance_of_w,
    _pulse_r_squared,
    _w_of_memristance,
    attenuation,
    crossbar_infer,
    defuzz_circuit,
    diode_max,
    diode_min,
    program_from_model,
    program_plane,
    read_column_voltages,
)
from inkspread.datasets import gen_f2
from inkspread.inference import infer
from inkspread.model import IdsGroup, IdsPlane, Model, Sample, diffuse, train_full, train_merged

from reference import (
    crossbar_infer_reference,
    divider_reference,
    empty_plane,
    plane_reference,
    program_from_model_exact,
    program_from_model_reference,
    program_plane_exact,
    program_plane_reference,
    read_column_reference,
    read_voltages_reference,
    states_of,
    with_states,
)

P = DeviceParams()


def pulse(w, v, dt, substeps=10):
    """Doped lengths ``w`` after one pulse, by the drift law the write
    controller applies: w to R_M^2, the pulse, and back, clamped to [0, D]."""
    r2 = _pulse_r_squared(_memristance_of_w(np.asarray(w, dtype=float), P) ** 2, v, dt, substeps, P)
    return np.clip(_w_of_memristance(np.sqrt(r2), P), 0.0, P.D)


def fresh_twin(rows, cols, groups=1, v_read=0.5):
    """A twin of ``groups`` fresh rows x cols arrays for one input, every
    cell at R_on: the twin of a model whose groups are all empty."""
    model = Model([IdsGroup() for _ in range(groups)], [QuantizationSpec(0.0, 1.0, cols)],
                  QuantizationSpec(0.0, 1.0, rows), StainRadii(1.0, 1.0))
    return program_from_model(model, 0.01, v_read=v_read)


def degrees(hw, col):
    """The degrees one column of array (0, 0) reads, v_out / v_read."""
    return read_column_voltages(hw, 0, 0, col) / hw.v_read


class TestDeviceModel:
    def test_fully_doped_is_minimum_resistance(self):
        assert _memristance_of_w(np.array(P.D), P) == P.R_on

    def test_undoped_is_maximum_resistance(self):
        assert _memristance_of_w(np.array(0.0), P) == P.R_off

    def test_half_doped(self):
        assert _memristance_of_w(np.array(P.D / 2), P) == pytest.approx(5050.0)

    def test_monotone_decreasing_in_w(self):
        rs = _memristance_of_w(np.linspace(0, P.D, 50), P)
        assert (np.diff(rs) < 0).all()

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            DeviceParams(R_on=500.0, R_off=100.0)
        with pytest.raises(ValueError):
            DeviceParams(D=0.0)

    @pytest.mark.parametrize("field", ["D", "R_on", "R_off", "mu_v", "V_th"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_device_constants_rejected(self, field, value):
        with pytest.raises(ValueError):
            DeviceParams(**{field: value})

    @pytest.mark.parametrize("constants", [{"R_on": 1e-300}, {"R_off": 1e300}])
    def test_squared_resistances_must_be_positive_and_finite(self, constants):
        """The write controller steps R_M^2 between R_on^2 and R_off^2."""
        with pytest.raises(ValueError):
            DeviceParams(**constants)

    @pytest.mark.parametrize("constants", [{"D": 1e-200}, {"D": 1e200}, {"mu_v": 1e300}])
    def test_drift_rate_must_be_positive_and_finite(self, constants):
        with pytest.raises(ValueError):
            DeviceParams(**constants)

    @pytest.mark.parametrize("field", ["v_prog", "base_width"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_controller_constants_rejected(self, field, value):
        with pytest.raises(ValueError):
            ProgrammingParams(**{field: value})

    def test_substeps_are_capped(self):
        assert ProgrammingParams(substeps=MAX_SUBSTEPS).substeps == MAX_SUBSTEPS
        for substeps in (0, MAX_SUBSTEPS + 1, 10**9):
            with pytest.raises(ValueError):
                ProgrammingParams(substeps=substeps)

    @pytest.mark.parametrize("field", ["substeps", "budget_per_cell"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, False, "3", None])
    def test_counts_that_are_not_integers_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ProgrammingParams(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        prog = ProgrammingParams(substeps=np.int64(3), budget_per_cell=np.int32(40))
        assert (prog.substeps, prog.budget_per_cell) == (3, 40)

    def test_a_pulse_too_wide_to_drift_in_floats_lands_on_a_rail(self):
        # the drift overflows to inf; the clip puts the cell on the rail
        # its sign points to, and numpy does not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r2 = _pulse_r_squared(np.array([P.R_on * P.R_off] * 2), np.array([1.5, -1.5]), 1e308, 10, P)
        assert r2.tolist() == [P.R_on**2, P.R_off**2]


class TestApplyPulse:
    """One programming pulse, as the write controller applies it."""

    def test_sub_threshold_is_bit_identical(self):
        # the only sub-threshold drive a cell sees outside a write is the
        # read voltage, 0 < v_read < V_th, and no read moves any cell
        rng = np.random.default_rng(4)
        for v_read in (0.5, 0.999, 1e-3):
            hw = with_states(fresh_twin(3, 5, v_read=v_read), [rng.uniform(0.0, P.D, size=(1, 3, 5))])
            before = hw.codes[0].copy(), hw.palette.copy()
            for col in range(1, 6):
                read_column_voltages(hw, 0, 0, col)
            assert same_bits(hw.codes[0], before[0]) and same_bits(hw.palette, before[1])

    def test_positive_pulse_lowers_memristance(self):
        w = 0.5 * P.D
        assert _memristance_of_w(pulse(w, 1.5, 1e-6), P) < _memristance_of_w(np.array(w), P)

    def test_negative_pulse_raises_memristance(self):
        w = 0.5 * P.D
        assert _memristance_of_w(pulse(w, -1.5, 1e-6), P) > _memristance_of_w(np.array(w), P)

    def test_opposite_pulses_return_to_start(self):
        w0 = 0.4 * P.D
        w = pulse(w0, 1.5, 2e-6, substeps=100)
        assert w != w0 and 0.0 < w < P.D
        assert abs(pulse(w, -1.5, 2e-6, substeps=100) - w0) <= 1e-9 * P.D

    def test_longer_pulse_moves_strictly_more(self):
        assert pulse(0.5 * P.D, 1.5, 3e-6) > pulse(0.5 * P.D, 1.5, 1e-6)

    def test_state_clamped_at_rails(self):
        # kappa*v ~ 3e8 ohm^2/s, so ~0.35 s of drive sweeps the full range
        w = np.array(0.9 * P.D)
        for _ in range(80):
            w = pulse(w, 1.5, 5e-3)
        assert w == P.D
        assert _memristance_of_w(w, P) == P.R_on
        for _ in range(80):
            w = pulse(w, -1.5, 5e-3)
        assert w == 0.0
        assert _memristance_of_w(w, P) == P.R_off


class TestEncodingAndReadout:
    UNIT = QuantizationSpec(0.0, 1.0, 2)

    def exact(self, *degree_pairs):
        """A 2x2 array programmed exactly to a plane of the given degrees."""
        plane = IdsPlane(self.UNIT, self.UNIT, np.array(degree_pairs, dtype=float))
        hw = fresh_twin(2, 2)
        states = states_of(hw)
        program_plane_exact(states[0][0], plane)
        return with_states(hw, states)

    def test_attenuation_at_defaults(self):
        assert attenuation(P) == pytest.approx(0.99)

    def test_degree_encoding_endpoints(self):
        r = _memristance_of_w(states_of(self.exact((0.0, 1.0), (1.0, 0.0)))[0][0], P)
        assert r[0, 0] == r[1, 1] == P.R_on
        assert r[0, 1] == pytest.approx(P.R_off) and r[1, 0] == pytest.approx(P.R_off)

    def test_fresh_cell_reads_exactly_zero(self):
        hw = fresh_twin(4, 4)
        assert degrees(hw, 2)[2] == 0.0
        assert (read_column_voltages(hw, 0, 0, 3) == 0.0).all()

    @staticmethod
    def one_cell(w):
        """A fresh 2x2 array whose first cell holds doped length ``w``."""
        hw = fresh_twin(2, 2)
        states = states_of(hw)
        states[0][0, 0, 0] = w
        return with_states(hw, states)

    def test_read_at_r_off(self):
        assert degrees(self.one_cell(0.0), 1)[0] == pytest.approx(0.99)

    def test_read_at_twice_r_on(self):
        hw = self.one_cell((P.R_off - 2 * P.R_on) / (P.R_off - P.R_on) * P.D)
        assert degrees(hw, 1)[0] == pytest.approx(0.5)

    def test_encode_then_read_recovers_attenuated_degree(self):
        for s in (0.1, 0.5, 0.93):
            hw = self.exact((s, 0.0), (0.0, s))
            assert degrees(hw, 1)[0] == pytest.approx(s * attenuation(P))
            assert degrees(hw, 2)[1] == pytest.approx(s * attenuation(P))

    @pytest.mark.parametrize("col", [0, -1, 4])
    def test_columns_outside_one_to_cols_rejected(self, col):
        # 0 and -1 would wrap around to the last columns
        with pytest.raises(ValueError, match="column"):
            read_column_voltages(fresh_twin(2, 3), 0, 0, col)

    @pytest.mark.parametrize("col", [True, False, np.bool_(True), 1.5, 2.0, "2", None])
    def test_a_column_that_is_not_an_integer_rejected(self, col):
        # True would read column 1, and 1.5 would fail inside numpy
        with pytest.raises(ValueError, match=f"column must be an integer, got {col!r}"):
            read_column_voltages(fresh_twin(2, 3), 0, 0, col)

    @pytest.mark.parametrize("col", [np.int64(2), np.uint8(2), np.int32(2)])
    def test_a_numpy_integer_column_accepted(self, col):
        hw = fresh_twin(OUT6.levels, IN8.levels)
        program_plane(hw, 0, 0, stain_plane(), 0.01)
        assert same_bits(read_column_voltages(hw, 0, 0, col), read_column_voltages(hw, 0, 0, 2))

    def test_reads_leave_every_array_bitwise_unchanged(self, worked_model):
        hw = program_from_model(worked_model, epsilon=0.01)
        before = [codes.copy() for codes in hw.codes], hw.palette.copy()
        rng = np.random.default_rng(0)
        queries = np.column_stack([rng.uniform(s.min, s.max, 300) for s in worked_model.input_specs])
        crossbar_infer(hw, queries)
        crossbar_infer(hw, queries[:1])
        assert all(same_bits(codes, c) for codes, c in zip(hw.codes, before[0]))
        assert same_bits(hw.palette, before[1])
        assert (read_column_voltages(fresh_twin(3, 2), 0, 0, 2) == 0.0).all()


IN8 = QuantizationSpec(0, 7, 8)
OUT6 = QuantizationSpec(0, 5, 6)


def stain_plane():
    plane = empty_plane(IN8, OUT6)
    diffuse(plane, 4, 3, StainRadii(3, 2))
    return plane


class TestProgramPlane:
    def test_zero_target_needs_zero_pulses(self):
        hw = fresh_twin(OUT6.levels, IN8.levels)
        report = program_plane(hw, 0, 0, empty_plane(IN8, OUT6), 0.01)
        assert report.total_pulses == 0
        assert np.all(states_of(hw)[0] == P.D)

    def test_stain_target_converges_within_epsilon(self):
        hw = fresh_twin(OUT6.levels, IN8.levels)
        report = program_plane(hw, 0, 0, stain_plane(), 0.01)
        assert not report.budget_exhausted.any()
        assert report.max_abs_residual <= 0.01

    def test_reprogramming_converged_plane_is_free(self):
        hw = fresh_twin(OUT6.levels, IN8.levels)
        program_plane(hw, 0, 0, stain_plane(), 0.01)
        again = program_plane(hw, 0, 0, stain_plane(), 0.01)
        assert again.total_pulses == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_planes_converge_at_half_percent(self, seed):
        rng = np.random.default_rng(seed)
        plane = empty_plane(IN8, OUT6)
        plane.grid[:] = rng.uniform(0, 1, plane.grid.shape)
        hw = fresh_twin(OUT6.levels, IN8.levels)
        report = program_plane(hw, 0, 0, plane, 0.005)
        assert not report.budget_exhausted.any()
        assert report.max_abs_residual <= 0.005

    def test_budget_exhaustion_is_reported_not_fatal(self):
        hw = fresh_twin(OUT6.levels, IN8.levels)
        prog = ProgrammingParams(budget_per_cell=1)
        report = program_plane(hw, 0, 0, stain_plane(), 1e-4, prog)
        assert report.budget_exhausted.any()
        read_column_voltages(hw, 0, 0, 1)

    def test_the_report_replaces_the_arrays_own(self):
        """Only array (g, j)'s report changes, and worst_residual follows it."""
        hw = fresh_twin(OUT6.levels, IN8.levels, groups=3)
        before = [row[:] for row in hw.reports]
        report = program_plane(hw, 1, 0, stain_plane(), 0.05)
        assert hw.reports[1][0] is report
        assert hw.reports[0][0] is before[0][0] and hw.reports[2][0] is before[2][0]
        assert hw.worst_residual == report.max_abs_residual > 0.0
        again = program_plane(hw, 1, 0, empty_plane(IN8, OUT6), 0.01)
        assert hw.reports[1][0] is again and hw.worst_residual == again.max_abs_residual

    def test_a_negative_index_counts_from_the_end(self):
        hw = fresh_twin(OUT6.levels, IN8.levels, groups=3)
        report = program_plane(hw, -2, -1, stain_plane(), 0.01)
        assert hw.reports[1][0] is report
        state = states_of(hw)[0]
        assert np.all(state[[0, 2]] == P.D) and not np.all(state[1] == P.D)
        assert same_bits(read_column_voltages(hw, -2, -1, 5), read_column_voltages(hw, 1, 0, 5))

    @pytest.mark.parametrize("g, j", [(3, 0), (-4, 0), (0, 1), (0, -2)])
    def test_an_array_outside_the_twin_rejected(self, g, j):
        hw = fresh_twin(OUT6.levels, IN8.levels, groups=3)
        with pytest.raises(IndexError):
            program_plane(hw, g, j, stain_plane(), 0.01)
        with pytest.raises(IndexError):
            read_column_voltages(hw, g, j, 1)
        assert np.all(states_of(hw)[0] == P.D)

    @pytest.mark.parametrize("g, j, name", [(True, 0, "group g"), (np.bool_(True), 0, "group g"),
                                            (1.0, 0, "group g"), ("1", 0, "group g"), (None, 0, "group g"),
                                            (0, True, "input j"), (0, False, "input j"), (0, 0.0, "input j")])
    def test_an_index_that_is_not_an_integer_rejected(self, g, j, name):
        # True read and programmed group 1 of a two-group twin, or input 1
        hw = fresh_twin(OUT6.levels, IN8.levels, groups=2)
        value = g if name == "group g" else j
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            program_plane(hw, g, j, stain_plane(), 0.01)
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            read_column_voltages(hw, g, j, 1)
        assert np.all(states_of(hw)[0] == P.D)
        assert all(r.total_pulses == 0 for row in hw.reports for r in row)

    def test_numpy_integer_indices_accepted(self):
        hw = fresh_twin(OUT6.levels, IN8.levels, groups=3)
        report = program_plane(hw, np.int64(1), np.uint8(0), stain_plane(), 0.01)
        assert hw.reports[1][0] is report and report.total_pulses > 0
        assert same_bits(read_column_voltages(hw, np.int32(-2), np.int64(0), 5), read_column_voltages(hw, 1, 0, 5))

    def test_dimension_mismatch_rejected(self):
        hw = fresh_twin(3, 3)
        with pytest.raises(ValueError):
            program_plane(hw, 0, 0, stain_plane(), 0.01)

    def test_programming_voltage_window_enforced(self):
        hw = fresh_twin(OUT6.levels, IN8.levels)
        with pytest.raises(ValueError):
            program_plane(hw, 0, 0, stain_plane(), 0.01, ProgrammingParams(v_prog=0.8))
        with pytest.raises(ValueError):
            program_plane(hw, 0, 0, stain_plane(), 0.01, ProgrammingParams(v_prog=2.5))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1.5, -0.5])
    def test_degrees_outside_zero_to_one_rejected(self, value):
        """One bad cell refuses the whole plane before any pulse."""
        hw = fresh_twin(OUT6.levels, IN8.levels)
        plane = stain_plane()
        plane.grid[2, 1] = value
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            program_plane(hw, 0, 0, plane, 0.01)
        assert np.all(read_column_voltages(hw, 0, 0, 1) == 0.0) and np.all(states_of(hw)[0] == P.D)

    def test_degrees_at_zero_and_one_program(self):
        hw = fresh_twin(OUT6.levels, IN8.levels)
        plane = empty_plane(IN8, OUT6)
        plane.grid[0, 0] = plane.grid[-1, -1] = 1.0
        report = program_plane(hw, 0, 0, plane, 0.01)
        assert report.max_abs_residual <= 0.01 and not report.budget_exhausted.any()

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1.0])
    def test_bad_epsilon_rejected(self, eps):
        hw = fresh_twin(OUT6.levels, IN8.levels)
        with pytest.raises(ValueError):
            program_plane(hw, 0, 0, stain_plane(), eps)
        assert np.all(read_column_voltages(hw, 0, 0, 1) == 0.0) and np.all(states_of(hw)[0] == P.D)

    def test_exact_programming_reads_back_attenuated_grid(self):
        fresh = fresh_twin(OUT6.levels, IN8.levels)
        plane = stain_plane()
        states = states_of(fresh)
        program_plane_exact(states[0][0], plane)
        hw = with_states(fresh, states)
        att = attenuation(P)
        for col in range(1, IN8.levels + 1):
            assert degrees(hw, col) == pytest.approx(plane.grid[col - 1] * att, abs=1e-12)


class TestDiodeStages:
    def test_min_adds_drop(self):
        assert diode_min([0.3, 0.7], 0.7, axis=0) == pytest.approx(1.0)

    def test_single_input(self):
        assert diode_min([0.2], 0.7, axis=0) == pytest.approx(0.9)
        assert diode_max([0.2], 0.7, axis=0) == pytest.approx(-0.5)

    def test_max_subtracts_drop(self):
        assert diode_max([0.87, 1.04], 0.7, axis=0) == pytest.approx(0.34)

    def test_permutation_invariance(self):
        vs = [0.11, 0.93, 0.41, 0.67]
        assert diode_min(vs, axis=0) == diode_min(list(reversed(vs)), axis=0)
        assert diode_max(vs, axis=0) == diode_max(sorted(vs), axis=0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            diode_min([], axis=0)
        with pytest.raises(ValueError):
            diode_max([], axis=0)

    def test_the_axis_is_required(self):
        with pytest.raises(TypeError):
            diode_min([0.3, 0.7], 0.7)
        with pytest.raises(TypeError):
            diode_max([0.3, 0.7], 0.7)

    def test_cascade_cancellation_on_grid_voltages_is_exact(self):
        rng = np.random.default_rng(42)
        drop = 0.75
        for _ in range(300):
            groups = [rng.integers(0, 2 ** 20, size=rng.integers(1, 5)) / 2.0 ** 20
                      for _ in range(rng.integers(1, 6))]
            cascade = diode_max([diode_min(g, drop, axis=0) for g in groups], drop, axis=0)
            assert cascade == max(min(g) for g in groups)

    def test_an_axis_reduces_one_network_per_remaining_index(self):
        vs = np.array([[[0.3, 0.1], [0.2, 0.5]], [[0.4, 0.0], [0.6, 0.25]]])
        assert same_bits(diode_min(vs, 0.7, axis=0), vs.min(axis=0) + 0.7)
        assert same_bits(diode_max(vs, 0.7, axis=1), vs.max(axis=1) - 0.7)
        cascade = diode_max(diode_min(vs, 0.7, axis=0), 0.7, axis=0)
        assert same_bits(cascade, np.array([diode_max([diode_min(vs[:, g, t], 0.7, axis=0) for g in range(2)],
                                                      0.7, axis=0) for t in range(2)]))

    def test_empty_array_rejected_along_an_axis(self):
        with pytest.raises(ValueError):
            diode_min(np.zeros((0, 3)), axis=0)
        with pytest.raises(ValueError):
            diode_max(np.zeros((2, 0)), axis=1)

    def test_cascade_cancellation_general_voltages(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            groups = [rng.uniform(0, 0.5, size=rng.integers(1, 5))
                      for _ in range(rng.integers(1, 6))]
            cascade = diode_max([diode_min(g, axis=0) for g in groups], axis=0)
            assert cascade == pytest.approx(max(min(g) for g in groups), abs=1e-12)


class TestDefuzzCircuit:
    """The divider takes one circuit per row of a (batch, n_y) array."""

    def test_paper_operands(self):
        assert defuzz_circuit(np.array([[0.67, 0.34]]), 2)[0] == pytest.approx(1.3366, abs=1e-4)

    def test_one_hot_returns_level_index(self):
        mu = np.zeros((1, 5))
        mu[0, 3] = 0.42
        assert defuzz_circuit(mu, 5).tolist() == [4.0]

    def test_halving_all_confidences_changes_nothing(self):
        mu = np.array([[0.1, 0.5, 0.25, 0.0]])
        assert same_bits(defuzz_circuit(0.5 * mu, 4), defuzz_circuit(mu, 4))

    def test_all_zero_reads_nan(self):
        assert np.isnan(defuzz_circuit(np.zeros((1, 3)), 3)).all()

    def test_floor_boundary_is_inclusive(self):
        mu = np.array([[0.0, 1e-4]])
        assert np.isnan(defuzz_circuit(mu, 2, floor=1e-4)).all()
        assert defuzz_circuit(mu, 2, floor=9e-5).tolist() == [2.0]

    def test_length_mismatch_rejected(self):
        # one circuit's flat voltages are refused too: a single query is a
        # batch of one row
        for shape in [(4,), (3,), (2, 3), (2, 2, 4), ()]:
            with pytest.raises(ValueError, match=r"expected \(batch, 4\)"):
                defuzz_circuit(np.zeros(shape), 4)

    def test_rows_are_circuits_and_an_underflow_reads_nan(self):
        rng = np.random.default_rng(5)
        mu = rng.uniform(0, 1, (6, 9)) * (rng.uniform(size=(6, 1)) < 0.7)
        mu[2] = 0.0
        got = defuzz_circuit(mu, 9, floor=1e-4)
        assert got.shape == (6,) and np.isnan(got[2])
        for row, value in zip(mu, got):
            try:
                want = divider_reference(row, 9, 1e-4)
            except DividerUnderflowError:
                assert np.isnan(value)
                continue
            assert repr(float(value)) == repr(want)


SPECS = [QuantizationSpec(1, 10, 19), QuantizationSpec(1, 10, 19)]
OUT = QuantizationSpec(1, 2, 2)
SAMPLES = [Sample((1.5, 4.0), 2.0), Sample((3.0, 4.0), 1.0)]


@pytest.fixture(scope="module")
def worked_model():
    return train_full(SAMPLES, SPECS, OUT, StainRadii(3.0, 1.5))


@functools.cache
def twin_model():
    """The 50-sample f2 model of the hardware-twin acceptance test and of
    the crossbar-twin benchmark: 64 levels per axis and radii of 10."""
    ds = gen_f2(50, 123)
    specs = [QuantizationSpec(lo, hi, 64) for lo, hi in ds.input_ranges]
    outs = [s.output for s in ds.samples]
    return train_full(ds.samples, specs, QuantizationSpec(min(outs), max(outs), 64), StainRadii(10.0, 10.0))


def covered_queries(model, rng, count):
    out = []
    while len(out) < count:
        q = tuple(rng.uniform(1, 10, 2))
        try:
            out.append((q, infer(model, q)))
        except NoCoverageError:
            continue
    return out


class TestEndToEnd:
    def test_worked_model_within_two_percent(self, worked_model):
        hw = program_from_model(worked_model, epsilon=0.01)
        assert hw.worst_residual <= 0.01
        rng = np.random.default_rng(7)
        span = OUT.max - OUT.min
        for q, ideal in covered_queries(worked_model, rng, 40):
            assert abs(crossbar_infer(hw, q) - ideal) <= 0.02 * span

    def test_error_budget_three_epsilon(self, worked_model):
        eps = 0.01
        hw = program_from_model(worked_model, epsilon=eps)
        rng = np.random.default_rng(8)
        span = OUT.max - OUT.min
        for q, ideal in covered_queries(worked_model, rng, 60):
            assert abs(crossbar_infer(hw, q) - ideal) <= 3 * eps * span

    def test_exact_programming_matches_ideal(self, worked_model):
        hw = program_from_model_exact(worked_model)
        rng = np.random.default_rng(9)
        for q, ideal in covered_queries(worked_model, rng, 60):
            assert crossbar_infer(hw, q) == pytest.approx(ideal, abs=1e-12)

    def test_uncovered_query_underflows(self, worked_model):
        hw = program_from_model(worked_model, epsilon=0.01)
        with pytest.raises(DividerUnderflowError):
            crossbar_infer(hw, (9.9, 9.9))

    def test_empty_model_underflows(self):
        empty = Model([], SPECS, OUT, StainRadii(3.0, 1.5))
        hw = program_from_model(empty, epsilon=0.01)
        with pytest.raises(DividerUnderflowError):
            crossbar_infer(hw, (2.5, 3.5))

    def test_query_dimension_checked(self, worked_model):
        hw = program_from_model(worked_model, epsilon=0.01)
        with pytest.raises(ValueError):
            crossbar_infer(hw, (2.5,))

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_empty_model_rejects_non_finite_epsilon(self, eps):
        with pytest.raises(ValueError):
            program_from_model(Model([], SPECS, OUT, StainRadii(3.0, 1.5)), epsilon=eps)

    @pytest.mark.parametrize("eps, pulses", [(0.01, 272_669), (0.002, 405_240)])
    def test_the_twin_model_takes_a_pinned_pulse_count(self, eps, pulses):
        """The two counts sum to the 677,909 pulses of the crossbar-twin
        benchmark's epsilon sweep."""
        hw = program_from_model(twin_model(), eps)
        assert sum(r.total_pulses for row in hw.reports for r in row) == pulses
        assert hw.worst_residual <= eps

    def test_reports_cover_every_plane(self, worked_model):
        hw = program_from_model(worked_model, epsilon=0.01)
        assert len(hw.reports) == 2
        assert all(len(group) == 2 for group in hw.reports)


class TestBatchBoundary:
    QUERIES = np.array([(2.5, 3.5), (9.9, 9.9), (1.5, 4.0), (3.0, 4.5)])

    def test_off_the_stains_a_row_reads_nan_and_one_query_raises(self, worked_model):
        hw = program_from_model(worked_model, epsilon=0.01)
        got = crossbar_infer(hw, self.QUERIES)
        assert got.shape == (4,) and np.isnan(got).tolist() == [False, True, False, False]
        with pytest.raises(DividerUnderflowError):
            crossbar_infer(hw, self.QUERIES[1])
        assert repr(crossbar_infer(hw, self.QUERIES[0])) == repr(float(got[0]))

    @pytest.mark.parametrize("shape", [(3, 3), (3, 1), (2, 2, 2), ()])
    def test_wrong_shape_rejected(self, worked_model, shape):
        hw = program_from_model(worked_model, epsilon=0.01)
        with pytest.raises(ValueError):
            crossbar_infer(hw, np.full(shape, 2.5))

    def test_nan_row_reads_nan_and_leaves_the_others(self, worked_model):
        hw = program_from_model(worked_model, epsilon=0.01)
        want = crossbar_infer(hw, self.QUERIES)
        for b in range(len(self.QUERIES)):
            X = self.QUERIES.copy()
            X[b, b % 2] = np.nan
            got = crossbar_infer(hw, X)
            assert np.isnan(got[b])
            others = np.arange(len(X)) != b
            assert same_bits(got[others], want[others])

    def test_single_nan_query_rejected(self, worked_model):
        hw = program_from_model(worked_model, epsilon=0.01)
        with pytest.raises(ValueError):
            crossbar_infer(hw, (2.5, math.nan))

    def test_zero_queries_give_an_empty_array(self, worked_model):
        hw = program_from_model(worked_model, epsilon=0.01)
        got = crossbar_infer(hw, np.empty((0, 2)))
        assert got.shape == (0,) and got.dtype == float

    def test_empty_model_reads_nan_everywhere(self):
        hw = program_from_model(Model([], SPECS, OUT, StainRadii(3.0, 1.5)), epsilon=0.01)
        assert np.isnan(crossbar_infer(hw, self.QUERIES)).all()

    @pytest.mark.parametrize("drop", [math.nan, math.inf, -math.inf, -0.1, 1.01, 1e15, 1e16])
    def test_diode_drop_outside_zero_to_threshold_rejected(self, worked_model, drop):
        # the min stage adds the drop and the max stage takes it off, so a
        # huge one rounds every read voltage away and no query is answered
        with pytest.raises(ValueError, match="diode_drop"):
            program_from_model(worked_model, epsilon=0.01, diode_drop=drop)

    @pytest.mark.parametrize("drop", [0.0, 1.0])
    def test_a_diode_drop_at_either_end_answers(self, worked_model, drop):
        want = crossbar_infer(program_from_model(worked_model, 0.01), self.QUERIES)
        got = crossbar_infer(program_from_model(worked_model, 0.01, diode_drop=drop), self.QUERIES)
        assert np.isnan(got).tolist() == np.isnan(want).tolist() == [False, True, False, False]

    @pytest.mark.parametrize("v_read", [-0.5, -1e-3, 0.0, -0.0, 1.0, 1.5, math.nan, math.inf])
    def test_read_voltage_outside_zero_to_threshold_rejected(self, worked_model, v_read):
        # at a negative bias a fresh cell reads 0 and outreads every
        # programmed one, so the diode max would answer no query
        with pytest.raises(ValueError, match="v_read"):
            program_from_model(worked_model, epsilon=0.01, v_read=v_read)

    def test_a_small_positive_read_voltage_answers(self, worked_model):
        want = crossbar_infer(program_from_model(worked_model, 0.01), self.QUERIES)
        got = crossbar_infer(program_from_model(worked_model, 0.01, v_read=0.999), self.QUERIES)
        assert np.isnan(got).tolist() == np.isnan(want).tolist() == [False, True, False, False]


# -- the batched controller and read path against the per-array reference ------

def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def assert_same_report(got, want):
    assert got.total_pulses == want.total_pulses
    assert repr(got.max_abs_residual) == repr(want.max_abs_residual)
    assert same_bits(got.budget_exhausted, want.budget_exhausted)
    assert got.iterations == want.iterations


def assert_same_hardware(got, want):
    assert len(got.codes) == len(want.codes)
    for a, b in zip(states_of(got), states_of(want)):
        assert same_bits(a, b)
    assert (got.params, repr(got.v_read), repr(got.diode_drop)) == (want.params, repr(want.v_read),
                                                                     repr(want.diode_drop))
    assert [len(row) for row in got.reports] == [len(row) for row in want.reports]
    for got_row, want_row in zip(got.reports, want.reports):
        for a, b in zip(got_row, want_row):
            assert_same_report(a, b)


@st.composite
def small_models(draw):
    """A train_full model of up to four samples on a few small planes, and
    maybe an empty group after them, whose arrays hold no tent value but 0."""
    n_in = draw(st.integers(1, 2))
    specs = [QuantizationSpec(0.0, 1.0, draw(st.integers(2, 9))) for _ in range(n_in)]
    out = QuantizationSpec(0.0, 1.0, draw(st.integers(2, 7)))
    radii = StainRadii(draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 4.0)))
    unit = st.floats(0.0, 1.0)
    samples = [Sample(tuple(draw(unit) for _ in range(n_in)), draw(unit))
               for _ in range(draw(st.integers(0, 4)))]
    groups = list(train_full(samples, specs, out, radii).groups) if samples else []
    return Model(groups + [IdsGroup()] * draw(st.integers(0, 1)), specs, out, radii)


@st.composite
def twin_models(draw):
    """A train_full or train_merged model of up to five samples over one to
    three inputs."""
    n_in = draw(st.integers(1, 3))
    specs = [QuantizationSpec(0.0, 1.0, draw(st.integers(2, 6))) for _ in range(n_in)]
    lo, span = draw(st.floats(-5.0, 5.0)), draw(st.floats(0.1, 10.0))
    out = QuantizationSpec(lo, lo + span, draw(st.integers(2, 6)))
    radii = StainRadii(draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 4.0)))
    unit = st.floats(0.0, 1.0)
    samples = [Sample(tuple(draw(unit) for _ in range(n_in)), draw(st.floats(out.min, out.max)))
               for _ in range(draw(st.integers(0, 5)))]
    if not samples:
        return Model([], specs, out, radii)
    return draw(st.sampled_from([train_full, train_merged]))(samples, specs, out, radii)


def controllers():
    """Pulse budgets from one pulse (most cells run out) to the default."""
    return st.builds(ProgrammingParams,
                     base_width=st.floats(1e-7, 1e-5),
                     budget_per_cell=st.one_of(st.integers(1, 30), st.just(10_000)))


class TestBatchedTwinMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(small_models(), st.floats(1e-3, 0.05), controllers())
    def test_program_from_model_is_bitwise_the_per_array_loop(self, model, eps, prog):
        got = program_from_model(model, eps, prog=prog)
        want = program_from_model_reference(model, eps, prog=prog)
        assert_same_hardware(got, want)

    def test_exhausted_budget_is_bitwise_the_per_array_loop(self, worked_model):
        prog = ProgrammingParams(budget_per_cell=3)
        got = program_from_model(worked_model, 0.0, prog=prog)
        want = program_from_model_reference(worked_model, 0.0, prog=prog)
        assert any(r.budget_exhausted.any() for row in got.reports for r in row)
        assert_same_hardware(got, want)

    def test_empty_model_programs_nothing(self):
        empty = Model([], SPECS, OUT, StainRadii(3.0, 1.5))
        got = program_from_model(empty, 0.01)
        assert [codes.shape for codes in got.codes] == [(0, OUT.levels, spec.levels) for spec in SPECS]
        assert got.reports == []
        assert_same_hardware(got, program_from_model_reference(empty, 0.01))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-3, 0.05), controllers())
    def test_program_plane_twice_is_bitwise_the_per_array_loop(self, seed, eps, prog):
        """The second write starts from the states the first one left, and
        the twin's other arrays keep theirs."""
        rng = np.random.default_rng(seed)
        hw = fresh_twin(OUT6.levels, IN8.levels, groups=3)
        g = int(rng.integers(-3, 3))
        want = np.full((OUT6.levels, IN8.levels), P.D)
        for _ in range(2):
            grid = rng.uniform(0, 1, (IN8.levels, OUT6.levels)) * (rng.uniform(size=(IN8.levels, 1)) < 0.5)
            plane = IdsPlane(IN8, OUT6, grid)
            assert_same_report(program_plane(hw, g, 0, plane, eps, prog),
                               program_plane_reference(want, plane, eps, prog))
            assert same_bits(states_of(hw)[0][g], want)
        others = np.arange(3) != range(3)[g]
        assert np.all(states_of(hw)[0][others] == P.D)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-3, 0.05), controllers())
    def test_arrays_of_any_shape_and_state_keep_their_own_reports(self, seed, eps, prog):
        """Inputs of one twin differ in width, and their arrays in start
        state and largest pulse count.  Each array reprogrammed keeps its
        own report, and later writes start from the palette earlier ones
        grew."""
        rng = np.random.default_rng(seed)
        n_arrays, rows = int(rng.integers(1, 4)), int(rng.integers(2, 7))
        specs = [QuantizationSpec(0, 1, int(c)) for c in rng.integers(2, 7, rng.integers(1, 4))]
        want = [rng.choice([0.0, 0.5, 1.0], (n_arrays, rows, spec.levels)) * P.D for spec in specs]
        empty = Model([IdsGroup() for _ in range(n_arrays)], specs, QuantizationSpec(0, 1, rows), StainRadii(1.0, 1.0))
        hw = with_states(program_from_model(empty, eps, prog=prog), want)
        for a in range(n_arrays):
            for j, spec in enumerate(specs):
                plane = IdsPlane(spec, hw.output_spec, rng.choice([0.0, 0.3, rng.uniform()], (spec.levels, rows)))
                report = program_plane(hw, a, j, plane, eps, prog)
                assert_same_report(report, program_plane_reference(want[j][a], plane, eps, prog))
                assert hw.reports[a][j] is report
        assert all(same_bits(state, w) for state, w in zip(states_of(hw), want))

    @pytest.mark.parametrize("eps, budget", [(0.01, 10_000), (0.002, 10_000), (0.0, 40)])
    @pytest.mark.parametrize("cells", [216, 5])
    def test_slabs_are_bitwise_the_per_array_loop(self, eps, budget, cells):
        """Seven groups in slabs of three 8x9 arrays and of four 8x6 ones,
        the last slab of each short, and a bound smaller than one array,
        which then makes a slab alone."""
        rng = np.random.default_rng(7)
        specs = [QuantizationSpec(0.0, 1.0, 9), QuantizationSpec(0.0, 1.0, 6)]
        out = QuantizationSpec(0.0, 1.0, 8)
        # seven samples share output level 5, so first fit opens seven
        # groups, and the first one also takes the seven other levels
        outputs = [0.5] * 7 + [k / 7 for k in (0, 1, 2, 3, 5, 6, 7)]
        samples = [Sample(tuple(rng.uniform(0, 1, 2)), y) for y in outputs]
        model = train_merged(samples, specs, out, StainRadii(2.5, 1.7))
        assert len(model.groups) == 7
        prog = ProgrammingParams(budget_per_cell=budget)
        derive, slabs = Model.plane_codes, []

        def plane_codes(self, j, g0, g1):
            slabs.append((j, g0, g1))
            return derive(self, j, g0, g1)

        with patch.object(crossbar, "_PROGRAM_CELLS", cells), patch.object(Model, "plane_codes", plane_codes):
            got = program_from_model(model, eps, prog=prog)
        if cells == 216:
            assert slabs == [(0, 0, 3), (0, 3, 6), (0, 6, 7), (1, 0, 4), (1, 4, 7)]
        else:
            assert slabs == [(j, g, g + 1) for j in range(2) for g in range(7)]
        assert_same_hardware(got, program_from_model_reference(model, eps, prog=prog))
        assert (budget == 40) == any(r.budget_exhausted.any() for row in got.reports for r in row)

    @settings(max_examples=40, deadline=None)
    @given(small_models(), st.booleans(), st.lists(st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2)),
                                                   min_size=1, max_size=12))
    def test_crossbar_infer_is_bitwise_the_per_array_cascade(self, model, exact, points):
        hw = program_from_model_exact(model) if exact else program_from_model(model, 0.01)
        for point in points:
            q = point[:model.n_inputs]
            try:
                want = crossbar_infer_reference(hw, q)
            except DividerUnderflowError:
                with pytest.raises(DividerUnderflowError):
                    crossbar_infer(hw, q)
                continue
            assert repr(crossbar_infer(hw, q)) == repr(want)

    @settings(max_examples=60, deadline=None)
    @given(twin_models(), st.booleans(), st.integers(1, 4), st.data())
    def test_every_batch_row_is_bitwise_the_per_query_reference(self, model, exact, chunk, data):
        """Batches of one query, one chunk and one chunk and a query."""
        hw = program_from_model_exact(model) if exact else program_from_model(model, 0.01)
        size = data.draw(st.sampled_from([1, chunk, chunk + 1]))
        coord = st.floats(-0.2, 1.2) | st.sampled_from([-math.inf, math.inf])
        X = np.array(data.draw(st.lists(st.tuples(*[coord] * model.n_inputs), min_size=size, max_size=size)))
        per_query = model.n_inputs * max(1, len(model.groups)) * model.output_spec.levels
        divider = crossbar.defuzz_circuit
        calls = []
        with (patch.object(crossbar, "_READ_ELEMENTS", chunk * per_query),
              patch.object(crossbar, "defuzz_circuit", lambda *a, **k: calls.append(1) or divider(*a, **k))):
            got = crossbar_infer(hw, X)
        assert got.shape == (size,) and len(calls) == -(-size // chunk)
        for value, q in zip(got, X):
            try:
                want = crossbar_infer_reference(hw, q)
            except DividerUnderflowError:
                assert np.isnan(value)
                continue
            assert repr(float(value)) == repr(want)

    @pytest.mark.parametrize("train", [train_full, train_merged])
    @pytest.mark.parametrize("exact", [False, True])
    def test_a_random_batch_is_bitwise_the_per_query_reference(self, train, exact):
        rng = np.random.default_rng(11)
        specs = [QuantizationSpec(0.0, 1.0, 9) for _ in range(3)]
        out = QuantizationSpec(-2.3, 4.1, 11)
        samples = [Sample(tuple(rng.uniform(0, 1, 3)), float(rng.uniform(-2.3, 4.1))) for _ in range(30)]
        model = train(samples, specs, out, StainRadii(3.0, 2.5))
        hw = program_from_model_exact(model) if exact else program_from_model(model, 0.01)
        X = rng.uniform(-0.1, 1.1, (300, 3))
        got = crossbar_infer(hw, X)
        covered = 0
        for value, q in zip(got, X):
            try:
                want = crossbar_infer_reference(hw, q)
            except DividerUnderflowError:
                assert np.isnan(value)
                continue
            covered += 1
            assert repr(float(value)) == repr(want)
        assert covered > 100


def assert_reads_match_the_reference(hw, X):
    """Every batch row, every single query and every column read of ``hw``
    is bitwise the per-cell reference's."""
    got = crossbar_infer(hw, X)
    for value, q in zip(got, X):
        try:
            want = crossbar_infer_reference(hw, q)
        except DividerUnderflowError:
            assert np.isnan(value)
            with pytest.raises(DividerUnderflowError):
                crossbar_infer(hw, q)
            continue
        assert repr(float(value)) == repr(want) == repr(crossbar_infer(hw, q))
    for j, codes in enumerate(hw.codes):
        for g in range(len(codes)):
            for col in (1, codes.shape[2] // 2 + 1, codes.shape[2]):
                assert same_bits(read_column_voltages(hw, g, j, col), read_column_reference(hw, g, j, col))


@st.composite
def wide_models(draw):
    """A train_full model of one or two samples on one or two inputs, with
    axes of up to 200 levels and radii up to 1e6: wide radii that differ
    give more than 255 distinct tent values."""
    n_in = draw(st.integers(1, 2))
    specs = [QuantizationSpec(0.0, 1.0, draw(st.integers(2, 200))) for _ in range(n_in)]
    out = QuantizationSpec(0.0, 1.0, draw(st.integers(2, 200)))
    radii = StainRadii(draw(st.floats(0.5, 1e6)), draw(st.floats(0.5, 1e6)))
    unit = st.floats(0.0, 1.0)
    samples = [Sample(tuple(draw(unit) for _ in range(n_in)), draw(unit)) for _ in range(draw(st.integers(1, 2)))]
    return train_full(samples, specs, out, radii)


WIDE = train_full([Sample((0.3,), 0.6), Sample((0.7,), 0.2)], [QuantizationSpec(0.0, 1.0, 200)],
                  QuantizationSpec(0.0, 1.0, 190), StainRadii(199.0, 160.0))


class TestPaletteWidening:
    """Codes are the narrowest unsigned integers that hold them, and
    widening them changes no bit of what the twin holds, reads or reports."""

    @settings(max_examples=8, deadline=None)
    @given(wide_models(), st.floats(1e-4, 0.02), st.integers(0, 2**32 - 1))
    @example(WIDE, 1e-3, 0)
    def test_wide_tents_widen_the_codes(self, model, eps, seed):
        for j in range(model.n_inputs):
            values, codes = model.tent_values(j), model.plane_codes(j)
            assert codes.dtype == np.min_scalar_type(len(values) - 1)
            for g in range(len(model.groups)):
                assert same_bits(model.plane(g, j).grid, plane_reference(model, g, j).grid)
        hw = program_from_model(model, eps)
        assert_same_hardware(hw, program_from_model_reference(model, eps))
        assert [codes.dtype for codes in hw.codes] == [np.min_scalar_type(len(hw.palette) - 1)] * model.n_inputs
        if model is WIDE:
            assert len(model.tent_values(0)) > 256 and len(hw.palette) > 256
            assert model.plane_codes(0).dtype == hw.codes[0].dtype == np.uint16
        rng = np.random.default_rng(seed)
        assert_reads_match_the_reference(hw, rng.uniform(-0.1, 1.1, (12, model.n_inputs)))

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-4, 2e-3))
    def test_reprogramming_grows_the_palette_past_one_byte(self, seed, eps):
        """Random float targets, written array by array, settle to new
        doped lengths until the palette outgrows uint8 codes; every code
        tensor widens with it.  After each write the palette is in read
        order and the twin holds and reads what the reference does."""
        rng = np.random.default_rng(seed)
        specs, out = [QuantizationSpec(0.0, 1.0, 8), QuantizationSpec(0.0, 1.0, 5)], OUT6
        hw = program_from_model(Model([IdsGroup() for _ in range(2)], specs, out, StainRadii(1.0, 1.0)), eps)
        want = states_of(hw)
        X = rng.uniform(-0.1, 1.1, (12, 2))
        for _ in range(100):
            if len(hw.palette) > 256:
                break
            g, j = int(rng.integers(-2, 2)), int(rng.integers(2))
            plane = IdsPlane(specs[j], out, rng.uniform(0.0, 1.0, (specs[j].levels, out.levels)))
            assert_same_report(program_plane(hw, g, j, plane, eps), program_plane_reference(want[j][g], plane, eps))
            assert all(codes.max() < len(hw.palette) for codes in hw.codes)
            assert_palette_in_read_order(hw)
            assert all(same_bits(state, w) for state, w in zip(states_of(hw), want))
            assert_reads_match_the_reference(hw, X)
        assert len(hw.palette) > 256 and [codes.dtype for codes in hw.codes] == [np.uint16] * 2


def assert_palette_in_read_order(hw):
    """The twin's invariant: palette entries distinct and in order of read
    voltage, and every code tensor of the type that indexes the palette."""
    volts = read_voltages_reference(hw.palette, hw)
    assert (volts[1:] >= volts[:-1]).all()
    assert len(np.unique(hw.palette)) == len(hw.palette)
    assert [codes.dtype for codes in hw.codes] == [crossbar._code_dtype(len(hw.palette))] * len(hw.codes)


def planes_to_write(specs, out):
    """(g, j, plane) writes to a two-group twin, g negative at times, whose
    degrees come from a few tent-like values (later writes often add no
    doped length) or from random floats (each write adds dozens)."""
    @st.composite
    def plane(draw):
        j = draw(st.integers(0, len(specs) - 1))
        shape = (specs[j].levels, out.levels)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        grid = rng.choice([0.0, 0.25, 0.5, 1.0], shape) if draw(st.booleans()) else rng.uniform(0.0, 1.0, shape)
        return draw(st.integers(-2, 1)), j, IdsPlane(specs[j], out, grid)
    return st.lists(plane(), min_size=1, max_size=8)


class TestPaletteOrder:
    """The palette stays in order of read voltage through every write, so
    crossbar_infer takes its min and max on codes."""

    SPECS, OUT = [QuantizationSpec(0.0, 1.0, 8), QuantizationSpec(0.0, 1.0, 5)], OUT6

    @settings(max_examples=20, deadline=None)
    @given(planes_to_write(SPECS, OUT), st.floats(1e-4, 0.02))
    def test_every_write_keeps_the_palette_in_read_order(self, writes, eps):
        """Random program_plane sequences that grow the palette or add
        nothing to it; after each write the twin holds what the per-array
        reference holds and reads what it reads.  (Palettes grown past 256
        entries: ``test_reprogramming_grows_the_palette_past_one_byte``.)"""
        hw = program_from_model(Model([IdsGroup() for _ in range(2)], self.SPECS, self.OUT, StainRadii(1.0, 1.0)),
                                eps)
        want = states_of(hw)
        X = np.random.default_rng(0).uniform(-0.1, 1.1, (4, 2))
        for g, j, plane in writes:
            assert_same_report(program_plane(hw, g, j, plane, eps), program_plane_reference(want[j][g], plane, eps))
            assert_palette_in_read_order(hw)
            assert all(same_bits(state, w) for state, w in zip(states_of(hw), want))
            assert_reads_match_the_reference(hw, X)

    def test_a_write_that_adds_no_length_touches_one_array(self):
        """Reprogramming to outcomes the palette holds leaves the palette and
        every other code tensor as they were, the same objects."""
        hw = fresh_twin(OUT6.levels, IN8.levels, groups=2)
        program_plane(hw, 0, 0, stain_plane(), 0.01)
        palette, tensors = hw.palette, list(hw.codes)
        before = hw.codes[0][0].copy()
        program_plane(hw, 1, 0, stain_plane(), 0.01)
        assert hw.palette is palette and all(a is b for a, b in zip(hw.codes, tensors))
        assert same_bits(hw.codes[0][1], before)

    def test_a_palette_out_of_read_order_rejected(self, worked_model):
        """A hand-built twin whose palette runs against its read voltages
        holds the same cells, but its codes no longer order its reads."""
        hw = program_from_model(worked_model, 0.01)
        top = len(hw.palette) - 1
        flipped = dataclasses.replace(hw, palette=hw.palette[::-1].copy(),
                                      codes=[(top - codes).astype(codes.dtype) for codes in hw.codes])
        assert all(same_bits(a, b) for a, b in zip(states_of(flipped), states_of(hw)))
        for x in ((2.5, 3.5), [(2.5, 3.5), (1.5, 4.0)]):
            with pytest.raises(ValueError, match="not in order of read voltage"):
                crossbar_infer(flipped, x)


class TestProgrammingMemory:
    def test_the_peak_stays_near_what_the_twin_holds(self):
        """Tent codes are derived, mapped to palette codes and counted one
        bounded slab of arrays at a time: a whole-model temporary (targets,
        float states or per-cell pair indices) would lift the peak well past
        the held 1-byte codes and exhausted masks, the only per-cell arrays
        a twin keeps.  The float twin held 9 bytes per cell and peaked at
        1.5 times that; this one holds 2."""
        model = twin_model()
        tracemalloc.start()
        try:
            hw = program_from_model(model, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = 50 * 2 * 64 * 64
        held = sum(codes.nbytes for codes in hw.codes) + sum(
            r.budget_exhausted.nbytes for row in hw.reports for r in row)
        assert [codes.dtype for codes in hw.codes] == [np.uint8] * 2
        assert held == cells * (1 + 1)
        assert peak <= 2 * held <= 1.5 * cells * (8 + 1), f"traced peak {peak} B against {held} B held"
