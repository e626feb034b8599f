"""Device model, closed-loop programming, analog stages, end-to-end twin."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inkspread.core import QuantizationSpec, StainRadii
from inkspread.errors import DividerUnderflowError, ModeViolationError, NoCoverageError
from inkspread.crossbar import (
    CrossbarArray,
    DeviceParams,
    MemristorState,
    ProgrammingParams,
    _program_arrays,
    apply_pulse,
    attenuation,
    crossbar_infer,
    defuzz_circuit,
    degree_to_memristance,
    diode_max,
    diode_min,
    memristance,
    program_from_model,
    program_plane,
    program_plane_exact,
    read_confidence,
)
from inkspread.inference import infer
from inkspread.model import IdsPlane, Model, Sample, diffuse, empty_plane, train_full

from reference import crossbar_infer_reference, program_from_model_reference, program_plane_reference

P = DeviceParams()


class TestDeviceModel:
    def test_fully_doped_is_minimum_resistance(self):
        assert memristance(MemristorState(P.D, P)) == P.R_on

    def test_undoped_is_maximum_resistance(self):
        assert memristance(MemristorState(0.0, P)) == P.R_off

    def test_half_doped(self):
        assert memristance(MemristorState(P.D / 2, P)) == pytest.approx(5050.0)

    def test_monotone_decreasing_in_w(self):
        ws = np.linspace(0, P.D, 50)
        rs = [memristance(MemristorState(float(w), P)) for w in ws]
        assert all(a > b for a, b in zip(rs, rs[1:]))

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

    @pytest.mark.parametrize("constants", [{"D": 1e-200}, {"D": 1e200}, {"mu_v": 1e300}])
    def test_drift_rate_must_be_positive_and_finite(self, constants):
        with pytest.raises(ValueError):
            DeviceParams(**constants)

    @pytest.mark.parametrize("field", ["v_prog", "base_width"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_controller_constants_rejected(self, field, value):
        with pytest.raises(ValueError):
            ProgrammingParams(**{field: value})


class TestApplyPulse:
    def test_sub_threshold_is_bit_identical(self):
        state = MemristorState(0.37 * P.D, P)
        w0 = state.w
        for v in (0.0, 0.5, -0.99, 1.0, -1.0):
            state = apply_pulse(state, v, 1e-5)
            assert state.w == w0

    def test_positive_pulse_lowers_memristance(self):
        state = MemristorState(0.5 * P.D, P)
        before = memristance(state)
        apply_pulse(state, 1.5, 1e-6)
        assert memristance(state) < before

    def test_negative_pulse_raises_memristance(self):
        state = MemristorState(0.5 * P.D, P)
        before = memristance(state)
        apply_pulse(state, -1.5, 1e-6)
        assert memristance(state) > before

    def test_opposite_pulses_return_to_start(self):
        state = MemristorState(0.4 * P.D, P)
        w0 = state.w
        apply_pulse(state, 1.5, 2e-6, substeps=100)
        assert state.w != w0 and 0.0 < state.w < P.D
        apply_pulse(state, -1.5, 2e-6, substeps=100)
        assert abs(state.w - w0) <= 1e-9 * P.D

    def test_longer_pulse_moves_strictly_more(self):
        short = apply_pulse(MemristorState(0.5 * P.D, P), 1.5, 1e-6)
        long = apply_pulse(MemristorState(0.5 * P.D, P), 1.5, 3e-6)
        assert long.w > short.w

    def test_state_clamped_at_rails(self):
        # kappa*v ~ 3e8 ohm^2/s, so ~0.35 s of drive sweeps the full range
        state = MemristorState(0.9 * P.D, P)
        for _ in range(80):
            apply_pulse(state, 1.5, 5e-3)
        assert state.w == P.D
        assert memristance(state) == P.R_on
        for _ in range(80):
            apply_pulse(state, -1.5, 5e-3)
        assert state.w == 0.0
        assert memristance(state) == P.R_off


class TestEncodingAndReadout:
    def test_attenuation_at_defaults(self):
        assert attenuation(P) == pytest.approx(0.99)

    def test_degree_encoding_endpoints(self):
        assert degree_to_memristance(P, 0.0) == P.R_on
        assert degree_to_memristance(P, 1.0) == pytest.approx(P.R_off)

    def test_fresh_cell_reads_exactly_zero(self):
        array = CrossbarArray(4, 4)
        assert read_confidence(array, 2, 3) == 0.0

    def test_read_at_r_off(self):
        array = CrossbarArray(1, 1)
        array.w[0, 0] = 0.0
        assert read_confidence(array, 1, 1) == pytest.approx(0.99)

    def test_read_at_twice_r_on(self):
        array = CrossbarArray(1, 1)
        array.w[0, 0] = (P.R_off - 2 * P.R_on) / (P.R_off - P.R_on) * P.D
        assert read_confidence(array, 1, 1) == pytest.approx(0.5)

    def test_encode_then_read_recovers_attenuated_degree(self):
        array = CrossbarArray(1, 1)
        for s in (0.1, 0.5, 0.93):
            r = degree_to_memristance(P, s)
            array.w[0, 0] = (P.R_off - r) / (P.R_off - P.R_on) * P.D
            assert read_confidence(array, 1, 1) == pytest.approx(s * attenuation(P))

    def test_read_voltage_must_stay_below_threshold(self):
        with pytest.raises(ValueError):
            CrossbarArray(2, 2, v_read=1.5)

    def test_reads_refused_while_programming(self):
        array = CrossbarArray(2, 2)
        array.set_mode("program")
        with pytest.raises(ModeViolationError):
            read_confidence(array, 1, 1)


IN8 = QuantizationSpec(0, 7, 8)
OUT6 = QuantizationSpec(0, 5, 6)


def stain_plane():
    plane = empty_plane(IN8, OUT6)
    diffuse(plane, 4, 3, StainRadii(3, 2))
    return plane


class TestProgramPlane:
    def test_zero_target_needs_zero_pulses(self):
        array = CrossbarArray(OUT6.levels, IN8.levels)
        report = program_plane(array, empty_plane(IN8, OUT6), 0.01)
        assert report.total_pulses == 0
        assert np.all(array.w == P.D)

    def test_stain_target_converges_within_epsilon(self):
        array = CrossbarArray(OUT6.levels, IN8.levels)
        report = program_plane(array, stain_plane(), 0.01)
        assert report.converged
        assert report.max_abs_residual <= 0.01

    def test_reprogramming_converged_plane_is_free(self):
        array = CrossbarArray(OUT6.levels, IN8.levels)
        program_plane(array, stain_plane(), 0.01)
        again = program_plane(array, stain_plane(), 0.01)
        assert again.total_pulses == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_planes_converge_at_half_percent(self, seed):
        rng = np.random.default_rng(seed)
        plane = empty_plane(IN8, OUT6)
        plane.grid[:] = rng.uniform(0, 1, plane.grid.shape)
        array = CrossbarArray(OUT6.levels, IN8.levels)
        report = program_plane(array, plane, 0.005)
        assert report.converged
        assert report.max_abs_residual <= 0.005

    def test_budget_exhaustion_is_reported_not_fatal(self):
        array = CrossbarArray(OUT6.levels, IN8.levels)
        prog = ProgrammingParams(budget_per_cell=1)
        report = program_plane(array, stain_plane(), 1e-4, prog)
        assert not report.converged
        assert report.budget_exhausted.any()
        assert array.mode == "read"

    def test_dimension_mismatch_rejected(self):
        array = CrossbarArray(3, 3)
        with pytest.raises(ValueError):
            program_plane(array, stain_plane(), 0.01)

    def test_programming_voltage_window_enforced(self):
        array = CrossbarArray(OUT6.levels, IN8.levels)
        with pytest.raises(ValueError):
            program_plane(array, stain_plane(), 0.01, ProgrammingParams(v_prog=0.8))
        with pytest.raises(ValueError):
            program_plane(array, stain_plane(), 0.01, ProgrammingParams(v_prog=2.5))

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1.0])
    def test_bad_epsilon_rejected(self, eps):
        array = CrossbarArray(OUT6.levels, IN8.levels)
        with pytest.raises(ValueError):
            program_plane(array, stain_plane(), eps)
        assert array.mode == "read" and np.all(array.w == P.D)

    def test_exact_programming_reads_back_attenuated_grid(self):
        array = CrossbarArray(OUT6.levels, IN8.levels)
        plane = stain_plane()
        program_plane_exact(array, plane)
        att = attenuation(P)
        for col in range(1, IN8.levels + 1):
            for row in range(1, OUT6.levels + 1):
                want = plane.grid[col - 1, row - 1] * att
                assert read_confidence(array, col, row) == pytest.approx(want, abs=1e-12)


class TestDiodeStages:
    def test_min_adds_drop(self):
        assert diode_min([0.3, 0.7], 0.7) == pytest.approx(1.0)

    def test_single_input(self):
        assert diode_min([0.2], 0.7) == pytest.approx(0.9)
        assert diode_max([0.2], 0.7) == pytest.approx(-0.5)

    def test_max_subtracts_drop(self):
        assert diode_max([0.87, 1.04], 0.7) == pytest.approx(0.34)

    def test_permutation_invariance(self):
        vs = [0.11, 0.93, 0.41, 0.67]
        assert diode_min(vs) == diode_min(list(reversed(vs)))
        assert diode_max(vs) == diode_max(sorted(vs))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            diode_min([])
        with pytest.raises(ValueError):
            diode_max([])

    def test_cascade_cancellation_on_grid_voltages_is_exact(self):
        rng = np.random.default_rng(42)
        drop = 0.75
        for _ in range(300):
            groups = [rng.integers(0, 2 ** 20, size=rng.integers(1, 5)) / 2.0 ** 20
                      for _ in range(rng.integers(1, 6))]
            cascade = diode_max([diode_min(g, drop) for g in groups], drop)
            assert cascade == max(min(g) for g in groups)

    def test_cascade_cancellation_general_voltages(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            groups = [rng.uniform(0, 0.5, size=rng.integers(1, 5))
                      for _ in range(rng.integers(1, 6))]
            cascade = diode_max([diode_min(g) for g in groups])
            assert cascade == pytest.approx(max(min(g) for g in groups), abs=1e-12)


class TestDefuzzCircuit:
    def test_paper_operands(self):
        assert defuzz_circuit(np.array([0.67, 0.34]), 2) == pytest.approx(1.3366, abs=1e-4)

    def test_one_hot_returns_level_index(self):
        mu = np.zeros(5)
        mu[3] = 0.42
        assert defuzz_circuit(mu, 5) == 4.0

    def test_halving_all_confidences_changes_nothing(self):
        mu = np.array([0.1, 0.5, 0.25, 0.0])
        assert defuzz_circuit(0.5 * mu, 4) == defuzz_circuit(mu, 4)

    def test_all_zero_underflows(self):
        with pytest.raises(DividerUnderflowError):
            defuzz_circuit(np.zeros(3), 3)

    def test_floor_boundary_is_inclusive(self):
        mu = np.array([0.0, 1e-4])
        with pytest.raises(DividerUnderflowError):
            defuzz_circuit(mu, 2, floor=1e-4)
        assert defuzz_circuit(mu, 2, floor=9e-5) == 2.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            defuzz_circuit(np.zeros(3), 4)


SPECS = [QuantizationSpec(1, 10, 19), QuantizationSpec(1, 10, 19)]
OUT = QuantizationSpec(1, 2, 2)
SAMPLES = [Sample((1.5, 4.0), 2.0), Sample((3.0, 4.0), 1.0)]


@pytest.fixture(scope="module")
def worked_model():
    return train_full(SAMPLES, SPECS, OUT, StainRadii(3.0, 1.5))


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
        hw = program_from_model(worked_model, exact=True)
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

    def test_reports_cover_every_plane(self, worked_model):
        hw = program_from_model(worked_model, epsilon=0.01)
        assert len(hw.reports) == 2
        assert all(len(group) == 2 for group in hw.reports)


class TestStateDumps:
    def test_array_state_csv(self, tmp_path, worked_model):
        hw = program_from_model(worked_model, epsilon=0.01)
        path = tmp_path / "state.csv"
        from inkspread.crossbar import array_state_to_csv

        array_state_to_csv(hw.group_arrays[0][0], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "row,col,w_over_D,memristance_ohm"
        assert len(lines) == 1 + 2 * 19

    def test_report_csv(self, tmp_path, worked_model):
        hw = program_from_model(worked_model, epsilon=0.01)
        path = tmp_path / "report.csv"
        from inkspread.crossbar import report_to_csv

        report_to_csv(hw.reports[0][0], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "row,col,pulses,residual,budget_exhausted"
        assert len(lines) == 1 + 2 * 19


# -- the batched controller and read path against the per-array reference ------

def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def assert_same_report(got, want):
    for name in ("pulse_counts", "residuals", "budget_exhausted"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert repr(got.epsilon) == repr(want.epsilon)
    assert got.iterations == want.iterations == int(want.pulse_counts.max())


def assert_same_hardware(got, want):
    assert len(got.group_arrays) == len(want.group_arrays)
    for got_row, want_row in zip(got.group_arrays, want.group_arrays):
        assert len(got_row) == len(want_row)
        for a, b in zip(got_row, want_row):
            assert same_bits(a.w, b.w)
            assert a.mode == b.mode == "read"
    assert [len(row) for row in got.reports] == [len(row) for row in want.reports]
    for got_row, want_row in zip(got.reports, want.reports):
        for a, b in zip(got_row, want_row):
            assert_same_report(a, b)


@st.composite
def small_models(draw):
    """A train_full model of up to four samples on a few small planes."""
    n_in = draw(st.integers(1, 2))
    specs = [QuantizationSpec(0.0, 1.0, draw(st.integers(2, 9))) for _ in range(n_in)]
    out = QuantizationSpec(0.0, 1.0, draw(st.integers(2, 7)))
    radii = StainRadii(draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 4.0)))
    unit = st.floats(0.0, 1.0)
    samples = [Sample(tuple(draw(unit) for _ in range(n_in)), draw(unit))
               for _ in range(draw(st.integers(0, 4)))]
    if not samples:
        return Model([], specs, out, radii)
    return train_full(samples, specs, out, radii)


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
        assert got.group_arrays == [] and got.reports == []
        assert_same_hardware(got, program_from_model_reference(empty, 0.01))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-3, 0.05), controllers())
    def test_program_plane_twice_is_bitwise_the_per_array_loop(self, seed, eps, prog):
        """The second write starts from the states the first one left."""
        rng = np.random.default_rng(seed)
        got, want = CrossbarArray(OUT6.levels, IN8.levels), CrossbarArray(OUT6.levels, IN8.levels)
        for _ in range(2):
            grid = rng.uniform(0, 1, (IN8.levels, OUT6.levels)) * (rng.uniform(size=(IN8.levels, 1)) < 0.5)
            plane = IdsPlane(IN8, OUT6, grid)
            assert_same_report(program_plane(got, plane, eps, prog),
                               program_plane_reference(want, plane, eps, prog))
            assert same_bits(got.w, want.w)
            assert got.mode == "read"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-3, 0.05), controllers())
    def test_arrays_of_any_shape_and_state_keep_their_own_reports(self, seed, eps, prog):
        """Arrays of one batch differ in shape, start state and largest pulse count."""
        rng = np.random.default_rng(seed)
        shapes = [tuple(rng.integers(2, 7, 2)) for _ in range(rng.integers(1, 5))]
        got = [CrossbarArray(*shape) for shape in shapes]
        want = [CrossbarArray(*shape) for shape in shapes]
        for a, b in zip(got, want):
            a.w = b.w = rng.choice([0.0, 0.5, 1.0], a.w.shape) * P.D
        grids = [rng.choice([0.0, 0.3, rng.uniform()], shape[::-1]) for shape in shapes]
        planes = [IdsPlane(QuantizationSpec(0, 1, c), QuantizationSpec(0, 1, r), grid)
                  for (r, c), grid in zip(shapes, grids)]
        reports = _program_arrays(got, [grid.T * attenuation(P) for grid in grids], eps, prog)
        for a, b, plane, report in zip(got, want, planes, reports):
            assert_same_report(report, program_plane_reference(b, plane, eps, prog))
            assert same_bits(a.w, b.w)

    @settings(max_examples=40, deadline=None)
    @given(small_models(), st.booleans(), st.lists(st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2)),
                                                   min_size=1, max_size=12))
    def test_crossbar_infer_is_bitwise_the_per_array_cascade(self, model, exact, points):
        hw = program_from_model(model, 0.01, exact=exact)
        for point in points:
            q = point[:model.n_inputs]
            try:
                want = crossbar_infer_reference(hw, q)
            except DividerUnderflowError:
                with pytest.raises(DividerUnderflowError):
                    crossbar_infer(hw, q)
                continue
            assert repr(crossbar_infer(hw, q)) == repr(want)

    def test_any_array_in_program_mode_refuses_the_read(self, worked_model):
        hw = program_from_model(worked_model, 0.01)
        q = (2.5, 3.5)
        want = crossbar_infer(hw, q)
        for arrays in hw.group_arrays:
            for arr in arrays:
                arr.set_mode("program")
                with pytest.raises(ModeViolationError):
                    crossbar_infer(hw, q)
                arr.set_mode("read")
        assert crossbar_infer(hw, q) == want
