"""Min/max rule evaluation, weighted-sum defuzzification, and the trace."""

import tracemalloc

import numpy as np
import pytest

from inkspread import inference
from inkspread.core import QuantizationSpec, StainRadii, dequantize, quantize
from inkspread.errors import NoCoverageError
from inkspread.inference import (
    FuzzyOutput,
    defuzzify_wsf,
    infer,
    infer_fuzzy,
    infer_many,
    infer_many_fuzzy,
    infer_trace,
)
from inkspread.model import IdsGroup, Model, Sample, train_full, train_merged

from reference import crisp_reference, fuzzy_reference

SPECS = [QuantizationSpec(1, 10, 19), QuantizationSpec(1, 10, 19)]
OUT = QuantizationSpec(1, 2, 2)
RADII = StainRadii(3.0, 1.5)
SAMPLES = [Sample((1.5, 4.0), 2.0), Sample((3.0, 4.0), 1.0)]
QUERY = (2.5, 3.5)


@pytest.fixture(scope="module")
def worked_model():
    return train_full(SAMPLES, SPECS, OUT, RADII)


def random_model(rng, n_samples=6, n_inputs=2, levels=12):
    specs = [QuantizationSpec(0, 1, levels) for _ in range(n_inputs)]
    out = QuantizationSpec(0, 1, levels)
    samples = [
        Sample(tuple(rng.uniform(0, 1, n_inputs)), float(rng.uniform(0, 1)))
        for _ in range(n_samples)
    ]
    radii = StainRadii(float(rng.uniform(1, 5)), float(rng.uniform(0.5, 4)))
    return train_full(samples, specs, out, radii), samples


def plane_confidence(model, g, j, x, y_level):
    """Cell of the derived dense plane j of group g at x's level and y_level."""
    plane = model.plane(g, j)
    return plane.grid[quantize(plane.input_spec, x) - 1, y_level - 1]


def group_confidence(model, g, x, y_level):
    return infer_trace(model, x)["group_confidences"][g][y_level - 1]


class TestPlaneAndGroupConfidence:
    def test_apex_reads_one(self, worked_model):
        assert plane_confidence(worked_model, 0, 0, 1.5, 2) == 1.0

    def test_second_group_first_plane(self, worked_model):
        v = plane_confidence(worked_model, 1, 0, 2.5, 1)
        assert v == pytest.approx(2 / 3)

    def test_outside_all_stains_reads_zero(self, worked_model):
        assert plane_confidence(worked_model, 0, 0, 9.5, 1) == 0.0

    def test_group_min_of_planes(self, worked_model):
        v = group_confidence(worked_model, 0, QUERY, 2)
        assert v == pytest.approx(1 / 3)
        assert v == min(plane_confidence(worked_model, 0, j, QUERY[j], 2) for j in range(2))
        v = group_confidence(worked_model, 1, QUERY, 1)
        assert v == pytest.approx(2 / 3)

    def test_zero_plane_zeroes_the_group(self, worked_model):
        assert group_confidence(worked_model, 0, (9.5, 3.5), 2) == 0.0

    def test_readings_equal_derived_dense_planes(self):
        rng = np.random.default_rng(41)
        for merged in (False, True):
            specs = [QuantizationSpec(0, 1, 9), QuantizationSpec(0, 1, 13)]
            out = QuantizationSpec(0, 1, 7)
            samples = [Sample(tuple(rng.uniform(0, 1, 2)), float(rng.uniform(0, 1)))
                       for _ in range(12)]
            train = train_merged if merged else train_full
            model = train(samples, specs, out, StainRadii(2.5, 1.5))
            for _ in range(10):
                levels = [int(rng.integers(1, s.levels + 1)) for s in specs]
                trace = infer_trace(model, [dequantize(s, k) for s, k in zip(specs, levels)])
                assert trace["input_levels"] == levels
                readings = np.array(trace["plane_confidences"])
                for g in range(len(model.groups)):
                    for j, q in enumerate(levels):
                        assert np.array_equal(readings[g, :, j], model.plane(g, j).grid[q - 1])


class TestInferFuzzy:
    def test_worked_example_envelope(self, worked_model):
        fz = infer_fuzzy(worked_model, QUERY)
        assert fz.level_values.tolist() == [1.0, 2.0]
        assert fz.confidences[0] == pytest.approx(0.67, abs=0.01)
        assert fz.confidences[1] == pytest.approx(0.34, abs=0.01)

    def test_uncovered_query_all_zero(self, worked_model):
        fz = infer_fuzzy(worked_model, (9.5, 9.5))
        assert np.all(fz.confidences == 0.0)

    def test_single_group_model_equals_group_vector(self, worked_model):
        solo = train_full(SAMPLES[:1], SPECS, OUT, RADII)
        fz = infer_fuzzy(solo, QUERY)
        for level in (1, 2):
            assert fz.confidences[level - 1] == group_confidence(solo, 0, QUERY, level)

    def test_adding_a_group_never_lowers_confidence(self):
        rng = np.random.default_rng(17)
        model, samples = random_model(rng, n_samples=5)
        queries = rng.uniform(0, 1, size=(30, 2))
        before = np.stack([infer_fuzzy(model, q).confidences for q in queries])
        extra = train_full(
            samples + [Sample(tuple(rng.uniform(0, 1, 2)), 0.5)],
            model.input_specs, model.output_spec, model.radii)
        after = np.stack([infer_fuzzy(extra, q).confidences for q in queries])
        assert np.all(after >= before)

    def test_group_order_irrelevant(self, worked_model):
        swapped = Model(list(reversed(worked_model.groups)),
                        SPECS, OUT, RADII)
        for q in [QUERY, (1.5, 4.0), (5.0, 5.0)]:
            a = infer_fuzzy(worked_model, q).confidences
            b = infer_fuzzy(swapped, q).confidences
            assert np.array_equal(a, b)


def dense_confidences(model, X):
    """Confidences read off the derived dense planes: per query, the min over
    planes of each group's row at the query's level, then the max over groups."""
    stacks = model.input_stacks()
    rows = []
    for x in X:
        levels = [quantize(spec, v) for spec, v in zip(model.input_specs, x)]
        groups = np.min([stack[:, k - 1, :] for stack, k in zip(stacks, levels)], axis=0)
        rows.append(groups.max(axis=0, initial=0.0))
    return np.array(rows)


@pytest.fixture(params=["tents", "windows"])
def kernel_path(request, monkeypatch):
    """Each kernel test runs once per way of reading the live slots."""
    if request.param == "windows":
        monkeypatch.setattr(inference, "_TENT_SHARE", -1.0)
    else:
        monkeypatch.setattr(inference, "_TENT_SHARE", float("inf"))
    return request.param


class TestKernel:
    def test_pair_across_a_gap_survives_a_longer_run_on_one_cell(self, kernel_path):
        # group 1 holds output levels 1 and 3, each stain near the query on
        # one plane only; group 2 holds 1, 2 and 3 far from it.  Both reach
        # the (1, 3) pair, and only group 1's stain pair covers level 2
        specs = [QuantizationSpec(1, 9, 9)] * 2
        out = QuantizationSpec(1, 3, 3)
        model = Model([IdsGroup([((1, 9), 1), ((9, 1), 3)]),
                       IdsGroup([((5, 5), 1), ((5, 5), 2), ((5, 5), 3)])],
                      specs, out, StainRadii(3.0, 2.0))
        rows = infer_many_fuzzy(model, np.array([[1.0, 1.0]]))
        assert rows.tolist() == [[0.0, 0.5, 0.0]]
        assert np.array_equal(rows, dense_confidences(model, [[1.0, 1.0]]))

    def test_merged_model_equals_dense_planes(self, kernel_path):
        rng = np.random.default_rng(7)
        specs = [QuantizationSpec(0, 1, 16)] * 3
        out = QuantizationSpec(0, 1, 12)
        samples = [Sample(tuple(rng.uniform(0, 1, 3)), float(rng.uniform(0, 1))) for _ in range(60)]
        model = train_merged(samples, specs, out, StainRadii(4.0, 3.0))
        X = rng.uniform(-0.1, 1.1, size=(40, 3))
        assert np.array_equal(infer_many_fuzzy(model, X, 5), dense_confidences(model, X))

    def test_wide_group_over_four_inputs_stays_small(self):
        # one group of 125 stains over 4 planes has 125**4 stain choices;
        # the kernel must not list them
        rng = np.random.default_rng(3)
        specs = [QuantizationSpec(0, 1, 32)] * 4
        out = QuantizationSpec(0, 1, 128)
        samples = [Sample(tuple(rng.uniform(0, 1, 4)), k / 127) for k in range(125)]
        model = train_merged(samples, specs, out, StainRadii(8.0, 10.0))
        assert [len(g.stains) for g in model.groups] == [125]
        X = rng.uniform(0, 1, size=(64, 4))
        tracemalloc.start()
        try:
            rows = infer_many_fuzzy(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert np.array_equal(rows, dense_confidences(model, X))


class TestDefuzzify:
    def test_paper_rounded_operands(self):
        fz = FuzzyOutput(np.array([1.0, 2.0]), np.array([0.67, 0.34]))
        assert defuzzify_wsf(fz) == pytest.approx(1.3366, abs=1e-4)

    def test_single_nonzero_entry_returns_its_level(self):
        fz = FuzzyOutput(np.array([3.0, 5.0, 7.0]), np.array([0.0, 0.2, 0.0]))
        assert defuzzify_wsf(fz) == 5.0

    def test_all_zero_raises(self):
        fz = FuzzyOutput(np.array([1.0, 2.0]), np.zeros(2))
        with pytest.raises(NoCoverageError):
            defuzzify_wsf(fz)

    def test_scale_invariance_power_of_two_exact(self):
        rng = np.random.default_rng(9)
        levels = np.linspace(-3, 14, 16)
        mu = rng.uniform(0, 1, 16)
        base = defuzzify_wsf(FuzzyOutput(levels, mu))
        for c in (0.5, 2.0, 8.0, 2.0 ** -20):
            assert defuzzify_wsf(FuzzyOutput(levels, c * mu)) == base

    def test_scale_invariance_general_factor(self):
        rng = np.random.default_rng(10)
        levels = np.linspace(0, 1, 12)
        mu = rng.uniform(0, 1, 12)
        base = defuzzify_wsf(FuzzyOutput(levels, mu))
        for c in (0.3, 1.7, 123.456):
            assert defuzzify_wsf(FuzzyOutput(levels, c * mu)) == pytest.approx(
                base, rel=1e-12)

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            levels = np.sort(rng.uniform(-5, 5, 8))
            mu = rng.uniform(0, 1, 8) * (rng.uniform(0, 1, 8) > 0.3)
            if mu.sum() == 0:
                continue
            v = defuzzify_wsf(FuzzyOutput(levels, mu))
            lo = levels[mu > 0].min()
            hi = levels[mu > 0].max()
            assert lo - 1e-12 <= v <= hi + 1e-12


class TestInfer:
    def test_worked_example_crisp(self, worked_model):
        assert infer(worked_model, QUERY) == pytest.approx(4 / 3)
        assert infer(worked_model, QUERY) == pytest.approx(1.3366, abs=0.02)

    def test_no_coverage_raises(self, worked_model):
        with pytest.raises(NoCoverageError):
            infer(worked_model, (9.9, 9.9))

    def test_lone_sample_recalled_exactly_with_narrow_output_stain(self):
        specs = [QuantizationSpec(0, 10, 11)] * 2
        out = QuantizationSpec(0, 10, 11)
        model = train_full([Sample((4.0, 6.0), 7.0)], specs, out,
                           StainRadii(3.0, 1.0))
        assert infer(model, (4.0, 6.0)) == 7.0

    def test_query_dimension_checked(self, worked_model):
        with pytest.raises(ValueError):
            infer(worked_model, (1.0,))


class TestOracleAgreement:
    def test_worked_example_bitwise(self, worked_model):
        mu = fuzzy_reference([[s] for s in SAMPLES], SPECS, OUT, RADII, QUERY)
        assert np.array_equal(infer_fuzzy(worked_model, QUERY).confidences, mu)
        assert infer(worked_model, QUERY) == crisp_reference(
            [[s] for s in SAMPLES], SPECS, OUT, RADII, QUERY)

    def test_random_models_bitwise(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            model, samples = random_model(
                rng,
                n_samples=int(rng.integers(1, 7)),
                n_inputs=int(rng.integers(1, 4)),
                levels=int(rng.integers(4, 17)),
            )
            grouped = [[s] for s in samples]
            for _ in range(5):
                q = tuple(rng.uniform(-0.1, 1.1, model.n_inputs))
                mu = fuzzy_reference(grouped, model.input_specs,
                                     model.output_spec, model.radii, q)
                got = infer_fuzzy(model, q).confidences
                assert np.array_equal(got, mu)


class TestInferMany:
    def test_matches_single_path_including_coverage(self):
        rng = np.random.default_rng(31)
        model, _ = random_model(rng, n_samples=8, levels=16)
        X = rng.uniform(-0.2, 1.2, size=(150, 2))
        values, covered = infer_many(model, X, chunk=64)
        rows = infer_many_fuzzy(model, X, chunk=64)
        assert values.shape == covered.shape == (150,)
        assert rows.shape == (150, model.output_spec.levels)
        for b in range(150):
            assert np.array_equal(rows[b], infer_fuzzy(model, X[b]).confidences)
            try:
                expected = infer(model, X[b])
                assert covered[b]
                assert values[b] == expected
            except NoCoverageError:
                assert not covered[b]
                assert np.isnan(values[b])

    def test_chunk_size_does_not_change_results(self):
        rng = np.random.default_rng(32)
        model, _ = random_model(rng, n_samples=5)
        X = rng.uniform(0, 1, size=(97, 2))
        v1, c1 = infer_many(model, X, chunk=1)
        v2, c2 = infer_many(model, X, chunk=1000)
        assert np.array_equal(c1, c2)
        assert np.array_equal(np.nan_to_num(v1), np.nan_to_num(v2))

    def test_shape_validation(self):
        rng = np.random.default_rng(33)
        model, _ = random_model(rng)
        with pytest.raises(ValueError):
            infer_many(model, np.zeros((4, 3)))

    def test_nan_query_is_uncovered_and_leaves_other_rows_alone(self, worked_model):
        X = np.array([QUERY, (1.5, 4.0), (5.0, 5.0), (3.0, 4.0)])
        clean_rows = infer_many_fuzzy(worked_model, X)
        clean_values, clean_covered = infer_many(worked_model, X)
        assert clean_covered[1] and clean_covered[3]
        bad = X.copy()
        bad[1, 0] = np.nan
        bad[3] = np.nan
        rows = infer_many_fuzzy(worked_model, bad)
        values, covered = infer_many(worked_model, bad)
        assert not rows[1].any() and not rows[3].any()
        assert not covered[1] and not covered[3]
        assert np.isnan(values[1]) and np.isnan(values[3])
        for b in (0, 2):
            assert np.array_equal(rows[b], clean_rows[b])
            assert covered[b] == clean_covered[b]
            assert np.array_equal(values[b], clean_values[b], equal_nan=True)

    def test_infinite_inputs_clamp_to_the_edge_level(self, worked_model):
        X = np.array([(np.inf, 4.0), (-np.inf, 4.0), (10.0, 4.0), (1.0, 4.0)])
        rows = infer_many_fuzzy(worked_model, X)
        assert np.array_equal(rows[0], rows[2]) and np.array_equal(rows[1], rows[3])
        assert rows[1].any()


class TestNanQuery:
    def test_single_query_paths_name_the_input(self, worked_model):
        for fn in (infer, infer_fuzzy, infer_trace):
            with pytest.raises(ValueError, match="input 2 is NaN"):
                fn(worked_model, (2.5, float("nan")))

    def test_infinity_is_not_rejected(self, worked_model):
        assert infer(worked_model, (-np.inf, 4.0)) == infer(worked_model, (1.0, 4.0))


class TestTrace:
    def test_intermediate_values(self, worked_model):
        trace = infer_trace(worked_model, QUERY)
        assert trace["input_levels"] == [4, 6]
        mus = trace["plane_confidences"]
        third, two_thirds = pytest.approx(1 / 3), pytest.approx(2 / 3)
        assert mus[0][0] == [third, third]
        assert mus[0][1] == [third, two_thirds]
        assert mus[1][0] == [two_thirds, two_thirds]
        assert mus[1][1] == [third, third]
        assert trace["group_confidences"][0] == [third, third]
        assert trace["group_confidences"][1] == [two_thirds, third]
        assert trace["confidences"] == [two_thirds, third]
        assert trace["crisp"] == pytest.approx(4 / 3)
        assert trace["no_coverage"] is False

    def test_trace_agrees_with_pipeline(self, worked_model):
        trace = infer_trace(worked_model, QUERY)
        fz = infer_fuzzy(worked_model, QUERY)
        assert trace["confidences"] == fz.confidences.tolist()
        assert trace["level_values"] == fz.level_values.tolist()
        assert trace["crisp"] == infer(worked_model, QUERY)

    def test_uncovered_trace(self, worked_model):
        trace = infer_trace(worked_model, (9.9, 9.9))
        assert trace["no_coverage"] is True
        assert trace["crisp"] is None

    def test_empty_model_trace_all_zero(self):
        model = Model([], SPECS, OUT, RADII)
        trace = infer_trace(model, QUERY)
        assert trace["confidences"] == [0.0, 0.0]
        assert trace["no_coverage"] is True

    def test_group_maximum_equals_kernel_confidences(self):
        rng = np.random.default_rng(42)
        for merged in (False, True):
            specs = [QuantizationSpec(0, 1, 11)] * 2
            out = QuantizationSpec(0, 1, 9)
            samples = [Sample(tuple(rng.uniform(0, 1, 2)), float(rng.uniform(0, 1)))
                       for _ in range(15)]
            train = train_merged if merged else train_full
            model = train(samples, specs, out, StainRadii(3.0, 2.0))
            for q in rng.uniform(-0.1, 1.1, size=(20, 2)):
                trace = infer_trace(model, q)
                group_max = np.max(trace["group_confidences"], axis=0)
                assert np.array_equal(group_max, trace["confidences"])
                assert np.array_equal(group_max, infer_many_fuzzy(model, q[None])[0])

    def test_trace_is_json_serializable(self, worked_model):
        import json

        json.dumps(infer_trace(worked_model, QUERY))


class TestLevelValueSemantics:
    def test_level_values_come_from_dequantize(self, worked_model):
        fz = infer_fuzzy(worked_model, QUERY)
        for k in (1, 2):
            assert fz.level_values[k - 1] == dequantize(OUT, k)

    def test_entries_pairs(self, worked_model):
        fz = infer_fuzzy(worked_model, QUERY)
        entries = fz.entries
        assert len(entries) == 2
        assert entries[0][0] == 1.0 and entries[1][0] == 2.0
