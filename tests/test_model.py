"""Plane diffusion, stain groups, derived planes, and the three training policies."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inkspread.core import MAX_LEVELS, QuantizationSpec, StainRadii, quantize
from inkspread.errors import EqualOutputConflict
from inkspread.model import (
    IdsGroup,
    IdsPlane,
    Model,
    Sample,
    diffuse,
    merge_into_group,
    train_error_gated,
    train_full,
    train_merged,
)

from reference import diffuse_reference, empty_plane, plane_reference

IN9 = QuantizationSpec(1, 9, 9)
OUT5 = QuantizationSpec(1, 5, 5)


def fresh_plane():
    return empty_plane(IN9, OUT5)


class TestDiffuse:
    def test_radius_two_stain_profile(self):
        plane = diffuse(fresh_plane(), 5, 3, StainRadii(2, 2))
        assert plane.grid[4, 2] == 1.0
        assert plane.grid[5, 2] == 0.5
        assert plane.grid[6, 2] == 0.0

    def test_idempotent(self):
        radii = StainRadii(2.5, 1.5)
        once = diffuse(fresh_plane(), 4, 2, radii)
        twice = diffuse(diffuse(fresh_plane(), 4, 2, radii), 4, 2, radii)
        assert np.array_equal(once.grid, twice.grid)

    def test_overlap_is_cellwise_max(self):
        radii = StainRadii(3, 2)
        a = diffuse(fresh_plane(), 3, 2, radii)
        b = diffuse(fresh_plane(), 5, 3, radii)
        both = diffuse(diffuse(fresh_plane(), 3, 2, radii), 5, 3, radii)
        assert np.array_equal(both.grid, np.maximum(a.grid, b.grid))

    def test_stain_order_does_not_matter(self):
        radii = StainRadii(4, 3)
        stains = [(1, 1), (7, 4), (4, 2), (9, 5), (4, 2)]
        forward = fresh_plane()
        backward = fresh_plane()
        for c in stains:
            diffuse(forward, *c, radii)
        for c in reversed(stains):
            diffuse(backward, *c, radii)
        assert np.array_equal(forward.grid, backward.grid)

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(5)
        plane = fresh_plane()
        for _ in range(40):
            diffuse(plane, int(rng.integers(1, 10)), int(rng.integers(1, 6)),
                    StainRadii(float(rng.uniform(0.5, 6)), float(rng.uniform(0.5, 4))))
        assert plane.grid.min() >= 0.0 and plane.grid.max() <= 1.0

    def test_center_outside_plane_rejected(self):
        with pytest.raises(ValueError):
            diffuse(fresh_plane(), 0, 3, StainRadii(2, 2))
        with pytest.raises(ValueError):
            diffuse(fresh_plane(), 5, 6, StainRadii(2, 2))

    @pytest.mark.parametrize("center", [(4.5, 2), (4, 2.5), (math.nan, 2), (4, math.inf)])
    def test_a_center_between_levels_rejected(self, center):
        with pytest.raises(ValueError, match="is not a level"):
            diffuse(fresh_plane(), *center, StainRadii(2, 2))

    def test_whole_float_centers_are_levels(self):
        radii = StainRadii(2.5, 1.5)
        assert np.array_equal(diffuse(fresh_plane(), 4.0, np.float64(2.0), radii).grid,
                              diffuse(fresh_plane(), 4, 2, radii).grid)


class TestPlaneAndGroupTypes:
    def test_grid_shape_must_match_specs(self):
        with pytest.raises(ValueError):
            IdsPlane(IN9, OUT5, np.zeros((3, 5)))

    def test_group_output_levels_distinct(self):
        with pytest.raises(ValueError, match="repeat"):
            IdsGroup([((1, 1), 3), ((2, 2), 3)])
        assert IdsGroup([((1, 1), 3), ((2, 2), 4)]).stains == [((1, 1), 3), ((2, 2), 4)]

    def test_sample_inputs_coerced_to_tuple(self):
        s = Sample([1.0, 2.0], 3.0)
        assert s.inputs == (1.0, 2.0)


FIX_SPECS = [QuantizationSpec(1, 10, 19), QuantizationSpec(1, 10, 19)]
FIX_OUT = QuantizationSpec(1, 2, 2)
FIX_SAMPLES = [Sample((1.5, 4.0), 2.0), Sample((3.0, 4.0), 1.0)]


class TestTrainFull:
    def test_one_group_per_sample(self):
        model = train_full(FIX_SAMPLES, FIX_SPECS, FIX_OUT, StainRadii(3, 1.5))
        assert len(model.groups) == 2
        assert [g.stains for g in model.groups] == [[((2, 7), 2)], [((5, 7), 1)]]

    def test_each_plane_has_exactly_one_apex(self):
        model = train_full(FIX_SAMPLES, FIX_SPECS, FIX_OUT, StainRadii(3, 1.5))
        for g in range(len(model.groups)):
            for j in range(model.n_inputs):
                assert np.count_nonzero(model.plane(g, j).grid == 1.0) == 1

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValueError):
            train_full([], FIX_SPECS, FIX_OUT, StainRadii(1, 1))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train_full([Sample((1.0,), 1.0)], FIX_SPECS, FIX_OUT, StainRadii(1, 1))

    def test_levels_equal_scalar_quantize(self):
        # ties between two levels go to the even level; values off the axis,
        # +-inf and differences that overflow clamp to the end levels, all
        # with no numpy warning, as the scalar quantize gives them
        specs = [QuantizationSpec(0.0, 4.0, 5), QuantizationSpec(-1e308, 0.0, 5)]
        out = QuantizationSpec(-2.0, 2.0, 9)
        values = [0.5, 1.5, 2.5, 3.5, 0.0, 4.0, -3.0, 9.0, math.inf, -math.inf, 1.7e308, -1.7e308, -0.25e308]
        samples = [Sample((x, y), z) for x, y, z in zip(values, values[::-1], values[3:] + values[:3])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_full(samples, specs, out, StainRadii(1, 1))
        c_in, c_out, offsets = model.stains()
        assert c_in.tolist() == [[quantize(spec, x) for spec, x in zip(specs, s.inputs)] for s in samples]
        assert c_in[:4, 0].tolist() == [1, 3, 3, 5]
        assert c_out.tolist() == [quantize(out, s.output) for s in samples]
        assert offsets.tolist() == list(range(len(samples) + 1))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_levels_equal_scalar_quantize_on_any_axis(self, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        value = st.floats(allow_nan=False)

        def spec():
            lo, hi = sorted(data.draw(st.lists(finite, min_size=2, max_size=2, unique=True)))
            return QuantizationSpec(lo, hi, data.draw(st.integers(2, 300)))

        specs, out = [spec(), spec()], spec()
        samples = [Sample((data.draw(value), data.draw(value)), data.draw(value))
                   for _ in range(data.draw(st.integers(1, 8)))]
        try:
            # inf - inf or inf / inf on some axis has no level
            want = ([[quantize(spec, x) for spec, x in zip(specs, s.inputs)] for s in samples],
                    [quantize(out, s.output) for s in samples])
        except ValueError:
            with pytest.raises(ValueError, match="^NaN has no quantization level$"):
                train_full(samples, specs, out, StainRadii(1, 1))
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c_in, c_out, _ = train_full(samples, specs, out, StainRadii(1, 1)).stains()
        assert (c_in.tolist(), c_out.tolist()) == want

    @pytest.mark.parametrize("sample", [Sample((math.nan, 4.0), 1.0), Sample((1.5, 4.0), math.nan)])
    def test_nan_rejected(self, sample):
        with pytest.raises(ValueError, match="^NaN has no quantization level$"):
            train_full([FIX_SAMPLES[0], sample], FIX_SPECS, FIX_OUT, StainRadii(1, 1))

    def test_thousand_samples_thousand_groups(self):
        rng = np.random.default_rng(0)
        samples = [Sample(tuple(rng.uniform(1, 10, 2)), float(rng.uniform(1, 10)))
                   for _ in range(1000)]
        specs = [QuantizationSpec(1, 10, 32)] * 2
        model = train_full(samples, specs, QuantizationSpec(1, 10, 32), StainRadii(3, 3))
        assert len(model.groups) == 1000


GATE_SPECS = [QuantizationSpec(0, 10, 11), QuantizationSpec(0, 10, 11)]
GATE_OUT = QuantizationSpec(0, 10, 11)


class TestTrainErrorGated:
    def test_duplicate_sample_stored_once(self):
        samples = [Sample((2.0, 7.0), 7.0), Sample((2.0, 7.0), 7.0)]
        model = train_error_gated(samples, GATE_SPECS, GATE_OUT, StainRadii(3, 1), 0.0)
        assert len(model.groups) == 1

    def test_both_worked_samples_kept(self):
        model = train_error_gated(FIX_SAMPLES, FIX_SPECS, FIX_OUT, StainRadii(3, 1.5), 0.1)
        assert len(model.groups) == 2

    def test_within_tolerance_sample_skipped(self):
        samples = [Sample((2.0, 7.0), 7.0), Sample((2.0, 7.0), 6.9)]
        model = train_error_gated(samples, GATE_SPECS, GATE_OUT, StainRadii(3, 1), 0.2)
        assert len(model.groups) == 1

    def test_group_count_never_exceeds_sample_count(self):
        rng = np.random.default_rng(11)
        samples = [Sample(tuple(rng.uniform(0, 10, 2)), float(rng.uniform(0, 10)))
                   for _ in range(60)]
        model = train_error_gated(samples, GATE_SPECS, GATE_OUT, StainRadii(2, 1), 0.5)
        assert 1 <= len(model.groups) <= 60

    def test_nan_tolerance_rejected(self):
        # every comparison with NaN is false, so the gate would keep only
        # the samples it cannot cover
        with pytest.raises(ValueError, match="NaN"):
            train_error_gated(FIX_SAMPLES, FIX_SPECS, FIX_OUT, StainRadii(3, 1.5), float("nan"))

    @pytest.mark.parametrize("policy", ["full", "error-gated", "merged"])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_a_nan_output_rejected_in_any_position(self, policy, position):
        # |prediction - NaN| > tolerance is false, so the gate would skip it
        unit = QuantizationSpec(0, 1, 8)
        samples = [Sample((0.5,), 0.5), Sample((0.9,), 0.1), Sample((0.2,), 0.7)]
        samples.insert(position, Sample((0.5,), math.nan))
        train = {"full": train_full, "merged": train_merged,
                 "error-gated": lambda *a: train_error_gated(*a, 0.1)}[policy]
        with pytest.raises(ValueError, match="NaN"):
            train(samples, [unit], unit, StainRadii(2, 2))

    @pytest.mark.parametrize("seed", range(8))
    def test_higher_tolerance_never_stores_more(self, seed):
        rng = np.random.default_rng(seed)
        samples = [Sample(tuple(rng.uniform(0, 10, 2)), float(rng.uniform(0, 10)))
                   for _ in range(80)]
        counts = [
            len(train_error_gated(samples, GATE_SPECS, GATE_OUT,
                                  StainRadii(3, 1.5), tol).groups)
            for tol in (0.1, 0.5, 1.0, 2.0)
        ]
        assert counts == sorted(counts, reverse=True)


class TestMerge:
    def test_equal_quantized_output_rejected(self):
        group = IdsGroup()
        merge_into_group(group, Sample((2.0, 7.0), 7.0), GATE_SPECS, GATE_OUT)
        with pytest.raises(EqualOutputConflict):
            merge_into_group(group, Sample((8.0, 3.0), 7.0), GATE_SPECS, GATE_OUT)
        assert group.stains == [((3, 8), 8)]

    def test_distinct_outputs_accumulate(self):
        group = IdsGroup()
        merge_into_group(group, Sample((2.0, 7.0), 7.0), GATE_SPECS, GATE_OUT)
        merge_into_group(group, Sample((8.0, 3.0), 2.0), GATE_SPECS, GATE_OUT)
        assert group.stains == [((3, 8), 8), ((9, 4), 3)]

    def test_merge_into_empty_group_always_succeeds(self):
        group = IdsGroup()
        merge_into_group(group, Sample((5.0, 5.0), 9.0), GATE_SPECS, GATE_OUT)
        assert group.stains == [((6, 6), 10)]

    def test_no_two_apices_share_an_output_row(self):
        rng = np.random.default_rng(3)
        group = IdsGroup()
        stored = 0
        for _ in range(40):
            s = Sample(tuple(rng.uniform(0, 10, 2)), float(rng.uniform(0, 10)))
            try:
                merge_into_group(group, s, GATE_SPECS, GATE_OUT)
                stored += 1
            except EqualOutputConflict:
                pass
        assert stored == len({c_out for _, c_out in group.stains}) <= GATE_OUT.levels
        model = Model([group], GATE_SPECS, GATE_OUT, StainRadii(2, 1))
        for j in range(model.n_inputs):
            apex_rows = np.nonzero((model.plane(0, j).grid == 1.0).any(axis=0))[0]
            assert len(apex_rows) == stored


class TestTrainMerged:
    def test_merged_model_never_larger_than_full(self):
        rng = np.random.default_rng(21)
        samples = [Sample(tuple(rng.uniform(0, 10, 2)), float(rng.uniform(0, 10)))
                   for _ in range(120)]
        merged = train_merged(samples, GATE_SPECS, GATE_OUT, StainRadii(2, 1))
        assert len(merged.groups) < 120
        total_levels = sum(len({c_out for _, c_out in g.stains}) for g in merged.groups)
        assert total_levels == 120

    def test_conflicting_pair_lands_in_two_groups(self):
        samples = [Sample((2.0, 7.0), 7.0), Sample((8.0, 3.0), 7.0)]
        merged = train_merged(samples, GATE_SPECS, GATE_OUT, StainRadii(2, 1))
        assert len(merged.groups) == 2


class TestModelAssembly:
    def test_append_group_keeps_specs_consistent(self):
        model = Model([], FIX_SPECS, FIX_OUT, StainRadii(3, 1.5))
        for bad in (IdsGroup([((1, 1), 3)]), IdsGroup([((1,), 1)]), IdsGroup([((0, 1), 1)]),
                    IdsGroup([((1, 20), 1)])):
            with pytest.raises(ValueError):
                model.append_group(bad)
        with pytest.raises(ValueError):
            Model([IdsGroup([((1, 1), 3)])], FIX_SPECS, FIX_OUT, StainRadii(3, 1.5))
        assert model.groups == []

    def test_output_axis_is_bounded(self):
        # the kernel's output-axis tables grow with the square of its levels
        wide = QuantizationSpec(1, 2, MAX_LEVELS + 1)
        with pytest.raises(ValueError, match="exceeds"):
            Model([], FIX_SPECS, wide, StainRadii(3, 1.5))
        with pytest.raises(ValueError, match="exceeds"):
            train_full(FIX_SAMPLES, FIX_SPECS, wide, StainRadii(3, 1.5))
        assert len(Model([], FIX_SPECS, QuantizationSpec(1, 2, MAX_LEVELS), StainRadii(3, 1.5)).groups) == 0

    def test_input_stacks_reflect_plane_grids(self):
        model = train_full(FIX_SAMPLES, FIX_SPECS, FIX_OUT, StainRadii(3, 1.5))
        stacks = model.input_stacks()
        assert len(stacks) == 2
        assert stacks[0].shape == (2, 19, 2)
        for g_i in range(len(FIX_SAMPLES)):
            for j, spec in enumerate(FIX_SPECS):
                (c_in, c_out), = model.groups[g_i].stains
                plane = diffuse(empty_plane(spec, FIX_OUT), c_in[j], c_out, model.radii)
                assert np.array_equal(stacks[j][g_i], plane.grid)
                assert np.array_equal(model.plane(g_i, j).grid, plane.grid)
        assert Model([], FIX_SPECS, FIX_OUT, model.radii).input_stacks()[1].shape == (0, 19, 2)


@st.composite
def stained_models(draw):
    """Models straight from stain columns over one to three inputs: groups
    of zero to four stains (empty and merged groups), stains anywhere on
    the plane with its edges favoured, and radii from a fraction of a level
    to wider than the plane."""
    n_in = draw(st.integers(1, 3))
    specs = [QuantizationSpec(0.0, 1.0, draw(st.integers(2, 9))) for _ in range(n_in)]
    out = QuantizationSpec(0.0, 1.0, draw(st.integers(2, 7)))
    radius = st.floats(0.1, 4.0) | st.integers(1, 12).map(float) | st.floats(8.0, 1e6)
    radii = StainRadii(draw(radius), draw(radius))
    c_in, c_out, sizes = [], [], []
    for _ in range(draw(st.integers(0, 6))):
        levels = draw(st.lists(st.integers(1, out.levels) | st.sampled_from([1, out.levels]), unique=True,
                               max_size=4))
        sizes.append(len(levels))
        c_out += levels
        c_in += [[draw(st.sampled_from([1, spec.levels]) | st.integers(1, spec.levels)) for spec in specs]
                 for _ in levels]
    return Model.from_columns(np.array(c_in, dtype=np.int64).reshape(len(c_out), n_in), c_out,
                              np.cumsum([0, *sizes]), specs, out, radii)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


class TestDerivedPlanes:
    @settings(max_examples=150, deadline=None)
    @given(stained_models(), st.data())
    def test_planes_are_bitwise_the_per_stain_oracle(self, model, data):
        n_g = len(model.groups)
        for j, spec in enumerate(model.input_specs):
            want = np.array([plane_reference(model, g, j).grid for g in range(n_g)]).reshape(
                n_g, spec.levels, model.output_spec.levels)
            for g in range(n_g):
                assert same_bits(model.plane(g, j).grid, want[g])
            assert same_bits(model.input_stacks()[j], want)
            g0 = data.draw(st.integers(0, n_g))
            g1 = data.draw(st.integers(g0, n_g))
            assert same_bits(model.planes(j, g0, g1), want[g0:g1])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 9), st.integers(2, 9), st.data())
    def test_diffuse_is_bitwise_the_per_stain_oracle(self, n_in, n_out, data):
        """Onto a plane that already holds values, the edges and radii wider
        than the plane included."""
        radius = st.floats(0.1, 4.0) | st.integers(1, 12).map(float) | st.floats(8.0, 1e6)
        radii = StainRadii(data.draw(radius), data.draw(radius))
        grid = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_in * n_out, max_size=n_in * n_out)))
        got = IdsPlane(QuantizationSpec(0, 1, n_in), QuantizationSpec(0, 1, n_out), grid.reshape(n_in, n_out))
        want = IdsPlane(got.input_spec, got.output_spec, got.grid.copy())
        c_in = data.draw(st.sampled_from([1, n_in]) | st.integers(1, n_in))
        c_out = data.draw(st.sampled_from([1, n_out]) | st.integers(1, n_out))
        assert diffuse(got, c_in, c_out, radii) is got
        assert same_bits(got.grid, diffuse_reference(want, c_in, c_out, radii).grid)

    def test_a_plane_of_a_negative_group_counts_from_the_end(self):
        model = train_full(FIX_SAMPLES, FIX_SPECS, FIX_OUT, StainRadii(3, 1.5))
        assert same_bits(model.plane(-1, 1).grid, model.plane(len(model.groups) - 1, 1).grid)
        with pytest.raises(IndexError):
            model.plane(len(model.groups), 0)

    @pytest.mark.parametrize("g, j, name", [(True, 0, "group g"), (np.bool_(False), 0, "group g"),
                                            (0.0, 0, "group g"), ("0", 0, "group g"), (None, 0, "group g"),
                                            (0, True, "input j"), (0, 1.0, "input j"), (0, "1", "input j")])
    def test_an_index_that_is_not_an_integer_rejected(self, g, j, name):
        # True read group 1's plane, (0, True) failed inside numpy and 0.0
        # raised TypeError
        model = train_full(FIX_SAMPLES, FIX_SPECS, FIX_OUT, StainRadii(3, 1.5))
        value = g if name == "group g" else j
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            model.plane(g, j)
        if name == "group g":
            with pytest.raises(ValueError, match=name):
                model.groups[g]
        else:
            for derive in (model.tent_values, model.plane_codes, model.planes):
                with pytest.raises(ValueError, match=name):
                    derive(j)

    def test_numpy_integer_indices_accepted(self):
        model = train_full(FIX_SAMPLES, FIX_SPECS, FIX_OUT, StainRadii(3, 1.5))
        assert same_bits(model.plane(np.int64(1), np.uint8(0)).grid, model.plane(1, 0).grid)
        assert same_bits(model.plane(np.int32(-1), np.int64(-1)).grid, model.plane(1, 1).grid)
        assert model.groups[np.int64(1)] == model.groups[1]
        assert same_bits(model.plane_codes(np.int16(1)), model.plane_codes(1))
        assert same_bits(model.tent_values(np.int64(-2)), model.tent_values(0))
