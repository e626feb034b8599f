"""Plane diffusion, stain groups, derived planes, and the three training policies."""

import numpy as np
import pytest

from inkspread.core import QuantizationSpec, StainRadii
from inkspread.errors import EqualOutputConflict
from inkspread.model import (
    IdsGroup,
    IdsPlane,
    Model,
    Sample,
    diffuse,
    empty_plane,
    merge_into_group,
    train_error_gated,
    train_full,
    train_merged,
)

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
