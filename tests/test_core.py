"""Quantization and stain-shape unit tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inkspread.core import (
    QuantizationSpec,
    StainRadii,
    dequantize,
    level_values,
    pyramid_membership,
    quantize,
    quantize_many,
)


def spec_strategy():
    return st.builds(
        lambda lo, span, n: QuantizationSpec(lo, lo + span, n),
        st.floats(-1e6, 1e6),
        st.floats(1e-3, 1e6),
        st.integers(2, 512),
    )


class TestQuantize:
    def test_lower_bound_maps_to_first_level(self):
        assert quantize(QuantizationSpec(1, 10, 10), 1) == 1

    def test_midpoint_of_symmetric_grid(self):
        assert quantize(QuantizationSpec(0, 10, 11), 5) == 6

    def test_above_range_clamps_to_top_level(self):
        assert quantize(QuantizationSpec(1, 10, 128), 10.5) == 128

    def test_below_range_clamps_to_first_level(self):
        assert quantize(QuantizationSpec(1, 10, 128), -3.0) == 1

    def test_vector_path_matches_scalar_path(self):
        spec = QuantizationSpec(-2.0, 7.0, 37)
        xs = np.linspace(-3, 8, 211)
        vec = quantize_many(spec, xs)
        assert vec.tolist() == [quantize(spec, float(x)) for x in xs]

    @given(spec_strategy(), st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
    def test_scalar_path_matches_vector_path_everywhere(self, spec, xs):
        half_levels = [spec.min + (k + 0.5) * spec.step for k in range(-1, spec.levels)]
        xs = xs + half_levels
        with np.errstate(over="ignore"):  # huge values overflow to inf and clamp
            vec = quantize_many(spec, np.array(xs))
        assert vec.tolist() == [quantize(spec, x) for x in xs]

    def test_infinities_clamp_to_the_edge_levels(self):
        spec = QuantizationSpec(1, 10, 128)
        assert quantize(spec, float("inf")) == 128 and quantize(spec, float("-inf")) == 1
        assert quantize_many(spec, np.array([np.inf, -np.inf])).tolist() == [128, 1]

    def test_nan_has_no_level(self):
        spec = QuantizationSpec(1, 10, 128)
        with pytest.raises(ValueError, match="NaN"):
            quantize(spec, float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            quantize_many(spec, np.array([1.0, np.nan]))

    @given(spec_strategy(), st.floats(-2e6, 2e6))
    def test_result_always_in_range(self, spec, x):
        assert 1 <= quantize(spec, x) <= spec.levels

    @given(spec_strategy(), st.data())
    def test_monotone_nondecreasing(self, spec, data):
        a = data.draw(st.floats(spec.min - 1, spec.max + 1))
        b = data.draw(st.floats(a, spec.max + 2))
        assert quantize(spec, a) <= quantize(spec, b)


class TestDequantize:
    def test_upper_bound(self):
        assert dequantize(QuantizationSpec(1, 10, 10), 10) == 10

    def test_two_level_first(self):
        assert dequantize(QuantizationSpec(0, 1, 2), 1) == 0

    def test_interior_level(self):
        value = dequantize(QuantizationSpec(1, 10, 128), 64)
        assert value == pytest.approx(1 + 63 * 9 / 127)
        assert value == pytest.approx(5.4646, abs=5e-5)

    def test_out_of_range_level_rejected(self):
        spec = QuantizationSpec(0, 1, 4)
        with pytest.raises(ValueError):
            dequantize(spec, 0)
        with pytest.raises(ValueError):
            dequantize(spec, 5)

    def test_fractional_level_supported(self):
        spec = QuantizationSpec(0.0, 3.0, 4)
        assert dequantize(spec, 1.5) == pytest.approx(0.5)

    @given(spec_strategy())
    @settings(max_examples=200)
    def test_round_trip_identity_on_all_levels(self, spec):
        for k in range(1, spec.levels + 1):
            assert quantize(spec, dequantize(spec, k)) == k

    @given(spec_strategy())
    def test_level_values_agree_bitwise_with_dequantize(self, spec):
        vals = level_values(spec)
        assert vals.shape == (spec.levels,)
        for k in (1, 2, spec.levels // 2 + 1, spec.levels):
            assert vals[k - 1] == dequantize(spec, k)


class TestSpecValidation:
    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            QuantizationSpec(5, 5, 10)

    def test_infinite_or_nan_bounds_rejected(self):
        for lo, hi in ((0, float("inf")), (float("-inf"), 1), (float("nan"), 1)):
            with pytest.raises(ValueError):
                QuantizationSpec(lo, hi, 10)

    def test_single_level_rejected(self):
        with pytest.raises(ValueError):
            QuantizationSpec(0, 1, 1)

    def test_step_property(self):
        assert QuantizationSpec(0, 9, 10).step == 1.0

    def test_radii_must_be_positive(self):
        with pytest.raises(ValueError):
            StainRadii(0.0, 1.0)
        with pytest.raises(ValueError):
            StainRadii(1.0, -2.0)
        with pytest.raises(ValueError):
            StainRadii(float("nan"), 1.0)


class TestPyramid:
    R = StainRadii(1.5, 1.5)

    def test_apex_is_one(self):
        assert pyramid_membership(0, 0, StainRadii(0.3, 9)) == 1.0

    def test_half_step_on_input_axis(self):
        assert pyramid_membership(0.5, 0, self.R) == pytest.approx(2 / 3)

    def test_half_step_and_full_step(self):
        assert pyramid_membership(0.5, 1, self.R) == pytest.approx(1 / 3)

    def test_diagonal_full_step(self):
        assert pyramid_membership(1, 1, self.R) == pytest.approx(1 / 3)

    def test_zero_at_support_edge(self):
        assert pyramid_membership(1.5, 0, self.R) == 0.0
        assert pyramid_membership(0, 1.5, self.R) == 0.0

    @given(
        st.floats(-5, 5), st.floats(-5, 5),
        st.floats(0.1, 4), st.floats(0.1, 4),
    )
    def test_sign_symmetry_and_range(self, dx, dy, rin, rout):
        radii = StainRadii(rin, rout)
        v = pyramid_membership(dx, dy, radii)
        assert 0.0 <= v <= 1.0
        assert v == pyramid_membership(-dx, dy, radii)
        assert v == pyramid_membership(dx, -dy, radii)

    @given(
        st.floats(0, 5), st.floats(0, 5), st.floats(0, 3),
        st.floats(0.1, 4), st.floats(0.1, 4),
    )
    def test_monotone_in_each_offset(self, dx, dy, bump, rin, rout):
        radii = StainRadii(rin, rout)
        base = pyramid_membership(dx, dy, radii)
        assert pyramid_membership(dx + bump, dy, radii) <= base
        assert pyramid_membership(dx, dy + bump, radii) <= base

    @given(st.floats(-6, 6), st.floats(-6, 6), st.floats(0.1, 4), st.floats(0.1, 4))
    def test_support_is_open_rectangle(self, dx, dy, rin, rout):
        v = pyramid_membership(dx, dy, StainRadii(rin, rout))
        inside = abs(dx) < rin and abs(dy) < rout
        assert (v > 0) == inside
