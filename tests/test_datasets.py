"""Benchmark surface generators, spiral/circle classification sets, iris."""

import math

import numpy as np
import pytest

from inkspread.datasets import (
    Dataset,
    bundled_iris_path,
    circle_class,
    f1,
    f2,
    gen_circles,
    gen_f1,
    gen_f2,
    gen_two_spiral,
    load_csv,
    load_iris,
    spiral_points,
)
from inkspread.errors import MalformedCsvError
from inkspread.model import Sample


class TestSurfaceFunctions:
    def test_f1_at_unit_point(self):
        assert f1(1.0, 1.0) == 9.0

    def test_f1_formula_spot_check(self):
        x1, x2 = 2.0, 4.0
        assert f1(x1, x2) == pytest.approx((1 + x1 ** -2 + x2 ** -1.5) ** 2)

    def test_f2_zero_at_pi(self):
        assert f2(math.pi, math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_f2_formula_spot_check(self):
        x1, x2 = 3.0, 7.0
        want = math.sqrt(2 * (math.sin(x1) / x1) ** 2 + 3 * (math.sin(x2) / x2) ** 2)
        assert f2(x1, x2) == pytest.approx(want)


class TestSurfaceGenerators:
    @pytest.mark.parametrize("gen,fn", [(gen_f1, f1), (gen_f2, f2)])
    def test_outputs_computed_exactly(self, gen, fn):
        ds = gen(200, 0)
        for s in ds.samples:
            assert s.output == fn(*s.inputs)

    def test_samples_inside_declared_ranges(self):
        ds = gen_f1(500, 3)
        arr = ds.inputs_array()
        for j, (lo, hi) in enumerate(ds.input_ranges):
            assert lo <= arr[:, j].min() and arr[:, j].max() <= hi

    def test_same_seed_same_data(self):
        a = gen_f2(100, 42)
        b = gen_f2(100, 42)
        assert np.array_equal(a.inputs_array(), b.inputs_array())
        assert np.array_equal(a.outputs_array(), b.outputs_array())

    def test_different_seed_different_data(self):
        a = gen_f2(100, 1)
        b = gen_f2(100, 2)
        assert not np.array_equal(a.inputs_array(), b.inputs_array())

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            gen_f1(0, 0)


class TestTwoSpiral:
    def test_arm_geometry(self):
        pts = spiral_points(100, turns=3.0, r_max=1.0)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert radii.max() == pytest.approx(1.0)
        assert np.all(np.diff(radii) > 0)

    def test_classes_are_mirror_images(self):
        ds = gen_two_spiral(50, 0)
        arr = ds.inputs_array()
        y = ds.outputs_array()
        one = arr[y == 1]
        two = arr[y == 2]
        assert len(one) == len(two) == 50
        assert np.allclose(np.sort(one, axis=0), np.sort(-two, axis=0))

    def test_seed_only_shuffles_order(self):
        a = gen_two_spiral(40, 0)
        b = gen_two_spiral(40, 9)
        ra = {tuple(s.inputs) + (s.output,) for s in a.samples}
        rb = {tuple(s.inputs) + (s.output,) for s in b.samples}
        assert ra == rb
        assert [s.inputs for s in a.samples] != [s.inputs for s in b.samples]

    def test_kind_and_class_count(self):
        ds = gen_two_spiral(10, 0)
        assert ds.kind == "classification"
        assert ds.class_count == 2
        assert set(ds.outputs_array().tolist()) == {1.0, 2.0}


class TestCircles:
    def test_class_rule(self):
        assert circle_class(0.0, 0.0) == 1
        assert circle_class(0.0, 1.5) == 2
        assert circle_class(3.0, 3.0) == 3

    def test_samples_follow_rule_and_domain(self):
        ds = gen_circles(400, 5)
        for s in ds.samples:
            x1, x2 = s.inputs
            assert -3 <= x1 <= 3 and -3 <= x2 <= 3
            assert s.output == circle_class(x1, x2)
            r2 = x1 * x1 + x2 * x2
            assert r2 != 1.0 and r2 != 4.0

    def test_all_three_classes_present(self):
        ds = gen_circles(300, 0)
        assert set(ds.outputs_array().tolist()) == {1.0, 2.0, 3.0}

    def test_deterministic(self):
        assert np.array_equal(gen_circles(100, 8).inputs_array(),
                              gen_circles(100, 8).inputs_array())


class TestIris:
    def test_bundled_copy_shape(self):
        ds = load_iris()
        assert len(ds.samples) == 150
        assert all(len(s.inputs) == 4 for s in ds.samples)
        assert ds.class_count == 3

    def test_fifty_samples_per_class(self):
        y = load_iris().outputs_array()
        assert [int((y == k).sum()) for k in (1, 2, 3)] == [50, 50, 50]

    def test_bundled_path_exists(self):
        assert bundled_iris_path().exists()

    def test_wrong_column_count_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,3.0,setosa\n")
        with pytest.raises(MalformedCsvError, match="columns"):
            load_iris(path)

    def test_non_numeric_feature_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,x,0.2,setosa\n" * 150)
        with pytest.raises(MalformedCsvError, match="row 1"):
            load_iris(path)

    def test_wrong_row_count_reported(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("1.0,2.0,3.0,0.2,setosa\n" * 10)
        with pytest.raises(MalformedCsvError, match="150"):
            load_iris(path)

    def test_string_labels_mapped_in_sorted_order(self, tmp_path):
        path = tmp_path / "toy.csv"
        rows = []
        for i, name in enumerate(["zed", "alpha", "mid"]):
            rows += [f"{i}.0,1.0,1.0,1.0,{name}"] * 50
        path.write_text("\n".join(rows) + "\n")
        ds = load_iris(path)
        assert ds.samples[0].output == 3.0
        assert ds.samples[50].output == 1.0
        assert ds.samples[100].output == 2.0


    def numeric_copy(self, tmp_path, labels):
        """The bundled iris rows with their class names replaced by ``labels``."""
        names = {"setosa": labels[0], "versicolor": labels[1], "virginica": labels[2]}
        rows = [line.rsplit(",", 1) for line in bundled_iris_path().read_text().splitlines()]
        path = tmp_path / "numeric.csv"
        path.write_text("".join(f"{x},{names[y]}\n" for x, y in rows))
        return path

    def test_numeric_labels_are_read_by_value(self, tmp_path):
        path = self.numeric_copy(tmp_path, ["1", "2", "3"])
        path.write_text(path.read_text().replace(",1\n", ",1.0\n", 1))
        ds = load_iris(path)
        assert ds.class_count == 3
        y = ds.outputs_array()
        assert [int((y == k).sum()) for k in (1, 2, 3)] == [50, 50, 50]

    def test_class_count_is_the_largest_numeric_label(self, tmp_path):
        ds = load_iris(self.numeric_copy(tmp_path, ["1", "2", "5"]))
        assert ds.class_count == 5
        assert sorted(set(ds.outputs_array())) == [1.0, 2.0, 5.0]

    @pytest.mark.parametrize("label", ["0", "2.5", "-1", "inf", "nan"])
    def test_numeric_labels_must_be_integers_from_one(self, tmp_path, label):
        with pytest.raises(MalformedCsvError, match="integers >= 1"):
            load_iris(self.numeric_copy(tmp_path, ["1", "2", label]))

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "commented.csv"
        text = bundled_iris_path().read_text().replace("\n", "  # a note\n", 3)
        path.write_text("# sepal length, sepal width, petal length, petal width, class\n\n" + text)
        assert load_iris(path).samples == load_iris().samples


class TestCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_inputs_first_output_last(self, tmp_path):
        ds = load_csv(self.write(tmp_path, "# x1, x2, y\n1, 2, 3\n\n4,-5,6.5  # last\n"))
        assert [(s.inputs, s.output) for s in ds.samples] == [((1.0, 2.0), 3.0), ((4.0, -5.0), 6.5)]
        assert ds.input_ranges == [(1.0, 4.0), (-5.0, 2.0)]

    def test_row_and_column_of_a_bad_field_are_named(self, tmp_path):
        with pytest.raises(MalformedCsvError, match="row 3 column 2: 'x' is not numeric"):
            load_csv(self.write(tmp_path, "1,2,3\n# note\n1,x,3\n"))

    def test_one_width(self, tmp_path):
        with pytest.raises(MalformedCsvError, match="row 2 has 2 columns, expected 3"):
            load_csv(self.write(tmp_path, "1,2,3\n1,2\n"))

    def test_at_least_an_input_and_an_output(self, tmp_path):
        with pytest.raises(MalformedCsvError, match="row 1 has 1 columns, expected 2"):
            load_csv(self.write(tmp_path, "1\n2\n"))

    def test_no_data_rows(self, tmp_path):
        with pytest.raises(MalformedCsvError, match="no data rows"):
            load_csv(self.write(tmp_path, "# only a comment\n\n"))


class TestDatasetType:
    def test_regression_kind_has_no_class_count(self):
        ds = gen_f1(10, 0)
        assert ds.kind == "regression"
        assert ds.class_count is None

    def test_out_of_range_sample_rejected(self):
        with pytest.raises(ValueError):
            Dataset([Sample((5.0,), 1.0)], [(0.0, 1.0)], "regression", None)

    def test_non_integer_class_label_rejected(self):
        with pytest.raises(ValueError):
            Dataset([Sample((0.5,), 1.5)], [(0.0, 1.0)], "classification", 2)
