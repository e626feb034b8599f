"""Metric definitions, experiment drivers, report files."""

import numpy as np
import pytest

from inkspread import cli
from inkspread.benchmarks import (
    CIRCLES_MIN,
    IRIS_MIN,
    SPIRAL_MIN,
    SUITE_DEFAULTS,
    TABLE1_BANDS,
    EvalReport,
    _resolve_seeds,
    average_regression_runs,
    classify_crisp,
    classify_max_membership,
    fvu,
    run_classification_experiment,
    run_iris_experiment,
    run_regression_experiment,
    run_spiral_experiment,
    write_report_csv,
    write_report_json,
)
from inkspread.core import QuantizationSpec, StainRadii, level_values
from inkspread.datasets import gen_circles
from inkspread.errors import NoCoveragePresentError, ZeroVarianceError
from inkspread.inference import infer_many_fuzzy
from inkspread.model import Sample, train_full


class TestFvu:
    def test_perfect_prediction(self):
        assert fvu([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_mean_prediction_scores_one(self):
        actual = [1.0, 2.0, 3.0, 6.0]
        mean = sum(actual) / 4
        assert fvu([mean] * 4, actual) == pytest.approx(1.0)

    def test_hand_vector(self):
        assert fvu([1.0, 2.0], [2.0, 4.0]) == pytest.approx(2.5)

    def test_scale_and_shift_invariance(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0, 5, 40)
        a = rng.uniform(0, 5, 40)
        base = fvu(p, a)
        for c, d in [(2.0, 0.0), (0.25, 3.0), (-1.5, -7.0)]:
            assert fvu(c * p + d, c * a + d) == pytest.approx(base, rel=1e-9)

    def test_nan_prediction_is_no_coverage(self):
        with pytest.raises(NoCoveragePresentError):
            fvu([1.0, float("nan")], [1.0, 2.0])

    def test_constant_reference_rejected(self):
        with pytest.raises(ZeroVarianceError):
            fvu([1.0, 2.0], [3.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fvu([1.0], [1.0, 2.0])


class TestEvalReport:
    def test_accuracy_range_enforced(self):
        with pytest.raises(ValueError):
            EvalReport("classification", accuracy=101.0)

    def test_negative_fvu_rejected(self):
        with pytest.raises(ValueError):
            EvalReport("regression", fvu=-0.1)

    def test_json_round_trip(self):
        import json

        rep = EvalReport("regression", fvu=0.25, seeds=[1, 2],
                         config={"radius": 10.0}, per_run=[{"seed": 1, "fvu": 0.25,
                                                            "no_coverage": 0}])
        data = json.loads(rep.to_json())
        assert data["fvu"] == 0.25
        assert data["config"]["radius"] == 10.0


class TestSeedResolution:
    def test_int_expands_deterministically(self):
        a = _resolve_seeds(7, 5)
        b = _resolve_seeds(7, 5)
        assert a == b
        assert len(set(a)) == 5

    def test_list_must_match_repetitions(self):
        assert _resolve_seeds([3, 4], 2) == [3, 4]
        with pytest.raises(ValueError):
            _resolve_seeds([3, 4], 3)


class TestClassifyCrisp:
    def test_rounds_to_nearest_class(self):
        crisp = np.array([0.6, 1.4, 2.51, 3.7])
        covered = np.ones(4, dtype=bool)
        assert classify_crisp(crisp, covered, 3).tolist() == [1, 1, 3, 3]

    def test_uncovered_maps_to_zero(self):
        crisp = np.array([1.0, np.nan])
        covered = np.array([True, False])
        assert classify_crisp(crisp, covered, 3).tolist() == [1, 0]

    def test_idempotent_on_covered_labels(self):
        labels = np.array([1.0, 2.0, 3.0])
        covered = np.ones(3, dtype=bool)
        once = classify_crisp(labels, covered, 3)
        again = classify_crisp(once.astype(float), covered, 3)
        assert np.array_equal(once, again)


class TestClassifyMaxMembership:
    # three classes on nine output levels: class levels 1, 5 and 9
    SPEC = QuantizationSpec(1.0, 3.0, 9)

    def test_picks_largest_class_level_reading(self):
        rows = np.zeros((3, 9))
        rows[0, [0, 4, 8]] = [0.2, 0.9, 0.1]
        rows[1, [0, 4, 8]] = [0.6, 0.5, 0.0]
        rows[2, [3, 8]] = [1.0, 0.3]
        assert classify_max_membership(rows, self.SPEC, 3).tolist() == [2, 1, 3]

    def test_zero_class_levels_map_to_zero(self):
        rows = np.zeros((2, 9))
        rows[1, [1, 2, 3]] = 0.7  # covered, but only between class levels
        assert classify_max_membership(rows, self.SPEC, 3).tolist() == [0, 0]

    def test_ties_go_to_lower_label(self):
        rows = np.zeros((3, 9))
        rows[0, [0, 8]] = 0.5
        rows[1, [4, 8]] = 0.5
        rows[2, [0, 4, 8]] = 0.25
        assert classify_max_membership(rows, self.SPEC, 3).tolist() == [1, 2, 1]

    def test_flat_top_stays_with_its_class(self):
        # one class-2 stain read a quarter of the way in from its input edge:
        # the output tent is clipped to a flat top at 0.25 over levels 2..8
        specs = [QuantizationSpec(0.0, 1.0, 9)]
        model = train_full([Sample((0.5,), 2.0)], specs, self.SPEC, StainRadii(4.0, 4.0))
        rows = infer_many_fuzzy(model, np.array([[0.125]]))
        assert rows[0].tolist() == [0.0] + [0.25] * 7 + [0.0]
        # argmax over all levels lands on the flat top's first level, which
        # rounds to the neighbouring class
        first = level_values(self.SPEC)[rows[0].argmax()]
        assert classify_crisp(np.array([first]), np.array([True]), 3).tolist() == [1]
        assert classify_max_membership(rows, self.SPEC, 3).tolist() == [2]


class TestRegressionExperiment:
    def test_deterministic_given_seed(self):
        a = run_regression_experiment("f2", 120, 10.0, 32, seed=5, test_count=60)
        b = run_regression_experiment("f2", 120, 10.0, 32, seed=5, test_count=60)
        assert a.fvu == b.fvu
        assert a.no_coverage_count == b.no_coverage_count

    def test_small_training_set_marks_nan(self):
        rep = run_regression_experiment("f2", 5, 3.0, 64, seed=0, test_count=100)
        assert rep.fvu is None
        assert rep.no_coverage_count > 0
        assert rep.per_run[0]["fvu"] is None

    def test_config_echo(self):
        rep = run_regression_experiment("f1", 80, 8.0, 32, seed=1, test_count=40)
        assert rep.config["func"] == "f1"
        assert rep.config["train_count"] == 80
        assert rep.seeds == [1]

    def test_average_marks_nan_if_any_run_uncovered(self):
        rep = average_regression_runs("f2", 5, 3.0, 64, seeds=[0, 1], test_count=100)
        assert rep.fvu is None
        assert len(rep.per_run) == 2


class TestClassificationExperiment:
    def test_fixed_dataset_split_accuracy(self):
        ds = gen_circles(200, 3)
        rep = run_classification_experiment(
            ds, (150, 50), StainRadii(30.0, 10.0), (128, 16), repetitions=3, seeds=0)
        assert rep.task == "classification"
        assert 0.0 <= rep.accuracy <= 100.0
        assert len(rep.per_run) == 3

    def test_generator_name_resamples_each_repetition(self):
        rep = run_classification_experiment(
            "circles", (150, 100), StainRadii(30.0, 10.0), (128, 16),
            repetitions=2, seeds=0)
        assert len(rep.per_run) == 2
        assert rep.per_run[0]["accuracy"] != rep.per_run[1]["accuracy"]

    def test_deterministic_given_seed_list(self):
        ds = gen_circles(120, 1)
        kw = dict(split=(90, 30), radii=StainRadii(30.0, 10.0),
                  levels=(64, 16), repetitions=2, seeds=[4, 5])
        a = run_classification_experiment(ds, **kw)
        b = run_classification_experiment(ds, **kw)
        assert a.accuracy == b.accuracy
        assert a.per_run == b.per_run


class TestSpiralExperiment:
    def test_reports_train_and_dense_accuracy(self):
        rep = run_spiral_experiment(60, StainRadii(8.0, 1.0), 64, 2, dense_per_class=500)
        assert 0.0 <= rep.accuracy <= 100.0
        assert "train_accuracy" in rep.config

    def test_fully_deterministic(self):
        a = run_spiral_experiment(40, StainRadii(8.0, 1.0), 64, 2, dense_per_class=300)
        b = run_spiral_experiment(40, StainRadii(8.0, 1.0), 64, 2, dense_per_class=300)
        assert a.accuracy == b.accuracy
        assert a.config == b.config


class TestBands:
    def test_the_cli_reads_the_one_copy(self):
        for name, value in [("TABLE1_BANDS", TABLE1_BANDS), ("SPIRAL_MIN", SPIRAL_MIN),
                            ("CIRCLES_MIN", CIRCLES_MIN), ("IRIS_MIN", IRIS_MIN),
                            ("SUITE_DEFAULTS", SUITE_DEFAULTS)]:
            assert getattr(cli, name) is value, name

    def test_thresholds(self):
        assert TABLE1_BANDS == {("f2", 10.0): (None, 0.05), ("f1", 10.0): (None, 0.15),
                                ("f2", 30.0): (0.05, 0.25)}
        assert (SPIRAL_MIN, CIRCLES_MIN, IRIS_MIN) == (99.0, 93.0, 93.0)


class TestIrisExperiment:
    def test_shipped_defaults_on_few_repetitions(self):
        p = SUITE_DEFAULTS["iris"]
        rep = run_iris_experiment(3, 0, StainRadii(p["radius_in"], p["radius_out"]),
                                  p["input_levels"], p["output_levels"])
        assert rep.accuracy > 80.0
        assert len(rep.per_run) == 3
        assert rep.config["split"] == [100, 50]


class TestReportFiles:
    def test_json_and_csv_outputs(self, tmp_path):
        rep = run_regression_experiment("f2", 120, 10.0, 32, seed=5, test_count=60)
        jpath = tmp_path / "r.json"
        cpath = tmp_path / "r.csv"
        write_report_json(rep, jpath)
        write_report_csv(rep, cpath)
        assert jpath.read_text().startswith("{")
        lines = cpath.read_text().splitlines()
        assert lines[0] == "run,seed,fvu,no_coverage_count"
        assert len(lines) == 2

    def test_reports_byte_identical_across_runs(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            rep = run_regression_experiment("f1", 100, 10.0, 32, seed=9, test_count=50)
            path = tmp_path / f"{tag}.json"
            write_report_json(rep, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_nan_cell_written_empty_in_csv(self, tmp_path):
        rep = run_regression_experiment("f2", 5, 3.0, 64, seed=0, test_count=100)
        path = tmp_path / "nan.csv"
        write_report_csv(rep, path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[2] == ""
        assert int(row[3]) > 0
