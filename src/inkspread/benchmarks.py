"""Experiment drivers and metrics for the regression and classification suites.

Regression quality is fraction of variance unexplained (FVU): residual sum
of squares over total variance of the reference outputs.  A query the model
cannot cover has no prediction at all; any uncovered test point marks the
whole run as a no-coverage (NAN) outcome rather than being averaged away.
Classification reports percent accuracy, counting uncovered queries as
misses.  Classes are decided by max membership (the class whose own output
level holds the most confidence); the accuracy of rounding the
weighted-sum crisp output is reported alongside it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import QuantizationSpec, StainRadii, level_values, quantize
from .datasets import Dataset, gen_circles, gen_f1, gen_f2, spiral_points, gen_two_spiral
from .errors import NoCoveragePresentError, ZeroVarianceError
from .inference import defuzzify_many, infer_many, infer_many_fuzzy
from .model import Model, Sample, train_full

GENERATORS = {"f1": gen_f1, "f2": gen_f2, "circles": gen_circles}

# Shipped iris defaults; the customary split is 100 train / 50 test.
IRIS_INPUT_LEVELS = 64
IRIS_OUTPUT_LEVELS = 3
IRIS_RADII = StainRadii(12.0, 1.0)


def fvu(predicted, actual) -> float:
    """Sum of squared residuals over total variance of ``actual``."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.ndim != 1 or p.size == 0:
        raise ValueError(f"need equal-length non-empty vectors, got {p.shape} and {a.shape}")
    if np.isnan(p).any():
        raise NoCoveragePresentError(
            f"{int(np.isnan(p).sum())} predictions are uncovered; FVU is undefined over them"
        )
    denom = float(np.sum((a - a.mean()) ** 2))
    if denom == 0.0:
        raise ZeroVarianceError("reference outputs are constant")
    return float(np.sum((p - a) ** 2) / denom)


@dataclass
class EvalReport:
    """Outcome of one experiment (possibly aggregated over repetitions)."""

    task: str
    fvu: float | None = None        # None marks the NAN outcome for regression
    accuracy: float | None = None   # percent, classification only (max membership)
    accuracy_wsf: float | None = None  # percent, rounded weighted-sum output
    no_coverage_count: int = 0
    seeds: list[int] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    per_run: list[dict] = field(default_factory=list)

    def __post_init__(self):
        for acc in (self.accuracy, self.accuracy_wsf):
            if acc is not None and not 0.0 <= acc <= 100.0:
                raise ValueError(f"accuracy {acc} outside [0, 100]")
        if self.fvu is not None and self.fvu < 0.0:
            raise ValueError(f"fvu {self.fvu} negative")

    def to_json(self) -> str:
        return json.dumps(
            {
                "task": self.task,
                "fvu": self.fvu,
                "accuracy": self.accuracy,
                "accuracy_wsf": self.accuracy_wsf,
                "no_coverage_count": self.no_coverage_count,
                "seeds": self.seeds,
                "config": self.config,
                "per_run": self.per_run,
            },
            indent=2,
        )


def write_report_json(report: EvalReport, path) -> None:
    Path(path).write_text(report.to_json() + "\n")


def write_report_csv(report: EvalReport, path) -> None:
    """One CSV row per run: index, seed, metric value (empty when NAN), coverage."""
    metric = "fvu" if report.task == "regression" else "accuracy"
    with open(path, "w") as fh:
        fh.write(f"run,seed,{metric},no_coverage_count\n")
        for i, run in enumerate(report.per_run):
            value = run.get(metric)
            fh.write(f"{i},{run['seed']},{'' if value is None else repr(value)},{run['no_coverage']}\n")


def _resolve_seeds(seeds, repetitions: int) -> list[int]:
    if isinstance(seeds, (int, np.integer)):
        return [int(s) for s in np.random.SeedSequence(int(seeds)).generate_state(repetitions)]
    seeds = [int(s) for s in seeds]
    if len(seeds) != repetitions:
        raise ValueError(f"got {len(seeds)} seeds for {repetitions} repetitions")
    return seeds


def run_regression_experiment(
    func,
    train_count: int,
    radius: float,
    levels: int,
    seed: int,
    test_count: int = 1000,
) -> EvalReport:
    """Train on fresh uniform samples, score FVU on an independent test set.

    ``func`` is "f1"/"f2" or a generator callable.  Both axes use the same
    stain radius and the same level count, matching how the reference
    experiments are parameterized.  Any uncovered test point turns the
    report into the NAN outcome (fvu None) with the count recorded.
    """
    gen = GENERATORS[func] if isinstance(func, str) else func
    name = func if isinstance(func, str) else getattr(func, "__name__", "custom")
    train_seed, test_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    train = gen(train_count, train_seed)
    test = gen(test_count, test_seed)
    input_specs = [QuantizationSpec(lo, hi, levels) for lo, hi in train.input_ranges]
    outs = train.outputs_array()
    output_spec = QuantizationSpec(float(outs.min()), float(outs.max()), levels)
    model = train_full(train.samples, input_specs, output_spec, StainRadii(radius, radius))
    preds, covered = infer_many(model, test.inputs_array())
    nc = int((~covered).sum())
    value = None if nc else fvu(preds, test.outputs_array())
    config = {
        "func": name,
        "train_count": train_count,
        "radius": radius,
        "levels": levels,
        "test_count": test_count,
    }
    run = {"seed": seed, "fvu": value, "no_coverage": nc}
    return EvalReport("regression", fvu=value, no_coverage_count=nc, seeds=[seed],
                      config=config, per_run=[run])


def average_regression_runs(
    func,
    train_count: int,
    radius: float,
    levels: int,
    seeds,
    test_count: int = 1000,
) -> EvalReport:
    """Mean FVU over several seeds; NAN if any seed's run is uncovered."""
    seeds = [int(s) for s in seeds]
    runs = [
        run_regression_experiment(func, train_count, radius, levels, s, test_count)
        for s in seeds
    ]
    per_run = [r.per_run[0] for r in runs]
    nc = sum(r.no_coverage_count for r in runs)
    values = [r.fvu for r in runs]
    mean = None if any(v is None for v in values) else float(np.mean(values))
    return EvalReport("regression", fvu=mean, no_coverage_count=nc, seeds=seeds,
                      config=runs[0].config | {"averaged_over": len(seeds)}, per_run=per_run)


def classify_crisp(crisp: np.ndarray, covered: np.ndarray, class_count: int) -> np.ndarray:
    """Nearest class label for covered predictions, 0 where uncovered."""
    labels = np.clip(np.rint(crisp), 1, class_count)
    return np.where(covered, labels, 0).astype(int)


def classify_max_membership(rows: np.ndarray, output_spec: QuantizationSpec,
                            class_count: int) -> np.ndarray:
    """Max-membership class decision on (batch, n_out) confidence rows.

    Class ``c`` (labels 1..class_count) is read at its own output level,
    ``quantize(output_spec, c)``, and the label with the largest reading
    wins; ties go to the lower label.  A row whose class levels all read
    zero, which includes every uncovered query, gets label 0, a miss.

    The class levels are read directly rather than taking the argmax over
    all output levels: a tent clipped at confidence r < 1 has a flat top,
    and its first level can lie nearer the neighbouring class.
    """
    cols = [quantize(output_spec, c) - 1 for c in range(1, class_count + 1)]
    at_class = rows[:, cols]
    labels = at_class.argmax(axis=1) + 1
    return np.where(at_class.max(axis=1) > 0.0, labels, 0)


def classify(model: Model, X: np.ndarray, class_count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-membership labels, weighted-sum labels and coverage for each query."""
    rows = infer_many_fuzzy(model, X)
    crisp, covered = defuzzify_many(rows, level_values(model.output_spec))
    return (classify_max_membership(rows, model.output_spec, class_count),
            classify_crisp(crisp, covered, class_count), covered)


def _score(model: Model, X: np.ndarray, y: np.ndarray, class_count: int) -> dict:
    """Max-membership and weighted-sum accuracy in percent, and the uncovered count."""
    labels, labels_wsf, covered = classify(model, X, class_count)
    return {"accuracy": 100.0 * float(np.mean(labels == y)),
            "accuracy_wsf": 100.0 * float(np.mean(labels_wsf == y)),
            "no_coverage": int((~covered).sum())}


def _classification_run(
    train_samples: list[Sample],
    test_samples: list[Sample],
    input_ranges,
    class_count: int,
    radii: StainRadii,
    input_levels: int,
    output_levels: int,
) -> dict:
    input_specs = [QuantizationSpec(lo, hi, input_levels) for lo, hi in input_ranges]
    output_spec = QuantizationSpec(1.0, float(class_count), output_levels)
    model = train_full(train_samples, input_specs, output_spec, radii)
    X = np.array([s.inputs for s in test_samples])
    y = np.array([s.output for s in test_samples])
    return _score(model, X, y, class_count)


def run_classification_experiment(
    dataset,
    split: tuple[int, int],
    radii: StainRadii,
    levels: tuple[int, int],
    repetitions: int,
    seeds,
) -> EvalReport:
    """Train/test split accuracy averaged over repetitions.

    ``dataset`` is either a fixed Dataset, partitioned randomly per
    repetition, or a generator name ("circles"), in which case fresh train
    and test sets are drawn per repetition.  ``levels`` is (input levels,
    output levels); uncovered test queries count as misclassifications.
    """
    train_count, test_count = split
    input_levels, output_levels = levels
    seed_list = _resolve_seeds(seeds, repetitions)
    per_run = []
    for rep_seed in seed_list:
        if isinstance(dataset, str):
            gen = GENERATORS[dataset]
            a, b = (int(s) for s in np.random.SeedSequence(rep_seed).generate_state(2))
            train_ds = gen(train_count, a)
            test_ds = gen(test_count, b)
            train, test = train_ds.samples, test_ds.samples
            ranges, classes = train_ds.input_ranges, train_ds.class_count
        else:
            rng = np.random.default_rng(rep_seed)
            order = rng.permutation(len(dataset.samples))
            if train_count + test_count > len(dataset.samples):
                raise ValueError("split larger than dataset")
            train = [dataset.samples[i] for i in order[:train_count]]
            test = [dataset.samples[i] for i in order[train_count : train_count + test_count]]
            ranges, classes = dataset.input_ranges, dataset.class_count
        run = _classification_run(
            train, test, ranges, classes, radii, input_levels, output_levels
        )
        per_run.append({"seed": rep_seed} | run)
    config = {
        "dataset": dataset if isinstance(dataset, str) else "fixed",
        "split": list(split),
        "radii": [radii.radius_in, radii.radius_out],
        "levels": list(levels),
        "repetitions": repetitions,
    }
    return EvalReport(
        "classification",
        accuracy=float(np.mean([r["accuracy"] for r in per_run])),
        accuracy_wsf=float(np.mean([r["accuracy_wsf"] for r in per_run])),
        no_coverage_count=sum(r["no_coverage"] for r in per_run),
        seeds=seed_list,
        config=config,
        per_run=per_run,
    )


def run_spiral_experiment(
    points_per_class: int = 200,
    radii: StainRadii = StainRadii(8.0, 1.0),
    input_levels: int = 128,
    output_levels: int = 2,
    seed: int = 0,
    dense_per_class: int = 4000,
) -> EvalReport:
    """Two-spiral benchmark: train on the full curve sample, then score both
    the training points and a much denser sweep along the same arms."""
    train_ds = gen_two_spiral(points_per_class, seed)
    input_specs = [QuantizationSpec(lo, hi, input_levels) for lo, hi in train_ds.input_ranges]
    output_spec = QuantizationSpec(1.0, 2.0, output_levels)
    model = train_full(train_ds.samples, input_specs, output_spec, radii)

    train = _score(model, train_ds.inputs_array(), train_ds.outputs_array(), 2)
    arm = spiral_points(dense_per_class)
    dense_X = np.vstack([arm, -arm])
    dense_y = np.concatenate([np.ones(dense_per_class), np.full(dense_per_class, 2.0)])
    dense = _score(model, dense_X, dense_y, 2)
    config = {
        "points_per_class": points_per_class,
        "radii": [radii.radius_in, radii.radius_out],
        "levels": [input_levels, output_levels],
        "dense_per_class": dense_per_class,
        "train_accuracy": train["accuracy"],
        "train_accuracy_wsf": train["accuracy_wsf"],
        "train_no_coverage": train["no_coverage"],
    }
    return EvalReport(
        "classification",
        accuracy=dense["accuracy"],
        accuracy_wsf=dense["accuracy_wsf"],
        no_coverage_count=dense["no_coverage"],
        seeds=[seed],
        config=config,
        per_run=[{"seed": seed} | dense],
    )


def run_iris_experiment(
    repetitions: int = 100,
    seeds=0,
    radii: StainRadii = IRIS_RADII,
    input_levels: int = IRIS_INPUT_LEVELS,
    output_levels: int = IRIS_OUTPUT_LEVELS,
    path=None,
) -> EvalReport:
    from .datasets import load_iris

    dataset = load_iris(path)
    return run_classification_experiment(
        dataset, (100, 50), radii, (input_levels, output_levels), repetitions, seeds
    )
