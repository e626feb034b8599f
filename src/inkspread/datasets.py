"""Benchmark dataset generators and the one reader of CSV data files.

Regression targets are the two analytic surfaces

    f1(x1, x2) = (1 + x1^-2 + x2^-1.5)^2
    f2(x1, x2) = sqrt(2*(sin x1 / x1)^2 + 3*(sin x2 / x2)^2)

sampled uniformly over (1, 10) x (1, 10).  Classification sets are the
two-interleaved-spirals curve, three concentric circular regions, and the
iris flowers bundled as package data.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MalformedCsvError
from .model import Sample

DOMAIN = (1.0, 10.0)


def f1(x1, x2):
    return (1.0 + x1**-2.0 + x2**-1.5) ** 2


def f2(x1, x2):
    return np.sqrt(2.0 * (np.sin(x1) / x1) ** 2 + 3.0 * (np.sin(x2) / x2) ** 2)


@dataclass
class Dataset:
    """Samples plus the metadata the experiment drivers need."""

    samples: list[Sample]
    input_ranges: list[tuple[float, float]]
    kind: str  # "regression" | "classification"
    class_count: int | None = None

    def __post_init__(self):
        if self.kind not in ("regression", "classification"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "classification" and not self.class_count:
            raise ValueError("classification dataset needs class_count")
        for k, s in enumerate(self.samples):
            for v, (lo, hi) in zip(s.inputs, self.input_ranges):
                if not lo <= v <= hi:
                    raise ValueError(f"sample {k} input {v} outside declared range [{lo}, {hi}]")
            if self.kind == "classification":
                if not (float(s.output).is_integer() and 1 <= s.output <= self.class_count):
                    raise ValueError(f"sample {k} label {s.output} is not a class in 1..{self.class_count}")

    def inputs_array(self) -> np.ndarray:
        return np.array([s.inputs for s in self.samples])

    def outputs_array(self) -> np.ndarray:
        return np.array([s.output for s in self.samples])


def _gen_surface(func, count: int, seed: int) -> Dataset:
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    x = rng.uniform(*DOMAIN, size=(count, 2))
    # scalar evaluation per sample so the generator and the published
    # formula are one code path, bitwise
    samples = [Sample((float(a), float(b)), float(func(float(a), float(b)))) for a, b in x]
    return Dataset(samples, [DOMAIN, DOMAIN], "regression")


def gen_f1(count: int, seed: int) -> Dataset:
    return _gen_surface(f1, count, seed)


def gen_f2(count: int, seed: int) -> Dataset:
    return _gen_surface(f2, count, seed)


def spiral_points(points_per_class: int, turns: float = 3.0, r_max: float = 1.0) -> np.ndarray:
    """Points of spiral class 1 at evenly spaced curve parameters.

    t = (i+1)/N for i = 0..N-1, so the origin itself is excluded and the
    outermost point sits at radius r_max.  Class 2 is the pointwise
    negation.  An even sweep rather than random t keeps the arms gap-free,
    which is what makes dense-grid evaluation near the enemy arm fair.
    """
    t = np.arange(1, points_per_class + 1) / points_per_class
    r = r_max * t
    theta = 2.0 * np.pi * turns * t
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def gen_two_spiral(points_per_class: int, seed: int, turns: float = 3.0, r_max: float = 1.0) -> Dataset:
    """Two interleaved spirals, labels 1 and 2; the seed only shuffles order."""
    if points_per_class < 1:
        raise ValueError("points_per_class must be >= 1")
    a = spiral_points(points_per_class, turns, r_max)
    pts = np.vstack([a, -a])
    labels = np.concatenate([np.ones(points_per_class), np.full(points_per_class, 2.0)])
    order = np.random.default_rng(seed).permutation(len(pts))
    samples = [Sample(tuple(pts[i]), labels[i]) for i in order]
    lim = (-r_max, r_max)
    return Dataset(samples, [lim, lim], "classification", class_count=2)


def circle_class(x1, x2) -> int:
    rsq = x1 * x1 + x2 * x2
    if rsq < 1.0:
        return 1
    if rsq < 4.0:
        return 2
    return 3


def gen_circles(count: int, seed: int) -> Dataset:
    """Uniform points over [-3,3]^2 labeled by two concentric circle boundaries.

    Points landing exactly on a boundary radius are redrawn so every label
    is unambiguous.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    samples: list[Sample] = []
    while len(samples) < count:
        x1, x2 = rng.uniform(-3.0, 3.0, size=2)
        rsq = x1 * x1 + x2 * x2
        if rsq == 1.0 or rsq == 4.0:
            continue
        samples.append(Sample((x1, x2), float(circle_class(x1, x2))))
    lim = (-3.0, 3.0)
    return Dataset(samples, [lim, lim], "classification", class_count=3)


def bundled_iris_path() -> Path:
    return Path(importlib.resources.files("inkspread") / "data" / "iris.csv")


def _number(path, row: int, col: int, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise MalformedCsvError(f"{path}: row {row} column {col}: {text!r} is not numeric") from None


def _read_csv(path: Path, width: int | None = None, label: bool = False) -> tuple[np.ndarray, list[str]]:
    """The one reader of comma-separated data files.

    Returns the numeric columns, shaped (rows, columns), and with ``label``
    the last column as text, apart from the numbers.  Blank lines and ``#``
    comments are skipped.  Every row needs ``width`` columns, by default the
    first row's and at least two.  A row of another width, or a field that
    is not a number where one is due, raises MalformedCsvError naming its
    row and column.
    """
    numbers, labels = [], []
    with open(path) as fh:
        for row, line in enumerate(fh, start=1):
            fields = [v.strip() for v in line.split("#", 1)[0].split(",")]
            if fields == [""]:
                continue
            width = width or max(2, len(fields))
            if len(fields) != width:
                raise MalformedCsvError(f"{path}: row {row} has {len(fields)} columns, expected {width}")
            if label:
                labels.append(fields.pop())
            numbers.append([_number(path, row, col, v) for col, v in enumerate(fields, start=1)])
    if not numbers:
        raise MalformedCsvError(f"{path}: no data rows")
    return np.array(numbers), labels


def _ranges(columns: np.ndarray) -> list[tuple[float, float]]:
    return [(float(c.min()), float(c.max())) for c in columns.T]


def load_csv(path: str | Path) -> Dataset:
    """Numeric rows, the inputs first and the output last, as samples."""
    table, _ = _read_csv(Path(path))
    samples = [Sample(tuple(r[:-1]), r[-1]) for r in table.tolist()]
    return Dataset(samples, _ranges(table[:, :-1]), "regression")


def load_iris(path: str | Path | None = None) -> Dataset:
    """150 rows of 4 features and a trailing class label.

    Numeric labels are used by value and must be integers >= 1, with
    ``class_count`` the largest; text labels become 1, 2, ... in sorted
    order.
    """
    path = bundled_iris_path() if path is None else Path(path)
    features, names = _read_csv(path, width=5, label=True)
    if len(features) != 150:
        raise MalformedCsvError(f"{path}: expected 150 rows, found {len(features)}")
    try:
        labels = [float(v) for v in names]
    except ValueError:
        order = {name: float(k) for k, name in enumerate(sorted(set(names)), start=1)}
        labels = [order[v] for v in names]
    if not all(v.is_integer() and v >= 1 for v in labels):
        raise MalformedCsvError(f"{path}: numeric class labels must be integers >= 1")
    samples = [Sample(tuple(f), y) for f, y in zip(features.tolist(), labels)]
    return Dataset(samples, _ranges(features), "classification", class_count=int(max(labels)))
