"""Independent references the benchmark checks the program against.

Everything here is computed from the training samples' stain geometry and
never reads a trained plane.  A stain is one training sample: its input
levels, its output level and the group it was packed into.  Plane cell
values are the pyramid tent ``max(0, min(ramp_in, ramp_out))`` with
``ramp = 1 - |level offset| / radius``, a group reads the min over its
planes of the max over its stains, and the model reads the max over groups.
These are the same floating-point operations the program performs, so
confidences agree bitwise, not within a tolerance.

The gating and packing rules are replayed here too, so that the number of
groups a policy keeps is checked against a count made apart from the
program.
"""

from __future__ import annotations

import gc
import sys
import types
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Axis:
    """A uniform level grid over [lo, hi]: ``n`` levels, 1-based."""

    lo: float
    hi: float
    n: int

    def levels(self, x) -> np.ndarray:
        """Nearest level of each value, clamped to 1..n."""
        t = (np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo) * (self.n - 1)
        return np.clip(np.rint(t), 0, self.n - 1).astype(np.int64) + 1

    def values(self) -> np.ndarray:
        """Raw value of every level 1..n."""
        return self.lo + np.arange(self.n, dtype=float) * (self.hi - self.lo) / (self.n - 1)


@dataclass
class Stains:
    """A model described by its stains alone.

    ``c_in`` is (S, d) input levels, ``c_out`` is (S,) output levels and
    ``group`` is (S,) group indices, sorted ascending so that each group's
    stains are contiguous.
    """

    inputs: list[Axis]
    output: Axis
    r_in: float
    r_out: float
    c_in: np.ndarray
    c_out: np.ndarray
    group: np.ndarray

    @property
    def n_groups(self) -> int:
        return int(self.group[-1]) + 1 if self.group.size else 0

    @property
    def single_stain(self) -> bool:
        return self.group.size == self.n_groups

    @classmethod
    def build(cls, inputs, output, r_in, r_out, X, y, group=None) -> "Stains":
        X = np.asarray(X, dtype=float).reshape(len(y), len(inputs))
        c_in = np.column_stack([ax.levels(X[:, j]) for j, ax in enumerate(inputs)])
        c_out = output.levels(y)
        group = np.arange(len(y)) if group is None else np.asarray(group)
        order = np.argsort(group, kind="stable")
        return cls(list(inputs), output, float(r_in), float(r_out),
                   c_in[order].reshape(len(y), len(inputs)), c_out[order], group[order])

    def query_levels(self, Q) -> np.ndarray:
        Q = np.asarray(Q, dtype=float).reshape(-1, len(self.inputs))
        return np.column_stack([ax.levels(Q[:, j]) for j, ax in enumerate(self.inputs)])

    def _ramp_out(self) -> np.ndarray:
        t = np.arange(1, self.output.n + 1)
        return 1.0 - np.abs(t[None, :] - self.c_out[:, None]) / self.r_out

    def group_confidences(self, Q, chunk: int = 8) -> np.ndarray:
        """(B, G, n_out) confidence of every group at every output level."""
        qlev = self.query_levels(Q)
        n_q, n_g, n_y = len(qlev), self.n_groups, self.output.n
        out = np.zeros((n_q, n_g, n_y))
        if n_g == 0:
            return out
        ramp_out = self._ramp_out()
        starts = np.flatnonzero(np.r_[True, self.group[1:] != self.group[:-1]])
        for lo in range(0, n_q, chunk):
            q = qlev[lo:lo + chunk]
            ramp_in = 1.0 - np.abs(q[:, None, :] - self.c_in[None, :, :]) / self.r_in
            tent = np.minimum(ramp_in[..., None], ramp_out[None, :, None, :])
            plane = np.maximum(np.maximum.reduceat(tent, starts, axis=1), 0.0)
            out[lo:lo + chunk] = plane.min(axis=2)
        return out

    def rows(self, Q) -> np.ndarray:
        """(B, n_out) model confidence rows: the max over groups."""
        qlev = self.query_levels(Q)
        if not self.single_stain:
            return self.group_confidences(Q).max(axis=1, initial=0.0)
        # One stain per group: min over planes of the clipped tent equals the
        # tent of the smallest input ramp, so only groups with a positive
        # input ramp on every axis can contribute.
        ramp_out = self._ramp_out()
        rows = np.zeros((len(qlev), self.output.n))
        for b, q in enumerate(qlev):
            a = (1.0 - np.abs(q[None, :] - self.c_in) / self.r_in).min(axis=1)
            live = a > 0.0
            if live.any():
                rows[b] = np.maximum(np.minimum(a[live, None], ramp_out[live]).max(axis=0), 0.0)
        return rows

    def live_pairs(self, Q, chunk: int = 64) -> int:
        """Number of (query, group) pairs in which the group's confidence is
        positive at some output level: the pairs a pruning index must keep."""
        qlev = self.query_levels(Q)
        if self.single_stain:
            live = 0
            for lo in range(0, len(qlev), chunk):
                q = qlev[lo:lo + chunk]
                near = np.abs(q[:, None, :] - self.c_in[None, :, :]) < self.r_in
                live += int(near.all(axis=2).sum())
            return live
        return sum(int((self.group_confidences(Q[lo:lo + chunk]).max(axis=2) > 0.0).sum())
                   for lo in range(0, len(qlev), chunk))


def defuzzify(rows: np.ndarray, level_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted-sum crisp value per row (NaN where the total is 0) and coverage.

    Each row is summed on its own as a 1-D array, the way a single query is.
    """
    values = np.full(len(rows), np.nan)
    covered = np.zeros(len(rows), dtype=bool)
    for b, row in enumerate(rows):
        total = float(np.sum(row))
        if total != 0.0:
            values[b] = float(np.sum(level_values * row)) / total
            covered[b] = True
    return values, covered


def replay_gating(inputs, output, r_in, r_out, X, y, tolerance) -> np.ndarray:
    """Indices of the stream samples the error-gated rule keeps.

    A sample is kept when nothing is kept yet, when the samples kept so far
    give no coverage at its inputs, or when their crisp prediction misses
    its output by more than ``tolerance``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    c_in = np.column_stack([ax.levels(X[:, j]) for j, ax in enumerate(inputs)])
    c_out = output.levels(y)
    t = np.arange(1, output.n + 1)
    ramp_out = 1.0 - np.abs(t[None, :] - c_out[:, None]) / r_out
    lv = output.values()
    kept = [0]
    for k in range(1, len(y)):
        idx = np.asarray(kept)
        a = (1.0 - np.abs(c_in[k][None, :] - c_in[idx]) / r_in).min(axis=1)
        live = a > 0.0
        keep = True
        if live.any():
            row = np.maximum(np.minimum(a[live, None], ramp_out[idx[live]]).max(axis=0), 0.0)
            total = float(np.sum(row))
            if total != 0.0:
                keep = abs(float(np.sum(lv * row)) / total - float(y[k])) > tolerance
        if keep:
            kept.append(k)
    return np.asarray(kept)


def first_fit_groups(output: Axis, y) -> np.ndarray:
    """Group index of each sample under first-fit packing: a sample joins the
    first group that does not yet hold its output level, else opens a group."""
    held: list[set[int]] = []
    group = np.empty(len(y), dtype=np.int64)
    for k, level in enumerate(output.levels(y).tolist()):
        for g, levels in enumerate(held):
            if level not in levels:
                levels.add(level)
                group[k] = g
                break
        else:
            held.append({level})
            group[k] = len(held) - 1
    return group


def max_membership(rows: np.ndarray, output: Axis, class_count: int) -> np.ndarray:
    """Class labels read at each class's own output level; ties go to the
    lower label and a row with every class level at 0 gets label 0."""
    at_class = rows[:, output.levels(np.arange(1, class_count + 1)) - 1]
    labels = at_class.argmax(axis=1) + 1
    return np.where(at_class.max(axis=1) > 0.0, labels, 0)


def fvu(predicted, actual) -> float:
    """Fraction of variance unexplained."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    return float(np.sum((p - a) ** 2) / np.sum((a - a.mean()) ** 2))


_SHARED = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
           types.MethodType, type(None), bool)


def held_bytes(root) -> int:
    """Bytes reachable from ``root``, measured by walking its object graph.

    Every object is counted once by ``sys.getsizeof``.  An array view counts
    its header and leads to the array that owns the data, so a buffer shared
    by views is counted once.  Classes, modules and functions are shared
    program state, not the object's own, and are not entered.
    """
    seen: set[int] = set()
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _SHARED):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, np.ndarray):
            if obj.base is not None:
                stack.append(obj.base)
            continue
        if isinstance(obj, memoryview):
            stack.append(obj.obj)
            continue
        if hasattr(obj, "__dict__"):
            stack.append(vars(obj))
        stack.extend(gc.get_referents(obj))
    return total
