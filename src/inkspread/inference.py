"""Model evaluation: min across planes, max across groups, weighted-sum defuzzifier.

A query is quantized per input variable.  Plane j of a group holds, at the
query's level q_j and output level t, ``max(0, max_s min(a_sj, R_s(t)))``
over the group's stains s, with ``a_sj = 1 - |q_j - c_sj| / radius_in`` and
``R_s(t) = 1 - |t - o_s| / radius_out``.  A group's confidence is the min
over its planes, the model's the max over groups.  The crisp output is the
confidence-weighted mean of the output level values; when every confidence
is zero there is no crisp output and ``NoCoverageError`` is raised.

One kernel reads every path's confidences off the stains.  Min distributes
over max, so a group is the max, over each choice of one stain per plane,
of ``min(A, R_lo(t), R_hi(t))``: A is the min of the chosen ``a_sj``, and
lo and hi are the extreme output levels chosen.  A tent's minimum over an
interval falls at an endpoint, so no choice inside [lo, hi] beats the pair
(lo, hi) of the group's own output levels with ``M[lo, hi] = min_j
max_{s: lo <= o_s <= hi} a_sj``; the kernel takes the max over those pairs
and never lists the choices.  Few live pairs are read off their own tents.
Many are read through windows: ``min(R_lo(t), R_hi(t))`` is the tent at
half-width D = max(t - lo, hi - t), so level t takes, per D, the best M of
any pair inside [t - D, t + D].  Only min and max of the values ``diffuse``
writes are taken, so the kernel is bitwise equal to dense planes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .core import level_values, quantize, quantize_many
from .errors import NoCoverageError

if TYPE_CHECKING:
    from .model import Model

_STEP_ELEMENTS = 1 << 21  # bounds a kernel step's largest array; the chunk shrinks to fit
# a chunk reads its live cells off their own tents while they number at
# most this many times the window path's steps, n_span + len(tent)
_TENT_SHARE = 1.0


@dataclass(frozen=True)
class FuzzyOutput:
    """Per-output-level confidences paired with the levels' raw values."""

    level_values: np.ndarray
    confidences: np.ndarray

    @property
    def entries(self) -> list[tuple[float, float]]:
        return list(zip(self.level_values.tolist(), self.confidences.tolist()))


class _Plan(NamedTuple):
    """The query-free half of the kernel, rebuilt from the stains per call.

    A run is a stain and the next d stains of its group by output level;
    its slot is ``(hi - lo) * n_out + lo - 1``, from the output levels of
    its first and last stain.  Only runs that span at most ``n_span``
    levels are kept, since a longer run from the same stain spans at least
    as much.  Stains are ordered by output level.  ``diagonals[d]`` holds
    the runs of d + 1 stains sorted by slot: for each, the run of d stains
    it extends (``keep``) and the stain it adds (``last``); then where each
    slot's runs begin (``starts``) and where the slots stand among
    ``cells``, every slot some run reaches.  ``windows`` holds, per
    half-width D whose ``tent = 1 - D / radius_out`` is above 0, the slot
    of every level's window [t - D, t + D] clipped to the axis.
    """

    c_in: np.ndarray
    diagonals: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    cells: np.ndarray
    n_span: int
    tent: np.ndarray
    windows: np.ndarray


def _plan(model: "Model") -> _Plan:
    c_in, c_out, sizes = model.stains()
    group = np.repeat(np.arange(len(sizes)), sizes)
    order = np.lexsort((group, c_out))
    c_in, c_out, group = c_in[order], c_out[order], group[order]
    # the stain after each one in its group, by output level; -1 for none
    by_group = np.lexsort((c_out, group))
    after = np.full(len(c_out), -1)
    same = group[by_group[1:]] == group[by_group[:-1]]
    after[by_group[:-1][same]] = by_group[1:][same]
    n_y, r_out = model.output_spec.levels, model.radii.radius_out
    half = np.arange(n_y)
    half = half[1.0 - half / r_out > 0.0]
    n_span = min(2 * int(half[-1]), n_y - 1)
    first = last = np.arange(len(c_out))
    diagonals = [(first, last, c_out - 1)]
    while True:
        keep = np.flatnonzero(after[last] >= 0)
        keep = keep[c_out[after[last[keep]]] - c_out[first[keep]] <= n_span]
        if not len(keep):
            break
        first, last = first[keep], after[last[keep]]
        slot = (c_out[last] - c_out[first]) * n_y + c_out[first] - 1
        by_slot = np.argsort(slot, kind="stable")
        first, last, keep = first[by_slot], last[by_slot], keep[by_slot]
        diagonals.append((keep, last, slot[by_slot]))
    cells = np.unique(np.concatenate([slot for *_, slot in diagonals]))
    for d, (keep, last, slot) in enumerate(diagonals):
        slots, starts = np.unique(slot, return_index=True)
        diagonals[d] = (keep, last, starts, np.searchsorted(cells, slots))
    t = np.arange(n_y)
    lo, hi = np.maximum(t - half[:, None], 0), np.minimum(t + half[:, None], n_y - 1)
    return _Plan(c_in, diagonals, cells, n_span, 1.0 - half / r_out, (hi - lo) * n_y + lo)


def _confidences(model: "Model", levels: np.ndarray, chunk: int) -> np.ndarray:
    """The kernel: (B, n_out) confidences at the quantized queries ``levels``
    (B, J), at most ``chunk`` queries at a time."""
    n_y, r_out = model.output_spec.levels, model.radii.radius_out
    rows = np.zeros((len(levels), n_y))
    plan = _plan(model)
    if not len(plan.c_in):
        return rows
    n_slots = (plan.n_span + 1) * n_y
    # a_sj at each level the queries hold on plane j: (held levels, S)
    held = [np.unique(levels[:, j], return_inverse=True) for j in range(model.n_inputs)]
    ramps_in = [1.0 - np.abs(u[:, None] - plan.c_in[:, j]) / model.radii.radius_in
                for j, (u, _) in enumerate(held)]
    widest = max(plan.c_in.size, n_slots, max(len(keep) for keep, *_ in plan.diagonals))
    step = max(1, min(chunk, _STEP_ELEMENTS // widest))
    for b0 in range(0, len(levels), step):
        a = [r[inverse[b0:b0 + step]] for r, (_, inverse) in zip(ramps_in, held)]
        # a run's best A over the choices inside it is the min over planes
        # of each plane's max a_sj along the run; M per cell is the best
        # over the cell's runs in every group
        m = np.zeros((len(a[0]), len(plan.cells)))
        runs = a
        for d, (keep, last, starts, slots) in enumerate(plan.diagonals):
            if d:
                runs = [np.maximum(np.take(run, keep, axis=1), np.take(aj, last, axis=1))
                        for run, aj in zip(runs, a)]
            best = np.maximum.reduceat(reduce(np.minimum, runs), starts, axis=1)
            m[:, slots] = np.maximum(np.take(m, slots, axis=1), best)
        out = rows[b0:b0 + step]
        # a cell whose M is not above 0 for any query here adds nothing
        live = (m > 0.0).any(axis=0)
        if np.count_nonzero(live) <= _TENT_SHARE * (plan.n_span + len(plan.tent)):
            t, lo = np.arange(1, n_y + 1), plan.cells[live] % n_y + 1
            hi = lo + plan.cells[live] // n_y
            ramp = np.minimum(1.0 - np.abs(t - lo[:, None]) / r_out, 1.0 - np.abs(t - hi[:, None]) / r_out)
            np.minimum(m[:, live, None], ramp).max(axis=1, initial=0.0, out=out)
            continue
        # the max over every slot inside each interval; slots no run
        # reaches stay 0, which adds nothing
        slots = np.zeros((len(m), n_slots))
        slots[:, plan.cells] = m
        grid = slots.reshape(len(m), plan.n_span + 1, n_y)
        for span in range(1, plan.n_span + 1):
            inner = grid[:, span, :n_y - span]
            np.maximum(inner, grid[:, span - 1, :n_y - span], out=inner)
            np.maximum(inner, grid[:, span - 1, 1:n_y - span + 1], out=inner)
        # min(R_lo(t), R_hi(t)) is the tent at half-width max(t - lo, hi - t)
        # = D, and every pair inside t's window of half-width D reaches it
        for r, window in zip(plan.tent, plan.windows):
            np.maximum(out, np.minimum(np.take(slots, window, axis=1), r), out=out)
    return rows


def _query_levels(model: "Model", x) -> list[int]:
    xs = [float(v) for v in x]
    if len(xs) != model.n_inputs:
        raise ValueError(f"query has {len(xs)} inputs, model expects {model.n_inputs}")
    for j, v in enumerate(xs, start=1):
        if math.isnan(v):
            raise ValueError(f"query input {j} is NaN")
    return [quantize(spec, v) for spec, v in zip(model.input_specs, xs)]


def infer_fuzzy(model: "Model", x) -> FuzzyOutput:
    """Confidence in each output level for the query ``x``."""
    levels = np.array([_query_levels(model, x)], dtype=np.int64)
    return FuzzyOutput(level_values(model.output_spec), _confidences(model, levels, 1)[0])


def defuzzify_wsf(fz: FuzzyOutput) -> float:
    """Weighted sum of level values over total confidence.

    Invariant under scaling all confidences by the same positive factor,
    which is what lets the attenuated hardware readout defuzzify unchanged.
    """
    total = float(np.sum(fz.confidences))
    if total == 0.0:
        raise NoCoverageError("all output-level confidences are zero at this query")
    weighted = float(np.sum(fz.level_values * fz.confidences))
    return weighted / total


def infer(model: "Model", x) -> float:
    """Crisp output for one query; NoCoverageError off the stains, ValueError on NaN."""
    return defuzzify_wsf(infer_fuzzy(model, x))


def infer_many_fuzzy(model: "Model", X: np.ndarray, chunk: int = 64) -> np.ndarray:
    """Batch confidences: row ``b`` is the model's confidence in each output
    level for query ``X[b]``, shaped (batch, n_out).

    Queries are processed in chunks of at most ``chunk`` to bound the
    kernel's intermediates.  A query with a NaN input has no level, so its
    row is all zero (uncovered); the other rows do not depend on it.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_inputs:
        raise ValueError(f"expected queries shaped (batch, {model.n_inputs}), got {X.shape}")
    nan = np.isnan(X).any(axis=1)
    X = np.where(nan[:, None], [spec.min for spec in model.input_specs], X)
    levels = np.column_stack([quantize_many(spec, X[:, j]) for j, spec in enumerate(model.input_specs)])
    rows = _confidences(model, levels, chunk)
    rows[nan] = 0.0
    return rows


def defuzzify_many(rows: np.ndarray, level_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted-sum defuzzifier applied to each row of confidences.

    Returns ``(values, covered)`` where ``values[b]`` is the crisp output or
    NaN and ``covered[b]`` says whether any confidence in row ``b`` was nonzero.
    """
    totals = rows.sum(axis=1)
    covered = totals > 0.0
    weighted = (rows * level_values).sum(axis=1)
    values = np.where(covered, weighted / np.where(covered, totals, 1.0), np.nan)
    return values, covered


def infer_many(model: "Model", X: np.ndarray, chunk: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Batch inference: :func:`infer_many_fuzzy` then :func:`defuzzify_many`.

    Returns ``(values, covered)`` where ``values[b]`` is the crisp output or
    NaN and ``covered[b]`` says whether any confidence was nonzero.
    """
    return defuzzify_many(infer_many_fuzzy(model, X, chunk), level_values(model.output_spec))


def infer_trace(model: "Model", x) -> dict:
    """Every intermediate of one inference, as plain JSON-friendly types.

    Keys: inputs, input_levels, plane_confidences[group][level][plane],
    group_confidences[group][level], level_values, confidences, crisp,
    no_coverage.  The tables are read off each group's stains the way
    ``diffuse`` writes a plane; the confidences, which equal the max over
    groups of ``group_confidences``, and the crisp value come from the kernel.
    """
    levels = _query_levels(model, x)
    c_in, c_out, sizes = model.stains()
    n_y = model.output_spec.levels
    a = 1.0 - np.abs(np.array(levels) - c_in) / model.radii.radius_in
    r = 1.0 - np.abs(np.arange(1, n_y + 1) - c_out[:, None]) / model.radii.radius_out
    planes = np.zeros((len(sizes), n_y, model.n_inputs))
    np.maximum.at(planes, np.repeat(np.arange(len(sizes)), sizes), np.minimum(a[:, None], r[..., None]))
    fz = infer_fuzzy(model, x)
    try:
        crisp = defuzzify_wsf(fz)
    except NoCoverageError:
        crisp = None
    return {
        "inputs": [float(v) for v in x],
        "input_levels": levels,
        "plane_confidences": planes.tolist(),
        "group_confidences": planes.min(axis=2).tolist(),
        "level_values": fz.level_values.tolist(),
        "confidences": fz.confidences.tolist(),
        "crisp": crisp,
        "no_coverage": crisp is None,
    }
