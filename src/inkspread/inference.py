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

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .core import level_values, quantize, quantize_many
from .errors import NoCoverageError

if TYPE_CHECKING:
    from .core import QuantizationSpec
    from .model import Model

_STEP_ELEMENTS = 1 << 21  # bounds a kernel step's largest array; the chunk shrinks to fit
# a chunk reads its live cells off their own tents while they number at
# most this many times the window path's steps, n_span + len(tent); both
# paths stay, since either one alone runs 1.6 to 5.5 times slower on the
# other's traffic (tents: few live cells, as in gated training, single
# queries and merged rings; windows: dense surface batches)
_TENT_SHARE = 1.0


@dataclass(frozen=True)
class FuzzyOutput:
    """Per-output-level confidences paired with the levels' raw values."""

    level_values: np.ndarray
    confidences: np.ndarray


class _Diagonal(NamedTuple):
    """The runs of d + 1 stains, sorted by slot and then by group."""

    keep: np.ndarray | None  # per run, the run of d stains it extends; None on diagonal 0
    last: np.ndarray | None  # per run, the stain it adds; None on diagonal 0
    slot: np.ndarray         # per run, its slot
    starts: np.ndarray       # where each slot's runs begin
    cols: np.ndarray         # where those slots stand among the plan's cells


class _Plan(NamedTuple):
    """The query-free half of the kernel, held on the model and extended as
    it grows.

    Stains are ordered by output level, then by group; ``c_in`` holds their
    input levels in that order.  A run is a stain and the next d stains of
    its group by output level; its slot is ``(hi - lo) * n_out + lo - 1``,
    from the output levels of its first and last stain.  Only runs that
    span at most ``n_span`` levels are kept, since a longer run from the
    same stain spans at least as much.  ``diagonals[d]`` holds the runs of
    d + 1 stains (diagonal 0's runs are the stains themselves); ``cells``
    is every slot some run reaches.  ``tent`` and ``windows`` depend only
    on the output axis: per half-width D whose ``tent = 1 - D / radius_out``
    is above 0, ``windows`` holds the slot of every level's window
    [t - D, t + D] clipped to the axis.  A group's runs never cross groups,
    so adding groups merges their own runs into each diagonal by slot.
    """

    c_in: np.ndarray
    diagonals: tuple[_Diagonal, ...]
    cells: np.ndarray
    n_span: int
    tent: np.ndarray
    windows: np.ndarray


def _plan(c_in: np.ndarray, c_out: np.ndarray, offsets: np.ndarray, n_out: int, radius_out: float) -> _Plan:
    """The plan of a model's stain columns, built from scratch."""
    half = np.arange(n_out)
    half = half[1.0 - half / radius_out > 0.0]
    t = np.arange(n_out)
    lo, hi = np.maximum(t - half[:, None], 0), np.minimum(t + half[:, None], n_out - 1)
    bare = _Plan(np.empty((0, c_in.shape[1]), dtype=np.int64), (), np.empty(0, dtype=np.int64),
                 min(2 * int(half[-1]), n_out - 1), 1.0 - half / radius_out, (hi - lo) * n_out + lo)
    return _extend_plan(bare, c_in, c_out, offsets)


def _merge(old: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the entries of two sorted key arrays stand once merged, each
    new entry after the old entries of an equal key."""
    return (np.arange(len(old)) + new.searchsorted(old, side="left"),
            np.arange(len(new)) + old.searchsorted(new, side="right"))


def _place(old: np.ndarray, new: np.ndarray, at_old: np.ndarray, at_new: np.ndarray) -> np.ndarray:
    """Old and new entries, each at the place ``_merge`` gave it.  A table
    is placed one column at a time, which scatters faster than its rows."""
    out = np.empty((len(at_old) + len(at_new), *old.shape[1:]), dtype=np.int64)
    if out.ndim == 1:
        out[at_old], out[at_new] = old, new
    else:
        for column, o, n in zip(out.T, old.T, new.T):
            column[at_old], column[at_new] = o, n
    return out


def _extend_plan(plan: _Plan, c_in: np.ndarray, c_out: np.ndarray, offsets: np.ndarray) -> _Plan:
    """``plan`` with further groups merged in: their stains' input levels
    (S, J) and output levels (S,), group g holding ``offsets[g]:offsets[g + 1]``.

    Only the new runs are sorted; the held ones keep their order and move
    to the places ``_merge`` gives them, and so do the cells.
    """
    n_y = plan.windows.shape[1]
    group = np.repeat(np.arange(len(offsets) - 1), offsets[1:] - offsets[:-1])
    order = np.lexsort((group, c_out))
    c_in, c_out, group = c_in[order], c_out[order], group[order]
    # the stain after each one in its group, by output level; -1 for none
    by_group = np.lexsort((c_out, group))
    after = np.full(len(c_out), -1)
    same = group[by_group[1:]] == group[by_group[:-1]]
    after[by_group[:-1][same]] = by_group[1:][same]
    # stains and runs: where the old and the new entries of the previous
    # diagonal stand once merged, old entries first within a slot
    old = plan.diagonals[0].slot if plan.diagonals else np.empty(0, dtype=np.int64)
    new_slots = [c_out - 1]
    stains = runs = _merge(old, new_slots[0])
    diagonals = [(None, None, _place(old, new_slots[0], *stains))]
    first = last = np.arange(len(c_out))
    for d in itertools.count(1):
        # a stain after the run's last one extends it, up to n_span levels
        nxt = after[last]
        keep = np.flatnonzero((nxt >= 0) & (c_out[nxt] - c_out[first] <= plan.n_span))
        if not len(keep) and d >= len(plan.diagonals):
            break
        first, last = first[keep], nxt[keep]
        slot = (c_out[last] - c_out[first]) * n_y + c_out[first] - 1
        by_slot = np.lexsort((group[first], slot))
        first, last, keep, slot = first[by_slot], last[by_slot], keep[by_slot], slot[by_slot]
        old = (np.empty(0, dtype=np.int64),) * 3
        if d < len(plan.diagonals):
            was = plan.diagonals[d]
            old = (runs[0][was.keep], stains[0][was.last], was.slot)
        new = (runs[1][keep], stains[1][last], slot)
        runs = _merge(old[2], slot)
        diagonals.append(tuple(_place(o, n, *runs) for o, n in zip(old, new)))
        new_slots.append(slot)
    # cells gain the new runs' slots that no run reached before
    fresh = np.unique(np.concatenate(new_slots))
    if len(plan.cells):
        fresh = fresh[plan.cells.take(plan.cells.searchsorted(fresh), mode="clip") != fresh]
    cells = _place(plan.cells, fresh, *_merge(plan.cells, fresh))
    out = []
    for keep, last, slot in diagonals:
        # each slot's runs begin where the merged slots step
        step = np.empty(len(slot), dtype=bool)
        step[:1] = True
        np.not_equal(slot[1:], slot[:-1], out=step[1:])
        starts = np.arange(len(slot))[step]
        out.append(_Diagonal(keep, last, slot, starts, cells.searchsorted(slot[starts])))
    return plan._replace(c_in=_place(plan.c_in, c_in, *stains), diagonals=tuple(out), cells=cells)


@lru_cache(maxsize=16)
def _output_tents(n_y: int, r_out: float) -> np.ndarray:
    """Row c is the tent ``1 - |t - c| / r_out`` over the output levels t
    (0-based): a read-only (n_y, n_y) view of one table of 2 n_y - 1 values."""
    table = 1.0 - np.abs(np.arange(1 - n_y, n_y)) / r_out
    return np.lib.stride_tricks.sliding_window_view(table, n_y)[::-1]


def _cell_maxima(plan: _Plan, levels: np.ndarray, radius_in: float, chunk: int):
    """M per cell at the quantized queries ``levels`` (B, J): one (queries,
    cells) array per chunk of at most ``chunk`` queries, in query order.

    A run's best A over the choices inside it is the min over planes of
    each plane's max a_sj along the run; M per cell is the best over the
    cell's runs in every group.
    """
    if len(levels) == 1:
        # one query: its a_sj are one (S, J) table and M is one row, with no
        # table of held levels and no chunks; the batch path would make gated
        # training 1.5 and single twin-model queries 2 times slower
        a = 1.0 - np.abs(levels[0] - plan.c_in) / radius_in
        m = np.zeros(len(plan.cells))
        runs = a
        for d, (keep, last, _, starts, cols) in enumerate(plan.diagonals):
            if d:
                runs = np.maximum(runs[keep], a[last])
            m[cols] = np.maximum(m[cols], np.maximum.reduceat(reduce(np.minimum, runs.T), starts))
        yield m[None]
        return
    # a_sj at each level the queries hold on plane j: (held levels, S)
    held = [np.unique(levels[:, j], return_inverse=True) for j in range(levels.shape[1])]
    ramps_in = [1.0 - np.abs(u[:, None] - plan.c_in[:, j]) / radius_in for j, (u, _) in enumerate(held)]
    n_slots = (plan.n_span + 1) * plan.windows.shape[1]
    widest = max(plan.c_in.size, n_slots, max(len(diagonal.slot) for diagonal in plan.diagonals))
    step = max(1, min(chunk, _STEP_ELEMENTS // widest))
    for b0 in range(0, len(levels), step):
        a = [r[inverse[b0:b0 + step]] for r, (_, inverse) in zip(ramps_in, held)]
        m = np.zeros((len(a[0]), len(plan.cells)))
        runs = a
        for d, (keep, last, _, starts, cols) in enumerate(plan.diagonals):
            if d:
                runs = [np.maximum(np.take(run, keep, axis=1), np.take(aj, last, axis=1))
                        for run, aj in zip(runs, a)]
            best = np.maximum.reduceat(reduce(np.minimum, runs), starts, axis=1)
            m[:, cols] = np.maximum(np.take(m, cols, axis=1), best)
        yield m


def _confidences(model: "Model", levels: np.ndarray, chunk: int) -> np.ndarray:
    """The kernel: (B, n_out) confidences at the quantized queries ``levels``
    (B, J), at most ``chunk`` queries at a time."""
    n_y, r_out = model.output_spec.levels, model.radii.radius_out
    rows = np.zeros((len(levels), n_y))
    plan = model.plan
    if not len(plan.c_in):
        return rows
    b0 = 0
    for m in _cell_maxima(plan, levels, model.radii.radius_in, chunk):
        out = rows[b0:b0 + len(m)]
        b0 += len(m)
        # a cell whose M is not above 0 for any query here adds nothing
        live = ((m > 0.0).any(axis=0) if len(m) > 1 else m[0] > 0.0).nonzero()[0]
        if len(live) <= _TENT_SHARE * (plan.n_span + len(plan.tent)):
            # min(R_lo(t), R_hi(t)) of each live cell (lo, hi), 0-based
            span, lo = np.divmod(plan.cells[live], n_y)
            tents = _output_tents(n_y, r_out)
            ramp = np.minimum(tents[lo], tents[lo + span])
            np.minimum(m[:, live, None], ramp).max(axis=1, initial=0.0, out=out)
            continue
        # the max over every slot inside each interval; slots no run
        # reaches stay 0, which adds nothing.  The queries stand on the last
        # axis, so every span and window step below reads and writes
        # contiguous blocks of whole slots rather than strided columns.
        slots = np.zeros(((plan.n_span + 1) * n_y, len(m)))
        slots[plan.cells] = m.T
        grid = slots.reshape(plan.n_span + 1, n_y, len(m))
        for span in range(1, plan.n_span + 1):
            inner = grid[span, :n_y - span]
            np.maximum(inner, grid[span - 1, :n_y - span], out=inner)
            np.maximum(inner, grid[span - 1, 1:n_y - span + 1], out=inner)
        # min(R_lo(t), R_hi(t)) is the tent at half-width max(t - lo, hi - t)
        # = D, and every pair inside t's window of half-width D reaches it
        best = np.zeros((n_y, len(m)))
        for r, window in zip(plan.tent, plan.windows):
            reached = slots[window]
            np.maximum(best, np.minimum(reached, r, out=reached), out=best)
        out[...] = best.T
    return rows


def _query_levels(model: "Model", x) -> list[int]:
    xs = [float(v) for v in x]
    if len(xs) != model.n_inputs:
        raise ValueError(f"query has {len(xs)} inputs, model expects {model.n_inputs}")
    for j, v in enumerate(xs, start=1):
        if math.isnan(v):
            raise ValueError(f"query input {j} is NaN")
    return [quantize(spec, v) for spec, v in zip(model.input_specs, xs)]


@lru_cache(maxsize=64)
def _held_level_values(spec: QuantizationSpec) -> np.ndarray:
    """``level_values(spec)``, computed once per spec and read-only."""
    values = level_values(spec)
    values.flags.writeable = False
    return values


def infer_fuzzy(model: "Model", x) -> FuzzyOutput:
    """Confidence in each output level for the query ``x``; the level
    values are shared by every answer on the same output axis, read-only."""
    levels = np.array([_query_levels(model, x)], dtype=np.int64)
    return FuzzyOutput(_held_level_values(model.output_spec), _confidences(model, levels, 1)[0])


def defuzzify_wsf(fz: FuzzyOutput) -> float:
    """Weighted sum of level values over total confidence.

    Invariant under scaling all confidences by the same positive factor,
    which is what lets the attenuated hardware readout defuzzify unchanged.
    """
    total = float(fz.confidences.sum())
    if total == 0.0:
        raise NoCoverageError("all output-level confidences are zero at this query")
    weighted = float((fz.level_values * fz.confidences).sum())
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

    Keys: inputs (an infinite one as the string "inf" or "-inf"),
    input_levels, plane_confidences[group][level][plane],
    group_confidences[group][level], level_values, confidences, crisp,
    no_coverage.  The tables are read off each group's stains the way
    ``diffuse`` writes a plane; the confidences, which equal the max over
    groups of ``group_confidences``, and the crisp value come from the kernel.
    """
    levels = _query_levels(model, x)
    c_in, c_out, offsets = model.stains()
    n_y, sizes = model.output_spec.levels, np.diff(offsets)
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
        # JSON has no infinity; input_levels shows where such an input clamped
        "inputs": [v if math.isfinite(v) else str(v) for v in map(float, x)],
        "input_levels": levels,
        "plane_confidences": planes.tolist(),
        "group_confidences": planes.min(axis=2).tolist(),
        "level_values": fz.level_values.tolist(),
        "confidences": fz.confidences.tolist(),
        "crisp": crisp,
        "no_coverage": crisp is None,
    }
