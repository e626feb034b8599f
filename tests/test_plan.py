"""The kernel plan a model holds: grown group by group, built once, and
out of reach of writes through ``Model.groups``.

A model builds its plan when it is built and extends it on every
``append_group``.  Grown plans must equal plans built from scratch, every
inference path on a grown model must equal ``tests/reference.py`` bitwise,
and no query may build or extend a plan.
"""

import importlib.util
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inkspread import model as model_mod
from inkspread.core import QuantizationSpec, StainRadii
from inkspread.datasets import gen_f2
from inkspread.errors import EqualOutputConflict, NoCoverageError
from inkspread.inference import _plan, infer, infer_fuzzy, infer_many, infer_many_fuzzy
from inkspread.model import IdsGroup, Model, Sample, merge_into_group, train_error_gated, train_full, train_merged
from inkspread.modelio import load_model, save_model

from reference import crisp_reference, fuzzy_reference
from test_acceptance import _first_fit_partition
from test_properties import check_every_path, kernel_path

# the benchmark's own measure of the bytes a model holds
_spec = importlib.util.spec_from_file_location(
    "perfbench_oracle", Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py")
_oracle = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_oracle)
held_bytes = _oracle.held_bytes


def assert_same_plan(held, built):
    assert np.array_equal(held.c_in, built.c_in)
    assert np.array_equal(held.cells, built.cells)
    assert held.n_span == built.n_span
    assert np.array_equal(held.tent, built.tent) and np.array_equal(held.windows, built.windows)
    assert len(held.diagonals) == len(built.diagonals)
    for mine, theirs in zip(held.diagonals, built.diagonals):
        for a, b in zip(mine, theirs):
            assert (a is None and b is None) or np.array_equal(a, b)


def plan_from_scratch(model):
    return _plan(*model.stains(), model.output_spec.levels, model.radii.radius_out)


@st.composite
def growths(draw):
    """Specs, radii, groups of samples (each group's output levels distinct)
    and queries of one small random model."""
    n_inputs = draw(st.integers(1, 3))
    specs = [QuantizationSpec(0.0, 1.0, draw(st.integers(2, 9))) for _ in range(n_inputs)]
    out = QuantizationSpec(0.0, 1.0, draw(st.integers(2, 8)))
    radii = StainRadii(draw(st.floats(0.3, 4.0)), draw(st.floats(0.3, 8.0)))
    unit = st.floats(0.0, 1.0)
    groups = []
    for _ in range(draw(st.integers(1, 6))):
        group = IdsGroup()
        samples = []
        # a single stain or several, at most one per output level
        for _ in range(draw(st.sampled_from([1, 1, 2, 4]))):
            s = Sample([draw(unit) for _ in range(n_inputs)], draw(unit))
            try:
                merge_into_group(group, s, specs, out)
                samples.append(s)
            except EqualOutputConflict:
                pass
        groups.append((group, samples))
    queries = np.array([[draw(unit) for _ in range(n_inputs)] for _ in range(draw(st.integers(1, 5)))])
    return specs, out, radii, groups, queries


@settings(max_examples=60, deadline=None)
@given(growths(), st.booleans())
def test_a_grown_plan_equals_one_built_from_scratch_and_the_oracle(growth, windows):
    specs, out, radii, groups, queries = growth
    model = Model([], specs, out, radii)
    assert_same_plan(model.plan, plan_from_scratch(model))
    assert not infer_many_fuzzy(model, queries).any()
    grouped = []
    for group, samples in groups:
        model.append_group(group)
        grouped.append(samples)
        assert_same_plan(model.plan, plan_from_scratch(model))
        want = np.array([fuzzy_reference(grouped, specs, out, radii, q) for q in queries])
        with kernel_path(windows):
            check_every_path(model, grouped, specs, out, radii, queries, want)
    assert_same_plan(model.plan, Model([g for g, _ in groups], specs, out, radii).plan)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ids"
        save_model(model, path)
        back = load_model(path)
    assert back == model
    assert_same_plan(back.plan, model.plan)
    with kernel_path(windows):
        check_every_path(back, grouped, specs, out, radii, queries, want)


@st.composite
def deep_models(draw):
    """Specs, radii, groups of samples and queries of a model whose plan has
    three or more diagonals: its first group holds three or more stains on
    consecutive output levels, which a run of three stains spans."""
    n_inputs = draw(st.integers(1, 3))
    specs = [QuantizationSpec(0.0, 1.0, draw(st.integers(2, 9))) for _ in range(n_inputs)]
    n_out = draw(st.integers(3, 10))
    out = QuantizationSpec(0.0, 1.0, n_out)
    # radius_out >= 2 lets a run span two levels
    radii = StainRadii(draw(st.floats(0.3, 4.0)), draw(st.floats(2.0, 8.0)))
    unit = st.floats(0.0, 1.0)
    start = draw(st.integers(1, n_out - 2))
    levels = [list(range(start, draw(st.integers(start + 3, n_out + 1))))]
    for _ in range(draw(st.integers(0, 3))):
        levels.append(draw(st.lists(st.integers(1, n_out), min_size=1, max_size=n_out, unique=True)))
    groups = [[Sample([draw(unit) for _ in range(n_inputs)], (k - 1) / (n_out - 1)) for k in part]
              for part in levels]
    queries = np.array([[draw(unit) for _ in range(n_inputs)] for _ in range(draw(st.integers(1, 6)))])
    # and a query on each stain, so the queries are lit
    queries = np.vstack([queries, [s.inputs for part in groups for s in part]])
    return specs, out, radii, groups, queries


@settings(max_examples=40, deadline=None)
@given(deep_models())
def test_single_queries_equal_their_batch_rows_on_plans_of_three_or_more_diagonals(deep):
    specs, out, radii, groups, queries = deep
    model = Model([], specs, out, radii)
    for part in groups:
        group = IdsGroup()
        for sample in part:
            merge_into_group(group, sample, specs, out)
        model.append_group(group)
    assert len(model.plan.diagonals) >= 3
    assert_same_plan(model.plan, plan_from_scratch(model))
    want = np.array([fuzzy_reference(groups, specs, out, radii, q) for q in queries])
    assert want.any()
    for windows in (False, True):
        with kernel_path(windows):
            check_every_path(model, groups, specs, out, radii, queries, want)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_long_append_streams_keep_the_plan_equal_to_one_built_from_scratch(data):
    draw = data.draw
    specs = [QuantizationSpec(0.0, 1.0, draw(st.integers(2, 9))) for _ in range(draw(st.integers(1, 3)))]
    n_out = draw(st.integers(2, 12))
    out = QuantizationSpec(0.0, 1.0, n_out)
    model = Model([], specs, out, StainRadii(draw(st.floats(0.3, 4.0)), draw(st.floats(0.3, 8.0))))
    for _ in range(draw(st.integers(20, 60))):
        # mostly single stains, as the error gate appends them, and some
        # groups of several stains
        size = draw(st.sampled_from([1, 1, 1, 2, 3, 6]))
        levels = draw(st.lists(st.integers(1, n_out), min_size=1, max_size=size, unique=True))
        model.append_group(IdsGroup([(tuple(draw(st.integers(1, spec.levels)) for spec in specs), k)
                                     for k in levels]))
        assert_same_plan(model.plan, plan_from_scratch(model))
    queries = np.array([[draw(st.floats(0.0, 1.0)) for _ in specs] for _ in range(4)])
    for windows in (False, True):
        with kernel_path(windows):
            rows = infer_many_fuzzy(model, queries)
            for q, row in zip(queries, rows):
                assert np.array_equal(infer_fuzzy(model, q).confidences, row)


def test_runs_of_one_slot_stand_in_group_order():
    # both groups have a run over output levels 1..4 of three stains; the
    # later group's run extends a shorter run, yet it stands second
    specs, out = [QuantizationSpec(1.0, 5.0, 5)], QuantizationSpec(1.0, 6.0, 6)
    groups = [IdsGroup([((1,), 1), ((2,), 3), ((3,), 4)]), IdsGroup([((4,), 1), ((5,), 2), ((1,), 4)])]
    model = Model(groups[:1], specs, out, StainRadii(2.0, 6.0))
    model.append_group(groups[1])
    assert_same_plan(model.plan, plan_from_scratch(model))
    assert_same_plan(model.plan, Model(groups, specs, out, StainRadii(2.0, 6.0)).plan)


def test_empty_model_plan_round_trips(tmp_path):
    specs = [QuantizationSpec(0.0, 1.0, 5)] * 2
    model = Model([], specs, QuantizationSpec(0.0, 1.0, 4), StainRadii(2.0, 2.0))
    save_model(model, tmp_path / "m.ids")
    back = load_model(tmp_path / "m.ids")
    assert back == model and len(back.plan.c_in) == 0
    assert_same_plan(back.plan, model.plan)
    values, covered = infer_many(back, np.array([[0.5, 0.5]]))
    assert np.isnan(values).all() and not covered.any()


class TestPlanBuilds:
    """No query builds or extends a plan; training builds one and grows it."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"built": 0, "extended": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(model_mod, "_plan", counted("built", model_mod._plan))
        monkeypatch.setattr(model_mod, "_extend_plan", counted("extended", model_mod._extend_plan))
        return counts

    @staticmethod
    def _stream():
        ds = gen_f2(300, 5)
        specs = [QuantizationSpec(lo, hi, 64) for lo, hi in ds.input_ranges]
        out = QuantizationSpec(0.0, 2.0, 64)
        return ds, specs, out, StainRadii(6.0, 6.0)

    def test_error_gated_training_builds_one_plan_and_grows_it(self, counts):
        ds, specs, out, radii = self._stream()
        model = train_error_gated(ds.samples, specs, out, radii, 0.05)
        assert 1 < len(model.groups) < 300
        assert counts == {"built": 1, "extended": len(model.groups)}

    def test_queries_build_no_plan(self, counts):
        ds, specs, out, radii = self._stream()
        model = train_error_gated(ds.samples, specs, out, radii, 0.05)
        counts.update(built=0, extended=0)
        for q in ds.inputs_array()[:100]:
            infer(model, q)
        infer_many(model, ds.inputs_array())
        assert counts == {"built": 0, "extended": 0}

    @pytest.mark.parametrize("policy", ["full", "error-gated", "merged"])
    def test_first_batch_leaves_held_bytes_as_they_were(self, policy):
        ds, specs, out, radii = self._stream()
        if policy == "error-gated":
            model = train_error_gated(ds.samples, specs, out, radii, 0.05)
        else:
            model = (train_full if policy == "full" else train_merged)(ds.samples, specs, out, radii)
        before = held_bytes(model)
        infer_many(model, ds.inputs_array()[:1])
        assert abs(held_bytes(model) - before) < 0.05 * before


class TestGroupsView:
    def _model(self):
        specs = [QuantizationSpec(0.0, 1.0, 9)] * 2
        out = QuantizationSpec(0.0, 1.0, 5)
        rng = np.random.default_rng(8)
        samples = [Sample(tuple(rng.uniform(0, 1, 2)), float(rng.uniform(0, 1))) for _ in range(30)]
        radii = StainRadii(3.0, 2.0)
        return train_merged(samples, specs, out, radii), _first_fit_partition(samples, out), specs, out, radii

    def test_reads_like_a_list_of_groups(self):
        model, grouped, *_ = self._model()
        groups = model.groups
        assert len(groups) == len(grouped) > 1
        assert groups == list(groups) and groups[-1] == list(groups)[-1]
        assert [len(g.stains) for g in groups] == [len(part) for part in grouped]
        with pytest.raises(IndexError):
            groups[len(grouped)]

    def test_stain_columns_are_read_only(self):
        model, *_ = self._model()
        for column in model.stains():
            with pytest.raises(ValueError):
                column[0] = 1

    def test_writes_through_groups_cannot_change_inference(self):
        model, grouped, specs, out, radii = self._model()
        queries = np.random.default_rng(9).uniform(0, 1, (12, 2))
        snapshot = model.groups[0]
        snapshot.stains.append(((1, 1), 5))
        snapshot.stains[0] = ((9, 9), 1)
        for group in model.groups:
            group.stains.clear()
        with pytest.raises(AttributeError):
            model.groups.append(IdsGroup([((1, 1), 1)]))
        with pytest.raises(TypeError):
            model.groups[0] = IdsGroup()
        with pytest.raises(AttributeError):
            model.groups = []
        assert [len(g.stains) for g in model.groups] == [len(part) for part in grouped]
        want = np.array([fuzzy_reference(grouped, specs, out, radii, q) for q in queries])
        assert np.array_equal(infer_many_fuzzy(model, queries), want)
        for q in queries:
            try:
                crisp = crisp_reference(grouped, specs, out, radii, q)
            except NoCoverageError:
                with pytest.raises(NoCoverageError):
                    infer(model, q)
                continue
            assert infer(model, q) == crisp
