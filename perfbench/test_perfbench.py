"""Tests of the benchmark itself: its references, its tracer and its checks.

    PYTHONPATH=src python3 -m pytest -q perfbench

The references must agree with ``tests/reference.py`` (the brute-force
oracle of the test suite) and with the program on small models, and a
program output made wrong on purpose must show up as a failed operation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import reference  # noqa: E402
from inkspread import benchmarks, cli, crossbar, inference  # noqa: E402
from inkspread import model as model_mod  # noqa: E402
from inkspread.core import QuantizationSpec, StainRadii  # noqa: E402
from inkspread.datasets import gen_circles, gen_f2  # noqa: E402
from inkspread.errors import NoCoverageError  # noqa: E402
from inkspread.model import train_error_gated, train_full, train_merged  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _f2(count, seed, levels=24, radius=4.0):
    ds = gen_f2(count, seed)
    y = ds.outputs_array()
    axes = [oracle.Axis(lo, hi, levels) for lo, hi in ds.input_ranges]
    out = oracle.Axis(float(y.min()), float(y.max()), levels)
    return ds, axes, out, StainRadii(radius, radius)


def _specs(axes):
    return [QuantizationSpec(a.lo, a.hi, a.n) for a in axes]


def _grouped(samples, group):
    return [[samples[k] for k in np.flatnonzero(group == g)] for g in range(int(group.max()) + 1)]


# -- references against tests/reference.py and the program ----------------------

def test_single_stain_rows_match_reference_and_program():
    ds, axes, out, radii = _f2(40, 3)
    model = train_full(ds.samples, _specs(axes), _specs([out])[0], radii)
    stains = oracle.Stains.build(axes, out, radii.radius_in, radii.radius_out,
                                 ds.inputs_array(), ds.outputs_array())
    Q = gen_f2(30, 4).inputs_array()
    rows = stains.rows(Q)
    assert np.array_equal(rows, stains.group_confidences(Q).max(axis=1))
    assert np.array_equal(rows, inference.infer_many_fuzzy(model, Q))
    grouped = [[s] for s in ds.samples]
    for q, row in zip(Q, rows):
        ref = reference.fuzzy_reference(grouped, _specs(axes), _specs([out])[0], radii, q)
        assert np.array_equal(row, ref)


def test_crisp_values_and_refusals_match_reference():
    ds, axes, out, radii = _f2(15, 5, levels=32, radius=3.0)
    stains = oracle.Stains.build(axes, out, 3.0, 3.0, ds.inputs_array(), ds.outputs_array())
    Q = gen_f2(60, 6).inputs_array()
    values, covered = oracle.defuzzify(stains.rows(Q), out.values())
    assert 0 < covered.sum() < len(Q)  # both outcomes are exercised
    grouped = [[s] for s in ds.samples]
    model = train_full(ds.samples, _specs(axes), _specs([out])[0], radii)
    for q, v, c in zip(Q, values, covered):
        if c:
            assert v == reference.crisp_reference(grouped, _specs(axes), _specs([out])[0], radii, q)
            assert v == inference.infer(model, q)
        else:
            with pytest.raises(NoCoverageError):
                inference.infer(model, q)


def test_merged_groups_match_reference():
    train, test = gen_circles(60, 1), gen_circles(40, 2)
    axes = [oracle.Axis(-3.0, 3.0, 48)] * 2
    out = oracle.Axis(1.0, 3.0, 12)
    radii = StainRadii(9.0, 4.0)
    y = train.outputs_array()
    group = oracle.first_fit_groups(out, y)
    model = train_merged(train.samples, _specs(axes), _specs([out])[0], radii)
    assert len(model.groups) == group.max() + 1
    stains = oracle.Stains.build(axes, out, 9.0, 4.0, train.inputs_array(), y, group)
    assert not stains.single_stain
    Q = test.inputs_array()
    rows = stains.rows(Q)
    assert np.array_equal(rows, inference.infer_many_fuzzy(model, Q))
    labels = oracle.max_membership(rows, out, 3)
    grouped = _grouped(train.samples, group)
    for q, label in zip(Q, labels):
        assert label == reference.class_reference(grouped, _specs(axes), _specs([out])[0], radii, q, 3)
    assert np.array_equal(labels, benchmarks.classify(model, Q, 3)[0])


@pytest.mark.parametrize("tolerance", [-1.0, 0.0, 0.05, 0.3])
def test_gating_replay_keeps_what_the_program_keeps(tolerance):
    ds, axes, out, radii = _f2(150, 8, levels=32, radius=5.0)
    kept = oracle.replay_gating(axes, out, 5.0, 5.0, ds.inputs_array(), ds.outputs_array(), tolerance)
    model = train_error_gated(ds.samples, _specs(axes), _specs([out])[0], radii, tolerance)
    assert len(kept) == len(model.groups)
    if tolerance < 0:
        assert len(kept) == 150
    # the kept samples rebuild the program's model exactly
    Q = gen_f2(20, 9).inputs_array()
    stains = oracle.Stains.build(axes, out, 5.0, 5.0, ds.inputs_array()[kept], ds.outputs_array()[kept])
    assert np.array_equal(stains.rows(Q), inference.infer_many_fuzzy(model, Q))


def test_live_pairs_single_stain_shortcut_matches_general_path():
    ds, axes, out, radii = _f2(50, 10, levels=32, radius=5.0)
    stains = oracle.Stains.build(axes, out, 5.0, 5.0, ds.inputs_array(), ds.outputs_array())
    Q = gen_f2(40, 11).inputs_array()
    general = int((stains.group_confidences(Q).max(axis=2) > 0).sum())
    assert stains.live_pairs(Q, chunk=7) == general > 0


def test_held_bytes_counts_a_shared_buffer_once():
    base = np.zeros(100_000)
    views = [base[:50_000], base[50_000:]]
    alone = oracle.held_bytes([base])
    assert alone >= base.nbytes
    assert oracle.held_bytes([base, views]) - alone < 2_000
    ds, axes, out, radii = _f2(20, 12)
    model = train_full(ds.samples, _specs(axes), _specs([out])[0], radii)
    before = oracle.held_bytes(model)
    inference.infer_many(model, ds.inputs_array()[:1])  # rebinds grids into one stack
    assert abs(oracle.held_bytes(model) - before) < 0.05 * before


# -- tracer ---------------------------------------------------------------------

def test_tracer_self_times_add_up_and_originals_come_back():
    original = inference.infer
    tr = workloads.make_tracer()
    ds, axes, out, radii = _f2(60, 13)
    tr.install()
    try:
        assert inference.infer is not original
        with tr.operation("bench.train"):  # called through the module, as the workloads do
            model = model_mod.train_error_gated(ds.samples, _specs(axes), _specs([out])[0], radii, 0.05)
        with tr.operation("bench.query"):
            inference.infer(model, ds.samples[0].inputs)
    finally:
        tr.uninstall()
    assert inference.infer is original
    bd = tr.breakdown()
    assert set(bd) == {"bench.train", "bench.query"}
    assert "model.gate_predict" in bd["bench.train"]["layers"]
    assert "inference.infer" not in bd["bench.train"]["layers"]
    assert bd["bench.query"]["layers"]["inference.infer"]["calls"] == 1
    for kind in bd.values():
        assert abs(kind["residual_s"]) < 1e-9
    ops = tr.arrays()["op"]
    assert set(ops.tolist()) == {0, 1}


def test_tracer_records_failures_and_nesting():
    tr = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced = tr.wrapper(leaf, "leaf")
    with tr.operation("root"):
        traced(1)
        with pytest.raises(ValueError):
            traced(-1)
    a = tr.arrays()
    assert a["parent"].tolist() == [-1, 0, 0]
    assert a["err"].tolist() == [0, 0, 1]
    own = tr.self_times()
    assert own.sum() == pytest.approx(a["end"][0] - a["start"][0], abs=1e-12)


# -- the workloads --------------------------------------------------------------

SMALL = {
    "f2-offline": {"cold": 1},
    "f2-online": {"stream": 600, "queries": 60},
    "circles-merged": {"draws": 2, "check_queries": 40},
    "crossbar-twin": {"queries": 40},
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_round_passes_its_checks(name, tmp_path):
    record = workloads.run(name, 3, 0.0, False, tmp_path, **SMALL[name])
    assert record["failed"] == 0, record["errors"]
    assert record["attempted"] > 0 and not record["problems"]
    assert list(record["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v > 0 for v in record["metrics"].values())
    assert record["figures"] and all(v > 0 for v in record["figures"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer(name, tmp_path):
    record = workloads.run(name, 4, 0.0, True, tmp_path, spans=tmp_path / "spans.npz", **SMALL[name])
    assert record["failed"] == 0, record["errors"]
    w = workloads.WORKLOADS[name]
    assert list(record["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert set(record["layers"]) == set(w.layers) >= set(workloads.COMMON_LAYERS)
    times = [k for k in record["metrics"] if k.endswith("_s")]
    assert all(record["metrics"][k] > 0 for k in times)
    assert record["residual_s"] < 1e-6
    assert (tmp_path / "spans.npz").is_file()


def _break(monkeypatch, name):
    if name == "f2-offline":
        real = inference.infer_many_fuzzy
        monkeypatch.setattr(inference, "infer_many_fuzzy", lambda m, X, chunk=64: real(m, X, chunk) * 0.5)
    elif name == "f2-online":
        real = inference.infer
        monkeypatch.setattr(inference, "infer", lambda m, x: real(m, x) + 1e-12)
    elif name == "circles-merged":
        real = benchmarks.classify
        monkeypatch.setattr(benchmarks, "classify",
                            lambda m, X, c: (lambda r: (c + 1 - r[0], *r[1:]))(real(m, X, c)))
    else:
        real = crossbar.crossbar_infer
        monkeypatch.setattr(cli, "crossbar_infer", lambda hw, x: real(hw, x) + 0.1)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_wrong_program_output_is_a_failed_operation(name, tmp_path, monkeypatch):
    _break(monkeypatch, name)
    record = workloads.run(name, 3, 0.0, False, tmp_path, **SMALL[name])
    assert record["failed"] > 0
    assert record["failed"] < record["attempted"] or name == "crossbar-twin"


# -- the command ------------------------------------------------------------------

def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(SPEC["command"] + ["--workload", "f2-online", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
