"""The four benchmark workloads and the loop that runs them.

Each workload makes its inputs from the seed (``setup``), computes what it
will check the program against apart from the program (``prepare``), then
repeats whole rounds of the same operations until the run's time is up.
Every operation is timed around one call into the program's public API or
into ``cli.main``; its output is checked after the timing stops.  An
operation fails when it raises anything but the method's own refusal
(``NoCoverageError`` for a single query) or when a check on its output
fails.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import resource
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from inkspread import benchmarks, cli, core, crossbar, datasets, inference, modelio
from inkspread import model as model_mod
from inkspread.errors import NoCoverageError

import oracle
from tracing import Tracer

clock = time.perf_counter
# Before every round, set-up is repeated for at least SETUP_ROUND_S seconds
# (at least once, at most SETUP_ROUND_MAX times); setup_s is the median over
# the run.  Spread over the whole run, the repeats see the same changes in the
# host's speed as the rounds do, and not only those of its first moments.
SETUP_ROUND_S, SETUP_ROUND_MAX = 0.05, 10


class CheckFailed(Exception):
    pass


def check(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Ops:
    """Operations attempted and failed, with a tally of why they failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()

    @contextlib.contextmanager
    def attempt(self, what: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # any raise is this operation's failure; the run goes on
            self.failed += 1
            self.errors[f"{what}: {type(exc).__name__}: {exc}"[:300]] += 1


def seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def spec(ax: oracle.Axis) -> core.QuantizationSpec:
    return core.QuantizationSpec(ax.lo, ax.hi, ax.n)


def median(values) -> float:
    return float(statistics.median(values))


def pooled(rounds, key) -> list[float]:
    """Every sample of ``key`` over the rounds."""
    return [v for rd in rounds for v in rd[key]]


class Workload:
    """Shared plumbing; subclasses fill in setup, prepare, round, summary."""

    name = ""
    timed: tuple[str, ...] = ()   # operation kinds whose time makes up a round
    query_kind = ""               # the operation kind that answers queries, for infer_qps
    layers: tuple[str, ...] = ()  # per-layer figures of the traced run, COMMON_LAYERS among them

    def __init__(self):
        self.tracer: Tracer | None = None
        self.measure_bytes = False  # set for the warm-up round

    def held_bytes(self, rec, trained) -> None:
        """In the warm-up round, the bytes the model holds after its first query."""
        if self.measure_bytes:
            rec["model_bytes"].append(oracle.held_bytes(trained))
            self.measure_bytes = False

    def op(self, kind: str):
        """Root span of one operation while a round is traced."""
        return self.tracer.operation(kind) if self.tracer else contextlib.nullcontext()

    def timed_call(self, rec, kind: str, fn, *args):
        with self.op(kind):
            t = clock()
            result = fn(*args)
            rec[kind].append(clock() - t)
        return result

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def prepare(self, trace: bool) -> None:
        pass

    def round(self, ops: Ops, rec) -> None:
        raise NotImplementedError

    def queries_per_round(self) -> int:
        """Queries answered by the ``query_kind`` operations of one round."""
        raise NotImplementedError

    def figures(self, rounds: list) -> dict[str, float]:
        """This workload's own figures from the measured rounds, kept in the
        run record; a figure whose every operation failed is left out."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks over the whole run; each string is one that failed."""
        return []

    def layer_extra(self, layer: dict, counts: dict) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


# -- f2-offline --------------------------------------------------------------

class F2Offline(Workload):
    """Batch surface fit: train_full and one infer_many batch on the fresh model
    (three times a round), save_model (twice), then cold CLI infer calls."""

    name = "f2-offline"
    timed = ("bench.train", "bench.infer", "bench.save", "bench.cold_infer")
    query_kind = "bench.infer"
    layers = ("datasets.gen_s", "core.quantize_calls", "core.quantize_s", "model.train_s",
              "model.diffuse_calls", "model.diffuse_s", "model.groups", "inference.stack_build_s",
              "inference.kernel_s", "inference.defuzzify_s", "inference.trace_s", "modelio.load_s",
              "modelio.save_s", "inference.pairs_evaluated", "inference.live_pair_ratio",
              "inference.coverage_ratio", "cli.self_s")

    n_train, n_test, levels, radius = 1000, 1000, 128, 10.0
    n_check, fits, saves = 64, 3, 2

    def __init__(self, out_dir, cold=3):
        super().__init__()
        self.n_cold = cold
        self.path = out_dir / f"{self.name}.ids"

    def setup(self, seed):
        s_train, s_test = seeds(seed, 2)
        self.train = datasets.gen_f2(self.n_train, s_train)
        self.test = datasets.gen_f2(self.n_test, s_test)

    def prepare(self, trace):
        y = self.train.outputs_array()
        self.axes = [oracle.Axis(lo, hi, self.levels) for lo, hi in self.train.input_ranges]
        self.out_axis = oracle.Axis(float(y.min()), float(y.max()), self.levels)
        self.specs = [spec(ax) for ax in self.axes]
        self.out_spec = spec(self.out_axis)
        self.radii = core.StainRadii(self.radius, self.radius)
        self.X = self.test.inputs_array()
        self.y = self.test.outputs_array()
        stains = oracle.Stains.build(self.axes, self.out_axis, self.radius, self.radius,
                                     self.train.inputs_array(), y)
        self.ref_rows = stains.rows(self.X[:self.n_check])
        self.ref_values, self.ref_covered = oracle.defuzzify(self.ref_rows, self.out_axis.values())
        cold = self.X[:self.n_cold]
        self.cold = list(zip(cold.tolist(), oracle.defuzzify(stains.rows(cold), self.out_axis.values())[0]))
        self.band = cli.TABLE1_BANDS[("f2", self.radius)][1]
        self.live = stains.live_pairs(self.X) if trace else None

    def round(self, ops, rec):
        for _ in range(self.fits):
            trained = None
            with ops.attempt("train_full"):
                trained = self.timed_call(rec, "bench.train", model_mod.train_full,
                                          self.train.samples, self.specs, self.out_spec, self.radii)
                check(len(trained.groups) == self.n_train, f"{len(trained.groups)} groups")
            self.infer_batch(ops, rec, trained)
        for _ in range(self.saves):
            with ops.attempt("save_model"):
                check(trained is not None, "no model")
                self.timed_call(rec, "bench.save", modelio.save_model, trained, self.path)
                rec["file_bytes"].append(self.path.stat().st_size)
        del trained
        gc.collect()
        for q, expected in self.cold:
            with ops.attempt("cli infer"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = self.timed_call(rec, "bench.cold_infer", cli.main,
                                         ["infer", "--model", str(self.path)] + [repr(v) for v in q])
                check(rc == 0, f"exit code {rc}")
                printed = float(out.getvalue().split()[-1])
                # four printed decimals, plus the float32 rounding of the file
                check(abs(printed - expected) <= 0.5e-4 + 1e-6,
                      f"printed {printed} against {expected:.6f}")

    def infer_batch(self, ops, rec, trained) -> None:
        with ops.attempt("infer_many"):
            check(trained is not None, "no model")
            values, covered = self.timed_call(rec, "bench.infer", inference.infer_many, trained, self.X)
            with self.op("bench.check"):
                rows = inference.infer_many_fuzzy(trained, self.X[:self.n_check])
            check(np.array_equal(rows, self.ref_rows), "confidence rows differ from the oracle")
            k = self.n_check
            check(np.array_equal(covered[:k], self.ref_covered), "coverage differs from the oracle")
            check(np.array_equal(values[:k], self.ref_values, equal_nan=True),
                  "crisp values differ from the oracle")
            check(covered.all(), f"{int((~covered).sum())} test queries uncovered")
            score = oracle.fvu(values, self.y)
            check(score <= self.band, f"FVU {score:.4f} above {self.band}")
            self.held_bytes(rec, trained)

    def queries_per_round(self):
        return self.fits * self.n_test

    def figures(self, rounds):
        out = {}
        if pooled(rounds, "bench.train"):
            out["train_samples_per_s"] = self.n_train / median(pooled(rounds, "bench.train"))
        if pooled(rounds, "bench.save"):
            out["save_s"] = median(pooled(rounds, "bench.save"))
            out["model_file_bytes"] = float(pooled(rounds, "file_bytes")[0])
        if pooled(rounds, "bench.cold_infer"):
            out["cold_infer_s"] = median(pooled(rounds, "bench.cold_infer"))
        return out

    def layer_extra(self, layer, counts):
        return {
            "inference.pairs_evaluated": counts["pairs"],
            # every batch of a round scores the same queries against the same model
            "inference.live_pair_ratio": self.live * self.fits / counts["pairs"],
            "inference.coverage_ratio": counts["covered"] / counts["queries"],
        }

    def close(self):
        self.path.unlink(missing_ok=True)


# -- f2-online ---------------------------------------------------------------

class F2Online(Workload):
    """A stream learnt by train_error_gated, then single queries through infer."""

    name = "f2-online"
    timed = ("bench.train", "bench.query")
    query_kind = "bench.query"
    layers = ("datasets.gen_s", "core.quantize_calls", "core.quantize_s", "model.train_s",
              "model.diffuse_calls", "model.diffuse_s", "model.gate_predictions",
              "model.gate_predict_s", "model.gate_kept_ratio", "model.groups",
              "inference.defuzzify_s", "inference.infer_calls", "inference.infer_s",
              "inference.pairs_evaluated", "inference.live_pair_ratio", "inference.coverage_ratio")
    # f2 lies in [0, sqrt(5)*sin(1)] on the domain: sin(x)/x falls from sin(1) at x = 1
    out_axis = oracle.Axis(0.0, math.sqrt(5.0) * math.sin(1.0), 128)
    in_axis = oracle.Axis(datasets.DOMAIN[0], datasets.DOMAIN[1], 128)

    radius, tolerance = 10.0, 0.05
    stream_seed = 1  # 543 groups kept

    def __init__(self, out_dir, stream=2000, queries=500):
        super().__init__()
        self.n_stream, self.n_queries = stream, queries

    def setup(self, seed):
        # The stream is fixed and the seed draws the queries: over seeds, a
        # drawn stream keeps 498 to 600 groups, and the model's bytes and the
        # cost of every query move with that count, by up to 22% between the
        # quartiles of ten seeds.
        self.stream = datasets.gen_f2(self.n_stream, self.stream_seed)
        self.queries = datasets.gen_f2(self.n_queries, seeds(seed, 1)[0])

    def prepare(self, trace):
        axes = [self.in_axis, self.in_axis]
        self.specs = [spec(ax) for ax in axes]
        self.out_spec = spec(self.out_axis)
        self.radii = core.StainRadii(self.radius, self.radius)
        X, y = self.stream.inputs_array(), self.stream.outputs_array()
        self.kept = oracle.replay_gating(axes, self.out_axis, self.radius, self.radius, X, y,
                                         self.tolerance)
        stains = oracle.Stains.build(axes, self.out_axis, self.radius, self.radius,
                                     X[self.kept], y[self.kept])
        self.Q = self.queries.inputs_array()
        self.ref_values, self.ref_covered = oracle.defuzzify(stains.rows(self.Q), self.out_axis.values())
        self.query_list = [tuple(q) for q in self.Q.tolist()]
        self.live = stains.live_pairs(self.Q) if trace else None

    def round(self, ops, rec):
        trained = None
        with ops.attempt("train_error_gated"):
            trained = self.timed_call(rec, "bench.train", model_mod.train_error_gated,
                                      self.stream.samples, self.specs, self.out_spec, self.radii,
                                      self.tolerance)
            check(len(trained.groups) == len(self.kept),
                  f"{len(trained.groups)} groups kept, the replay keeps {len(self.kept)}")
        times = rec["bench.query"]
        for q, expected, covered in zip(self.query_list, self.ref_values, self.ref_covered):
            with ops.attempt("infer"):
                check(trained is not None, "no model")
                with self.op("bench.query"):
                    t = clock()
                    try:
                        value = inference.infer(trained, q)
                    except NoCoverageError:
                        value = None
                    times.append(clock() - t)
                if covered:
                    check(value == expected, f"infer {value} against oracle {expected}")
                else:
                    check(value is None, "answered where the oracle has no coverage")
                self.held_bytes(rec, trained)

    def queries_per_round(self):
        return self.n_queries

    def figures(self, rounds):
        out = {}
        if pooled(rounds, "bench.train"):
            out["train_samples_per_s"] = self.n_stream / median(pooled(rounds, "bench.train"))
        if pooled(rounds, "bench.query"):
            out["query_p50_ms"] = 1e3 * median(pooled(rounds, "bench.query"))
        return out

    def layer_extra(self, layer, counts):
        calls = layer.get("inference.infer", {}).get("calls", 0)
        refused = layer.get("inference.infer", {}).get("failed", 0)
        pairs = calls * counts["groups"]  # a refused query scores every group too
        return {
            "model.gate_kept_ratio": counts["groups"] / self.n_stream,
            "inference.pairs_evaluated": pairs,
            "inference.live_pair_ratio": self.live / pairs,
            "inference.coverage_ratio": (calls - refused) / calls,
        }


# -- circles-merged ------------------------------------------------------------

class CirclesMerged(Workload):
    """Rings classification over several draws: train_merged, then classify."""

    name = "circles-merged"
    timed = ("bench.train", "bench.classify")
    query_kind = "bench.classify"
    layers = ("datasets.gen_s", "core.quantize_calls", "core.quantize_s", "model.train_s",
              "model.diffuse_calls", "model.diffuse_s", "model.merge_attempts",
              "model.merge_placed_ratio", "model.groups", "inference.stack_build_s",
              "inference.kernel_s", "inference.defuzzify_s", "inference.pairs_evaluated",
              "inference.live_pair_ratio", "inference.coverage_ratio", "benchmarks.decide_s")
    in_axis = oracle.Axis(-3.0, 3.0, 256)
    out_axis = oracle.Axis(1.0, 3.0, 32)
    classes = 3
    n_train, n_test = 300, 1000

    def __init__(self, out_dir, draws=10, check_queries=100):
        super().__init__()
        self.n_draws, self.n_check = draws, check_queries

    def setup(self, seed):
        self.draws = []
        for a, b in zip(*[iter(seeds(seed, 2 * self.n_draws))] * 2):
            self.draws.append((datasets.gen_circles(self.n_train, a), datasets.gen_circles(self.n_test, b)))

    def prepare(self, trace):
        axes = [self.in_axis, self.in_axis]
        self.specs = [spec(ax) for ax in axes]
        self.out_spec = spec(self.out_axis)
        self.radii = core.StainRadii(50.0, 16.0)
        self.sets = []
        self.live = 0
        for train, test in self.draws:
            check(train.input_ranges == [(self.in_axis.lo, self.in_axis.hi)] * 2, "input ranges")
            y = train.outputs_array()
            group = oracle.first_fit_groups(self.out_axis, y)
            stains = oracle.Stains.build(axes, self.out_axis, 50.0, 16.0, train.inputs_array(), y, group)
            X = test.inputs_array()
            ref = oracle.max_membership(stains.rows(X[:self.n_check]), self.out_axis, self.classes)
            self.sets.append((train.samples, X, test.outputs_array(), stains.n_groups, ref))
            if trace:
                self.live += stains.live_pairs(X)
        self.accuracy = []

    def round(self, ops, rec):
        accuracy = []
        for samples, X, y, n_groups, ref in self.sets:
            trained = None
            with ops.attempt("train_merged"):
                trained = self.timed_call(rec, "bench.train", model_mod.train_merged,
                                          samples, self.specs, self.out_spec, self.radii)
                check(len(trained.groups) == n_groups,
                      f"{len(trained.groups)} groups, first-fit packing gives {n_groups}")
            with ops.attempt("classify"):
                check(trained is not None, "no model")
                labels, _, _ = self.timed_call(rec, "bench.classify", benchmarks.classify,
                                               trained, X, self.classes)
                check(np.array_equal(labels[:self.n_check], ref), "labels differ from the oracle")
                accuracy.append(100.0 * float(np.mean(labels == y)))
                self.held_bytes(rec, trained)
        self.accuracy.append(accuracy)

    def queries_per_round(self):
        return len(self.sets) * self.n_test

    def figures(self, rounds):
        # per round: every draw's samples over the sum of their times
        n = len(self.sets)
        out = {}
        if all(len(rd["bench.train"]) == n for rd in rounds):
            out["train_samples_per_s"] = n * self.n_train / median(sum(rd["bench.train"]) for rd in rounds)
        return out

    def finish(self):
        problems = []
        for accuracy in self.accuracy:
            if len(accuracy) == len(self.sets) and np.mean(accuracy) < cli.CIRCLES_MIN:
                problems.append(f"mean accuracy {np.mean(accuracy):.3f}% below {cli.CIRCLES_MIN}%")
        return problems

    def layer_extra(self, layer, counts):
        merge = layer.get("model.merge", {"calls": 0, "failed": 0})
        return {
            "model.merge_placed_ratio": (merge["calls"] - merge["failed"]) / merge["calls"],
            "inference.pairs_evaluated": counts["pairs"],
            "inference.live_pair_ratio": self.live / counts["pairs"],
            "inference.coverage_ratio": counts["covered"] / counts["queries"],
        }


# -- crossbar-twin ---------------------------------------------------------------

class CrossbarTwin(Workload):
    """``inkspread compare-hw`` over an epsilon sweep, in process."""

    name = "crossbar-twin"
    timed = ("bench.compare_hw",)
    query_kind = "bench.compare_hw"
    layers = ("datasets.gen_s", "core.quantize_calls", "core.quantize_s", "model.groups",
              "inference.defuzzify_s", "inference.infer_calls", "inference.infer_s",
              "inference.pairs_evaluated", "inference.coverage_ratio", "crossbar.program_s",
              "crossbar.arrays_programmed", "crossbar.iterations_max",
              "crossbar.budget_exhausted_cells", "crossbar.hw_infer_calls", "crossbar.hw_infer_s",
              "crossbar.read_s", "crossbar.divider_s", "crossbar.underflows", "cli.self_s")
    sweep = (0.01, 0.002)

    def __init__(self, out_dir, queries=200):
        super().__init__()
        self.n_queries = queries
        self.path = out_dir / f"{self.name}.ids"
        self.report = out_dir / f"{self.name}.json"

    def setup(self, seed):
        # the 50-sample f2 model of the hardware-twin acceptance test
        ds = datasets.gen_f2(50, 123)
        specs = [core.QuantizationSpec(lo, hi, 64) for lo, hi in ds.input_ranges]
        outs = [s.output for s in ds.samples]
        out_spec = core.QuantizationSpec(min(outs), max(outs), 64)
        trained = model_mod.train_full(ds.samples, specs, out_spec, core.StainRadii(10.0, 10.0))
        modelio.save_model(trained, self.path)
        self.out_range = out_spec.max - out_spec.min
        self.first_input = ds.samples[0].inputs
        self.query_seed = seeds(seed, 1)[0]

    def round(self, ops, rec):
        argv = ["compare-hw", "--model", str(self.path), "--queries", str(self.n_queries),
                "--sweep", ",".join(str(e) for e in self.sweep), "--out", str(self.report),
                "--set", f"seed={self.query_seed}"]
        programmed = []
        program = cli.program_from_model

        def capture(*args, **kwargs):
            programmed.append(program(*args, **kwargs))
            return programmed[-1]

        with ops.attempt("compare-hw"):
            cli.program_from_model = capture
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = self.timed_call(rec, "bench.compare_hw", cli.main, argv)
            finally:
                cli.program_from_model = program
            reports = [rep for hw in programmed for row in hw.reports for rep in row]
            rec["pulses"].append(sum(rep.total_pulses for rep in reports))
            check(rc == 0, f"exit code {rc}")
            results = json.loads(self.report.read_text())["results"]
            check([r["epsilon"] for r in results] == list(self.sweep), "sweep")
            for r in results:
                check(r["underflow_count"] == r["no_coverage_count"],
                      f"eps {r['epsilon']}: {r['underflow_count']} underflows, "
                      f"{r['no_coverage_count']} uncovered")
            devs = [r["max_abs_deviation"] for r in results]
            check(devs[0] <= 0.02 * self.out_range, f"max |hw - ideal| {devs[0]} at eps 0.01")
            check(devs[1] <= devs[0], f"deviation grows from {devs[0]} to {devs[1]}")
            check(not any(rep.budget_exhausted.any() for rep in reports), "cells out of pulse budget")
        if self.measure_bytes:
            # the model as compare-hw holds it: loaded from the file, after one query
            loaded = modelio.load_model(self.path)
            inference.infer(loaded, self.first_input)
            self.held_bytes(rec, loaded)

    def queries_per_round(self):
        # every query is answered by the ideal and the analog path at each epsilon
        return self.n_queries * len(self.sweep)

    def figures(self, rounds):
        out = {}
        if pooled(rounds, "bench.compare_hw"):
            out["compare_hw_s"] = median(pooled(rounds, "bench.compare_hw"))
            out["hw_pulses"] = float(pooled(rounds, "pulses")[0])
        return out

    def layer_extra(self, layer, counts):
        divider = layer.get("crossbar.divider", {"failed": 0})
        ideal = layer.get("inference.infer", {"calls": 0, "failed": 0})
        return {
            "crossbar.iterations_max": counts["iterations_max"],
            "crossbar.budget_exhausted_cells": counts["budget_exhausted"],
            "crossbar.underflows": divider["failed"],
            "inference.pairs_evaluated": ideal["calls"] * counts["groups"] / counts["models"],
            "inference.coverage_ratio": (ideal["calls"] - ideal["failed"]) / ideal["calls"],
        }

    def close(self):
        self.path.unlink(missing_ok=True)
        self.report.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (F2Offline, F2Online, CirclesMerged, CrossbarTwin)}

# The result line must hold the same metrics on every workload, so a traced
# one holds the per-layer figures that every workload measures; the rest
# stay in the run record.
COMMON_LAYERS = ("datasets.gen_s", "core.quantize_calls", "core.quantize_s", "inference.defuzzify_s",
                 "model.groups", "inference.pairs_evaluated", "inference.coverage_ratio")


# -- tracing -----------------------------------------------------------------

def _count_model(counts, name, args, result):
    counts["groups"] += len(result.groups)
    counts["models"] += 1


def _count_kernel(counts, name, args, result):
    counts["pairs"] += len(args[1]) * len(args[0].groups)


def _count_batch(counts, name, args, result):
    counts["queries"] += len(args[1])
    counts["covered"] += int(np.sum(result[-1]))


def _count_program(counts, name, args, result):
    counts["iterations_max"] = max(counts["iterations_max"], result.iterations)
    counts["budget_exhausted"] += int(result.budget_exhausted.sum())


def make_tracer() -> Tracer:
    """Spans at each layer boundary of the program, named ``<module>.<what>``."""
    tr = Tracer()
    tr.wrap(datasets, "gen_f2", "datasets.gen")
    tr.wrap(datasets, "gen_circles", "datasets.gen")
    tr.wrap(core, "quantize", "core.quantize")
    tr.wrap(core, "quantize_many", "core.quantize")
    for policy in ("train_full", "train_error_gated", "train_merged"):
        tr.wrap(model_mod, policy, "model.train", on_result=_count_model)
    tr.wrap(model_mod, "diffuse", "model.diffuse")
    tr.wrap(model_mod, "merge_into_group", "model.merge")
    tr.wrap(model_mod.Model, "input_stacks", "inference.stack_build")
    tr.wrap(inference, "infer_many_fuzzy", "inference.kernel", on_result=_count_kernel)
    tr.wrap(inference, "infer_many", "inference.infer_many", on_result=_count_batch)
    tr.wrap(inference, "defuzzify_many", "inference.defuzzify")
    tr.wrap(inference, "defuzzify_wsf", "inference.defuzzify")
    tr.wrap(inference, "infer", "inference.infer", inside={"model.train": "model.gate_predict"})
    tr.wrap(inference, "infer_trace", "inference.trace")
    tr.wrap(modelio, "load_model", "modelio.load", on_result=_count_model)
    tr.wrap(modelio, "save_model", "modelio.save")
    tr.wrap(benchmarks, "classify", "benchmarks.classify", on_result=_count_batch)
    tr.wrap(benchmarks, "classify_max_membership", "benchmarks.decide")
    tr.wrap(crossbar, "program_from_model", "crossbar.program_model")
    tr.wrap(crossbar, "program_plane", "crossbar.program", on_result=_count_program)
    tr.wrap(crossbar, "crossbar_infer", "crossbar.hw_infer")
    tr.wrap(crossbar, "read_column_voltages", "crossbar.read")
    tr.wrap(crossbar, "defuzz_circuit", "crossbar.divider")
    tr.wrap(cli, "main", "cli.main")
    return tr


# Per-layer metric -> span it reads: self time (``_s``) or number of calls.
LAYER_TIME = {
    "datasets.gen_s": "datasets.gen", "core.quantize_s": "core.quantize",
    "model.train_s": "model.train", "model.diffuse_s": "model.diffuse",
    "model.gate_predict_s": "model.gate_predict", "inference.stack_build_s": "inference.stack_build",
    "inference.kernel_s": "inference.kernel", "inference.defuzzify_s": "inference.defuzzify",
    "inference.infer_s": "inference.infer", "inference.trace_s": "inference.trace",
    "modelio.load_s": "modelio.load", "modelio.save_s": "modelio.save",
    "benchmarks.decide_s": "benchmarks.decide", "crossbar.program_s": "crossbar.program",
    "crossbar.hw_infer_s": "crossbar.hw_infer", "crossbar.read_s": "crossbar.read",
    "crossbar.divider_s": "crossbar.divider", "cli.self_s": "cli.main",
}
LAYER_CALLS = {
    "core.quantize_calls": "core.quantize", "model.diffuse_calls": "model.diffuse",
    "model.gate_predictions": "model.gate_predict", "model.merge_attempts": "model.merge",
    "inference.infer_calls": "inference.infer", "crossbar.arrays_programmed": "crossbar.program",
    "crossbar.hw_infer_calls": "crossbar.hw_infer",
}


def _merge_counts(counts: dict, kinds) -> dict:
    """Boundary counters summed over operation kinds (``*_max`` ones take the max)."""
    merged: dict = defaultdict(float)
    for kind in kinds:
        for key, value in counts.get(kind, {}).items():
            merged[key] = max(merged[key], value) if key.endswith("_max") else merged[key] + value
    return dict(merged)


def _layer_totals(breakdown: dict, kinds) -> dict:
    """Self time, calls and failures per span name, summed over operation kinds."""
    total: dict = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "failed": 0})
    for kind in kinds:
        for name, v in breakdown.get(kind, {}).get("layers", {}).items():
            for key in ("self_s", "calls", "failed"):
                total[name][key] += v[key]
    return dict(total)


# -- the run -------------------------------------------------------------------

def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        spans: Path | None = None, **sizes) -> dict:
    """One run: set-up repeats, whole rounds until ``seconds`` pass, checks.

    Round 0 is a warm-up: its operations are checked and counted, the
    model's bytes are measured in it, and its times are left out, because
    the first round of a process also pays one-off costs.  Untraced, the
    record's metrics are the end-to-end metrics of the later rounds, and its
    figures the workload's own.  Traced, the later rounds alternate traced
    and untraced; the record's layers hold every per-layer figure of the
    workload from the traced rounds, and its metrics the COMMON_LAYERS ones
    and the tracing overhead.
    ``sizes`` shrinks a workload's inputs for the benchmark's own tests.
    """
    w = WORKLOADS[name](out_dir, **sizes)
    tracer = make_tracer() if trace else None
    record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    try:
        setup_s = []
        setup_ops = []

        def set_up():
            """Repeat set-up for SETUP_ROUND_S; each repeat makes the same inputs."""
            t0 = clock()
            for _ in range(SETUP_ROUND_MAX):
                if tracer:
                    tracer.install()
                    w.tracer = tracer
                try:
                    with w.op("bench.setup"):
                        t = clock()
                        w.setup(seed)
                        setup_s.append(clock() - t)
                finally:
                    if tracer:
                        setup_ops.append(tracer.op_id)
                        tracer.uninstall()
                        w.tracer = None
                if clock() - t0 >= SETUP_ROUND_S:
                    break

        gc.collect()
        set_up()
        w.prepare(trace)

        ops = Ops()
        rounds = []
        start = clock()
        while len(rounds) < (3 if trace else 2) or clock() - start < seconds:
            if rounds:
                set_up()
            traced = trace and len(rounds) % 2 == 1
            w.measure_bytes = not rounds
            rec: dict = defaultdict(list)
            gc.collect()
            if traced:
                tracer.counts.clear()
                first = tracer.op_id + 1
                tracer.install()
                w.tracer = tracer
            try:
                w.round(ops, rec)
            finally:
                if traced:
                    tracer.uninstall()
                    w.tracer = None
                    rec["ops"] = list(range(first, tracer.op_id + 1))
                    rec["counts"] = _merge_counts(tracer.counts, w.timed)
            rec["traced"] = traced
            rec["timed_s"] = sum(sum(rec[k]) for k in w.timed)
            rounds.append(rec)
        peak = rss_mb()
        problems = w.finish()

        warmup, later = rounds[0], rounds[1:]
        plain = [r for r in later if not r["traced"]]
        record |= {"rounds": len(rounds), "setups": len(setup_s), "attempted": ops.attempted,
                   "failed": ops.failed, "errors": dict(ops.errors), "problems": problems,
                   "round_timed_s": [(r["traced"], r["timed_s"]) for r in rounds],
                   "phases_s": {k: [r[k] for r in rounds] for k in w.timed}}
        if not trace:
            metrics = {"setup_s": median(setup_s), "round_s": median(r["timed_s"] for r in plain)}
            answering = [sum(r[w.query_kind]) for r in plain if r[w.query_kind]]
            if answering:
                metrics["infer_qps"] = w.queries_per_round() / median(answering)
            if warmup["model_bytes"]:
                metrics["model_bytes"] = float(warmup["model_bytes"][0])
            metrics["peak_rss_mb"] = peak
            record["figures"] = w.figures(plain)
        else:
            metrics = _layer_metrics(w, tracer, setup_ops, [r for r in later if r["traced"]], plain,
                                     record)
        record["metrics"] = metrics
        if tracer and spans:
            tracer.write(spans)
        return record
    finally:
        w.close()
        if tracer:
            tracer.uninstall()


def _layer_metrics(w: Workload, tracer: Tracer, setup_ops, traced, plain, record) -> dict:
    per_round = []
    breakdowns = []
    for rec in traced:
        bd = tracer.breakdown(rec["ops"])
        breakdowns.append(bd)
        layer = _layer_totals(bd, w.timed)
        counts = defaultdict(float, rec["counts"])
        values = {}
        for metric in w.layers:
            if metric in LAYER_TIME:
                values[metric] = layer.get(LAYER_TIME[metric], {}).get("self_s", 0.0)
            elif metric in LAYER_CALLS:
                values[metric] = float(layer.get(LAYER_CALLS[metric], {}).get("calls", 0))
        if "model.groups" in w.layers:
            values["model.groups"] = counts["groups"] / counts["models"]
        values |= {k: float(v) for k, v in w.layer_extra(layer, counts).items() if k in w.layers}
        per_round.append(values)
    layers = {k: median(r[k] for r in per_round) for k in w.layers if k != "datasets.gen_s"}
    gen = [_layer_totals(tracer.breakdown([op]), ["bench.setup"]).get("datasets.gen", {}).get("self_s", 0.0)
           for op in setup_ops]
    layers = {"datasets.gen_s": median(gen)} | layers
    untraced_s = median(r["timed_s"] for r in plain)
    traced_s = median(r["timed_s"] for r in traced)
    metrics = {k: layers[k] for k in COMMON_LAYERS}
    metrics["bench.trace_overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    record["layers"] = layers
    record["breakdown"] = breakdowns[-1]
    record["residual_s"] = max(abs(v["residual_s"]) for bd in breakdowns for v in bd.values())
    record["trace_overhead_s"] = {"untraced": untraced_s, "traced": traced_s}
    return metrics
