"""Command-line front end.

Subcommands: train, infer, bench, compare-hw, dump-plane.  All knobs live
in a flat key=value config file (see config.py for the schema); ``--set``
overrides individual keys.  Exit codes: 0 success, 2 config or data error,
3 no coverage on an explicit single inference, 4 benchmark band failure in
--check mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import (
    CIRCLES_MIN,
    IRIS_MIN,
    SPIRAL_MIN,
    SUITE_DEFAULTS,
    TABLE1_BANDS,
    average_regression_runs,
    run_classification_experiment,
    run_iris_experiment,
    run_spiral_experiment,
    write_report_csv,
    write_report_json,
)
from .config import RunConfig, load_config
from .core import QuantizationSpec, StainRadii
from .crossbar import DeviceParams, ProgrammingParams, crossbar_infer, program_from_model
from .datasets import Dataset, gen_circles, gen_f1, gen_f2, gen_two_spiral, load_csv, load_iris
from .errors import NoCoverageError
from .inference import infer, infer_trace
from .model import train_error_gated, train_full, train_merged
from .modelio import load_model, plane_to_csv, save_model

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_COVERAGE = 3
EXIT_BAND = 4


def _load_dataset(cfg: RunConfig) -> Dataset:
    if cfg.dataset == "csv":
        if not cfg.dataset_path:
            raise ValueError("dataset=csv needs dataset_path")
        return load_csv(cfg.dataset_path)
    if cfg.dataset == "iris":
        return load_iris(cfg.dataset_path or None)
    if cfg.dataset == "spiral":
        return gen_two_spiral(cfg.points_per_class, cfg.seed)
    gen = {"circles": gen_circles, "f1": gen_f1, "f2": gen_f2}[cfg.dataset]
    return gen(cfg.train_count, cfg.seed)


def _build_specs(cfg: RunConfig, ds: Dataset) -> tuple[list[QuantizationSpec], QuantizationSpec]:
    ranges = ds.input_ranges
    if cfg.input_min is not None and cfg.input_max is not None:
        ranges = [(cfg.input_min, cfg.input_max)] * len(ranges)
    input_specs = [QuantizationSpec(lo, hi, cfg.input_levels) for lo, hi in ranges]
    if cfg.output_min is not None and cfg.output_max is not None:
        lo, hi = cfg.output_min, cfg.output_max
    else:
        outs = [s.output for s in ds.samples]
        lo, hi = min(outs), max(outs)
    return input_specs, QuantizationSpec(lo, hi, cfg.output_levels)


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set)
    ds = _load_dataset(cfg)
    samples = ds.samples
    input_specs, output_spec = _build_specs(cfg, ds)
    radii = StainRadii(cfg.radius_in, cfg.radius_out)
    if cfg.policy == "full":
        model = train_full(samples, input_specs, output_spec, radii)
    elif cfg.policy == "error-gated":
        model = train_error_gated(samples, input_specs, output_spec, radii, cfg.tolerance)
    else:
        model = train_merged(samples, input_specs, output_spec, radii)
    save_model(model, args.out)
    print(f"groups: {len(model.groups)} (from {len(samples)} samples, policy {cfg.policy})")
    print(f"stains: {len(model.stains()[1])} "
          f"({Path(args.out).stat().st_size} bytes on disk)")
    print(f"model written to {args.out}")
    return EXIT_OK


def cmd_infer(args) -> int:
    model = load_model(args.model)
    if args.trace:
        trace = infer_trace(model, args.inputs)
        Path(args.trace).write_text(json.dumps(trace, indent=2) + "\n")
        crisp = trace["crisp"]
    else:
        try:
            crisp = infer(model, args.inputs)
        except NoCoverageError:
            crisp = None
    if crisp is None:
        print("NO_COVERAGE")
        return EXIT_NO_COVERAGE
    print(f"{crisp:.4f}")
    return EXIT_OK


def _bench_table1(cfg: RunConfig, out_dir: Path, check: bool) -> int:
    status = EXIT_OK
    rows = []
    base = np.random.SeedSequence(cfg.seed)
    seeds = [int(s) for s in base.generate_state(cfg.repetitions)]
    for radius in (10.0, 20.0, 30.0):
        for func in ("f1", "f2"):
            for count in (250, 550, 1000):
                rep = average_regression_runs(func, count, radius, cfg.input_levels,
                                              seeds, cfg.test_count)
                value = "NAN" if rep.fvu is None else f"{rep.fvu:.4f}"
                print(f"table1 {func} R={radius:g} n={count}: FVU={value} "
                      f"(no-coverage runs: {sum(1 for r in rep.per_run if r['fvu'] is None)})")
                rows.append(rep)
                if check and count == 1000 and (func, radius) in TABLE1_BANDS:
                    lo, hi = TABLE1_BANDS[(func, radius)]
                    ok = rep.fvu is not None and rep.fvu <= hi and (lo is None or rep.fvu >= lo)
                    if not ok:
                        print(f"  BAND FAIL: expected within [{lo}, {hi}]")
                        status = EXIT_BAND
                if check and count == 250 and radius == 10.0:
                    if not any(r["fvu"] is None for r in rep.per_run):
                        print("  BAND FAIL: expected at least one no-coverage run")
                        status = EXIT_BAND
    for rep in rows:
        tag = f"table1_{rep.config['func']}_R{rep.config['radius']:g}_n{rep.config['train_count']}"
        write_report_json(rep, out_dir / f"{tag}.json")
        write_report_csv(rep, out_dir / f"{tag}.csv")
    return status


def cmd_bench(args) -> int:
    cfg = load_config(args.config, args.set, defaults=SUITE_DEFAULTS[args.suite])
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    radii = StainRadii(cfg.radius_in, cfg.radius_out)
    if args.suite == "table1":
        return _bench_table1(cfg, out_dir, args.check)
    if args.suite == "spiral":
        rep = run_spiral_experiment(cfg.points_per_class, radii,
                                    cfg.input_levels, cfg.output_levels, cfg.seed)
        print(f"spiral: dense accuracy {rep.accuracy:.2f}% "
              f"(weighted sum {rep.accuracy_wsf:.2f}%), "
              f"training accuracy {rep.config['train_accuracy']:.2f}% "
              f"(weighted sum {rep.config['train_accuracy_wsf']:.2f}%)")
        threshold, ok = SPIRAL_MIN, rep.accuracy >= SPIRAL_MIN and rep.config["train_accuracy"] >= SPIRAL_MIN
    elif args.suite == "circles":
        rep = run_classification_experiment(
            "circles", (cfg.train_count, cfg.test_count), radii,
            (cfg.input_levels, cfg.output_levels), cfg.repetitions, cfg.seed)
        print(f"circles: mean accuracy {rep.accuracy:.2f}% max membership, "
              f"{rep.accuracy_wsf:.2f}% weighted sum, over {cfg.repetitions} runs")
        threshold, ok = CIRCLES_MIN, rep.accuracy >= CIRCLES_MIN
    else:
        rep = run_iris_experiment(cfg.repetitions, cfg.seed, radii,
                                  cfg.input_levels, cfg.output_levels,
                                  path=cfg.dataset_path or None)
        print(f"iris: mean accuracy {rep.accuracy:.2f}% max membership, "
              f"{rep.accuracy_wsf:.2f}% weighted sum, over {cfg.repetitions} splits")
        threshold, ok = IRIS_MIN, rep.accuracy >= IRIS_MIN
    write_report_json(rep, out_dir / f"{args.suite}.json")
    write_report_csv(rep, out_dir / f"{args.suite}.csv")
    if args.check and not ok:
        print(f"BAND FAIL: max-membership accuracy below {threshold}%")
        return EXIT_BAND
    return EXIT_OK


def cmd_compare_hw(args) -> int:
    if args.queries < 0:
        raise ValueError(f"--queries must be >= 0, got {args.queries}")
    cfg = load_config(args.config, args.set)
    model = load_model(args.model)
    params = DeviceParams(cfg.hw_D, cfg.hw_R_on, cfg.hw_R_off, cfg.hw_mu_v, cfg.hw_V_th)
    prog = ProgrammingParams(cfg.hw_v_prog, cfg.hw_base_width, cfg.hw_substeps, cfg.hw_budget)
    epsilons = [float(e) for e in args.sweep.split(",")] if args.sweep else [cfg.hw_epsilon]
    rng = np.random.default_rng(cfg.seed)
    queries = np.column_stack([
        rng.uniform(spec.min, spec.max, size=args.queries) for spec in model.input_specs
    ])
    # the ideal answers do not depend on epsilon; NaN where uncovered
    ideals = np.empty(len(queries))
    for b, q in enumerate(queries):
        try:
            ideals[b] = infer(model, q)
        except NoCoverageError:
            ideals[b] = np.nan
    uncovered = int(np.isnan(ideals).sum())
    results = []
    for eps in epsilons:
        hw = program_from_model(model, eps, params, prog, cfg.hw_v_read, cfg.hw_diode_drop)
        # one batched read answers every query; NaN where the divider underflows
        analog = crossbar_infer(hw, queries)
        underflows = int(np.isnan(analog).sum())
        devs = np.abs(analog - ideals)
        devs = devs[~np.isnan(devs)]
        entry = {
            "epsilon": eps,
            "queries": int(args.queries),
            "compared": len(devs),
            "underflow_count": underflows,
            "no_coverage_count": uncovered,
            "max_abs_deviation": float(devs.max()) if len(devs) else None,
            "mean_abs_deviation": float(np.mean(devs)) if len(devs) else None,
        }
        results.append(entry)
        print(f"epsilon={eps:g}: compared {entry['compared']}, "
              f"max|hw-ideal|={entry['max_abs_deviation']}, "
              f"mean={entry['mean_abs_deviation']}, underflows={underflows}")
    out = {"model": str(args.model), "seed": cfg.seed, "results": results}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    return EXIT_OK


def cmd_dump_plane(args) -> int:
    model = load_model(args.model)
    if not 1 <= args.group <= len(model.groups):
        raise ValueError(f"group {args.group} outside 1..{len(model.groups)}")
    if not 1 <= args.plane <= model.n_inputs:
        raise ValueError(f"plane {args.plane} outside 1..{model.n_inputs}")
    plane_to_csv(model.plane(args.group - 1, args.plane - 1), args.out)
    print(f"plane {args.plane} of group {args.group} written to {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports an argument error as one stderr line, without the usage
    block, and exits 2; the subcommands' parsers are of this class too."""

    def error(self, message):
        # an unrecognized argument is echoed as typed, line breaks and all
        self.exit(EXIT_INPUT, f"{self.prog}: error: {' '.join(message.splitlines())}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="inkspread",
        description="Fuzzy modeling on ink-drop-spread planes, with an analog crossbar twin.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    p = sub.add_parser("train", help="train a model and serialize it")
    add_config_args(p)
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="crisp output for one query")
    p.add_argument("--model", required=True)
    p.add_argument("--trace", default=None, help="write full intermediate record as JSON")
    p.add_argument("inputs", nargs="+", type=float)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("bench", help="run a benchmark suite and write reports")
    p.add_argument("suite", choices=["table1", "spiral", "circles", "iris"])
    add_config_args(p)
    p.add_argument("--check", action="store_true", help="exit 4 if outside the reference bands")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("compare-hw", help="program the crossbar twin and compare to ideal inference")
    p.add_argument("--model", required=True)
    add_config_args(p)
    p.add_argument("--queries", type=int, default=200)
    p.add_argument("--sweep", default=None, help="comma-separated epsilon list")
    p.add_argument("--out", default=None, help="write the comparison report as JSON")
    p.set_defaults(func=cmd_compare_hw)

    p = sub.add_parser("dump-plane", help="export one plane as a heatmap CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--group", type=int, required=True, help="1-based group index")
    p.add_argument("--plane", type=int, required=True, help="1-based input-variable index")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump_plane)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
