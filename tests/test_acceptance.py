"""Whole-package acceptance checks.

One test per shipped claim, each printing a single PASS/FAIL line with the
measured numbers straight to the terminal (bypassing capture) before
asserting.  The thresholds are fixed on purpose: a red line here means the
behavior drifted, not that a tolerance wants loosening.

The slow tests (surface-fit bands, circles, iris, hardware twin) run at
full protocol scale and together take a few minutes.
"""

import random

import numpy as np

from inkspread.benchmarks import (
    CIRCLES_MIN,
    IRIS_MIN,
    SPIRAL_MIN,
    TABLE1_BANDS,
    average_regression_runs,
    classify,
    run_classification_experiment,
    run_iris_experiment,
    run_spiral_experiment,
)
from inkspread.core import QuantizationSpec, StainRadii, quantize
from inkspread.crossbar import (
    DeviceParams,
    _memristance_of_w,
    _pulse_r_squared,
    _w_of_memristance,
    crossbar_infer,
    diode_max,
    diode_min,
    program_from_model,
    read_column_voltages,
)
from inkspread.datasets import gen_circles, gen_f2
from inkspread.errors import NoCoverageError
from inkspread.inference import FuzzyOutput, defuzzify_wsf, infer, infer_fuzzy
from inkspread.model import IdsGroup, Model, Sample, train_full, train_merged

from reference import class_reference, crisp_reference


def _verdict(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _worked_model():
    """Two samples on [1, 10]^2, 19 input levels, binary output."""
    specs = [QuantizationSpec(1.0, 10.0, 19), QuantizationSpec(1.0, 10.0, 19)]
    out_spec = QuantizationSpec(1.0, 2.0, 2)
    samples = [Sample((1.5, 4.0), 2.0), Sample((3.0, 4.0), 1.0)]
    return train_full(samples, specs, out_spec, StainRadii(3.0, 1.5))


def _f2_small_model():
    ds = gen_f2(50, 123)
    specs = [QuantizationSpec(lo, hi, 64) for lo, hi in ds.input_ranges]
    outs = [s.output for s in ds.samples]
    out_spec = QuantizationSpec(min(outs), max(outs), 64)
    return train_full(ds.samples, specs, out_spec, StainRadii(10.0, 10.0))


def test_worked_example(capsys):
    model = _worked_model()
    fz = infer_fuzzy(model, (2.5, 3.5))
    crisp = infer(model, (2.5, 3.5))
    ok = (
        abs(fz.confidences[0] - 0.67) <= 0.01
        and abs(fz.confidences[1] - 0.34) <= 0.01
        and abs(crisp - 1.3366) <= 0.02
    )
    _verdict(capsys, "worked-example", ok,
             f"fuzzy=({fz.confidences[0]:.4f}, {fz.confidences[1]:.4f}) "
             f"vs (0.67, 0.34) +-0.01; crisp={crisp:.4f} vs 1.3366 +-0.02")


def test_surface_fit_bands(capsys):
    seeds = [int(s) for s in np.random.SeedSequence(0).generate_state(10)]
    f2_r10 = average_regression_runs("f2", 1000, 10.0, 128, seeds, 1000)
    f1_r10 = average_regression_runs("f1", 1000, 10.0, 128, seeds, 1000)
    f2_r30 = average_regression_runs("f2", 1000, 30.0, 128, seeds, 1000)
    sparse = average_regression_runs("f2", 250, 10.0, 128, seeds, 1000)
    nan_runs = sum(1 for r in sparse.per_run if r["fvu"] is None)

    def fmt(rep):
        return "NAN" if rep.fvu is None else f"{rep.fvu:.4f}"

    def within(rep, band):
        lo, hi = band
        return rep.fvu is not None and rep.fvu <= hi and (lo is None or rep.fvu >= lo)

    def shown(band):
        lo, hi = band
        return f"<={hi:g}" if lo is None else f"in [{lo:g}, {hi:g}]"

    band_a, band_b, band_c = (TABLE1_BANDS[key] for key in (("f2", 10.0), ("f1", 10.0), ("f2", 30.0)))
    ok_a, ok_b, ok_c = within(f2_r10, band_a), within(f1_r10, band_b), within(f2_r30, band_c)
    ok_d = nan_runs >= 1
    _verdict(capsys, "surface-bands", ok_a and ok_b and ok_c and ok_d,
             f"f2@R10 FVU={fmt(f2_r10)} ({shown(band_a)} {'ok' if ok_a else 'FAIL'}); "
             f"f1@R10 {fmt(f1_r10)} ({shown(band_b)} {'ok' if ok_b else 'FAIL'}); "
             f"f2@R30 {fmt(f2_r30)} ({shown(band_c)} {'ok' if ok_c else 'FAIL'}); "
             f"sparse no-coverage runs {nan_runs}/10 (>=1 {'ok' if ok_d else 'FAIL'})")


def test_two_spiral(capsys):
    rep = run_spiral_experiment(200, StainRadii(8.0, 1.0), 128, 2, 0)
    train_acc = rep.config["train_accuracy"]
    ok = rep.accuracy >= SPIRAL_MIN and train_acc >= SPIRAL_MIN
    _verdict(capsys, "two-spiral", ok,
             f"dense accuracy {rep.accuracy:.2f}%, training accuracy "
             f"{train_acc:.2f}%, both must be >= {SPIRAL_MIN:g}% (weighted-sum rule "
             f"{rep.accuracy_wsf:.2f}% and {rep.config['train_accuracy_wsf']:.2f}%)")


def test_circles(capsys):
    radii = StainRadii(50.0, 16.0)
    rep = run_classification_experiment("circles", (300, 1000), radii, (256, 32), 20, 0)

    # Query-for-query check of the max-membership labels against the stain
    # geometry, on the first 150 queries of one fixed train/test draw.
    train = gen_circles(300, 0)
    queries = gen_circles(1000, 1).inputs_array()[:150]
    specs = [QuantizationSpec(lo, hi, 256) for lo, hi in train.input_ranges]
    out_spec = QuantizationSpec(1.0, 3.0, 32)
    model = train_full(train.samples, specs, out_spec, radii)
    labels, _, _ = classify(model, queries, 3)
    grouped = [[s] for s in train.samples]
    want = [class_reference(grouped, specs, out_spec, radii, q, 3) for q in queries]
    agree = int(np.sum(labels == np.array(want)))

    ok = agree == len(queries) and rep.accuracy >= CIRCLES_MIN
    _verdict(capsys, "circles", ok,
             f"max-membership labels match the stain-geometry reference on "
             f"{agree}/{len(queries)} queries; mean accuracy {rep.accuracy:.2f}% "
             f"over 20 runs, must be >= {CIRCLES_MIN:g}% "
             f"(weighted-sum rule {rep.accuracy_wsf:.2f}%)")


def test_iris(capsys):
    rep = run_iris_experiment(100, 0, StainRadii(12.0, 1.0), 64, 3)
    ok = rep.accuracy >= IRIS_MIN
    _verdict(capsys, "iris", ok,
             f"mean accuracy {rep.accuracy:.2f}% over 100 splits, must be >= {IRIS_MIN:g}% "
             f"(weighted-sum rule {rep.accuracy_wsf:.2f}%)")


def _first_fit_partition(samples, out_spec):
    """The documented group-packing rule, replayed on raw samples."""
    parts, stored = [], []
    for s in samples:
        level = quantize(out_spec, s.output)
        for part, levels in zip(parts, stored):
            if level not in levels:
                part.append(s)
                levels.add(level)
                break
        else:
            parts.append([s])
            stored.append({level})
    return parts


def test_oracle_equivalence(capsys):
    rng = np.random.default_rng(20260823)
    total = 0
    matches = 0
    for i in range(1000):
        n_inputs = int(rng.integers(1, 4))
        specs = [
            QuantizationSpec(float(rng.uniform(-5.0, 0.0)),
                             float(rng.uniform(1.0, 6.0)),
                             int(rng.integers(2, 17)))
            for _ in range(n_inputs)
        ]
        out_spec = QuantizationSpec(float(rng.uniform(-3.0, 0.0)),
                                    float(rng.uniform(1.0, 4.0)),
                                    int(rng.integers(2, 17)))
        radii = StainRadii(float(rng.uniform(0.5, 6.0)), float(rng.uniform(0.5, 6.0)))
        samples = [
            Sample(tuple(float(rng.uniform(s.min, s.max)) for s in specs),
                   float(rng.uniform(out_spec.min, out_spec.max)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        if i % 10 < 7:
            model = train_full(samples, specs, out_spec, radii)
            grouped = [[s] for s in samples]
        else:
            model = train_merged(samples, specs, out_spec, radii)
            grouped = _first_fit_partition(samples, out_spec)
        for _ in range(5):
            q = [float(rng.uniform(s.min, s.max)) for s in specs]
            try:
                got = infer(model, q)
            except NoCoverageError:
                got = None
            try:
                want = crisp_reference(grouped, specs, out_spec, radii, q)
            except NoCoverageError:
                want = None
            total += 1
            matches += int(got == want or (got is None and want is None))
    ok = matches == total
    _verdict(capsys, "oracle-equivalence", ok,
             f"{matches}/{total} query outcomes bitwise-equal over 1000 random models")


def _covered_queries(model, rng, count):
    queries = []
    while len(queries) < count:
        q = [float(rng.uniform(s.min, s.max)) for s in model.input_specs]
        try:
            infer(model, q)
        except NoCoverageError:
            continue
        queries.append(q)
    return queries


def test_hardware_twin(capsys):
    details = []
    all_ok = True
    for label, model, seed in (("two-sample", _worked_model(), 77),
                               ("f2-50", _f2_small_model(), 2024)):
        out_spec = model.output_spec
        band = 0.02 * (out_spec.max - out_spec.min)
        queries = _covered_queries(model, np.random.default_rng(seed), 500)
        ideal = [infer(model, q) for q in queries]
        devs = []
        for eps in (0.01, 0.005, 0.002):
            hw = program_from_model(model, eps)
            devs.append(max(abs(crossbar_infer(hw, q) - y)
                            for q, y in zip(queries, ideal)))
        within = devs[0] <= band
        monotone = all(b <= a for a, b in zip(devs, devs[1:]))
        all_ok = all_ok and within and monotone
        details.append(
            f"{label}: max dev at eps (0.01, 0.005, 0.002) = "
            f"({devs[0]:.6f}, {devs[1]:.6f}, {devs[2]:.6f}), band {band:.5f}, "
            f"{'within' if within else 'OUTSIDE'} band, "
            f"{'non-increasing' if monotone else 'NOT monotone'}")
    _verdict(capsys, "hardware-twin", all_ok, "; ".join(details))


def test_device_model(capsys):
    p = DeviceParams()
    checks = []

    def pulse(w, v, dt, substeps=10):
        # the drift law as the write controller applies it
        r2 = _pulse_r_squared(_memristance_of_w(np.asarray(w), p) ** 2, v, dt, substeps, p)
        return np.clip(_w_of_memristance(np.sqrt(r2), p), 0.0, p.D)

    model = _worked_model()
    hw = program_from_model(model, epsilon=0.01)
    before = [codes.copy() for codes in hw.codes] + [hw.palette.copy()]
    crossbar_infer(hw, np.random.default_rng(3).uniform(1.0, 10.0, size=(200, 2)))
    after = hw.codes + [hw.palette]
    checks.append(("sub-threshold reads leave state", all(
        a.tobytes() == b.tobytes() for a, b in zip(after, before))))

    hi = lo = np.array(0.5 * p.D)
    for _ in range(80):
        hi, lo = pulse(hi, 1.5, 5e-3), pulse(lo, -1.5, 5e-3)
    checks.append(("rail clamping", hi == p.D and lo == 0.0))

    w0 = np.array(0.4 * p.D)
    w = pulse(w0, 1.5, 2e-4, substeps=100)
    moved = w != w0
    w = pulse(w, -1.5, 2e-4, substeps=100)
    checks.append(("pulse reversibility", moved and abs(w - w0) <= 1e-9 * p.D))

    # a fresh array, at R_on: the twin of a model whose one group is empty
    unit = QuantizationSpec(0.0, 1.0, 2)
    fresh = program_from_model(Model([IdsGroup()], [unit], unit, StainRadii(1.0, 1.0)), params=p)
    checks.append(("zero read at R_on", (read_column_voltages(fresh, 0, 0, 1) == 0.0).all()))

    ok = all(flag for _, flag in checks)
    _verdict(capsys, "device-model", ok,
             "; ".join(f"{name} {'ok' if flag else 'FAIL'}" for name, flag in checks))


def test_defuzzifier_properties(capsys):
    rng = np.random.default_rng(9)
    levels = np.linspace(-2.0, 3.0, 11)

    def wsf(mu):
        return defuzzify_wsf(FuzzyOutput(levels, mu))

    scale_ok = True
    bound_ok = True
    for _ in range(200):
        mu = rng.uniform(0.0, 1.0, size=11)
        mu[rng.integers(0, 11)] = 0.0
        base = wsf(mu)
        for f in (0.5, 2.0, 8.0, 2.0 ** -20):
            scale_ok = scale_ok and wsf(f * mu) == base
        bound_ok = bound_ok and levels[0] - 1e-12 <= base <= levels[-1] + 1e-12

    try:
        wsf(np.zeros(11))
        zero_ok = False
    except NoCoverageError:
        zero_ok = True

    # voltages on a 2^-20 grid with a drop of 0.75 keep every sum exactly
    # representable, so the bias shift must cancel without rounding
    grid = 2.0 ** -20
    drop = 0.75
    diode_ok = True
    for _ in range(10_000):
        segments = [
            np.round(rng.uniform(0.0, 1.0, size=int(rng.integers(1, 7))) / grid) * grid
            for _ in range(int(rng.integers(1, 5)))
        ]
        lifted = [diode_min(seg, drop, axis=0) for seg in segments]
        got = diode_max(lifted, drop, axis=0)
        want = max(float(np.min(seg)) for seg in segments)
        diode_ok = diode_ok and got == want

    ok = scale_ok and bound_ok and zero_ok and diode_ok
    _verdict(capsys, "defuzzifier", ok,
             f"scale invariance {'ok' if scale_ok else 'FAIL'}; "
             f"range bound {'ok' if bound_ok else 'FAIL'}; "
             f"all-zero raises {'ok' if zero_ok else 'FAIL'}; "
             f"diode bias cancellation on 10000 vectors {'ok' if diode_ok else 'FAIL'}")


def test_order_invariance(capsys):
    ds = gen_f2(40, 5)
    specs = [QuantizationSpec(lo, hi, 32) for lo, hi in ds.input_ranges]
    outs = [s.output for s in ds.samples]
    out_spec = QuantizationSpec(min(outs), max(outs), 32)
    radii = StainRadii(6.0, 6.0)

    forward = train_full(ds.samples, specs, out_spec, radii)
    shuffled = list(ds.samples)
    random.Random(11).shuffle(shuffled)
    assert shuffled != list(ds.samples)
    permuted = train_full(shuffled, specs, out_spec, radii)

    rng = np.random.default_rng(12)
    equal = 0
    for _ in range(100):
        q = [float(rng.uniform(s.min, s.max)) for s in specs]
        try:
            a = infer(forward, q)
        except NoCoverageError:
            a = None
        try:
            b = infer(permuted, q)
        except NoCoverageError:
            b = None
        equal += int(a == b or (a is None and b is None))
    ok = equal == 100
    _verdict(capsys, "order-invariance", ok,
             f"{equal}/100 queries identical after permuting the training order")
