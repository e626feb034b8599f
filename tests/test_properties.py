"""Property tests holding the stain representation to the brute-force oracle.

Random specs, radii and samples are trained under all three policies; every
inference path must equal ``tests/reference.py`` bitwise, coverage included,
at several chunk sizes, and a save/load round trip must be exact.  The
kernel reads few live (lo, hi) slots off their own tents and many through
windows; each way is held to the oracle by forcing the choice between them.
"""

import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from inkspread import inference
from inkspread.core import QuantizationSpec, StainRadii, quantize
from inkspread.errors import NoCoverageError
from inkspread.inference import infer, infer_fuzzy, infer_many, infer_many_fuzzy
from inkspread.model import Sample, train_error_gated, train_full, train_merged
from inkspread.modelio import load_model, save_model

from reference import crisp_reference, fuzzy_reference
from test_acceptance import _first_fit_partition

POLICIES = ("full", "error-gated", "merged")


@contextmanager
def kernel_path(windows):
    """Run the kernel through its window path when ``windows`` is true, and
    through its tent path otherwise."""
    saved = inference._TENT_SHARE
    inference._TENT_SHARE = -1.0 if windows else float("inf")
    try:
        yield
    finally:
        inference._TENT_SHARE = saved


@st.composite
def problems(draw):
    """Specs, radii, samples and queries of one small random model."""
    n_inputs = draw(st.integers(1, 3))

    def spec():
        lo = draw(st.floats(-5.0, 5.0))
        return QuantizationSpec(lo, lo + draw(st.floats(0.5, 10.0)), draw(st.integers(2, 12)))

    specs = [spec() for _ in range(n_inputs)]
    out = spec()
    radii = StainRadii(draw(st.floats(0.3, 6.0)), draw(st.floats(0.3, 6.0)))

    def point():
        # a little outside every range, so clamping is exercised too
        return [draw(st.floats(s.min - 0.2 * (s.max - s.min), s.max + 0.2 * (s.max - s.min)))
                for s in specs]

    def output():
        return draw(st.floats(out.min, out.max))

    samples = [Sample(point(), output()) for _ in range(draw(st.integers(1, 8)))]
    queries = np.array([point() for _ in range(draw(st.integers(1, 12)))])
    return specs, out, radii, samples, queries


def train(policy, specs, out, radii, samples, tolerance):
    """The policy's model and its partition of the samples into groups."""
    if policy == "full":
        return train_full(samples, specs, out, radii), [[s] for s in samples]
    if policy == "merged":
        return train_merged(samples, specs, out, radii), _first_fit_partition(samples, out)
    # replay the gate with the oracle: keep a sample unless the samples kept
    # so far predict it within the tolerance
    kept = []
    for s in samples:
        try:
            miss = abs(crisp_reference([[k] for k in kept], specs, out, radii, s.inputs)
                       - s.output) > tolerance
        except NoCoverageError:
            miss = True
        if not kept or miss:
            kept.append(s)
    return train_error_gated(samples, specs, out, radii, tolerance), [[k] for k in kept]


@settings(max_examples=150, deadline=None)
@given(problems(), st.sampled_from(POLICIES), st.floats(0.0, 0.5), st.booleans())
def test_every_path_equals_the_oracle_bitwise(problem, policy, tolerance, windows):
    specs, out, radii, samples, queries = problem
    model, grouped = train(policy, specs, out, radii, samples, tolerance)
    assert len(model.groups) == len(grouped)
    want = np.array([fuzzy_reference(grouped, specs, out, radii, q) for q in queries])
    with kernel_path(windows):
        check_every_path(model, grouped, specs, out, radii, queries, want)


def check_every_path(model, grouped, specs, out, radii, queries, want):
    for chunk in (1, 7, 64):
        assert np.array_equal(infer_many_fuzzy(model, queries, chunk), want)
    values, covered = infer_many(model, queries, 7)
    for q, row, value, cov in zip(queries, want, values, covered):
        assert np.array_equal(infer_fuzzy(model, q).confidences, row)
        try:
            crisp = crisp_reference(grouped, specs, out, radii, q)
        except NoCoverageError:
            crisp = None
        assert cov == (crisp is not None)
        if crisp is None:
            assert np.isnan(value)
            try:
                infer(model, q)
                raise AssertionError("infer answered an uncovered query")
            except NoCoverageError:
                pass
        else:
            assert value == crisp == infer(model, q)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.booleans())
def test_merged_groups_of_many_stains_over_three_inputs(data, windows):
    # few output levels and many samples, so first fit packs long groups
    # whose stains mix on every plane
    draw = data.draw
    specs = [QuantizationSpec(0.0, 1.0, draw(st.integers(2, 9))) for _ in range(3)]
    out = QuantizationSpec(0.0, 1.0, draw(st.integers(2, 7)))
    radii = StainRadii(draw(st.floats(0.3, 4.0)), draw(st.floats(0.3, 8.0)))
    unit = st.floats(0.0, 1.0)
    samples = [Sample([draw(unit) for _ in range(3)], draw(unit))
               for _ in range(draw(st.integers(8, 30)))]
    queries = np.array([[draw(unit) for _ in range(3)] for _ in range(draw(st.integers(1, 10)))])
    model = train_merged(samples, specs, out, radii)
    grouped = _first_fit_partition(samples, out)
    want = np.array([fuzzy_reference(grouped, specs, out, radii, q) for q in queries])
    with kernel_path(windows):
        check_every_path(model, grouped, specs, out, radii, queries, want)


@settings(max_examples=60, deadline=None)
@given(problems(), st.sampled_from(POLICIES))
def test_save_load_round_trip_is_exact(problem, policy):
    specs, out, radii, samples, queries = problem
    model, _ = train(policy, specs, out, radii, samples, 0.1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ids"
        save_model(model, path)
        back = load_model(path)
    assert back == model
    assert np.array_equal(infer_many_fuzzy(back, queries), infer_many_fuzzy(model, queries))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60), st.integers(2, 9))
def test_merged_groups_follow_first_fit(outputs, levels):
    specs = [QuantizationSpec(0.0, 1.0, 5)]
    out = QuantizationSpec(0.0, 1.0, levels)
    samples = [Sample((float(k % 5) / 4,), y) for k, y in enumerate(outputs)]
    model = train_merged(samples, specs, out, StainRadii(1.0, 1.0))
    parts = _first_fit_partition(samples, out)
    assert [g.stains for g in model.groups] == [
        [((quantize(specs[0], s.inputs[0]),), quantize(out, s.output)) for s in part] for part in parts]
