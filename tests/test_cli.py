"""End-to-end exercises of the command-line interface.

Each test drives cli.main() with an argv list and inspects the returned
exit code plus captured output; spawning subprocesses would only slow
things down without testing anything extra.
"""

import json
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from inkspread import cli
from inkspread.cli import EXIT_BAND, EXIT_INPUT, EXIT_NO_COVERAGE, EXIT_OK
from inkspread.config import RunConfig
from inkspread.core import QuantizationSpec, StainRadii
from inkspread.crossbar import MAX_SUBSTEPS
from inkspread.datasets import gen_f2
from inkspread.errors import DividerUnderflowError
from inkspread.model import train_full
from inkspread.modelio import save_model

from reference import crossbar_infer_reference, program_from_model_reference

# Two samples on [1, 10]^2 whose crisp answer at (2.5, 3.5) is 4/3.
CSV_ROWS = "1.5,4,2\n3,4,1\n"

CONF_TEMPLATE = """\
# two-sample fixture, 19 input levels, binary output
dataset = csv
dataset_path = {csv}
input_min = 1
input_max = 10
output_min = 1
output_max = 2
input_levels = 19
output_levels = 2
radius_in = 3
radius_out = 1.5
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    csv = base / "fixture.csv"
    csv.write_text(CSV_ROWS)
    (base / "run.conf").write_text(CONF_TEMPLATE.format(csv=csv))
    return base


@pytest.fixture(scope="module")
def twin_model_path(workdir):
    """The twin model of the benchmark's crossbar-twin workload: the
    50-sample f2 model at 64 levels and radii of 10."""
    ds = gen_f2(50, 123)
    specs = [QuantizationSpec(lo, hi, 64) for lo, hi in ds.input_ranges]
    outs = [s.output for s in ds.samples]
    model = train_full(ds.samples, specs, QuantizationSpec(min(outs), max(outs), 64), StainRadii(10.0, 10.0))
    save_model(model, workdir / "twin.ids")
    return workdir / "twin.ids"


@pytest.fixture(scope="module")
def model_path(workdir):
    out = workdir / "fixture.ids"
    rc = cli.main(["train", "--config", str(workdir / "run.conf"), "--out", str(out)])
    assert rc == EXIT_OK
    return out


class TestTrain:
    def test_reports_groups_and_footprint(self, workdir, tmp_path, capsys):
        out = tmp_path / "m.ids"
        rc = cli.main(["train", "--config", str(workdir / "run.conf"),
                       "--out", str(out)])
        captured = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "groups: 2 (from 2 samples, policy full)" in captured
        assert out.exists() and out.stat().st_size > 0
        assert f"stains: 2 ({out.stat().st_size} bytes on disk)" in captured

    def test_set_overrides_config_file(self, workdir, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(workdir / "run.conf"),
                       "--set", "policy=merged", "--out", str(tmp_path / "m.ids")])
        captured = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "policy merged" in captured

    def test_error_gated_policy(self, workdir, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(workdir / "run.conf"),
                       "--set", "policy=error-gated", "--set", "tolerance=0.05",
                       "--out", str(tmp_path / "m.ids")])
        assert rc == EXIT_OK
        assert "policy error-gated" in capsys.readouterr().out

    def test_nan_tolerance_exits_2(self, workdir, tmp_path, capsys):
        out = tmp_path / "m.ids"
        rc = cli.main(["train", "--config", str(workdir / "run.conf"),
                       "--set", "policy=error-gated", "--set", "tolerance=nan", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "NaN" in captured.err and captured.out == ""
        assert not out.exists()

    def test_too_many_output_levels_exit_2(self, workdir, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(workdir / "run.conf"),
                       "--set", "output_levels=5000", "--out", str(tmp_path / "m.ids")])
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert "exceeds" in captured.err and captured.err.count("\n") == 1

    def test_csv_without_path_rejected(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("dataset = csv\n")
        rc = cli.main(["train", "--config", str(conf), "--out", str(tmp_path / "m.ids")])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_csv_rejected(self, tmp_path, capsys):
        csv = tmp_path / "junk.csv"
        csv.write_text("1,2,3\n1,2,x\n")
        conf = tmp_path / "bad.conf"
        conf.write_text(f"dataset = csv\ndataset_path = {csv}\n")
        rc = cli.main(["train", "--config", str(conf), "--out", str(tmp_path / "m.ids")])
        assert rc == EXIT_INPUT
        assert "not numeric" in capsys.readouterr().err

    def test_a_bad_override_value_names_its_key(self, workdir, tmp_path, capsys):
        out = tmp_path / "m.ids"
        rc = cli.main(["train", "--config", str(workdir / "run.conf"), "--set", "seed=abc", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert err.startswith("error:") and err.count("\n") == 1
        assert "seed" in err and "'abc'" in err
        assert not out.exists()

    def test_unknown_override_key_rejected(self, workdir, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(workdir / "run.conf"),
                       "--set", "nonsense=1", "--out", str(tmp_path / "m.ids")])
        assert rc == EXIT_INPUT
        assert "nonsense" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(tmp_path / "absent.conf"),
                       "--out", str(tmp_path / "m.ids")])
        assert rc == EXIT_INPUT


class TestInfer:
    def test_prints_four_decimals(self, model_path, capsys):
        rc = cli.main(["infer", "--model", str(model_path), "2.5", "3.5"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == "1.3333"

    def test_no_coverage_exit_code(self, model_path, capsys):
        rc = cli.main(["infer", "--model", str(model_path), "9.0", "9.0"])
        assert rc == EXIT_NO_COVERAGE
        assert capsys.readouterr().out.strip() == "NO_COVERAGE"

    def test_trace_file_contents(self, model_path, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        rc = cli.main(["infer", "--model", str(model_path),
                       "--trace", str(trace_path), "2.5", "3.5"])
        capsys.readouterr()
        assert rc == EXIT_OK
        trace = json.loads(trace_path.read_text())
        assert trace["input_levels"] == [4, 6]
        assert trace["no_coverage"] is False
        assert trace["crisp"] == pytest.approx(4 / 3, abs=1e-12)
        assert len(trace["group_confidences"]) == 2
        assert len(trace["confidences"]) == 2

    def test_trace_written_for_uncovered_query(self, model_path, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        rc = cli.main(["infer", "--model", str(model_path),
                       "--trace", str(trace_path), "9.0", "9.0"])
        capsys.readouterr()
        assert rc == EXIT_NO_COVERAGE
        assert json.loads(trace_path.read_text())["no_coverage"] is True

    @pytest.mark.parametrize("query, inputs, levels", [(["-inf", "5"], ["-inf", 5.0], [1, 9]),
                                                       (["inf", "1e400"], ["inf", "inf"], [19, 19])])
    def test_trace_of_an_infinite_input_is_strict_json(self, model_path, tmp_path, capsys,
                                                       query, inputs, levels):
        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        trace_path = tmp_path / "trace.json"
        cli.main(["infer", "--model", str(model_path), "--trace", str(trace_path), "--", *query])
        capsys.readouterr()
        trace = json.loads(trace_path.read_text(), parse_constant=refuse)
        assert (trace["inputs"], trace["input_levels"]) == (inputs, levels)

    def test_missing_model_file(self, tmp_path, capsys):
        rc = cli.main(["infer", "--model", str(tmp_path / "absent.ids"), "1", "1"])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")

    def test_trace_does_not_change_stdout_or_exit_code(self, model_path, tmp_path, capsys):
        for query in (["2.5", "3.5"], ["9.0", "9.0"], ["1.0", "10.0"]):
            plain = cli.main(["infer", "--model", str(model_path)] + query)
            plain_out = capsys.readouterr().out
            traced = cli.main(["infer", "--model", str(model_path),
                               "--trace", str(tmp_path / "t.json")] + query)
            assert (traced, capsys.readouterr().out) == (plain, plain_out)

    def test_nan_query_exits_2(self, model_path, capsys):
        rc = cli.main(["infer", "--model", str(model_path), "2.5", "nan"])
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert captured.err == "error: query input 2 is NaN\n"
        assert captured.out == ""

    def test_truncated_model_exits_2_at_every_offset(self, model_path, tmp_path, capsys):
        raw = model_path.read_bytes()
        cut_path = tmp_path / "cut.ids"
        for cut in range(len(raw)):
            cut_path.write_bytes(raw[:cut])
            rc = cli.main(["infer", "--model", str(cut_path), "2.5", "3.5"])
            captured = capsys.readouterr()
            assert rc == EXIT_INPUT, cut
            assert captured.err.startswith("error:") and captured.err.count("\n") == 1, cut
            assert "Traceback" not in captured.err
        # and as a process: one line on stderr, no traceback
        cut_path.write_bytes(raw[:30])
        src = Path(cli.__file__).resolve().parent.parent
        done = subprocess.run([sys.executable, "-m", "inkspread.cli", "infer", "--model",
                               str(cut_path), "2.5", "3.5"], capture_output=True, text=True,
                              env={"PYTHONPATH": str(src)}, timeout=60)
        assert done.returncode == EXIT_INPUT
        assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


    def test_corrupt_level_count_exits_2(self, model_path, tmp_path, capsys):
        raw = bytearray(model_path.read_bytes())
        struct.pack_into("<I", raw, 20 + 16, 2 ** 32 - 1)  # the output spec's levels
        bad_path = tmp_path / "bad.ids"
        bad_path.write_bytes(bytes(raw))
        for argv in (["infer", "--model", str(bad_path), "2.5", "3.5"],
                     ["dump-plane", "--model", str(bad_path), "--group", "1", "--plane", "1",
                      "--out", str(tmp_path / "p.csv")]):
            rc = cli.main(argv)
            captured = capsys.readouterr()
            assert rc == EXIT_INPUT
            assert captured.err.startswith("error:") and captured.err.count("\n") == 1
            assert "exceeds" in captured.err


class TestDumpPlane:
    def test_writes_heatmap_csv(self, model_path, tmp_path, capsys):
        out = tmp_path / "plane.csv"
        rc = cli.main(["dump-plane", "--model", str(model_path),
                       "--group", "1", "--plane", "1", "--out", str(out)])
        capsys.readouterr()
        assert rc == EXIT_OK
        grid = np.loadtxt(out, delimiter=",")
        assert grid.shape == (2, 19)  # one row per output level
        assert grid.max() == 1.0

    def test_out_of_range_indices(self, model_path, capsys):
        rc = cli.main(["dump-plane", "--model", str(model_path),
                       "--group", "7", "--plane", "1", "--out", "x.csv"])
        assert rc == EXIT_INPUT
        assert "outside" in capsys.readouterr().err
        rc = cli.main(["dump-plane", "--model", str(model_path),
                       "--group", "1", "--plane", "9", "--out", "x.csv"])
        assert rc == EXIT_INPUT


    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(*[st.one_of(st.integers(-2, 4).map(str), st.text(st.characters(exclude_categories=("Cs",)), max_size=8))
             for _ in range(2)])
    def test_index_arguments_end_cleanly(self, model_path, workdir, capsys, group, plane):
        rc = exit_code(["dump-plane", "--model", str(model_path), "--group", group,
                        "--plane", plane, "--out", str(workdir / "fuzz-plane.csv")])
        ends_cleanly(rc, capsys)


class TestBench:
    def test_spiral_suite_writes_reports(self, tmp_path, capsys):
        rc = cli.main(["bench", "spiral", "--set", "points_per_class=25",
                       "--set", f"out_dir={tmp_path}"])
        captured = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "spiral: dense accuracy" in captured
        report = json.loads((tmp_path / "spiral.json").read_text())
        assert 0.0 <= report["accuracy"] <= 100.0
        assert "train_accuracy" in report["config"]
        assert (tmp_path / "spiral.csv").exists()

    def test_circles_check_flags_band_failure(self, tmp_path, capsys):
        rc = cli.main(["bench", "circles", "--check",
                       "--set", "train_count=60", "--set", "test_count=100",
                       "--set", "repetitions=2", "--set", f"out_dir={tmp_path}"])
        captured = capsys.readouterr().out
        assert rc == EXIT_BAND
        assert "BAND FAIL" in captured
        assert (tmp_path / "circles.json").exists()

    def test_table1_grid_names_all_cells(self, tmp_path, capsys):
        rc = cli.main(["bench", "table1", "--set", "repetitions=1",
                       "--set", "test_count=20", "--set", f"out_dir={tmp_path}"])
        captured = capsys.readouterr().out
        assert rc == EXIT_OK
        lines = [l for l in captured.splitlines() if l.startswith("table1 ")]
        assert len(lines) == 18
        assert len(list(tmp_path.glob("table1_*.json"))) == 18
        assert len(list(tmp_path.glob("table1_*.csv"))) == 18
        assert (tmp_path / "table1_f2_R10_n1000.json").exists()


class TestCompareHw:
    def test_sweep_report(self, model_path, workdir, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        rc = cli.main(["compare-hw", "--model", str(model_path),
                       "--config", str(workdir / "run.conf"),
                       "--queries", "60", "--sweep", "0.01,0.002",
                       "--out", str(out)])
        capsys.readouterr()
        assert rc == EXIT_OK
        data = json.loads(out.read_text())
        assert [r["epsilon"] for r in data["results"]] == [0.01, 0.002]
        for entry in data["results"]:
            assert entry["queries"] == 60
            # with this fixture every underflow is a genuinely uncovered query
            assert entry["underflow_count"] == entry["no_coverage_count"]
            assert entry["compared"] == 60 - entry["underflow_count"]
            assert entry["compared"] >= 1
            assert entry["max_abs_deviation"] < 0.05

    @pytest.mark.parametrize("setting", [
        ["--sweep", "nan"], ["--sweep", "0.01,inf"], ["--set", "hw_epsilon=nan"],
        ["--set", "hw_base_width=inf"], ["--set", "hw_base_width=nan"],
        ["--set", "hw_v_prog=nan"], ["--set", "hw_D=nan"], ["--set", "hw_mu_v=nan"],
        ["--set", "hw_V_th=nan"], ["--set", "hw_R_off=inf"], ["--set", "hw_D=1e-200"],
    ])
    def test_non_finite_hardware_setting_exits_2(self, model_path, setting, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        rc = cli.main(["compare-hw", "--model", str(model_path), "--queries", "5",
                       "--out", str(out), *setting])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("v_read", ["-0.5", "-0.0", "0", "1.0"])
    def test_read_voltage_outside_zero_to_threshold_exits_2(self, model_path, v_read, tmp_path, capsys):
        # a negative read would leave every query underflowing, not only the uncovered ones
        out = tmp_path / "cmp.json"
        rc = cli.main(["compare-hw", "--model", str(model_path), "--queries", "5",
                       "--out", str(out), "--set", f"hw_v_read={v_read}"])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert err.startswith("error: v_read = ") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("drop", ["-0.1", "1.5", "1e16"])
    def test_diode_drop_outside_zero_to_threshold_exits_2(self, model_path, drop, tmp_path, capsys):
        # a huge drop would round every read away, leaving every query underflowing
        out = tmp_path / "cmp.json"
        rc = cli.main(["compare-hw", "--model", str(model_path), "--queries", "5",
                       "--out", str(out), "--set", f"hw_diode_drop={drop}"])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert err.startswith("error: diode_drop = ") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("train", [[], ["--set", "dataset=f2", "--set", "train_count=30",
                                            "--set", "input_levels=24", "--set", "output_levels=24",
                                            "--set", "input_min=", "--set", "input_max=",
                                            "--set", "output_min=", "--set", "output_max="]])
    def test_report_equals_the_per_array_reference(self, workdir, train, tmp_path, monkeypatch, capsys):
        model = tmp_path / "m.ids"
        assert cli.main(["train", "--config", str(workdir / "run.conf"), "--out", str(model),
                         *train]) == EXIT_OK

        def report(name):
            out = tmp_path / name
            rc = cli.main(["compare-hw", "--model", str(model), "--queries", "60",
                           "--sweep", "0.01,0.002", "--out", str(out)])
            assert rc == EXIT_OK
            return out.read_text()

        def crossbar_infer_per_query(hw, X):
            """The per-array reference, one query at a time, NaN on underflow."""
            values = []
            for q in X:
                try:
                    values.append(crossbar_infer_reference(hw, q))
                except DividerUnderflowError:
                    values.append(np.nan)
            return np.array(values)

        batched = report("batched.json")
        monkeypatch.setattr(cli, "program_from_model", program_from_model_reference)
        monkeypatch.setattr(cli, "crossbar_infer", crossbar_infer_per_query)
        assert report("reference.json") == batched
        capsys.readouterr()

    def test_one_batched_read_per_epsilon(self, model_path, monkeypatch, capsys):
        calls = {"crossbar_infer": 0, "infer": 0}

        def counted(name):
            real = getattr(cli, name)

            def call(*args):
                calls[name] += 1
                return real(*args)
            return call

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        rc = cli.main(["compare-hw", "--model", str(model_path), "--queries", "60",
                       "--sweep", "0.01,0.002"])
        capsys.readouterr()
        assert rc == EXIT_OK
        assert calls == {"crossbar_infer": 2, "infer": 60}

    def test_negative_query_count_exits_2(self, model_path, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        rc = cli.main(["compare-hw", "--model", str(model_path), "--queries", "-1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert err.startswith("error: --queries must be >= 0") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_substeps_above_the_cap_exit_2(self, model_path, workdir, tmp_path, capsys):
        # every substep is a pass over the pulsed cells, so the count is bounded
        out = tmp_path / "cmp.json"
        for argv in (["compare-hw", "--model", str(model_path), "--queries", "3", "--out", str(out)],
                     ["train", "--config", str(workdir / "run.conf"), "--out", str(tmp_path / "m.ids")]):
            rc = cli.main([*argv, "--set", f"hw_substeps={MAX_SUBSTEPS + 1}"])
            err = capsys.readouterr().err
            assert rc == EXIT_INPUT
            assert err == f"error: hw_substeps must be <= {MAX_SUBSTEPS}, got {MAX_SUBSTEPS + 1}\n"
        assert not out.exists()
        rc = cli.main(["compare-hw", "--model", str(model_path), "--queries", "3",
                       "--set", f"hw_substeps={MAX_SUBSTEPS}"])
        assert rc == EXIT_OK and capsys.readouterr().err == ""

    @pytest.mark.parametrize("setting", ["hw_substeps=2.5", "hw_budget=2.5", "hw_budget=true"])
    def test_counts_that_are_not_integers_exit_2(self, model_path, tmp_path, capsys, setting):
        out = tmp_path / "cmp.json"
        rc = cli.main(["compare-hw", "--model", str(model_path), "--queries", "3", "--out", str(out),
                       "--set", setting])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT and err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_wide_pulses_leave_stderr_empty(self, model_path):
        # the drift of a pulse this wide overflows to inf; the clip to the
        # rails defines the result, and numpy must not warn about it
        src = Path(cli.__file__).resolve().parent.parent
        done = subprocess.run([sys.executable, "-m", "inkspread.cli", "compare-hw", "--model",
                               str(model_path), "--queries", "3", "--set", "hw_base_width=1e308"],
                              capture_output=True, text=True, env={"PYTHONPATH": str(src)}, timeout=60)
        assert done.returncode == EXIT_OK
        assert done.stderr == ""

    def test_pulse_count_of_the_twin_model(self, twin_model_path, monkeypatch, capsys):
        # every programmed cell's pulses over the sweep, at the default settings
        programmed = []
        program = cli.program_from_model

        def capture(*args):
            programmed.append(program(*args))
            return programmed[-1]

        monkeypatch.setattr(cli, "program_from_model", capture)
        rc = cli.main(["compare-hw", "--model", str(twin_model_path), "--queries", "3",
                       "--sweep", "0.01,0.002"])
        assert rc == EXIT_OK and capsys.readouterr().err == ""
        assert sum(rep.total_pulses for hw in programmed for row in hw.reports for rep in row) == 677_909

    def test_the_twin_model_report_is_pinned(self, twin_model_path, tmp_path, capsys):
        """Every figure of each epsilon's entry, to the bit."""
        out = tmp_path / "cmp.json"
        rc = cli.main(["compare-hw", "--model", str(twin_model_path), "--queries", "200",
                       "--sweep", "0.01,0.002", "--set", "seed=3", "--out", str(out)])
        capsys.readouterr()
        assert rc == EXIT_OK
        got = [(r["epsilon"], r["compared"], r["underflow_count"], r["no_coverage_count"],
                repr(r["max_abs_deviation"]), repr(r["mean_abs_deviation"]))
               for r in json.loads(out.read_text())["results"]]
        assert got == [(0.01, 196, 4, 4, "0.014943531079974592", "0.0010707122888105026"),
                       (0.002, 196, 4, 4, "0.0020831597249810763", "0.0001867047423267151")]

    def test_zero_queries_compare_nothing(self, model_path, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        rc = cli.main(["compare-hw", "--model", str(model_path), "--queries", "0", "--out", str(out)])
        capsys.readouterr()
        assert rc == EXIT_OK
        [entry] = json.loads(out.read_text())["results"]
        assert entry["compared"] == entry["underflow_count"] == entry["no_coverage_count"] == 0
        assert entry["max_abs_deviation"] is None and entry["mean_abs_deviation"] is None


HW_KEYS = [name for name in RunConfig.__dataclass_fields__ if name.startswith("hw_")]
# free text without decimal digits (int() and float() read every script's
# digits), plus numbers small enough that a valid setting runs quickly
SETTING_VALUES = st.one_of(
    st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=12),
    st.integers(-3, 40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "1e-300", "1e300", "-0.0", "", " 2 ", "0x10", "1_0"]),
)


def exit_code(argv):
    """``cli.main``'s exit code, also when the parser exits on an argument error."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def ends_cleanly(rc, capsys, codes=(EXIT_OK, EXIT_INPUT)):
    """An exit code among ``codes``, with one "error:" line on stderr on
    exit 2 and an empty stderr otherwise.  The parser's errors name the
    command before "error:"."""
    err = capsys.readouterr().err
    assert rc in codes
    if rc == EXIT_INPUT:
        assert re.match(r"(inkspread( [\w-]+)?: )?error: ", err) and len(err.splitlines()) == 1
    else:
        assert err == ""


class TestCompareHwSettingsFuzz:
    """Every --set or config-file line for compare-hw ends in exit 0 or 2,
    with one line on stderr on exit 2 and nothing on exit 0."""

    @staticmethod
    def run(model_path, argv, capsys):
        # a budget of 30 pulses a cell keeps non-converging settings quick
        rc = cli.main(["compare-hw", "--model", str(model_path), "--queries", "3",
                       "--set", "hw_budget=30", *argv])
        ends_cleanly(rc, capsys)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(HW_KEYS), SETTING_VALUES)
    def test_set_override(self, model_path, capsys, key, value):
        self.run(model_path, ["--set", f"{key}={value}"], capsys)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(st.tuples(st.sampled_from(HW_KEYS + ["seed"]), SETTING_VALUES)
                     .map(lambda kv: f"{kv[0]} = {kv[1]}"),
                     st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=30)))
    def test_one_line_config_file(self, model_path, workdir, capsys, line):
        conf = workdir / "fuzz.conf"
        conf.write_text(line + "\n")
        self.run(model_path, ["--config", str(conf)], capsys)


ALL_KEYS = sorted(RunConfig.__dataclass_fields__)
# the values above, the names a choice key takes, and text that reads as
# a number only on some keys
ANY_VALUE = st.one_of(SETTING_VALUES, st.sampled_from(
    ["f1", "f2", "circles", "spiral", "iris", "csv", "full", "error-gated", "merged", "1.5", "-1"]))
CONFIG_LINES = st.one_of(st.tuples(st.sampled_from(ALL_KEYS), ANY_VALUE).map(lambda kv: f"{kv[0]} = {kv[1]}"),
                         st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=30))


class TestSettingsFuzz:
    """Every --set or config-file line for train and bench, and every query
    for infer, ends in exit 0, 2 or 3, with one stderr line on exit 2 and
    none otherwise.  The settings ride on tiny pinned protocols, so a valid
    one runs in milliseconds."""

    @pytest.fixture
    def in_workdir(self, workdir, monkeypatch):
        # a fuzzed out_dir or dataset_path is a path relative to here
        monkeypatch.chdir(workdir)
        return workdir

    # every suite but table1, whose grid of 18 fits is fixed; the pins keep
    # each suite to a few milliseconds, and a fuzzed key may replace one
    BENCH_PINS = ["repetitions=1", "points_per_class=8", "train_count=20", "test_count=20",
                  "input_levels=16", "out_dir=bench-out"]

    @classmethod
    def bench(cls, suite, capsys, argv):
        pins = [arg for pin in cls.BENCH_PINS for arg in ("--set", pin)]
        ends_cleanly(cli.main(["bench", suite, *pins, *argv]), capsys)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.sampled_from(ALL_KEYS), ANY_VALUE), min_size=1, max_size=3))
    def test_train_set_overrides(self, in_workdir, capsys, pairs):
        out = in_workdir / "fuzz.ids"
        out.unlink(missing_ok=True)
        rc = cli.main(["train", "--config", "run.conf", "--out", str(out),
                       *[arg for key, value in pairs for arg in ("--set", f"{key}={value}")]])
        ends_cleanly(rc, capsys)
        if rc == EXIT_OK:
            # the model it wrote answers a query, or says it has no coverage
            ends_cleanly(cli.main(["infer", "--model", str(out), "2.5", "3.5"]), capsys,
                         (EXIT_OK, EXIT_NO_COVERAGE))

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(CONFIG_LINES)
    def test_train_one_line_config_file(self, in_workdir, capsys, line):
        # the fuzzed file replaces the fixture's, so the csv dataset is pinned
        conf = in_workdir / "fuzz.conf"
        conf.write_text(line + "\n")
        out = in_workdir / "fuzz.ids"
        ends_cleanly(cli.main(["train", "--config", str(conf), "--out", str(out),
                               "--set", "dataset=csv", "--set", "dataset_path=fixture.csv"]), capsys)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(["spiral", "circles", "iris"]), st.sampled_from(ALL_KEYS), ANY_VALUE)
    def test_bench_set_override(self, in_workdir, capsys, suite, key, value):
        self.bench(suite, capsys, ["--set", f"{key}={value}"])

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(["spiral", "circles", "iris"]), CONFIG_LINES)
    def test_bench_one_line_config_file(self, in_workdir, capsys, suite, line):
        conf = in_workdir / "fuzz.conf"
        conf.write_text(line + "\n")
        self.bench(suite, capsys, ["--config", str(conf)])

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                              st.text(st.characters(exclude_categories=("Cs",)), max_size=12)),
                    min_size=1, max_size=3))
    def test_infer_queries(self, model_path, capsys, values):
        # "--" ends the options, so "-inf" and "-1e+20" read as inputs
        rc = exit_code(["infer", "--model", str(model_path), "--", *values])
        ends_cleanly(rc, capsys, (EXIT_OK, EXIT_INPUT, EXIT_NO_COVERAGE))


class TestArgparse:
    def test_no_subcommand_exits(self):
        with pytest.raises(SystemExit):
            cli.main([])

    @pytest.mark.parametrize("argv, line", [
        (["infer", "--model", "{m}", "abc", "5"],
         "inkspread infer: error: argument inputs: invalid float value: 'abc'"),
        (["compare-hw", "--model", "{m}", "--queries", "x"],
         "inkspread compare-hw: error: argument --queries: invalid int value: 'x'"),
        # an unrecognized argument is echoed as typed, so its line break goes
        (["infer", "--model", "{m}", "1", "2", "--x\ny"], "inkspread: error: unrecognized arguments: --x y"),
    ])
    def test_argument_error_is_one_line(self, model_path, capsys, argv, line):
        assert exit_code([arg.format(m=model_path) for arg in argv]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == line + "\n" and captured.out == ""

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
        assert "inkspread" in capsys.readouterr().out
