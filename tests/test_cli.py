"""End-to-end exercises of the command-line interface.

Each test drives cli.main() with an argv list and inspects the returned
exit code plus captured output; spawning subprocesses would only slow
things down without testing anything extra.
"""

import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from inkspread import cli
from inkspread.cli import EXIT_BAND, EXIT_INPUT, EXIT_NO_COVERAGE, EXIT_OK

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

        batched = report("batched.json")
        monkeypatch.setattr(cli, "program_from_model", program_from_model_reference)
        monkeypatch.setattr(cli, "crossbar_infer", crossbar_infer_reference)
        assert report("reference.json") == batched
        capsys.readouterr()


class TestArgparse:
    def test_no_subcommand_exits(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
        assert "inkspread" in capsys.readouterr().out
