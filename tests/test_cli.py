"""Tests for the command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main


class TestKernelsCommand:
    def test_lists_kernels(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "daxpy" in out and "lfk5_tridiag" in out
        assert "RecII" in out


class TestCompileCommand:
    def test_compile_named_kernel(self, capsys):
        assert main(["compile", "daxpy", "--clusters", "2"]) == 0
        out = capsys.readouterr().out
        assert "ideal kernel" in out
        assert "clustered kernel" in out
        assert "degradation" in out

    def test_compile_with_simulation(self, capsys):
        assert main(["compile", "dot", "--clusters", "4", "--sim"]) == 0
        out = capsys.readouterr().out
        assert "simulator equivalence: PASSED" in out

    def test_compile_with_uas(self, capsys):
        assert main(["compile", "fir5", "--partitioner", "uas", "--no-regalloc"]) == 0
        out = capsys.readouterr().out
        assert "partitioner: uas" in out

    def test_compile_copy_unit(self, capsys):
        assert main(["compile", "cmul", "--model", "copy_unit"]) == 0
        out = capsys.readouterr().out
        assert "copy_unit" in out

    def test_compile_from_file(self, tmp_path, capsys):
        ir = tmp_path / "loop.ir"
        ir.write_text(
            "loop fromfile trip=4\n"
            "  fload f1, a[i]\n"
            "  fmul f2, f1, f1\n"
            "  fstore f2, b[i]\n"
            "end\n"
        )
        assert main(["compile", str(ir), "--clusters", "2"]) == 0
        out = capsys.readouterr().out
        assert "fromfile" in out

    def test_unknown_loop_exits(self):
        with pytest.raises(SystemExit, match="neither a named kernel"):
            main(["compile", "no_such_kernel"])


class TestEvaluateCommand:
    def test_quick_evaluation(self, capsys):
        assert main(["evaluate", "--quick", "25"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out
        assert "Figure 5" in out and "Figure 7" in out


class TestJobsValidation:
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("command", [
        ["evaluate", "--quick", "2"],
        ["gap", "--quick", "2"],
        ["serve", "--store", "unused-store"],
    ])
    def test_jobs_below_one_is_rejected(self, command, jobs, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match="--jobs requires at least one worker"):
            main([*command, "--jobs", jobs])
        assert not (tmp_path / "unused-store").exists()


class TestSecondsValidation:
    @pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-1", "abc"])
    @pytest.mark.parametrize("command", [
        ["evaluate", "--quick", "2"],
        ["gap", "--quick", "2"],
        ["serve", "--store", "unused-store"],
    ])
    def test_non_positive_or_non_finite_timeout_is_rejected(
        self, command, timeout, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*command, "--timeout", timeout])
        assert exc.value.code == 2
        assert "finite number of seconds > 0" in capsys.readouterr().err
        assert not (tmp_path / "unused-store").exists()

    @pytest.mark.parametrize("grace", ["-1", "nan"])
    def test_negative_watchdog_grace_is_rejected(
        self, grace, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--store", "unused-store", "--watchdog-grace", grace])
        assert exc.value.code == 2
        assert "finite number of seconds >= 0" in capsys.readouterr().err


class TestNetworkFlagValidation:
    @pytest.mark.parametrize("argv", [
        ["submit", "--ping", "--connect-timeout", "-1"],
        ["submit", "--ping", "--connect-timeout", "0"],
        ["submit", "--ping", "--connect-timeout", "nan"],
        ["submit", "--ping", "--connect-timeout", "inf"],
        ["submit", "daxpy", "--deadline", "nan"],
        ["submit", "daxpy", "--deadline", "inf"],
        ["submit", "daxpy", "--deadline", "-1"],
    ], ids=lambda argv: "_".join(argv[-2:]))
    def test_bad_seconds_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument" in err
        assert "finite number of seconds > 0" in err

    @pytest.mark.parametrize("argv", [
        ["serve", "--store", "unused-store", "--port", "-5"],
        ["serve", "--store", "unused-store", "--port", "65536"],
        ["serve", "--store", "unused-store", "--port", "http"],
        ["submit", "--ping", "--port", "0"],
        ["submit", "--ping", "--port", "-1"],
        ["submit", "--ping", "--port", "70000"],
    ], ids=lambda argv: "_".join([argv[0], *argv[-2:]]))
    def test_out_of_range_port_is_rejected(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        least = 0 if argv[0] == "serve" else 1
        assert f"expected a port number from {least} to 65535" in err
        assert not (tmp_path / "unused-store").exists()


class TestCountValidation:
    @pytest.mark.parametrize("argv", [
        ["compile", "daxpy", "--unroll", "0"],
        ["compile", "daxpy", "--unroll", "-2"],
        ["compile", "daxpy", "--expand", "0"],
        ["compile", "daxpy", "--expand", "-1"],
        ["compile", "daxpy", "--width", "0"],
        ["compile", "daxpy", "--width", "-4"],
        ["tune", "--trials", "0"],
        ["tune", "--loops", "0"],
    ], ids=lambda argv: "_".join(argv[-2:]))
    def test_count_below_one_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected a whole number >= 1" in capsys.readouterr().err

    def test_width_the_clusters_do_not_divide_is_rejected(self, capsys):
        assert main(["compile", "daxpy", "--clusters", "4", "--width", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: 4 clusters do not evenly divide width 6\n"
        assert captured.out == ""


class TestObservabilityFlags:
    def test_evaluate_trace_and_metrics_out(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(["evaluate", "--quick", "6",
                     "--trace", str(trace), "--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "trace (chrome" in out
        assert "Compile metrics (36 cells):" in out
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"], "empty Chrome trace"
        m = json.loads(metrics.read_text())
        assert m["schema"] == "repro-compile-metrics/1"
        assert m["aggregate"]["cells"] == 36 and len(m["cells"]) == 36

    def test_evaluate_trace_jsonl_with_jobs(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        assert main(["evaluate", "--quick", "4", "--jobs", "2",
                     "--trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert len(lines) > 24  # at least one span per cell
        spans = [json.loads(line) for line in lines]
        cells = {(s["loop_index"], s["config"]) for s in spans}
        assert len(cells) == 24

    def test_compile_trace(self, tmp_path, capsys):
        import json

        trace = tmp_path / "compile.json"
        assert main(["compile", "daxpy", "--trace", str(trace)]) == 0
        assert "trace (chrome" in capsys.readouterr().out
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "compile_loop" in names and "IdealSchedule" in names

    def test_unwritable_trace_path_fails_cleanly_and_early(self, tmp_path):
        missing = tmp_path / "no_such_dir" / "trace.json"
        with pytest.raises(SystemExit, match="cannot write trace file"):
            main(["evaluate", "--quick", "4", "--trace", str(missing)])

    def test_unwritable_metrics_path_fails_cleanly(self, tmp_path):
        missing = tmp_path / "no_such_dir" / "m.json"
        with pytest.raises(SystemExit, match="cannot write metrics file"):
            main(["evaluate", "--quick", "4", "--metrics-out", str(missing)])


class TestTuneCommand:
    def test_tune_small(self, capsys):
        assert main(["tune", "--trials", "2", "--loops", "4"]) == 0
        out = capsys.readouterr().out
        assert "incumbent objective" in out
        assert "best config" in out


class TestNoRuntimeDependency:
    """The package declares no runtime dependency: the CLI runs with every
    module outside the standard library and ``repro`` made unimportable."""

    BLOCKER = (
        "import runpy, sys\n"
        "class StdlibOnly:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        top = name.partition('.')[0]\n"
        "        if top != 'repro' and top not in sys.stdlib_module_names:\n"
        "            raise ModuleNotFoundError(f'blocked import of {name}')\n"
        "sys.meta_path.insert(0, StdlibOnly())\n"
    )

    @pytest.mark.parametrize("argv", [
        ["compile", "daxpy", "--clusters", "2", "--check"],
        ["evaluate", "--quick", "8"],
    ], ids=["compile", "evaluate"])
    def test_cli_runs_on_the_standard_library_alone(self, argv):
        src = pathlib.Path(__file__).parent.parent / "src"
        script = self.BLOCKER + (
            f"sys.argv = ['repro', *{argv!r}]\n"
            "runpy.run_module('repro', run_name='__main__')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_blocker_refuses_a_third_party_import(self):
        script = self.BLOCKER + "import pytest\n"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode != 0
        assert "blocked import of pytest" in proc.stderr
