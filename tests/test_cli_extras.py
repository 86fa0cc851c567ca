"""CLI tests for the emit/expand/diagnose/export surfaces."""

import json

import pytest

from repro.cli import main


class TestEmitFlags:
    def test_emit_prints_physical_assembly(self, capsys):
        assert main(["compile", "dot", "--clusters", "2", "--emit"]) == 0
        out = capsys.readouterr().out
        assert "final assembly" in out
        assert "b0.r" in out or "b1.r" in out
        assert "MVE" in out

    def test_expand_prints_phases(self, capsys):
        assert main(["compile", "daxpy", "--clusters", "2", "--expand", "3"]) == 0
        out = capsys.readouterr().out
        assert "expanded pipeline (3 iterations)" in out
        assert "[prelude" in out

    def test_swing_scheduler_flag(self, capsys):
        assert main(
            ["compile", "fir5", "--scheduler", "swing", "--no-regalloc"]
        ) == 0

    def test_unroll_flag(self, capsys):
        assert main(["compile", "dot", "--unroll", "2", "--no-regalloc"]) == 0
        out = capsys.readouterr().out
        assert "dot.x2" in out


class TestDiagnoseCommand:
    def test_diagnose_reports_cause(self, capsys):
        assert main(["diagnose", "daxpy4", "--clusters", "8",
                     "--partitioner", "single"]) == 0
        out = capsys.readouterr().out
        assert "cause: resources" in out

    def test_diagnose_clean_loop(self, capsys):
        assert main(["diagnose", "daxpy", "--clusters", "2"]) == 0
        out = capsys.readouterr().out
        assert "cause:" in out


class TestEvaluateExports:
    def test_csv_and_json_written(self, tmp_path, capsys):
        csv_path = tmp_path / "loops.csv"
        json_path = tmp_path / "run.json"
        assert main([
            "evaluate", "--quick", "10",
            "--csv", str(csv_path), "--json", str(json_path),
        ]) == 0
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "normalized_kernel" in header
        doc = json.loads(json_path.read_text())
        assert "table1" in doc and "table2" in doc


class TestPackageSurface:
    def test_top_level_exports(self):
        import repro

        assert repro.__version__
        loop_builder = repro.LoopBuilder("t")
        loop_builder.fload("f1", "x")
        loop = loop_builder.build()
        m = repro.paper_machine(2, repro.CopyModel.EMBEDDED)
        result = repro.compile_loop(loop, m, repro.PipelineConfig(run_regalloc=False))
        assert result.metrics.partitioned_ii >= 1


class TestEvaluateQuickValidation:
    def test_quick_zero_rejected(self):
        with pytest.raises(SystemExit, match="positive"):
            main(["evaluate", "--quick", "0"])

    def test_quick_negative_rejected(self):
        with pytest.raises(SystemExit, match="positive"):
            main(["evaluate", "--quick", "-3"])


class TestEvaluateFaultSurfaces:
    def test_failures_render_and_fail_the_exit_code(self, capsys, monkeypatch):
        from repro.core.faults import FAULT_RAISE_ENV

        monkeypatch.setenv(FAULT_RAISE_ENV, "daxpy")
        assert main(["evaluate", "--quick", "4"]) == 1
        out = capsys.readouterr().out
        assert "Failures (6):" in out
        assert "daxpy" in out
        assert "exception" in out
        assert "injected fault" in out

    def test_timeout_flag_accepted(self, capsys):
        assert main(["evaluate", "--quick", "3", "--timeout", "300"]) == 0
        assert "Table 1" in capsys.readouterr().out


class TestEvaluateStoreRerun:
    """Resuming an evaluation is rerunning it with the same ``--store``."""

    @staticmethod
    def _stable(text):
        # drop the wall-time line; everything else must be reproducible
        return [ln for ln in text.splitlines() if not ln.startswith("corpus:")]

    def test_store_rerun_reproduces_report(self, tmp_path, capsys):
        store = str(tmp_path / "st")
        assert main(["evaluate", "--quick", "4", "--store", store]) == 0
        first = capsys.readouterr().out
        assert main(["evaluate", "--quick", "4", "--store", store]) == 0
        second = capsys.readouterr()
        assert "24 hits, 0 misses" in second.err
        assert self._stable(second.out) == self._stable(first)

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--resume", "x"],
        ["evaluate", "--checkpoint", "x"],
        ["gap", "--resume", "x"],
        ["gap", "--checkpoint", "x"],
    ], ids=["evaluate-resume", "evaluate-checkpoint", "gap-resume",
            "gap-checkpoint"])
    def test_resume_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2  # argparse: unrecognized arguments

    def test_larger_corpus_compiles_only_new_loops(self, tmp_path, capsys):
        store = str(tmp_path / "st")
        assert main(["evaluate", "--quick", "3", "--store", store]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--quick", "4", "--store", store]) == 0
        assert "18 hits, 6 misses" in capsys.readouterr().err
