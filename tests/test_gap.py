"""Tests of the greedy-vs-optimal gap harness (``repro gap``).

The marquee property is determinism: the gap report contains no timing,
so its bytes must be identical whether the legs ran serially, across a
worker pool, or resumed from a checkpoint.  Fault injection then shows
an intractable (hung) loop degrading to a typed ``timeout`` row instead
of crashing the report.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

from repro.core.results import LoopFailure, LoopMetrics
from repro.evalx.gap import GAP_CSV_FIELDS, GapCell, compute_gap, gap_to_csv
from repro.evalx.runner import EvalRun
from repro.exact.cost import OVERFLOW_WEIGHT

REPO_ROOT = pathlib.Path(__file__).parent.parent


def _metrics(loop_name: str, *, copies: int = 0, ii: int = 4,
             exact_cost: int = -1, exact_bound: int = -1,
             exact_proven: bool = False, exact_warm: int = -1) -> LoopMetrics:
    return LoopMetrics(
        loop_name=loop_name, machine_name="m", n_ops=4,
        ideal_ii=2, ideal_min_ii=2, ideal_rec_ii=1, ideal_res_ii=2,
        ideal_ipc=2.0,
        partitioned_ii=ii, partitioned_min_ii=2, partitioned_ipc=1.0,
        n_kernel_ops=4, n_body_copies=copies, n_preheader_copies=0,
        n_registers=4, n_components=1,
        exact_cost=exact_cost, exact_bound=exact_bound,
        exact_proven=exact_proven, exact_warm_cost=exact_warm,
    )


def _runs(label="4 Clusters / Embedded"):
    greedy = EvalRun()
    exact = EvalRun()
    greedy.per_config[label] = []
    exact.per_config[label] = []
    return greedy, exact, label


class TestComputeGap:
    def test_proven_cell_and_gap_arithmetic(self):
        greedy, exact, label = _runs()
        greedy.per_config[label].append(_metrics("a", copies=5, ii=6))
        exact.per_config[label].append(_metrics(
            "a", copies=2, ii=4,
            exact_cost=2, exact_bound=2, exact_proven=True, exact_warm=5,
        ))
        report = compute_gap(greedy, exact)
        (cell,) = report.cells[label]
        assert cell.status == "proven"
        assert cell.objective_gap == 3
        assert cell.copy_gap == 3
        assert cell.overflow_gap == 0
        assert cell.degradation_delta == 100.0  # ii 6 vs 4 over ideal 2
        assert not report.hard_failures

    def test_overflow_gap_decomposition(self):
        greedy, exact, label = _runs()
        greedy.per_config[label].append(_metrics("a", copies=3))
        exact.per_config[label].append(_metrics(
            "a", copies=1,
            exact_cost=1, exact_bound=1, exact_proven=True,
            exact_warm=2 * OVERFLOW_WEIGHT + 3,
        ))
        report = compute_gap(greedy, exact)
        (cell,) = report.cells[label]
        assert cell.overflow_gap == 2
        assert cell.copy_gap == 2
        assert cell.objective_gap == 2 * OVERFLOW_WEIGHT + 2

    def test_exact_timeout_is_typed_not_hard(self):
        greedy, exact, label = _runs()
        greedy.per_config[label].append(_metrics("slow"))
        exact.failures.append(LoopFailure(
            config=label, loop_name="slow", error="deadline", kind="timeout",
        ))
        report = compute_gap(greedy, exact)
        (cell,) = report.cells[label]
        assert cell.status == "timeout"
        assert not report.hard_failures
        assert "Timed out" in report.format()

    def test_exact_exception_is_hard_failure(self):
        greedy, exact, label = _runs()
        greedy.per_config[label].append(_metrics("bad"))
        exact.failures.append(LoopFailure(
            config=label, loop_name="bad", error="boom", kind="exception",
        ))
        report = compute_gap(greedy, exact)
        (cell,) = report.cells[label]
        assert cell.status == "failed"
        assert len(report.hard_failures) == 1

    def test_unproven_incumbent_still_counts_beaten(self):
        greedy, exact, label = _runs()
        greedy.per_config[label].append(_metrics("a", copies=9))
        exact.per_config[label].append(_metrics(
            "a", copies=4,
            exact_cost=4, exact_bound=0, exact_proven=False, exact_warm=9,
        ))
        report = compute_gap(greedy, exact)
        (cell,) = report.cells[label]
        assert cell.status == "unproven"
        assert cell.objective_gap == 5
        text = report.format()
        assert "bound 0" in text  # honest certificate in the listing

    def test_csv_has_every_cell_and_field(self):
        greedy, exact, label = _runs()
        greedy.per_config[label].append(_metrics("a", copies=1))
        greedy.per_config[label].append(_metrics("b"))
        exact.per_config[label].append(_metrics(
            "a", exact_cost=0, exact_bound=0, exact_proven=True, exact_warm=1))
        exact.per_config[label].append(_metrics(
            "b", exact_cost=0, exact_bound=0, exact_proven=True, exact_warm=0))
        csv_text = gap_to_csv(compute_gap(greedy, exact))
        lines = csv_text.strip().splitlines()
        assert lines[0] == ",".join(GAP_CSV_FIELDS)
        assert len(lines) == 3

    def test_gap_cell_unsolved_has_zero_gaps(self):
        cell = GapCell(config="c", loop_name="l", status="timeout")
        assert cell.objective_gap == 0
        assert cell.copy_gap == 0
        assert cell.overflow_gap == 0
        assert not cell.solved


def _run_gap(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "gap", *args],
        capture_output=True, text=True, timeout=570,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"),
             **(env or {})},
    )


class TestGapCli:
    """End-to-end ``repro gap`` runs over a tiny corpus slice."""

    N = "3"

    def test_serial_parallel_and_resumed_byte_identical(self, tmp_path):
        serial = _run_gap("--quick", self.N, "--timeout", "30",
                          "--csv", str(tmp_path / "serial.csv"))
        assert serial.returncode == 0, serial.stderr
        assert "Greedy vs. Exact Partitioner" in serial.stdout

        parallel = _run_gap("--quick", self.N, "--timeout", "30", "--jobs", "2",
                            "--csv", str(tmp_path / "parallel.csv"))
        assert parallel.returncode == 0, parallel.stderr

        # resume = rerun with the same store: every cell of both legs is
        # answered from disk the second time
        store = str(tmp_path / "store")
        first = _run_gap("--quick", self.N, "--timeout", "30",
                         "--store", store)
        assert first.returncode == 0, first.stderr
        resumed = _run_gap("--quick", self.N, "--timeout", "30",
                           "--store", store,
                           "--csv", str(tmp_path / "resumed.csv"))
        assert resumed.returncode == 0, resumed.stderr
        n_cells = 2 * int(self.N) * 6
        assert f"{n_cells} hits, 0 misses" in resumed.stderr

        # ---- acceptance: report bytes identical across all strategies --
        assert parallel.stdout.split("per-loop gap CSV")[0] == \
            serial.stdout.split("per-loop gap CSV")[0]
        assert first.stdout == serial.stdout.split("\nper-loop gap CSV")[0]
        assert resumed.stdout.split("per-loop gap CSV")[0] == \
            serial.stdout.split("per-loop gap CSV")[0]
        serial_csv = (tmp_path / "serial.csv").read_text()
        assert (tmp_path / "parallel.csv").read_text() == serial_csv
        assert (tmp_path / "resumed.csv").read_text() == serial_csv

        # every cell of the tiny slice proves out — and the table says so
        line = next(l for l in serial.stdout.splitlines()
                    if l.startswith("Proven optimal"))
        assert line.split()[-1] == self.N

    def test_injected_hang_becomes_typed_timeout_row(self, tmp_path):
        from repro.core.faults import FAULT_HANG_ENV
        from repro.workloads.corpus import spec95_corpus

        victim = spec95_corpus(n=int(self.N))[0].name
        proc = _run_gap("--quick", self.N, "--timeout", "0.5",
                        env={FAULT_HANG_ENV: victim})
        # hangs degrade to typed timeout cells in both legs: the report
        # renders, counts them honestly, and exits 0 (timeouts are not
        # failures of the harness)
        assert proc.returncode == 0, proc.stderr
        timed_out = next(l for l in proc.stdout.splitlines()
                         if l.startswith("Timed out"))
        # the victim hangs in every column; the tight 0.5s budget may
        # push other loops' exact searches over the line too
        assert all(int(col) >= 1 for col in timed_out.split()[2:])
        assert "Other failures" in proc.stdout

    def test_stuck_worker_is_reaped_into_timeout_rows(self, tmp_path):
        from repro.core.faults import FAULT_STUCK_ENV
        from repro.workloads.corpus import spec95_corpus

        victim = spec95_corpus(n=2)[0].name
        csv_path = tmp_path / "gap.csv"
        proc = _run_gap("--quick", "2", "--jobs", "2", "--timeout", "0.5",
                        "--csv", str(csv_path), env={FAULT_STUCK_ENV: victim})
        # the wedged worker ignores its SIGALRM deadline: the watchdog
        # reaps it in both legs instead of hanging the run
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in
                csv_path.read_text().splitlines()[1:]]
        assert {row[2] for row in rows if row[1] == victim} == {"timeout"}
        assert len([row for row in rows if row[1] == victim]) == 6

    def test_rejects_bad_quick(self):
        proc = _run_gap("--quick", "0")
        assert proc.returncode != 0
        assert "positive" in proc.stderr
