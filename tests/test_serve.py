"""End-to-end tests of the compile daemon (``repro serve``).

The daemon runs as a real subprocess, exactly as deployed: these tests
exercise the full path — TCP accept, line-JSON decode, store lookup,
process-pool sharding, streamed cells, graceful drain — not a mocked
event loop.  The marquee assertions:

* served results are **byte-identical** to a local ``repro evaluate``
  over the same corpus (same CSV out of :func:`run_to_csv`);
* a repeat submission compiles **zero** cells — every one is a store
  hit answered from the metrics fast path;
* SIGTERM drains gracefully: in-flight requests finish, new admissions
  are refused, the process exits 0.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.core.faults import FAULT_CRASH_ENV, FAULT_STUCK_ENV
from repro.core.pipeline import PipelineConfig
from repro.evalx.export import run_to_csv
from repro.evalx.runner import (
    PAPER_CONFIG_ORDER,
    EvalRun,
    config_label,
    run_evaluation,
)
from repro.machine.machine import CopyModel
from repro.machine.presets import paper_machine
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import (
    ProtocolError,
    decode_line,
    encode_line,
    parse_config_spec,
)
from repro.workloads.corpus import spec95_corpus

REPO_ROOT = pathlib.Path(__file__).parent.parent

_LISTEN_RE = re.compile(r"listening on ([\d.]+):(\d+)")


class Daemon:
    """One ``repro serve`` subprocess plus its parsed address."""

    def __init__(self, store: pathlib.Path, *extra: str,
                 env: dict | None = None):
        full_env = {
            **os.environ,
            "PYTHONPATH": str(REPO_ROOT / "src"),
            **(env or {}),
        }
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--store", str(store), "--port", "0", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=full_env,
        )
        line = self.proc.stdout.readline()
        m = _LISTEN_RE.search(line)
        assert m, f"no listen line, got {line!r}"
        self.host, self.port = m.group(1), int(m.group(2))

    def client(self, **kw) -> ServeClient:
        return ServeClient(self.host, self.port, **kw)

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (graceful drain) and reap; returns the exit status."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@pytest.fixture
def daemon_factory(tmp_path):
    daemons = []

    def start(*extra: str, store: pathlib.Path | None = None,
              env: dict | None = None) -> Daemon:
        d = Daemon(store or tmp_path / "store", *extra, env=env)
        daemons.append(d)
        return d

    yield start
    for d in daemons:
        d.kill()


class TestProtocol:
    def test_parse_config_spec_short_form(self):
        assert parse_config_spec("4/embedded") == (4, CopyModel.EMBEDDED)
        assert parse_config_spec("8/copy_unit") == (8, CopyModel.COPY_UNIT)

    def test_parse_config_spec_report_label(self):
        assert parse_config_spec("2 Clusters / Embedded") == (
            2, CopyModel.EMBEDDED)
        assert parse_config_spec("8 Clusters / Copy Unit") == (
            8, CopyModel.COPY_UNIT)

    @pytest.mark.parametrize("bad", [
        "embedded", "four/embedded", "4/vliw", "", "4",
    ])
    def test_parse_config_spec_rejects(self, bad):
        with pytest.raises(ProtocolError):
            parse_config_spec(bad)

    def test_line_roundtrip(self):
        doc = {"op": "submit", "deadline": 1.5, "loops": [{"text": "x"}]}
        assert decode_line(encode_line(doc)) == doc
        assert encode_line(doc).endswith(b"\n")

    def test_decode_rejects_junk(self):
        with pytest.raises(ProtocolError):
            decode_line(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_line(b"[1,2]\n")


class TestServeEndToEnd:
    """Cold corpus → warm corpus → byte-identity with local evaluation."""

    N_LOOPS = 4

    def test_cold_then_warm_matches_local_evaluate(self, daemon_factory):
        loops = spec95_corpus(n=self.N_LOOPS)
        local = run_evaluation(loops, config=PipelineConfig(run_regalloc=False))
        assert not local.failures

        daemon = daemon_factory("--jobs", "2")
        with daemon.client(timeout=300.0) as client:
            cold = client.submit(loops, request_id="cold")
            warm = client.submit(loops, request_id="warm")
            stats = client.stats()
        assert daemon.stop() == 0

        n_cells = self.N_LOOPS * len(PAPER_CONFIG_ORDER)
        # cold pass compiled everything exactly once, no failures
        assert len(cold.cells) == n_cells
        assert cold.failures == 0
        assert cold.store_hits == 0
        assert cold.compiled + cold.inflight_hits == n_cells

        # ---- acceptance: warm pass compiles ZERO cells ----------------
        assert len(warm.cells) == n_cells
        assert warm.compiled == 0
        assert warm.store_hits == n_cells
        assert {c.source for c in warm.cells} == {"store"}
        # and the daemon's own counters agree: nothing compiled twice
        assert stats["metrics"]["counters"]["serve.cells.compiled"] == n_cells

        # ---- acceptance: served results byte-identical to local -------
        for submit in (cold, warm):
            served = self._as_eval_run(loops, submit.cells)
            assert run_to_csv(served) == run_to_csv(local)

    @staticmethod
    def _as_eval_run(loops, cells) -> EvalRun:
        """Reassemble streamed cells into the runner's presentation order
        (config-major, loop-minor) so the CSVs are comparable."""
        run = EvalRun()
        by_key = {(c.loop_index, c.config): c for c in cells}
        for n_clusters, model in PAPER_CONFIG_ORDER:
            label = config_label(n_clusters, model)
            run.machines[label] = paper_machine(n_clusters, model)
            run.per_config[label] = [
                by_key[(i, label)].metrics for i in range(len(loops))
                if by_key[(i, label)].ok
            ]
        return run

    def test_drain_finishes_inflight_and_refuses_new(self, daemon_factory):
        loops = spec95_corpus(n=6)
        daemon = daemon_factory("--jobs", "2")

        # raw socket so we control exactly when we read the stream
        sock = socket.create_connection((daemon.host, daemon.port), timeout=300)
        rfile = sock.makefile("rb")
        from repro.ir.printer import format_loop

        sock.sendall(encode_line({
            "op": "submit", "id": "inflight",
            "loops": [{"text": format_loop(lp)} for lp in loops],
        }))
        accepted = decode_line(rfile.readline())
        assert accepted["type"] == "accepted"

        # drain begins while the request above is still compiling
        daemon.proc.send_signal(signal.SIGTERM)

        # a new submission is refused...
        deadline = time.monotonic() + 10
        while True:  # wait until the signal handler has run
            with daemon.client() as probe:
                if probe.ping()["draining"]:
                    break
            assert time.monotonic() < deadline, "drain flag never set"
            time.sleep(0.05)
        with daemon.client() as refused:
            with pytest.raises(ServeError, match="drain"):
                refused.submit(loops[:1])

        # ...but the in-flight request streams to completion
        n_cells = len(loops) * len(PAPER_CONFIG_ORDER)
        seen = 0
        while True:
            msg = decode_line(rfile.readline())
            if msg["type"] == "cell":
                seen += 1
            elif msg["type"] == "done":
                break
        assert seen == n_cells

        rfile.close()
        sock.close()
        assert daemon.stop() == 0

    def test_shutdown_op_drains(self, daemon_factory):
        daemon = daemon_factory()
        with daemon.client() as client:
            client.submit(spec95_corpus(n=1))
            client.shutdown()
        assert daemon.proc.wait(timeout=30) == 0

    def test_drain_with_open_connection_exits_without_traceback(
        self, daemon_factory
    ):
        daemon = daemon_factory()
        with daemon.client() as client:
            client.submit(spec95_corpus(n=1))
            client.shutdown()
            # the connection is still open while the daemon drains
            assert daemon.proc.wait(timeout=30) == 0
        log = daemon.proc.stdout.read()  # stderr is merged into stdout
        assert "drained, exiting" in log
        assert "Traceback" not in log

    def test_loop_parsed_after_worker_fork_compiles_like_local(
        self, daemon_factory
    ):
        """The worker mints copies from its own id counters, which the
        daemon's later parses know nothing of: a loop submitted after
        another one compiled must still get the local compiler's
        answer, cell for cell."""
        from repro.core.pipeline import compile_loop
        from repro.ir.parser import parse_loop
        from repro.ir.printer import format_loop
        from repro.workloads.kernels import make_kernel

        daemon = daemon_factory("--jobs", "1")
        loop = make_kernel("daxpy4")
        with daemon.client(timeout=120.0) as client:
            client.submit([make_kernel("daxpy")])
            served = client.submit([loop])
        assert daemon.stop() == 0

        config = PipelineConfig(run_regalloc=False)
        by_label = {cell.config: cell for cell in served.cells}
        for n_clusters, model in PAPER_CONFIG_ORDER:
            local = compile_loop(parse_loop(format_loop(loop)),
                                 paper_machine(n_clusters, model), config)
            label = config_label(n_clusters, model)
            assert by_label[label].metrics == local.metrics, label

    def test_request_deadline_times_out(self, daemon_factory):
        daemon = daemon_factory("--jobs", "1")
        loops = spec95_corpus(n=4)
        with daemon.client(timeout=120.0) as client:
            result = client.submit(loops, deadline=0.005, request_id="rushed")
        # the budget is far too small for four loops: the request still
        # answers every cell, the unfinished ones as timeout failures
        assert len(result.cells) == len(loops) * len(PAPER_CONFIG_ORDER)
        assert result.failures > 0
        for cell in result.cells:
            if not cell.ok:
                assert cell.failure.kind == "timeout"
        assert daemon.stop() == 0

    def test_queue_full_refuses_admission(self, daemon_factory):
        daemon = daemon_factory("--queue", "3")
        with daemon.client() as client:
            with pytest.raises(ServeError, match="queue full"):
                client.submit(spec95_corpus(n=1))  # 6 cells > 3
        assert daemon.stop() == 0

    def test_worker_crash_poisons_only_that_loop(self, daemon_factory):
        loops = spec95_corpus(n=2)
        victim = loops[0].name
        daemon = daemon_factory(
            "--jobs", "1", env={FAULT_CRASH_ENV: victim},
        )
        with daemon.client(timeout=300.0) as client:
            result = client.submit(loops)
        by_loop: dict[str, list] = {}
        for cell in result.cells:
            by_loop.setdefault(cell.loop_name, []).append(cell)
        # the sabotaged loop crashed its worker in isolation too → crash
        # failures with the retry recorded; the innocent loop is untouched
        assert all(
            not c.ok and c.failure.kind == "crash" and c.failure.attempts == 2
            for c in by_loop[victim]
        )
        assert "process" in by_loop[victim][0].failure.error.lower()
        assert all(c.ok for name, cs in by_loop.items() if name != victim
                   for c in cs)
        assert daemon.stop() == 0

    def test_watchdog_reaps_stuck_worker(self, daemon_factory):
        """A worker wedged past every SIGALRM deadline (blocked signals,
        modelled by REPRO_FAULT_STUCK) must not hang the request or leak
        its queue slots: the watchdog SIGKILLs it, the victim's cells
        degrade to typed timeout failures, and the innocent loop still
        compiles on the replacement pool."""
        loops = spec95_corpus(n=2)
        victim = loops[0].name
        daemon = daemon_factory(
            "--jobs", "1", "--timeout", "0.5", "--watchdog-grace", "0.5",
            env={FAULT_STUCK_ENV: victim},
        )
        t0 = time.monotonic()
        with daemon.client(timeout=60.0) as client:
            result = client.submit(loops, deadline=10.0, request_id="stuck")
            stats = client.stats()
        elapsed = time.monotonic() - t0
        # the request met its deadline instead of waiting out the hour-
        # long stuck sleep (watchdog limit: 0.5s/cell * 6 cells + grace)
        assert elapsed < 10.0
        assert len(result.cells) == len(loops) * len(PAPER_CONFIG_ORDER)
        by_loop: dict[str, list] = {}
        for cell in result.cells:
            by_loop.setdefault(cell.loop_name, []).append(cell)
        for cell in by_loop[victim]:
            assert not cell.ok
            assert cell.failure.kind == "timeout"
            assert "watchdog" in cell.failure.error
        assert all(c.ok for name, cs in by_loop.items() if name != victim
                   for c in cs)
        assert stats["metrics"]["counters"]["serve.watchdog_reaps"] == 1
        # no leaked queue slots: admission is fully recovered
        assert stats["queue_depth"] == 0
        assert stats["inflight_keys"] == 0
        assert daemon.stop() == 0

    def test_watchdog_limit_composition(self, tmp_path):
        from repro.serve.server import CompileService

        svc = CompileService(str(tmp_path / "wd-store"), cell_timeout=2.0,
                             watchdog_grace=1.0)
        try:
            assert svc._watchdog_limit(3, None) == 7.0
            assert svc._watchdog_limit(3, 4.0) == 5.0
            assert svc._watchdog_limit(1, 10.0) == 3.0
        finally:
            svc.close()
        unbounded = CompileService(str(tmp_path / "wd-store2"))
        try:
            assert unbounded._watchdog_limit(5, None) is None
            assert unbounded._watchdog_limit(5, 4.0) == 6.0
        finally:
            unbounded.close()

    def test_malformed_loop_is_refused(self, daemon_factory):
        daemon = daemon_factory()
        with daemon.client() as client:
            with pytest.raises(ServeError, match="does not parse"):
                client.submit(["this is not ir"])
        assert daemon.stop() == 0

    def test_metrics_out_written_on_drain(self, daemon_factory, tmp_path):
        out = tmp_path / "serve-metrics.json"
        daemon = daemon_factory("--metrics-out", str(out))
        with daemon.client() as client:
            client.submit(spec95_corpus(n=1))
        assert daemon.stop() == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["metrics"]["counters"]["serve.requests"] == 1
        assert doc["worker_store"]["writes"] == len(PAPER_CONFIG_ORDER)


class TestSubmitCli:
    """The ``repro submit`` subcommand against a live daemon."""

    def _submit(self, daemon: Daemon, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", "submit",
             "--host", daemon.host, "--port", str(daemon.port), *args],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )

    def test_ping_submit_and_warm_hit(self, daemon_factory):
        daemon = daemon_factory()
        ping = self._submit(daemon, "--ping")
        assert ping.returncode == 0, ping.stdout
        assert '"type": "pong"' in ping.stdout or '"pong"' in ping.stdout

        cold = self._submit(daemon, "daxpy")
        assert cold.returncode == 0, cold.stdout
        assert "0 store hits" in cold.stdout

        warm = self._submit(daemon, "daxpy")
        assert warm.returncode == 0, warm.stdout
        assert "6 store hits" in warm.stdout and "0 compiled" in warm.stdout
        assert "[store" in warm.stdout

        down = self._submit(daemon, "--shutdown")
        assert down.returncode == 0, down.stdout
        assert daemon.proc.wait(timeout=30) == 0

    def test_submit_configs_subset(self, daemon_factory):
        daemon = daemon_factory()
        proc = self._submit(daemon, "daxpy", "--configs", "4/embedded")
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout.count("daxpy ") == 1
        assert daemon.stop() == 0

    def test_submit_without_daemon_fails_cleanly(self, tmp_path):
        with socket.socket() as s:  # grab a port that is surely closed
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "daxpy",
             "--port", str(port), "--connect-timeout", "2"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode != 0
        assert "cannot reach daemon" in proc.stderr
