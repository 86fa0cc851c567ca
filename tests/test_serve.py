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

    def test_malformed_fields_are_refused_not_crashed(self, daemon_factory):
        """A malformed deadline, loops or configs field gets an error
        reply and counts as refused; the connection stays usable, and a
        NaN deadline never reaches a worker."""
        from repro.ir.printer import format_loop

        daemon = daemon_factory("--jobs", "1")
        loop_docs = [{"text": format_loop(spec95_corpus(n=1)[0])}]
        bad_fields = [
            {"deadline": "abc"}, {"deadline": [1]}, {"deadline": "nan"},
            {"deadline": float("nan")}, {"deadline": float("inf")},
            {"loops": 5}, {"configs": 5},
        ]
        with socket.create_connection((daemon.host, daemon.port),
                                      timeout=60) as sock:
            replies = sock.makefile("rb")
            for fields in bad_fields:
                sock.sendall(encode_line(
                    {"op": "submit", "loops": loop_docs, **fields}
                ))
                reply = decode_line(replies.readline())
                assert reply["type"] == "error", fields
            sock.sendall(encode_line({"op": "ping"}))
            assert decode_line(replies.readline())["type"] == "pong"
        with daemon.client(timeout=120.0) as client:
            result = client.submit(spec95_corpus(n=1))
            stats = client.stats()
        assert result.failures == 0
        assert stats["metrics"]["counters"]["serve.refused"] == len(bad_fields)
        assert daemon.stop() == 0

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


class TestLoopTable:
    """The daemon parses each distinct loop text once.  The counters are
    read off a real daemon; the table's bound and the stored loop's
    contents are internal state, checked on an in-process service."""

    @staticmethod
    def _texts(n: int) -> list[str]:
        from repro.ir.printer import format_loop

        return [format_loop(loop) for loop in spec95_corpus(n=n)]

    def test_repeated_texts_are_parsed_once(self, daemon_factory):
        written = self._texts(3)
        reads = [written[0], written[2], written[0], written[1]]
        daemon = daemon_factory("--jobs", "1")
        with daemon.client(timeout=120.0) as client:
            client.submit(written)
            warm = [client.submit([text]) for text in reads]
            stats = client.stats()
        assert daemon.stop() == 0
        assert all(r.store_hits == len(PAPER_CONFIG_ORDER) for r in warm)
        metrics = stats["metrics"]
        assert metrics["counters"]["serve.loops_parsed"] == len(written)
        assert metrics["counters"]["serve.loops_reused"] == len(reads)
        hist = metrics["histograms"]
        assert hist["serve.request_ms"]["count"] == 1 + len(reads)
        assert hist["serve.warm_request_ms"]["count"] == len(reads)
        assert hist["serve.warm_request_ms"]["p50"] > 0

    def test_whitespace_variant_is_parsed_again_but_warm(self, daemon_factory):
        text = self._texts(1)[0]
        variant = "# the same loop, re-indented\n" + "\n".join(
            "   " + line for line in text.splitlines()) + "\n\n"
        daemon = daemon_factory("--jobs", "1")
        with daemon.client(timeout=120.0) as client:
            cold = client.submit([text])
            warm = client.submit([variant])
            stats = client.stats()
        assert daemon.stop() == 0
        assert cold.compiled == len(PAPER_CONFIG_ORDER)
        assert warm.store_hits == len(PAPER_CONFIG_ORDER)
        cold_metrics = {c.config: c.metrics for c in cold.cells}
        assert {c.config: c.metrics for c in warm.cells} == cold_metrics
        counters = stats["metrics"]["counters"]
        assert counters["serve.loops_parsed"] == 2
        assert "serve.loops_reused" not in counters

    def test_unparseable_text_is_refused_every_time(self, daemon_factory):
        daemon = daemon_factory("--jobs", "1")
        with daemon.client(timeout=120.0) as client:
            for _ in range(2):
                with pytest.raises(ServeError, match="does not parse"):
                    client.submit(["this is not ir"])
            client.submit(self._texts(1))
            stats = client.stats()
        assert daemon.stop() == 0
        counters = stats["metrics"]["counters"]
        assert counters["serve.refused"] == 2
        assert counters["serve.loops_parsed"] == 1

    def test_same_text_twice_in_one_request_compiles_once(
        self, daemon_factory
    ):
        text = self._texts(1)[0]
        daemon = daemon_factory("--jobs", "1")
        with daemon.client(timeout=120.0) as client:
            result = client.submit([text, text])
            stats = client.stats()
        assert daemon.stop() == 0
        n_configs = len(PAPER_CONFIG_ORDER)
        assert result.failures == 0
        assert result.compiled == n_configs
        assert result.inflight_hits == n_configs
        counters = stats["metrics"]["counters"]
        assert counters["serve.loops_parsed"] == 1
        assert counters["serve.loops_reused"] == 1
        assert counters["serve.cells.compiled"] == n_configs

    @staticmethod
    def _submit_in_process(service, texts: list[str]) -> list[dict]:
        """One ``submit`` through ``service``; returns its reply lines."""
        import asyncio

        class Writer:
            def __init__(self):
                self.replies: list[dict] = []

            def write(self, data: bytes) -> None:
                self.replies.extend(map(decode_line, data.splitlines()))

            async def drain(self) -> None:
                pass

        writer = Writer()
        doc = {"op": "submit", "loops": [{"text": t} for t in texts]}
        asyncio.run(service._handle_submit(doc, writer))
        return writer.replies

    def test_stored_loop_is_unchanged_by_a_cold_compile(self, tmp_path):
        import hashlib

        from repro.core.fingerprint import loop_fingerprint
        from repro.ir.printer import format_loop
        from repro.serve.server import CompileService

        text = self._texts(1)[0]
        service = CompileService(str(tmp_path / "store"))
        try:
            loop = service._loop_for(text)
            before = (format_loop(loop), loop_fingerprint(loop),
                      [op.op_id for op in loop.ops],
                      sorted(r.rid for r in loop.registers()))
            replies = self._submit_in_process(service, [text])
        finally:
            service.close()
        assert replies[-1]["type"] == "done"
        assert replies[-1]["compiled"] == len(PAPER_CONFIG_ORDER)
        assert service._loops[text] is loop
        after = (format_loop(loop), loop._fingerprint,
                 [op.op_id for op in loop.ops],
                 sorted(r.rid for r in loop.registers()))
        assert after == before
        assert loop._fingerprint == hashlib.sha256(
            format_loop(loop).encode("utf-8")).hexdigest()

    def test_bound_evicts_the_oldest_text_first(self, tmp_path, monkeypatch):
        from repro.serve import server

        monkeypatch.setattr(server, "LOOP_TABLE_LIMIT", 2)
        a, b, c = self._texts(3)
        service = server.CompileService(str(tmp_path / "store"))
        try:
            first = service._loop_for(a)
            service._loop_for(b)
            assert service._loop_for(a) is first  # a hit does not reorder
            service._loop_for(c)
            assert list(service._loops) == [b, c]
            assert service._loop_for(a) is not first
            assert list(service._loops) == [c, a]
        finally:
            service.close()
        counters = service.metrics.snapshot()["counters"]
        assert counters["serve.loops_parsed"] == 4
        assert counters["serve.loops_reused"] == 1


class _RecordingWriter:
    """A stream writer that keeps each ``write`` as one bytes object."""

    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.writes.append(bytes(data))

    async def drain(self) -> None:
        pass


def _submit_writes(service, texts: list[str], configs: list[str] | None = None,
                   req_id="r1") -> list[bytes]:
    """The writes of one ``submit`` through an in-process ``service``."""
    import asyncio

    writer = _RecordingWriter()
    doc = {"op": "submit", "id": req_id, "loops": [{"text": t} for t in texts]}
    if configs is not None:
        doc["configs"] = configs
    asyncio.run(service._handle_submit(doc, writer))
    return writer.writes


@pytest.fixture(scope="class")
def warm_service(tmp_path_factory):
    """An in-process service whose store holds 12 corpus loops × the six
    paper configs, and those loops' texts."""
    from repro.serve.server import CompileService

    texts = TestLoopTable._texts(12)
    service = CompileService(str(tmp_path_factory.mktemp("warm") / "store"))
    try:
        done = decode_line(_submit_writes(service, texts)[-1].splitlines()[-1])
        assert done["compiled"] == len(texts) * len(PAPER_CONFIG_ORDER)
        yield service, texts
    finally:
        service.close()


@pytest.fixture
def frozen_clock(monkeypatch):
    """Stop the request clock of the service and of its oracle, so two
    runs of one request report the same ``elapsed_ms``."""
    import types

    from repro.serve import server
    from tests import golden

    clock = types.SimpleNamespace(perf_counter=lambda: 0.0)
    monkeypatch.setattr(server, "time", clock)
    monkeypatch.setattr(golden, "time", clock)


def _per_line_path(monkeypatch) -> None:
    """Send every reply line with its own write, as the oracle does."""
    from repro.serve.server import CompileService
    from tests.golden import _reference_submit_admitted

    monkeypatch.setattr(CompileService, "_submit_admitted",
                        _reference_submit_admitted)


class TestReplyBatches:
    """Reply lines that are ready together go out in one write; the
    bytes on the wire are those of one write per line."""

    def test_all_warm_request_is_one_write(self, warm_service):
        service, texts = warm_service
        writes = _submit_writes(service, texts[:1])
        assert len(writes) == 1
        replies = [decode_line(line) for line in writes[0].splitlines()]
        n_configs = len(PAPER_CONFIG_ORDER)
        assert [r["type"] for r in replies] == (
            ["accepted"] + ["cell"] * n_configs + ["done"])
        assert replies[-1]["store_hits"] == n_configs

    def test_large_reply_is_split_at_the_bound(
        self, warm_service, frozen_clock, monkeypatch
    ):
        from repro.serve import server

        service, texts = warm_service
        (whole,) = _submit_writes(service, texts)
        bound = 2048
        monkeypatch.setattr(server, "WRITE_BATCH_BYTES", bound)
        writes = _submit_writes(service, texts)
        assert len(writes) > 1
        assert b"".join(writes) == whole
        for data in writes:
            assert data.endswith(b"\n")
            # the bound is passed by the last line only
            assert len(data) - len(data.splitlines(keepends=True)[-1]) < bound
        assert all(len(data) >= bound for data in writes[:-1])

    def test_warm_replies_equal_the_per_line_path(
        self, warm_service, frozen_clock, monkeypatch
    ):
        service, texts = warm_service
        requests = [
            (texts[:1], None, "r1"),
            (texts[:5], ["2/embedded", "8 Clusters / Copy Unit"],
             {"b": ["\u00e9", 2.5], "a": None}),
        ]
        batched = [_submit_writes(service, *req) for req in requests]
        _per_line_path(monkeypatch)
        per_line = [_submit_writes(service, *req) for req in requests]
        for new, old in zip(batched, per_line):
            assert all(data.count(b"\n") == 1 for data in old)
            assert len(new) == 1 < len(old)
            assert b"".join(new) == b"".join(old)

    def test_cold_replies_equal_the_per_line_path(
        self, tmp_path, frozen_clock, monkeypatch
    ):
        """Warm cells, compiled ones and ones attached to them in flight,
        on all six configs: a batch of futures goes out in plan order."""
        from repro.serve.server import CompileService

        a, b = TestLoopTable._texts(2)
        n_configs = len(PAPER_CONFIG_ORDER)

        def run(name: str) -> list[bytes]:
            service = CompileService(str(tmp_path / name))
            try:
                _submit_writes(service, [a])
                return _submit_writes(service, [a, b, b])
            finally:
                service.close()

        batched = run("batched")
        _per_line_path(monkeypatch)
        per_line = run("per-line")
        assert [decode_line(line)["type"] for line in b"".join(batched).splitlines()] \
            == ["accepted"] + ["cell"] * 3 * n_configs + ["done"]
        # accepted + the warm cells; then the compiled cells and done
        assert [data.count(b"\n") for data in batched] == [1 + n_configs, 1 + 2 * n_configs]
        assert len(per_line) == 2 + 3 * n_configs
        assert b"".join(batched) == b"".join(per_line)

    def test_cold_reply_bytes_are_reproducible(self, tmp_path, frozen_clock):
        """Cold submissions of one 2-loop × 6-config request on fresh
        stores send the same bytes: cells whose futures finish together
        go out in plan order."""
        from repro.serve.server import CompileService

        texts = TestLoopTable._texts(2)
        replies = []
        for run in range(6):
            service = CompileService(str(tmp_path / f"st{run}"))
            try:
                replies.append(b"".join(_submit_writes(service, texts)))
            finally:
                service.close()
        done = decode_line(replies[0].splitlines()[-1])
        assert done["compiled"] == 2 * len(PAPER_CONFIG_ORDER)
        assert replies == [replies[0]] * 6

    def test_warm_line_is_encode_line_on_every_quick40_record(self, tmp_path):
        """The warm ``cell`` line spliced from a record's meta line (read
        from disk), or from re-encoded metrics (an entry built in this
        process), equals ``encode_line`` of the cell document."""
        from repro.core.fingerprint import key_prefix, store_key
        from repro.serve.protocol import encode_json
        from repro.serve.server import _WARM_CELL
        from repro.store.tiered import ArtifactStore

        config = PipelineConfig(run_regalloc=False)
        loops = spec95_corpus(n=40)
        built = ArtifactStore.open(tmp_path / "st", l1_capacity=None)
        run_evaluation(loops, config=config, store=built)
        read = ArtifactStore.open(tmp_path / "st")
        req_id = "r\u00e9"
        sources = {"spliced": 0, "encoded": 0}
        for n_clusters, model in PAPER_CONFIG_ORDER:
            machine = paper_machine(n_clusters, model)
            label = config_label(n_clusters, model)
            prefix = key_prefix(machine, config)
            for i, loop in enumerate(loops):
                key = store_key(loop, machine, config, prefix)
                for store in (read, built):
                    entry = store.lookup(key)
                    sources["encoded" if entry._meta_line is None else "spliced"] += 1
                    doc = {
                        "type": "cell", "id": req_id, "loop_index": i,
                        "loop": loop.name, "config": label, "source": "store",
                        "ok": True, "metrics": entry.metrics().to_dict(),
                    }
                    line = _WARM_CELL % (
                        encode_json(label), encode_json(req_id),
                        encode_json(loop.name), i, entry.metrics_json(),
                    )
                    assert line == encode_line(doc)
        n_records = len(loops) * len(PAPER_CONFIG_ORDER)
        assert sources == {"spliced": n_records, "encoded": n_records}

    def test_metrics_json_re_encodes_an_unexpected_meta_line(self):
        from repro.store.entry import StoreEntry, _dumps

        metrics = {"ii": 3, "ipc": 1.5}
        for meta, line in (
            ({"loop_name": "x", "metrics": metrics, "note": 1},
             b'{"loop_name":"x","metrics":{"ii":3,"ipc":1.5},"note":1}'),
            ({"loop_name": "x", "metrics": metrics},
             b'{"loop_name": "x", "metrics": {"ii": 3, "ipc": 1.5}}'),
        ):
            entry = StoreEntry("d", {}, meta, meta_line=line)
            assert entry.metrics_json() == _dumps(metrics)
        spliced = StoreEntry("d", {}, {"loop_name": "x", "metrics": metrics},
                             meta_line=b'{"loop_name":"x","metrics":{"ipc":1.5,"ii":3}}')
        assert spliced.metrics_json() == b'{"ipc":1.5,"ii":3}'


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
