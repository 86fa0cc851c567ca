"""The compile daemon: an asyncio batch-compile service over the store.

``repro serve --store DIR`` turns the durable artifact store into a
long-running service.  Clients connect over TCP, submit loop text plus
configuration labels (:mod:`repro.serve.protocol`), and the
:class:`CompileService`:

* parses each distinct loop text **once**: a bounded table maps the
  texts it has seen to their parsed (and fingerprinted) loops;
* answers **warm** cells straight from the
  :class:`~repro.store.ArtifactStore` metrics fast path (a two-line
  disk read, no worker round-trip);
* **deduplicates in-flight work** — cells whose store key is already
  being compiled (for any client) attach to the existing future instead
  of compiling twice;
* shards the remaining **cold** cells in whole-loop chunks over the
  :class:`~repro.evalx.executor.SupervisedPool` that also runs
  ``evaluate`` and ``gap``, driven through ``asyncio.to_thread``: the
  pool's watchdog and crash isolation turn every worker fault into
  typed failure cells;
* **streams** per-cell results as they land, in completion order, under
  an optional per-request deadline that the workers enforce as the
  chunk budget of :func:`~repro.evalx.runner.compile_chunk`; the lines
  that are ready together (the ``accepted`` line and the warm cells, each
  batch of finished futures, the tail and ``done``) share one socket
  write, split at :data:`WRITE_BATCH_BYTES`;
* applies **backpressure** through a bounded admission queue — pending
  cold cells beyond ``queue_limit`` refuse the submission instead of
  buffering without bound;
* **drains gracefully** on SIGTERM/SIGINT (or the ``shutdown`` op):
  in-flight requests finish and stream their tails, new submissions are
  refused, and the process exits 0 once idle.

Observability rides along: a :class:`~repro.obs.MetricsRegistry` counts
requests, refusals, loop texts parsed and reused, per-source cell
outcomes and the pool's watchdog reaps and breaks, and keeps latency
histograms of all requests and of those answered wholly from the store
(exposed by the ``stats`` op and ``--metrics-out``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import signal
import time

from repro.core.fingerprint import StoreKeyPrefix, key_prefix, store_key
from repro.core.pipeline import PipelineConfig
from repro.core.results import LoopFailure, LoopMetrics
from repro.evalx.executor import DEFAULT_WATCHDOG_GRACE, SupervisedPool
from repro.evalx.runner import (
    PAPER_CONFIG_ORDER,
    Cell,
    ChunkPayload,
    chunk_cells,
    config_label,
)
from repro.ir.block import Loop
from repro.ir.parser import parse_loop
from repro.machine.machine import CopyModel, MachineDescription
from repro.machine.presets import paper_machine
from repro.obs.metrics import MetricsRegistry
from repro.serve.protocol import (
    DEFAULT_QUEUE_LIMIT,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode_json,
    encode_line,
    parse_config_spec,
)
from repro.serve.worker import compile_serve_chunk
from repro.store.entry import StoreEntryError
from repro.store.tiered import ArtifactStore, StoreStats

#: loop texts the daemon keeps parsed; past it, the oldest text is dropped
LOOP_TABLE_LIMIT = 512

#: a reply batch this large is written at once (asyncio's default write
#: high-water mark), so a large reply streams under backpressure
WRITE_BATCH_BYTES = 64 * 1024

#: a warm ``cell`` line, keys in the sorted order :func:`encode_line`
#: writes; the fields are the JSON of config, id, loop name, loop index
#: and the stored metrics
_WARM_CELL = (
    b'{"config":%s,"id":%s,"loop":%s,"loop_index":%d,"metrics":%s,'
    b'"ok":true,"source":"store","type":"cell"}\n'
)


class _ReplyBatch:
    """Reply lines that are ready together, sent as one write and one
    drain; a batch that reaches :data:`WRITE_BATCH_BYTES` goes out early."""

    __slots__ = ("_writer", "_lines", "_size")

    def __init__(self, writer: asyncio.StreamWriter):
        self._writer = writer
        self._lines: list[bytes] = []
        self._size = 0

    async def put(self, line: bytes) -> None:
        self._lines.append(line)
        self._size += len(line)
        if self._size >= WRITE_BATCH_BYTES:
            await self.flush()

    async def flush(self) -> None:
        if self._lines:
            data = b"".join(self._lines)
            self._lines = []
            self._size = 0
            self._writer.write(data)
            await self._writer.drain()


class CompileService:
    """State and request handling of one ``repro serve`` daemon."""

    def __init__(
        self,
        store_path: str,
        jobs: int = 1,
        pipeline_config: PipelineConfig | None = None,
        cell_timeout: float | None = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        watchdog_grace: float = DEFAULT_WATCHDOG_GRACE,
    ):
        self.store_path = store_path
        self.store = ArtifactStore.open(store_path)
        self.jobs = max(1, jobs)
        self.pipeline_config = (
            pipeline_config if pipeline_config is not None
            else PipelineConfig(run_regalloc=False)
        )
        self.cell_timeout = cell_timeout
        self.queue_limit = queue_limit
        self.metrics = MetricsRegistry()
        self.worker_store_stats = StoreStats()
        self._pool = SupervisedPool(self.jobs, watchdog_grace)
        #: the worker entry point, read when the service starts
        self._entry = compile_serve_chunk
        #: store-key digest -> future resolving to the compiled Cell; one
        #: entry per pending cold cell, so its size is the queue depth
        self._inflight: dict[str, asyncio.Future] = {}
        self._active_requests = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._machines: dict[str, MachineDescription] = {}
        self._prefixes: dict[str, StoreKeyPrefix] = {}
        #: loop text -> the loop it parsed to, oldest first.  Nothing here
        #: writes to a loop, so its fingerprint memo stays valid and every
        #: pickle sent to a worker is the same as a fresh parse's.
        self._loops: dict[str, Loop] = {}
        #: running chunk tasks (the event loop holds tasks weakly)
        self._chunk_tasks: set[asyncio.Task] = set()
        #: open connections: handler task -> its writer
        self._clients: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Refuse new submissions; signal ``wait_drained`` once idle."""
        self._draining = True
        if self._active_requests == 0:
            self._drained.set()

    async def wait_drained(self) -> None:
        await self._drained.wait()

    async def close_clients(self) -> None:
        """End every open connection once drained: closing a connection
        hands its handler end-of-input, so it returns normally instead of
        being cancelled mid-read at interpreter shutdown.  A handler that
        failed has already been reported by asyncio's stream callback."""
        for writer in self._clients.values():
            writer.close()
        await asyncio.gather(*self._clients, return_exceptions=True)

    def close(self) -> None:
        self._pool.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: serve line-JSON ops until the peer hangs up."""
        task = asyncio.current_task()
        self._clients[task] = writer
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    doc = decode_line(line)
                except ProtocolError as exc:
                    await self._send(writer, {"type": "error", "error": str(exc)})
                    continue
                op = doc.get("op")
                if op == "ping":
                    await self._send(writer, {
                        "type": "pong", "protocol": PROTOCOL_VERSION,
                        "draining": self._draining, "jobs": self.jobs,
                    })
                elif op == "stats":
                    await self._send(writer, self._stats_doc())
                elif op == "shutdown":
                    self.begin_drain()
                    await self._send(writer, {"type": "draining"})
                elif op == "submit":
                    await self._handle_submit(doc, writer)
                else:
                    await self._send(writer, {
                        "type": "error", "id": doc.get("id"),
                        "error": f"unknown op {op!r}",
                    })
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # peer went away; nothing left to tell it
        finally:
            del self._clients[task]
            writer.close()

    async def _send(self, writer: asyncio.StreamWriter, doc: dict) -> None:
        writer.write(encode_line(doc))
        await writer.drain()

    def _stats_doc(self) -> dict:
        def stats_json(stats: StoreStats) -> dict:
            doc = dataclasses.asdict(stats)
            doc["hits"] = stats.hits
            return doc

        # the pool counts its faults from driver threads; publish them
        for name, total in (("serve.watchdog_reaps", self._pool.reaps),
                            ("serve.pool_breaks", self._pool.breaks)):
            if total:
                self.metrics.counter(name).value = total
        return {
            "type": "stats",
            "protocol": PROTOCOL_VERSION,
            "draining": self._draining,
            "jobs": self.jobs,
            "store_path": self.store_path,
            "queue_depth": len(self._inflight),
            "inflight_keys": len(self._inflight),
            "active_requests": self._active_requests,
            "metrics": self.metrics.snapshot(),
            "server_store": stats_json(self.store.stats),
            "worker_store": stats_json(self.worker_store_stats),
        }

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _machine_for(self, label: str, n_clusters: int, model: CopyModel):
        machine = self._machines.get(label)
        if machine is None:
            machine = paper_machine(n_clusters, model)
            self._machines[label] = machine
            self._prefixes[label] = key_prefix(machine, self.pipeline_config)
        return machine, self._prefixes[label]

    def _loop_for(self, text: str) -> Loop:
        """The loop ``text`` parses to, parsed on its first sight only.
        A text that does not parse raises and is not remembered."""
        loop = self._loops.get(text)
        if loop is not None:
            self.metrics.counter("serve.loops_reused").inc()
            return loop
        loop = parse_loop(text)
        self.metrics.counter("serve.loops_parsed").inc()
        self._loops[text] = loop
        if len(self._loops) > LOOP_TABLE_LIMIT:
            del self._loops[next(iter(self._loops))]
        return loop

    async def _handle_submit(
        self, doc: dict, writer: asyncio.StreamWriter
    ) -> None:
        req_id = doc.get("id")
        t0 = time.perf_counter()

        async def refuse(message: str) -> None:
            self.metrics.counter("serve.refused").inc()
            await self._send(writer, {
                "type": "error", "id": req_id, "error": message,
            })

        if self._draining:
            await refuse("draining: new submissions are refused")
            return

        # ---- decode the request -------------------------------------
        specs = doc.get("configs") or [
            config_label(n, m) for n, m in PAPER_CONFIG_ORDER
        ]
        loop_docs = doc.get("loops") or []
        budget = doc.get("deadline")
        if not isinstance(specs, list) or not isinstance(loop_docs, list):
            await refuse("configs and loops must be lists")
            return
        if budget is not None and (
            type(budget) not in (int, float) or not math.isfinite(budget)
        ):
            await refuse(f"deadline must be a finite number, got {budget!r}")
            return
        try:
            configs = [parse_config_spec(s) for s in specs]
        except ProtocolError as exc:
            await refuse(str(exc))
            return
        labels = [config_label(n, m) for n, m in configs]
        loops: list[Loop] = []
        for i, ldoc in enumerate(loop_docs):
            text = ldoc.get("text") if isinstance(ldoc, dict) else None
            if not isinstance(text, str):
                await refuse(f"loop {i}: no IR text")
                return
            try:
                loops.append(self._loop_for(text))
            except Exception as exc:
                await refuse(f"loop {i} does not parse: {exc}")
                return
        if not loops:
            await refuse("empty submission (no loops)")
            return
        budget = float(budget) if budget is not None and budget > 0 else None
        n_cells = len(loops) * len(labels)

        # ---- admission (backpressure) -------------------------------
        if len(self._inflight) + n_cells > self.queue_limit:
            await refuse(
                f"queue full ({len(self._inflight)} cells pending, "
                f"limit {self.queue_limit}); retry later"
            )
            return

        self.metrics.counter("serve.requests").inc()
        self._active_requests += 1
        try:
            await self._submit_admitted(
                req_id, loops, configs, labels, budget, writer, t0,
            )
        finally:
            self._active_requests -= 1
            if self._draining and self._active_requests == 0:
                self._drained.set()

    async def _submit_admitted(
        self,
        req_id,
        loops: list[Loop],
        configs: list[tuple[int, CopyModel]],
        labels: list[str],
        budget: float | None,
        writer: asyncio.StreamWriter,
        t0: float,
    ) -> None:
        n_cells = len(loops) * len(labels)
        batch = _ReplyBatch(writer)
        await batch.put(encode_line({
            "type": "accepted", "id": req_id,
            "cells": n_cells, "configs": labels,
        }))
        counts = {"store": 0, "inflight": 0, "compiled": 0, "failures": 0}

        def cell_line(
            loop_index: int, loop: Loop, label: str, source: str,
            metrics: LoopMetrics | None, failure: LoopFailure | None,
        ) -> bytes:
            out = {
                "type": "cell", "id": req_id, "loop_index": loop_index,
                "loop": loop.name, "config": label, "source": source,
                "ok": failure is None,
            }
            if failure is None:
                counts[source] += 1
                self.metrics.counter(f"serve.cells.{source}").inc()
                out["metrics"] = metrics.to_dict()
            else:
                counts["failures"] += 1
                self.metrics.counter("serve.cells.failed").inc()
                out["failure"] = dataclasses.asdict(failure)
            self.metrics.counter("serve.cells").inc()
            return encode_line(out)

        # ---- plan: warm cells answered now, cold cells admitted -----
        #: future -> [(loop_index, loop, label, source)] attached cells
        waiting: dict[asyncio.Future, list] = {}
        cold: list[tuple[int, Loop, int, str]] = []
        cold_digests: list[str] = []
        warm: list[tuple] = []
        for loop_index, loop in enumerate(loops):
            for (n_clusters, model), label in zip(configs, labels):
                machine, prefix = self._machine_for(label, n_clusters, model)
                key = store_key(loop, machine, self.pipeline_config, prefix)
                entry = self.store.lookup(key)
                if entry is not None:
                    try:
                        entry.metrics()
                        warm.append((loop_index, loop, label, entry))
                        continue
                    except StoreEntryError:
                        self.store.reject(key)  # undecodable metrics: recompile
                fut = self._inflight.get(key.digest)
                if fut is not None:
                    waiting.setdefault(fut, []).append(
                        (loop_index, loop, label, "inflight")
                    )
                    continue
                fut = asyncio.get_running_loop().create_future()
                self._inflight[key.digest] = fut
                # keyed by position: the digest comes back by index
                cold.append((len(cold), loop, n_clusters, model.value))
                cold_digests.append(key.digest)
                waiting.setdefault(fut, []).append(
                    (loop_index, loop, label, "compiled")
                )
        self.metrics.gauge("serve.queue_depth").set(len(self._inflight))

        # ---- shard cold cells over the pool, evalx-style ------------
        # before the first write, so a failed write strands no future
        for chunk in chunk_cells(cold, self.jobs):
            task = asyncio.get_running_loop().create_task(
                self._run_chunk(chunk, cold_digests, budget)
            )
            self._chunk_tasks.add(task)
            task.add_done_callback(self._chunk_tasks.discard)

        # warm cells go out with the accepted line: the client sees store
        # hits at once.  Their metrics JSON is the stored record's own.
        if warm:
            counts["store"] = len(warm)
            self.metrics.counter("serve.cells.store").inc(len(warm))
            self.metrics.counter("serve.cells").inc(len(warm))
            id_json = encode_json(req_id)
            for loop_index, loop, label, entry in warm:
                await batch.put(_WARM_CELL % (
                    encode_json(label), id_json, encode_json(loop.name),
                    loop_index, entry.metrics_json(),
                ))

        # ---- stream the rest in completion order --------------------
        # workers enforce the request budget; the server-side cutoff is
        # the backstop for cells attached to another request's longer-
        # budget future (plus a little grace so worker-reported timeout
        # failures win the race against the cutoff)
        cutoff = t0 + budget + 0.5 if budget is not None else None
        # a batch of futures goes out in plan order, not the set's order
        plan_order = {fut: i for i, fut in enumerate(waiting)}
        pending = set(waiting)
        while pending:
            await batch.flush()  # what is ready goes out before the wait
            timeout = (
                None if cutoff is None
                else max(cutoff - time.perf_counter(), 0.0)
            )
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED, timeout=timeout,
            )
            if not done:
                break  # request deadline passed server-side
            for fut in sorted(done, key=plan_order.__getitem__):
                cell: Cell = fut.result()
                for loop_index, loop, label, source in waiting[fut]:
                    await batch.put(cell_line(
                        loop_index, loop, label, source,
                        cell.metrics, self._relabel(cell.failure, loop, label),
                    ))
        for fut in sorted(pending, key=plan_order.__getitem__):
            for loop_index, loop, label, _source in waiting[fut]:
                failure = LoopFailure(
                    config=label, loop_name=loop.name,
                    error=f"request deadline of {budget:g}s exceeded",
                    kind="timeout",
                )
                await batch.put(cell_line(loop_index, loop, label, "", None, failure))

        elapsed_ms = (time.perf_counter() - t0) * 1e3
        self.metrics.histogram("serve.request_ms").observe(elapsed_ms)
        if counts["store"] == n_cells:
            self.metrics.histogram("serve.warm_request_ms").observe(elapsed_ms)
        await batch.put(encode_line({
            "type": "done", "id": req_id,
            "cells": n_cells,
            "store_hits": counts["store"],
            "inflight_hits": counts["inflight"],
            "compiled": counts["compiled"],
            "failures": counts["failures"],
            "elapsed_ms": int(elapsed_ms),
        }))
        await batch.flush()

    @staticmethod
    def _relabel(
        failure: LoopFailure | None, loop: Loop, label: str
    ) -> LoopFailure | None:
        """A shared in-flight cell's failure, restated for this request."""
        if failure is None or (
            failure.config == label and failure.loop_name == loop.name
        ):
            return failure
        return dataclasses.replace(failure, config=label, loop_name=loop.name)

    # ------------------------------------------------------------------
    # worker-pool plumbing
    # ------------------------------------------------------------------
    async def _run_chunk(
        self, cells: list[tuple[int, Loop, int, str]], digests: list[str],
        budget: float | None,
    ) -> None:
        payload = ChunkPayload(
            cells=cells, config=self.pipeline_config,
            cell_timeout=self.cell_timeout, budget=budget,
            store_path=self.store_path,
        )
        results = await asyncio.to_thread(self._pool.run, self._entry, payload)
        for result in results:
            if result.store_stats is not None:
                self.worker_store_stats.merge(result.store_stats)
            for cell in result.cells:
                self._inflight.pop(digests[cell.loop_index]).set_result(cell)
        self.metrics.gauge("serve.queue_depth").set(len(self._inflight))


# ----------------------------------------------------------------------
# daemon entry point
# ----------------------------------------------------------------------


def serve_forever(
    store_path: str,
    host: str = "127.0.0.1",
    port: int = 0,
    jobs: int = 1,
    cell_timeout: float | None = None,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    pipeline_config: PipelineConfig | None = None,
    metrics_out: str | None = None,
    watchdog_grace: float = DEFAULT_WATCHDOG_GRACE,
) -> int:
    """Run the daemon until a drain completes; returns the exit status.

    Prints ``listening on HOST:PORT`` once the socket is bound (``--port
    0`` binds an ephemeral port, so tests and scripts parse this line),
    installs SIGTERM/SIGINT handlers that begin a graceful drain, and
    exits 0 after the last in-flight request has streamed its tail.
    """

    async def amain() -> None:
        service = CompileService(
            store_path, jobs=jobs, pipeline_config=pipeline_config,
            cell_timeout=cell_timeout, queue_limit=queue_limit,
            watchdog_grace=watchdog_grace,
        )
        server = await asyncio.start_server(service.handle_client, host, port)
        bound = server.sockets[0].getsockname()
        print(f"repro serve: listening on {bound[0]}:{bound[1]} "
              f"(store {store_path}, jobs {service.jobs})", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, service.begin_drain)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await service.wait_drained()
        server.close()
        await service.close_clients()
        await server.wait_closed()
        service.close()
        if metrics_out:
            import json

            with open(metrics_out, "w", encoding="utf-8") as fh:
                json.dump(service._stats_doc(), fh, sort_keys=True, indent=2)
                fh.write("\n")
        print("repro serve: drained, exiting", flush=True)

    try:
        asyncio.run(amain())
    except OSError as exc:
        # a clean refusal, not a traceback: the usual cause is the port
        # being held by another daemon
        print(f"repro serve: cannot listen on {host}:{port}: {exc}",
              flush=True)
        return 1
    return 0
