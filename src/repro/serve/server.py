"""The compile daemon: an asyncio batch-compile service over the store.

``repro serve --store DIR`` turns the durable artifact store into a
long-running service.  Clients connect over TCP, submit loop text plus
configuration labels (:mod:`repro.serve.protocol`), and the
:class:`CompileService`:

* answers **warm** cells straight from the
  :class:`~repro.store.ArtifactStore` metrics fast path (a two-line
  disk read, no worker round-trip);
* **deduplicates in-flight work** — cells whose store key is already
  being compiled (for any client) attach to the existing future instead
  of compiling twice;
* shards the remaining **cold** cells across a
  :class:`~concurrent.futures.ProcessPoolExecutor` using the evaluation
  runner's chunking and poison-isolation discipline (a crashed worker
  fails only its chunk, which is retried cell-by-cell on a fresh pool;
  the repeat offender becomes a ``crash`` failure, everything else
  survives);
* **streams** per-cell results as they land, in completion order, under
  an optional per-request deadline enforced in the workers via nested
  :func:`~repro.core.faults.deadline` budgets;
* applies **backpressure** through a bounded admission queue — pending
  cold cells beyond ``queue_limit`` refuse the submission instead of
  buffering without bound;
* **drains gracefully** on SIGTERM/SIGINT (or the ``shutdown`` op):
  in-flight requests finish and stream their tails, new submissions are
  refused, and the process exits 0 once idle.

Observability rides along: a :class:`~repro.obs.MetricsRegistry` counts
requests, refusals and per-source cell outcomes (exposed by the
``stats`` op and ``--metrics-out``), and an optional
:class:`~repro.obs.Tracer` records one span tree per request.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import signal
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

from repro.core.fingerprint import StoreKeyPrefix, key_prefix, store_key
from repro.core.pipeline import PipelineConfig
from repro.core.results import LoopFailure, LoopMetrics
from repro.evalx.runner import PAPER_CONFIG_ORDER, Cell, config_label
from repro.ir.block import Loop
from repro.ir.parser import parse_loop
from repro.machine.machine import CopyModel, MachineDescription
from repro.machine.presets import paper_machine
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve.protocol import (
    DEFAULT_QUEUE_LIMIT,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode_line,
    parse_config_spec,
)
from repro.serve.worker import compile_serve_chunk
from repro.store.entry import StoreEntryError
from repro.store.tiered import ArtifactStore, StoreStats


class _WatchdogReaped(Exception):
    """Internal: a chunk's worker was reaped; its cells are settled."""


class _ColdCell:
    """One admitted cold cell: identity, dedup slot and worker inputs."""

    __slots__ = ("slot", "digest", "loop", "n_clusters", "model_value", "label")

    def __init__(self, slot: int, digest: str, loop: Loop,
                 n_clusters: int, model_value: str, label: str):
        self.slot = slot
        self.digest = digest
        self.loop = loop
        self.n_clusters = n_clusters
        self.model_value = model_value
        self.label = label


class CompileService:
    """State and request handling of one ``repro serve`` daemon."""

    def __init__(
        self,
        store_path: str,
        jobs: int = 1,
        pipeline_config: PipelineConfig | None = None,
        cell_timeout: float | None = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        tracer: Tracer | None = None,
        watchdog_grace: float = 2.0,
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
        self.watchdog_grace = watchdog_grace
        self.metrics = MetricsRegistry()
        self.tracer = tracer
        self.worker_store_stats = StoreStats()
        self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        #: store-key digest -> future resolving to the compiled Cell
        self._inflight: dict[str, asyncio.Future] = {}
        #: worker slot id -> digest (how outcomes find their future)
        self._slot_digest: dict[int, str] = {}
        self._next_slot = 0
        self._pending_cells = 0
        self._active_requests = 0
        self._req_seq = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._isolate_lock = asyncio.Lock()
        #: at most ``jobs`` chunks may be submitted to the pool at once.
        #: ProcessPoolExecutor marks queued work items RUNNING as soon as
        #: they enter its call queue, so without this gate the watchdog
        #: could not tell a stuck chunk from one parked behind it and
        #: would reap innocents; gated, a submitted chunk is genuinely
        #: executing and its running time is honest.
        self._pool_gate = asyncio.Semaphore(self.jobs)
        self._machines: dict[str, MachineDescription] = {}
        self._prefixes: dict[str, StoreKeyPrefix] = {}
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
        self._pool.shutdown(wait=True)

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

        return {
            "type": "stats",
            "protocol": PROTOCOL_VERSION,
            "draining": self._draining,
            "jobs": self.jobs,
            "store_path": self.store_path,
            "queue_depth": self._pending_cells,
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

    async def _handle_submit(
        self, doc: dict, writer: asyncio.StreamWriter
    ) -> None:
        req_id = doc.get("id")
        t0 = time.perf_counter()
        self._req_seq += 1

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
        try:
            configs = [parse_config_spec(s) for s in specs]
        except ProtocolError as exc:
            await refuse(str(exc))
            return
        labels = [config_label(n, m) for n, m in configs]
        loop_docs = doc.get("loops") or []
        loops: list[Loop] = []
        for i, ldoc in enumerate(loop_docs):
            text = ldoc.get("text") if isinstance(ldoc, dict) else None
            if not isinstance(text, str):
                await refuse(f"loop {i}: no IR text")
                return
            try:
                loops.append(parse_loop(text))
            except Exception as exc:
                await refuse(f"loop {i} does not parse: {exc}")
                return
        if not loops:
            await refuse("empty submission (no loops)")
            return
        budget = doc.get("deadline")
        budget = float(budget) if budget else None
        if budget is not None and budget <= 0:
            budget = None
        n_cells = len(loops) * len(labels)

        # ---- admission (backpressure) -------------------------------
        if self._pending_cells + n_cells > self.queue_limit:
            await refuse(
                f"queue full ({self._pending_cells} cells pending, "
                f"limit {self.queue_limit}); retry later"
            )
            return

        self.metrics.counter("serve.requests").inc()
        self._active_requests += 1
        req_tracer = Tracer() if self.tracer is not None else None
        scope = (
            req_tracer.cell(self._req_seq, "serve.request",
                            loop_name=str(req_id) if req_id else None)
            if req_tracer is not None else None
        )
        if scope is not None:
            scope.__enter__()
        try:
            await self._submit_admitted(
                req_id, loops, configs, labels, budget, writer, t0, req_tracer,
            )
        finally:
            if scope is not None:
                scope.__exit__(None, None, None)
            if req_tracer is not None:
                self.tracer.add_spans(req_tracer.spans)
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
        req_tracer: Tracer | None,
    ) -> None:
        await self._send(writer, {
            "type": "accepted", "id": req_id,
            "cells": len(loops) * len(labels), "configs": labels,
        })
        counts = {"store": 0, "inflight": 0, "compiled": 0, "failures": 0}

        async def stream_cell(
            loop_index: int, loop: Loop, label: str, source: str,
            metrics: LoopMetrics | None, failure: LoopFailure | None,
        ) -> None:
            out = {
                "type": "cell", "id": req_id, "loop_index": loop_index,
                "loop": loop.name, "config": label, "source": source,
                "ok": failure is None,
            }
            if failure is None:
                counts[source] += 1
                self.metrics.counter(f"serve.cells.{source}").inc()
                out["metrics"] = dataclasses.asdict(metrics)
            else:
                counts["failures"] += 1
                self.metrics.counter("serve.cells.failed").inc()
                out["failure"] = dataclasses.asdict(failure)
            self.metrics.counter("serve.cells").inc()
            await self._send(writer, out)

        # ---- plan: warm cells answered now, cold cells admitted -----
        lookup_span = (
            req_tracer.span("serve.lookup", cat="serve")
            if req_tracer is not None else None
        )
        #: future -> [(loop_index, loop, label, source)] attached cells
        waiting: dict[asyncio.Future, list] = {}
        cold: list[_ColdCell] = []
        warm: list[tuple] = []
        for loop_index, loop in enumerate(loops):
            for (n_clusters, model), label in zip(configs, labels):
                machine, prefix = self._machine_for(label, n_clusters, model)
                key = store_key(loop, machine, self.pipeline_config, prefix)
                entry = self.store.lookup(key)
                if entry is not None:
                    try:
                        warm.append((loop_index, loop, label, entry.metrics()))
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
                slot = self._next_slot
                self._next_slot += 1
                self._slot_digest[slot] = key.digest
                self._pending_cells += 1
                cold.append(_ColdCell(
                    slot, key.digest, loop, n_clusters, model.value, label,
                ))
                waiting.setdefault(fut, []).append(
                    (loop_index, loop, label, "compiled")
                )
        self.metrics.gauge("serve.queue_depth").set(self._pending_cells)
        if lookup_span is not None:
            with lookup_span as s:
                s.set(warm=len(warm), cold=len(cold),
                      attached=sum(len(v) for v in waiting.values()) - len(cold))

        # warm cells stream first — the client sees store hits immediately
        for loop_index, loop, label, metrics in warm:
            await stream_cell(loop_index, loop, label, "store", metrics, None)

        # ---- shard cold cells over the pool, evalx-style ------------
        # chunk whole loops (cells of one loop stay together so the
        # worker-local cache gives them the 1-miss/(k-1)-hit profile),
        # ~4 chunks per worker like the evaluation runner
        groups: dict[int, list[_ColdCell]] = {}
        for cell in cold:
            groups.setdefault(id(cell.loop), []).append(cell)
        loop_groups = list(groups.values())
        per_chunk = max(1, math.ceil(len(loop_groups) / (self.jobs * 4)))
        for i in range(0, len(loop_groups), per_chunk):
            chunk = [c for g in loop_groups[i:i + per_chunk] for c in g]
            asyncio.get_running_loop().create_task(
                self._run_chunk(chunk, budget)
            )

        # ---- stream the rest in completion order --------------------
        # workers enforce the request budget; the server-side cutoff is
        # the backstop for cells attached to another request's longer-
        # budget future (plus a little grace so worker-reported timeout
        # failures win the race against the cutoff)
        cutoff = t0 + budget + 0.5 if budget is not None else None
        pending = set(waiting)
        while pending:
            timeout = (
                None if cutoff is None
                else max(cutoff - time.perf_counter(), 0.0)
            )
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED, timeout=timeout,
            )
            if not done:
                break  # request deadline passed server-side
            for fut in done:
                cell: Cell = fut.result()
                for loop_index, loop, label, source in waiting[fut]:
                    await stream_cell(
                        loop_index, loop, label, source,
                        cell.metrics, self._relabel(cell.failure, loop, label),
                    )
        for fut in pending:
            for loop_index, loop, label, _source in waiting[fut]:
                failure = LoopFailure(
                    config=label, loop_name=loop.name,
                    error=f"request deadline of {budget:g}s exceeded",
                    kind="timeout",
                )
                await stream_cell(loop_index, loop, label, "", None, failure)

        elapsed_ms = (time.perf_counter() - t0) * 1e3
        self.metrics.histogram("serve.request_ms").observe(elapsed_ms)
        await self._send(writer, {
            "type": "done", "id": req_id,
            "cells": len(loops) * len(labels),
            "store_hits": counts["store"],
            "inflight_hits": counts["inflight"],
            "compiled": counts["compiled"],
            "failures": counts["failures"],
            "elapsed_ms": int(elapsed_ms),
        })

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
    def _payload(self, cells: list[_ColdCell], budget: float | None):
        return (
            [(c.slot, c.loop, c.n_clusters, c.model_value) for c in cells],
            self.pipeline_config, self.cell_timeout, budget, self.store_path,
        )

    def _watchdog_limit(
        self, n_cells: int, budget: float | None
    ) -> float | None:
        """How long a *running* chunk may take before the watchdog reaps
        its worker.  The worker's own deadlines bound it to
        ``min(request budget, cell_timeout * n_cells)``; the grace on top
        covers honest overhead (store writes, pickling).  ``None`` means
        the chunk carries no deadline at all and runs unsupervised."""
        bounds = []
        if budget is not None:
            bounds.append(budget)
        if self.cell_timeout is not None:
            bounds.append(self.cell_timeout * n_cells)
        if not bounds:
            return None
        return min(bounds) + self.watchdog_grace

    async def _run_chunk(
        self, cells: list[_ColdCell], budget: float | None
    ) -> None:
        """Compile one chunk; poison isolation mirrors the evalx runner."""
        async with self._pool_gate:
            # read the live pool only once a slot is free: a chunk that
            # waited out a watchdog reap must land on the replacement
            # pool, not the corpse
            pool = self._pool
            try:
                outcomes, stats = await self._supervise(pool, cells, budget)
            except _WatchdogReaped:
                return  # cells already absorbed as timeout failures
            except Exception as exc:
                # the chunk poisoned its worker (or did not survive
                # pickling): isolate cell-by-cell on a healthy pool
                self.metrics.counter("serve.pool_breaks").inc()
                if isinstance(exc, BrokenExecutor):
                    self._pool_failed(pool)
                await self._isolate(cells, budget)
                return
        self._absorb(outcomes, stats)

    async def _supervise(
        self, pool: ProcessPoolExecutor, cells: list[_ColdCell],
        budget: float | None,
    ):
        """Run one chunk on ``pool``, reaping a worker stuck past its
        deadline.

        The worker enforces its own budgets with ``SIGALRM`` deadlines —
        which a worker wedged in uninterruptible work (C extension,
        blocked signals; see ``REPRO_FAULT_STUCK``) never honours.
        Without supervision such a worker occupies a pool slot forever
        and its cells' futures never resolve, leaking ``_pending_cells``
        until admission refuses everything.  The watchdog accumulates
        time only while the chunk is actually *running* (a queued chunk
        behind a slow one is not stuck) and, past the limit, ``SIGKILL``s
        the pool's processes — the only signal a wedged worker cannot
        block — swaps in a fresh pool and degrades the chunk's cells to
        typed ``timeout`` failures.
        """
        cf = pool.submit(compile_serve_chunk, self._payload(cells, budget))
        afut = asyncio.wrap_future(cf)
        limit = self._watchdog_limit(len(cells), budget)
        if limit is None:
            return await afut
        poll = min(0.1, limit / 4)
        running_for = 0.0
        while True:
            try:
                return await asyncio.wait_for(asyncio.shield(afut), poll)
            except asyncio.TimeoutError:
                if cf.running():
                    running_for += poll
                if running_for >= limit:
                    break
        # the chunk may have completed between the last poll and now
        if afut.done() and not afut.cancelled() and afut.exception() is None:
            return afut.result()
        self.metrics.counter("serve.watchdog_reaps").inc()
        # the abandoned future will fail once the pool dies; retrieve the
        # exception so it is not logged as never-consumed
        afut.add_done_callback(
            lambda f: None if f.cancelled() else f.exception()
        )
        if not cf.cancel():
            procs = list((pool._processes or {}).values())
            for proc in procs:
                proc.kill()
        self._pool_failed(pool)
        self._absorb([
            Cell(
                loop_index=cell.slot, config=cell.label,
                failure=LoopFailure(
                    config=cell.label, loop_name=cell.loop.name,
                    error=f"worker stuck past its deadline; reaped by the "
                          f"watchdog after {running_for:.1f}s",
                    kind="timeout",
                ),
            )
            for cell in cells
        ], None)
        raise _WatchdogReaped()

    async def _isolate(
        self, cells: list[_ColdCell], budget: float | None
    ) -> None:
        loop = asyncio.get_running_loop()
        for cell in cells:
            # serialised: a retried cell runs alone on the pool, so a
            # break during it convicts *this* cell — a concurrent chunk's
            # crasher cannot take innocent retries down with it (the
            # evalx runner gets the same guarantee from its serial
            # phase-2 loop)
            async with self._isolate_lock:
                pool = self._pool
                try:
                    outcomes, stats = await loop.run_in_executor(
                        pool, compile_serve_chunk,
                        self._payload([cell], budget),
                    )
                except Exception as exc:
                    # died alone: this cell is the culprit
                    if isinstance(exc, BrokenExecutor):
                        self._pool_failed(pool)
                    outcomes, stats = None, None
                    failure = exc
            if outcomes is not None:
                self._absorb(outcomes, stats)
            else:
                self._absorb([Cell(
                    loop_index=cell.slot, config=cell.label,
                    failure=LoopFailure(
                        config=cell.label, loop_name=cell.loop.name,
                        error=repr(failure), kind="crash", attempts=2,
                    ),
                )], None)

    def _pool_failed(self, pool: ProcessPoolExecutor) -> None:
        """Replace the pool iff ``pool`` is still the live one (several
        chunk tasks may observe the same break; only the first swaps)."""
        if self._pool is pool:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            pool.shutdown(wait=False)

    def _absorb(self, outcomes: list[Cell], stats: StoreStats | None) -> None:
        if stats is not None:
            self.worker_store_stats.merge(stats)
        for cell in outcomes:
            digest = self._slot_digest.pop(cell.loop_index, None)
            if digest is None:
                # already settled (a reaped chunk that then raced its own
                # completion): never double-count the queue depth
                continue
            self._pending_cells -= 1
            fut = self._inflight.pop(digest, None)
            if fut is not None and not fut.done():
                fut.set_result(cell)
        self.metrics.gauge("serve.queue_depth").set(self._pending_cells)


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
    watchdog_grace: float = 2.0,
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
