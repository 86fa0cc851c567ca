"""Blocking client for the compile service.

A thin synchronous counterpart to the asyncio daemon: one TCP
connection, line-JSON in both directions, results decoded back into the
same :class:`~repro.core.results.LoopMetrics`/
:class:`~repro.core.results.LoopFailure` values a local evaluation
produces — so callers (the ``repro submit`` subcommand, tests, the
benchmark's served leg) can compare served output against local output
byte for byte.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.results import LoopFailure, LoopMetrics
from repro.ir.block import Loop
from repro.ir.printer import format_loop
from repro.serve.protocol import DEFAULT_PORT, decode_line, encode_line


class ServeError(RuntimeError):
    """The daemon refused or garbled a request (drain, full queue, ...)."""


@dataclass
class CellResult:
    """One streamed cell outcome, decoded."""

    loop_index: int
    loop_name: str
    config: str
    source: str          # "store" | "inflight" | "compiled" | "" (cut off)
    metrics: LoopMetrics | None = None
    failure: LoopFailure | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class SubmitResult:
    """Everything one ``submit`` streamed, plus the ``done`` summary."""

    cells: list[CellResult] = field(default_factory=list)
    store_hits: int = 0
    inflight_hits: int = 0
    compiled: int = 0
    failures: int = 0
    elapsed_ms: int = 0

    @property
    def ok(self) -> bool:
        return self.failures == 0


class ServeClient:
    """One blocking connection to a ``repro serve`` daemon."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 timeout: float | None = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # wire helpers
    # ------------------------------------------------------------------
    def _request(self, doc: dict) -> None:
        self._sock.sendall(encode_line(doc))

    def _response(self) -> dict:
        line = self._rfile.readline()
        if not line:
            raise ServeError("connection closed by server")
        doc = decode_line(line)
        if doc.get("type") == "error":
            raise ServeError(doc.get("error", "unspecified server error"))
        return doc

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        self._request({"op": "ping"})
        return self._response()

    def stats(self) -> dict:
        self._request({"op": "stats"})
        return self._response()

    def shutdown(self) -> dict:
        """Ask the daemon to begin a graceful drain."""
        self._request({"op": "shutdown"})
        return self._response()

    def submit(
        self,
        loops: Iterable[Loop | str],
        configs: Sequence[str] | None = None,
        deadline: float | None = None,
        request_id: str | None = None,
        on_cell: Callable[[CellResult], None] | None = None,
    ) -> SubmitResult:
        """Submit loops (IR text or parsed), stream cells until ``done``.

        Raises :class:`ServeError` on refusal (draining daemon, full
        queue, malformed loop).  ``on_cell`` observes results in arrival
        order; the returned :class:`SubmitResult` holds them all.
        """
        loop_docs = [
            {"text": loop if isinstance(loop, str) else format_loop(loop)}
            for loop in loops
        ]
        doc: dict = {"op": "submit", "loops": loop_docs}
        if request_id is not None:
            doc["id"] = request_id
        if configs is not None:
            doc["configs"] = list(configs)
        if deadline is not None:
            doc["deadline"] = deadline
        self._request(doc)
        accepted = self._response()
        if accepted.get("type") != "accepted":
            raise ServeError(f"expected acceptance, got {accepted!r}")
        result = SubmitResult()
        while True:
            msg = self._response()
            kind = msg.get("type")
            if kind == "cell":
                cell = CellResult(
                    loop_index=int(msg["loop_index"]),
                    loop_name=msg["loop"],
                    config=msg["config"],
                    source=msg.get("source", ""),
                    metrics=(
                        LoopMetrics.from_dict(msg["metrics"])
                        if msg.get("metrics") is not None else None
                    ),
                    failure=(
                        LoopFailure(**msg["failure"])
                        if msg.get("failure") is not None else None
                    ),
                )
                result.cells.append(cell)
                if on_cell is not None:
                    on_cell(cell)
            elif kind == "done":
                result.store_hits = int(msg.get("store_hits", 0))
                result.inflight_hits = int(msg.get("inflight_hits", 0))
                result.compiled = int(msg.get("compiled", 0))
                result.failures = int(msg.get("failures", 0))
                result.elapsed_ms = int(msg.get("elapsed_ms", 0))
                return result
            else:
                raise ServeError(f"unexpected message {kind!r} in stream")
