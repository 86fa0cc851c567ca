"""Wire protocol of the compile service: line-delimited JSON over TCP.

One connection carries any number of requests; every message — in both
directions — is a single JSON object on its own ``\\n``-terminated line
(UTF-8).  Clients send an ``op`` and the server answers with one or
more typed lines; ``submit`` is the only streaming op.

Client → server ops::

    {"op": "ping"}
    {"op": "stats"}
    {"op": "shutdown"}                    # begin a graceful drain
    {"op": "submit", "id": "r1",
     "loops": [{"text": "loop ... end"}, ...],
     "configs": ["4/embedded", "8 Clusters / Copy Unit", ...],
     "deadline": 30.0}                    # optional per-request budget

Server → client lines for a ``submit``::

    {"type": "accepted", "id": "r1", "cells": 12, "configs": [...]}
    {"type": "cell", "id": "r1", "loop_index": 0, "loop": "daxpy",
     "config": "...", "ok": true, "source": "store", "metrics": {...}}
    {"type": "cell", ..., "ok": false, "failure": {...}}
    {"type": "done", "id": "r1", "cells": 12, "store_hits": 12,
     "inflight_hits": 0, "compiled": 0, "failures": 0, "elapsed_ms": 3}

plus ``{"type": "error", "error": "..."}`` for refused admissions
(draining daemon, full queue) and malformed requests; ``ping``/
``stats``/``shutdown`` answer with ``pong``/``stats``/``draining``.
``cell`` lines arrive in completion order.  The server sends the lines
that are ready together in one write, so one read may return several
lines: read line by line, never one message per ``recv``.

Config specifiers accept both the short ``"4/embedded"`` form and the
report labels the runner prints (``"4 Clusters / Embedded"``); omitted
``configs`` means the paper's six-column grid.
"""

from __future__ import annotations

import json

from repro.machine.machine import CopyModel

#: bumped on incompatible message changes; ping/pong carries it
PROTOCOL_VERSION = 1

#: default TCP port of ``repro serve`` (--port 0 binds an ephemeral one)
DEFAULT_PORT = 8723

#: default admission-queue bound: pending cold cells beyond this are
#: refused rather than buffered without limit (backpressure)
DEFAULT_QUEUE_LIMIT = 4096

_MODEL_NAMES = {
    "embedded": CopyModel.EMBEDDED,
    "copy_unit": CopyModel.COPY_UNIT,
    "copy unit": CopyModel.COPY_UNIT,
}


class ProtocolError(ValueError):
    """A message violates the line-JSON protocol."""


def parse_config_spec(spec: str) -> tuple[int, CopyModel]:
    """``"4/embedded"`` or ``"4 Clusters / Embedded"`` → ``(4, model)``."""
    if not isinstance(spec, str) or "/" not in spec:
        raise ProtocolError(f"bad config spec {spec!r} (want N/MODEL)")
    left, _, right = spec.partition("/")
    left = left.strip().lower().removesuffix("clusters").strip()
    try:
        n_clusters = int(left)
    except ValueError as exc:
        raise ProtocolError(f"bad cluster count in config spec {spec!r}") from exc
    model = _MODEL_NAMES.get(right.strip().lower())
    if model is None:
        raise ProtocolError(
            f"bad copy model in config spec {spec!r} "
            f"(want embedded or copy_unit)"
        )
    return n_clusters, model


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))``, built once
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_json(value) -> bytes:
    """One JSON value as the wire writes it: keys sorted, no spaces."""
    return _ENCODER.encode(value).encode("utf-8")


def encode_line(doc: dict) -> bytes:
    """One message → one terminated wire line."""
    return encode_json(doc) + b"\n"


def decode_line(line: bytes | str) -> dict:
    """One wire line → the message dict; anything else is a protocol error."""
    try:
        doc = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad message line: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("message is not a JSON object")
    return doc
