"""``repro serve`` with the per-layer ledger installed in its workers.

    python3 perfbench/traced_serve.py LEDGER_DIR serve --store DIR ...

The daemon hands its workers :func:`traced_chunk` instead of the
ordinary chunk entry point; on its first call in a worker process it
wraps the layer entry points there (:func:`perfbench.ledger.install`),
so only compile work in workers is charged.  After every chunk a worker
writes its cumulative ledger to ``LEDGER_DIR/worker-PID.json``; the
benchmark sums those files once the daemon has exited.  Everything after
``LEDGER_DIR`` is the ordinary ``repro`` command line.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench.common import require_repro  # noqa: E402
from perfbench.ledger import Ledger, install  # noqa: E402

LEDGER = Ledger()
LEDGER_DIR: pathlib.Path | None = None
_installed_in: int | None = None


def traced_chunk(payload):
    """The worker's chunk entry point as a ``serve.worker`` span."""
    global _installed_in
    from repro.serve import worker

    if _installed_in != os.getpid():
        install(LEDGER)
        _installed_in = os.getpid()
    t0 = time.perf_counter()
    out = LEDGER.span("serve.worker", worker.compile_serve_chunk)(payload)
    LEDGER.root_wall_s += time.perf_counter() - t0
    path = LEDGER_DIR / f"worker-{os.getpid()}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(LEDGER.snapshot()), encoding="utf-8")
    os.replace(tmp, path)
    return out


def main() -> int:
    global LEDGER_DIR
    LEDGER_DIR = pathlib.Path(sys.argv[1])
    require_repro()
    from repro.cli import main as repro_main
    from repro.serve import server

    server.compile_serve_chunk = traced_chunk
    return repro_main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
