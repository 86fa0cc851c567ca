"""Process-pool worker of the compile service.

One payload is a chunk of (loop, configuration) **cells** from a single
request; the worker compiles them exactly the way the evaluation
runner's workers do (worker-local :class:`ArtifactCache`, machines
rebuilt locally, ``maybe_inject_fault`` honoured, artifacts written to
the shared on-disk store) and returns picklable
:class:`~repro.evalx.runner.Cell` outcomes.

The daemon parses request loops after its workers fork, so their
register and operation ids come from the server's counters, not the
worker's.  Each chunk first moves the worker's counters past the ids of
its loops (:func:`repro.ir.reserve_ids`); otherwise copies minted here
could reuse a register id of the loop they are inserted into.

Fault budgets **stack** here: the whole chunk runs under the request's
remaining ``budget`` and every cell under the service's per-cell
``cell_timeout`` — the nested-:func:`~repro.core.faults.deadline` case
(an inner per-cell timer must hand the timer back to the outer
per-request budget on exit, see ``core/faults.py``).  A cell exceeding
its own budget is recorded as a ``timeout`` failure and the chunk moves
on; the request budget expiring fails the cell it interrupted *and*
every cell not yet attempted, so the server can stream a complete
response without waiting on work the client no longer wants.
"""

from __future__ import annotations

from repro.core.cache import ArtifactCache
from repro.core.faults import DeadlineExceeded, deadline
from repro.core.fingerprint import key_prefix
from repro.core.pipeline import PipelineConfig
from repro.evalx.runner import Cell, _compile_cell, _failure_cell, config_label
from repro.ir.block import Loop, reserve_ids
from repro.machine.machine import CopyModel
from repro.machine.presets import paper_machine
from repro.store.tiered import ArtifactStore, StoreStats

#: one cell of work: (slot id unique within the service, loop,
#: cluster count, copy-model value) — machines are rebuilt in-worker
ServeCell = tuple[int, Loop, int, str]

#: (cells, pipeline config, per-cell timeout, request budget, store path)
ServePayload = tuple[
    list[ServeCell], PipelineConfig, float | None, float | None, str | None
]

#: what travels home: per-slot outcomes plus the worker's store counters
ServeChunkResult = tuple[list[Cell], StoreStats | None]


def compile_serve_chunk(payload: ServePayload) -> ServeChunkResult:
    """Compile one request chunk under stacked request/cell deadlines."""
    cells, pipeline_config, cell_timeout, budget, store_path = payload
    reserve_ids(loop for _, loop, _, _ in cells)
    store = ArtifactStore.open(store_path) if store_path is not None else None
    cache = ArtifactCache()
    machines: dict[tuple[int, str], object] = {}
    out: list[Cell] = []
    attempted = 0
    try:
        with deadline(budget):
            for slot, loop, n_clusters, model_value in cells:
                model = CopyModel(model_value)
                machine = machines.get((n_clusters, model_value))
                if machine is None:
                    machine = paper_machine(n_clusters, model)
                    machines[(n_clusters, model_value)] = machine
                label = config_label(n_clusters, model)
                prefix = (
                    key_prefix(machine, pipeline_config)
                    if store is not None else None
                )
                try:
                    result = _compile_cell(
                        loop, machine, pipeline_config, cache, cell_timeout,
                        store=store, store_prefix=prefix,
                    )
                except DeadlineExceeded as exc:
                    if budget is not None and exc.seconds == budget:
                        raise  # the request budget, not this cell's
                    out.append(_failure_cell(slot, label, loop, exc, attempts=1))
                except Exception as exc:
                    out.append(_failure_cell(slot, label, loop, exc, attempts=1))
                else:
                    out.append(
                        Cell(loop_index=slot, config=label, metrics=result.metrics)
                    )
                attempted += 1
    except DeadlineExceeded as exc:
        # the request budget expired: the interrupted cell and everything
        # after it in the chunk become timeout failures
        for slot, loop, n_clusters, model_value in cells[attempted:]:
            label = config_label(n_clusters, CopyModel(model_value))
            out.append(_failure_cell(slot, label, loop, exc, attempts=1))
    return out, (store.stats if store is not None else None)
