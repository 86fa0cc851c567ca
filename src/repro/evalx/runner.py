"""Corpus evaluation runner.

Compiles every corpus loop for each of the paper's six clustered
configurations (2/4/8 clusters x embedded/copy-unit) and collects
:class:`~repro.core.results.LoopMetrics` per configuration.  Table,
figure and report modules consume the resulting :class:`EvalRun`.

The run is a grid of (loop, configuration) **cells**; each cell yields
either a ``LoopMetrics`` or a :class:`~repro.core.results.LoopFailure`.
Cells run in one order, loop-major: each loop across every requested
configuration, then the next loop.  One chunk body,
:func:`_compile_cells`, compiles a list of them through one
:class:`~repro.core.cache.ArtifactCache`, which holds the loop it last
served.  So each loop's DDG, 16-wide ideal schedule and RCG are computed
once for its six configurations, and each copy-unit cell takes its
embedded sibling's greedy partition, copies and derived DDG.  Two
execution strategies run that body:

* **serial** (``jobs=1``, the default) — the whole grid is one chunk,
  run in-process with the caller's cache, store and clock;
* **parallel** (``jobs=N``) — chunks of whole loops, each run by
  :func:`compile_chunk` in a worker with a fresh cache, store handle and
  clock, on the :class:`~repro.evalx.executor.SupervisedPool` from
  ``jobs`` threads.  The compile daemon runs its chunks on the same pool
  through the same entry point.

Either way the run absorbs each chunk's :class:`ChunkResult` the same way.

Both strategies are **fault-tolerant** (see :mod:`repro.core.faults`):

* a per-cell wall-clock ``timeout`` degrades a hung schedule to a
  recorded ``timeout`` failure, enforced inside the (worker) process so
  even CPU-bound pure-Python loops are interrupted;
* in parallel, the executor's failure rule applies: a crashed or
  unpicklable worker poisons only its chunk, whose loops are retried
  alone so the bad one is recorded as a ``crash`` failure while every
  other loop's metrics survive; with a ``timeout``, a worker wedged past
  every deadline is reaped by the watchdog and its loop recorded as a
  ``timeout`` failure.

Resuming an interrupted run means rerunning it with the same artifact
store (``store=``): every cell finished before the interruption is a
store hit, the rest compile.  Failed cells are never stored, so a rerun
recomputes them; a ``timeout`` is a property of the budget, not of the
cell's content key.

However the grid was filled — serially, in parallel, from a warm store,
or any mix — the assembly step orders cells configuration-major/loop-minor,
so tables, figures, CSV and the failure list are byte-identical across
strategies.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable

from repro.core.cache import ArtifactCache, CacheStats
from repro.core.faults import DeadlineExceeded, deadline, fault_names, maybe_inject_fault
from repro.core.fingerprint import key_prefix
from repro.core.pipeline import PipelineConfig, compile_loop
from repro.core.results import LoopFailure, LoopMetrics
from repro.evalx.executor import SupervisedPool
from repro.ir.block import Loop, reserve_ids
from repro.machine.machine import CopyModel, MachineDescription
from repro.machine.presets import paper_machine
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import PassClock, Span, Tracer
from repro.store.tiered import ArtifactStore, StoreStats
from repro.workloads.corpus import spec95_corpus

#: the paper's column order: (clusters, copy model) pairs of Tables 1-2
PAPER_CONFIG_ORDER: tuple[tuple[int, CopyModel], ...] = (
    (2, CopyModel.EMBEDDED),
    (2, CopyModel.COPY_UNIT),
    (4, CopyModel.EMBEDDED),
    (4, CopyModel.COPY_UNIT),
    (8, CopyModel.EMBEDDED),
    (8, CopyModel.COPY_UNIT),
)


def config_label(n_clusters: int, model: CopyModel) -> str:
    kind = "Embedded" if model is CopyModel.EMBEDDED else "Copy Unit"
    return f"{n_clusters} Clusters / {kind}"


#: a cell's identity within one run: (loop index, configuration label)
CellKey = tuple[int, str]


@dataclass(frozen=True)
class Cell:
    """One completed (loop, configuration) compilation outcome."""

    loop_index: int
    config: str
    metrics: LoopMetrics | None = None
    failure: LoopFailure | None = None

    def __post_init__(self) -> None:
        if (self.metrics is None) == (self.failure is None):
            raise ValueError("a cell holds exactly one of metrics/failure")

    @property
    def ok(self) -> bool:
        return self.metrics is not None

    @property
    def key(self) -> CellKey:
        return (self.loop_index, self.config)


@dataclass
class EvalRun:
    """Metrics for every (loop, configuration) pair of one evaluation."""

    machines: dict[str, MachineDescription] = field(default_factory=dict)
    per_config: dict[str, list[LoopMetrics]] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    failures: list[LoopFailure] = field(default_factory=list)
    #: how the run executed (1 = serial) and what the artifact cache saw
    jobs: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    #: durable artifact-store outcomes (``store=`` runs only): hits count
    #: cells answered without compiling, misses count compiled-and-stored
    #: cells, invalid counts corrupt/foreign entries degraded to misses
    store_hits: int = 0
    store_misses: int = 0
    store_invalid: int = 0
    store_writes: int = 0
    #: exclusive wall time per pass name over every cell, failed cells
    #: included: the totals of the run's tracer (or pass clock)
    pass_seconds: dict[str, float] = field(default_factory=dict)
    #: per-cell wall-clock budget (None = unbounded)
    timeout_seconds: float | None = None
    #: per-cell MetricsRegistry snapshots (``collect_metrics=True``),
    #: keyed by :data:`CellKey`: ``{"loop": name, **snapshot}``
    cell_metrics: dict[CellKey, dict] = field(default_factory=dict)

    def config_labels(self) -> list[str]:
        # per_config is populated in the requested configuration order, so
        # insertion order *is* presentation order — including for custom
        # configurations outside PAPER_CONFIG_ORDER.
        return list(self.per_config)

    def metrics_for(self, n_clusters: int, model: CopyModel) -> list[LoopMetrics]:
        return self.per_config[config_label(n_clusters, model)]

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def store_hit_rate(self) -> float:
        lookups = self.store_hits + self.store_misses
        return self.store_hits / lookups if lookups else 0.0

    def absorb_cache_stats(self, stats: CacheStats) -> None:
        self.cache_hits += stats.hits
        self.cache_misses += stats.misses

    def absorb_store_stats(self, stats: StoreStats) -> None:
        self.store_hits += stats.hits
        self.store_misses += stats.misses
        self.store_invalid += stats.invalid
        self.store_writes += stats.writes


def _failure_cell(
    idx: int, label: str, loop: Loop, exc: BaseException, attempts: int
) -> Cell:
    from repro.check.oracles import OracleViolation

    if isinstance(exc, DeadlineExceeded):
        kind = "timeout"
    elif isinstance(exc, OracleViolation):
        kind = "oracle"
    else:
        kind = "exception"
    return Cell(
        loop_index=idx,
        config=label,
        failure=LoopFailure(
            config=label,
            loop_name=loop.name,
            error=repr(exc),
            kind=kind,
            attempts=attempts,
        ),
    )


def _compile_cells(
    payload: ChunkPayload,
    cache: ArtifactCache,
    clock: PassClock,
    store: ArtifactStore | None,
) -> ChunkResult:
    """Compile a chunk's cells in order: the one chunk body of the
    serial grid, ``--jobs`` workers and the compile daemon.

    Each cell compiles under its own ``cell_timeout``, its own cell scope
    of ``clock`` (a tracer, or the bare pass clock, which keeps every
    cell's pass times) and (``metrics``) its own
    :class:`~repro.obs.MetricsRegistry`; an exception becomes a failure
    cell stamped with ``attempt``.  Machines, the store key's
    loop-independent prefix and the fault-injection names are read once
    per chunk, so warm cells hash only the (memoized) loop.  ``budget``
    bounds the whole chunk; when it expires, the cell it interrupted and
    every later cell become ``timeout`` failures.
    """
    machines = {
        config_label(n, CopyModel(model)): paper_machine(n, CopyModel(model))
        for n, model in {(n, model) for _, _, n, model in payload.cells}
    }
    prefixes = {
        label: key_prefix(machine, payload.config)
        for label, machine in machines.items()
    } if store is not None else {}
    faults = fault_names()
    timeout, budget = payload.cell_timeout, payload.budget
    cells = payload.labelled()
    cache0 = dataclasses.replace(cache.stats)
    store0 = dataclasses.replace(store.stats) if store is not None else None
    done: list[Cell] = []
    snapshots: list[tuple[CellKey, dict]] = []
    try:
        with deadline(budget):
            for idx, loop, label in cells:
                registry = MetricsRegistry() if payload.metrics else None
                with clock.cell(idx, label, loop_name=loop.name):
                    try:
                        with deadline(timeout):
                            maybe_inject_fault(loop.name, faults)
                            # store hits hydrate metrics only: a warm
                            # cell is a two-line read
                            result = compile_loop(
                                loop, machines[label], payload.config,
                                cache=cache, tracer=clock, metrics=registry,
                                store=store, store_hydrate="metrics",
                                store_prefix=prefixes.get(label),
                            )
                    except Exception as exc:
                        if isinstance(exc, DeadlineExceeded) and exc.seconds == budget:
                            raise  # the chunk's budget, not this cell's
                        done.append(_failure_cell(idx, label, loop, exc, payload.attempt))
                    else:
                        done.append(Cell(loop_index=idx, config=label,
                                         metrics=result.metrics))
                if registry is not None:
                    snapshots.append(
                        ((idx, label), {"loop": loop.name, **registry.snapshot()})
                    )
    except DeadlineExceeded as exc:
        for idx, loop, label in cells[len(done):]:
            done.append(_failure_cell(idx, label, loop, exc, payload.attempt))
    return ChunkResult(
        done, _since(cache0, cache.stats),
        _since(store0, store.stats) if store is not None else None,
        snapshots=snapshots,
    )


def run_evaluation(
    loops: list[Loop] | None = None,
    config: PipelineConfig | None = None,
    configs: tuple[tuple[int, CopyModel], ...] = PAPER_CONFIG_ORDER,
    progress: bool = False,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    timeout: float | None = None,
    tracer: PassClock | None = None,
    collect_metrics: bool = False,
    store: ArtifactStore | None = None,
) -> EvalRun:
    """Run the corpus through the pipeline for each configuration.

    A loop that fails to compile for some configuration — by raising, by
    exceeding ``timeout`` seconds of wall clock, or by killing its worker
    process — is recorded in ``failures`` (with the fault kind and
    attempt count) and excluded from that configuration's metrics; with
    the shipped corpus there are none, and the test suite asserts that.

    The cells run loop-major.  ``jobs=1`` runs them as one in-process
    chunk through ``cache`` (a fresh :class:`ArtifactCache` if None);
    ``jobs > 1`` fans chunks of whole loops out over a process pool,
    each through a worker-local cache.  The resulting :class:`EvalRun`
    (metrics order, failure order, machine table) is the same either way,
    and ``run.cache_hits``/``cache_misses`` count this run's lookups.

    ``tracer`` (a :class:`repro.obs.Tracer`) records one span tree per
    cell; the parallel path records spans in worker-local tracers and
    merges them back keyed by (loop id, configuration), so serial and
    parallel runs yield the same span identities.  Without one, a fresh
    :class:`repro.obs.PassClock` times the passes.  Either way
    ``run.pass_seconds`` is that clock's totals, the worker clocks'
    merged in (a tracer reused across runs carries its totals over).
    ``collect_metrics=True`` attaches a fresh
    :class:`~repro.obs.MetricsRegistry` to each compilation and stores
    the snapshots in ``run.cell_metrics``.  Neither affects metrics,
    failures or table output.

    ``store`` (a :class:`repro.store.ArtifactStore`) makes the run
    incremental: each cell's full content key is looked up before
    compiling, hits are answered from disk (``run.store_hits``) and
    fresh compilations are written back.  The serial path threads the
    caller's store through every cell; parallel workers open the same
    on-disk store independently (atomic record appends make that safe) and
    their outcome counters are merged into the run.  Stored metrics are
    the same objects a compilation produces, so reports from warm runs
    are identical to cold and store-less ones.  This is also how an
    interrupted run resumes: rerun it with the same store, and only the
    cells it had not finished (plus any failed ones, which are never
    stored) compile.
    """
    loops = loops if loops is not None else spec95_corpus()
    pipeline_config = config if config is not None else PipelineConfig(run_regalloc=False)
    labels = [config_label(n, m) for n, m in configs]

    run = EvalRun(jobs=max(1, jobs), timeout_seconds=timeout)
    for (n_clusters, model), label in zip(configs, labels):
        run.machines[label] = paper_machine(n_clusters, model)

    cells: dict[CellKey, Cell] = {}
    clock = tracer if tracer is not None else PassClock()
    payload = ChunkPayload(
        cells=[(i, loop, n, model.value)
               for i, loop in enumerate(loops) for n, model in configs],
        config=pipeline_config, cell_timeout=timeout,
        store_path=store.path if store is not None else None,
        trace=clock.enabled, metrics=collect_metrics,
    )

    def absorb(result: ChunkResult) -> None:
        for cell in result.cells:
            cells[cell.key] = cell
        run.cell_metrics.update(result.snapshots)
        run.absorb_cache_stats(result.cache_stats)
        if result.store_stats is not None:
            run.absorb_store_stats(result.store_stats)
        clock.add_pass_ns(result.pass_ns)
        if clock.enabled:
            clock.add_spans(result.spans)

    t0 = time.time()
    if jobs > 1:
        _fill_parallel(payload, jobs, progress, absorb)
    else:
        absorb(_compile_cells(
            payload, cache if cache is not None else ArtifactCache(), clock, store,
        ))
    run.pass_seconds = clock.pass_seconds()

    # deterministic assembly: configuration-major, loop-minor, whatever
    # actually filled the grid
    for label in labels:
        metrics: list[LoopMetrics] = []
        for i in range(len(loops)):
            cell = cells.get((i, label))
            if cell is not None and cell.ok:
                metrics.append(cell.metrics)
        run.per_config[label] = metrics
    for label in labels:
        for i in range(len(loops)):
            cell = cells.get((i, label))
            if cell is not None and not cell.ok:
                run.failures.append(cell.failure)
    run.elapsed_seconds = time.time() - t0
    return run


def _since(before, now):
    """The counters a stats dataclass accumulated since ``before``."""
    return type(now)(**{
        f.name: getattr(now, f.name) - getattr(before, f.name)
        for f in dataclasses.fields(now)
    })


# ----------------------------------------------------------------------
# Parallel execution
# ----------------------------------------------------------------------

#: one cell of work: (key, loop, cluster count, copy-model value)
WorkCell = tuple[int, Loop, int, str]


def _by_loop(cells: list[WorkCell]) -> list[list[WorkCell]]:
    groups: dict[int, list[WorkCell]] = {}
    for cell in cells:
        groups.setdefault(id(cell[1]), []).append(cell)
    return list(groups.values())


def chunk_cells(cells: list[WorkCell], jobs: int) -> list[list[WorkCell]]:
    """~4 chunks per worker of whole loops: the cells of one loop stay
    together, so a worker-local cache gives them the serial runner's
    1-miss/(n_configs - 1)-hit profile."""
    loops = _by_loop(cells)
    size = max(1, math.ceil(len(loops) / (jobs * 4)))
    return [
        [cell for group in loops[i:i + size] for cell in group]
        for i in range(0, len(loops), size)
    ]


@dataclass(frozen=True)
class ChunkPayload:
    """One unit of work for :func:`_compile_cells`.

    A cell's key becomes its ``Cell.loop_index``: the loop index in an
    evaluation, a position among one request's cold cells in the daemon.
    ``cell_timeout`` bounds each cell and ``budget`` the whole chunk;
    ``attempt`` is stamped into the failures the chunk produces.
    ``store_path`` and ``trace`` tell a worker which store to open and
    which clock to start.
    """

    cells: list[WorkCell]
    config: PipelineConfig
    cell_timeout: float | None = None
    budget: float | None = None
    store_path: str | None = None
    trace: bool = False
    metrics: bool = False
    attempt: int = 1

    def labelled(self) -> list[tuple[int, Loop, str]]:
        return [
            (key, loop, config_label(n_clusters, CopyModel(model_value)))
            for key, loop, n_clusters, model_value in self.cells
        ]

    def split(self) -> list[ChunkPayload]:
        """One payload per loop, stamped as the second attempt."""
        return [
            dataclasses.replace(self, cells=cells, attempt=2)
            for cells in _by_loop(self.cells)
        ]

    def failed(self, kind: str, error: str) -> ChunkResult:
        """Every cell of the chunk as a ``kind`` failure."""
        return ChunkResult([
            Cell(loop_index=key, config=label, failure=LoopFailure(
                config=label, loop_name=loop.name, error=error, kind=kind,
                attempts=self.attempt,
            ))
            for key, loop, label in self.labelled()
        ])


@dataclass
class ChunkResult:
    """What a chunk yields: cells, the cache and store counters it added
    (store counters None without a store), the pass nanoseconds and spans
    of a worker's clock (empty in-process, where the caller's clock keeps
    them) and per-cell metric snapshots."""

    cells: list[Cell]
    cache_stats: CacheStats = field(default_factory=CacheStats)
    store_stats: StoreStats | None = None
    pass_ns: dict[str, int] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    snapshots: list[tuple[CellKey, dict]] = field(default_factory=list)


def compile_chunk(payload: ChunkPayload) -> ChunkResult:
    """Worker: :func:`_compile_cells` with a fresh cache, store handle and
    clock; the one worker entry point of the runner and the compile
    daemon.  Deadlines run *here*, in the worker's main thread.

    Machines are rebuilt in the worker (a ``MachineDescription`` does not
    pickle), and so is the store (it holds OS state; record appends
    are atomic, so racing workers are harmless).  The daemon parses request
    loops after its workers fork, so the chunk first moves this worker's
    id counters past its loops' ids (:func:`repro.ir.reserve_ids`), or
    copies minted here could reuse a register id of their own loop.
    Span identity is (loop id, config, seq)-based, so merged worker
    traces reproduce the serial trace exactly.
    """
    reserve_ids(loop for _, loop, _, _ in payload.cells)
    store = (
        ArtifactStore.open(payload.store_path)
        if payload.store_path is not None else None
    )
    clock = Tracer() if payload.trace else PassClock()
    result = _compile_cells(payload, ArtifactCache(), clock, store)
    result.pass_ns, result.spans = clock.pass_ns, list(clock.spans)
    return result


def _fill_parallel(
    payload: ChunkPayload,
    jobs: int,
    progress: bool,
    absorb: Callable[[ChunkResult], None],
) -> None:
    payloads = [
        dataclasses.replace(payload, cells=chunk)
        for chunk in chunk_cells(payload.cells, jobs)
    ]
    # Absorbing happens here, in the calling thread: a merge/accounting
    # bug is a real bug and propagates, instead of being retried in
    # isolation and misreported as a worker crash.  On the way out,
    # queued chunks are cancelled before the pool waits for running ones.
    with SupervisedPool(jobs) as pool:
        threads = ThreadPoolExecutor(max_workers=jobs)
        try:
            futures = [
                threads.submit(pool.run, compile_chunk, payload)
                for payload in payloads
            ]
            for done, fut in enumerate(as_completed(futures), 1):
                for result in fut.result():
                    absorb(result)
                if progress:
                    print(f"  chunk {done}/{len(payloads)} done", file=sys.stderr)
        finally:
            threads.shutdown(wait=False, cancel_futures=True)
