"""Corpus evaluation runner.

Compiles every corpus loop for each of the paper's six clustered
configurations (2/4/8 clusters x embedded/copy-unit) and collects
:class:`~repro.core.results.LoopMetrics` per configuration.  Table,
figure and report modules consume the resulting :class:`EvalRun`.

The run is a grid of (loop, configuration) **cells**; each cell yields
either a ``LoopMetrics`` or a :class:`~repro.core.results.LoopFailure`.
Two execution strategies fill the grid:

* **serial** (``jobs=1``, the default) — one process, one shared
  :class:`~repro.core.cache.ArtifactCache`, so each loop's DDG and
  16-wide ideal schedule are computed once and reused by the other five
  configurations;
* **parallel** (``jobs=N``) — ``submit()``-based futures on a
  :class:`~concurrent.futures.ProcessPoolExecutor` over chunks of
  loops.  Each work item compiles a chunk of loops across *all*
  requested configurations with a worker-local cache (preserving the
  cross-configuration reuse).

Both go through one per-cell loop, :func:`_compile_cells`; they differ
only in cell order (configuration-major serially, loop-major per chunk)
and in which cache they hand it.

Both strategies are **fault-tolerant** (see :mod:`repro.core.faults`):

* a per-cell wall-clock ``timeout`` degrades a hung schedule to a
  recorded ``timeout`` failure, enforced inside the (worker) process so
  even CPU-bound pure-Python loops are interrupted;
* a crashed or unpicklable worker poisons only its chunk: the chunk is
  retried once at chunk-size 1 to isolate the bad loop, which is then
  recorded as a ``crash`` failure while every other loop's metrics
  survive.

Resuming an interrupted run means rerunning it with the same artifact
store (``store=``): every cell finished before the interruption is a
store hit, the rest compile.  Failed cells are never stored, so a rerun
recomputes them; a ``timeout`` is a property of the budget, not of the
cell's content key.

However the grid was filled — serially, in parallel, from a warm store,
or any mix — the assembly step orders cells configuration-major/loop-minor,
exactly the order a clean serial run produces, so tables, figures, CSV
and the failure list are byte-identical across strategies.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.cache import ArtifactCache, CacheStats
from repro.core.faults import DeadlineExceeded, deadline, maybe_inject_fault
from repro.core.fingerprint import StoreKeyPrefix, key_prefix
from repro.core.pipeline import PipelineConfig, compile_loop
from repro.core.results import LoopFailure, LoopMetrics
from repro.ir.block import Loop
from repro.machine.machine import CopyModel, MachineDescription
from repro.machine.presets import paper_machine
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer
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
    cache_evictions: int = 0
    #: durable artifact-store outcomes (``store=`` runs only): hits count
    #: cells answered without compiling, misses count compiled-and-stored
    #: cells, invalid counts corrupt/foreign entries degraded to misses
    store_hits: int = 0
    store_misses: int = 0
    store_invalid: int = 0
    store_writes: int = 0
    #: aggregate wall time per pass name, summed over every compilation
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
        self.cache_evictions += stats.evictions

    def absorb_store_stats(self, stats: StoreStats) -> None:
        self.store_hits += stats.hits
        self.store_misses += stats.misses
        self.store_invalid += stats.invalid
        self.store_writes += stats.writes


def _merge_pass_seconds(into: dict[str, float], new: dict[str, float]) -> None:
    for name, seconds in new.items():
        into[name] = into.get(name, 0.0) + seconds


def _compile_cell(
    loop: Loop,
    machine: MachineDescription,
    pipeline_config: PipelineConfig,
    cache: ArtifactCache,
    timeout: float | None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    store: ArtifactStore | None = None,
    store_prefix: StoreKeyPrefix | None = None,
):
    """Compile one cell under the wall-clock budget (and fault fixture).

    With a ``store``, hits hydrate metrics only — the runner never needs
    the heavyweight artifacts, which is what keeps the warm path at a
    two-line read per cell.
    """
    with deadline(timeout):
        maybe_inject_fault(loop.name)
        return compile_loop(
            loop, machine, pipeline_config, cache=cache,
            tracer=tracer, metrics=metrics,
            store=store, store_hydrate="metrics", store_prefix=store_prefix,
        )


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
    cells: list[tuple[int, Loop, str]],
    machines: dict[str, MachineDescription],
    pipeline_config: PipelineConfig,
    cache: ArtifactCache,
    timeout: float | None,
    attempt: int,
    tracer: Tracer | None,
    collect_metrics: bool,
    store: ArtifactStore | None,
) -> tuple[list[Cell], dict[str, float], list[tuple[CellKey, dict]]]:
    """Compile ``(loop index, loop, label)`` cells in the given order.

    The one per-cell loop of the runner: each cell compiles under its
    own tracer scope and (``collect_metrics``) its own
    :class:`~repro.obs.MetricsRegistry`; an exception becomes a failure
    cell stamped with ``attempt``.  Returns the cells, their summed pass
    wall times and their metric snapshots.  The store key's
    loop-independent prefix is derived once per label, so warm cells
    hash only the (memoized) loop.
    """
    prefixes = {
        label: key_prefix(machines[label], pipeline_config)
        for label in {label for _, _, label in cells}
    } if store is not None else {}
    done: list[Cell] = []
    pass_seconds: dict[str, float] = {}
    snapshots: list[tuple[CellKey, dict]] = []
    for idx, loop, label in cells:
        registry = MetricsRegistry() if collect_metrics else None
        scope = (
            tracer.cell(idx, label, loop_name=loop.name)
            if tracer is not None else nullcontext()
        )
        with scope:
            try:
                result = _compile_cell(
                    loop, machines[label], pipeline_config, cache, timeout,
                    tracer=tracer, metrics=registry,
                    store=store, store_prefix=prefixes.get(label),
                )
            except Exception as exc:
                done.append(_failure_cell(idx, label, loop, exc, attempt))
            else:
                done.append(Cell(loop_index=idx, config=label, metrics=result.metrics))
                _merge_pass_seconds(pass_seconds, result.pass_seconds)
        if registry is not None:
            snapshots.append(((idx, label), {"loop": loop.name, **registry.snapshot()}))
    return done, pass_seconds, snapshots


def run_evaluation(
    loops: list[Loop] | None = None,
    config: PipelineConfig | None = None,
    configs: tuple[tuple[int, CopyModel], ...] = PAPER_CONFIG_ORDER,
    progress: bool = False,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    timeout: float | None = None,
    tracer: Tracer | None = None,
    collect_metrics: bool = False,
    store: ArtifactStore | None = None,
) -> EvalRun:
    """Run the corpus through the pipeline for each configuration.

    A loop that fails to compile for some configuration — by raising, by
    exceeding ``timeout`` seconds of wall clock, or by killing its worker
    process — is recorded in ``failures`` (with the fault kind and
    attempt count) and excluded from that configuration's metrics; with
    the shipped corpus there are none, and the test suite asserts that.

    ``jobs > 1`` fans the work out over a process pool; the resulting
    :class:`EvalRun` (metrics order, failure order, machine table) is
    identical to the serial run's.  ``cache`` lets callers share one
    :class:`ArtifactCache` across several serial evaluations; the
    parallel path always uses worker-local caches and only merges their
    stats.

    ``tracer`` (a :class:`repro.obs.Tracer`) records one span tree per
    cell; the parallel path records spans in worker-local tracers and
    merges them back keyed by (loop id, configuration), so serial and
    parallel runs yield the same span identities.
    ``collect_metrics=True`` attaches a fresh
    :class:`~repro.obs.MetricsRegistry` to each compilation and stores
    the snapshots in ``run.cell_metrics``.  Neither affects metrics,
    failures or table output.

    ``store`` (a :class:`repro.store.ArtifactStore`) makes the run
    incremental: each cell's full content key is looked up before
    compiling, hits are answered from disk (``run.store_hits``) and
    fresh compilations are written back.  The serial path threads the
    caller's store through every cell; parallel workers open the same
    on-disk store independently (atomic entry writes make that safe) and
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
    obs_tracer = tracer if tracer is not None and tracer.enabled else None
    t0 = time.time()
    if jobs > 1:
        _fill_parallel(
            run, cells, loops, pipeline_config, configs, jobs, progress,
            timeout, obs_tracer, collect_metrics, store,
        )
    else:
        _fill_serial(
            run, cells, loops, pipeline_config, labels, progress, cache,
            timeout, obs_tracer, collect_metrics, store,
        )

    # deterministic assembly: configuration-major, loop-minor — the order
    # a clean serial run produces, whatever actually filled the grid
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


def _absorb_cells(
    run: EvalRun,
    grid: dict[CellKey, Cell],
    done: list[Cell],
    pass_seconds: dict[str, float],
    snapshots: list[tuple[CellKey, dict]],
) -> None:
    for cell in done:
        grid[cell.key] = cell
    _merge_pass_seconds(run.pass_seconds, pass_seconds)
    run.cell_metrics.update(snapshots)


def _since(before, now):
    """The counters a stats dataclass accumulated since ``before``."""
    return type(now)(**{
        f.name: getattr(now, f.name) - getattr(before, f.name)
        for f in dataclasses.fields(now)
    })


# ----------------------------------------------------------------------
# Serial execution
# ----------------------------------------------------------------------


def _fill_serial(
    run: EvalRun,
    cells: dict[CellKey, Cell],
    loops: list[Loop],
    pipeline_config: PipelineConfig,
    labels: list[str],
    progress: bool,
    cache: ArtifactCache | None,
    timeout: float | None,
    tracer: Tracer | None = None,
    collect_metrics: bool = False,
    store: ArtifactStore | None = None,
) -> None:
    shared_cache = cache if cache is not None else ArtifactCache()
    cache0 = dataclasses.replace(shared_cache.stats)
    store0 = dataclasses.replace(store.stats) if store is not None else None
    for label in labels:
        done, pass_seconds, snapshots = _compile_cells(
            [(i, loop, label) for i, loop in enumerate(loops)], run.machines,
            pipeline_config, shared_cache, timeout, 1, tracer,
            collect_metrics, store,
        )
        _absorb_cells(run, cells, done, pass_seconds, snapshots)
        if progress:
            print(f"[{label}] done: {len(done)} compiled", file=sys.stderr)
    run.absorb_cache_stats(_since(cache0, shared_cache.stats))
    if store is not None:
        run.absorb_store_stats(_since(store0, store.stats))


# ----------------------------------------------------------------------
# Parallel execution
# ----------------------------------------------------------------------

#: one unit of pool work: ([(loop index, loop), ...], configs, pipeline
#: config, per-cell timeout, attempt number stamped into failures
#: produced by this payload, the two observability flags (record spans /
#: collect per-cell metrics), and the artifact-store path (workers open
#: the on-disk store independently; None = no store).
_Payload = tuple[
    list[tuple[int, Loop]],
    tuple[tuple[int, CopyModel], ...],
    PipelineConfig,
    float | None,
    int,
    bool,
    bool,
    str | None,
]

#: what one worker returns: cells, the worker-local cache and store
#: counters (plain picklable dataclasses; store counters None without a
#: store), pass wall time, recorded spans and per-cell metric snapshots.
_ChunkResult = tuple[
    list[Cell], CacheStats, StoreStats | None, dict[str, float],
    list[Span], list[tuple[CellKey, dict]],
]


def _compile_chunk(payload: _Payload) -> _ChunkResult:
    """Worker: compile a chunk of loops across every configuration.

    Machines are rebuilt locally (a ``MachineDescription`` holds a
    mapping-proxy latency table and does not pickle); loops and configs
    do pickle.  Cells run loop-major through a worker-local cache, which
    gives each loop in the chunk the same 1-miss/(n_configs - 1)-hit
    profile as the serial runner.  The per-cell deadline runs *here*, in
    the worker's main thread, so a hung compilation degrades to a
    ``timeout`` cell instead of stalling the whole run.

    Observability rides along the same way: spans land in a worker-local
    :class:`~repro.obs.Tracer` whose plain-dataclass spans pickle back
    with the result, and each cell's metric snapshot is a plain dict.
    Span identity is (loop id, config, seq)-based, so merging worker
    traces reproduces the serial trace exactly.

    With a store path, the worker opens the shared on-disk store for
    itself (stores hold open OS state and do not pickle); entry writes
    are atomic and deterministic, so workers racing on the same key are
    harmless, and the worker's outcome counters travel home in the
    result for merging.
    """
    (chunk, configs, pipeline_config, timeout, attempt, trace, metrics,
     store_path) = payload
    cache = ArtifactCache()
    store = ArtifactStore.open(store_path) if store_path is not None else None
    machines = {
        config_label(n, model): paper_machine(n, model) for n, model in configs
    }
    tracer = Tracer() if trace else None
    cells, pass_seconds, cell_metrics = _compile_cells(
        [(idx, loop, label) for idx, loop in chunk for label in machines],
        machines, pipeline_config, cache, timeout, attempt, tracer, metrics,
        store,
    )
    spans = tracer.spans if tracer is not None else []
    store_stats = store.stats if store is not None else None
    return cells, cache.stats, store_stats, pass_seconds, spans, cell_metrics


def _fill_parallel(
    run: EvalRun,
    cells: dict[CellKey, Cell],
    loops: list[Loop],
    pipeline_config: PipelineConfig,
    configs: tuple[tuple[int, CopyModel], ...],
    jobs: int,
    progress: bool,
    timeout: float | None,
    tracer: Tracer | None = None,
    collect_metrics: bool = False,
    store: ArtifactStore | None = None,
) -> None:
    store_path = store.path if store is not None else None
    labels = [config_label(n, m) for n, m in configs]
    indexed = list(enumerate(loops))
    if not indexed:
        return
    chunk_size = max(1, math.ceil(len(indexed) / (jobs * 4)))
    chunks = [indexed[i:i + chunk_size] for i in range(0, len(indexed), chunk_size)]

    def payload(chunk: list[tuple[int, Loop]], attempt: int) -> _Payload:
        return (
            chunk, configs, pipeline_config, timeout, attempt,
            tracer is not None, collect_metrics, store_path,
        )

    def absorb(result: _ChunkResult) -> None:
        chunk_cells, cache_stats, store_stats, pass_seconds, spans, chunk_metrics = result
        _absorb_cells(run, cells, chunk_cells, pass_seconds, chunk_metrics)
        run.absorb_cache_stats(cache_stats)
        if store_stats is not None:
            run.absorb_store_stats(store_stats)
        if tracer is not None:
            tracer.add_spans(spans)

    # Phase 1: every chunk as one future.  A worker death (or a payload/
    # result that will not pickle) fails the futures sharing its pool
    # fate; those chunks are set aside instead of aborting the run.
    poisoned: list[list[tuple[int, Loop]]] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures: dict[Future, list[tuple[int, Loop]]] = {
            pool.submit(_compile_chunk, payload(chunk, 1)): chunk
            for chunk in chunks
        }
        done = 0
        not_done = set(futures)
        while not_done:
            finished, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for fut in finished:
                # only failures that crossed the process boundary poison a
                # chunk (a dead worker breaks the pool; an unpicklable
                # payload/result surfaces here as the future's exception).
                # absorb() runs outside the try: a merge/accounting bug in
                # the coordinator is a real bug and must propagate, not be
                # retried in isolation and misreported as a worker crash.
                try:
                    result = fut.result()
                except Exception:
                    poisoned.append(futures[fut])
                    result = None
                done += 1
                if progress:
                    print(f"  chunk {done}/{len(chunks)} done", file=sys.stderr)
                if result is not None:
                    absorb(result)

    if not poisoned:
        return

    # Phase 2: isolate — retry each loop of a poisoned chunk alone in a
    # single-worker pool.  A loop that kills its worker again is the
    # culprit: record a crash failure for each of its cells and replace
    # the (now broken) pool for the remaining loops.
    if progress:
        n_retry = sum(len(chunk) for chunk in poisoned)
        print(f"  retrying {n_retry} loop(s) from {len(poisoned)} "
              f"poisoned chunk(s) in isolation", file=sys.stderr)
    pool = ProcessPoolExecutor(max_workers=1)
    try:
        for chunk in poisoned:
            for idx, loop in chunk:
                # same split as phase 1: only the cross-process failure is
                # a crash; absorb() errors propagate
                try:
                    result = pool.submit(
                        _compile_chunk, payload([(idx, loop)], 2)
                    ).result()
                except Exception as exc:
                    for label in labels:
                        failure = LoopFailure(
                            config=label,
                            loop_name=loop.name,
                            error=repr(exc),
                            kind="crash",
                            attempts=2,
                        )
                        cells[(idx, label)] = Cell(
                            loop_index=idx, config=label, failure=failure
                        )
                    # the pool is broken if the worker died; start fresh
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=1)
                else:
                    absorb(result)
    finally:
        pool.shutdown()
