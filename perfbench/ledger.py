"""Per-layer span ledger, recorded from outside the compiler.

Nothing inside ``src/repro`` is instrumented.  :func:`instrument` swaps
each layer's public entry points for timing wrappers for the duration of
a ``with`` block and restores them afterwards.  A wrapper is a span: it
times the call, charges the time its wrapped children took to those
children, and adds the rest to its own layer's *self* time -- so the
self times of all layers sum to the wall time of the outermost span.
Next to each layer the wrappers count deterministic work (calls, edges
built, nodes placed, copies inserted) that does not drift with the host.

A layer is named after the module that owns it:

==========================  ==============================================
layer                       wrapped callable
==========================  ==============================================
``runner``                  ``run_evaluation`` (wrapped by the caller)
``pipeline``                ``compile_loop`` as the runner calls it
``ddg.build``               ``build_loop_ddg``
``ddg.analysis``            ``recurrence_ii`` / ``resource_ii`` / ``min_ii``
``cache``                   ``ArtifactCache.ideal_for``
``sched.ideal``             ``ModuloScheduler.schedule`` on the ideal machine
``sched.cluster``           ``ModuloScheduler.schedule`` on a clustered one
``sched.validate``          ``validate_kernel_schedule``
``rcg.build``               ``build_rcg_from_kernel``
``rcg.flat_adjacency``      ``RegisterComponentGraph.flat_adjacency``
``greedy``                  ``greedy_partition``
``copies``                  ``insert_copies``
``regalloc``                ``assign_banks``
``store``                   ``ArtifactStore.lookup`` / ``.put_result``
``serve.worker``            the daemon worker's ``compile_serve_chunk``
==========================  ==============================================

``modulo_schedule`` is one-shot sugar over ``ModuloScheduler.schedule``;
the method is wrapped instead because the scheduler's ``stats`` (the II
attempts) are only visible there.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable

#: every layer a ledger can charge, in report order
LAYERS: tuple[str, ...] = (
    "runner", "pipeline", "ddg.build", "ddg.analysis", "cache",
    "sched.ideal", "sched.cluster", "sched.validate", "rcg.build",
    "rcg.flat_adjacency", "greedy", "copies", "regalloc", "store",
    "serve.worker",
)


class Ledger:
    """Self time and work counters per layer, filled by span wrappers."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counts: dict[str, int] = {}
        #: wall time of the outermost spans, which the self times sum to
        self.root_wall_s = 0.0
        #: child-time accumulators of the spans currently open
        self._open: list[float] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(
        self,
        layer: "str | Callable[..., str]",
        fn: Callable,
        after: "Callable[[Ledger, tuple, object, object], None] | None" = None,
        before: "Callable[[tuple], object] | None" = None,
    ) -> Callable:
        """Wrap ``fn`` as a span of ``layer`` (a name, or a function of
        the call's arguments returning one).  Once the span has closed,
        ``after`` counts work from the arguments, the result and whatever
        ``before`` returned from the arguments ahead of the call."""
        ledger = self
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args)
            state = before(args) if before is not None else None
            opened = ledger._open
            opened.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                children = opened.pop()
                if opened:
                    opened[-1] += elapsed
                ledger.self_s[name] += elapsed - children
                ledger.count(name + ".calls")
            if after is not None:
                after(ledger, args, out, state)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "root_wall_s": self.root_wall_s}

    def absorb(self, snapshot: dict) -> None:
        """Add another ledger's :meth:`snapshot` (a daemon worker's)."""
        self.root_wall_s += snapshot["root_wall_s"]
        for layer, seconds in snapshot["self_s"].items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds
        for name, n in snapshot["counts"].items():
            self.count(name, n)


def _count_ddg_edges(ledger: Ledger, _args: tuple, ddg, _state) -> None:
    ledger.count("ddg.edges_built", ddg.n_edges)


def _count_rcg_edges(ledger: Ledger, _args: tuple, rcg, _state) -> None:
    ledger.count("rcg.edges", rcg.n_edges)


def _count_greedy_nodes(ledger: Ledger, args: tuple, _partition, _state) -> None:
    ledger.count("greedy.nodes", len(args[0]))


def _count_copies(ledger: Ledger, _args: tuple, partitioned, _state) -> None:
    ledger.count("copies.inserted", partitioned.n_body_copies)


def _count_regalloc(ledger: Ledger, _args: tuple, outcome, _state) -> None:
    ledger.count("regalloc.failed_rounds", 0 if outcome.success else 1)


def _count_ii_attempts(ledger: Ledger, args: tuple, _kernel, _state) -> None:
    # ModuloScheduler tries MinII, MinII+1, ... so this is II - MinII + 1
    ledger.count("sched.ii_attempts", args[0].stats["ii_attempts"])


def _cache_stats(args: tuple) -> tuple[int, int]:
    stats = args[0].stats
    return stats.hits, stats.misses


def _count_cache(ledger: Ledger, args: tuple, _pair, before) -> None:
    stats = args[0].stats
    ledger.count("cache.hits", stats.hits - before[0])
    ledger.count("cache.misses", stats.misses - before[1])


def _sched_layer(args: tuple) -> str:
    return "sched.cluster" if args[0].machine.is_clustered else "sched.ideal"


def _targets() -> list[tuple]:
    """(owner, attribute, layer, after[, before]) per wrapped entry point."""
    from repro.core import passes
    from repro.core.cache import ArtifactCache
    from repro.core.rcg import RegisterComponentGraph
    from repro.evalx import runner
    from repro.regalloc import assignment
    from repro.sched.modulo import scheduler
    from repro.store.tiered import ArtifactStore

    targets = [
        (runner, "compile_loop", "pipeline", None),
        (passes, "build_loop_ddg", "ddg.build", _count_ddg_edges),
        (ArtifactCache, "ideal_for", "cache", _count_cache, _cache_stats),
        (scheduler.ModuloScheduler, "schedule", _sched_layer, _count_ii_attempts),
        (passes, "validate_kernel_schedule", "sched.validate", None),
        (passes, "build_rcg_from_kernel", "rcg.build", _count_rcg_edges),
        (RegisterComponentGraph, "flat_adjacency", "rcg.flat_adjacency", None),
        (passes, "greedy_partition", "greedy", _count_greedy_nodes),
        (passes, "insert_copies", "copies", _count_copies),
        (assignment, "assign_banks", "regalloc", _count_regalloc),
        (ArtifactStore, "lookup", "store", None),
        (ArtifactStore, "put_result", "store", None),
    ]
    for module in (passes, scheduler):
        for name in ("min_ii", "recurrence_ii", "resource_ii"):
            if hasattr(module, name):
                targets.append((module, name, "ddg.analysis", None))
    return targets


def install(ledger: Ledger) -> Callable[[], None]:
    """Route every layer entry point through ``ledger``; returns the
    function that puts the originals back."""
    saved = []
    for owner, attr, layer, *hooks in _targets():
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, ledger.span(layer, original, *hooks))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


@contextmanager
def instrument(ledger: Ledger):
    """:func:`install` for the duration of a ``with`` block."""
    uninstall = install(ledger)
    try:
        yield ledger
    finally:
        uninstall()


class CellTimer:
    """The only hook of an untraced run: one wall time per ``compile_loop``
    call, in call order, so batch workloads can report cell latency.  It
    also notes each cell's speed segment and lets the
    :class:`~perfbench.common.SpeedTracker` probe between cells."""

    def __init__(self, speed) -> None:
        self.seconds: list[float] = []
        self.segments: list[int] = []
        self.speed = speed

    @contextmanager
    def installed(self):
        from repro.evalx import runner

        original = runner.compile_loop
        seconds, segments, speed = self.seconds, self.segments, self.speed
        perf_counter = time.perf_counter

        def timed(*args, **kwargs):
            segments.append(speed.segment)
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                seconds.append(perf_counter() - t0)
                speed.between_units()

        runner.compile_loop = timed
        try:
            yield self
        finally:
            runner.compile_loop = original
