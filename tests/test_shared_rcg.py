"""The register component graph is built once per loop and shared.

The RCG comes from the machine-independent ideal schedule (paper Section
4, step 3), so the :class:`~repro.core.cache.ArtifactCache` keeps one
frozen graph per (loop, heuristic) and every cluster configuration reads
it.  These tests pin the contract:

* sharing changes no result — cached and cache-less compilations give
  equal :class:`~repro.core.results.LoopMetrics` for every partitioner
  that reads the RCG;
* the build really runs once per (loop, heuristic), and the cache
  counters do not see it;
* the frozen graph is read-only and answers every query exactly as the
  builder's tables say (same orders, same float sums);
* the retained form stays compact.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core import passes
from repro.core.cache import ArtifactCache
from repro.core.context import CompilationContext, PipelineConfig
from repro.core.passes import BuildDDG, IdealSchedule, shared_rcg
from repro.core.pipeline import compile_loop
from repro.core.rcg import FrozenRCG
from repro.core.weights import HeuristicConfig, build_rcg_from_kernel
from repro.evalx.runner import PAPER_CONFIG_ORDER, run_evaluation
from repro.machine.presets import paper_machine
from repro.workloads.corpus import spec95_corpus

MACHINES = [paper_machine(nc, model) for nc, model in PAPER_CONFIG_ORDER]


def _small_loops(k: int, max_ops: int) -> list:
    return [loop for loop in spec95_corpus(n=60) if len(loop.ops) <= max_ops][:k]


def _prepared(loop, cache=None, config=None) -> CompilationContext:
    """A context with its DDG and ideal schedule built (steps 1-2)."""
    ctx = CompilationContext(
        loop=loop, machine=MACHINES[0], config=config or PipelineConfig(),
        cache=cache,
    )
    BuildDDG().run(ctx)
    IdealSchedule().run(ctx)
    return ctx


# ----------------------------------------------------------------------
# sharing changes no result
# ----------------------------------------------------------------------
@pytest.mark.parametrize("partitioner,loops", [
    ("greedy", spec95_corpus(n=8)),
    ("iterative", spec95_corpus(n=4)),
    ("exact", _small_loops(3, max_ops=10)),
])
def test_cached_configs_match_cacheless_cells(partitioner, loops):
    config = PipelineConfig(partitioner=partitioner, run_regalloc=False)
    for loop in loops:
        cache = ArtifactCache()
        for machine in MACHINES:
            shared = compile_loop(loop, machine, config, cache=cache).metrics
            alone = compile_loop(loop, machine, config).metrics
            assert shared == alone, (loop.name, machine.name)
            assert shared.exact_proven == (partitioner == "exact")
        assert cache.stats.misses == 1 and cache.stats.hits == len(MACHINES) - 1


def test_spill_rounds_match_cacheless_cells():
    """With register allocation on, spill rounds rebuild their own RCG;
    the shared first-round graph must not leak into them."""
    config = PipelineConfig()
    for loop in spec95_corpus(n=3):
        cache = ArtifactCache()
        for machine in MACHINES:
            shared = compile_loop(loop, machine, config, cache=cache).metrics
            assert shared == compile_loop(loop, machine, config).metrics


# ----------------------------------------------------------------------
# one build per (loop, heuristic)
# ----------------------------------------------------------------------
@pytest.fixture
def build_calls(monkeypatch):
    calls: list[str] = []
    original = passes.build_rcg_from_kernel

    def counting(kernel, ddg, config, *args, **kwargs):
        calls.append(kernel.loop.name)
        return original(kernel, ddg, config, *args, **kwargs)

    monkeypatch.setattr(passes, "build_rcg_from_kernel", counting)
    return calls


def test_rcg_built_once_per_loop_under_run_evaluation(build_calls):
    loops = spec95_corpus(n=5)
    cache = ArtifactCache()
    run = run_evaluation(
        loops=loops, config=PipelineConfig(run_regalloc=False), cache=cache
    )
    assert not run.failures
    assert sorted(build_calls) == sorted(loop.name for loop in loops)
    # RCG reuse is invisible to the cache counters: 1 miss + 5 hits a loop
    assert (run.cache_misses, run.cache_hits) == (len(loops), 5 * len(loops))


def test_two_heuristics_sharing_a_cache_build_twice(build_calls):
    loops = spec95_corpus(n=4)
    cache = ArtifactCache()
    for heuristic in (HeuristicConfig(), HeuristicConfig(antiaffinity_scale=1.0)):
        run_evaluation(
            loops=loops,
            config=PipelineConfig(heuristic=heuristic, run_regalloc=False),
            cache=cache,
        )
    assert sorted(build_calls) == sorted(2 * [loop.name for loop in loops])


def test_shared_graph_is_heuristic_specific():
    cache = ArtifactCache()
    loop = spec95_corpus(n=1)[0]
    a = shared_rcg(_prepared(loop, cache))
    assert shared_rcg(_prepared(loop, cache)) is a
    other = PipelineConfig(heuristic=HeuristicConfig(affinity_scale=2.0))
    b = shared_rcg(_prepared(loop, cache, other))
    assert b is not a
    assert list(b.edge_weight_values()) != list(a.edge_weight_values())


# ----------------------------------------------------------------------
# the frozen graph
# ----------------------------------------------------------------------
def _builder(loop):
    ctx = _prepared(loop)
    return build_rcg_from_kernel(ctx.ideal, ctx.ddg, ctx.config.heuristic)


def _naive_weight_scale(weights) -> float:
    positives = [w for w in weights if w > 0]
    if positives:
        return sum(positives) / len(positives)
    return sum(abs(w) for w in weights) / len(weights) if weights else 1.0


def _naive_positive_components(builder) -> int:
    parent = {rid: rid for rid in builder._nodes}

    def find(rid):
        while parent[rid] != rid:
            rid = parent[rid]
        return rid

    for (a, b), w in builder._edges.items():
        if w > 0:
            parent[find(a)] = find(b)
    return len({find(rid) for rid in parent})


@pytest.mark.parametrize("loop", spec95_corpus(n=12), ids=lambda loop: loop.name)
def test_frozen_queries_match_builder_tables(loop):
    builder = _builder(loop)
    frozen = builder.freeze()
    nodes, weights, edges = builder._nodes, builder._node_weight, builder._edges
    regs = [nodes[rid] for rid in sorted(nodes)]

    assert len(frozen) == len(nodes) and frozen.nodes() == regs
    assert all(reg in frozen for reg in regs)
    assert [frozen.node_weight(r) for r in regs] == [weights[r.rid] for r in regs]
    assert frozen.n_edges == len(edges)
    assert [(a.rid, b.rid, w) for a, b, w in frozen.edges()] == [
        (a, b, w) for (a, b), w in sorted(edges.items())
    ]
    assert frozen.edge_weight_values() == list(edges.values())
    for (a, b), w in edges.items():
        assert frozen.edge_weight(nodes[a], nodes[b]) == w
        assert frozen.edge_weight(nodes[b], nodes[a]) == w
    adjacency = frozen.adjacency()
    for reg in regs:
        expected = sorted(
            (b if a == reg.rid else a, w)
            for (a, b), w in edges.items() if reg.rid in (a, b)
        )
        assert adjacency[reg.rid] == expected
        assert [(n.rid, w) for n, w in frozen.neighbors(reg)] == expected
    assert frozen.nodes_by_weight() == sorted(
        regs, key=lambda r: (-weights[r.rid], r.rid)
    )
    assert frozen.weight_scale == _naive_weight_scale(list(edges.values()))
    assert frozen.n_positive_components == _naive_positive_components(builder)

    # cut / internal weight sum in the builder's edge insertion order
    assignment = {reg.rid: i % 3 for i, reg in enumerate(regs)}
    cut = internal = 0.0
    for (a, b), w in edges.items():
        if assignment[a] != assignment[b]:
            cut += w
        else:
            internal += w
    assert frozen.cut_weight(assignment) == cut
    assert frozen.internal_weight(assignment) == internal


def test_frozen_graph_rejects_mutation():
    builder = _builder(spec95_corpus(n=1)[0])
    frozen = builder.freeze()
    a, b = frozen.nodes()[:2]
    with pytest.raises(AttributeError):
        frozen.add_edge_weight(a, b, 1.0)
    with pytest.raises(AttributeError):
        frozen.add_node(a)
    with pytest.raises(AttributeError):
        frozen.weight_scale = 0.0
    with pytest.raises(AttributeError):
        del frozen.placement_order
    assert frozen.freeze() is frozen


def test_builder_mutation_refreezes():
    builder = _builder(spec95_corpus(n=1)[0])
    frozen = builder.freeze()
    assert builder.freeze() is frozen
    a, b = builder.nodes()[:2]
    before = frozen.edge_weight(a, b)
    builder.add_edge_weight(a, b, 1.0)
    refrozen = builder.freeze()
    assert refrozen is not frozen
    assert refrozen.edge_weight(a, b) == before + 1.0
    assert frozen.edge_weight(a, b) == before  # the old snapshot is untouched
    builder.add_node_weight(a, 100.0)
    assert builder.freeze().nodes_by_weight()[0] == a


# ----------------------------------------------------------------------
# footprint
# ----------------------------------------------------------------------
def test_retained_rcg_footprint_is_compact():
    """The cache keeps one frozen RCG per loop it serves, and a caller
    may keep each loop's: it must stay small (the dict-and-set graph it
    replaced retained about 42 KB per loop)."""
    loops = spec95_corpus(n=40)
    contexts = [_prepared(loop, ArtifactCache()) for loop in loops]
    gc.collect()
    tracemalloc.start()
    try:
        graphs = [shared_rcg(ctx) for ctx in contexts]
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(isinstance(g, FrozenRCG) for g in graphs)
    assert [shared_rcg(ctx) for ctx in contexts] == graphs  # held by the caches
    assert retained / len(loops) <= 12 * 1024
