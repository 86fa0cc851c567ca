"""Golden-equivalence tests for the optimized hot-path kernels.

The hot-path perf work rewrote ``recurrence_ii``, ``critical_cycle_ratio``,
``longest_path_heights`` (SCC condensation + cached int-indexed edge
arrays) and ``greedy_partition`` (single-pass benefit accumulation with
incrementally-maintained bank sizes), then reworked the scheduling and
partitioning data layer around flat integer arrays: packed occupancy-word
modulo reservation tables (with a reference backend),
CSR adjacency for the partitioner and component analysis, and
difference-array liveness/interference rows.  Each rewrite kept its
direct transcription as a ``_reference_*`` function or backend; these
tests drive both over hundreds of seeded random inputs — self-edges,
multi-SCC shapes, precolored nodes, copy ops, eviction sequences
included — and assert *value identity*, not approximate agreement,
because the evaluation tables must be byte-stable across the rewrite.
"""

from __future__ import annotations

import random

import pytest

from repro.core.greedy import _reference_greedy_partition, greedy_partition
from repro.core.rcg import RegisterComponentGraph
from repro.core.weights import HeuristicConfig
from repro.ddg.analysis import (
    _reference_critical_cycle_ratio,
    _reference_longest_path_heights,
    _reference_recurrence_ii,
    critical_cycle_ratio,
    longest_path_heights,
    recurrence_ii,
)
from repro.ddg.dependence import DepKind, Dependence
from repro.ddg.graph import DDG
from repro.ir.operations import Opcode, Operation
from repro.ir.registers import RegisterFactory
from repro.ir.types import DataType

DDG_SEEDS = range(120)
RCG_SEEDS = range(120)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def random_ddg(seed: int) -> DDG:
    """A random cyclic DDG: forward distance-0 edges (so the distance-0
    subgraph stays acyclic, as every real loop body's does), backward and
    self edges at distance >= 1 (creating anything from none to several
    overlapping recurrences / a large multi-node SCC)."""
    rng = random.Random(seed)
    factory = RegisterFactory()
    n = rng.randint(2, 24)
    ops = []
    for _ in range(n):
        dest = factory.new(DataType.INT)
        src = factory.new(DataType.INT)
        ops.append(Operation(opcode=Opcode.ADD, dest=dest, sources=(src, src)))
    ddg = DDG(ops=list(ops))

    n_forward = rng.randint(0, 2 * n)
    for _ in range(n_forward):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        ddg.add_edge(
            Dependence(ops[i], ops[j], DepKind.FLOW, rng.randint(1, 6), 0,
                       reg=ops[i].dest)
        )
    n_carried = rng.randint(0, n)
    for _ in range(n_carried):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        ddg.add_edge(
            Dependence(ops[i], ops[j], DepKind.FLOW, rng.randint(1, 6),
                       rng.randint(1, 3), reg=ops[i].dest)
        )
    # self-edges: accumulator-style recurrences, sometimes several per op
    for _ in range(rng.randint(0, 3)):
        k = rng.randrange(n)
        ddg.add_edge(
            Dependence(ops[k], ops[k], DepKind.FLOW, rng.randint(1, 8),
                       rng.randint(1, 3), reg=ops[k].dest)
        )
    return ddg


def random_rcg(seed: int) -> tuple[RegisterComponentGraph, list]:
    rng = random.Random(seed)
    factory = RegisterFactory()
    n = rng.randint(2, 30)
    regs = [factory.new(DataType.INT) for _ in range(n)]
    rcg = RegisterComponentGraph()
    for reg in regs:
        rcg.add_node_weight(reg, rng.uniform(-2.0, 10.0))
    for _ in range(rng.randint(0, 3 * n)):
        a, b = rng.sample(regs, 2)
        rcg.add_edge_weight(a, b, rng.uniform(-4.0, 8.0))
    return rcg, regs


# ----------------------------------------------------------------------
# DDG analyses
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", DDG_SEEDS)
def test_recurrence_ii_matches_reference(seed):
    ddg = random_ddg(seed)
    assert recurrence_ii(ddg) == _reference_recurrence_ii(ddg)


@pytest.mark.parametrize("seed", DDG_SEEDS)
def test_critical_cycle_ratio_matches_reference(seed):
    ddg = random_ddg(seed)
    fast = critical_cycle_ratio(ddg)
    slow = _reference_critical_cycle_ratio(ddg)
    # both bisect to 1e-6; per-SCC restriction may land on a different
    # point of the same bracket
    assert abs(fast - slow) <= 2e-6


@pytest.mark.parametrize("seed", DDG_SEEDS)
def test_longest_path_heights_match_reference(seed):
    ddg = random_ddg(seed)
    rec = recurrence_ii(ddg)
    for ii in (rec, rec + 1, rec + 3):
        assert longest_path_heights(ddg, ii=ii) == _reference_longest_path_heights(
            ddg, ii=ii
        )


@pytest.mark.parametrize("seed", DDG_SEEDS)
def test_heights_raise_identically_below_recii(seed):
    """Below RecII both implementations must reject (positive cycle)."""
    ddg = random_ddg(seed)
    rec = recurrence_ii(ddg)
    if rec <= 1:
        pytest.skip("graph has no recurrence to violate")
    ii = rec - 1
    with pytest.raises(ValueError):
        longest_path_heights(ddg, ii=ii)
    with pytest.raises(ValueError):
        _reference_longest_path_heights(ddg, ii=ii)


def test_analysis_cache_invalidated_by_mutation():
    """Adding an edge after an analysis ran must be reflected, not served
    from the stale cached index."""
    ddg = random_ddg(7)
    before = recurrence_ii(ddg)
    op = ddg.ops[0]
    ddg.add_edge(Dependence(op, op, DepKind.FLOW, delay=50, distance=1,
                            reg=op.dest))
    after = recurrence_ii(ddg)
    assert after >= 50
    assert after >= before
    assert after == _reference_recurrence_ii(ddg)


# ----------------------------------------------------------------------
# greedy partitioner
# ----------------------------------------------------------------------
CONFIGS = [
    HeuristicConfig(),
    HeuristicConfig(literal_figure4=True),
    HeuristicConfig(capacity_alpha=0.0),
    HeuristicConfig(balance_penalty=0.0),
]


@pytest.mark.parametrize("seed", RCG_SEEDS)
def test_greedy_partition_matches_reference(seed):
    rcg, regs = random_rcg(seed)
    rng = random.Random(seed + 1)
    n_banks = rng.choice((2, 4, 8))
    config = CONFIGS[seed % len(CONFIGS)]

    precolored = None
    if seed % 3 == 0:
        pins = rng.sample(regs, min(len(regs), rng.randint(1, 4)))
        precolored = {reg: rng.randrange(n_banks) for reg in pins}
    slots_per_bank = rng.choice((None, 4, 16))

    fast = greedy_partition(rcg, n_banks, config=config,
                            precolored=precolored, slots_per_bank=slots_per_bank)
    slow = _reference_greedy_partition(rcg, n_banks, config=config,
                                       precolored=precolored,
                                       slots_per_bank=slots_per_bank)
    assert fast.assignment == slow.assignment


# ----------------------------------------------------------------------
# connected components over the CSR adjacency
# ----------------------------------------------------------------------
def _naive_components(rcg, positive_only):
    """Set-based flood fill straight off the public edge iterator."""
    adj: dict[int, set[int]] = {reg.rid: set() for reg in rcg.nodes()}
    for a, b, w in rcg.edges():
        if positive_only and w <= 0:
            continue
        adj[a.rid].add(b.rid)
        adj[b.rid].add(a.rid)
    seen: set[int] = set()
    comps: list[list[int]] = []
    for reg in rcg.nodes():
        if reg.rid in seen:
            continue
        stack, comp = [reg.rid], []
        seen.add(reg.rid)
        while stack:
            rid = stack.pop()
            comp.append(rid)
            for n in adj[rid]:
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        comps.append(sorted(comp))
    comps.sort(
        key=lambda c: (-sum(rcg.node_weight(rcg._nodes[r]) for r in c), c[0])
    )
    return comps


@pytest.mark.parametrize("seed", range(80))
def test_connected_components_match_naive(seed):
    from repro.core.components import connected_components

    rcg, _regs = random_rcg(seed)
    for positive_only in (False, True):
        fast = connected_components(rcg, positive_only=positive_only)
        assert [[r.rid for r in comp] for comp in fast] == _naive_components(
            rcg, positive_only
        )


# ----------------------------------------------------------------------
# modulo reservation table backends
# ----------------------------------------------------------------------
from repro.ir.operations import make_copy  # noqa: E402
from repro.machine.machine import CopyModel  # noqa: E402
from repro.machine.presets import ideal_machine, paper_machine  # noqa: E402
from repro.sched.resources import (  # noqa: E402
    MRT_BACKENDS,
    MRTBackendError,
    make_mrt,
)


def _mrt_fixture(seed: int):
    """(machine, new_op) for one randomized MRT scenario: clustered
    machines with both copy models (so copies hit FU, port and bus
    demands) and the monolithic ideal machine."""
    rng = random.Random(seed * 7919 + 13)
    factory = RegisterFactory()

    def alu(cluster):
        a = factory.new(DataType.INT)
        b = factory.new(DataType.INT)
        op = Operation(opcode=Opcode.ADD, dest=a, sources=(b, b))
        op.cluster = cluster
        return op

    if seed % 5 == 4:
        machine = ideal_machine(width=rng.choice((1, 2, 4)))
        return rng, machine, lambda: alu(None)

    n_clusters = rng.choice((2, 4, 8))
    copy_model = rng.choice((CopyModel.EMBEDDED, CopyModel.COPY_UNIT))
    machine = paper_machine(n_clusters, copy_model)

    def new_op():
        cluster = rng.randrange(n_clusters)
        if rng.random() < 0.3:
            dtype = rng.choice((DataType.INT, DataType.FLOAT))
            return make_copy(
                factory.new(dtype), factory.new(dtype), cluster=cluster
            )
        return alu(cluster)

    return rng, machine, new_op


@pytest.mark.parametrize("seed", range(60))
def test_mrt_backends_agree_on_random_sequences(seed):
    """Drive every available backend through one randomized script of
    fits / first_free / place / remove / conflicting_ops — including the
    eviction-style churn the iterative scheduler produces — and demand
    identical answers at every step (conflict lists compared *in order*:
    the scheduler's eviction choice depends on it)."""
    rng, machine, new_op = _mrt_fixture(seed)
    ii = rng.randint(2, 10)
    backends = MRT_BACKENDS
    tables = [make_mrt(machine, ii, backend=b) for b in backends]

    pool = [new_op() for _ in range(rng.randint(2, 12))]
    placed: dict[int, object] = {}

    for _ in range(200):
        roll = rng.random()
        if roll < 0.45 or not placed:
            op = rng.choice(pool)
            if op.op_id in placed:
                continue
            t = rng.randrange(3 * ii)
            fits = [mrt.fits(op, t) for mrt in tables]
            assert len(set(fits)) == 1, (seed, backends, fits)
            if fits[0]:
                for mrt in tables:
                    mrt.place(op, t)
                placed[op.op_id] = op
        elif roll < 0.70:
            op = rng.choice(pool)
            estart = rng.randrange(3 * ii)
            slots = [mrt.first_free(op, estart) for mrt in tables]
            assert len(set(slots)) == 1, (seed, backends, slots)
            slot = slots[0]
            if slot is not None:
                assert estart <= slot < estart + ii
                if op.op_id not in placed:
                    for mrt in tables:
                        mrt.place(op, slot)
                    placed[op.op_id] = op
        elif roll < 0.85:
            op = rng.choice(pool)
            t = rng.randrange(3 * ii)
            conflicts = [mrt.conflicting_ops(op, t) for mrt in tables]
            assert all(c == conflicts[0] for c in conflicts), (seed, conflicts)
        else:
            op = placed.pop(rng.choice(list(placed)))
            times = [mrt.remove(op) for mrt in tables]
            assert len(set(times)) == 1, (seed, times)

    for op in placed.values():
        times = [mrt.time_of(op) for mrt in tables]
        assert len(set(times)) == 1


@pytest.mark.parametrize("backend", MRT_BACKENDS)
def test_mrt_backend_error_parity(backend):
    """Every backend rejects double placement and over-subscription."""
    machine = ideal_machine(width=1)

    def alu():
        f = RegisterFactory()
        return Operation(
            opcode=Opcode.ADD, dest=f.new(DataType.INT),
            sources=(f.new(DataType.INT),) * 2,
        )

    mrt = make_mrt(machine, 3, backend=backend)
    op = alu()
    mrt.place(op, 4)
    with pytest.raises(ValueError):
        mrt.place(op, 1)
    with pytest.raises(ValueError):
        mrt.place(alu(), 7)  # same modulo row on a width-1 machine
    assert mrt.remove(op) == 4
    mrt.place(alu(), 1)


def test_make_mrt_rejects_unknown_backend():
    with pytest.raises(MRTBackendError):
        make_mrt(ideal_machine(), 2, backend="vectorized")


# ----------------------------------------------------------------------
# scheduler parity across MRT backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(30))
def test_scheduler_attempts_identical_across_backends(seed):
    """One ``_try_ii`` attempt (the whole placement/eviction engine) must
    produce the identical times table and eviction count on every
    backend, for random DDGs on both the ideal and a clustered machine."""
    from repro.sched.modulo.scheduler import ModuloScheduler

    ddg = random_ddg(seed)
    rng = random.Random(seed + 1000)
    if seed % 2:
        machine = paper_machine(4, CopyModel.EMBEDDED)
        for op in ddg.ops:
            op.cluster = rng.randrange(4)
    else:
        machine = ideal_machine(width=rng.choice((1, 2)))

    rec = recurrence_ii(ddg)
    for ii in (rec, rec + 2, rec + 5):
        results = []
        for backend in MRT_BACKENDS:
            sched = ModuloScheduler(machine, mrt_backend=backend)
            sched._demand_cache = {}
            results.append(sched._try_ii(ddg, ii))
        assert all(r == results[0] for r in results[1:]), (seed, ii, results)


def test_corpus_schedules_identical_across_backends():
    """End-to-end: modulo-schedule real corpus loops under each backend
    and require identical II and issue times."""
    from repro.ddg.builder import build_loop_ddg
    from repro.sched.modulo.scheduler import modulo_schedule
    from repro.workloads.corpus import spec95_corpus

    machine = ideal_machine()
    for loop in spec95_corpus(n=10):
        ddg = build_loop_ddg(loop)
        kernels = [
            modulo_schedule(loop, ddg, machine, mrt_backend=b)
            for b in MRT_BACKENDS
        ]
        for k in kernels[1:]:
            assert k.ii == kernels[0].ii
            assert k.times == kernels[0].times


# ----------------------------------------------------------------------
# liveness pressure rows
# ----------------------------------------------------------------------
from repro.regalloc.liveness import (  # noqa: E402
    CyclicLiveness,
    LiveRange,
    _reference_pressure_rows,
)


def random_liveness(seed: int) -> CyclicLiveness:
    rng = random.Random(seed)
    factory = RegisterFactory()
    ii = rng.randint(1, 12)
    ranges = {}
    for _ in range(rng.randint(1, 40)):
        reg = factory.new(DataType.INT)
        ranges[reg.rid] = LiveRange(
            reg=reg,
            start=rng.randrange(0, 4 * ii),
            lifetime=rng.randint(1, 5 * ii),
            invariant=rng.random() < 0.2,
            n_uses=rng.randint(0, 3),
        )
    return CyclicLiveness(ii=ii, ranges=ranges)


@pytest.mark.parametrize("seed", range(80))
def test_pressure_rows_match_reference(seed):
    liv = random_liveness(seed)
    for include_invariant in (False, True):
        assert liv.pressure_rows(include_invariant=include_invariant) == \
            _reference_pressure_rows(liv, include_invariant=include_invariant)
    assert liv.max_live() == max(_reference_pressure_rows(liv), default=0)


def test_pressure_rows_empty_liveness():
    liv = CyclicLiveness(ii=4, ranges={})
    assert liv.pressure_rows() == [0, 0, 0, 0]
    assert liv.max_live() == 0


# ----------------------------------------------------------------------
# interference construction
# ----------------------------------------------------------------------
def test_interference_matches_reference_over_corpus():
    """Bitmask-overlap interference vs the cycle-sweep oracle on real
    pipelined loops: same nodes (in order), same adjacency, same
    recorded max pressure."""
    from repro.ddg.builder import build_loop_ddg
    from repro.regalloc.interference import (
        _reference_build_interference,
        build_interference,
    )
    from repro.regalloc.liveness import cyclic_liveness
    from repro.regalloc.mve import plan_mve
    from repro.sched.modulo.scheduler import modulo_schedule
    from repro.workloads.corpus import spec95_corpus

    machine = ideal_machine()
    checked = 0
    for loop in spec95_corpus(n=14):
        ddg = build_loop_ddg(loop)
        kernel = modulo_schedule(loop, ddg, machine)
        plan = plan_mve(cyclic_liveness(kernel, ddg))
        fast = build_interference(plan)
        slow = _reference_build_interference(plan)
        assert fast.nodes == slow.nodes
        assert fast.adj == slow.adj
        assert fast._max_pressure == slow._max_pressure
        checked += 1
    assert checked == 14
