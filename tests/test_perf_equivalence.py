"""Golden-equivalence tests for the optimized hot-path kernels.

The hot-path perf work rewrote ``recurrence_ii``, ``critical_cycle_ratio``,
``longest_path_heights`` (SCC condensation + cached int-indexed edge
arrays) and ``greedy_partition`` (single-pass benefit accumulation with
incrementally-maintained bank sizes), then reworked the scheduling and
partitioning data layer around flat integer arrays: a packed
occupancy-word modulo reservation table, CSR adjacency for the
partitioner and component analysis, and difference-array
liveness/interference rows.  Each rewrite's direct transcription is a
golden oracle in ``tests/golden.py``; these tests drive both over hundreds of seeded random inputs — self-edges, multi-SCC
shapes, precolored nodes, copy ops, eviction sequences included — and
assert *value identity*, not approximate agreement, because the
evaluation tables must be byte-stable across the rewrite.  The secondary
schedulers and partitioners (Swing, the list scheduler, UAS and BUG) run
on the DDG's index and packed demand words; their object-walking
originals are golden oracles too.  ``golden.use_reference_mrt`` replaces
``ModuloScheduler._try_ii`` with the golden op-keyed attempt on the
golden table, and the pipeline's Swing with the golden Swing.
"""

from __future__ import annotations

import random

import pytest

from repro.core.baselines import random_partition
from repro.core.cache import ArtifactCache
from repro.core.copies import insert_copies
from repro.core.greedy import greedy_partition
from repro.core.pipeline import PipelineConfig, compile_loop
from repro.core.rcg import FrozenRCG, RegisterComponentGraph
from repro.core.weights import HeuristicConfig, build_rcg_from_kernel
from repro.ddg.analysis import (
    critical_cycle_ratio,
    estart_lstart,
    longest_path_heights,
    recurrence_ii,
    resource_ii,
)
from repro.ddg.graph import DDG, DepKind
from repro.evalx.runner import PAPER_CONFIG_ORDER
from repro.ir.builder import LoopBuilder
from repro.ir.operations import Opcode, Operation, make_copy
from repro.ir.registers import RegisterFactory
from repro.ir.types import DataType
from repro.machine.machine import CopyModel
from repro.machine.presets import ideal_machine, paper_machine
from repro.sched.resources import demand_words, resource_geometry
from repro.workloads.corpus import spec95_corpus
from tests.golden import (
    Dependence,
    ReferenceModuloReservationTable,
    _reference_bug_partition,
    _reference_build_interference,
    _reference_build_rcg_from_kernel,
    _reference_critical_cycle_ratio,
    _reference_estart_lstart,
    _reference_greedy_partition,
    _reference_insert_copies,
    _reference_list_schedule,
    _reference_longest_path_heights,
    _reference_pressure_rows,
    _reference_recurrence_ii,
    _reference_resource_ii,
    _reference_swing_modulo_schedule,
    _reference_uas_partition,
    add_dependence,
    ddg_rows,
    frozen_tables,
    partitioned_listing,
    rebuilt_ddg_rows,
    reference_try_ii,
    use_reference_mrt,
)

DDG_SEEDS = range(120)
RCG_SEEDS = range(120)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def random_ddg(seed: int, copy_frac: float = 0.0) -> DDG:
    """A random cyclic DDG: forward distance-0 edges (so the distance-0
    subgraph stays acyclic, as every real loop body's does), backward and
    self edges at distance >= 1 (creating anything from none to several
    overlapping recurrences / a large multi-node SCC).  About
    ``copy_frac`` of the ops are copies."""
    rng = random.Random(seed)
    factory = RegisterFactory()
    n = rng.randint(2, 24)
    ops = []
    for _ in range(n):
        dest = factory.new(DataType.INT)
        src = factory.new(DataType.INT)
        if copy_frac and rng.random() < copy_frac:
            ops.append(make_copy(dest, src))
        else:
            ops.append(Operation(opcode=Opcode.ADD, dest=dest, sources=(src, src)))
    ddg = DDG(ops=list(ops))

    n_forward = rng.randint(0, 2 * n)
    for _ in range(n_forward):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        add_dependence(ddg, Dependence(ops[i], ops[j], DepKind.FLOW,
                                       rng.randint(1, 6), 0, reg=ops[i].dest))
    n_carried = rng.randint(0, n)
    for _ in range(n_carried):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        add_dependence(ddg, Dependence(ops[i], ops[j], DepKind.FLOW, rng.randint(1, 6),
                                       rng.randint(1, 3), reg=ops[i].dest))
    # self-edges: accumulator-style recurrences, sometimes several per op
    for _ in range(rng.randint(0, 3)):
        k = rng.randrange(n)
        add_dependence(ddg, Dependence(ops[k], ops[k], DepKind.FLOW, rng.randint(1, 8),
                                       rng.randint(1, 3), reg=ops[k].dest))
    return ddg


def random_rcg(seed: int) -> tuple[FrozenRCG, list]:
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
    return rcg.freeze(), regs


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


RES_II_MACHINES = [ideal_machine()] + [
    paper_machine(n, model)
    for n in (2, 4, 8)
    for model in (CopyModel.EMBEDDED, CopyModel.COPY_UNIT)
]


@pytest.mark.parametrize("seed", DDG_SEEDS)
def test_resource_ii_matches_reference(seed):
    """ResII read off the demand words (its own or the caller's) equals
    the per-op count on unpinned, partly pinned and fully pinned bodies
    with about 30% copies, and an out-of-range cluster fails the same
    way."""
    rng = random.Random(seed)
    for machine in RES_II_MACHINES:
        for pinned in (0.0, 0.5, 1.0):
            ddg = random_ddg(seed, copy_frac=0.3)
            for op in ddg.ops:
                if rng.random() < pinned:
                    op.cluster = rng.randrange(machine.n_clusters)
            expected = _reference_resource_ii(ddg, machine)
            assert resource_ii(ddg, machine) == expected
            assert resource_ii(ddg, machine) == expected  # memo hit
            # the scheduler hands over the words it already has
            twin = random_ddg(seed, copy_frac=0.3)
            for op, pinned_op in zip(twin.ops, ddg.ops):
                op.cluster = pinned_op.cluster
            words = demand_words(twin.ops, machine)
            assert resource_ii(twin, machine, words) == expected

        ddg = random_ddg(seed, copy_frac=0.3)
        for op in ddg.ops:
            op.cluster = rng.randrange(machine.n_clusters)
        ddg.ops[rng.randrange(len(ddg.ops))].cluster = machine.n_clusters
        if not machine.is_clustered:
            assert resource_ii(ddg, machine) == _reference_resource_ii(ddg, machine)
            continue
        with pytest.raises(ValueError) as slow:
            _reference_resource_ii(ddg, machine)
        with pytest.raises(ValueError) as fast:
            resource_ii(ddg, machine)
        assert str(fast.value) == str(slow.value)


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


@pytest.mark.parametrize("seed", DDG_SEEDS)
def test_estart_lstart_match_reference(seed):
    """Random issue times, with and without a latency table; the index
    pass must give the same bounds (and dict order) as the edge walk."""
    from repro.machine.latency import PAPER_LATENCIES

    ddg = random_ddg(seed)
    rng = random.Random(seed)
    times = {op.op_id: rng.randint(0, 30) for op in ddg.ops}
    for length, latencies in ((32, None), (40, PAPER_LATENCIES)):
        fast = estart_lstart(ddg, times, length, latencies)
        slow = _reference_estart_lstart(ddg, times, length, latencies)
        assert fast == slow
        assert [list(d) for d in fast] == [list(d) for d in slow]


def test_estart_lstart_match_reference_over_corpus_ideal_schedules():
    from repro.ddg.builder import build_loop_ddg
    from repro.machine.presets import ideal_machine
    from repro.sched.modulo.scheduler import modulo_schedule
    from repro.workloads.corpus import spec95_corpus

    ideal = ideal_machine()
    for loop in spec95_corpus(n=60):
        ddg = build_loop_ddg(loop, ideal.latencies)
        ks = modulo_schedule(loop, ddg, ideal)
        args = (ks.times, ks.flat_length, ideal.latencies)
        assert estart_lstart(ddg, *args) == _reference_estart_lstart(ddg, *args)


def test_add_row_on_a_built_graph_still_coalesces():
    """``build_loop_ddg`` drops its coalescing map once built; an edge
    added afterwards must still merge with the stored row of its key."""
    from repro.ddg.builder import build_loop_ddg
    from repro.workloads.kernels import make_kernel

    ddg = build_loop_ddg(make_kernel("daxpy"))
    assert ddg._keys is None
    s, d, kind, delay, distance, reg = ddg.rows[0]
    n_rows = ddg.n_edges
    assert not ddg.add_row(s, d, kind, delay, distance, reg)  # subsumed
    assert ddg.add_row(s, d, kind, delay + 5, distance, reg)  # raises the delay
    assert ddg.n_edges == n_rows
    assert ddg.rows[0] == (s, d, kind, delay + 5, distance, reg)
    assert ddg.index().delay[ddg.index().edge_row.index(0)] == delay + 5


def test_analysis_cache_invalidated_by_mutation():
    """Adding an edge after an analysis ran must be reflected, not served
    from the stale cached index."""
    ddg = random_ddg(7)
    before = recurrence_ii(ddg)
    op = ddg.ops[0]
    add_dependence(ddg, Dependence(op, op, DepKind.FLOW, delay=50, distance=1,
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
# steps 3-4 on the corpus: RCG weighting, greedy placement, copy insertion
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick40_cells():
    """``(machine, result)`` for every quick-40 cell on the six paper
    configurations, compiled loop-major with one cache as ``repro
    evaluate`` runs them (no register allocation)."""
    config = PipelineConfig(run_regalloc=False)
    cache = ArtifactCache()
    machines = [paper_machine(n, model) for n, model in PAPER_CONFIG_ORDER]
    return [
        (machine, compile_loop(loop, machine, config, cache=cache))
        for loop in spec95_corpus(n=40)
        for machine in machines
    ]


def test_rcg_build_matches_reference_on_corpus(quick40_cells):
    heuristics = [*CONFIGS, HeuristicConfig(use_density=False, depth_base=3.0)]
    for _machine, result in quick40_cells[::len(PAPER_CONFIG_ORDER)]:
        for heuristic in heuristics:
            fast = build_rcg_from_kernel(result.ideal, result.ddg, heuristic)
            slow = _reference_build_rcg_from_kernel(result.ideal, result.ddg, heuristic)
            assert frozen_tables(fast) == frozen_tables(slow), result.loop.name
            assert fast._node_weight == slow._node_weight


@pytest.mark.parametrize("config", CONFIGS, ids=["default", "literal", "average", "unbalanced"])
def test_greedy_partition_matches_reference_on_corpus(quick40_cells, config):
    """The frozen RCG of every quick-40 loop, with ``slots_per_bank`` as
    the pipeline passes it and without it."""
    for machine, result in quick40_cells:
        for slots in (machine.fus_per_cluster * result.ideal.ii, None):
            fast = greedy_partition(result.rcg, machine.n_clusters, config,
                                    slots_per_bank=slots)
            slow = _reference_greedy_partition(result.rcg, machine.n_clusters, config,
                                               slots_per_bank=slots)
            assert list(fast.assignment.items()) == list(slow.assignment.items())


def test_insert_copies_matches_reference_on_corpus(quick40_cells):
    """Every quick-40 cell's greedy partition, and the same partition
    recomputed around a few precoloured pins."""
    rng = random.Random(3)
    for machine, result in quick40_cells:
        loop, rcg = result.precopy_loop, result.rcg
        pins = rng.sample(rcg.nodes(), min(3, len(rcg)))
        pinned = greedy_partition(
            rcg, machine.n_clusters, precolored={reg: rng.randrange(machine.n_clusters)
                                                 for reg in pins},
            slots_per_bank=machine.fus_per_cluster * result.ideal.ii,
        )
        expected = partitioned_listing(result.partitioned)
        assert partitioned_listing(insert_copies(loop, result.partition, machine)) == expected
        assert partitioned_listing(
            _reference_insert_copies(loop, result.partition, machine)) == expected
        assert partitioned_listing(insert_copies(loop, pinned, machine)) == \
            partitioned_listing(_reference_insert_copies(loop, pinned, machine))


def _edge_case_loop():
    """Live-in reads, an accumulator, stores homed by their value, and a
    store of an immediate (no register: homed on cluster 0)."""
    b = LoopBuilder("edge_cases")
    b.live_in("fa", "fb", "r9")
    b.fload("f1", "x")
    b.fmul("f2", "f1", "fa")
    b.fadd("f3", "f3", "f2")
    b.fmul("f4", "f1", "f1")
    b.store(7, "z")
    b.add("r1", "r9", 1)
    b.store("r1", "q")
    b.fadd("f5", "f4", "fb")
    b.fstore("f5", "w")
    b.fstore("f3", "y")
    b.live_out("f3")
    return b.build()


@pytest.mark.parametrize("n_banks", [2, 4, 8])
@pytest.mark.parametrize("model", [CopyModel.EMBEDDED, CopyModel.COPY_UNIT],
                         ids=["embedded", "copy_unit"])
def test_insert_copies_matches_reference_on_random_partitions(n_banks, model):
    machine = paper_machine(n_banks, model)
    for loop in [_edge_case_loop(), *spec95_corpus(n=40)]:
        for seed in range(4):
            partition = random_partition(loop, n_banks, seed)
            fast = insert_copies(loop, partition, machine)
            slow = _reference_insert_copies(loop, partition, machine)
            assert partitioned_listing(fast) == partitioned_listing(slow), (loop.name, seed)


# ----------------------------------------------------------------------
# connected components over the CSR adjacency
# ----------------------------------------------------------------------
def _naive_components(rcg, positive_only):
    """Set-based flood fill straight off the public edge iterator."""
    regs = {reg.rid: reg for reg in rcg.nodes()}
    adj: dict[int, set[int]] = {rid: set() for rid in regs}
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
        key=lambda c: (-sum(rcg.node_weight(regs[r]) for r in c), c[0])
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
# packed occupancy rows vs the golden table
# ----------------------------------------------------------------------
class PackedRows:
    """The row probe every modulo scheduler runs (``demand_words``, one
    occupancy word per kernel row and the geometry's bias/guard test)
    behind the golden table's fits/first_free/place/remove interface."""

    def __init__(self, machine, ii: int):
        if ii < 1:
            raise ValueError("II must be positive")
        geom = resource_geometry(machine)
        self.machine, self.ii, self.bias, self.guard = machine, ii, geom.bias, geom.guard
        self.occ = [0] * ii
        self.placed: dict[int, int] = {}

    def _word(self, op) -> int:
        return demand_words([op], self.machine)[0]

    def fits(self, op, time: int) -> bool:
        return not ((self.occ[time % self.ii] + self._word(op) + self.bias) & self.guard)

    def first_free(self, op, estart: int):
        return next((t for t in range(estart, estart + self.ii) if self.fits(op, t)), None)

    def place(self, op, time: int) -> None:
        if op.op_id in self.placed:
            raise ValueError(f"operation already placed: {op!r}")
        if not self.fits(op, time):
            raise ValueError("resource over-subscription")
        self.occ[time % self.ii] += self._word(op)
        self.placed[op.op_id] = time

    def remove(self, op) -> int:
        time = self.placed.pop(op.op_id)
        self.occ[time % self.ii] -= self._word(op)
        return time


#: the packed rows and the golden table, in the order the parity tests
#: compare them (ids keep the historical backend names)
MRT_TABLES = {"packed": PackedRows,
              "reference": ReferenceModuloReservationTable}


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
    """Drive the packed rows and the golden table through one randomized script
    of fits / first_free / place / remove — including the eviction-style
    churn the iterative scheduler produces — and demand identical answers
    at every step, then identical times as every placed op is removed."""
    rng, machine, new_op = _mrt_fixture(seed)
    ii = rng.randint(2, 10)
    backends = tuple(MRT_TABLES)
    tables = [table(machine, ii) for table in MRT_TABLES.values()]

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
        else:
            op = placed.pop(rng.choice(list(placed)))
            times = [mrt.remove(op) for mrt in tables]
            assert len(set(times)) == 1, (seed, times)

    for op in placed.values():
        times = [mrt.remove(op) for mrt in tables]
        assert len(set(times)) == 1


@pytest.mark.parametrize("backend", MRT_TABLES)
def test_mrt_backend_error_parity(backend):
    """Both encodings reject double placement and over-subscription."""
    machine = ideal_machine(width=1)

    def alu():
        f = RegisterFactory()
        return Operation(
            opcode=Opcode.ADD, dest=f.new(DataType.INT),
            sources=(f.new(DataType.INT),) * 2,
        )

    mrt = MRT_TABLES[backend](machine, 3)
    op = alu()
    mrt.place(op, 4)
    with pytest.raises(ValueError):
        mrt.place(op, 1)
    with pytest.raises(ValueError):
        mrt.place(alu(), 7)  # same modulo row on a width-1 machine
    assert mrt.remove(op) == 4
    mrt.place(alu(), 1)


# ----------------------------------------------------------------------
# scheduler parity with the golden attempt and table injected
# ----------------------------------------------------------------------
def _with_each_table(monkeypatch, run):
    """``[run() shipped, run() with the golden table]``: the second run
    sends IMS attempts through the golden attempt on the golden table
    and makes Swing build the golden table."""
    results = [run()]
    with monkeypatch.context() as m:
        use_reference_mrt(m)
        results.append(run())
    return results


def _scheduled(result):
    """An attempt's (times, evictions) with ``times`` as its item list,
    so dict order (final placement order) is compared too."""
    times, evictions = result
    return (None if times is None else list(times.items())), evictions


@pytest.mark.parametrize("seed", range(30))
def test_scheduler_attempts_identical_across_backends(seed):
    """One ``_try_ii`` attempt (the whole placement/eviction engine on op
    positions and demand words) must produce the identical times, in the
    same order, and the same eviction count as the golden op-keyed attempt
    on the golden table, for random DDGs on the ideal machine and 4x4
    embedded and copy-unit machines with copies in the op mix."""
    from repro.sched.modulo.scheduler import DEFAULT_BUDGET_RATIO, ModuloScheduler

    rng = random.Random(seed + 1000)
    for shape in ("ideal", "embedded", "copy_unit"):
        if shape == "ideal":
            ddg = random_ddg(seed)
            machine = ideal_machine(width=rng.choice((1, 2)))
        else:
            ddg = random_ddg(seed, copy_frac=0.3)
            machine = paper_machine(4, CopyModel(shape))
            for op in ddg.ops:
                op.cluster = rng.randrange(4)

        words = demand_words(ddg.ops, machine)
        rec = recurrence_ii(ddg)
        for ii in (rec, rec + 2, rec + 5):
            attempt = _scheduled(ModuloScheduler(machine)._try_ii(ddg, ii, words))
            golden = reference_try_ii(ddg, machine, ii, DEFAULT_BUDGET_RATIO)
            assert _scheduled(golden) == attempt, (seed, shape, ii)


def test_corpus_schedules_identical_across_backends(monkeypatch):
    """End-to-end: modulo-schedule real corpus loops with the shipped
    attempt and the golden attempt on the golden table, and Swing with
    the shipped and the golden Swing, and require identical II and issue
    times in the same order."""
    from repro.ddg.builder import build_loop_ddg
    from repro.sched.modulo.scheduler import modulo_schedule
    from repro.sched.modulo.swing import swing_modulo_schedule
    from repro.workloads.corpus import spec95_corpus

    machine = ideal_machine()
    for loop in spec95_corpus(n=10):
        ddg = build_loop_ddg(loop)
        kernels = _with_each_table(monkeypatch, lambda: modulo_schedule(loop, ddg, machine))
        kernels += [swing_modulo_schedule(loop, ddg, machine),
                    _reference_swing_modulo_schedule(loop, ddg, machine)]
        for a, b in (kernels[:2], kernels[2:]):
            assert a.ii == b.ii
            assert list(a.times.items()) == list(b.times.items())


# ----------------------------------------------------------------------
# Swing, list scheduling, UAS and BUG vs their object-walking originals
# ----------------------------------------------------------------------
def _outcome(run):
    """``run()``'s result as comparable values, or its error's type and
    text: a kernel's II and issue-time items, a linear schedule's items."""
    try:
        sched = run()
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)
    return getattr(sched, "ii", None), list(sched.times.items())


def _random_shapes(seed: int):
    """``(machine, ddg)`` for one random DDG on the ideal machine and on
    4x4 embedded and copy-unit machines with copies in the op mix and
    every op pinned."""
    rng = random.Random(seed + 2000)
    yield ideal_machine(width=rng.choice((1, 2, 4))), random_ddg(seed)
    for model in (CopyModel.EMBEDDED, CopyModel.COPY_UNIT):
        ddg = random_ddg(seed, copy_frac=0.3)
        for op in ddg.ops:
            op.cluster = rng.randrange(4)
        yield paper_machine(4, model), ddg


@pytest.mark.parametrize("seed", range(60))
def test_swing_matches_reference_on_random_ddgs(seed):
    from repro.ir.block import BasicBlock, Loop
    from repro.sched.modulo.swing import swing_modulo_schedule

    for machine, ddg in _random_shapes(seed):
        loop = Loop(name=f"rand{seed}", body=BasicBlock("b", ddg.ops))
        for max_ii in (None, recurrence_ii(ddg) + 1):
            assert _outcome(lambda: swing_modulo_schedule(loop, ddg, machine, max_ii)) == \
                _outcome(lambda: _reference_swing_modulo_schedule(loop, ddg, machine, max_ii))


@pytest.mark.parametrize("seed", range(60))
def test_list_schedule_matches_reference_on_random_dags(seed):
    """The distance-0 part of each random DDG (its forward edges), and
    the whole cyclic graph, which both refuse."""
    from repro.sched.list_scheduler import list_schedule

    for machine, ddg in _random_shapes(seed):
        dag = DDG(ops=ddg.ops)
        for row in ddg.rows:
            if row[4] == 0:
                dag.add_row(*row)
        for graph in (dag, ddg):
            assert _outcome(lambda: list_schedule(graph, machine)) == \
                _outcome(lambda: _reference_list_schedule(graph, machine))


def test_list_schedule_waits_out_delays_longer_than_latency():
    """Seed 49's distance-0 DDG on its 4-wide ideal machine has edge
    delays above their sources' latencies and a critical path of 12
    cycles; a bound of latencies alone (9 cycles) gave up on it."""
    from repro.sched.list_scheduler import list_schedule
    from repro.sched.validate import validate_linear_schedule

    machine, ddg = next(_random_shapes(49))
    assert machine.width == 4
    dag = DDG(ops=ddg.ops)
    for row in ddg.rows:
        if row[4] == 0:
            dag.add_row(*row)
    schedule = list_schedule(dag, machine)
    validate_linear_schedule(schedule, dag)
    assert max(schedule.times.values()) >= 12


def test_swing_and_list_schedule_match_reference_on_corpus(quick40_cells):
    """Swing on every quick-40 cell's clustered body and derived DDG, and
    the list scheduler on that body as a block on its machine and on the
    source body on the ideal machine."""
    from repro.ddg.builder import build_block_ddg
    from repro.sched.list_scheduler import list_schedule
    from repro.sched.modulo.swing import swing_modulo_schedule

    ideal = ideal_machine()
    for machine, result in quick40_cells:
        loop, ddg = result.partitioned.loop, result.partitioned_ddg
        assert _outcome(lambda: swing_modulo_schedule(loop, ddg, machine)) == \
            _outcome(lambda: _reference_swing_modulo_schedule(loop, ddg, machine))
        for body, target in ((loop.body, machine), (result.loop.body, ideal)):
            block = build_block_ddg(body, target.latencies)
            assert _outcome(lambda: list_schedule(block, target)) == \
                _outcome(lambda: _reference_list_schedule(block, target))


@pytest.mark.parametrize("n_clusters,model", [
    (2, CopyModel.EMBEDDED), (2, CopyModel.COPY_UNIT),
    (4, CopyModel.EMBEDDED), (4, CopyModel.COPY_UNIT),
], ids=["2-embedded", "2-copy_unit", "4-embedded", "4-copy_unit"])
def test_uas_and_bug_partitions_match_reference_on_corpus(n_clusters, model):
    from repro.core.baselines import bug_partition
    from repro.core.uas import uas_partition
    from repro.ddg.builder import build_loop_ddg

    machine = paper_machine(n_clusters, model)
    for loop in spec95_corpus(n=40):
        ddg = build_loop_ddg(loop, machine.latencies)
        for fast, slow in ((uas_partition, _reference_uas_partition),
                           (bug_partition, _reference_bug_partition)):
            assert list(fast(loop, ddg, machine).assignment.items()) == \
                list(slow(loop, ddg, machine).assignment.items()), (loop.name, fast)


def test_evaluation_report_identical_with_reference_mrt(monkeypatch):
    """The whole quick-8 evaluation report (minus its wall-time line) is
    byte-identical whichever table both schedulers build — the serial run
    compiles in this process, so the injected golden table is the one
    every cell's ideal and cluster schedules use."""
    from repro.core.pipeline import PipelineConfig
    from repro.evalx.report import render_full_report
    from repro.evalx.runner import run_evaluation
    from repro.workloads.corpus import spec95_corpus

    def report():
        # the config `repro evaluate` builds from its default flags
        config = PipelineConfig(partitioner="greedy", run_regalloc=False,
                                run_check=False)
        run = run_evaluation(loops=spec95_corpus(n=8), config=config)
        assert not run.failures
        text = render_full_report(run)
        return [line for line in text.splitlines() if "wall time" not in line]

    packed, reference = _with_each_table(monkeypatch, report)
    assert reference == packed


# ----------------------------------------------------------------------
# liveness pressure rows
# ----------------------------------------------------------------------
from repro.regalloc.liveness import CyclicLiveness, LiveRange  # noqa: E402


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
    assert liv.pressure_rows() == _reference_pressure_rows(liv)
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
    pipelined loops: same nodes (in order), same adjacency bitsets, same
    recorded max pressure."""
    from repro.ddg.builder import build_loop_ddg
    from repro.regalloc.interference import build_interference
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
        assert fast.max_pressure == slow.max_pressure
        checked += 1
    assert checked == 14


# ----------------------------------------------------------------------
# derived partitioned DDG
# ----------------------------------------------------------------------
def _checked_derivation(monkeypatch, seen: list):
    """Route ClusterReschedule's derivation through a check against
    ``build_loop_ddg`` plus a fresh analysis index; ``seen`` collects one
    entry per derived graph."""
    from repro.core import passes

    derive = passes.derive_partitioned_ddg

    def checked(source, partitioned, latencies):
        derived = derive(source, partitioned, latencies)
        assert ddg_rows(derived) == rebuilt_ddg_rows(partitioned.loop, latencies)
        seen.append(source)
        return derived

    monkeypatch.setattr(passes, "derive_partitioned_ddg", checked)


def _compile_grid(loops, config, machines, spill_may_fail: bool = False) -> int:
    from repro.core.cache import ArtifactCache
    from repro.core.pipeline import compile_loop

    cache = ArtifactCache()
    cells = 0
    for machine in machines:
        for loop in loops:
            try:
                compile_loop(loop, machine, config, cache=cache)
            except RuntimeError:
                if not spill_may_fail:
                    raise
                # spilling did not converge within the round limit
            cells += 1
    return cells


@pytest.mark.parametrize("mrt", ["shipped", "reference"])
def test_derived_partitioned_ddg_matches_rebuild_over_corpus(mrt, monkeypatch):
    """Every cell of the 211-loop corpus x 6 configurations: the derived
    partitioned DDG equals ``build_loop_ddg`` of the partitioned loop edge
    for edge in insertion order (successor and predecessor lists), and its
    installed index equals a fresh one, cyclic SCC order included."""
    from repro.core.pipeline import PipelineConfig
    from repro.evalx.runner import PAPER_CONFIG_ORDER
    from repro.workloads.corpus import spec95_corpus

    if mrt == "reference":
        use_reference_mrt(monkeypatch)
    seen: list = []
    _checked_derivation(monkeypatch, seen)
    config = PipelineConfig(partitioner="greedy", run_regalloc=False, run_check=False)
    machines = [paper_machine(n, model) for n, model in PAPER_CONFIG_ORDER]
    cells = _compile_grid(spec95_corpus(), config, machines)
    assert cells == 211 * 6
    assert len(seen) == cells


def test_derived_partitioned_ddg_matches_rebuild_across_spill_rounds(monkeypatch):
    """With 6-register banks register assignment fails and spills, so
    later rounds derive from the spilled loop's DDG, not the ideal one."""
    import dataclasses

    from repro.core.pipeline import PipelineConfig
    from repro.evalx.runner import PAPER_CONFIG_ORDER
    from repro.workloads.corpus import spec95_corpus

    seen: list = []
    _checked_derivation(monkeypatch, seen)
    machines = [
        dataclasses.replace(paper_machine(n, model), regs_per_bank=6)
        for n, model in PAPER_CONFIG_ORDER
    ]
    cells = _compile_grid(spec95_corpus(n=20), PipelineConfig(run_regalloc=True),
                          machines, spill_may_fail=True)
    spill_rounds = len(seen) - cells
    assert spill_rounds > 0


#: what the package no longer defines, and the DDG object views it dropped
REMOVED_NAMES = {"Dependence", "ResourceDemand", "op_resource_demand", "SlotPool",
                 "ReservationTable", "ModuloReservationTable"}
REMOVED_VIEWS = ("edges", "successors", "predecessors", "loop_carried_edges",
                 "intra_iteration_edges", "subgraph_view", "topological_order",
                 "dependence", "add_edge", "_deps", "_dependences")


def test_package_has_one_edge_view_and_one_resource_model():
    """Structural guard: no ``src/repro`` module defines an edge object or
    an object resource model, or imports the test oracles, and a DDG has
    only its rows and index (so no path can build edge objects)."""
    import ast
    from pathlib import Path

    import repro
    from repro.ddg.builder import build_loop_ddg
    from repro.sched.resources import ResourceGeometry
    from repro.workloads.kernels import make_kernel

    root = Path(repro.__file__).parent
    assert not (root / "ddg" / "dependence.py").exists()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                assert node.name not in REMOVED_NAMES, (path, node.name)
            elif isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "tests" for a in node.names), path
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "tests", path
    ddg = build_loop_ddg(make_kernel("daxpy"))
    for name in REMOVED_VIEWS:
        assert not hasattr(DDG, name) and not hasattr(ddg, name), name
    assert not hasattr(ResourceGeometry, "demand_word")
