"""Mutation tests: corrupted schedules must be rejected.

A validator that never fires is worthless; these tests take legal
schedules and break them in each of the ways the schedulers could
conceivably get wrong, asserting the checker (or the cycle-accurate
simulator) catches every mutation.  The dependence checks run on built
DDGs and on partitioned DDGs derived by ``derive_partitioned_ddg``, whose
edges the validator reads from the int arrays alone.
"""

import random
import re

import pytest

from repro.core.pipeline import PipelineConfig, compile_loop
from repro.ddg.builder import build_block_ddg, build_loop_ddg
from repro.ir.block import BasicBlock, Loop
from repro.ir.builder import LoopBuilder
from repro.ir.operations import Opcode, Operation, make_copy
from repro.ir.registers import RegisterFactory
from repro.ir.types import DataType
from repro.machine.machine import CopyModel
from repro.machine.presets import ideal_machine, paper_machine
from repro.sched.list_scheduler import list_schedule
from repro.sched.modulo.scheduler import modulo_schedule
from repro.sched.resources import demand_words
from repro.sched.schedule import KernelSchedule, LinearSchedule
from repro.sched.validate import (
    ScheduleValidationError,
    validate_kernel_schedule,
    validate_linear_schedule,
)
from repro.sim.equivalence import check_loop_equivalence
from repro.workloads.kernels import make_kernel
from repro.workloads.synthetic import PROFILES, SyntheticLoopGenerator
from tests.golden import dependences, op_resource_demand


def legal_kernel(name="lfk1_hydro"):
    loop = make_kernel(name)
    m = ideal_machine()
    ddg = build_loop_ddg(loop)
    return loop, ddg, m, modulo_schedule(loop, ddg, m)


class TestDependenceMutations:
    def test_pulling_a_consumer_early_is_caught(self):
        loop, ddg, m, ks = legal_kernel()
        # find any intra-iteration flow edge and violate it
        edge = next(e for e in dependences(ddg).edges if e.distance == 0 and e.delay > 0)
        bad_times = dict(ks.times)
        bad_times[edge.dst.op_id] = max(0, ks.times[edge.src.op_id] + edge.delay - 1)
        bad = KernelSchedule(machine=m, loop=loop, ii=ks.ii, times=bad_times)
        with pytest.raises(ScheduleValidationError):
            validate_kernel_schedule(bad, ddg)

    def test_violating_a_carried_edge_is_caught(self):
        loop, ddg, m, ks = legal_kernel("lfk5_tridiag")
        carried = [e for e in dependences(ddg).edges
                   if e.distance > 0 and e.src is not e.dst]
        edge = carried[0]
        bad_times = dict(ks.times)
        # push the source so late that even the carried slack cannot absorb it
        bad_times[edge.src.op_id] = (
            ks.times[edge.dst.op_id] + ks.ii * edge.distance - edge.delay + 1
        )
        bad = KernelSchedule(machine=m, loop=loop, ii=ks.ii, times=bad_times)
        with pytest.raises(ScheduleValidationError):
            validate_kernel_schedule(bad, ddg)


def legal_block_schedule(width=16, machine=None):
    """Two independent loads feeding an add and a store, list-scheduled
    (on a clustered ``machine``, every op in cluster 0)."""
    b = LoopBuilder("blk", depth=0)
    b.load("r1", "a", scalar=True)
    b.load("r2", "b", scalar=True)
    b.add("r3", "r1", "r2")
    b.store("r3", "c", scalar=True)
    block = b.build_block(depth=0)
    m = machine or ideal_machine(width=width)
    if m.is_clustered:
        for op in block.ops:
            op.cluster = 0
    ddg = build_block_ddg(block, m.latencies)
    sched = list_schedule(ddg, m)
    validate_linear_schedule(sched, ddg)
    return block, ddg, m, sched


class TestLinearScheduleMutations:
    def test_pulling_a_consumer_early_is_caught(self):
        block, ddg, m, sched = legal_block_schedule()
        edge = next(e for e in dependences(ddg).edges if e.delay > 0)
        bad_times = dict(sched.times)
        bad_times[edge.dst.op_id] = sched.times[edge.src.op_id] + edge.delay - 1
        bad = LinearSchedule(machine=m, ops=sched.ops, times=bad_times)
        with pytest.raises(ScheduleValidationError, match="^dependence violated: "):
            validate_linear_schedule(bad, ddg)

    def test_cyclic_ddg_is_rejected(self):
        loop, ddg, m, ks = legal_kernel("lfk5_tridiag")
        assert any(ddg.index().dist)
        flat = LinearSchedule(machine=m, ops=loop.ops, times=dict(ks.times))
        with pytest.raises(ScheduleValidationError, match="cyclic DDG"):
            validate_linear_schedule(flat, ddg)

    def test_oversubscribed_cycle_is_caught(self):
        # 1-wide machine: issue the second load in the first load's cycle
        block, ddg, m, sched = legal_block_schedule(width=1)
        first, second = block.ops[0], block.ops[1]
        bad_times = dict(sched.times)
        bad_times[second.op_id] = sched.times[first.op_id]
        bad = LinearSchedule(machine=m, ops=sched.ops, times=bad_times)
        with pytest.raises(ScheduleValidationError, match="over-subscription at cycle"):
            validate_linear_schedule(bad, ddg)


    def test_unclustered_op_on_clustered_machine_is_caught(self):
        # the kernel validator's cluster check holds for blocks too
        block, ddg, m, sched = legal_block_schedule(
            machine=paper_machine(4, CopyModel.EMBEDDED))
        block.ops[0].cluster = None
        with pytest.raises(ScheduleValidationError, match="without cluster"):
            validate_linear_schedule(sched, ddg)


class TestResourceMutations:
    def test_oversubscribed_row_is_caught(self):
        # 1-wide machine: co-scheduling any two ops must fail validation
        loop = make_kernel("daxpy")
        m = ideal_machine(width=1)
        ddg = build_loop_ddg(loop)
        ks = modulo_schedule(loop, ddg, m)
        bad_times = dict(ks.times)
        a, b = loop.ops[0], loop.ops[1]
        bad_times[b.op_id] = bad_times[a.op_id] + ks.ii  # same row mod II
        bad = KernelSchedule(machine=m, loop=loop, ii=ks.ii, times=bad_times)
        with pytest.raises(ScheduleValidationError):
            validate_kernel_schedule(bad, ddg)

    def test_missing_cluster_on_clustered_machine_is_caught(self):
        m = paper_machine(2, CopyModel.EMBEDDED)
        loop = make_kernel("daxpy")
        for op in loop.ops:
            op.cluster = 0
        ddg = build_loop_ddg(loop)
        ks = modulo_schedule(loop, ddg, m)
        loop.ops[0].cluster = None
        with pytest.raises(ScheduleValidationError, match="without cluster"):
            validate_kernel_schedule(ks, ddg)


def copy_kernel(machine, clusters):
    """A loop of independent copies, one into each of ``clusters``, all
    issued in the one row of a kernel at II 1."""
    f = RegisterFactory()
    ops, live_in = [], set()
    for i, cluster in enumerate(clusters):
        src = f.new(DataType.INT, name=f"s{i}")
        live_in.add(src)
        ops.append(make_copy(f.new(DataType.INT, name=f"d{i}"), src, cluster=cluster))
    loop = Loop(name="copies", body=BasicBlock("b", ops), factory=f, live_in=live_in)
    ks = KernelSchedule(machine=machine, loop=loop, ii=1,
                        times={op.op_id: 0 for op in ops})
    return ks, build_loop_ddg(loop, machine.latencies)


class TestCopyUnitResources:
    def test_copy_port_oversubscription_is_caught(self):
        m = paper_machine(2, CopyModel.COPY_UNIT)  # 1 port per cluster, 2 buses
        validate_kernel_schedule(*copy_kernel(m, [0, 1]))
        with pytest.raises(ScheduleValidationError, match="over-subscription in kernel row 0"):
            validate_kernel_schedule(*copy_kernel(m, [0, 0]))

    def test_bus_oversubscription_is_caught(self):
        m = paper_machine(4, CopyModel.COPY_UNIT, n_buses=2)  # 2 ports per cluster
        validate_kernel_schedule(*copy_kernel(m, [0, 1]))
        with pytest.raises(ScheduleValidationError, match="over-subscription in kernel row 0"):
            validate_kernel_schedule(*copy_kernel(m, [0, 1, 2]))

    def test_cluster_out_of_range_is_rejected(self):
        m = paper_machine(2, CopyModel.COPY_UNIT)
        ks, ddg = copy_kernel(m, [0, 1])
        ks.loop.ops[1].cluster = m.n_clusters
        with pytest.raises(ValueError, match="cluster 2 out of range"):
            validate_kernel_schedule(ks, ddg)
        with pytest.raises(ValueError, match="cluster 2 out of range"):
            modulo_schedule(ks.loop, ddg, m)
        with pytest.raises(ValueError, match="cluster 2 out of range"):
            demand_words(ks.loop.ops, m)
        # the unclustered ideal machine has one pool set: a cluster tag
        # past it is a geometry error, not a machine one
        with pytest.raises(IndexError, match="cluster 2 out of range for 1-pool"):
            demand_words(ks.loop.ops, ideal_machine())


def golden_word(demand, n_clusters):
    """The packed word of a golden :class:`ResourceDemand`: pools laid out
    ``[fu_0..fu_{C-1}, copy_0..copy_{C-1}, bus]``, 8 bits each."""
    word = 0
    if demand.fu_cluster is not None:
        word |= 1 << (8 * demand.fu_cluster)
    if demand.copy_cluster is not None:
        word |= 1 << (8 * (n_clusters + demand.copy_cluster))
    if demand.bus:
        word |= 1 << (8 * 2 * n_clusters)
    return word


@pytest.mark.parametrize("machine", [
    ideal_machine(),
    *(paper_machine(n, model) for n in (2, 4, 8)
      for model in (CopyModel.EMBEDDED, CopyModel.COPY_UNIT)),
], ids=lambda m: m.describe())
def test_demand_words_match_per_op_words_and_golden_demands(machine):
    """``demand_words`` of a body agrees with each op's own word and with
    the golden ``op_resource_demand`` mapping, for ALU ops and copies in
    every cluster (and without a cluster, which draws from cluster 0)."""
    f = RegisterFactory()
    clusters = range(machine.n_clusters) if machine.is_clustered else [None]
    ops = []
    for cluster in [*clusters, None]:
        a, b = f.new(DataType.INT), f.new(DataType.INT)
        alu = Operation(opcode=Opcode.ADD, dest=a, sources=(b, b))
        alu.cluster = cluster
        ops += [alu, make_copy(f.new(DataType.FLOAT), f.new(DataType.FLOAT),
                               cluster=cluster)]
    words = demand_words(ops, machine)
    assert words == [demand_words([op], machine)[0] for op in ops]
    assert words == [golden_word(op_resource_demand(op, machine), machine.n_clusters)
                     for op in ops]


class TestRandomizedMutations:
    def test_random_single_op_shifts_are_never_silently_accepted(self):
        """Shift one op by a random nonzero delta: either the move is
        still legal (validator passes AND the simulator agrees) or it is
        rejected.  What must never happen: validator passes but the
        simulated values diverge."""
        from repro.sim.equivalence import check_kernel_against_reference

        rng = random.Random(7)
        gen = SyntheticLoopGenerator(17)
        for i in range(6):
            loop = gen.generate(f"mut_{i}", PROFILES["reduction"])
            m = ideal_machine()
            ddg = build_loop_ddg(loop)
            ks = modulo_schedule(loop, ddg, m)
            victim = rng.choice(loop.ops)
            delta = rng.choice([-2, -1, 1, 2, ks.ii])
            bad_times = dict(ks.times)
            bad_times[victim.op_id] = max(0, bad_times[victim.op_id] + delta)
            bad = KernelSchedule(machine=m, loop=loop, ii=ks.ii, times=bad_times)
            try:
                validate_kernel_schedule(bad, ddg)
            except ScheduleValidationError:
                continue  # rejected, good
            # accepted: the simulator must agree it is correct
            check_kernel_against_reference(loop, bad, ddg, trip_count=4)


# ----------------------------------------------------------------------
# Partitioned DDGs derived from their source DDG
# ----------------------------------------------------------------------
def derived_kernel(loop, n_clusters=4):
    """(partitioned result, derived DDG, clustered kernel) of ``loop``."""
    m = paper_machine(n_clusters, CopyModel.EMBEDDED)
    result = compile_loop(loop, m, PipelineConfig(run_regalloc=False))
    return result, result.partitioned_ddg, result.kernel


def break_only(ks, ddg, edge):
    """``ks`` with ``edge`` violated by one cycle and every other edge
    kept, by pulling its consumer earlier or pushing its producer later;
    None if neither move isolates the edge."""
    lag = edge.delay - ks.ii * edge.distance
    for moved, t in ((edge.dst, ks.times[edge.src.op_id] + lag - 1),
                     (edge.src, ks.times[edge.dst.op_id] - lag + 1)):
        times = dict(ks.times)
        times[moved.op_id] = t
        if t < 0:
            continue
        violated = [e for e in dependences(ddg).edges
                    if times[e.dst.op_id] < times[e.src.op_id] + e.delay - ks.ii * e.distance]
        if violated == [edge]:
            return KernelSchedule(machine=ks.machine, loop=ks.loop, ii=ks.ii, times=times)
    return None


class TestDerivedDependenceMutations:
    @pytest.mark.parametrize("category,pick", [
        ("copy", lambda e: e.src.is_copy),
        ("memory", lambda e: e.kind.is_memory),
        ("loop-carried", lambda e: e.distance > 0 and e.src is not e.dst),
    ])
    def test_breaking_one_edge_names_it(self, category, pick):
        _, ddg, ks = derived_kernel(make_kernel("daxpy4"))
        validate_kernel_schedule(ks, ddg)
        broken = [(e, bad) for e in dependences(ddg).edges if pick(e)
                  for bad in [break_only(ks, ddg, e)] if bad is not None]
        assert broken, f"no isolated {category} edge to break"
        for edge, bad in broken:
            with pytest.raises(ScheduleValidationError, match=re.escape(repr(edge))):
                validate_kernel_schedule(bad, ddg)

    def test_random_single_op_shifts_are_never_silently_accepted(self):
        """The randomized mutation case on derived graphs: a shifted op
        is rejected, or the simulator agrees the kernel still computes
        the source loop."""
        rng = random.Random(7)
        gen = SyntheticLoopGenerator(17)
        for i in range(6):
            loop = gen.generate(f"mut_{i}", PROFILES["reduction"])
            result, ddg, ks = derived_kernel(loop, n_clusters=rng.choice([2, 4]))
            victim = rng.choice(ks.loop.ops)
            delta = rng.choice([-2, -1, 1, 2, ks.ii])
            bad_times = dict(ks.times)
            bad_times[victim.op_id] = max(0, bad_times[victim.op_id] + delta)
            bad = KernelSchedule(machine=ks.machine, loop=ks.loop, ii=ks.ii, times=bad_times)
            try:
                validate_kernel_schedule(bad, ddg)
            except ScheduleValidationError:
                continue
            check_loop_equivalence(loop, result.partitioned, bad, ddg, ks.machine,
                                   trip_count=4)
