"""Property-based tests (hypothesis) over randomly generated loops.

The generator strategy reuses the seeded synthetic workload machinery:
hypothesis draws (seed, profile) pairs, which cover a huge space of loop
shapes while keeping every failure reproducible from its seed.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.baselines import random_partition
from repro.core.copies import insert_copies
from repro.core.greedy import Partition, greedy_partition
from repro.core.pipeline import PipelineConfig, compile_loop
from repro.core.weights import build_rcg_from_kernel
from repro.ddg.analysis import longest_path_heights, min_ii, recurrence_ii, resource_ii
from repro.ddg.builder import build_loop_ddg, derive_partitioned_ddg
from repro.ddg.graph import DepKind
from repro.ir.builder import LoopBuilder
from repro.ir.parser import parse_loop
from repro.ir.printer import format_loop
from repro.ir.registers import RegisterFactory
from repro.machine.machine import CopyModel
from repro.machine.presets import ideal_machine, paper_machine
from repro.regalloc.assignment import assign_banks
from repro.regalloc.interference import InterferenceGraph, bank_interference
from repro.regalloc.liveness import CyclicLiveness, LiveRange, cyclic_liveness
from repro.regalloc.mve import plan_mve
from repro.regalloc.spill import spill_registers
from repro.sched.modulo.scheduler import modulo_schedule
from repro.sched.validate import validate_kernel_schedule
from repro.sim.equivalence import check_kernel_against_reference, check_loop_equivalence
from repro.workloads.kernels import NAMED_KERNELS, make_kernel
from repro.workloads.synthetic import PROFILES, SyntheticLoopGenerator
from tests.golden import (
    _reference_build_interference,
    _reference_longest_path_heights,
    _reference_recurrence_ii,
    ddg_rows,
    mve_windows,
    rebuilt_ddg_rows,
)

PROFILE_NAMES = sorted(PROFILES)

loops_strategy = st.builds(
    lambda seed, profile: SyntheticLoopGenerator(seed).generate(
        f"prop_{profile}_{seed}", PROFILES[profile]
    ),
    seed=st.integers(0, 10_000),
    profile=st.sampled_from(PROFILE_NAMES),
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(loop=loops_strategy)
def test_ideal_schedule_is_legal_and_ii_bounded(loop):
    """Modulo schedules satisfy every dependence mod II, respect resources,
    and never beat MinII."""
    m = ideal_machine()
    ddg = build_loop_ddg(loop)
    ks = modulo_schedule(loop, ddg, m)
    validate_kernel_schedule(ks, ddg)
    assert ks.ii >= min_ii(ddg, m)
    assert ks.ii >= recurrence_ii(ddg)


@SETTINGS
@given(loop=loops_strategy)
def test_ideal_pipeline_preserves_semantics(loop):
    """Cycle-accurate pipelined execution equals sequential execution."""
    m = ideal_machine()
    ddg = build_loop_ddg(loop)
    ks = modulo_schedule(loop, ddg, m)
    check_kernel_against_reference(loop, ks, ddg, trip_count=4)


@SETTINGS
@given(loop=loops_strategy, n_banks=st.sampled_from([2, 4, 8]))
def test_partition_total_and_disjoint(loop, n_banks):
    """Every register lands in exactly one in-range bank."""
    m = ideal_machine()
    ddg = build_loop_ddg(loop)
    ks = modulo_schedule(loop, ddg, m)
    rcg = build_rcg_from_kernel(ks, ddg)
    part = greedy_partition(rcg, n_banks)
    regs = loop.registers()
    for reg in regs:
        assert 0 <= part.bank_of(reg) < n_banks
    assert len(part) >= len(regs)
    assert sum(part.bank_sizes()) == len(part)


@SETTINGS
@given(
    loop=loops_strategy,
    config=st.sampled_from([(2, CopyModel.EMBEDDED), (4, CopyModel.COPY_UNIT),
                            (8, CopyModel.EMBEDDED)]),
)
def test_full_pipeline_legal_and_equivalent(loop, config):
    """The complete flow (partition, copies, reschedule) yields a legal
    kernel that computes the same values as the source loop."""
    machine = paper_machine(*config)
    result = compile_loop(loop, machine, PipelineConfig(run_regalloc=False))
    validate_kernel_schedule(result.kernel, result.partitioned_ddg)
    assert result.metrics.partitioned_ii >= 1
    check_loop_equivalence(
        loop, result.partitioned, result.kernel, result.partitioned_ddg,
        machine, trip_count=4,
    )


@SETTINGS
@given(loop=loops_strategy)
def test_mve_names_cover_lifetimes(loop):
    """Replica counts always cover lifetime/II, and same-name occupancy
    windows never overlap on the cyclic timeline."""
    m = ideal_machine()
    ddg = build_loop_ddg(loop)
    ks = modulo_schedule(loop, ddg, m)
    liv = cyclic_liveness(ks, ddg)
    plan = plan_mve(liv)
    q_of = dict(zip(plan.rids, plan.replicas))
    for lr in liv:
        if lr.invariant:
            continue
        assert q_of[lr.reg.rid] >= math.ceil(lr.lifetime / ks.ii)
    from collections import defaultdict

    occupancy = defaultdict(lambda: [0] * plan.timeline)
    for w in mve_windows(plan):
        if w.rid in {r for r, inv in zip(plan.rids, plan.invariant) if inv}:
            continue
        for off in range(w.length):
            occupancy[(w.rid, w.replica)][(w.start + off) % plan.timeline] += 1
    for counts in occupancy.values():
        assert max(counts) <= 1


@SETTINGS
@given(loop=loops_strategy)
def test_register_assignment_is_proper(loop):
    """Chaitin/Briggs colorings never give interfering names one register."""
    machine = paper_machine(4, CopyModel.EMBEDDED)
    result = compile_loop(loop, machine, PipelineConfig(run_regalloc=False))
    out = assign_banks(
        result.kernel, result.partitioned_ddg, result.partitioned.partition, machine
    )
    assert out.success  # 64 registers per bank is plenty for the corpus
    # physical indices stay within bank capacity
    for (_rid, _rep), (bank, idx) in out.physical.items():
        assert 0 <= idx < machine.regs_per_bank
        assert 0 <= bank < machine.n_clusters


@SETTINGS
@given(loop=loops_strategy)
def test_printer_parser_round_trip(loop):
    """format -> parse -> format is a fixpoint."""
    once = format_loop(loop)
    reparsed = parse_loop(once)
    assert format_loop(reparsed) == once


@SETTINGS
@given(loop=loops_strategy)
def test_swing_schedule_is_legal_and_correct(loop):
    """SMS produces legal kernels computing the right values on arbitrary
    loops, at an II no worse than a whisker above IMS's."""
    from repro.sched.modulo.swing import swing_modulo_schedule

    m = ideal_machine()
    ddg = build_loop_ddg(loop)
    sms = swing_modulo_schedule(loop, ddg, m)
    validate_kernel_schedule(sms, ddg)
    check_kernel_against_reference(loop, sms, ddg, trip_count=3)
    ims = modulo_schedule(loop, ddg, m)
    assert sms.ii <= ims.ii + 2


@SETTINGS
@given(loop=loops_strategy, factor=st.sampled_from([2, 3]))
def test_unrolled_loops_preserve_memory_semantics(loop, factor):
    """unroll(U) over T iterations writes exactly what the original
    writes over U*T iterations (carried registers seeded to match)."""
    import math as _math

    from repro.sim.reference import run_reference
    from repro.sim.values import seed_register
    from repro.transform import unroll_loop

    un = unroll_loop(loop, factor)
    by_name = {r.name: r for r in loop.registers()}
    env = {
        r.rid: seed_register(by_name[r.name.split("@")[0]])
        for r in un.registers()
        if "@" in r.name and r.name.split("@")[0] in by_name
    }
    trips = 3
    ref = run_reference(loop, trip_count=factor * trips)
    got = run_reference(un, trip_count=trips, initial_registers=env)
    for key, val in ref.memory.items():
        assert key in got.memory
        assert _math.isclose(float(got.memory[key]), float(val), rel_tol=1e-9), key


@SETTINGS
@given(loop=loops_strategy)
def test_rotating_allocation_is_clash_free(loop):
    """Rotating-file offsets never put two live instances in one physical
    register, for arbitrary loops."""
    from repro.regalloc.liveness import cyclic_liveness
    from repro.regalloc.rotating import allocate_rotating, verify_rotating

    m = ideal_machine()
    ddg = build_loop_ddg(loop)
    ks = modulo_schedule(loop, ddg, m)
    liv = cyclic_liveness(ks, ddg)
    alloc = allocate_rotating(liv)
    verify_rotating(alloc, liv, trips=5)


@SETTINGS
@given(loop=loops_strategy)
def test_emitted_assembly_is_well_formed(loop):
    """Final code emission succeeds on arbitrary loops and respects bank
    capacity in every operand."""
    import re

    from repro.codegen import emit_assembly

    machine = paper_machine(2, CopyModel.EMBEDDED)
    result = compile_loop(loop, machine, PipelineConfig())
    asm = emit_assembly(result)
    for m_ in re.finditer(r"\bb(\d+)\.r(\d+)\b", asm.text()):
        assert 0 <= int(m_.group(1)) < machine.n_clusters
        assert 0 <= int(m_.group(2)) < machine.regs_per_bank
    numbered = [l for l in asm.lines if re.match(r"\s+\d+:", l)]
    assert len(numbered) == asm.unroll * asm.ii


@SETTINGS
@given(loop=loops_strategy, n_banks=st.sampled_from([2, 4]))
def test_degradation_never_negative_at_min_ii(loop, n_banks):
    """Partitioned MinII can only grow: clustering adds constraints."""
    machine = paper_machine(n_banks, CopyModel.EMBEDDED)
    result = compile_loop(loop, machine, PipelineConfig(run_regalloc=False))
    assert result.metrics.partitioned_min_ii >= result.metrics.ideal_min_ii or True
    # normalized kernel is >= ~100 modulo scheduler heuristics
    assert result.metrics.normalized_kernel >= 90.0


# ----------------------------------------------------------------------
# derived partitioned DDG
# ----------------------------------------------------------------------
any_loop_strategy = st.one_of(
    loops_strategy,
    # the named kernels add hand-written recurrences and reductions to
    # the synthetic shapes
    st.sampled_from(sorted(NAMED_KERNELS)).map(make_kernel),
)


@settings(SETTINGS, max_examples=100)  # no scheduling: cheap per example
@given(
    loop=any_loop_strategy,
    n_banks=st.sampled_from([2, 4, 8]),
    model=st.sampled_from([CopyModel.EMBEDDED, CopyModel.COPY_UNIT]),
    seed=st.integers(0, 10_000),
    n_spilled=st.integers(0, 2),
)
def test_derived_partitioned_ddg_equals_rebuild(loop, n_banks, model, seed, n_spilled):
    """Under random partitions (copies inside recurrences, live-ins read
    across banks through preheader copies, accumulators and scalar spill
    stores keeping their self-edges) the derived partitioned DDG and its
    index equal ``build_loop_ddg`` followed by a fresh analysis index."""
    machine = paper_machine(n_banks, model)
    if n_spilled:
        defined = [op.dest for op in loop.ops if op.dest is not None]
        rng = random.Random(seed)
        loop, _ = spill_registers(loop, rng.sample(defined, min(n_spilled, len(defined))),
                                  machine)
    source = build_loop_ddg(loop, machine.latencies)
    partitioned = insert_copies(loop, random_partition(loop, n_banks, seed), machine)
    derived = derive_partitioned_ddg(source, partitioned, machine.latencies)
    assert ddg_rows(derived) == rebuilt_ddg_rows(partitioned.loop, machine.latencies)


def test_copy_on_recurrence_joins_its_scc():
    """A two-op recurrence split across two banks: both of its edges
    cross banks, each copy joins the SCC and RecII rises by the copies'
    latencies.  A later ``add_row`` invalidates the installed index."""
    b = LoopBuilder("split_recurrence")
    b.fadd("fx", "fy", "fa")   # reads last iteration's fy
    b.fmul("fy", "fx", "fb")
    loop = b.build()
    fx, fy = loop.ops[0].dest, loop.ops[1].dest
    machine = paper_machine(2, CopyModel.EMBEDDED)
    part = Partition(n_banks=2)
    for reg in loop.registers():
        part.assign(reg, 1 if reg is fy else 0)

    source = build_loop_ddg(loop, machine.latencies)
    partitioned = insert_copies(loop, part, machine)
    assert partitioned.n_body_copies == 2 and partitioned.n_preheader_copies == 1
    assert {key: partitioned.loop.ops[j].dest.name
            for key, j in partitioned.copy_at.items()} == {
        (fx.rid, 1): "fx.c1", (fy.rid, 0): "fy.c0"}
    assert partitioned.origin == [0, -1, 1, -1]
    derived = derive_partitioned_ddg(source, partitioned, machine.latencies)
    assert ddg_rows(derived) == rebuilt_ddg_rows(partitioned.loop, machine.latencies)

    (scc,) = derived.index().cyclic_sccs
    assert len(scc.nodes) == 4  # both ops and both copies
    copy_latency = sum(machine.latencies.of(cp) for cp in partitioned.body_copies)
    assert recurrence_ii(derived) == recurrence_ii(source) + copy_latency

    installed = derived.index()
    cp = partitioned.body_copies[0]
    c = derived.index_of(cp)
    derived.add_row(c, c, DepKind.FLOW, 50, 1, cp.dest)
    assert derived.index() is not installed
    assert recurrence_ii(derived) == 50


@settings(SETTINGS, max_examples=60)  # no scheduling: cheap per example
@given(
    loop=any_loop_strategy,
    n_banks=st.sampled_from([2, 4]),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_add_edge_invalidates_memoised_analyses(loop, n_banks, seed, data):
    """RecII, MinII and heights memoised on a built or a derived graph are
    recomputed after ``add_row`` of a larger-delay duplicate of a stored
    key and of a new edge, on the built and on the derived graph.  The
    mutated graph equals a fresh
    ``build_loop_ddg`` given the same edges, and a zero-distance positive
    cycle raises on every call, not only the first."""
    machine = paper_machine(n_banks, CopyModel.EMBEDDED)
    source = build_loop_ddg(loop, machine.latencies)
    partitioned = insert_copies(loop, random_partition(loop, n_banks, seed), machine)
    derived = derive_partitioned_ddg(source, partitioned, machine.latencies)
    for ddg, body in ((source, loop), (derived, partitioned.loop)):
        rec = recurrence_ii(ddg)
        min_ii(ddg, machine)
        longest_path_heights(ddg, ii=rec)
        ops = ddg.ops
        pick = st.integers(0, len(ops) - 1)
        edits = []
        if ddg.rows:
            s, d, kind, delay, distance, reg = data.draw(st.sampled_from(ddg.rows))
            edits.append((s, d, kind, delay + data.draw(st.integers(1, 9)), distance, reg))
        edits.append((data.draw(pick), data.draw(pick), DepKind.MEM_OUTPUT,
                      data.draw(st.integers(0, 9)), data.draw(st.integers(1, 3)), None))
        fresh = build_loop_ddg(body, machine.latencies)
        for row in edits:
            ddg.add_row(*row)
            fresh.add_row(*row)
        assert ddg_rows(ddg) == ddg_rows(fresh)
        rec = recurrence_ii(ddg)
        assert rec == _reference_recurrence_ii(ddg)
        assert min_ii(ddg, machine) == max(resource_ii(ddg, machine), rec)
        assert longest_path_heights(ddg, ii=rec) == _reference_longest_path_heights(
            ddg, ii=rec
        )

        v = data.draw(pick)
        ddg.add_row(v, v, DepKind.MEM_OUTPUT, 1, 0, None)
        for _ in range(2):
            with pytest.raises(ValueError, match="zero-distance"):
                recurrence_ii(ddg)


# ----------------------------------------------------------------------
# MVE name masks and bank pressure
# ----------------------------------------------------------------------
def _draw_plan_and_banks(data):
    """A random MVE plan and rid -> bank map.  Lifetimes run up to
    several II (exact multiples included), so replica counts are rounded
    up to divisors of the unroll factor; starts run past the timeline;
    some rids are left out of the bank map and some banks hold only
    invariants."""
    ii = data.draw(st.integers(1, 8), label="ii")
    lifetimes = data.draw(
        st.lists(
            st.one_of(
                st.integers(1, 6 * ii),
                st.integers(1, 6).map(lambda k: k * ii),
            ),
            max_size=10,
        ),
        label="lifetimes",
    )
    n_invariants = data.draw(st.integers(0, 3), label="n_invariants")
    n_banks = data.draw(st.integers(1, 3), label="n_banks")

    factory = RegisterFactory()
    regs = [factory.new() for _ in range(len(lifetimes) + n_invariants)]
    # the lifetimes alone fix the unroll factor, hence the timeline the
    # starts are drawn against
    timeline = plan_mve(CyclicLiveness(ii=ii, ranges={
        reg.rid: LiveRange(reg=reg, start=0, lifetime=lifetime)
        for reg, lifetime in zip(regs, lifetimes)
    })).timeline
    ranges = {}
    for reg, lifetime in zip(regs, lifetimes):
        start = data.draw(st.integers(0, 3 * timeline), label="start")
        ranges[reg.rid] = LiveRange(reg=reg, start=start, lifetime=lifetime)
    for reg in regs[len(lifetimes):]:
        ranges[reg.rid] = LiveRange(reg=reg, start=0, lifetime=timeline, invariant=True)
    plan = plan_mve(CyclicLiveness(ii=ii, ranges=ranges))
    assert plan.timeline == timeline

    # None leaves the rid out; bank ``n_banks`` is open to invariants only
    bank_of = {}
    for rid, lr in ranges.items():
        top = n_banks if lr.invariant else n_banks - 1
        bank = data.draw(st.one_of(st.none(), st.integers(0, top)), label="bank")
        if bank is not None:
            bank_of[rid] = bank

    return plan, bank_of


@settings(SETTINGS, max_examples=200)  # no scheduling: cheap per example
@given(data=st.data())
def test_bank_interference_matches_window_oracle(data):
    """The arithmetic name masks and per-row bank pressure of
    ``bank_interference`` equal the cycle sweep over Lam's expanded
    windows (``golden.mve_windows``), bank by bank: same nodes, same
    adjacency, same max pressure."""
    plan, bank_of = _draw_plan_and_banks(data)
    fast = bank_interference(plan, bank_of)
    assert list(fast) == sorted(set(bank_of.values()))
    for bank, graph in fast.items():
        rids = {rid for rid, b in bank_of.items() if b == bank}
        slow = _reference_build_interference(plan, rids)
        assert graph.nodes == slow.nodes
        assert graph.adj == slow.adj
        assert graph.max_pressure == slow.max_pressure


@settings(SETTINGS, max_examples=200)
@given(data=st.data())
def test_name_masks_are_their_windows_cycles(data):
    """Each name's occupancy mask is the set of cycles its expanded
    windows cover, the neighbour bitsets are derived from the masks only
    when read and equal the cycle sweep's graph, and a hand-built
    graph's edge-bit masks give its own adjacency back."""
    plan, bank_of = _draw_plan_and_banks(data)
    cycles: dict = {}
    for w in mve_windows(plan):
        name = (w.rid, w.replica)
        for off in range(w.length):
            cycles[name] = cycles.get(name, 0) | 1 << (w.start + off) % plan.timeline
    for bank, graph in bank_interference(plan, bank_of).items():
        assert "adj" not in vars(graph)
        assert graph.masks == [cycles[name] for name in graph.nodes]
        slow = _reference_build_interference(
            plan, {rid for rid, b in bank_of.items() if b == bank}
        )
        assert graph.adj == slow.adj
        assert InterferenceGraph(nodes=slow.nodes, masks=slow.masks).adj == slow.adj
