"""Tests for modulo variable expansion and interference construction."""

import math


from repro.ddg.builder import build_loop_ddg
from repro.ir.builder import LoopBuilder
from repro.machine.presets import ideal_machine
from repro.regalloc.interference import build_interference
from repro.regalloc.liveness import cyclic_liveness
from repro.regalloc.mve import plan_mve
from repro.sched.modulo.scheduler import modulo_schedule
from tests.golden import mve_windows


def plan_for(loop):
    m = ideal_machine()
    ddg = build_loop_ddg(loop)
    ks = modulo_schedule(loop, ddg, m)
    liv = cyclic_liveness(ks, ddg)
    return plan_mve(liv), liv, ks


class TestMVEPlanning:
    def test_unroll_factor_covers_longest_lifetime(self, daxpy_loop):
        plan, liv, ks = plan_for(daxpy_loop)
        assert plan.unroll == max(
            1,
            max(
                math.ceil(lr.lifetime / ks.ii)
                for lr in liv
                if not lr.invariant
            ),
        )
        assert plan.timeline == plan.unroll * ks.ii

    def test_replica_counts(self, daxpy_loop):
        plan, liv, ks = plan_for(daxpy_loop)
        q_of = dict(zip(plan.rids, plan.replicas))
        for lr in liv:
            q = q_of[lr.reg.rid]
            if lr.invariant:
                assert q == 1
            else:
                assert q == max(1, math.ceil(lr.lifetime / ks.ii))

    def test_same_name_windows_never_overlap(self, daxpy_loop):
        """MVE's whole point: windows of one name are q*II apart with
        lifetime <= q*II, so no self-overlap on the cyclic timeline."""
        plan, _liv, _ks = plan_for(daxpy_loop)
        from collections import defaultdict

        invariant_rids = {r for r, inv in zip(plan.rids, plan.invariant) if inv}
        by_name = defaultdict(list)
        for w in mve_windows(plan):
            if w.rid in invariant_rids:
                continue
            by_name[(w.rid, w.replica)].append(w)
        for _name, windows in by_name.items():
            occupancy = [0] * plan.timeline
            for w in windows:
                for off in range(w.length):
                    occupancy[(w.start + off) % plan.timeline] += 1
            assert max(occupancy) <= 1

    def test_names_enumeration(self, dot_loop):
        """The plan lists ranges by ascending rid, so the one-bank graph
        numbers every (rid, replica) name once, in sorted order."""
        plan, liv, _ks = plan_for(dot_loop)
        assert plan.rids == sorted(liv.ranges)
        names = build_interference(plan).nodes
        assert len(names) == sum(plan.replicas)
        assert names == sorted(set(names))


class TestInterference:
    def test_invariant_interferes_with_everything(self, daxpy_loop):
        plan, liv, _ks = plan_for(daxpy_loop)
        graph = build_interference(plan)
        fa_rid = daxpy_loop.factory.get("fa").rid
        others = [n for n in graph.nodes if n[0] != fa_rid]
        assert all(graph.interferes((fa_rid, 0), n) for n in others)

    def test_replicas_of_long_lived_value_interfere(self, daxpy_loop):
        """daxpy at II=1 has lifetimes > 1, so consecutive iterations'
        instances coexist and their names must interfere."""
        plan, liv, ks = plan_for(daxpy_loop)
        assert ks.ii == 1 and plan.unroll > 1
        graph = build_interference(plan)
        f1 = daxpy_loop.factory.get("f1").rid
        q = plan.replicas[plan.rids.index(f1)]
        assert q >= 2
        assert graph.interferes((f1, 0), (f1, 1))

    def test_bank_restriction_filters_nodes(self, daxpy_loop):
        plan, _liv, _ks = plan_for(daxpy_loop)
        f1 = daxpy_loop.factory.get("f1").rid
        graph = build_interference(plan, rids={f1})
        assert all(n[0] == f1 for n in graph.nodes)

    def test_max_pressure_recorded(self, daxpy_loop):
        plan, _liv, _ks = plan_for(daxpy_loop)
        graph = build_interference(plan)
        assert graph.max_pressure >= 2

    def test_disjoint_lifetimes_do_not_interfere(self):
        # two values with strictly disjoint windows at a long II
        b = LoopBuilder("disjoint")
        b.fload("f1", "x", offset=-1)
        b.fmul("f2", "f1", "f1")
        b.fmul("f3", "f2", "f2")
        b.fmul("f4", "f3", "f3")
        b.fstore("f4", "x")
        loop = b.build()
        plan, liv, ks = plan_for(loop)
        graph = build_interference(plan)
        f1 = loop.factory.get("f1").rid
        f4 = loop.factory.get("f4").rid
        lr1, lr4 = liv.range_of(loop.factory.get("f1")), liv.range_of(loop.factory.get("f4"))
        if lr1.end <= lr4.start:  # truly disjoint in this schedule
            assert not graph.interferes((f1, 0), (f4, 0))
