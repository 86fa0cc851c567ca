"""Tests for cyclic liveness analysis."""

import os
import subprocess
import sys
from pathlib import Path

from repro.ddg.builder import build_loop_ddg
from repro.ir.builder import LoopBuilder
from repro.machine.presets import ideal_machine
from repro.regalloc.liveness import cyclic_liveness
from repro.sched.modulo.scheduler import modulo_schedule


def schedule(loop, machine=None):
    machine = machine or ideal_machine()
    ddg = build_loop_ddg(loop, machine.latencies)
    ks = modulo_schedule(loop, ddg, machine)
    return ks, ddg


class TestLiveRanges:
    def test_simple_chain_lifetimes(self, daxpy_loop):
        ks, ddg = schedule(daxpy_loop)
        liv = cyclic_liveness(ks, ddg)
        f = daxpy_loop.factory
        lr1 = liv.range_of(f.get("f1"))
        # f1 defined by load at t, consumed by fmul at t+2
        assert lr1.lifetime == ks.time_of(daxpy_loop.ops[2]) - lr1.start
        assert not lr1.invariant

    def test_live_in_is_invariant_whole_schedule(self, daxpy_loop):
        ks, ddg = schedule(daxpy_loop)
        liv = cyclic_liveness(ks, ddg)
        fa = daxpy_loop.factory.get("fa")
        lr = liv.range_of(fa)
        assert lr.invariant
        assert lr.start == 0 and lr.lifetime == ks.flat_length

    def test_carried_use_extends_lifetime_by_ii(self, dot_loop):
        ks, ddg = schedule(dot_loop)
        liv = cyclic_liveness(ks, ddg)
        f4 = dot_loop.factory.get("f4")
        lr = liv.range_of(f4)
        # the accumulator's next-iteration self-use is at t_def + II
        assert lr.lifetime >= ks.ii

    def test_live_out_extends_to_flat_end(self, dot_loop):
        ks, ddg = schedule(dot_loop)
        liv = cyclic_liveness(ks, ddg)
        f4 = dot_loop.factory.get("f4")
        assert liv.range_of(f4).end >= ks.flat_length

    def test_dead_def_still_occupies_latency(self):
        b = LoopBuilder("dead")
        b.fload("f1", "x")
        b.fload("f2", "y")   # dead: never used
        b.fstore("f1", "o")
        loop = b.build()
        ks, ddg = schedule(loop)
        liv = cyclic_liveness(ks, ddg)
        lr = liv.range_of(loop.factory.get("f2"))
        assert lr.lifetime >= 1

    def test_use_counts(self, daxpy_loop):
        ks, ddg = schedule(daxpy_loop)
        liv = cyclic_liveness(ks, ddg)
        f = daxpy_loop.factory
        assert liv.range_of(f.get("f1")).n_uses == 1
        assert liv.range_of(f.get("f4")).n_uses == 1

    def test_max_lifetime_ignores_invariants(self, daxpy_loop):
        ks, ddg = schedule(daxpy_loop)
        liv = cyclic_liveness(ks, ddg)
        fa_l = liv.range_of(daxpy_loop.factory.get("fa")).lifetime
        assert liv.max_lifetime() <= fa_l


#: prints the rids of fir5's live ranges, in liveness order
_FIR5_RANGES = """
from repro.ddg.builder import build_loop_ddg
from repro.machine.presets import ideal_machine
from repro.regalloc.liveness import cyclic_liveness
from repro.sched.modulo.scheduler import modulo_schedule
from repro.workloads.kernels import fir5

loop = fir5()
ddg = build_loop_ddg(loop)
print(*cyclic_liveness(modulo_schedule(loop, ddg, ideal_machine()), ddg).ranges)
"""


def test_range_order_does_not_depend_on_the_hash_seed():
    """Live-ins are a set of registers, whose hashes vary with
    ``PYTHONHASHSEED``; liveness visits them in rid order, so two
    processes list the same ranges in the same order."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    orders = [
        subprocess.run(
            [sys.executable, "-c", _FIR5_RANGES],
            capture_output=True, text=True, timeout=120, check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2")
    ]
    assert orders[0] == orders[1]
    assert len(orders[0].split()) > 5  # fir5: taps, pointers and values
