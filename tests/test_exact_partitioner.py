"""Tests of the exact branch-and-bound partitioner (``repro.exact``).

The marquee properties:

* on every problem small enough to enumerate, the branch-and-bound
  answer **equals brute force** (the solver's incremental accounting and
  pruning are exact, not heuristic);
* with a greedy warm start the exact cost is **never worse than
  greedy's** — even when the search is interrupted, the incumbent is at
  least the warm start;
* through the pipeline, ``partitioner="exact"`` emits proof metadata
  into :class:`~repro.core.results.LoopMetrics`;
* the partitioner registry fails helpfully on unknown names, and the
  partitioner choice is part of the durable store key (no stale hits
  across strategies).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.context import PipelineConfig
from repro.core.fingerprint import key_prefix, store_key
from repro.core.greedy import greedy_partition
from repro.core.passes import PARTITIONERS
from repro.core.pipeline import compile_loop
from repro.core.weights import DEFAULT_HEURISTIC, build_rcg_from_kernel
from repro.ddg.builder import build_loop_ddg
from repro.exact.cost import (
    OVERFLOW_WEIGHT,
    assignment_cost,
    build_problem,
    partition_cost,
)
from repro.exact.bnb import ExactProof, solve_exact
from repro.ir.builder import LoopBuilder
from repro.machine.machine import CopyModel
from repro.machine.presets import ideal_machine, paper_machine
from repro.sched.modulo.scheduler import modulo_schedule
from repro.workloads.corpus import spec95_corpus
from tests.golden import brute_force_cost, enumerate_assignments

REPO_ROOT = pathlib.Path(__file__).parent.parent


def _warm_and_problem(loop, n_clusters, slots=None):
    """Greedy warm start + problem, the way the pipeline builds them."""
    ddg = build_loop_ddg(loop)
    ideal = modulo_schedule(loop, ddg, ideal_machine())
    rcg = build_rcg_from_kernel(ideal, ddg, DEFAULT_HEURISTIC).freeze()
    warm = greedy_partition(rcg, n_clusters, slots_per_bank=slots,
                            precolored=None)
    problem = build_problem(loop, n_clusters, slots, None)
    return warm, rcg, problem


class TestCostModel:
    def test_hand_computed_assignment_cost(self, daxpy_loop):
        # daxpy: f1=load, f2=load, f3=f1*fa, f4=f3+f2, store f4
        problem = build_problem(daxpy_loop, 2, None, None)
        # everything on bank 0: no copies
        all_zero = {rid: 0 for rid in problem.regs}
        assert assignment_cost(problem, all_zero) == 0
        # f4 alone on bank 1: its op reads f3 and f2 from bank 0 -> two
        # body copies (matching insert_copies in test_copies.py)
        f4 = next(rid for rid, r in problem.reg_objs.items() if r.name == "f4")
        split = {**all_zero, f4: 1}
        assert assignment_cost(problem, split) == 2

    def test_live_in_copies_are_free(self, daxpy_loop):
        problem = build_problem(daxpy_loop, 2, None, None)
        # fa is live-in (preheader copy, cost 0); moving only the ops
        # that read it costs nothing extra for fa itself
        fa = next(rid for rid, r in problem.reg_objs.items() if r.name == "fa")
        assert fa not in problem.body_defined
        base = {rid: 0 for rid in problem.regs}
        moved = {**base, fa: 1}
        assert assignment_cost(problem, moved) == 0

    def test_overflow_dominates_copies(self, daxpy_loop):
        # one slot per bank on a 5-op loop over 2 banks: at least 3 ops
        # overflow whatever the assignment — the weighted term dwarfs any
        # copy count
        problem = build_problem(daxpy_loop, 2, 1, None)
        assert problem.min_overflow() == 3
        best = brute_force_cost(problem)
        assert best >= 3 * OVERFLOW_WEIGHT
        assert best < 4 * OVERFLOW_WEIGHT  # never pays overflow it can avoid


class TestBruteForceParity:
    @pytest.mark.parametrize("n_banks", [2, 3])
    def test_fixture_loops_match_brute_force(self, daxpy_loop, dot_loop,
                                             n_banks):
        for loop in (daxpy_loop, dot_loop):
            warm, rcg, problem = _warm_and_problem(loop, n_banks)
            partition, proof = solve_exact(problem, warm=warm, rcg=rcg)
            assert proof.proven
            assert proof.cost == brute_force_cost(problem)
            assert partition_cost(problem, partition) == proof.cost
            assert proof.bound == proof.cost

    def test_small_corpus_loops_match_brute_force(self):
        """Every corpus loop small enough to enumerate: exact == brute."""
        checked = 0
        for loop in spec95_corpus(n=30):
            if len(loop.ops) > 8:
                continue
            warm, rcg, problem = _warm_and_problem(loop, 2, slots=None)
            if 2 ** problem.n_regs > 200_000:
                continue
            partition, proof = solve_exact(problem, warm=warm, rcg=rcg)
            assert proof.proven, loop.name
            assert proof.cost == brute_force_cost(problem), loop.name
            checked += 1
        assert checked >= 3  # the guard must not silently skip everything

    def test_capacity_constrained_parity(self, daxpy_loop):
        for slots in (1, 2, 3):
            warm, rcg, problem = _warm_and_problem(daxpy_loop, 2, slots=slots)
            _, proof = solve_exact(problem, warm=warm, rcg=rcg)
            assert proof.proven
            assert proof.cost == brute_force_cost(problem), f"slots={slots}"

    def test_precolored_parity_and_respect(self, daxpy_loop):
        f3 = next(r for r in daxpy_loop.registers() if r.name == "f3")
        problem = build_problem(daxpy_loop, 2, None, {f3: 1})
        partition, proof = solve_exact(problem)
        assert proof.proven
        assert partition.bank_of(f3) == 1
        assert proof.cost == brute_force_cost(problem)
        # forcing f3 away from its producers costs copies the free
        # problem avoids
        free = build_problem(daxpy_loop, 2, None, None)
        assert proof.cost >= brute_force_cost(free)

    def test_enumeration_respects_precolored(self, daxpy_loop):
        f3 = next(r for r in daxpy_loop.registers() if r.name == "f3")
        problem = build_problem(daxpy_loop, 2, None, {f3: 1})
        for assignment in enumerate_assignments(problem):
            assert assignment[f3.rid] == 1


class TestWarmStartDominance:
    """Exact cost <= greedy cost, proven or not, on real corpus loops."""

    @pytest.mark.parametrize("n_clusters", [2, 4])
    def test_exact_never_worse_than_greedy(self, n_clusters):
        for loop in spec95_corpus(n=10):
            ddg = build_loop_ddg(loop)
            ideal = modulo_schedule(loop, ddg, ideal_machine())
            slots = (16 // n_clusters) * ideal.ii
            rcg = build_rcg_from_kernel(ideal, ddg, DEFAULT_HEURISTIC).freeze()
            warm = greedy_partition(rcg, n_clusters, slots_per_bank=slots,
                                    precolored=None)
            problem = build_problem(loop, n_clusters, slots, None)
            partition, proof = solve_exact(
                problem, warm=warm, rcg=rcg, time_budget=2.0, node_limit=50_000,
            )
            assert proof.warm_cost == partition_cost(problem, warm), loop.name
            assert proof.cost <= proof.warm_cost, loop.name
            assert partition_cost(problem, partition) == proof.cost, loop.name
            assert proof.gap == proof.warm_cost - proof.cost
            if proof.proven:
                assert proof.bound == proof.cost

    def test_interrupted_search_still_returns_incumbent(self, daxpy_loop):
        warm, rcg, problem = _warm_and_problem(daxpy_loop, 2)
        _, proof = solve_exact(problem, warm=warm, rcg=rcg, node_limit=1)
        assert not proof.proven
        assert proof.cost <= proof.warm_cost
        assert proof.bound <= proof.cost


class TestPipelineIntegration:
    def test_exact_partitioner_emits_proof_metadata(self, daxpy_loop):
        machine = paper_machine(4, CopyModel.EMBEDDED)
        result = compile_loop(
            daxpy_loop, machine, PipelineConfig(partitioner="exact"),
        )
        m = result.metrics
        assert m.exact_cost >= 0
        assert m.exact_proven
        assert m.exact_bound == m.exact_cost
        assert m.exact_nodes > 0
        assert m.exact_cost <= m.exact_warm_cost

    def test_heuristic_partitioners_leave_defaults(self, daxpy_loop):
        machine = paper_machine(4, CopyModel.EMBEDDED)
        result = compile_loop(
            daxpy_loop, machine, PipelineConfig(partitioner="greedy"),
        )
        m = result.metrics
        assert m.exact_cost == -1
        assert not m.exact_proven
        assert m.exact_nodes == 0

    def test_exact_beats_greedy_on_daxpy_4c(self, daxpy_loop):
        """The smoke case: greedy overflows a 4-cluster bank on daxpy;
        exact proves a copy-only optimum."""
        machine = paper_machine(4, CopyModel.EMBEDDED)
        result = compile_loop(
            daxpy_loop, machine, PipelineConfig(partitioner="exact"),
        )
        m = result.metrics
        assert m.exact_warm_cost >= OVERFLOW_WEIGHT  # greedy overflowed
        assert m.exact_cost < OVERFLOW_WEIGHT       # the optimum does not


class TestRegistryErrorPaths:
    def test_api_unknown_partitioner_lists_backends(self, daxpy_loop):
        machine = paper_machine(2, CopyModel.EMBEDDED)
        with pytest.raises(ValueError) as err:
            compile_loop(
                daxpy_loop, machine, PipelineConfig(partitioner="nope"),
            )
        message = str(err.value)
        assert "nope" in message
        for name in ("exact", "greedy"):
            assert name in message

    @pytest.mark.parametrize("subcommand", [
        ("compile", "daxpy"), ("evaluate",),
    ])
    def test_cli_unknown_partitioner_lists_choices(self, subcommand):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *subcommand,
             "--partitioner", "nope"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode == 2
        assert "invalid choice: 'nope'" in proc.stderr
        for name in sorted(PARTITIONERS):
            assert name in proc.stderr

    def test_registry_contains_exact(self):
        assert "exact" in PARTITIONERS
        assert "greedy" in PARTITIONERS

    def test_store_key_changes_with_partitioner(self, daxpy_loop):
        machine = paper_machine(4, CopyModel.EMBEDDED)
        digests = set()
        for name in ("greedy", "exact", "uas"):
            config = PipelineConfig(partitioner=name)
            key = store_key(daxpy_loop, machine, config,
                            key_prefix(machine, config))
            digests.add(key.digest)
        assert len(digests) == 3


class TestSolverInternals:
    def test_symmetry_detection(self, daxpy_loop):
        free = build_problem(daxpy_loop, 2, None, None)
        assert free.symmetric
        f3 = next(r for r in daxpy_loop.registers() if r.name == "f3")
        pinned = build_problem(daxpy_loop, 2, None, {f3: 1})
        assert not pinned.symmetric

    def test_store_pins_to_first_source_bank(self):
        b = LoopBuilder("storepin")
        b.fload("f1", "x")
        b.fstore("f1", "y")
        loop = b.build()
        problem = build_problem(loop, 2, None, None)
        # the store has no dest; it is homed by its first register source
        store_pin, store_srcs = problem.ops[1]
        f1 = next(rid for rid, r in problem.reg_objs.items()
                  if r.name == "f1")
        assert store_pin == f1
        assert store_srcs == (f1,)

    def test_proof_is_frozen_metadata(self):
        proof = ExactProof(cost=3, bound=3, nodes=10, proven=True,
                           warm_cost=5)
        assert proof.gap == 2
        with pytest.raises(AttributeError):
            proof.cost = 0
