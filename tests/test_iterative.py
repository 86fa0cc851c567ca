"""Tests for the iterative partition-refinement phase."""


from repro.core.greedy import Partition, greedy_partition
from repro.core.iterative import refine_partition
from repro.core.pipeline import PipelineConfig, compile_loop
from repro.core.weights import build_rcg_from_kernel
from repro.ddg.builder import build_loop_ddg
from repro.machine.machine import CopyModel
from repro.machine.presets import ideal_machine, paper_machine
from repro.sched.modulo.scheduler import modulo_schedule
from repro.workloads.kernels import make_kernel
from repro.workloads.synthetic import PROFILES, SyntheticLoopGenerator


def greedy_seed(loop, machine):
    ddg = build_loop_ddg(loop, machine.latencies)
    ideal = ideal_machine(width=machine.width, latencies=machine.latencies)
    ks = modulo_schedule(loop, ddg, ideal)
    rcg = build_rcg_from_kernel(ks, ddg).freeze()
    return greedy_partition(
        rcg, machine.n_clusters, slots_per_bank=machine.fus_per_cluster * ks.ii
    )


class TestRefinePartition:
    def test_never_worse(self):
        m = paper_machine(4, CopyModel.EMBEDDED)
        gen = SyntheticLoopGenerator(55)
        for i in range(6):
            loop = gen.generate(f"ref_{i}", PROFILES["parallel"])
            seed = greedy_seed(loop, m)
            refined, stats = refine_partition(loop, seed, m)
            assert stats.final_ii <= stats.initial_ii
            assert (stats.final_ii, stats.final_copies) <= (
                stats.initial_ii, stats.initial_copies,
            )

    def test_input_partition_unmodified(self):
        m = paper_machine(2, CopyModel.EMBEDDED)
        loop = make_kernel("lfk1_hydro")
        seed = greedy_seed(loop, m)
        before = dict(seed.assignment)
        refine_partition(loop, seed, m)
        assert seed.assignment == before

    def test_stats_are_consistent(self):
        m = paper_machine(4, CopyModel.EMBEDDED)
        loop = make_kernel("fir5")
        seed = greedy_seed(loop, m)
        refined, stats = refine_partition(loop, seed, m, max_rounds=3)
        assert stats.rounds <= 3
        assert stats.moves_kept <= stats.moves_tried

    def test_fixes_a_deliberately_bad_partition(self):
        """Scatter a serial chain across banks; refinement must claw back
        most of the damage."""
        m = paper_machine(4, CopyModel.EMBEDDED)
        loop = make_kernel("horner4")
        bad = Partition(n_banks=4)
        for i, reg in enumerate(sorted(loop.registers(), key=lambda r: r.rid)):
            bad.assign(reg, i % 4)
        refined, stats = refine_partition(loop, bad, m, max_rounds=8)
        assert stats.final_copies <= stats.initial_copies
        assert stats.final_ii <= stats.initial_ii

    def test_pipeline_partitioner_option(self):
        m = paper_machine(4, CopyModel.EMBEDDED)
        loop = make_kernel("lfk7_state")
        greedy = compile_loop(
            make_kernel("lfk7_state"), m,
            PipelineConfig(partitioner="greedy", run_regalloc=False),
        )
        iterative = compile_loop(
            loop, m, PipelineConfig(partitioner="iterative", run_regalloc=False)
        )
        assert iterative.metrics.partitioned_ii <= greedy.metrics.partitioned_ii

    def test_corpus_slice_improvement(self):
        """On a mixed slice the iterative phase must strictly improve the
        aggregate — the Nystrom/Eichenberger effect the paper cites."""
        import statistics

        m = paper_machine(4, CopyModel.EMBEDDED)
        gen = SyntheticLoopGenerator(2024)
        loops = [
            gen.generate(f"it_{i}", PROFILES[p])
            for i, p in enumerate(["parallel", "recurrence", "reduction"] * 4)
        ]
        means = {}
        for which in ("greedy", "iterative"):
            vals = [
                compile_loop(
                    l, m, PipelineConfig(partitioner=which, run_regalloc=False)
                ).metrics.normalized_kernel
                for l in loops
            ]
            means[which] = statistics.mean(vals)
        assert means["iterative"] <= means["greedy"]
