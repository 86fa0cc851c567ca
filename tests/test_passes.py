"""Pass-manager architecture tests: pipeline composition, the partitioner
registry, the artifact cache, and the spill-retry regressions."""

import pytest

from repro.core.cache import ArtifactCache, latency_fingerprint, loop_fingerprint
from repro.core.context import CompilationContext, PipelineConfig
from repro.core.passes import (
    PARTITIONERS,
    STOP,
    BuildDDG,
    IdealSchedule,
    PartitionPass,
    PassPipeline,
    default_passes,
    register_partitioner,
)
from repro.core.pipeline import compile_loop
from repro.ir.parser import parse_loop
from repro.ir.printer import format_loop
from repro.machine.machine import CopyModel, MachineDescription
from repro.machine.presets import paper_machine
from repro.obs import PassClock
from repro.workloads.kernels import make_kernel


class TestPassPipeline:
    def test_default_passes_cover_the_five_steps(self):
        names = [p.name for p in default_passes()]
        assert names == [
            "StoreLookup", "BuildDDG", "IdealSchedule", "PartitionPass",
            "SpillRetryLoop", "SimulateCheck", "CheckOracles",
            "ComputeMetrics", "StoreWrite",
        ]

    def test_events_record_every_pass_with_time(self):
        loop = make_kernel("daxpy")
        machine = paper_machine(4, CopyModel.EMBEDDED)
        ctx = CompilationContext(loop, machine, PipelineConfig(run_regalloc=False))
        PassPipeline(default_passes()).run(ctx)
        names = list(ctx.tracer.pass_ns)
        for expected in ("BuildDDG", "IdealSchedule", "PartitionPass",
                         "InsertCopies", "ClusterReschedule",
                         "SpillRetryLoop", "ComputeMetrics"):
            assert expected in names
        assert all(ns >= 0 for ns in ctx.tracer.pass_ns.values())
        assert ctx.metrics is not None

    def test_pass_seconds_aggregates_exclusively(self):
        """Composite passes report self time: the per-pass totals sum to
        roughly the pipeline's true wall clock, not a double count."""
        loop = make_kernel("dot")
        machine = paper_machine(2, CopyModel.EMBEDDED)
        clock = PassClock()
        compile_loop(loop, machine, PipelineConfig(run_regalloc=True), tracer=clock)
        pass_seconds = clock.pass_seconds()
        assert set(pass_seconds) >= {"SpillRetryLoop", "AssignBanks"}
        # the composite's exclusive share is a small slice of its children's
        assert pass_seconds["SpillRetryLoop"] <= sum(
            pass_seconds.get(n, 0.0)
            for n in ("InsertCopies", "ClusterReschedule", "AssignBanks")
        ) + 1e-3

    def test_stop_sentinel_short_circuits(self):
        class Halt:
            name = "Halt"

            def run(self, ctx):
                return STOP

        class MustNotRun:
            name = "MustNotRun"

            def run(self, ctx):  # pragma: no cover - the assertion target
                raise AssertionError("pipeline did not short-circuit")

        loop = make_kernel("daxpy")
        machine = paper_machine(2, CopyModel.EMBEDDED)
        ctx = CompilationContext(loop, machine, PipelineConfig())
        PassPipeline([BuildDDG(), Halt(), MustNotRun()]).run(ctx)
        assert list(ctx.tracer.pass_ns) == ["BuildDDG", "Halt"]

    def test_request_stop_short_circuits(self):
        class Halt:
            name = "Halt"

            def run(self, ctx):
                ctx.request_stop()

        loop = make_kernel("daxpy")
        machine = paper_machine(2, CopyModel.EMBEDDED)
        ctx = CompilationContext(loop, machine, PipelineConfig())
        PassPipeline([Halt(), BuildDDG()]).run(ctx)
        assert ctx.ddg is None


class TestPartitionerRegistry:
    def test_all_paper_strategies_registered(self):
        assert set(PARTITIONERS) >= {
            "greedy", "iterative", "bug", "uas", "random", "round_robin", "single"
        }

    def test_unknown_partitioner_is_a_clear_error(self):
        loop = make_kernel("daxpy")
        machine = paper_machine(2, CopyModel.EMBEDDED)
        ctx = CompilationContext(loop, machine, PipelineConfig(run_regalloc=False))
        PassPipeline([BuildDDG(), IdealSchedule()]).run(ctx)
        with pytest.raises(ValueError, match="unknown partitioner"):
            PartitionPass("no_such_strategy").run(ctx)

    def test_custom_partitioner_runs_through_compile_loop(self):
        @register_partitioner("test_everything_on_bank0")
        def _bank0(ctx):
            from repro.core.baselines import single_bank_partition

            return single_bank_partition(ctx.loop, ctx.machine.n_clusters)

        try:
            loop = make_kernel("daxpy")
            machine = paper_machine(2, CopyModel.EMBEDDED)
            ctx = CompilationContext(loop, machine, PipelineConfig(run_regalloc=False))
            PassPipeline(
                [BuildDDG(), IdealSchedule(), PartitionPass("test_everything_on_bank0")]
            ).run(ctx)
            assert ctx.partition is not None
            assert set(ctx.partition.assignment.values()) == {0}
        finally:
            del PARTITIONERS["test_everything_on_bank0"]


class TestArtifactCache:
    def test_shared_across_cluster_arrangements(self):
        """One miss fills the cache; the other five paper configs hit."""
        cache = ArtifactCache()
        loop = make_kernel("lfk1_hydro")
        config = PipelineConfig(run_regalloc=False)
        iis = set()
        for n, model in [(2, CopyModel.EMBEDDED), (2, CopyModel.COPY_UNIT),
                         (4, CopyModel.EMBEDDED), (4, CopyModel.COPY_UNIT),
                         (8, CopyModel.EMBEDDED), (8, CopyModel.COPY_UNIT)]:
            result = compile_loop(loop, paper_machine(n, model), config, cache=cache)
            iis.add(result.metrics.ideal_ii)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 5
        assert len(iis) == 1  # Section 6.2: same ideal schedule everywhere

    def test_scheduler_config_is_part_of_the_key(self):
        cache = ArtifactCache()
        loop = make_kernel("daxpy")
        machine = paper_machine(4, CopyModel.EMBEDDED)
        compile_loop(loop, machine, PipelineConfig(run_regalloc=False), cache=cache)
        compile_loop(loop, machine,
                     PipelineConfig(run_regalloc=False, scheduler="swing"), cache=cache)
        assert cache.stats.misses == 2  # different schedulers never collide

    def test_identity_guard_rejects_textual_twin(self):
        """A different loop instance with identical text must not reuse the
        cached artifacts (they reference the other instance's ops)."""
        loop_a = make_kernel("daxpy")
        loop_b = parse_loop(format_loop(loop_a))
        assert loop_fingerprint(loop_a) == loop_fingerprint(loop_b)
        cache = ArtifactCache()
        machine = paper_machine(2, CopyModel.EMBEDDED)
        config = PipelineConfig(run_regalloc=False)
        ra = compile_loop(loop_a, machine, config, cache=cache)
        rb = compile_loop(loop_b, machine, config, cache=cache)
        assert cache.stats.hits == 0 and cache.stats.misses == 2
        assert ra.ddg is not rb.ddg
        assert rb.ddg.ops[0] is loop_b.ops[0]

    def test_latency_fingerprint_order_independent(self):
        from repro.machine.latency import PAPER_LATENCIES

        fp = latency_fingerprint(PAPER_LATENCIES)
        assert fp == tuple(sorted(fp))

    def test_cached_results_identical_to_uncached(self):
        loop = make_kernel("lfk5_tridiag")
        config = PipelineConfig(run_regalloc=False)
        cache = ArtifactCache()
        for n in (2, 4, 8):
            machine = paper_machine(n, CopyModel.EMBEDDED)
            cold = compile_loop(loop, machine, config)
            warm = compile_loop(loop, machine, config, cache=cache)
            assert cold.metrics == warm.metrics


class TestSpillRetryRegressions:
    TINY = MachineDescription(
        name="tiny-banks",
        n_clusters=2,
        fus_per_cluster=8,
        copy_model=CopyModel.EMBEDDED,
        regs_per_bank=16,
    )

    def test_swing_spill_round_never_calls_ims(self, monkeypatch):
        """Regression: the spill-retry re-partition used to hardcode
        ``modulo_schedule`` even with ``scheduler='swing'``.  Every
        scheduling site now goes through the context's scheduler closure,
        so with swing configured IMS must never run."""
        import repro.core.context as context_mod

        def ims_forbidden(*args, **kwargs):  # pragma: no cover - fail path
            raise AssertionError("IMS invoked while scheduler='swing'")

        monkeypatch.setattr(context_mod, "modulo_schedule", ims_forbidden)
        loop = make_kernel("lfk7_state")
        result = compile_loop(
            loop, self.TINY,
            PipelineConfig(scheduler="swing", max_spill_rounds=8),
        )
        assert result.bank_assignment is not None and result.bank_assignment.success
        assert result.metrics.spilled_registers > 0

    def test_spill_round_keeps_full_greedy_arguments(self):
        """The retry partition is built with the same capacity-aware
        ``slots_per_bank`` knob as round one, so post-spill placement
        follows the calibrated balancing (no bare-greedy fallback)."""
        loop = make_kernel("lfk7_state")
        result = compile_loop(loop, self.TINY, PipelineConfig(max_spill_rounds=8))
        assert result.metrics.spilled_registers > 0
        sizes = result.partition.bank_sizes()
        assert all(s > 0 for s in sizes)

    def test_result_partition_is_the_post_spill_partition(self):
        """Regression: ``CompilationResult.partition`` used to be the
        pre-spill partition while ``partitioned``/``metrics`` reflected
        the post-spill one.  The final partition must be consistent with
        the partitioned loop: same banks, no stale spilled registers."""
        loop = make_kernel("lfk7_state")
        result = compile_loop(loop, self.TINY, PipelineConfig(max_spill_rounds=8))
        assert result.metrics.spilled_registers > 0
        extended = result.partitioned.partition
        for rid, bank in result.partition.assignment.items():
            assert extended.assignment[rid] == bank
        # and the metrics register count reflects that extended partition
        assert result.metrics.n_registers == len(extended)

    def test_partition_consistency_without_spills(self):
        loop = make_kernel("daxpy")
        machine = paper_machine(4, CopyModel.EMBEDDED)
        result = compile_loop(loop, machine, PipelineConfig(run_regalloc=False))
        extended = result.partitioned.partition
        for rid, bank in result.partition.assignment.items():
            assert extended.assignment[rid] == bank


class TestCacheEviction:
    """The cache holds one entry, the loop it last served; a lookup of
    another loop replaces it."""

    CONFIG = PipelineConfig(run_regalloc=False)
    MACHINE_ARGS = (2, CopyModel.EMBEDDED)

    def _compile(self, cache, loop):
        machine = paper_machine(*self.MACHINE_ARGS)
        return compile_loop(loop, machine, self.CONFIG, cache=cache)

    def test_identity_guard_overwrite_is_not_an_eviction(self):
        loop_a = make_kernel("daxpy")
        loop_b = parse_loop(format_loop(loop_a))
        cache = ArtifactCache()
        self._compile(cache, loop_a)
        rb = self._compile(cache, loop_b)  # textual twin: a miss that replaces the entry
        assert (cache.stats.hits, cache.stats.misses) == (0, 2)
        machine = paper_machine(*self.MACHINE_ARGS)
        args = (machine.latencies, self.CONFIG, machine.width)
        assert cache.peek_ddg(loop_b, *args) is rb.ddg
        assert cache.peek_ddg(loop_a, *args) is None
