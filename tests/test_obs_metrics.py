"""Typed metrics registry (repro.obs.metrics) and its wiring into the
evaluation: exported metrics must match the rendered paper tables."""

import json
import math
import random

import pytest

from repro.core.pipeline import PipelineConfig
from repro.evalx.export import aggregate_metrics, run_metrics_json
from repro.evalx.metrics import arithmetic_mean
from repro.evalx.report import render_full_report, render_metrics_summary
from repro.evalx.runner import run_evaluation
from repro.evalx.table1 import compute_table1
from repro.evalx.table2 import compute_table2
from repro.machine.machine import CopyModel
from repro.obs import MetricsRegistry, MetricTypeError, merge_snapshots
from repro.workloads.corpus import spec95_corpus

CONFIG = PipelineConfig(run_regalloc=False)


class TestCounter:
    def test_increments_and_defaults(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        c.inc()
        c.inc(4)
        assert reg.snapshot()["counters"]["hits"] == 5

    def test_rejects_float_bool_and_negative(self):
        c = MetricsRegistry().counter("n")
        with pytest.raises(MetricTypeError):
            c.inc(1.5)
        with pytest.raises(MetricTypeError):
            c.inc(True)
        with pytest.raises(MetricTypeError):
            c.inc(-1)


class TestGauge:
    def test_keeps_ints_exact(self):
        reg = MetricsRegistry()
        reg.gauge("ii").set(3)
        value = reg.snapshot()["gauges"]["ii"]
        assert value == 3 and isinstance(value, int)

    def test_accepts_floats(self):
        reg = MetricsRegistry()
        reg.gauge("ipc").set(2.5)
        assert reg.snapshot()["gauges"]["ipc"] == 2.5

    def test_rejects_str_and_bool(self):
        g = MetricsRegistry().gauge("g")
        with pytest.raises(MetricTypeError):
            g.set("high")
        with pytest.raises(MetricTypeError):
            g.set(True)


class TestHistogram:
    def test_streaming_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (3, 1, 2):
            h.observe(v)
        stats = reg.snapshot()["histograms"]["lat"]
        summary = {k: stats[k] for k in ("count", "sum", "min", "max")}
        assert summary == {"count": 3, "sum": 6, "min": 1, "max": 3}
        assert 1 <= stats["p50"] <= 3 and 1 <= stats["p99"] <= 3

    def test_rejects_non_numbers(self):
        h = MetricsRegistry().histogram("h")
        with pytest.raises(MetricTypeError):
            h.observe("fast")
        with pytest.raises(MetricTypeError):
            h.observe(float("nan"))

    def test_empty_histogram_has_no_quantiles(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        stats = reg.snapshot()["histograms"]["h"]
        assert stats["count"] == 0
        assert stats["p50"] is None and stats["p99"] is None

    @pytest.mark.parametrize("seed", range(5))
    def test_quantiles_within_one_bucket_of_the_sample(self, seed):
        """p50/p99 lie within one bucket ratio, 2^(1/4), of the exact
        nearest-rank sample quantile."""
        rng = random.Random(seed)
        values = [rng.lognormvariate(0.5, 1.5) for _ in range(1 + 400 * seed)]
        if seed == 0:
            values += [0.0, -2.5]  # non-positive values have a bucket too
        reg = MetricsRegistry()
        for v in values:
            reg.histogram("lat").observe(v)
        stats = reg.snapshot()["histograms"]["lat"]
        ordered = sorted(values)
        for key, q in (("p50", 0.5), ("p99", 0.99)):
            exact = ordered[max(1, math.ceil(q * len(values))) - 1]
            if exact > 0:
                assert abs(math.log2(stats[key] / exact)) <= 0.25, key
            else:
                assert stats[key] <= 0


class TestRegistry:
    def test_same_name_same_kind_is_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_redeclaration_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricTypeError, match="x"):
            reg.gauge("x")
        with pytest.raises(MetricTypeError):
            reg.histogram("x")

    def test_len_and_contains(self):
        reg = MetricsRegistry()
        assert len(reg) == 0 and "a" not in reg
        reg.counter("a")
        reg.gauge("b")
        assert len(reg) == 2 and "a" in reg and "b" in reg

    def test_snapshot_is_json_able_and_sorted(self):
        reg = MetricsRegistry()
        reg.gauge("z").set(1)
        reg.gauge("a").set(2)
        snap = reg.snapshot()
        json.dumps(snap)
        assert list(snap["gauges"]) == ["a", "z"]


class TestMergeSnapshots:
    def test_counters_sum_gauges_fold(self):
        snaps = []
        for ii in (2, 4):
            reg = MetricsRegistry()
            reg.counter("calls").inc(ii)
            reg.gauge("ii").set(ii)
            snaps.append({"loop": f"l{ii}", **reg.snapshot()})
        agg = merge_snapshots(snaps)
        assert agg["cells"] == 2
        assert agg["counters"]["calls"] == 6
        assert agg["gauges"]["ii"] == {"count": 2, "min": 2, "max": 4, "mean": 3.0}

    def test_empty(self):
        agg = merge_snapshots([])
        assert agg["cells"] == 0

    def test_histogram_merge_is_order_independent(self):
        rng = random.Random(42)
        snaps = []
        for _ in range(12):
            reg = MetricsRegistry()
            for _ in range(rng.randrange(0, 30)):
                reg.histogram("lat").observe(rng.uniform(0.01, 90.0))
            snaps.append(reg.snapshot())
        first = merge_snapshots(snaps)
        for _ in range(5):
            rng.shuffle(snaps)
            assert merge_snapshots(snaps) == first
        merged = first["histograms"]["lat"]
        assert merged["count"] == sum(n for _k, n in merged["buckets"])
        assert merged["p50"] <= merged["p99"]

    def test_histogram_merge_equals_one_histogram(self):
        """Merging per-worker snapshots gives the buckets and quantiles
        of one histogram that saw every value."""
        rng = random.Random(3)
        values = [rng.expovariate(0.2) for _ in range(300)]
        whole, parts = MetricsRegistry(), []
        for i in range(0, 300, 70):
            reg = MetricsRegistry()
            for v in values[i:i + 70]:
                reg.histogram("lat").observe(v)
                whole.histogram("lat").observe(v)
            parts.append(json.loads(json.dumps(reg.snapshot())))
        merged = merge_snapshots(parts)["histograms"]["lat"]
        one = whole.snapshot()["histograms"]["lat"]
        for key in ("count", "min", "max", "p50", "p99", "buckets"):
            assert merged[key] == one[key], key
        assert merged["sum"] == pytest.approx(one["sum"])


class TestEvaluationMetricsMatchTables:
    """The exported metrics are the paper tables' raw material: recomputing
    Table 1/2 aggregates from the exported gauges must reproduce the
    rendered report exactly (seeded corpus, no failures)."""

    @pytest.fixture(scope="class")
    def run(self):
        return run_evaluation(loops=spec95_corpus(n=8), config=CONFIG,
                              collect_metrics=True)

    def test_every_cell_snapshot_matches_its_loop_metrics(self, run):
        assert not run.failures
        loops = spec95_corpus(n=8)
        assert len(run.cell_metrics) == 6 * len(loops)
        for (i, label), snapshot in run.cell_metrics.items():
            m = run.per_config[label][i]
            assert snapshot["loop"] == loops[i].name == m.loop_name
            gauges = snapshot["gauges"]
            assert gauges["ideal.ii"] == m.ideal_ii
            assert gauges["ideal.min_ii"] == m.ideal_min_ii
            assert gauges["ideal.rec_ii"] == m.ideal_rec_ii
            assert gauges["ideal.res_ii"] == m.ideal_res_ii
            assert gauges["partitioned.ii"] == m.partitioned_ii
            assert gauges["partitioned.ipc"] == m.partitioned_ipc
            assert gauges["copies.body"] == m.n_body_copies
            assert gauges["copies.preheader"] == m.n_preheader_copies
            assert gauges["partitioned.normalized_kernel"] == m.normalized_kernel

    def test_table1_recomputed_from_exported_gauges(self, run):
        t1 = compute_table1(run)
        for key, expected in t1.clustered_ipc.items():
            from repro.evalx.runner import config_label

            label = config_label(*key)
            ipcs = [
                snap["gauges"]["partitioned.ipc"]
                for (_i, lab), snap in sorted(run.cell_metrics.items())
                if lab == label
            ]
            assert arithmetic_mean(ipcs) == expected
        report = render_full_report(run)
        assert t1.format() in report

    def test_table2_recomputed_from_exported_gauges(self, run):
        t2 = compute_table2(run)
        from repro.evalx.runner import config_label

        for key, expected in t2.arith.items():
            label = config_label(*key)
            normalized = [
                snap["gauges"]["partitioned.normalized_kernel"]
                for (_i, lab), snap in sorted(run.cell_metrics.items())
                if lab == label
            ]
            assert arithmetic_mean(normalized) == expected
        assert t2.format() in render_full_report(run)

    def test_metrics_json_document(self, run):
        doc = json.loads(run_metrics_json(run))
        assert doc["schema"] == "repro-compile-metrics/1"
        assert doc["aggregate"] == aggregate_metrics(run)
        assert len(doc["cells"]) == len(run.cell_metrics)
        # configuration-major, loop-minor: same order as the tables
        labels = run.config_labels()
        keys = [(c["config"], c["loop_index"]) for c in doc["cells"]]
        assert keys == sorted(keys, key=lambda k: (labels.index(k[0]), k[1]))

    def test_summary_renders_counters_and_gauges(self, run):
        text = render_metrics_summary(aggregate_metrics(run))
        assert f"Compile metrics ({len(run.cell_metrics)} cells):" in text
        assert "sched.calls" in text
        assert "partitioned.ii" in text

    def test_paper_config_counters_present(self, run):
        agg = aggregate_metrics(run)
        counters = agg["counters"]
        assert counters["sched.calls"] > 0
        assert counters["greedy.placements"] > 0
        assert counters["cache.hits"] + counters["cache.misses"] > 0
        assert counters["copies.inserted"] >= 0

    def test_copy_unit_config_records_more_copy_models(self, run):
        """Embedded and copy-unit cells of the same loop agree on ideal
        gauges (config-independent) but may differ on partitioned ones."""
        emb = run.cell_metrics[(0, "2 Clusters / Embedded")]["gauges"]
        cu = run.cell_metrics[(0, "2 Clusters / Copy Unit")]["gauges"]
        assert emb["ideal.ii"] == cu["ideal.ii"]
        assert emb["loop.n_ops"] == cu["loop.n_ops"]
