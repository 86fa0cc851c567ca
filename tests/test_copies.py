"""Tests for copy insertion and cluster pinning."""

import pytest

from repro.codegen import emit_assembly
from repro.core.copies import count_cross_bank_reads, insert_copies
from repro.core.greedy import Partition
from repro.core.pipeline import PipelineConfig, compile_loop
from repro.ir.builder import LoopBuilder
from repro.ir.parser import parse_loop
from repro.ir.printer import format_loop
from repro.ir.verify import verify_loop
from repro.machine.machine import CopyModel
from repro.machine.presets import paper_machine
from repro.store.tiered import ArtifactStore


def partition_for(loop, mapping, n_banks=2):
    p = Partition(n_banks=n_banks)
    for reg in loop.registers():
        p.assign(reg, mapping.get(reg.name, 0))
    return p


@pytest.fixture
def machine2():
    return paper_machine(2, CopyModel.EMBEDDED)


class TestClusterPinning:
    def test_ops_pinned_to_dest_bank(self, daxpy_loop, machine2):
        p = partition_for(daxpy_loop, {"f3": 1, "f4": 1})
        result = insert_copies(daxpy_loop, p, machine2)
        for clone, i in zip(result.loop.ops, result.origin):
            if i >= 0 and clone.dest is not None:
                assert clone.dest is daxpy_loop.ops[i].dest
                assert clone.cluster == result.partition.bank_of(clone.dest)

    def test_store_runs_where_value_lives(self, daxpy_loop, machine2):
        p = partition_for(daxpy_loop, {"f4": 1})
        result = insert_copies(daxpy_loop, p, machine2)
        store = [op for op in result.loop.ops if op.writes_mem][0]
        assert store.cluster == 1

    def test_mismatched_bank_count_rejected(self, daxpy_loop, machine2):
        p = partition_for(daxpy_loop, {}, n_banks=4)
        with pytest.raises(ValueError):
            insert_copies(daxpy_loop, p, machine2)


class TestCopyInsertion:
    def test_no_copies_for_single_bank_placement(self, daxpy_loop, machine2):
        p = partition_for(daxpy_loop, {})  # everything bank 0
        result = insert_copies(daxpy_loop, p, machine2)
        assert result.n_body_copies == 0
        assert result.n_preheader_copies == 0
        assert len(result.loop.ops) == len(daxpy_loop.ops)

    def test_cross_bank_use_gets_copy_after_def(self, daxpy_loop, machine2):
        # f3 defined in bank 0, consumed by f4 in bank 1
        p = partition_for(daxpy_loop, {"f4": 1})
        result = insert_copies(daxpy_loop, p, machine2)
        # f4's op reads f3 from bank 0, f2 from bank 0 -> two copies
        assert result.n_body_copies == 2
        ops = result.loop.ops
        copy_idx = [i for i, op in enumerate(ops) if op.is_copy]
        for i in copy_idx:
            src = ops[i].sources[0]
            def_idx = next(
                j for j, op in enumerate(ops) if op.dest is not None and op.dest == src
            )
            assert def_idx < i  # copy placed after its source's definition

    def test_copy_dest_registered_in_partition(self, daxpy_loop, machine2):
        p = partition_for(daxpy_loop, {"f4": 1})
        result = insert_copies(daxpy_loop, p, machine2)
        for cp in result.body_copies:
            assert result.partition.bank_of(cp.dest) == cp.cluster

    def test_copies_shared_by_consumers_in_same_cluster(self, machine2):
        b = LoopBuilder("share")
        b.fload("f1", "x")
        b.fmul("f2", "f1", "f1")
        b.fmul("f3", "f1", "f1")
        b.fstore("f2", "o1")
        b.fstore("f3", "o2")
        loop = b.build()
        p = partition_for(loop, {"f2": 1, "f3": 1})
        result = insert_copies(loop, p, machine2)
        assert result.n_body_copies == 1  # one copy of f1 serves both

    def test_live_in_gets_preheader_copy(self, daxpy_loop, machine2):
        # fa is a live-in used by f3; put f3 in bank 1, fa in bank 0
        p = partition_for(daxpy_loop, {"f3": 1})
        result = insert_copies(daxpy_loop, p, machine2)
        assert result.n_preheader_copies >= 1
        srcs = [src.name for src, _dst in result.preheader_copies]
        assert "fa" in srcs
        # the preheader copy destination is a live-in of the new loop
        for _src, dst in result.preheader_copies:
            assert dst in result.loop.live_in

    def test_copy_origin_maps_back(self, daxpy_loop, machine2):
        p = partition_for(daxpy_loop, {"f4": 1})
        result = insert_copies(daxpy_loop, p, machine2)
        for cp in result.body_copies:
            origin = result.copy_origin[cp.dest.rid]
            assert origin.name in {"f2", "f3"}

    def test_rewritten_loop_verifies(self, daxpy_loop, machine2):
        p = partition_for(daxpy_loop, {"f3": 1, "f4": 1})
        result = insert_copies(daxpy_loop, p, machine2)
        verify_loop(result.loop)

    def test_original_loop_untouched(self, daxpy_loop, machine2):
        before = [op.op_id for op in daxpy_loop.ops]
        p = partition_for(daxpy_loop, {"f4": 1})
        insert_copies(daxpy_loop, p, machine2)
        assert [op.op_id for op in daxpy_loop.ops] == before
        assert all(op.cluster is None for op in daxpy_loop.ops)

    def test_loop_carried_use_rewired_through_copy(self, machine2):
        """An accumulator consumed cross-bank still reads last iteration's
        value (the copy lands after the def, so body order is preserved)."""
        b = LoopBuilder("carried")
        b.fload("f1", "x")
        b.fadd("f2", "f2", "f1")     # accumulator in bank 0
        b.fmul("f3", "f2", "f1")     # consumer, forced to bank 1
        b.fstore("f3", "y")
        b.live_out("f2")
        loop = b.build()
        p = partition_for(loop, {"f3": 1})
        result = insert_copies(loop, p, machine2)
        verify_loop(result.loop)
        assert result.n_body_copies == 2  # f2 and f1 into bank 1


class TestCrossBankCounting:
    def test_count_matches_insertion(self, daxpy_loop, machine2):
        p = partition_for(daxpy_loop, {"f4": 1})
        count = count_cross_bank_reads(daxpy_loop, p)
        result = insert_copies(daxpy_loop, p, machine2)
        assert count == result.n_body_copies + result.n_preheader_copies

    def test_zero_for_single_bank(self, daxpy_loop):
        p = partition_for(daxpy_loop, {})
        assert count_cross_bank_reads(daxpy_loop, p) == 0


#: a loop that defines both ``f1`` and ``f1.c1`` (dotted names parse) and
#: reads every value on other clusters, so the default copy name of
#: ``f1`` on cluster 1 is already taken by a register of the loop
CLASH = """\
loop clash depth=1 trip=8
  fload f1, x[i]
  fload f1.c1, x[i+1]
  fload f2, x[i+2]
  fload f2.c1, x[i+3]
  fmul f3, f1, f2
  fmul f3.c1, f1.c1, f2.c1
  fadd f4, f3, f1.c1
  fadd f4.c1, f3.c1, f1
  fadd f5, f4, f2.c1
  fadd f5.c1, f4.c1, f2
  fstore f5, y[i]
  fstore f5.c1, z[i]
end
"""


class TestCopyNames:
    @pytest.mark.parametrize("model", [CopyModel.EMBEDDED, CopyModel.COPY_UNIT],
                             ids=["embedded", "copy_unit"])
    @pytest.mark.parametrize("n_clusters", [2, 4, 8])
    def test_copy_names_stay_unique(self, tmp_path, n_clusters, model):
        """A copy takes a name no register of the loop uses, so the
        partitioned loop's listing parses back, and a warm store hit
        (whose bank assignment is filed by register name) emits the cold
        compile's assembly."""
        loop = parse_loop(CLASH)
        machine = paper_machine(n_clusters, model)
        store = ArtifactStore.open(tmp_path / "store")
        cold = compile_loop(loop, machine, PipelineConfig(), store=store)
        partitioned = cold.partitioned
        names = [reg.name for reg in partitioned.loop.registers()]
        assert len(names) == len(set(names))
        copies = [cp.dest for cp in partitioned.body_copies]
        copies += [dst for _src, dst in partitioned.preheader_copies]
        assert any(reg.name.endswith("_") for reg in copies)  # the clash occurred
        text = format_loop(partitioned.loop)
        assert format_loop(parse_loop(text)) == text
        warm = compile_loop(loop, machine, PipelineConfig(), store=store)
        assert warm.store_hit
        assert emit_assembly(warm).text() == emit_assembly(cold).text()
