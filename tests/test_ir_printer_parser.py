"""Round-trip and error tests for the IR printer and parser."""

import pytest

from repro.ir.builder import LoopBuilder
from repro.ir.parser import IRParseError, parse_loop
from repro.ir.printer import format_loop, format_operation


def sample_loop():
    b = LoopBuilder("sample", depth=2, trip_count_hint=5)
    b.fload("f1", "x")
    b.fload("f2", "y", offset=1)
    b.fmul("f3", "f1", "fa")
    b.fadd("f4", "f3", "f2")
    b.fdiv("f5", "f4", 2.0)
    b.fstore("f5", "y")
    b.load("r1", "idx", scalar=True)
    b.add("r2", "r1", 4)
    b.store("r2", "idx", scalar=True)
    b.live_in("fa")
    b.live_out("f4")
    return b.build()


class TestPrinter:
    def test_operation_format(self):
        loop = sample_loop()
        texts = [format_operation(op) for op in loop.ops]
        assert texts[0] == "fload f1, x[i]"
        assert texts[1] == "fload f2, y[i+1]"
        assert texts[2] == "fmul f3, f1, fa"
        assert "fdiv f5, f4, 2.0" in texts
        assert "load r1, idx" in texts
        assert "store r2, idx" in texts

    def test_cluster_annotation(self):
        loop = sample_loop()
        loop.ops[0].cluster = 3
        assert format_operation(loop.ops[0]).endswith("@c3")

    def test_loop_format_contains_liveness(self):
        text = format_loop(sample_loop())
        assert "live_in fa" in text
        assert "live_out f4" in text
        assert text.startswith("loop sample depth=2 trip=5")
        assert text.endswith("end")


class TestRoundTrip:
    def test_parse_of_printed_loop(self):
        original = sample_loop()
        parsed = parse_loop(format_loop(original))
        assert parsed.name == original.name
        assert parsed.depth == original.depth
        assert parsed.trip_count_hint == original.trip_count_hint
        assert len(parsed.ops) == len(original.ops)
        for a, b in zip(original.ops, parsed.ops):
            assert a.opcode is b.opcode
            assert (a.dest is None) == (b.dest is None)
            if a.dest is not None:
                assert a.dest.name == b.dest.name
            assert a.mem == b.mem
        assert {r.name for r in parsed.live_in} == {r.name for r in original.live_in}
        assert {r.name for r in parsed.live_out} == {r.name for r in original.live_out}

    def test_double_round_trip_stable(self):
        once = format_loop(parse_loop(format_loop(sample_loop())))
        twice = format_loop(parse_loop(once))
        assert once == twice

    def test_cluster_round_trip(self):
        loop = sample_loop()
        loop.ops[0].cluster = 2
        parsed = parse_loop(format_loop(loop))
        assert parsed.ops[0].cluster == 2

    def test_spill_slot_of_a_reload_round_trips(self):
        """A second spill round spills a reload register ("f3.rl11_1"),
        whose slot scalar carries the register's suffix."""
        text = (
            "loop s depth=1 trip=8\n"
            "  fload f3.rl11_1, __spill_f3\n"
            "  fstore f3.rl11_1, __spill_f3.rl11_1\n"
            "end"
        )
        parsed = parse_loop(text)
        assert parsed.ops[1].mem.array == "__spill_f3.rl11_1"
        assert parsed.ops[1].mem.scalar
        assert format_loop(parsed) == text


class TestParserErrors:
    def test_empty_input(self):
        with pytest.raises(IRParseError):
            parse_loop("")

    def test_missing_end(self):
        with pytest.raises(IRParseError):
            parse_loop("loop x\n  fload f1, a[i]")

    def test_bad_header(self):
        with pytest.raises(IRParseError):
            parse_loop("notaloop x\nend")

    def test_unknown_opcode(self):
        with pytest.raises(IRParseError):
            parse_loop("loop x\n  frobnicate f1, f2\nend")

    def test_bad_memref(self):
        with pytest.raises(IRParseError):
            parse_loop("loop x\n  fload f1, a[j]\nend")

    def test_store_missing_memref(self):
        with pytest.raises(IRParseError):
            parse_loop("loop x\n  fstore\nend")

    def test_comments_and_blanks_ignored(self):
        loop = parse_loop(
            """
            loop c
              # a comment
              fload f1, a[i]

              fstore f1, b[i]
            end
            """
        )
        assert len(loop.ops) == 2
