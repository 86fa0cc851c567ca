"""Deterministic value seeding and opcode semantics shared by both
simulators.

Seeds are pure functions of names/indices (CRC-based) so that reference
and pipelined runs observe identical external state.  Spill slots
(``__spill_<reg>``) seed to the same value as the register they shadow,
making spilled code equivalent to the original even when an accumulator's
first read predates its first write.
"""

from __future__ import annotations

import zlib

from repro.ir.operations import Opcode, Operation
from repro.ir.registers import SymbolicRegister
from repro.ir.types import DataType

SPILL_PREFIX = "__spill_"


def _crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


def seed_register(reg: SymbolicRegister) -> float | int:
    """Deterministic initial value of a register (used for live-ins and
    for reads of iteration -1 instances)."""
    h = _crc(f"reg:{reg.name}")
    if reg.dtype is DataType.FLOAT:
        return 1.0 + (h % 997) / 997.0
    return 1 + h % 7


def _seed_register_name(name: str, is_float: bool) -> float | int:
    h = _crc(f"reg:{name}")
    if is_float:
        return 1.0 + (h % 997) / 997.0
    return 1 + h % 7


def seed_memory(array: str, index: int, as_float: bool) -> float | int:
    """Deterministic initial value of one memory cell."""
    if array.startswith(SPILL_PREFIX):
        # a spill slot's "initial" content stands in for the register it
        # shadows; seed identically so first-iteration reloads match
        return _seed_register_name(array[len(SPILL_PREFIX):], as_float)
    h = _crc(f"mem:{array}:{index}")
    if as_float:
        return 1.0 + (h % 991) / 991.0
    return 1 + h % 7


def evaluate(op: Operation, srcs: list[float | int]) -> float | int | None:
    """Pure computation of one (non-memory) operation; memory traffic is
    handled by the simulators themselves.  Returns the defined value, or
    ``None`` for operations without a register result."""
    oc = op.opcode
    if oc in (Opcode.LOAD, Opcode.FLOAD, Opcode.STORE, Opcode.FSTORE):
        raise ValueError("memory operations are evaluated by the simulator")
    if oc is Opcode.ADD:
        return int(srcs[0]) + int(srcs[1])
    if oc is Opcode.SUB:
        return int(srcs[0]) - int(srcs[1])
    if oc is Opcode.MUL:
        return int(srcs[0]) * int(srcs[1])
    if oc is Opcode.DIV:
        d = int(srcs[1])
        return int(srcs[0]) // d if d != 0 else 0
    if oc is Opcode.AND:
        return int(srcs[0]) & int(srcs[1])
    if oc is Opcode.OR:
        return int(srcs[0]) | int(srcs[1])
    if oc is Opcode.XOR:
        return int(srcs[0]) ^ int(srcs[1])
    if oc is Opcode.SHL:
        return int(srcs[0]) << (int(srcs[1]) & 31)
    if oc is Opcode.SHR:
        return int(srcs[0]) >> (int(srcs[1]) & 31)
    if oc is Opcode.CMP:
        return 1 if int(srcs[0]) > int(srcs[1]) else 0
    if oc is Opcode.SELECT:
        return srcs[1] if srcs[0] else srcs[2]
    if oc is Opcode.MOVI:
        return int(srcs[0])
    if oc is Opcode.FADD:
        return float(srcs[0]) + float(srcs[1])
    if oc is Opcode.FSUB:
        return float(srcs[0]) - float(srcs[1])
    if oc is Opcode.FMUL:
        return float(srcs[0]) * float(srcs[1])
    if oc is Opcode.FDIV:
        d = float(srcs[1])
        return float(srcs[0]) / d if d != 0.0 else 0.0
    if oc is Opcode.FNEG:
        return -float(srcs[0])
    if oc is Opcode.FMOV:
        return float(srcs[0])
    if oc is Opcode.CVTIF:
        return float(int(srcs[0]))
    if oc is Opcode.CVTFI:
        return int(float(srcs[0]))
    if oc in (Opcode.COPY, Opcode.FCOPY):
        return srcs[0]
    raise NotImplementedError(f"no semantics for {oc}")  # pragma: no cover
