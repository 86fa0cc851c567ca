"""Intermediate representation for the reproduction compiler.

The paper's code-generation framework (Section 4) starts from "intermediate
code with symbolic registers, assuming a single infinite register bank".
This package provides that substrate:

* :mod:`repro.ir.types` -- data types and immediates,
* :mod:`repro.ir.registers` -- symbolic (virtual) registers and factories,
* :mod:`repro.ir.operations` -- opcodes and three-address operations,
* :mod:`repro.ir.block` -- basic blocks and innermost loops,
* :mod:`repro.ir.function` -- functions / control-flow graphs,
* :mod:`repro.ir.builder` -- a fluent builder used by workloads and tests,
* :mod:`repro.ir.printer` -- a stable textual dump,
* :mod:`repro.ir.parser` -- a parser for the textual form,
* :mod:`repro.ir.verify` -- a structural verifier.

Everything downstream (DDG construction, modulo scheduling, RCG
partitioning, register allocation, simulation) consumes these objects.
"""

from repro.ir.types import DataType, Immediate, MemRef
from repro.ir.registers import SymbolicRegister, RegisterFactory
from repro.ir.operations import Opcode, OpClass, Operation, OPCODE_INFO
from repro.ir.block import BasicBlock, Loop, reserve_ids
from repro.ir.function import Function
from repro.ir.builder import LoopBuilder
from repro.ir.printer import format_operation, format_loop
from repro.ir.parser import parse_loop
from repro.ir.verify import verify_loop, IRVerificationError

__all__ = [
    "DataType",
    "Immediate",
    "MemRef",
    "SymbolicRegister",
    "RegisterFactory",
    "Opcode",
    "OpClass",
    "Operation",
    "OPCODE_INFO",
    "BasicBlock",
    "Loop",
    "reserve_ids",
    "Function",
    "LoopBuilder",
    "format_operation",
    "format_loop",
    "parse_loop",
    "verify_loop",
    "IRVerificationError",
]
