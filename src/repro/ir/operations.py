"""Opcodes and three-address operations.

The operation vocabulary is the one the paper's examples and latency table
(Section 6.1) require: loads/stores, integer ALU/multiply/divide,
floating-point add/multiply/divide, inter-bank register copies and a few
conveniences (compare, select) used by the synthetic corpus.  Each opcode
maps to an :class:`OpClass` which is what the machine model's latency table
and the dependence builder key on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.ir.registers import SymbolicRegister
from repro.ir.types import DataType, Immediate, MemRef

Operand = Union[SymbolicRegister, Immediate]


class OpClass(enum.Enum):
    """Latency/resource classes from the paper's machine model (Section 6.1).

    ===============  =====================================================
    class            paper latency
    ===============  =====================================================
    ``LOAD``         2 cycles
    ``STORE``        4 cycles
    ``IALU``         1 cycle   ("other integer instructions")
    ``IMUL``         5 cycles
    ``IDIV``         12 cycles
    ``FALU``         2 cycles  ("other floating point instructions")
    ``FMUL``         2 cycles
    ``FDIV``         2 cycles
    ``COPY_INT``     2 cycles  (inter-cluster integer copy)
    ``COPY_FLOAT``   3 cycles  (inter-cluster floating-point copy)
    ===============  =====================================================
    """

    LOAD = "load"
    STORE = "store"
    IALU = "ialu"
    IMUL = "imul"
    IDIV = "idiv"
    FALU = "falu"
    FMUL = "fmul"
    FDIV = "fdiv"
    COPY_INT = "copy_int"
    COPY_FLOAT = "copy_float"


@dataclass(frozen=True, slots=True)
class OpcodeInfo:
    """Static metadata for one opcode."""

    opclass: OpClass
    n_sources: int
    has_dest: bool
    reads_mem: bool = False
    writes_mem: bool = False
    commutative: bool = False
    is_copy: bool = False
    result_dtype: DataType | None = None  # None => same as sources


class Opcode(enum.Enum):
    """Concrete operations the IR can express."""

    # memory
    LOAD = "load"
    STORE = "store"
    FLOAD = "fload"
    FSTORE = "fstore"
    # integer
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    CMP = "cmp"
    SELECT = "select"
    MOVI = "movi"  # load-immediate / int register move
    # floating point
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"
    FMOV = "fmov"
    CVTIF = "cvtif"  # int -> float convert
    CVTFI = "cvtfi"  # float -> int convert
    # inter-cluster copies (inserted by the partitioner, Section 4 step 4)
    COPY = "copy"
    FCOPY = "fcopy"

    @property
    def info(self) -> OpcodeInfo:
        return self._info

    @property
    def opclass(self) -> OpClass:
        return self._info.opclass


OPCODE_INFO: dict[Opcode, OpcodeInfo] = {
    Opcode.LOAD: OpcodeInfo(OpClass.LOAD, 0, True, reads_mem=True, result_dtype=DataType.INT),
    Opcode.FLOAD: OpcodeInfo(OpClass.LOAD, 0, True, reads_mem=True, result_dtype=DataType.FLOAT),
    Opcode.STORE: OpcodeInfo(OpClass.STORE, 1, False, writes_mem=True),
    Opcode.FSTORE: OpcodeInfo(OpClass.STORE, 1, False, writes_mem=True),
    Opcode.ADD: OpcodeInfo(OpClass.IALU, 2, True, commutative=True, result_dtype=DataType.INT),
    Opcode.SUB: OpcodeInfo(OpClass.IALU, 2, True, result_dtype=DataType.INT),
    Opcode.MUL: OpcodeInfo(OpClass.IMUL, 2, True, commutative=True, result_dtype=DataType.INT),
    Opcode.DIV: OpcodeInfo(OpClass.IDIV, 2, True, result_dtype=DataType.INT),
    Opcode.AND: OpcodeInfo(OpClass.IALU, 2, True, commutative=True, result_dtype=DataType.INT),
    Opcode.OR: OpcodeInfo(OpClass.IALU, 2, True, commutative=True, result_dtype=DataType.INT),
    Opcode.XOR: OpcodeInfo(OpClass.IALU, 2, True, commutative=True, result_dtype=DataType.INT),
    Opcode.SHL: OpcodeInfo(OpClass.IALU, 2, True, result_dtype=DataType.INT),
    Opcode.SHR: OpcodeInfo(OpClass.IALU, 2, True, result_dtype=DataType.INT),
    Opcode.CMP: OpcodeInfo(OpClass.IALU, 2, True, result_dtype=DataType.INT),
    Opcode.SELECT: OpcodeInfo(OpClass.IALU, 3, True),
    Opcode.MOVI: OpcodeInfo(OpClass.IALU, 1, True, result_dtype=DataType.INT),
    Opcode.FADD: OpcodeInfo(OpClass.FALU, 2, True, commutative=True, result_dtype=DataType.FLOAT),
    Opcode.FSUB: OpcodeInfo(OpClass.FALU, 2, True, result_dtype=DataType.FLOAT),
    Opcode.FMUL: OpcodeInfo(OpClass.FMUL, 2, True, commutative=True, result_dtype=DataType.FLOAT),
    Opcode.FDIV: OpcodeInfo(OpClass.FDIV, 2, True, result_dtype=DataType.FLOAT),
    Opcode.FNEG: OpcodeInfo(OpClass.FALU, 1, True, result_dtype=DataType.FLOAT),
    Opcode.FMOV: OpcodeInfo(OpClass.FALU, 1, True, result_dtype=DataType.FLOAT),
    Opcode.CVTIF: OpcodeInfo(OpClass.FALU, 1, True, result_dtype=DataType.FLOAT),
    Opcode.CVTFI: OpcodeInfo(OpClass.FALU, 1, True, result_dtype=DataType.INT),
    Opcode.COPY: OpcodeInfo(
        OpClass.COPY_INT, 1, True, is_copy=True, result_dtype=DataType.INT
    ),
    Opcode.FCOPY: OpcodeInfo(
        OpClass.COPY_FLOAT, 1, True, is_copy=True, result_dtype=DataType.FLOAT
    ),
}


# Stash each opcode's info on the enum member itself: scheduling inner
# loops hit ``op.opcode.info`` millions of times, and attribute access
# skips Enum.__hash__ (a Python-level call) on every lookup.
for _opcode, _opcode_info in OPCODE_INFO.items():
    _opcode._info = _opcode_info
del _opcode, _opcode_info


_next_op_id = 0


def _fresh_op_id() -> int:
    global _next_op_id
    _next_op_id += 1
    return _next_op_id


def advance_op_ids_past(op_id: int) -> None:
    """Make every operation created from now on get an id above ``op_id``."""
    global _next_op_id
    _next_op_id = max(_next_op_id, op_id)


@dataclass(slots=True, eq=False)
class Operation:
    """One three-address operation.

    ``dest`` is the defined register (``None`` for stores), ``sources`` the
    used operands (registers and immediates), ``mem`` the symbolic memory
    reference for loads/stores.  Identity (``op_id``) is what the DDG,
    schedules and reservation tables key on; two operations are never
    equal unless they are the same object.

    ``cluster`` is filled in by the partitioning pass (Section 4, step 4):
    once registers are placed in banks, each operation is pinned to the
    cluster that owns its destination's bank.  It stays ``None`` for the
    monolithic ("ideal") machine.
    """

    opcode: Opcode
    dest: SymbolicRegister | None = None
    sources: tuple[Operand, ...] = ()
    mem: MemRef | None = None
    op_id: int = field(default_factory=_fresh_op_id)
    cluster: int | None = None

    def __post_init__(self) -> None:
        info = self.opcode._info
        if info.has_dest and self.dest is None:
            raise ValueError(f"{self.opcode.value} requires a destination register")
        if not info.has_dest and self.dest is not None:
            raise ValueError(f"{self.opcode.value} cannot define a register")
        if (info.reads_mem or info.writes_mem) and self.mem is None:
            raise ValueError(f"{self.opcode.value} requires a memory reference")
        if not (info.reads_mem or info.writes_mem) and self.mem is not None:
            raise ValueError(f"{self.opcode.value} must not carry a memory reference")

    # ------------------------------------------------------------------
    # structural accessors used everywhere downstream
    # ------------------------------------------------------------------
    @property
    def opclass(self) -> OpClass:
        return self.opcode._info.opclass

    @property
    def is_copy(self) -> bool:
        return self.opcode._info.is_copy

    @property
    def reads_mem(self) -> bool:
        return self.opcode._info.reads_mem

    @property
    def writes_mem(self) -> bool:
        return self.opcode._info.writes_mem

    def defined(self) -> tuple[SymbolicRegister, ...]:
        """The *Defined* set from Section 5: registers this op writes."""
        return (self.dest,) if self.dest is not None else ()

    def used(self) -> tuple[SymbolicRegister, ...]:
        """The *Used* set from Section 5: registers this op reads."""
        return tuple([s for s in self.sources if isinstance(s, SymbolicRegister)])

    def registers(self) -> Iterator[SymbolicRegister]:
        """Every register mentioned by this operation (defs then uses)."""
        yield from self.defined()
        yield from self.used()

    def clone(self) -> "Operation":
        """A structural copy with a fresh ``op_id``."""
        return self.pinned_clone(self.cluster)

    def pinned_clone(self, cluster: int | None) -> "Operation":
        """A structural copy with a fresh ``op_id``, pinned to ``cluster``.

        The fields of a validated operation stay valid, so the copy is
        filled in directly instead of through ``__init__`` and
        ``__post_init__``.
        """
        clone = _new_operation(Operation)
        clone.opcode = self.opcode
        clone.dest = self.dest
        clone.sources = self.sources
        clone.mem = self.mem
        clone.op_id = _fresh_op_id()
        clone.cluster = cluster
        return clone

    def __hash__(self) -> int:
        return hash(self.op_id)

    def __repr__(self) -> str:
        from repro.ir.printer import format_operation

        return f"<op#{self.op_id} {format_operation(self)}>"


_new_operation = object.__new__


def make_copy(dest: SymbolicRegister, src: SymbolicRegister, cluster: int | None = None) -> Operation:
    """Build an inter-cluster copy moving ``src`` into ``dest``.

    The opcode (and hence the 2- vs 3-cycle latency) follows the value's
    data type, as in Section 6.1 of the paper.  A copy with a typed
    ``dest`` passes every ``__post_init__`` check, so it is filled in
    directly, like :meth:`Operation.pinned_clone`.
    """
    if dest.dtype is not src.dtype:
        raise ValueError(f"copy across types: {src} -> {dest}")
    cp = _new_operation(Operation)
    cp.opcode = Opcode.FCOPY if src.dtype.is_float else Opcode.COPY
    cp.dest = dest
    cp.sources = (src,)
    cp.mem = None
    cp.op_id = _fresh_op_id()
    cp.cluster = cluster
    return cp
