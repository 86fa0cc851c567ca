"""Operation latencies.

The paper's table (Section 6.1) used by both machine models:

* integer copies: 2 cycles; floating copies: 3 cycles
* loads: 2; stores: 4
* integer multiply: 5; integer divide: 12; other integer: 1
* fp multiply: 2; fp divide: 2; other fp: 2
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.ir.operations import OPCODE_INFO, OpClass, Operation
from repro.ir.types import DataType


_PAPER_TABLE: Mapping[OpClass, int] = MappingProxyType(
    {
        OpClass.LOAD: 2,
        OpClass.STORE: 4,
        OpClass.IALU: 1,
        OpClass.IMUL: 5,
        OpClass.IDIV: 12,
        OpClass.FALU: 2,
        OpClass.FMUL: 2,
        OpClass.FDIV: 2,
        OpClass.COPY_INT: 2,
        OpClass.COPY_FLOAT: 3,
    }
)


@dataclass(frozen=True)
class LatencyTable:
    """Maps :class:`~repro.ir.operations.OpClass` to result latency.

    Latency is the number of cycles between issuing an operation and its
    result being readable; a latency-1 op's result is available to the
    next instruction.  All functional units are fully pipelined (a new
    operation can issue on a unit every cycle), which matches the paper's
    resource model: the only per-op resource is the issue slot.
    """

    table: Mapping[OpClass, int]
    name: str = "custom"
    #: memo owned by :func:`repro.core.fingerprint.latency_fingerprint`
    _fingerprint: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        missing = set(OpClass) - set(self.table)
        if missing:
            raise ValueError(f"latency table {self.name!r} missing classes: {sorted(c.value for c in missing)}")
        for cls, lat in self.table.items():
            if lat < 1:
                raise ValueError(f"latency for {cls.value} must be >= 1, got {lat}")
        # ``of`` sits on the DDG-build and scheduling hot paths; a
        # string-keyed mirror (opcode value -> latency) turns each lookup
        # into one C-level dict probe instead of two Enum.__hash__ calls.
        object.__setattr__(
            self,
            "_by_opcode",
            {opc.value: self.table[info.opclass] for opc, info in OPCODE_INFO.items()},
        )

    def of_class(self, opclass: OpClass) -> int:
        return self.table[opclass]

    def of(self, op: Operation) -> int:
        # ``_value_`` is the member's plain attribute; ``.value`` goes
        # through a Python-level enum descriptor
        return self._by_opcode[op.opcode._value_]

    def copy_latencies(self) -> dict[DataType, int]:
        """The latency of a copy of a value of each data type: what an
        operand read from another cluster adds."""
        return {DataType.INT: self.table[OpClass.COPY_INT],
                DataType.FLOAT: self.table[OpClass.COPY_FLOAT]}

    def replaced(self, **overrides: int) -> "LatencyTable":
        """A copy with classes (named by their ``value``) overridden."""
        new = dict(self.table)
        by_value = {c.value: c for c in OpClass}
        for key, lat in overrides.items():
            if key not in by_value:
                raise KeyError(f"unknown op class {key!r}")
            new[by_value[key]] = lat
        return LatencyTable(MappingProxyType(new), name=f"{self.name}+overrides")


PAPER_LATENCIES = LatencyTable(_PAPER_TABLE, name="ipps2000")
"""The exact latency assignment from Section 6.1."""


def unit_latencies() -> LatencyTable:
    """All-ones latency table, used by the paper's Section 4.2 example
    ("For simplicity we assume unit latency for all operations")."""
    return LatencyTable(
        MappingProxyType({cls: 1 for cls in OpClass}), name="unit"
    )
