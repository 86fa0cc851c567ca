"""Symbolic (virtual) registers.

The paper's flow begins with "intermediate code with symbolic registers,
assuming a single infinite register bank" (Section 4, step 1).  A
:class:`SymbolicRegister` is one node of the eventual register component
graph; physical register numbers only appear at the very end of the
pipeline, after Chaitin/Briggs coloring within each bank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.ir.types import DataType

#: Register ids are globally unique across factories: partitions, RCGs and
#: interference graphs key on ``rid``, and passes like copy insertion mint
#: new registers into cloned loops whose factory differs from the original.
_GLOBAL_RID = itertools.count(1)


def advance_rids_past(rid: int) -> None:
    """Make every register minted from now on get an id above ``rid``."""
    global _GLOBAL_RID
    _GLOBAL_RID = itertools.count(max(next(_GLOBAL_RID), rid + 1))


@dataclass(frozen=True, slots=True)
class SymbolicRegister:
    """A virtual register with an identity, a name and a data type.

    Identity is the ``rid`` integer; names exist for readable dumps and for
    the textual parser.  Registers are immutable and hashable so they can
    key RCG nodes, liveness sets and interference-graph vertices directly.
    """

    rid: int
    name: str
    dtype: DataType = DataType.INT

    def __str__(self) -> str:
        return self.name

    @property
    def is_float(self) -> bool:
        return self.dtype.is_float


@dataclass
class RegisterFactory:
    """Allocates fresh :class:`SymbolicRegister` objects with unique ids.

    One factory is attached to each loop/function under construction; the
    copy-insertion pass (:mod:`repro.core.copies`) and the spiller
    (:mod:`repro.regalloc.spill`) both mint new temporaries through the
    same factory so ids stay unique across compilation phases.
    """

    _by_name: dict[str, SymbolicRegister] = field(default_factory=dict)

    def new(self, dtype: DataType = DataType.INT, name: str | None = None) -> SymbolicRegister:
        """Return a fresh register; auto-names ``r<N>``/``f<N>`` if unnamed."""
        rid = next(_GLOBAL_RID)
        if name is None:
            name = f"{dtype.short}{rid}"
        if name in self._by_name:
            raise ValueError(f"register name already in use: {name!r}")
        reg = SymbolicRegister(rid=rid, name=name, dtype=dtype)
        self._by_name[name] = reg
        return reg

    def named(self, name: str, dtype: DataType = DataType.INT) -> SymbolicRegister:
        """Return the register called ``name``, creating it on first use.

        The parser and the workload builders use this to refer to registers
        by their textual names; the dtype of an existing register must
        match on every lookup.
        """
        reg = self._by_name.get(name)
        if reg is not None:
            if reg.dtype is not dtype:
                raise ValueError(
                    f"register {name!r} requested as {dtype.value} but exists as {reg.dtype.value}"
                )
            return reg
        return self.new(dtype=dtype, name=name)

    def get(self, name: str) -> SymbolicRegister | None:
        """Look up an existing register by name (``None`` if absent)."""
        return self._by_name.get(name)

    def __len__(self) -> int:
        return len(self._by_name)

    def all_registers(self) -> list[SymbolicRegister]:
        """All registers minted so far, in creation order."""
        return sorted(self._by_name.values(), key=lambda r: r.rid)
