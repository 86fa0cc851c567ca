"""Mixed functions: software-pipelined loops and straight-line code
partitioned together (Section 6.3).

:class:`MixedFunction` bundles a function's blocks with its innermost
loops; :func:`compile_mixed` hands both to the one function-level driver,
:func:`repro.core.wholefn.compile_function`, whose result reports the
loop degradation (kernel II growth), the block degradation and one
weighted whole-function figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.weights import DEFAULT_HEURISTIC, HeuristicConfig
from repro.core.wholefn import FunctionCompilation, compile_function
from repro.ir.block import Loop
from repro.ir.function import Function
from repro.machine.machine import MachineDescription


@dataclass
class MixedFunction:
    """A function with straight-line blocks plus innermost loops."""

    name: str
    function: Function
    loops: list[Loop] = field(default_factory=list)

    def registers(self):
        regs = self.function.registers()
        for loop in self.loops:
            regs |= loop.registers()
        return regs


def compile_mixed(
    mixed: MixedFunction,
    machine: MachineDescription,
    config: HeuristicConfig = DEFAULT_HEURISTIC,
) -> FunctionCompilation:
    """Compile blocks and loops under one function-wide partition."""
    return compile_function(mixed.function, machine, config, loops=mixed.loops)
