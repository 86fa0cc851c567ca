"""Instruction scheduling: acyclic list scheduling and iterative modulo
scheduling (Rau), over monolithic and clustered machines.

The paper's flow schedules each loop twice: once on the monolithic
"ideal" machine to obtain the ideal schedule the RCG weights are drawn
from (Section 4, step 2), and once after partitioning with operations
pinned to clusters and copies inserted (step 4).  Every scheduler — IMS,
Swing and the list scheduler — reads dependences off the DDG's analysis
index and resources as the packed demand words of
:mod:`repro.sched.resources`, and the legality checker in
:mod:`repro.sched.validate` does the same.
"""

from repro.sched.schedule import LinearSchedule, KernelSchedule
from repro.sched.list_scheduler import list_schedule
from repro.sched.modulo.scheduler import modulo_schedule, SchedulingError, ModuloScheduler
from repro.sched.modulo.swing import swing_modulo_schedule
from repro.sched.modulo.kernel import expand_pipeline, PipelineExpansion
from repro.sched.validate import validate_kernel_schedule, validate_linear_schedule

__all__ = [
    "LinearSchedule",
    "KernelSchedule",
    "list_schedule",
    "modulo_schedule",
    "swing_modulo_schedule",
    "ModuloScheduler",
    "SchedulingError",
    "expand_pipeline",
    "PipelineExpansion",
    "validate_kernel_schedule",
    "validate_linear_schedule",
]
