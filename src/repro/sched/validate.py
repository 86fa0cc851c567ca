"""Schedule legality checking.

Independent re-verification of what the schedulers claim: every
dependence satisfied (modulo the II for kernels) and no issue resource
over-subscribed in any cycle/row.  The test suite and the end-to-end
pipeline both run these after every scheduling pass, so a scheduler bug
cannot silently leak into the paper-reproduction numbers.
"""

from __future__ import annotations

from repro.ddg.graph import DDG
from repro.sched.resources import ReservationTable, demand_words, resource_geometry
from repro.sched.schedule import KernelSchedule, LinearSchedule


class ScheduleValidationError(AssertionError):
    """A schedule violates a dependence or resource constraint."""


def _check_dependences(ddg: DDG, times: dict[int, int], ii: int, what: str) -> None:
    """Check every edge ``t_dst >= t_src + delay - ii * distance`` on the
    graph's int arrays; only an offending edge is turned into a
    :class:`~repro.ddg.dependence.Dependence`, to word the error."""
    idx = ddg.index()
    t = [times[oid] for oid in idx.op_ids]
    for k, (s, d, delay, dist) in enumerate(zip(idx.src, idx.dst, idx.delay, idx.dist)):
        if t[d] < t[s] + delay - ii * dist:
            raise ScheduleValidationError(
                f"{what}: {ddg.dependence(idx.edge_row[k])!r} (t_src={t[s]}, t_dst={t[d]})"
            )


def validate_kernel_schedule(schedule: KernelSchedule, ddg: DDG) -> None:
    """Raise :class:`ScheduleValidationError` unless ``schedule`` is legal.

    Dependences are checked first, then resources in op order: each op's
    demand word (which validates its cluster) is added to its kernel
    row's occupancy word, and an overflowing pool fails the check.  Last,
    every op of a clustered machine must carry a cluster.
    """
    ii = schedule.ii
    times = schedule.times
    _check_dependences(ddg, times, ii, f"dependence violated at II={ii}")
    machine = schedule.machine
    ops = schedule.loop.ops
    geom = resource_geometry(machine)
    bias, guard = geom.bias, geom.guard
    occ = [0] * ii
    for op, word in zip(ops, demand_words(ops, machine)):
        t = times[op.op_id]
        row = t % ii
        if (occ[row] + word + bias) & guard:
            raise ScheduleValidationError(
                f"resource over-subscription in kernel row {row}: {op!r}"
            )
        occ[row] += word
    if machine.is_clustered:
        for op in ops:
            if op.cluster is None:
                raise ScheduleValidationError(
                    f"operation without cluster on clustered machine: {op!r}"
                )


def validate_linear_schedule(schedule: LinearSchedule, ddg: DDG) -> None:
    """Acyclic-schedule counterpart of :func:`validate_kernel_schedule`:
    the same dependence check at II 0, on a graph without carried edges."""
    if any(ddg.index().dist):
        raise ScheduleValidationError("linear schedule given a cyclic DDG")
    _check_dependences(ddg, schedule.times, 0, "dependence violated")
    table = ReservationTable(schedule.machine)
    for op in schedule.ops:
        t = schedule.times[op.op_id]
        if not table.fits(op, t):
            raise ScheduleValidationError(
                f"resource over-subscription at cycle {t}: {op!r}"
            )
        table.place(op, t)
