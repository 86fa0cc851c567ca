"""Schedule legality checking.

Independent re-verification of what the schedulers claim: every
dependence satisfied (modulo the II for kernels) and no issue resource
over-subscribed in any cycle/row.  The test suite and the end-to-end
pipeline both run these after every scheduling pass, so a scheduler bug
cannot silently leak into the paper-reproduction numbers.
"""

from __future__ import annotations

from repro.ddg.graph import DDG
from repro.machine.machine import MachineDescription
from repro.sched.resources import demand_words, resource_geometry
from repro.sched.schedule import KernelSchedule, LinearSchedule


class ScheduleValidationError(AssertionError):
    """A schedule violates a dependence or resource constraint."""


def _check_dependences(ddg: DDG, times: dict[int, int], ii: int, what: str) -> None:
    """Check every edge ``t_dst >= t_src + delay - ii * distance`` on the
    graph's int arrays; an offending edge is worded from its row."""
    idx = ddg.index()
    t = [times[oid] for oid in idx.op_ids]
    for k, (s, d, delay, dist) in enumerate(zip(idx.src, idx.dst, idx.delay, idx.dist)):
        if t[d] < t[s] + delay - ii * dist:
            _, _, kind, _, _, reg = ddg.rows[idx.edge_row[k]]
            tag = f"[{reg}]" if reg is not None else ""
            raise ScheduleValidationError(
                f"{what}: <dep {kind.value}{tag} op#{idx.op_ids[s]}->op#{idx.op_ids[d]} "
                f"delay={delay} dist={dist}> (t_src={t[s]}, t_dst={t[d]})"
            )


def _check_resources(
    machine: MachineDescription, ops, times: dict[int, int], ii: int, where: str
) -> None:
    """Charge each op's demand word (which validates its cluster) to its
    row in op order — kernel row ``t % ii``, or cycle ``t`` when ``ii`` is
    0 — and fail on the first overflowing pool.  Last, every op of a
    clustered machine must carry a cluster."""
    geom = resource_geometry(machine)
    bias, guard = geom.bias, geom.guard
    words = demand_words(ops, machine)
    rows = ([times[op.op_id] % ii for op in ops] if ii
            else [times[op.op_id] for op in ops])
    occ = [0] * (ii or max(rows, default=-1) + 1)
    for op, row, word in zip(ops, rows, words):
        if (occ[row] + word + bias) & guard:
            raise ScheduleValidationError(
                f"resource over-subscription {where} {row}: {op!r}"
            )
        occ[row] += word
    if machine.is_clustered:
        for op in ops:
            if op.cluster is None:
                raise ScheduleValidationError(
                    f"operation without cluster on clustered machine: {op!r}"
                )


def validate_kernel_schedule(schedule: KernelSchedule, ddg: DDG) -> None:
    """Raise :class:`ScheduleValidationError` unless ``schedule`` is legal:
    dependences first, then resources per kernel row and clusters."""
    ii = schedule.ii
    _check_dependences(ddg, schedule.times, ii, f"dependence violated at II={ii}")
    _check_resources(schedule.machine, schedule.loop.ops, schedule.times, ii,
                     "in kernel row")


def validate_linear_schedule(schedule: LinearSchedule, ddg: DDG) -> None:
    """Acyclic-schedule counterpart of :func:`validate_kernel_schedule`:
    the same checks at II 0, on a graph without carried edges, with one
    occupancy row per cycle."""
    if any(ddg.index().dist):
        raise ScheduleValidationError("linear schedule given a cyclic DDG")
    _check_dependences(ddg, schedule.times, 0, "dependence violated")
    _check_resources(schedule.machine, schedule.ops, schedule.times, 0, "at cycle")
