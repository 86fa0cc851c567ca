"""DDG analyses: II lower bounds, criticality, slack.

``MinII = max(ResII, RecII)`` (Section 2).  ``ResII`` counts issue-slot
demand against the machine's per-cycle resources; ``RecII`` is the
recurrence bound ``max over cycles C of ceil(delay(C) / distance(C))``,
computed here by a monotone feasibility search: II is feasible w.r.t.
recurrences iff the edge-weighting ``delay - II * distance`` admits no
positive-weight cycle.

Recurrence analysis is SCC-condensed: every dependence cycle lives inside
one strongly connected component, so the Bellman-Ford feasibility probes
only ever relax the edges *internal* to cyclic SCCs (acyclic graphs
short-circuit to II = 1, accumulator self-loops resolve arithmetically
with no relaxation at all).  The condensation and the int edge arrays are
the graph's :class:`~repro.ddg.graph.AnalysisIndex`, built once per graph
state from the edge rows (or, for a derived partitioned DDG, with the SCC
membership carried over from its source), so every binary-search probe,
II candidate and repeated metric query reuses them.  RecII (once found) and
ResII (per machine shape) are memoised on the index.  The
pre-condensation implementations are the golden-equivalence oracles in
``tests/golden.py``.

The module also provides the *Flexibility* quantity of Section 5 — the
slack between an operation's earliest and latest position inside a given
ideal schedule — height-based priorities for the schedulers, and the
per-op source distances the simulator and the assembly renderer read.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping

from repro.ddg.graph import DDG, SCC
from repro.ir.operations import Operation
from repro.machine.machine import CopyModel, MachineDescription

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.latency import LatencyTable


# ----------------------------------------------------------------------
# Resource bound
# ----------------------------------------------------------------------
def resource_ii(
    ddg: DDG, machine: MachineDescription, words: list[int] | None = None
) -> int:
    """Minimum II imposed by issue resources.

    For the monolithic machine (and for clustered machines before
    operations are pinned) every operation competes for the machine's
    ``width`` slots.  Once operations carry cluster assignments, demand is
    counted per cluster, and copies are charged to FU slots (embedded
    model) or to copy ports and buses (copy-unit model): a count of the
    body's demand words (:func:`repro.sched.resources.demand_words`,
    which validates every cluster; a caller that has them passes
    ``words``).
    """
    if len(ddg) == 0:
        return 1

    # The modulo scheduler and the metrics pass both ask for ResII of the
    # same (graph, machine) pair several times per compilation; memoize on
    # the graph's analysis index, keyed by the machine's resource shape
    # (ops' cluster fields never change under a DDG on any path through
    # the pipeline — rewrites clone operations, and the clones get a new
    # DDG, derived or built).
    machine_key = (
        machine.n_clusters,
        machine.fus_per_cluster,
        machine.copy_model,
        machine.copy_ports_per_cluster,
        machine.n_buses,
    )
    memo = ddg.index().res_ii
    hit = memo.get(machine_key)
    if hit is not None:
        return hit

    if not machine.is_clustered or all(op.cluster is None for op in ddg.ops):
        result = max(1, math.ceil(len(ddg.ops) / machine.width))
        memo[machine_key] = result
        return result

    from repro.sched.resources import resource_geometry  # sched imports ddg

    geom = resource_geometry(machine)
    if words is None:
        words = geom.demand_words(ddg.ops, machine)
    fu_demand, copy_port_demand = geom.pool_demand(words)
    bounds = [math.ceil(d / machine.fus_per_cluster) for d in fu_demand]
    if machine.copy_model is CopyModel.COPY_UNIT:
        bounds.extend(
            math.ceil(d / machine.copy_ports_per_cluster) for d in copy_port_demand
        )
        if machine.n_buses:
            bounds.append(math.ceil(sum(copy_port_demand) / machine.n_buses))
    result = max(1, *bounds)
    memo[machine_key] = result
    return result


# ----------------------------------------------------------------------
# Recurrence bound
# ----------------------------------------------------------------------
def _scc_has_positive_cycle(scc: SCC, ii: int) -> bool:
    """Bellman-Ford restricted to one cyclic SCC's internal edges."""
    n = len(scc.nodes)
    esrc, edst = scc.esrc, scc.edst
    ew = [scc.edelay[k] - ii * scc.edist[k] for k in range(len(esrc))]
    dist = [0] * n
    for _ in range(n):
        changed = False
        for k, w in enumerate(ew):
            cand = dist[esrc[k]] + w
            if cand > dist[edst[k]]:
                dist[edst[k]] = cand
                changed = True
        if not changed:
            return False
    return True


def _scc_recurrence_ii(scc: SCC) -> int:
    """Smallest feasible II for the cycles of one SCC."""
    if scc.zero_distance_cycle:
        raise ValueError("DDG has a positive cycle at maximal II; zero-distance cycle?")
    if scc.trivial:
        return scc.self_lo  # pure accumulator: no relaxation needed
    lo = scc.self_lo
    hi = max(1, scc.delay_sum)
    if _scc_has_positive_cycle(scc, hi):
        raise ValueError("DDG has a positive cycle at maximal II; zero-distance cycle?")
    while lo < hi:
        mid = (lo + hi) // 2
        if _scc_has_positive_cycle(scc, mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def recurrence_ii(ddg: DDG) -> int:
    """Smallest integer II satisfying every dependence recurrence.

    Returns 1 for recurrence-free graphs.  Every cycle is internal to one
    SCC, so the answer is the max of the per-SCC feasibility searches —
    each bounded by that SCC's delay sum rather than the whole graph's.
    """
    if len(ddg) == 0 or ddg.n_edges == 0:
        return 1
    idx = ddg.index()
    if idx.rec_ii is None:  # memoise successes only: a bad cycle re-raises
        idx.rec_ii = max(map(_scc_recurrence_ii, idx.cyclic_sccs), default=1)
    return idx.rec_ii


def _scc_has_positive_cycle_real(scc: SCC, ii: float) -> bool:
    n = len(scc.nodes)
    esrc, edst = scc.esrc, scc.edst
    ew = [scc.edelay[k] - ii * scc.edist[k] for k in range(len(esrc))]
    dist = [0.0] * n
    eps = 1e-9
    for _ in range(n):
        changed = False
        for k, w in enumerate(ew):
            cand = dist[esrc[k]] + w
            if cand > dist[edst[k]] + eps:
                dist[edst[k]] = cand
                changed = True
        if not changed:
            return False
    return True


def critical_cycle_ratio(ddg: DDG, tolerance: float = 1e-6) -> float:
    """The maximum cycle ratio ``delay(C)/distance(C)`` as a real number
    (``0.0`` for acyclic graphs).  ``recurrence_ii`` is its ceiling; the
    real-valued version is reported by the evaluation harness to show how
    tight recurrence constraints are.  Bisected per cyclic SCC; the
    result is within ``tolerance`` above the true maximum ratio."""
    if len(ddg) == 0 or ddg.n_edges == 0:
        return 0.0
    best = 0.0
    for scc in ddg.index().cyclic_sccs:
        if not _scc_has_positive_cycle_real(scc, 0.0):
            continue
        lo, hi = 0.0, float(max(1, scc.delay_sum))
        while hi - lo > tolerance:
            mid = (lo + hi) / 2.0
            if _scc_has_positive_cycle_real(scc, mid):
                lo = mid
            else:
                hi = mid
        best = max(best, hi)
    return best


def min_ii(ddg: DDG, machine: MachineDescription) -> int:
    """``MinII = max(ResII, RecII)``."""
    return max(resource_ii(ddg, machine), recurrence_ii(ddg))


def critical_cycle(ddg: DDG) -> list[Operation]:
    """Operations on a recurrence cycle achieving RecII (empty if none).

    Found by hunting a positive-weight cycle at ``RecII - 1`` with parent
    tracking: any cycle still positive one notch below the feasible II is
    (one of) the binding recurrence(s).  Used by the diagnosis tooling to
    explain *why* a partitioned loop degraded — e.g. an inter-cluster
    copy inserted on exactly these operations.

    Runs the same whole-graph relaxation (same edge order, same parent
    updates) as the original implementation, but on the cached int-indexed
    edge arrays, so the reported cycle is unchanged.
    """
    rec = recurrence_ii(ddg)
    if rec <= 1:
        return []
    idx = ddg.index()
    ii = rec - 1
    n = idx.n
    src, dst = idx.src, idx.dst
    ew = [idx.delay[k] - ii * idx.dist[k] for k in range(idx.m)]
    dist = [0] * n
    parent: dict[int, int] = {}
    last_updated: int | None = None
    for _ in range(n):
        last_updated = None
        for k, w in enumerate(ew):
            u, v = src[k], dst[k]
            if dist[u] + w > dist[v]:
                dist[v] = dist[u] + w
                parent[v] = u
                last_updated = v
        if last_updated is None:
            break
    if last_updated is None:  # pragma: no cover - rec > 1 guarantees a cycle
        return []
    # walk back n steps to land inside the cycle, then peel it off
    node = last_updated
    for _ in range(n):
        node = parent[node]
    cycle_nodes = [node]
    cur = parent[node]
    while cur != node:
        cycle_nodes.append(cur)
        cur = parent[cur]
    cycle_nodes.reverse()
    return [ddg.ops[v] for v in cycle_nodes]


# ----------------------------------------------------------------------
# Heights and slack
# ----------------------------------------------------------------------
def longest_path_heights(ddg: DDG, ii: int = 0) -> list[int]:
    """Height-based scheduling priority (Rau's HeightR), one per op
    position (``ddg.ops`` order).

    ``height(op) = max(0, max over successors (height(succ) + delay
    - ii * distance))``; with ``ii`` at least RecII there are no positive
    cycles, so the least fixpoint exists and is unique.  Computed by
    sweeping nodes in reverse topological order of the distance-0 DAG:
    one sweep finalizes every same-iteration chain, and only loop-carried
    edges still positive at this II force bounded fixup sweeps (at most
    |V| + 1, after which a positive cycle is reported).  A malformed body
    with a distance-0 cycle has no such order and is swept in op order,
    to the same fixpoint within the same bound.  With ``ii = 0`` and
    loop-carried edges present the fixpoint may not exist; callers pass
    the candidate II.
    """
    if len(ddg) == 0 or ddg.n_edges == 0:
        return [0] * len(ddg)
    idx = ddg.index()
    dst, out_edges = idx.dst, idx.out_edges
    ew = [idx.delay[k] - ii * idx.dist[k] for k in range(idx.m)]
    h = [0] * idx.n
    order = idx.rev_topo0 if idx.rev_topo0 is not None else range(idx.n)
    for _ in range(idx.n + 1):
        changed = False
        for u in order:
            hu = h[u]
            for k in out_edges[u]:
                cand = h[dst[k]] + ew[k]
                if cand > hu:
                    hu = cand
            if hu > h[u]:
                h[u] = hu
                changed = True
        if not changed:
            return h
    raise ValueError(f"heights diverge at ii={ii}: positive cycle present")


def estart_lstart(
    ddg: DDG,
    times: Mapping[int, int],
    length: int,
    latencies: "LatencyTable | None" = None,
) -> tuple[dict[int, int], dict[int, int]]:
    """Earliest/latest start of each op *within a given schedule*.

    ``times`` maps op_id to its scheduled issue cycle, ``length`` is the
    schedule length including trailing latency.  Only same-iteration
    (distance-0) edges constrain position inside one schedule instance,
    mirroring the paper's description of slack "without requiring a
    lengthening of the ideal schedule"; an op's own latency bounds how
    late it can issue without pushing the schedule end out.

    One pass over the analysis index's distance-0 edges: each raises its
    destination's earliest start and lowers its source's latest one, and
    both bounds are order-independent, so no edge object is needed.
    """
    idx = ddg.index()
    op_ids, src, dst, delay, dist = idx.op_ids, idx.src, idx.dst, idx.delay, idx.dist
    early = [0] * idx.n
    late = [
        length - (latencies.of(op) if latencies is not None else 1) for op in ddg.ops
    ]
    for k in range(idx.m):
        if dist[k] == 0:
            s, d, lat = src[k], dst[k], delay[k]
            e = times[op_ids[s]] + lat
            if e > early[d]:
                early[d] = e
            latest = times[op_ids[d]] - lat
            if latest < late[s]:
                late[s] = latest
    estart = dict(zip(op_ids, early))
    lstart = {oid: max(latest, e) for oid, latest, e in zip(op_ids, late, early)}
    return estart, lstart


def schedule_slack(
    ddg: DDG,
    times: Mapping[int, int],
    length: int,
    latencies: "LatencyTable | None" = None,
) -> dict[int, int]:
    """Per-operation slack = lstart - estart (>= 0); the paper's
    *Flexibility* is ``slack + 1`` ("we add 1 ... so that we avoid
    divide-by-zero errors")."""
    estart, lstart = estart_lstart(ddg, times, length, latencies)
    return {oid: lstart[oid] - estart[oid] for oid in estart}


def source_distances(ddg: DDG) -> dict[int, dict[int, int]]:
    """Per op id, the iteration distance at which the op reads each
    register (``rid -> distance``), from the register flow rows in index
    edge order: of several edges carrying one register into one op, the
    last one wins.  The simulator and the assembly renderer resolve a
    source to the producing iteration with it."""
    idx = ddg.index()
    rows, op_ids = ddg.rows, idx.op_ids
    distances: dict[int, dict[int, int]] = {oid: {} for oid in op_ids}
    for r in idx.edge_row:
        _, d, _, _, distance, reg = rows[r]
        if reg is not None:
            distances[op_ids[d]][reg.rid] = distance
    return distances
