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
with no relaxation at all).  The condensation — along with int-indexed
edge arrays — is built once per DDG state and cached on the graph, keyed
by its mutation counter, so all binary-search probes, II candidates and
repeated metric queries reuse it.  The pre-condensation implementations
are the golden-equivalence oracles in ``tests/golden.py``, except
``_reference_longest_path_heights``, which stays here as the fallback for
distance-0-cyclic graphs.

A partitioned DDG derived from its source DDG
(:func:`repro.ddg.builder.derive_partitioned_ddg`) gets its index through
:func:`install_index`, with SCC membership carried over from the source
index, so Tarjan does not run for it; the arrays, distance-0 order and
per-SCC edge lists are computed as usual.  However the membership was
found, ``_condense`` lists the cyclic SCCs by smallest member index, so
a derived and a rebuilt index are equal list for list.  (Their consumers
are max-reductions and would not notice the order; the parity tests
compare exactly.)

The module also provides the *Flexibility* quantity of Section 5 — the
slack between an operation's earliest and latest position inside a given
ideal schedule — and height-based priorities for the schedulers.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping

from repro.ddg.graph import DDG
from repro.ir.operations import Operation
from repro.machine.machine import CopyModel, MachineDescription

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.latency import LatencyTable


# ----------------------------------------------------------------------
# Resource bound
# ----------------------------------------------------------------------
def resource_ii(ddg: DDG, machine: MachineDescription) -> int:
    """Minimum II imposed by issue resources.

    For the monolithic machine (and for clustered machines before
    operations are pinned) every operation competes for the machine's
    ``width`` slots.  Once operations carry cluster assignments, demand is
    counted per cluster, and copies are charged to FU slots (embedded
    model) or to copy ports and buses (copy-unit model).
    """
    if len(ddg) == 0:
        return 1

    # The modulo scheduler and the metrics pass both ask for ResII of the
    # same (graph, machine) pair several times per compilation; memoize on
    # the DDG keyed by its mutation counter and the machine's resource
    # shape (ops' cluster fields never change under a DDG on any path
    # through the pipeline — rewrites clone operations, and the clones get
    # a new DDG, derived or built).
    machine_key = (
        machine.n_clusters,
        machine.fus_per_cluster,
        machine.copy_model,
        machine.copy_ports_per_cluster,
        machine.n_buses,
    )
    cached = getattr(ddg, "_resource_ii_cache", None)
    if cached is None or cached[0] != ddg._version:
        cached = (ddg._version, {})
        ddg._resource_ii_cache = cached
    memo = cached[1]
    hit = memo.get(machine_key)
    if hit is not None:
        return hit

    unassigned = sum(1 for op in ddg.ops if op.cluster is None)
    if unassigned == len(ddg.ops) or not machine.is_clustered:
        result = max(1, math.ceil(len(ddg.ops) / machine.width))
        memo[machine_key] = result
        return result

    fu_demand = [0] * machine.n_clusters
    copy_port_demand = [0] * machine.n_clusters
    total_copies = 0
    for op in ddg.ops:
        cluster = op.cluster if op.cluster is not None else 0
        machine.validate_cluster(cluster)
        if op.is_copy and machine.copy_model is CopyModel.COPY_UNIT:
            copy_port_demand[cluster] += 1
            total_copies += 1
        else:
            fu_demand[cluster] += 1

    bounds = [math.ceil(d / machine.fus_per_cluster) for d in fu_demand]
    if machine.copy_model is CopyModel.COPY_UNIT:
        bounds.extend(
            math.ceil(d / machine.copy_ports_per_cluster) for d in copy_port_demand
        )
        if machine.n_buses:
            bounds.append(math.ceil(total_copies / machine.n_buses))
    result = max(1, *bounds)
    memo[machine_key] = result
    return result


# ----------------------------------------------------------------------
# Cached analysis index: int-indexed edge arrays + SCC condensation
# ----------------------------------------------------------------------
class _SCC:
    """One cyclic strongly connected component, in local index space."""

    __slots__ = ("nodes", "esrc", "edst", "edelay", "edist", "delay_sum",
                 "self_lo", "zero_distance_cycle")

    def __init__(self, nodes: list[int]) -> None:
        self.nodes = nodes            # global node indices, for diagnostics
        self.esrc: list[int] = []     # internal edges, local endpoints,
        self.edst: list[int] = []     # in global ddg.edges() order
        self.edelay: list[int] = []
        self.edist: list[int] = []
        self.delay_sum = 0
        self.self_lo = 1              # ceil(delay/distance) over self-edges
        self.zero_distance_cycle = False

    @property
    def trivial(self) -> bool:
        """A single node whose only cycles are its own self-edges; RecII
        resolves arithmetically (mediant inequality: composite self-loop
        ratios never exceed the max single-edge ratio)."""
        return len(self.nodes) == 1


class _AnalysisIndex:
    """Edge arrays and SCC condensation for one DDG state.

    Built once per (graph, version) and cached on the DDG, so every
    ``recurrence_ii`` probe, ``longest_path_heights`` II candidate and
    ``critical_cycle`` hunt reuses the same int-indexed arrays instead of
    re-walking Dependence objects and op-id dicts.  ``scc_of`` (an SCC id
    per node) is Tarjan's unless the caller already knows the membership
    (:func:`install_index`); the ids only group nodes, so any labelling
    of the same partition yields the same index.
    """

    __slots__ = ("n", "m", "op_ids", "src", "dst", "delay", "dist",
                 "out_edges", "rev_topo0", "scc_of", "cyclic_sccs")

    def __init__(self, ddg: DDG, scc_of: list[int] | None = None) -> None:
        ops = ddg.ops
        self.n = len(ops)
        self.op_ids = [op.op_id for op in ops]
        id2idx = {op.op_id: i for i, op in enumerate(ops)}

        src: list[int] = []
        dst: list[int] = []
        delay: list[int] = []
        dist: list[int] = []
        for e in ddg.edges():  # global edge order == ddg.edges() order
            src.append(id2idx[e.src.op_id])
            dst.append(id2idx[e.dst.op_id])
            delay.append(e.delay)
            dist.append(e.distance)
        self.src, self.dst, self.delay, self.dist = src, dst, delay, dist
        self.m = len(src)

        out_edges: list[list[int]] = [[] for _ in range(self.n)]
        for k in range(self.m):
            out_edges[src[k]].append(k)
        self.out_edges = out_edges

        self.rev_topo0 = self._reverse_topo_distance0()
        self.scc_of = self._tarjan() if scc_of is None else scc_of
        self.cyclic_sccs = self._condense()

    # ------------------------------------------------------------------
    def _reverse_topo_distance0(self) -> list[int] | None:
        """Nodes sinks-first w.r.t. distance-0 edges (None if cyclic)."""
        indeg = [0] * self.n
        for k in range(self.m):
            if self.dist[k] == 0:
                indeg[self.dst[k]] += 1
        ready = [v for v in range(self.n) if indeg[v] == 0]
        order: list[int] = []
        while ready:
            v = ready.pop()
            order.append(v)
            for k in self.out_edges[v]:
                if self.dist[k] == 0:
                    w = self.dst[k]
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        ready.append(w)
        if len(order) != self.n:
            return None  # distance-0 cycle: malformed body, callers fall back
        order.reverse()
        return order

    # ------------------------------------------------------------------
    def _condense(self) -> list[_SCC]:
        """Cyclic SCCs ordered by smallest member index, whatever the ids."""
        scc_of = self.scc_of
        n_sccs = max(scc_of, default=-1) + 1
        members: list[list[int]] = [[] for _ in range(n_sccs)]
        for v in range(self.n):
            members[scc_of[v]].append(v)
        has_self = [False] * n_sccs
        for k in range(self.m):
            if self.src[k] == self.dst[k]:
                has_self[scc_of[self.src[k]]] = True

        cyclic: dict[int, _SCC] = {}
        local_pos: dict[int, int] = {}
        for sid in range(n_sccs):
            if len(members[sid]) > 1 or has_self[sid]:
                scc = _SCC(members[sid])
                cyclic[sid] = scc
                for pos, v in enumerate(members[sid]):
                    local_pos[v] = pos
        if not cyclic:
            return []

        for k in range(self.m):  # global order keeps probes deterministic
            sid = scc_of[self.src[k]]
            if sid != scc_of[self.dst[k]] or sid not in cyclic:
                continue
            scc = cyclic[sid]
            scc.esrc.append(local_pos[self.src[k]])
            scc.edst.append(local_pos[self.dst[k]])
            scc.edelay.append(self.delay[k])
            scc.edist.append(self.dist[k])
            scc.delay_sum += self.delay[k]
            if self.src[k] == self.dst[k]:
                if self.dist[k] > 0:
                    scc.self_lo = max(
                        scc.self_lo, -(-self.delay[k] // self.dist[k])
                    )
                elif self.delay[k] > 0:
                    scc.zero_distance_cycle = True
        return sorted(cyclic.values(), key=lambda scc: scc.nodes[0])

    # ------------------------------------------------------------------
    def _tarjan(self) -> list[int]:
        """Iterative Tarjan; returns the SCC id of every node."""
        UNSEEN = -1
        index = [UNSEEN] * self.n
        low = [0] * self.n
        onstack = [False] * self.n
        stack: list[int] = []
        scc_of = [UNSEEN] * self.n
        counter = 0
        n_sccs = 0
        # successor node lists (edge ids -> dst), self-loops are harmless
        succ = [[self.dst[k] for k in self.out_edges[v]] for v in range(self.n)]
        for root in range(self.n):
            if index[root] != UNSEEN:
                continue
            work: list[tuple[int, int]] = [(root, 0)]
            while work:
                v, pi = work[-1]
                if pi == 0:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    onstack[v] = True
                descended = False
                adj = succ[v]
                for i in range(pi, len(adj)):
                    w = adj[i]
                    if index[w] == UNSEEN:
                        work[-1] = (v, i + 1)
                        work.append((w, 0))
                        descended = True
                        break
                    if onstack[w] and index[w] < low[v]:
                        low[v] = index[w]
                if descended:
                    continue
                work.pop()
                if low[v] == index[v]:
                    while True:
                        x = stack.pop()
                        onstack[x] = False
                        scc_of[x] = n_sccs
                        if x == v:
                            break
                    n_sccs += 1
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
        return scc_of


def _index(ddg: DDG) -> _AnalysisIndex:
    """The cached :class:`_AnalysisIndex` for ``ddg``'s current state."""
    cached = getattr(ddg, "_analysis_index", None)
    if cached is not None and cached[0] == ddg._version:
        return cached[1]
    idx = _AnalysisIndex(ddg)
    ddg._analysis_index = (ddg._version, idx)
    return idx


def scc_membership(ddg: DDG) -> list[int]:
    """The SCC id of every node of ``ddg``, in ``ddg.ops`` order."""
    return _index(ddg).scc_of


def install_index(ddg: DDG, scc_of: list[int]) -> None:
    """Cache the analysis index of ``ddg``'s current state, with the SCC
    membership ``scc_of`` known from elsewhere instead of from Tarjan.
    A later mutation bumps the version and invalidates it as usual."""
    ddg._analysis_index = (ddg._version, _AnalysisIndex(ddg, scc_of))


# ----------------------------------------------------------------------
# Recurrence bound
# ----------------------------------------------------------------------
def _scc_has_positive_cycle(scc: _SCC, ii: int) -> bool:
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


def _scc_recurrence_ii(scc: _SCC) -> int:
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
    rec = 1
    for scc in _index(ddg).cyclic_sccs:
        rec = max(rec, _scc_recurrence_ii(scc))
    return rec


def _scc_has_positive_cycle_real(scc: _SCC, ii: float) -> bool:
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
    for scc in _index(ddg).cyclic_sccs:
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
    idx = _index(ddg)
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
def longest_path_heights(ddg: DDG, ii: int = 0) -> dict[int, int]:
    """Height-based scheduling priority (Rau's HeightR).

    ``height(op) = max(0, max over successors (height(succ) + delay
    - ii * distance))``; with ``ii`` at least RecII there are no positive
    cycles, so the least fixpoint exists and is unique.  Computed by
    sweeping nodes in reverse topological order of the distance-0 DAG:
    one sweep finalizes every same-iteration chain, and only loop-carried
    edges still positive at this II force bounded fixup sweeps (at most
    |V| + 1, after which a positive cycle is reported).  With ``ii = 0``
    and loop-carried edges present the fixpoint may not exist; callers
    pass the candidate II.
    """
    height = {op.op_id: 0 for op in ddg.ops}
    if len(ddg) == 0 or ddg.n_edges == 0:
        return height
    idx = _index(ddg)
    if idx.rev_topo0 is None:  # distance-0 cycle (malformed body)
        return _reference_longest_path_heights(ddg, ii)
    dst, out_edges = idx.dst, idx.out_edges
    ew = [idx.delay[k] - ii * idx.dist[k] for k in range(idx.m)]
    h = [0] * idx.n
    order = idx.rev_topo0
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
            for v, oid in enumerate(idx.op_ids):
                height[oid] = h[v]
            return height
    raise ValueError(f"heights diverge at ii={ii}: positive cycle present")


def _reference_longest_path_heights(ddg: DDG, ii: int = 0) -> dict[int, int]:
    """Arbitrary-order fixpoint iteration: the fallback for
    distance-0-cyclic graphs, and the golden-equivalence oracle for
    :func:`longest_path_heights`."""
    height = {op.op_id: 0 for op in ddg.ops}
    edges = list(ddg.edges())
    for _round_no in range(len(ddg.ops) + 1):
        changed = False
        for e in edges:
            cand = height[e.dst.op_id] + e.delay - ii * e.distance
            if cand > height[e.src.op_id]:
                height[e.src.op_id] = cand
                changed = True
        if not changed:
            return height
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
    """
    estart: dict[int, int] = {}
    lstart: dict[int, int] = {}
    for op in ddg.ops:
        e = 0
        for dep in ddg.predecessors(op):
            if dep.distance == 0:
                e = max(e, times[dep.src.op_id] + dep.delay)
        estart[op.op_id] = e
        own_latency = latencies.of(op) if latencies is not None else 1
        latest = length - own_latency
        for dep in ddg.successors(op):
            if dep.distance == 0:
                latest = min(latest, times[dep.dst.op_id] - dep.delay)
        lstart[op.op_id] = max(latest, e)
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
