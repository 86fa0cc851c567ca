"""Heuristic RCG weighting (paper Section 5).

For every operation ``O`` in every instruction ``I`` of the *ideal
schedule* the heuristic:

* adds a **positive affinity** edge between each (defined, used) register
  pair of ``O`` — they appear in the same atomic operation and should
  share a bank — and the same amount to both registers' node weights;
* adds a **negative anti-affinity** edge between registers defined by two
  *distinct* operations of the same instruction ``I`` — the ideal schedule
  proved they can issue together, and keeping them in different banks
  "increase[s] the probability that they can be issued in the same
  instruction".

Both contributions scale with the program characteristics the paper lists:
**Nesting Depth** of the enclosing block, **DDD Density** (operations per
ideal-schedule instruction) and **Flexibility** (schedule slack + 1, with
zero-slack/critical-path operations weighted highest).  The exact closed
forms in the published scan are corrupted and the authors describe the
constants as "determined in an ad hoc manner"; :class:`HeuristicConfig`
exposes every constant, the defaults reproduce the published shape, and
``benchmarks/bench_ablation_weights.py`` sweeps them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.rcg import RegisterComponentGraph
from repro.ddg.analysis import schedule_slack
from repro.ddg.graph import DDG
from repro.ir.operations import Operation
from repro.ir.registers import SymbolicRegister
from repro.sched.schedule import KernelSchedule, LinearSchedule


@dataclass(frozen=True)
class HeuristicConfig:
    """Tunable constants of the Section-5 weighting heuristic.

    Attributes
    ----------
    affinity_scale:
        Multiplier on positive (same-operation def-use) edge weights.
    antiaffinity_scale:
        Multiplier on negative (same-instruction def-def) edge weights.
    critical_boost:
        Extra factor applied when an operation's Flexibility is 1, i.e.
        it sits on a DDD critical path ("such nodes will have zero slack
        time").
    depth_base:
        Nesting-depth weighting: contributions scale by
        ``depth_base ** nesting_depth``, so inner-loop registers dominate
        placement order in whole-function partitioning.
    use_density:
        Scale contributions by DDD density (ops per ideal instruction);
        denser blocks make partitioning decisions matter more.
    balance_penalty:
        The Figure-4 ``ThisBenefit -=`` term: cost per register already
        assigned to a candidate bank, spreading registers "somewhat
        evenly across the available partitions".
    capacity_alpha:
        When the partitioner is told the per-bank issue capacity (FU
        slots per cluster x ideal II), the balance penalty only engages
        once a bank's occupancy exceeds ``capacity_alpha`` times that
        capacity: banks with free issue slots absorb registers for free
        (keeping recurrence chains whole), while genuinely oversubscribed
        banks push registers away.  Set to 0 to disable capacity awareness
        and fall back to excess-over-average balancing.
    literal_figure4:
        If true, reproduce the pseudocode of Figure 4 *literally*
        (``BestBenefit`` initialized to 0 and bank 0 as the default), under
        which any node with no placed neighbors falls into bank 0.  The
        default ``False`` realizes the stated intent instead: an argmax
        over banks including the balance penalty.  The ablation bench
        measures the difference.
    """

    affinity_scale: float = 1.0
    antiaffinity_scale: float = 0.5
    critical_boost: float = 4.0
    depth_base: float = 2.0
    use_density: bool = True
    balance_penalty: float = 1.0
    capacity_alpha: float = 0.8
    literal_figure4: bool = False

    def flexibility_weight(self, slack: int) -> float:
        """The 1/Flexibility term; Flexibility = slack + 1 (Section 5)."""
        flexibility = slack + 1
        base = 1.0 / flexibility
        if flexibility == 1:
            base *= self.critical_boost
        return base


DEFAULT_HEURISTIC = HeuristicConfig()


# ----------------------------------------------------------------------
# internal: one (instruction stream, slack, density, depth) ingestion
# ----------------------------------------------------------------------
def _ingest_schedule(
    rcg: RegisterComponentGraph,
    instructions: list[list[Operation]],
    slack: dict[int, int],
    density: float,
    depth: int,
    config: HeuristicConfig,
) -> None:
    depth_factor = config.depth_base ** depth
    density_factor = density if config.use_density else 1.0
    scale = depth_factor * density_factor
    affinity = config.affinity_scale * scale
    neg_antiaffinity = -(config.antiaffinity_scale * scale)
    critical_boost = config.critical_boost

    # This is the partition path's hottest writer (tens of thousands of
    # edge updates per evaluation), so it writes the RCG tables directly.
    # The edge and weight writes below are those of the add_edge_weight /
    # add_node_weight calls they replace, in the same order — same
    # edge-insertion and float-accumulation order, hence the same bytes
    # everywhere downstream.  Every register an op mentions is made a
    # node (at weight 0.0) before its edges are written; node insertion
    # order is never read.  Self-edges never reach the edge writes: both
    # passes skip equal-rid pairs first.
    nodes, node_weight, edges = rcg.ingest_tables()
    edges_get = edges.get

    for instr in instructions:
        # positive: def-use pairs within each operation.  The defining
        # ops' registers and flexibility weights are kept, in op order,
        # for the quadratic def-def pass below.
        defs: list[tuple[int, float]] = []
        for op in instr:
            # the 1/Flexibility term of HeuristicConfig.flexibility_weight
            slack_op = slack[op.op_id]
            fw = 1.0 / (slack_op + 1)
            if slack_op == 0:
                fw *= critical_boost
            used = [s for s in op.sources if type(s) is SymbolicRegister]
            for u in used:
                if u.rid not in nodes:
                    nodes[u.rid] = u
                    node_weight[u.rid] = 0.0
            d = op.dest
            if d is None:
                continue
            drid = d.rid
            if drid not in nodes:
                nodes[drid] = d
                node_weight[drid] = 0.0
            defs.append((drid, fw))
            w = affinity * fw
            for u in used:
                urid = u.rid
                if drid == urid:
                    continue  # accumulator: same register, no self-edge
                key = (drid, urid) if drid <= urid else (urid, drid)
                edges[key] = edges_get(key, 0.0) + w
                node_weight[drid] += w
                node_weight[urid] += w

        # negative: def-def pairs across distinct operations of the same
        # instruction (they proved co-issuable in the ideal schedule),
        # in the pair order of itertools.combinations
        n_defs = len(defs)
        for a in range(n_defs - 1):
            arid, fw_a = defs[a]
            for b in range(a + 1, n_defs):
                brid, fw_b = defs[b]
                if arid == brid:
                    continue
                w = neg_antiaffinity * (fw_a if fw_a <= fw_b else fw_b)
                key = (arid, brid) if arid <= brid else (brid, arid)
                edges[key] = edges_get(key, 0.0) + w


# ----------------------------------------------------------------------
# public builders
# ----------------------------------------------------------------------
def build_rcg_from_kernel(
    kernel: KernelSchedule,
    ddg: DDG,
    config: HeuristicConfig = DEFAULT_HEURISTIC,
    rcg: RegisterComponentGraph | None = None,
) -> RegisterComponentGraph:
    """Build (or extend) an RCG from a software-pipelined ideal schedule.

    The kernel's II rows are the "instructions"; two operations placed in
    the same row — possibly from different pipeline stages — co-issue
    every iteration, which is exactly the co-issue evidence the negative
    edges encode.  DDD density is ``ops / II`` and Flexibility comes from
    slack in the flat one-iteration schedule.
    """
    rcg = rcg if rcg is not None else RegisterComponentGraph()
    slack = schedule_slack(ddg, kernel.times, kernel.flat_length, kernel.machine.latencies)
    density = len(kernel.loop.ops) / kernel.ii
    _ingest_schedule(
        rcg,
        kernel.kernel_rows(),
        slack,
        density,
        kernel.loop.depth,
        config,
    )
    # the ingest made every register of every op a node; only live-ins
    # and live-outs the body never mentions are left
    loop = kernel.loop
    for regs in (loop.live_in, loop.live_out):
        for reg in regs:
            rcg.add_node(reg)
    return rcg


def build_rcg_from_linear(
    schedule: LinearSchedule,
    ddg: DDG,
    depth: int = 0,
    config: HeuristicConfig = DEFAULT_HEURISTIC,
    rcg: RegisterComponentGraph | None = None,
) -> RegisterComponentGraph:
    """Build (or extend) an RCG from an acyclic ideal schedule.

    Used by the whole-function path: call once per basic block with that
    block's nesting depth, passing the same ``rcg`` to accumulate a single
    function-wide graph — "we could easily use both non-loop and loop code
    to build our register component graph" (Section 6.3).
    """
    rcg = rcg if rcg is not None else RegisterComponentGraph()
    slack = schedule_slack(ddg, schedule.times, schedule.length, schedule.machine.latencies)
    n_instr = max(1, schedule.issue_length)
    density = len(schedule.ops) / n_instr
    instructions = [ops for _, ops in schedule.instructions() if ops]
    _ingest_schedule(rcg, instructions, slack, density, depth, config)
    for op in schedule.ops:
        for reg in op.registers():
            rcg.add_node(reg)
    return rcg
