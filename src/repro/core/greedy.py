"""The Figure-4 greedy bank assignment.

"We place each symbolic register, represented as an RCG node, into one of
the available register partitions ... in decreasing order of node weight.
To assign each RCG node, we compute the 'benefit' of assigning that node
to each of the available partitions in turn.  Whichever partition has the
largest computed benefit ... is the partition to which the node is
allocated" (Section 5).

The benefit of placing node ``n`` in bank ``B`` is the sum of RCG edge
weights from ``n`` to neighbors already in ``B``, minus a balance term
proportional to how many registers ``B`` already holds (the paper's
``ThisBenefit -= ...`` adjustment that "attempt[s] to spread the symbolic
registers somewhat evenly across the available partitions").

Pre-coloring (Section 4.1's idiosyncratic-constraint mechanism) is
supported: registers with a fixed bank are placed first and never moved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.rcg import FrozenRCG
from repro.core.weights import DEFAULT_HEURISTIC, HeuristicConfig
from repro.ir.registers import SymbolicRegister


@dataclass
class Partition:
    """An assignment of symbolic registers to register banks."""

    n_banks: int
    assignment: dict[int, int] = field(default_factory=dict)
    _registers: dict[int, SymbolicRegister] = field(default_factory=dict)

    def assign(self, reg: SymbolicRegister, bank: int) -> None:
        if not (0 <= bank < self.n_banks):
            raise ValueError(f"bank {bank} out of range (n_banks={self.n_banks})")
        self.assignment[reg.rid] = bank
        self._registers[reg.rid] = reg

    def bank_of(self, reg: SymbolicRegister) -> int:
        try:
            return self.assignment[reg.rid]
        except KeyError:
            raise KeyError(f"register {reg} has no bank assignment") from None

    def __contains__(self, reg: SymbolicRegister) -> bool:
        return reg.rid in self.assignment

    def registers_in_bank(self, bank: int) -> list[SymbolicRegister]:
        return sorted(
            (self._registers[rid] for rid, b in self.assignment.items() if b == bank),
            key=lambda r: r.rid,
        )

    def bank_sizes(self) -> list[int]:
        sizes = [0] * self.n_banks
        for b in self.assignment.values():
            sizes[b] += 1
        return sizes

    def __len__(self) -> int:
        return len(self.assignment)

    def copy(self) -> "Partition":
        return Partition(
            n_banks=self.n_banks,
            assignment=dict(self.assignment),
            _registers=dict(self._registers),
        )


def greedy_partition(
    rcg: FrozenRCG,
    n_banks: int,
    config: HeuristicConfig = DEFAULT_HEURISTIC,
    precolored: dict[SymbolicRegister, int] | None = None,
    slots_per_bank: int | None = None,
    tracer: "object | None" = None,
    metrics: "object | None" = None,
) -> Partition:
    """Assign every RCG node to a bank per the Figure-4 algorithm.

    ``precolored`` pins specific registers to specific banks before the
    greedy sweep; they contribute to neighbors' benefits like any placed
    node.  ``slots_per_bank`` (FU slots per cluster x the ideal II) turns
    on capacity-aware balancing: a bank whose occupancy is below
    ``config.capacity_alpha * slots_per_bank`` takes registers penalty-
    free, which keeps low-pressure (recurrence-bound) loops cohesive while
    still spreading dense loops.  With ``config.literal_figure4`` the
    historically-literal variant is used (see
    :class:`~repro.core.weights.HeuristicConfig`).

    Each node is placed with a single pass over its slice of the frozen
    CSR adjacency, accumulating per-bank benefit (instead of a banks x
    neighbors scan), minus a per-bank penalty row that is refreshed as
    bank sizes grow — O(V log V + E) overall.  The direct transcription
    is the golden-equivalence oracle in ``tests/golden.py``.

    ``tracer``/``metrics`` are the opt-in observability hooks
    (:mod:`repro.obs`): one span around the whole sweep with the final
    bank sizes, plus placement counters.  Both default to None and cost
    nothing disabled; neither influences the assignment.
    """
    if tracer is not None:
        with tracer.span(
            "greedy_partition", cat="substep",
            nodes=len(rcg), banks=n_banks,
        ) as sp:
            partition = greedy_partition(
                rcg, n_banks, config, precolored=precolored,
                slots_per_bank=slots_per_bank, metrics=metrics,
            )
            sp.set(bank_sizes=partition.bank_sizes())
            return partition
    if n_banks < 1:
        raise ValueError("need at least one bank")
    partition = Partition(n_banks=n_banks)

    # The balance penalty competes with edge weights, whose magnitude
    # scales with DDD density and nesting depth; normalizing by the mean
    # positive (affinity) edge weight (precomputed by the frozen graph)
    # makes the "spread somewhat evenly" pressure meaningful for every
    # loop rather than only for sparse ones.
    penalty = config.balance_penalty * rcg.weight_scale

    if precolored:
        for reg, bank in precolored.items():
            if reg not in rcg:
                raise ValueError(f"precolored register {reg} is not an RCG node")
            partition.assign(reg, bank)

    capacity: float | None = None
    if slots_per_bank is not None and config.capacity_alpha > 0:
        capacity = config.capacity_alpha * slots_per_bank

    # One pass over the frozen CSR per node: neighbors are visited in
    # ascending-rid order, so each bank's benefit sums in exactly the
    # order of the per-bank rescan in ``tests/golden.py``, and
    # bit-identical benefits give identical tie-breaks.  The balance term
    # is a per-bank penalty row: under capacity balancing only the bank
    # that just grew changes, under the average rule every bank does.
    offsets, nbr, wgt = (table.tolist() for table in rcg.csr())
    regs = rcg.nodes()
    bank_arr = [-1] * len(regs)
    sizes = [0] * n_banks
    for rid, bank in partition.assignment.items():  # precolored
        bank_arr[rcg.index_of(rid)] = bank
        sizes[bank] += 1
    if capacity is not None:
        pen = [penalty * max(0.0, size + 1 - capacity) for size in sizes]
    else:
        average = sum(sizes) / n_banks
        pen = [penalty * max(0.0, size - average) for size in sizes]
    assignment = partition.assignment
    registers = partition._registers
    literal = config.literal_figure4
    for i in rcg.placement_order:
        if bank_arr[i] >= 0:
            continue
        benefits = [0.0] * n_banks
        for k in range(offsets[i], offsets[i + 1]):
            b = bank_arr[nbr[k]]
            if b >= 0:
                benefits[b] += wgt[k]
        # Intent reading: argmax over banks (first bank wins ties), so
        # the balance penalty can steer isolated nodes toward emptier banks
        bank = 0
        best = benefits[0] - pen[0]
        for b in range(1, n_banks):
            value = benefits[b] - pen[b]
            if value > best:
                best = value
                bank = b
        if literal and not best > 0.0:
            # Verbatim Figure 4: BestBenefit starts at 0 and BestBank at
            # 0, and only a strictly positive improvement moves the choice.
            bank = 0
        reg = regs[i]
        assignment[reg.rid] = bank
        registers[reg.rid] = reg
        bank_arr[i] = bank
        sizes[bank] += 1
        if capacity is not None:
            # capacity-aware: free while the bank has spare issue slots,
            # then steeply more expensive per register beyond capacity
            pen[bank] = penalty * max(0.0, sizes[bank] + 1 - capacity)
        else:
            # "spread somewhat evenly": penalize above-average occupancy,
            # so joining a small cluster of collaborators stays cheap
            average = sum(sizes) / n_banks
            pen = [penalty * max(0.0, size - average) for size in sizes]
    if metrics is not None:
        metrics.counter("greedy.placements").inc(len(assignment) - len(precolored or ()))
        metrics.counter("greedy.precolored").inc(len(precolored or ()))
    return partition
