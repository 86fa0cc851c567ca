"""Connected-component analysis of the RCG.

"Once the register component graph is built, values that are not
connected in the graph are good candidates to be assigned to separate
register banks. ... Each component represents registers that can be
allocated to a single register bank.  In general, we will need to split
components to fit the number of register partitions available"
(Section 4.1).

The greedy pass of Figure 4 performs the splitting implicitly; this module
exposes the component structure itself for reports, tests and the
component-seeded variant measured by the ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.rcg import FrozenRCG, RegisterComponentGraph, csr_components
from repro.ir.registers import SymbolicRegister


def connected_components(
    rcg: RegisterComponentGraph | FrozenRCG, positive_only: bool = False
) -> list[list[SymbolicRegister]]:
    """Components of the RCG, each sorted by rid; components ordered by
    descending total node weight then by smallest rid.

    With ``positive_only`` the traversal ignores negative (anti-affinity)
    edges: two registers connected only by "keep these apart" evidence are
    *not* same-bank candidates, so component analysis for seeding uses the
    positive skeleton.
    """
    # Flood-fill over the frozen CSR adjacency (shared with the
    # partitioner); traversal order cannot affect the result — membership
    # is symmetric and every component is sorted before it is reported.
    g = rcg.freeze()
    offsets, nbr, wgt = g.csr()
    nodes = g.nodes()  # ascending rid, aligned with the CSR indices
    components = [
        [nodes[i] for i in sorted(comp)]
        for comp in csr_components(offsets, nbr, wgt, positive_only)
    ]

    def total_weight(comp: list[SymbolicRegister]) -> float:
        return sum(rcg.node_weight(r) for r in comp)

    components.sort(key=lambda c: (-total_weight(c), c[0].rid))
    return components


@dataclass(frozen=True)
class ComponentSummary:
    """Shape statistics reported alongside partitioning results."""

    n_components: int
    largest: int
    smallest: int
    singleton_count: int

    @property
    def splittable(self) -> bool:
        """True when at least one component must be split to use > 1 bank,
        i.e. registers do not naturally separate."""
        return self.n_components == 1


def component_summary(
    rcg: RegisterComponentGraph | FrozenRCG, positive_only: bool = True
) -> ComponentSummary:
    comps = connected_components(rcg, positive_only=positive_only)
    sizes = [len(c) for c in comps] or [0]
    return ComponentSummary(
        n_components=len(comps),
        largest=max(sizes),
        smallest=min(sizes),
        singleton_count=sum(1 for s in sizes if s == 1),
    )
