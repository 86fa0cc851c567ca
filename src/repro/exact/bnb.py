"""Branch-and-bound over bank assignments (the optimality oracle core).

The search assigns registers one at a time in the greedy's own order
(descending RCG node weight) and keeps three pieces of machinery from
blowing up the ``n_banks ** n_regs`` space:

* **Admissible lower bound.**  The determined cost ``g`` (overflow +
  body copies among fully-decided (source, consumer-home) pairs) only
  grows as the assignment extends, and it is strengthened by two
  admissible look-aheads: the global overflow floor (ops in excess of
  total machine capacity land somewhere) and, per unassigned body-
  defined register, ``distinct decided consumer homes - 1`` copies —
  whatever bank the register lands in, it can coincide with at most one
  of them.  ``f = g + h`` never overestimates, so pruning at
  ``f >= incumbent`` preserves optimality.
* **Incremental RCG benefit propagation.**  Assigning a register adds
  its RCG edge weights to each unassigned neighbour's per-bank benefit
  (exactly the greedy's affinity signal, maintained incrementally).
  Children are explored cheapest-bound first with benefit as the
  tiebreak, which finds strong incumbents early and lets the bound cut
  most of the tree.
* **Memoized dominance pruning.**  Two prefixes of the same depth whose
  *interface* to the suffix agrees — per-bank loads plus the banks of
  the already-assigned registers that still interact with unassigned
  ones — have identical optimal completions; a node whose determined
  cost is no better than a memoized twin's is dominated and cut.  For
  symmetric problems the signature is canonicalised under bank
  relabeling, which also merges states symmetry breaking alone cannot.

The incumbent is seeded with the greedy's assignment, so the result is
never worse than the heuristic — even when a node or time budget stops
the search early (``proven=False``); an interrupted search reports the
root lower bound as its certificate.  Symmetry among interchangeable
banks (no pre-colored pins, no bank-0-homed register-less ops) is broken
by allowing at most one fresh bank per node.

Everything is pure python on flat lists keyed by dense register
indices; the only data structures are dicts used as sparse counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.greedy import Partition
from repro.core.rcg import FrozenRCG
from repro.exact.cost import (
    OVERFLOW_WEIGHT,
    ExactProblem,
    assignment_cost,
    partition_from_assignment,
)

#: dominance-memo entry cap — beyond this the table stops absorbing new
#: signatures (existing entries keep pruning); bounds worst-case memory.
MEMO_LIMIT = 200_000


class SearchBudgetExhausted(Exception):
    """Internal signal: the node/time budget expired mid-search."""


@dataclass(frozen=True)
class ExactProof:
    """What the solver can certify about its answer."""

    #: objective value of the returned assignment
    cost: int
    #: certified lower bound at exit — equals ``cost`` iff ``proven``
    bound: int
    #: branch-and-bound nodes expanded (assignments applied)
    nodes: int
    #: True when the search ran to exhaustion (optimality certificate)
    proven: bool
    #: objective of the greedy warm start the incumbent was seeded with
    warm_cost: int

    @property
    def gap(self) -> int:
        """Copies (or weighted overflow) the greedy left on the table."""
        return self.warm_cost - self.cost


def solve_exact(
    problem: ExactProblem,
    *,
    warm: Partition | None = None,
    rcg: FrozenRCG | None = None,
    node_limit: int | None = None,
    time_budget: float | None = None,
) -> tuple[Partition, ExactProof]:
    """Minimise the exact objective over all bank assignments.

    ``warm`` seeds the incumbent (the greedy partition in the pipeline;
    any complete assignment works).  ``rcg`` supplies the variable order
    (its ``nodes_by_weight``) and the benefit tiebreak; without one the
    search falls back to ascending rid order.  ``node_limit`` /
    ``time_budget`` bound the search for direct API callers — under the
    evaluation runner the surrounding :func:`repro.core.faults.deadline`
    is the budget and both stay None.
    """
    search = _Search(problem, warm, rcg, node_limit, time_budget)
    bank_of, proof = search.run()
    return partition_from_assignment(problem, bank_of), proof


class _Search:
    def __init__(
        self,
        problem: ExactProblem,
        warm: Partition | None,
        rcg: FrozenRCG | None,
        node_limit: int | None,
        time_budget: float | None,
    ):
        self.problem = problem
        self.n_banks = problem.n_banks
        self.slots = problem.slots_per_bank
        self.node_limit = node_limit
        self.deadline_ts = (
            time.monotonic() + time_budget if time_budget is not None else None
        )

        # dense index space: free (searched) registers in decision order
        self.order = self._decision_order(rcg)
        self.pos = {rid: i for i, rid in enumerate(self.order)}
        n = len(self.order)

        # per-op precomputation: every pin's ops, each op's distinct srcs
        self.pinned_by: dict[int, list[int]] = {}
        self.op_srcs: list[tuple[int, ...]] = []
        fixed_consumers: dict[int, int] = {}  # rid -> #pin-less ops reading it
        for op_idx, (pin, srcs) in enumerate(problem.ops):
            self.op_srcs.append(srcs)
            if pin is None:
                for s in srcs:
                    fixed_consumers[s] = fixed_consumers.get(s, 0) + 1
            else:
                self.pinned_by.setdefault(pin, []).append(op_idx)

        # search state ---------------------------------------------------
        self.bank: dict[int, int] = {}
        self.loads = [0] * self.n_banks
        self.overflow = 0
        self.copies = 0
        self.h = 0
        self.cnt: dict[tuple[int, int], int] = {}
        self.pending: dict[int, dict[int, int]] = {}
        self.benefit: list[list[float]] = [[0.0] * self.n_banks for _ in range(n)]
        self.nodes = 0
        self.min_overflow = problem.min_overflow()
        self.n_ops_total = len(problem.ops)

        # RCG adjacency in dense-index space, for benefit propagation
        self.adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        if rcg is not None:
            for a, b, w in rcg.edges():
                ia, ib = self.pos.get(a.rid), self.pos.get(b.rid)
                if ia is not None and ib is not None:
                    self.adj[ia].append((ib, w))
                    self.adj[ib].append((ia, w))

        # register-less ops are homed to bank 0 from the start: their
        # loads are fixed and their reads are decided consumer homes
        for pin, _srcs in problem.ops:
            if pin is None:
                self._bump_load(0, None)
        for rid, count in sorted(fixed_consumers.items()):
            self.pending[rid] = {0: count}

        # pre-colored pins are decided before the search starts (their
        # trail is never undone)
        self._root_trail: list = []
        for rid, bank in sorted(problem.precolored.items()):
            self._apply(rid, bank, self._root_trail)

        # dominance interface: for each decision depth, which already-
        # assigned registers still interact with the suffix
        self.boundary = self._boundaries()
        self.memo: dict[tuple, int] = {}

        # incumbent ------------------------------------------------------
        self.best: dict[int, int] | None = None
        self.best_cost = OVERFLOW_WEIGHT * (len(problem.ops) + 1)
        self.warm_cost = self.best_cost
        if warm is not None:
            warm_assignment = {rid: warm.assignment[rid] for rid in problem.regs}
            for rid, bank in problem.precolored.items():
                if warm_assignment[rid] != bank:
                    raise ValueError(
                        f"warm start violates precolored pin for rid {rid}"
                    )
            self.warm_cost = assignment_cost(problem, warm_assignment)
            self.best = dict(warm_assignment)
            self.best_cost = self.warm_cost

    # ------------------------------------------------------------------
    def _decision_order(self, rcg: FrozenRCG | None) -> list[int]:
        """Decision order: grow outward from the heaviest RCG node along
        op pin<->source ties, heaviest frontier register first.

        Registers that interact (one homes an op the other feeds) are
        decided near each other, so copy demands become *determined* —
        and count toward the bound — as early as possible; a pure
        by-weight order scatters producers and consumers and leaves the
        bound near zero until the very bottom of the tree."""
        free = [
            rid for rid in self.problem.regs if rid not in self.problem.precolored
        ]
        weight: dict[int, float] = {rid: 0.0 for rid in free}
        if rcg is not None:
            for reg in rcg.nodes():
                if reg.rid in weight:
                    weight[reg.rid] = rcg.node_weight(reg)
        ties: dict[int, list[int]] = {rid: [] for rid in free}
        for pin, srcs in self.problem.ops:
            if pin is None:
                continue
            for s in srcs:
                if s != pin:
                    if pin in ties and s not in ties[pin]:
                        ties[pin].append(s)
                    if s in ties and pin not in ties[s]:
                        ties[s].append(pin)

        order: list[int] = []
        placed: set[int] = set(self.problem.precolored)
        frontier: set[int] = set()
        for rid in self.problem.precolored:
            frontier.update(t for t in ties.get(rid, ()) if t not in placed)
        remaining = set(free)
        while remaining:
            pool = frontier & remaining
            if not pool:
                pool = remaining
            # max weight, min rid for determinism
            rid = min(pool, key=lambda r: (-weight[r], r))
            order.append(rid)
            placed.add(rid)
            remaining.discard(rid)
            frontier.discard(rid)
            frontier.update(t for t in ties[rid] if t not in placed)
        return order

    def _boundaries(self) -> list[list[int]]:
        """``boundary[d]`` = rids decided before depth ``d`` (searched
        prefix + pre-colored) that some op ties to a register at depth
        >= d.  Only their banks (plus the loads) shape the suffix."""
        n = len(self.order)
        last: dict[int, int] = {}
        for pin, srcs in self.problem.ops:
            members = (() if pin is None else (pin,)) + srcs
            depths = [self.pos[rid] for rid in members if rid in self.pos]
            frontier = max(depths) if depths else -1
            for rid in members:
                if last.get(rid, -1) < frontier:
                    last[rid] = frontier
        precolored = sorted(self.problem.precolored)
        boundary: list[list[int]] = []
        for d in range(n + 1):
            live = [rid for rid in precolored if last.get(rid, -1) >= d]
            live += [rid for rid in self.order[:d] if last.get(rid, -1) >= d]
            boundary.append(live)
        return boundary

    # -- incremental state transitions ---------------------------------
    def _bump_load(self, bank: int, trail: list | None) -> None:
        self.loads[bank] += 1
        if self.slots is not None and self.loads[bank] > self.slots:
            self.overflow += 1
        if trail is not None:
            trail.append(("l", bank))

    def _real_demand(self, src: int, home: int, trail: list) -> None:
        key = (src, home)
        count = self.cnt.get(key, 0)
        self.cnt[key] = count + 1
        trail.append(("d", key))
        if count == 0 and src in self.problem.body_defined:
            self.copies += 1

    def _pend(self, src: int, home: int, trail: list) -> None:
        d = self.pending.setdefault(src, {})
        count = d.get(home, 0)
        d[home] = count + 1
        trail.append(("p", src, home))
        if count == 0 and src in self.problem.body_defined and len(d) >= 2:
            self.h += 1

    def _apply(self, rid: int, bank: int, trail: list) -> None:
        """Assign ``rid`` to ``bank``, recording every change on ``trail``."""
        self.bank[rid] = bank
        trail.append(("a", rid))
        for op_idx in self.pinned_by.get(rid, ()):
            self._bump_load(bank, trail)
            for s in self.op_srcs[op_idx]:
                if s == rid:
                    continue
                src_bank = self.bank.get(s)
                if src_bank is not None:
                    if src_bank != bank:
                        self._real_demand(s, bank, trail)
                else:
                    self._pend(s, bank, trail)
        idx = self.pos.get(rid)
        if idx is not None:
            for nb, w in self.adj[idx]:
                if self.order[nb] not in self.bank:
                    self.benefit[nb][bank] += w
                    trail.append(("b", nb, bank, w))
        p = self.pending.pop(rid, None)
        if p is not None:
            trail.append(("pc", rid, p, bank))
            body = rid in self.problem.body_defined
            if body:
                self.h -= max(0, len(p) - 1)
            for home, count in p.items():
                if home != bank:
                    self.cnt[(rid, home)] = count
                    if body:
                        self.copies += 1

    def _undo(self, trail: list) -> None:
        body_defined = self.problem.body_defined
        for entry in reversed(trail):
            tag = entry[0]
            if tag == "l":
                bank = entry[1]
                if self.slots is not None and self.loads[bank] > self.slots:
                    self.overflow -= 1
                self.loads[bank] -= 1
            elif tag == "d":
                key = entry[1]
                self.cnt[key] -= 1
                if self.cnt[key] == 0:
                    del self.cnt[key]
                    if key[0] in body_defined:
                        self.copies -= 1
            elif tag == "p":
                _, src, home = entry
                d = self.pending[src]
                d[home] -= 1
                if d[home] == 0:
                    del d[home]
                    if src in body_defined and len(d) >= 1:
                        self.h -= 1
                if not d:
                    del self.pending[src]
            elif tag == "pc":
                _, rid, p, bank = entry
                body = rid in body_defined
                for home, _count in p.items():
                    if home != bank:
                        del self.cnt[(rid, home)]
                        if body:
                            self.copies -= 1
                if body:
                    self.h += max(0, len(p) - 1)
                self.pending[rid] = p
            elif tag == "b":
                _, nb, bank, w = entry
                self.benefit[nb][bank] -= w
            elif tag == "a":
                del self.bank[entry[1]]

    # -- bound + dominance ---------------------------------------------
    def _g(self) -> int:
        return OVERFLOW_WEIGHT * max(self.overflow, self.min_overflow) + self.copies

    def _f(self) -> int:
        """Admissible bound: determined cost plus the copy look-ahead and
        the capacity-packing overflow floor — the ops not yet homed must
        fit in the banks' remaining slots, and whatever does not fit
        overflows no matter how the rest of the search goes."""
        overflow_lb = self.overflow
        if self.slots is not None:
            homed = 0
            cap_left = 0
            for load in self.loads:
                homed += load
                if load < self.slots:
                    cap_left += self.slots - load
            spill_over = self.n_ops_total - homed - cap_left
            if spill_over > 0:
                overflow_lb += spill_over
        return (
            OVERFLOW_WEIGHT * max(overflow_lb, self.min_overflow)
            + self.copies
            + self.h
        )

    def _signature(self, depth: int) -> tuple:
        members = self.boundary[depth]
        banks = tuple(self.bank[rid] for rid in members)
        if not self.problem.symmetric:
            return (depth, tuple(self.loads), banks)
        # canonicalise under bank relabeling: present banks in the
        # lexicographically-least (load, membership-pattern) order
        perm = sorted(
            range(self.n_banks),
            key=lambda b: (
                self.loads[b],
                tuple(i for i, bk in enumerate(banks) if bk == b),
            ),
        )
        relabel = {old: new for new, old in enumerate(perm)}
        return (
            depth,
            tuple(self.loads[b] for b in perm),
            tuple(relabel[bk] for bk in banks),
        )

    def _dominated(self, depth: int) -> bool:
        """Memoized dominance: a twin prefix with the same suffix
        interface and determined cost <= ours has already covered (or
        bound-pruned) every completion we could reach."""
        sig = self._signature(depth)
        g = self._g()
        seen = self.memo.get(sig)
        if seen is not None:
            if seen <= g:
                return True
            self.memo[sig] = g
        elif len(self.memo) < MEMO_LIMIT:
            self.memo[sig] = g
        return False

    # -- the search -----------------------------------------------------
    def run(self) -> tuple[dict[int, int], ExactProof]:
        root_bound = min(self._f(), self.best_cost)
        proven = True
        try:
            self._dfs(0, 0)
        except SearchBudgetExhausted:
            proven = False
        if self.best is None:  # no warm start and budget hit instantly
            raise SearchBudgetExhausted(
                f"{self.problem.loop_name}: budget exhausted before any "
                f"complete assignment was found (pass a warm start)"
            )
        bound = self.best_cost if proven else min(root_bound, self.best_cost)
        return dict(self.best), ExactProof(
            cost=self.best_cost,
            bound=bound,
            nodes=self.nodes,
            proven=proven,
            warm_cost=self.warm_cost,
        )

    def _dfs(self, depth: int, used_banks: int) -> None:
        if depth == len(self.order):
            cost = self._g()
            if cost < self.best_cost:
                self.best_cost = cost
                self.best = dict(self.bank)
            return

        rid = self.order[depth]
        idx = self.pos[rid]
        if self.problem.symmetric:
            candidates = range(min(used_banks + 1, self.n_banks))
        else:
            candidates = range(self.n_banks)

        # order children cheapest-bound first, greedy benefit as tiebreak
        children: list[tuple[int, float, int]] = []
        for bank in candidates:
            trail: list = []
            self._apply(rid, bank, trail)
            children.append((self._f(), -self.benefit[idx][bank], bank))
            self._undo(trail)
        children.sort()

        for f_est, _neg_benefit, bank in children:
            if f_est >= self.best_cost:
                break  # bound-sorted: every remaining child prunes too
            self.nodes += 1
            if self.node_limit is not None and self.nodes > self.node_limit:
                raise SearchBudgetExhausted
            if (
                self.deadline_ts is not None
                and (self.nodes & 0x3F) == 0
                and time.monotonic() > self.deadline_ts
            ):
                raise SearchBudgetExhausted
            # no try/finally: an exception (deadline, budget) aborts the
            # whole search, so unwinding without undo is deliberate — a
            # signal landing mid-_apply leaves the trail desynced, and
            # undoing it would raise and mask the DeadlineExceeded
            trail = []
            self._apply(rid, bank, trail)
            if self._f() < self.best_cost and not self._dominated(depth + 1):
                next_used = (
                    max(used_banks, bank + 1)
                    if self.problem.symmetric
                    else used_banks
                )
                self._dfs(depth + 1, next_used)
            self._undo(trail)
