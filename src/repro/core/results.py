"""Per-loop compilation metrics.

The evaluation section of the paper reports, per configuration:

* **IPC** of the ideal and clustered kernels (Table 1), where embedded-
  model copies count toward IPC but copy-unit copies do not;
* **degradation**, the partitioned kernel length normalized to the ideal
  kernel at 100 (Table 2): ``100 * II_partitioned / II_ideal``;
* the **degradation histogram** bucketing of Figures 5-7
  (0%, <10%, <20%, ..., <90%, >90%).

:class:`LoopMetrics` carries everything those aggregations need plus
diagnostics (RecII/ResII decomposition, copy counts, component shape,
register-allocation outcome).  :class:`LoopFailure` is its counterpart
for the (loop, configuration) cells that did *not* produce metrics:
which fault kind ended the attempt, and after how many attempts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

#: Figure 5-7 histogram buckets, in presentation order.
DEGRADATION_BUCKETS: tuple[str, ...] = (
    "0.00%",
    "<10%",
    "<20%",
    "<30%",
    "<40%",
    "<50%",
    "<60%",
    "<70%",
    "<80%",
    "<90%",
    ">90%",
)


def degradation_bucket(degradation_pct: float) -> str:
    """Map a degradation percentage (0 = no degradation) to its Figure 5-7
    bucket label.  The paper plots degradation "as a percentage of ideal
    II", with an exact-zero bar followed by 10-point bins."""
    if degradation_pct <= 0:
        # Heuristic scheduling can very occasionally do marginally better
        # under the clustered constraints than the ideal run did; both are
        # "no degradation" for bucketing purposes.
        return "0.00%"
    for upper, label in (
        (10, "<10%"), (20, "<20%"), (30, "<30%"), (40, "<40%"), (50, "<50%"),
        (60, "<60%"), (70, "<70%"), (80, "<80%"), (90, "<90%"),
    ):
        if degradation_pct < upper:
            return label
    return ">90%"


#: failure classification, in increasing order of violence: a cross-stage
#: oracle (``repro check``) rejected a result that compiled fine; the
#: pipeline raised; the wall-clock budget expired; the process died
#: outright (or the result could not cross the process boundary).
FAILURE_KINDS: tuple[str, ...] = ("oracle", "exception", "timeout", "crash")


@dataclass(frozen=True)
class LoopFailure:
    """One (loop, configuration) cell that produced no metrics."""

    config: str
    loop_name: str
    error: str
    kind: str = "exception"   # one of FAILURE_KINDS
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {self.kind!r}")


@dataclass(frozen=True)
class LoopMetrics:
    """Everything the tables/figures need about one compiled loop."""

    loop_name: str
    machine_name: str
    n_ops: int

    # ideal (monolithic) schedule
    ideal_ii: int
    ideal_min_ii: int
    ideal_rec_ii: int
    ideal_res_ii: int
    ideal_ipc: float

    # partitioned schedule
    partitioned_ii: int
    partitioned_min_ii: int
    partitioned_ipc: float
    n_kernel_ops: int          # body ops incl. copies
    n_body_copies: int
    n_preheader_copies: int

    # partition shape
    n_registers: int
    n_components: int

    # register assignment outcome (0 spills on every corpus run by default)
    max_bank_pressure: int = 0
    spilled_registers: int = 0

    # validation
    sim_checked: bool = False

    # exact-partitioner proof metadata (``partitioner="exact"`` cells
    # only; the defaults mark "no exact search ran").  ``exact_cost`` is
    # the objective of the returned partition, ``exact_bound`` the
    # certified lower bound at exit (== cost iff ``exact_proven``),
    # ``exact_warm_cost`` the greedy warm start's objective — their
    # difference is the per-loop optimality gap.
    exact_cost: int = -1
    exact_bound: int = -1
    exact_nodes: int = 0
    exact_proven: bool = False
    exact_warm_cost: int = -1

    @property
    def normalized_kernel(self) -> float:
        """Kernel size normalized to ideal = 100 (Table 2 units)."""
        return 100.0 * self.partitioned_ii / self.ideal_ii

    @property
    def degradation_pct(self) -> float:
        """Percent increase of the kernel over ideal (0 = no degradation)."""
        return self.normalized_kernel - 100.0

    @property
    def zero_degradation(self) -> bool:
        """Whether partitioning left the II unchanged — the quantity
        Nystrom and Eichenberger report (Section 6.3)."""
        return self.partitioned_ii <= self.ideal_ii

    @property
    def bucket(self) -> str:
        return degradation_bucket(self.degradation_pct)

    def to_dict(self) -> dict:
        """The fields as a JSON-ready dict, in declaration order.

        Equal to ``dataclasses.asdict(self)``: every field is a scalar,
        so a shallow copy is enough (``asdict`` deep-copies each one).
        """
        return {name: getattr(self, name) for name in _METRIC_FIELDS}

    @classmethod
    def from_dict(cls, doc: dict) -> "LoopMetrics":
        """Inverse of :meth:`to_dict`: ``doc``'s keys must be exactly the
        fields, else :class:`TypeError`.  The values are stored as given,
        without the frozen ``__init__``'s ``setattr`` per field, which
        costs ten times as much and dominated a warm store hit."""
        if not isinstance(doc, dict) or doc.keys() != _METRIC_FIELD_SET:
            raise TypeError("record does not hold exactly the LoopMetrics fields")
        metrics = object.__new__(cls)
        metrics.__dict__.update(doc)
        return metrics


_METRIC_FIELDS = tuple(f.name for f in fields(LoopMetrics))
_METRIC_FIELD_SET = frozenset(_METRIC_FIELDS)
