"""Exact bank assignment: an optimality oracle for the Figure-4 greedy.

ROADMAP item 2 made concrete: a pure-python branch-and-bound partitioner
(:mod:`repro.exact.bnb`) over the objective defined once in
:mod:`repro.exact.cost`, and the pipeline strategy
(:mod:`repro.exact.strategy`) registered as partitioner ``"exact"``.
The greedy-vs-optimal gap report built on top lives in
:mod:`repro.evalx.gap` (CLI: ``repro gap``).  The brute-force
enumeration that checks the solver lives with the tests' oracles
(``tests/golden.py``).
"""

from repro.exact.bnb import ExactProof, SearchBudgetExhausted, solve_exact
from repro.exact.cost import (
    OVERFLOW_WEIGHT,
    ExactProblem,
    assignment_cost,
    build_problem,
    partition_cost,
    partition_from_assignment,
)
from repro.exact.strategy import exact_partition_context

__all__ = [
    "OVERFLOW_WEIGHT",
    "ExactProblem",
    "ExactProof",
    "SearchBudgetExhausted",
    "assignment_cost",
    "build_problem",
    "exact_partition_context",
    "partition_cost",
    "partition_from_assignment",
    "solve_exact",
]
