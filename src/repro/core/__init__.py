"""The paper's primary contribution: register component graph partitioning.

"Instead of trying to partition an operation DAG, we build an undirected
graph that interconnects those program data values that appear in the same
operation, and then partition this graph. ... We call this technique
register component graph partitioning" (Section 1).

Modules
-------
* :mod:`repro.core.rcg` -- the weighted undirected graph over symbolic
  registers: a write-only builder and the frozen, shareable graph every
  reader takes,
* :mod:`repro.core.weights` -- heuristic node/edge weighting drawn from the
  ideal schedule (Section 5),
* :mod:`repro.core.greedy` -- the Figure-4 greedy bank assignment,
* :mod:`repro.core.components` -- connected-component analysis (Section 4.1),
* :mod:`repro.core.copies` -- copy insertion and cluster pinning
  (Section 4, step 4),
* :mod:`repro.core.baselines` -- BUG and naive partitioners for comparison,
* :mod:`repro.core.context` -- the compilation context + pipeline config,
* :mod:`repro.core.passes` -- the five steps as composable passes plus the
  partitioner registry,
* :mod:`repro.core.cache` -- the machine-independent artifact cache,
* :mod:`repro.core.pipeline` -- the end-to-end driver (thin wrapper over
  the pass pipeline),
* :mod:`repro.core.results` -- per-loop metrics consumed by the evaluation
  harness.
"""

from repro.core.rcg import FrozenRCG, RegisterComponentGraph
from repro.core.weights import HeuristicConfig, build_rcg_from_kernel, build_rcg_from_linear
from repro.core.greedy import Partition, greedy_partition
from repro.core.components import connected_components, component_summary
from repro.core.copies import PartitionedLoop, insert_copies
from repro.core.baselines import (
    bug_partition,
    random_partition,
    round_robin_partition,
    single_bank_partition,
)
from repro.core.uas import uas_partition
from repro.core.iterative import refine_partition
from repro.core.wholefn import FunctionCompilation, MixedFunction, compile_function
from repro.core.cache import ArtifactCache, CacheStats
from repro.core.context import CompilationContext, PipelineConfig
from repro.core.passes import (
    PARTITIONERS,
    PassPipeline,
    default_passes,
    register_partitioner,
)
from repro.core.pipeline import CompilationResult, compile_loop
from repro.core.results import LoopMetrics

__all__ = [
    "RegisterComponentGraph",
    "FrozenRCG",
    "HeuristicConfig",
    "build_rcg_from_kernel",
    "build_rcg_from_linear",
    "Partition",
    "greedy_partition",
    "connected_components",
    "component_summary",
    "PartitionedLoop",
    "insert_copies",
    "bug_partition",
    "uas_partition",
    "refine_partition",
    "MixedFunction",
    "FunctionCompilation",
    "compile_function",
    "random_partition",
    "round_robin_partition",
    "single_bank_partition",
    "CompilationResult",
    "CompilationContext",
    "PipelineConfig",
    "PassPipeline",
    "PARTITIONERS",
    "register_partitioner",
    "default_passes",
    "ArtifactCache",
    "CacheStats",
    "compile_loop",
    "LoopMetrics",
]
