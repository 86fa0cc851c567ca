"""Frozen digest of the modulo schedules behind the paper tables.

Every cell of the quick-40 corpus on the six paper configurations,
compiled loop-major the way ``repro evaluate`` runs them (default
greedy pipeline, no register allocation, one shared artifact cache),
contributes its loop name, configuration label, ideal-machine II and
issue times and clustered-kernel II and issue times to one SHA-256.
Issue times are hashed in ``times`` dict order, so the order in which
the iterative scheduler last placed each operation is pinned too; each
op is named by its position in the scheduled loop, because op ids depend
on how many operations the process minted before.  A change to
scheduling that moves any II, issue time or placement order changes the
digest.
"""

import hashlib

from repro.core.cache import ArtifactCache
from repro.core.pipeline import PipelineConfig, compile_loop
from repro.evalx.runner import PAPER_CONFIG_ORDER, config_label
from repro.machine.presets import paper_machine
from repro.workloads.corpus import spec95_corpus

FROZEN_DIGEST = "ddd1899e5fd573c481cdcba02c26dd03cda9e0259fa495093dfe53a8dbc7bbe6"


def placement(kernel) -> list[tuple[int, int]]:
    """``list(kernel.times.items())`` with op ids replaced by positions."""
    position = {op.op_id: i for i, op in enumerate(kernel.loop.ops)}
    return [(position[oid], t) for oid, t in kernel.times.items()]


def schedule_digest() -> str:
    config = PipelineConfig(partitioner="greedy", run_regalloc=False, run_check=False)
    machines = [(config_label(n, model), paper_machine(n, model))
                for n, model in PAPER_CONFIG_ORDER]
    cache = ArtifactCache()
    lines = []
    for loop in spec95_corpus(n=40):
        for label, machine in machines:
            result = compile_loop(loop, machine, config, cache=cache)
            lines.append(repr((
                loop.name, label,
                result.ideal.ii, placement(result.ideal),
                result.kernel.ii, placement(result.kernel),
            )))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_schedule_digest_is_frozen():
    assert schedule_digest() == FROZEN_DIGEST
