"""Frozen digest of the function-level driver.

``compile_function`` over the synthetic function corpus on three
clustered machines, plus over the loops-and-blocks fixture of
``test_mixed`` on 2, 4 and 8 clusters, hashed into one SHA-256.  The
hash covers every metric and clustered schedule text the driver
reports; register ids are left out because they depend on the order in
which registers are minted.  A change to the driver that moves
any partition, copy or schedule changes the digest.
"""

import hashlib

from repro.core.wholefn import compile_function
from repro.machine.machine import CopyModel
from repro.machine.presets import paper_machine, prior_work_machine_4wide
from repro.workloads.functions import function_corpus
from tests.test_mixed import build_mixed

FROZEN_DIGEST = "21e329a94e8414157b5b392be333d1070097beca0aaf68fa11cd2b02680547d2"


def function_lines(result):
    lines = [
        f"degradation {result.degradation_pct!r}",
        f"copies {result.n_copies} entry {result.n_entry_copies}",
    ]
    for name, sched in result.clustered_schedules.items():
        lines += [f"block {name}", sched.format()]
    return lines


def mixed_lines(result):
    lines = [
        f"loop degradation {result.loop_degradation_pct()!r}",
        f"weighted degradation {result.weighted_degradation_pct()!r}",
    ]
    for name, kernel in result.clustered_kernels.items():
        lines += [f"loop {name}", kernel.format()]
    for name, sched in result.clustered_schedules.items():
        lines += [f"block {name}", sched.format()]
    return lines


def function_path_digest() -> str:
    lines = []
    machines = (
        prior_work_machine_4wide(),
        paper_machine(4, CopyModel.EMBEDDED),
        paper_machine(2, CopyModel.COPY_UNIT),
    )
    for machine in machines:
        for fn in function_corpus():
            lines += [f"== {machine.name} {fn.name}"]
            lines += function_lines(compile_function(fn, machine))
    for n_clusters in (2, 4, 8):
        mixed, _loop, _f4 = build_mixed()
        lines += [f"== mixed {n_clusters}"]
        machine = paper_machine(n_clusters, CopyModel.EMBEDDED)
        lines += mixed_lines(compile_function(mixed.function, machine, loops=mixed.loops))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_function_path_digest_is_frozen():
    assert function_path_digest() == FROZEN_DIGEST
