"""Scheduler ablation — standard IMS vs Swing modulo scheduling.

Section 6.3 flags the IMS/SMS difference as a confound in the
Nystrom/Eichenberger comparison ("Certainly this could have an effect on
the partitioning of registers").  This bench quantifies it on a corpus
slice: SMS must match IMS's achieved II while reducing cyclic register
pressure (MaxLive over the MVE timeline), its published characteristic.
"""

import statistics

from repro.ddg.builder import build_loop_ddg
from repro.machine.presets import ideal_machine
from repro.regalloc.interference import build_interference
from repro.regalloc.liveness import cyclic_liveness
from repro.regalloc.mve import plan_mve
from repro.sched.modulo.scheduler import modulo_schedule
from repro.sched.modulo.swing import swing_modulo_schedule

from .conftest import write_artifact


def run_scheduler(loops, scheduler):
    machine = ideal_machine()
    iis, pressures = [], []
    for loop in loops:
        ddg = build_loop_ddg(loop)
        kernel = scheduler(loop, ddg, machine)
        liv = cyclic_liveness(kernel, ddg)
        graph = build_interference(plan_mve(liv))
        iis.append(kernel.ii)
        pressures.append(graph.max_pressure)
    return statistics.mean(iis), statistics.mean(pressures)


def test_swing_vs_ims(benchmark, corpus, results_dir):
    subset = corpus[:60]
    sms_ii, sms_pressure = benchmark(run_scheduler, subset, swing_modulo_schedule)
    ims_ii, ims_pressure = run_scheduler(subset, modulo_schedule)

    lines = [
        "Scheduler comparison (ideal 16-wide machine, 60 loops):",
        f"  {'scheduler':10s} {'mean II':>8s} {'mean MaxLive':>13s}",
        f"  {'IMS (Rau)':10s} {ims_ii:8.2f} {ims_pressure:13.1f}",
        f"  {'SMS':10s} {sms_ii:8.2f} {sms_pressure:13.1f}",
        f"  pressure reduction: {100 * (1 - sms_pressure / ims_pressure):.1f}%",
    ]
    write_artifact(results_dir, "swing_vs_ims.txt", "\n".join(lines))

    # SMS trades nothing meaningful on II...
    assert sms_ii <= ims_ii * 1.05
    # ...and buys real register-pressure headroom
    assert sms_pressure < ims_pressure
