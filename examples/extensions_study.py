#!/usr/bin/env python3
"""The paper's future-work directions, implemented and measured.

Section 6.3 and Section 7 sketch four follow-ons; this script runs all of
them on a corpus slice and prints the effect of each:

1. **iteration on the partition** (Nystrom/Eichenberger's phase, which
   the paper calls the step after its greedy) — mean degradation and
   zero-degradation share, greedy vs greedy+iteration;
2. **Swing modulo scheduling** (lifetime-sensitive; the scheduler the
   comparison work used) — II and register pressure vs Rau's IMS;
3. **loop unrolling** (more data-independent parallelism in innermost
   loops) — per-original-iteration cost at x1/x2/x4;
4. **stochastic heuristic tuning** — random-search over the "ad hoc"
   weighting constants on a training set.

Run:  python examples/extensions_study.py
"""

import statistics

from repro.core import PipelineConfig, compile_loop
from repro.core.tuning import describe_config, tune_heuristic
from repro.ddg import build_loop_ddg
from repro.machine import CopyModel, ideal_machine, paper_machine
from repro.regalloc import build_interference, cyclic_liveness, plan_mve
from repro.sched import modulo_schedule, swing_modulo_schedule
from repro.transform import unroll_loop
from repro.workloads import make_kernel, spec95_corpus
from repro.workloads.synthetic import PROFILES, SyntheticLoopGenerator


def study_iteration(loops, machine):
    print("1. partition iteration (4x4 embedded, ideal = 100)")
    for which in ("greedy", "iterative"):
        vals, zero = [], 0
        for loop in loops:
            r = compile_loop(loop, machine, PipelineConfig(partitioner=which, run_regalloc=False))
            vals.append(r.metrics.normalized_kernel)
            zero += r.metrics.zero_degradation
        print(f"   {which:10s} mean {statistics.mean(vals):6.1f}   "
              f"zero-degradation {100 * zero / len(loops):.0f}%")


def study_swing(loops):
    print("\n2. scheduler: IMS vs Swing (ideal 16-wide)")
    m = ideal_machine()
    for label, scheduler in (("IMS", modulo_schedule), ("Swing", swing_modulo_schedule)):
        iis, pressure = [], []
        for loop in loops:
            ddg = build_loop_ddg(loop)
            ks = scheduler(loop, ddg, m)
            liv = cyclic_liveness(ks, ddg)
            pressure.append(build_interference(plan_mve(liv)).max_pressure)
            iis.append(ks.ii)
        print(f"   {label:6s} mean II {statistics.mean(iis):5.2f}   "
              f"mean MaxLive {statistics.mean(pressure):5.1f}")


def study_unrolling(machine):
    print("\n3. unrolling (recurrence kernels, 4x4 embedded)")
    kernels = ("lfk5_tridiag", "lfk11_psum", "dot", "rec_d2")
    for factor in (1, 2, 4):
        per_iter = []
        for name in kernels:
            loop = unroll_loop(make_kernel(name), factor)
            r = compile_loop(loop, machine, PipelineConfig(run_regalloc=False))
            per_iter.append(r.metrics.partitioned_ii / factor)
        print(f"   x{factor}: II per original iteration "
              f"{statistics.mean(per_iter):5.2f}")


def study_tuning(machine):
    print("\n4. stochastic heuristic tuning (12 training loops, 8 trials)")
    gen = SyntheticLoopGenerator(4242)
    names = sorted(PROFILES)
    training = [gen.generate(f"tr_{i}", PROFILES[names[i % len(names)]]) for i in range(12)]
    result = tune_heuristic(training, machine, n_trials=8, seed=7)
    print(f"   incumbent {result.incumbent_objective:6.1f} -> "
          f"tuned {result.best_objective:6.1f} ({result.improvement:+.1f})")
    print(f"   best: {describe_config(result.best_config)}")


def main() -> None:
    machine = paper_machine(4, CopyModel.EMBEDDED)
    loops = spec95_corpus()[:50]
    study_iteration(loops, machine)
    study_swing(loops)
    study_unrolling(machine)
    study_tuning(machine)


if __name__ == "__main__":
    main()
