"""End-to-end compile hot-path benchmark.

Times the serial evaluation of the quick corpus (40 loops x 6 paper
configurations, no register allocation) and records the wall time plus
the per-pass stage breakdown to a JSON file with the same schema as the
committed baseline ``BENCH_compile.json`` at the repository root.

Because absolute wall time depends on the host, every run also measures a
fixed pure-Python *calibration* workload; the regression gate
(``benchmarks/check_perf_regression.py``) compares calibration-normalized
scores, so a slower CI machine does not read as a compiler regression.

Usage::

    python benchmarks/bench_compile_hotpath.py                  # print + write
    python benchmarks/bench_compile_hotpath.py --output out.json
    python benchmarks/bench_compile_hotpath.py --update-baseline  # refresh root baseline
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_compile.json"
DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "results" / "BENCH_compile.json"

QUICK_N = 40
REPEATS = 3


def calibration_seconds(repeats: int = 3) -> float:
    """Best-of-N timing of a fixed interpreter-bound workload.

    The loop exercises integer arithmetic and dict traffic — the same kind
    of work the compiler hot path does — so its runtime tracks interpreter
    speed on the host and normalizes benchmark scores across machines.
    """
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        d: dict[int, int] = {}
        for i in range(400_000):
            acc = (acc + i * i) % 1_000_003
            d[i & 1023] = acc
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    return best


def disabled_hook_ns(samples: int = 200_000) -> float:
    """Per-invocation cost of one *disabled* tracing hook, in nanoseconds.

    Times the no-op path an instrumentation site reaches when tracing is
    off: a disabled :class:`~repro.obs.PassClock`'s ``substep`` span used
    as a context manager.  (Sub-step sites are even cheaper — a single
    ``enabled`` / ``is not None`` guard — so scaling this by the
    enabled-run span count upper-bounds the true disabled overhead.)
    """
    from repro.obs import PassClock

    clock = PassClock()
    t0 = time.perf_counter()
    for _ in range(samples):
        with clock.span("x", cat="substep"):
            pass
    return (time.perf_counter() - t0) / samples * 1e9


def micro_benchmark(repeats: int = REPEATS) -> dict:
    """Scheduler/partitioner microbenchmark leg.

    Measures raw modulo-reservation throughput (placements/sec: one
    first-free-row probe of packed occupancy words, as an IMS attempt runs
    it, + the occupancy add + its eventual subtract) on the
    same op mix the clustered scheduler sees (ALU ops plus copy-unit
    copies), and greedy-partitioner throughput (nodes/sec over a seeded
    dense RCG).  Best-of-N rates; absolute numbers are host-dependent.
    """
    import random

    from repro.core.greedy import greedy_partition
    from repro.core.rcg import RegisterComponentGraph
    from repro.ir.operations import Opcode, Operation, make_copy
    from repro.ir.registers import RegisterFactory
    from repro.ir.types import DataType
    from repro.machine.machine import CopyModel
    from repro.machine.presets import paper_machine
    from repro.sched.resources import demand_words, resource_geometry

    machine = paper_machine(4, CopyModel.COPY_UNIT)
    rng = random.Random(2026)
    factory = RegisterFactory()
    ops = []
    for _ in range(64):
        cluster = rng.randrange(4)
        if rng.random() < 0.25:
            ops.append(make_copy(factory.new(DataType.INT),
                                 factory.new(DataType.INT), cluster=cluster))
        else:
            op = Operation(opcode=Opcode.ADD, dest=factory.new(DataType.INT),
                           sources=(factory.new(DataType.INT),) * 2)
            op.cluster = cluster
            ops.append(op)

    # the packed row probe of an IMS attempt: one occupancy word per
    # kernel row, demand words, and the geometry's bias/guard fit test
    ii = 16
    words = demand_words(ops, machine)
    starts = [op.op_id % ii for op in ops]
    geom = resource_geometry(machine)
    bias, guard = geom.bias, geom.guard
    best_mrt = 0.0
    for _ in range(repeats):
        occ = [0] * ii
        placements = 0
        t0 = time.perf_counter()
        for round_no in range(60):
            placed = []
            for word, start in zip(words, starts):
                probe = word + bias
                r = (start + round_no) % ii
                for _k in range(ii):
                    if not ((occ[r] + probe) & guard):
                        occ[r] += word
                        placed.append((r, word))
                        placements += 1
                        break
                    r += 1
                    if r == ii:
                        r = 0
            for r, word in placed:
                occ[r] -= word
        best_mrt = max(best_mrt, placements / (time.perf_counter() - t0))

    regs = [factory.new(DataType.INT) for _ in range(160)]
    builder = RegisterComponentGraph()
    for reg in regs:
        builder.add_node_weight(reg, rng.uniform(-2.0, 10.0))
    for _ in range(800):
        a, b = rng.sample(regs, 2)
        builder.add_edge_weight(a, b, rng.uniform(-4.0, 8.0))
    rcg = builder.freeze()  # packed once, outside the timed rounds
    rounds = 20
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(rounds):
            greedy_partition(rcg, 4)
        rate = len(rcg) * rounds / (time.perf_counter() - t0)
        best = rate if best is None or rate > best else best

    # Informational exact-solver leg: branch-and-bound search-node
    # throughput under a fixed node cap.  The biggest corpus loop at 8
    # capacity-constrained banks saturates the cap (the 4-bank problems
    # all prove out in tens of nodes), so the rate tracks per-node solver
    # cost (bound evaluation, memo probes, trail undo) across revisions
    # rather than problem difficulty.  Recorded in BENCH_compile.json
    # history; check_perf_regression reports it but does not gate on it.
    from repro.core.weights import DEFAULT_HEURISTIC, build_rcg_from_kernel
    from repro.ddg.builder import build_loop_ddg
    from repro.exact.bnb import solve_exact
    from repro.exact.cost import build_problem
    from repro.machine.presets import ideal_machine
    from repro.sched.modulo.scheduler import modulo_schedule
    from repro.workloads.corpus import spec95_corpus

    exact_loop = max(spec95_corpus(n=24), key=lambda l: (len(l.ops), l.name))
    exact_node_limit = 20_000
    exact_banks = 8
    ddg = build_loop_ddg(exact_loop)
    ideal = modulo_schedule(exact_loop, ddg, ideal_machine())
    slots = (16 // exact_banks) * ideal.ii
    exact_rcg = build_rcg_from_kernel(ideal, ddg, DEFAULT_HEURISTIC).freeze()
    warm = greedy_partition(exact_rcg, exact_banks, slots_per_bank=slots)
    problem = build_problem(exact_loop, exact_banks, slots, None)
    best_exact = exact_nodes = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, proof = solve_exact(problem, warm=warm, rcg=exact_rcg,
                               node_limit=exact_node_limit)
        exact_rate = proof.nodes / (time.perf_counter() - t0)
        exact_nodes = proof.nodes
        if best_exact is None or exact_rate > best_exact:
            best_exact = exact_rate

    return {
        "mrt_ii": ii,
        "mrt_placements_per_sec": round(best_mrt),
        "partition_nodes_per_sec": round(best),
        "exact_loop": exact_loop.name,
        "exact_search_nodes": exact_nodes,
        "exact_nodes_per_sec": round(best_exact),
    }


def run_benchmark(quick_n: int = QUICK_N, repeats: int = REPEATS) -> dict:
    from repro.core.pipeline import PipelineConfig
    from repro.evalx.runner import run_evaluation
    from repro.obs import Tracer
    from repro.workloads.corpus import spec95_corpus

    loops = spec95_corpus(n=quick_n)
    config = PipelineConfig(run_regalloc=False)
    run_evaluation(loops=loops, config=config)  # warm-up

    # main leg: observability disabled (the default).  Wall and
    # calibration are sampled *adjacently in pairs* so host-speed
    # fluctuations hit both sides of the ratio and cancel; the score is
    # the best pair, which is far more stable across runs than dividing
    # independently-taken minima.
    best_score = best_wall = best_calibration = None
    best_passes: dict[str, float] = {}
    for _ in range(repeats):
        before = calibration_seconds(repeats=1)
        t0 = time.perf_counter()
        run = run_evaluation(loops=loops, config=config)
        wall = time.perf_counter() - t0
        after = calibration_seconds(repeats=1)
        calibration = min(before, after)
        score = wall / calibration
        if best_score is None or score < best_score:
            best_score, best_wall, best_calibration = score, wall, calibration
            best_passes = dict(run.pass_seconds)

    # obs leg: same workload with span tracing + per-cell metrics on,
    # so the enabled overhead stays visible over time
    best_enabled = None
    span_sites = 0
    for _ in range(repeats):
        tracer = Tracer()
        t0 = time.perf_counter()
        run_evaluation(loops=loops, config=config, tracer=tracer,
                       collect_metrics=True)
        wall = time.perf_counter() - t0
        span_sites = len(tracer.spans)
        if best_enabled is None or wall < best_enabled:
            best_enabled = wall

    # disabled-overhead leg: with tracing off, a substep site degenerates
    # to (at most) one no-op PassClock substep span, and a pass span is
    # the pass clock the untraced run above already paid for;
    # cost per call x sites per evaluation, as a fraction of the
    # evaluation wall, bounds what the disabled hooks can possibly cost.
    # check_perf_regression.py gates this at <=2%.
    hook_ns = disabled_hook_ns()
    disabled_overhead = span_sites * hook_ns * 1e-9 / best_wall

    # store leg: the durable-artifact warm path.  One cold evaluation
    # populates a fresh on-disk store; warm re-evaluations answer every
    # cell from it (metrics-only hydration — a two-line read per cell).
    # check_perf_regression.py gates warm at >=10x faster than cold.
    import tempfile

    from repro.store import ArtifactStore

    with tempfile.TemporaryDirectory() as store_dir:
        t0 = time.perf_counter()
        cold_run = run_evaluation(
            loops=loops, config=config, store=ArtifactStore.open(store_dir)
        )
        cold_wall = time.perf_counter() - t0
        best_warm = None
        warm_run = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            warm_run = run_evaluation(
                loops=loops, config=config, store=ArtifactStore.open(store_dir)
            )
            wall = time.perf_counter() - t0
            if best_warm is None or wall < best_warm:
                best_warm = wall
        if warm_run.store_misses or warm_run.store_invalid:
            raise RuntimeError(
                f"warm store leg was not fully warm: "
                f"{warm_run.store_misses} misses, "
                f"{warm_run.store_invalid} invalid"
            )

    # serve leg: the daemon's warm-request path.  A real `repro serve`
    # subprocess on an ephemeral port, one cold submission to populate
    # its store, then repeated warm submissions — measuring the full
    # request round-trip (TCP + line-JSON + store metrics fast path)
    # that a served client actually pays.  Informational, not gated.
    serve_leg = serve_benchmark(quick_n=min(quick_n, 8), repeats=repeats)

    return {
        "benchmark": "compile_hotpath",
        "config": {"quick": quick_n, "repeats": repeats, "run_regalloc": False},
        "calibration_seconds": round(best_calibration, 4),
        "wall_seconds": round(best_wall, 4),
        "normalized_score": round(best_score, 3),
        "pass_seconds": {k: round(v, 4) for k, v in sorted(best_passes.items())},
        "obs": {
            "enabled_wall_seconds": round(best_enabled, 4),
            "enabled_overhead_ratio": round(best_enabled / best_wall, 3),
            "span_sites_per_eval": span_sites,
            "disabled_hook_ns": round(hook_ns, 1),
            "disabled_overhead_ratio": round(disabled_overhead, 6),
        },
        "store": {
            "cells": cold_run.store_misses,
            "cold_wall_seconds": round(cold_wall, 4),
            "warm_wall_seconds": round(best_warm, 4),
            "warm_speedup": round(cold_wall / best_warm, 1),
            "warm_hits": warm_run.store_hits,
        },
        "serve": serve_leg,
        "micro": micro_benchmark(repeats=repeats),
    }


def serve_benchmark(quick_n: int = 8, repeats: int = REPEATS) -> dict:
    """Warm-request latency against a live ``repro serve`` daemon."""
    import os
    import re
    import subprocess
    import tempfile

    from repro.serve.client import ServeClient
    from repro.workloads.corpus import spec95_corpus

    loops = spec95_corpus(n=quick_n)
    with tempfile.TemporaryDirectory() as store_dir:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--store", store_dir, "--port", "0", "--jobs", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        try:
            m = re.search(r"listening on ([\d.]+):(\d+)",
                          proc.stdout.readline())
            host, port = m.group(1), int(m.group(2))
            with ServeClient(host, port, timeout=600.0) as client:
                t0 = time.perf_counter()
                cold = client.submit(loops)
                cold_wall = time.perf_counter() - t0
                if cold.failures:
                    raise RuntimeError(f"served cold pass failed: {cold}")
                best_warm = None
                warm = None
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    warm = client.submit(loops)
                    wall = time.perf_counter() - t0
                    if best_warm is None or wall < best_warm:
                        best_warm = wall
                if warm.compiled or warm.failures:
                    raise RuntimeError(
                        f"served warm pass was not fully warm: "
                        f"{warm.compiled} compiled, {warm.failures} failures"
                    )
                client.shutdown()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    return {
        "loops": quick_n,
        "cells": len(cold.cells),
        "cold_request_seconds": round(cold_wall, 4),
        "warm_request_seconds": round(best_warm, 4),
        "warm_request_ms_per_cell": round(best_warm * 1e3 / len(warm.cells), 3),
        "warm_speedup": round(cold_wall / best_warm, 1),
        "warm_store_hits": warm.store_hits,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", type=int, default=QUICK_N, metavar="N")
    parser.add_argument("--repeats", type=int, default=REPEATS, metavar="R")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
                        help=f"measurement JSON path (default: {DEFAULT_OUTPUT})")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write the committed baseline at the repo root, "
                        "preserving its recorded history section")
    args = parser.parse_args(argv)

    result = run_benchmark(quick_n=args.quick, repeats=args.repeats)
    print(json.dumps(result, indent=2))

    target = BASELINE_PATH if args.update_baseline else args.output
    if args.update_baseline and BASELINE_PATH.exists():
        old = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
        if "history" in old:
            result["history"] = old["history"]
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"\nwritten to {target}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main())
