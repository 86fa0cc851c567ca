"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-grid --seed 1995 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
beyond one timer per compiled cell; ``--trace 1`` measures the same work
alternately untraced and through the per-layer span ledger
(:mod:`perfbench.ledger`) and prints the per-layer metrics instead.
Every run checks the outputs (see :mod:`perfbench.common`).

Standard output carries a run record (host calibration before and after,
pass walls, the oracle sample) and, as its last line, the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The metric names and units are the ones ``BENCHMARK.json`` declares.
``--loops N`` keeps only the first N corpus loops (the smoke test's tiny
size).  Without compiler sources under ``src/`` the run exits 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench.common import ROOT, BenchError, require_repro, scratch_dir  # noqa: E402

#: why each workload is in the benchmark (BENCHMARK.json repeats these)
WORKLOADS: dict[str, str] = {
    "paper-grid": (
        "repro evaluate: 211 loops x 6 configs regenerating Tables 1-2; "
        "DDG, scheduling, RCG, greedy and copies do the work; regalloc and "
        "store are bypassed"
    ),
    "regalloc-sample": (
        "a seeded size-stratified draw of 105 loops of up to 46 ops x 6 configs "
        "with register allocation on, the only workload where assign_banks "
        "dominates"
    ),
    "served-mixed": (
        "one closed-loop client against a repro serve daemon on a fresh store: "
        "each round writes a third of the corpus, then reads it back one loop "
        "per request"
    ),
}


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 cap: int | None) -> dict:
    with scratch_dir() as tmp:
        if name == "served-mixed":
            from perfbench.served import run_served

            return run_served(seed, seconds, trace, cap, tmp)
        from perfbench.batch import BATCH_WORKLOADS, run_batch

        return run_batch(BATCH_WORKLOADS[name], seed, seconds, trace, cap, tmp)


def with_units(values: dict[str, float], declared: dict[str, str],
               fill_missing: bool) -> dict:
    """Attach declared units; every value must be a declared metric.
    End-to-end metrics must all be present; a per-layer metric a workload
    never touched (no daemon, no register allocation) reads 0."""
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise BenchError(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(set(declared) - set(values))
    if missing and not fill_missing:
        raise BenchError(f"declared metrics not measured: {missing}")
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in declared.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1995,
                        help="corpus and draw seed (1995 = the published corpus)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--loops", type=int, default=None, metavar="N",
                        help="keep only the first N corpus loops")
    args = parser.parse_args(argv)

    try:
        require_repro()
        end_to_end, per_layer = declared_metrics()
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.loops)
        metrics = with_units(
            result["metrics"], per_layer if args.trace else end_to_end,
            fill_missing=bool(args.trace),
        )
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, **result["record"]}
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
