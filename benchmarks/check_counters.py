"""Work-counter gate: the repository benchmark's counters, compared exactly.

Runs the repository benchmark (``perfbench/run.py``) with its per-layer
ledger on (``--trace 1``) over the first 40 corpus loops of each gated
workload, and compares every integer counter of the result -- DDG builds
and edges, II attempts, copies inserted, cache hits, ... -- with the
committed ``benchmarks/counters_baseline.json``.  Counters count work,
not time, so they do not drift with the host: any difference means the
compiler now does different work.  The gate then fails and prints a
diff.  A change that moves a counter on purpose reruns this script with
``--update`` and commits the new baseline alongside the change.

Usage (from anywhere; the benchmark sets up its own import path)::

    python benchmarks/check_counters.py            # run, compare, exit 1 on a diff
    python benchmarks/check_counters.py --update   # run, rewrite the baseline
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "benchmarks" / "counters_baseline.json"

WORKLOADS = ("paper-grid", "regalloc-sample")
#: the quick-40 slice, one traced pass is enough: the counters are exact
ARGS = ("--seed", "1995", "--loops", "40", "--seconds", "1", "--trace", "1")


def measure(workload: str) -> dict[str, int]:
    """The integer counters of one traced benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, *ARGS]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: the benchmark run was not correct: {result}")
    return {
        name: metric["value"]
        for name, metric in sorted(result["metrics"].items())
        if isinstance(metric["value"], int) and not isinstance(metric["value"], bool)
    }


def diff(baseline: dict[str, int], current: dict[str, int]) -> list[str]:
    """One line per counter that differs, appeared or disappeared."""
    lines = []
    for name in sorted(set(baseline) | set(current)):
        old, new = baseline.get(name), current.get(name)
        if old != new:
            lines.append(f"  {name}: {old} -> {new}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline with this run's counters")
    args = parser.parse_args(argv)

    current = {workload: measure(workload) for workload in WORKLOADS}
    if args.update:
        doc = {"command": ["python3", "perfbench/run.py", "--workload", "W", *ARGS],
               "workloads": current}
        BASELINE_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")
        print(f"wrote {BASELINE_PATH.relative_to(REPO_ROOT)}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))["workloads"]
    failed = False
    for workload in WORKLOADS:
        lines = diff(baseline.get(workload, {}), current[workload])
        if lines:
            failed = True
            print(f"{workload}: {len(lines)} counter(s) differ from the baseline "
                  f"(baseline -> current):")
            print("\n".join(lines))
        else:
            print(f"{workload}: all {len(current[workload])} counters match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
