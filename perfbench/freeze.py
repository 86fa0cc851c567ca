"""Record the frozen per-cell expectations of the default-seed corpus.

Compiles all 211 loops under the six paper configurations without and
with register allocation, and once more as the serve daemon receives
them (printed to IR text and parsed back, which renumbers registers and
so can change a tie-break), and writes one LoopMetrics digest per cell
to ``perfbench/expected_1995.json``.  Run it only on a commit whose
tables are known good (the benchmark treats any later difference as a
wrong answer)::

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench.common import DEFAULT_SEED, EXPECTED, corpus, digest, require_repro  # noqa: E402


def main() -> int:
    require_repro()
    from perfbench.batch import BATCH_WORKLOADS
    from repro.core.pipeline import PipelineConfig
    from repro.evalx.runner import run_evaluation
    from repro.ir.parser import parse_loop
    from repro.ir.printer import format_loop

    loops = corpus(DEFAULT_SEED, None)
    parsed = [parse_loop(format_loop(loop)) for loop in loops]
    doc: dict = {"seed": DEFAULT_SEED, "loops": [loop.name for loop in loops]}
    grids = [(w.expectations, loops, w.settings) for w in BATCH_WORKLOADS.values()]
    grids.append(("served", parsed, {"run_regalloc": False}))
    for key, grid, settings in grids:
        run = run_evaluation(loops=grid, config=PipelineConfig(**settings))
        if run.failures:
            raise SystemExit(f"cannot freeze: {len(run.failures)} failed cells")
        doc[key] = {
            label: [digest(m) for m in cells]
            for label, cells in run.per_config.items()
        }
    EXPECTED.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
