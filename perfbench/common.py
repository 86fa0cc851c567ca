"""Pieces every workload shares: the checkout's paths, the corpus, the
correctness check, set-up probes, statistics and the host-drift
calibration loop."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = pathlib.Path(__file__).resolve().parent
#: scratch space of a run (temp stores, daemon ledgers), inside the checkout
WORK = ROOT / ".bench_work"
EXPECTED = HERE / "expected_1995.json"

#: the published corpus seed; only it has frozen expectations
DEFAULT_SEED = 1995
#: cells per run recompiled with the simulator and the repro.check oracles
SAMPLE_CELLS = 12


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, daemon would not start)."""


def require_repro() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no compiler sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


def subprocess_env(tmp: pathlib.Path) -> dict[str, str]:
    """Environment for child processes: this checkout's sources, and a
    temp directory inside the run's scratch space."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


@contextmanager
def scratch_dir():
    """A fresh directory under :data:`WORK` for one run, removed
    afterwards; the run's temp files go there too."""
    WORK.mkdir(exist_ok=True)
    path = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    tempfile.tempdir = str(path)
    try:
        yield path
    finally:
        tempfile.tempdir = None
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def corpus(seed: int, cap: int | None):
    """The 211-loop corpus for ``seed``; ``cap`` keeps its first loops
    (the smoke test's tiny size) so loop identities never change."""
    from repro.workloads.corpus import spec95_corpus

    loops = spec95_corpus(seed=seed)
    return loops[:cap] if cap else loops


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------


def digest(metrics) -> str:
    """Content digest of one cell's LoopMetrics."""
    blob = json.dumps(dataclasses.asdict(metrics), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class Expectations:
    """Frozen per-cell LoopMetrics digests of the default-seed corpus.

    ``freeze.py`` records them from a known-good commit; a later commit
    must reproduce every one, because the paper tables stay identical.
    ``table`` names the path: ``no_regalloc`` (``repro evaluate``),
    ``regalloc`` (register allocation on) or ``served`` (the loops as the
    daemon sees them, parsed back from their IR text).
    """

    def __init__(self, seed: int, table: str):
        self.table: dict[tuple[str, str], str] | None = None
        if seed != DEFAULT_SEED:
            return
        doc = json.loads(EXPECTED.read_text(encoding="utf-8"))
        by_label = doc[table]
        self.table = {
            (loop, label): digests[i]
            for label, digests in by_label.items()
            for i, loop in enumerate(doc["loops"])
        }

    def wrong(self, loop_name: str, label: str, metrics) -> bool:
        """True when the cell contradicts its frozen expectation."""
        if self.table is None:
            return False
        return self.table.get((loop_name, label)) != digest(metrics)


def oracle_sample(cells, config, seed: int, count: int = SAMPLE_CELLS):
    """Recompile a seeded sample of cells outside the timed region, with
    the reference-interpreter equivalence check and the repro.check
    oracles on.  Returns the sampled keys and those of the cells that
    failed a check or came back with other metrics.

    ``cells`` maps (loop name, label) to (loop, machine, timed metrics);
    ``config`` is the PipelineConfig the timed cells were compiled with.
    """
    from repro.core.pipeline import compile_loop

    config = dataclasses.replace(config, run_simulation=True, run_check=True)
    keys = sorted(cells)
    sample = random.Random(f"oracle:{seed}").sample(keys, min(count, len(keys)))
    wrong = []
    for key in sample:
        loop, machine, timed = cells[key]
        try:
            checked = compile_loop(loop, machine, config).metrics
        except Exception as exc:  # an oracle violation or a crash: both wrong
            print(f"oracle check failed on {key}: {exc!r}", file=sys.stderr)
            wrong.append(key)
            continue
        if dataclasses.replace(checked, sim_checked=timed.sim_checked) != timed:
            print(f"oracle recompile of {key} gave other metrics", file=sys.stderr)
            wrong.append(key)
    return sample, wrong


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------


def _interpreter_loop(iterations: int) -> float:
    """Seconds for a fixed interpreter-bound loop: integer arithmetic and
    dict traffic, the same kind of work as the compiler's hot path."""
    t0 = time.perf_counter()
    acc = 0
    d: dict[int, int] = {}
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
        d[i & 1023] = acc
    return time.perf_counter() - t0


def calibration_seconds() -> float:
    """The host-drift diagnostic recorded before and after every run
    (the ``calibration_seconds`` idiom of the compile hot-path bench);
    never a metric itself."""
    return _interpreter_loop(400_000)


#: what one speed probe takes on the reference host; timings are scaled
#: to it, because on a shared host the interpreter's speed can wander by
#: 1.8x within a minute, in CPU time as much as in wall time (measured on
#: a 2-vCPU cloud VM), which makes raw times of two runs incomparable
PROBE_REFERENCE_S = 0.002
#: seconds of measured work between two speed probes
PROBE_EVERY_S = 0.25


def speed_probe() -> float:
    """Fastest of three timings of a short fixed loop: the host's current
    speed, with a preemption during one timing filtered out."""
    return min(_interpreter_loop(10_000) for _ in range(3))


class SpeedTracker:
    """Probes the host's speed between units of measured work (cells,
    requests), at most every :data:`PROBE_EVERY_S`, and scales each unit's
    time by the speed measured around it.  Probes cost about 2% of a run
    and run outside every timed unit."""

    def __init__(self) -> None:
        self.probes = [speed_probe()]
        self.probe_seconds = 0.0
        self._last = time.perf_counter()

    @property
    def segment(self) -> int:
        """Index of the stretch between the last probe and the next."""
        return len(self.probes) - 1

    def between_units(self, force: bool = False) -> None:
        """Probe now if the last probe is old enough (or ``force``)."""
        now = time.perf_counter()
        if force or now - self._last >= PROBE_EVERY_S:
            self.probes.append(speed_probe())
            self._last = time.perf_counter()
            self.probe_seconds += self._last - now

    def factor(self, segment: int) -> float:
        """Scale turning a time measured in ``segment`` into the time the
        same work takes on the reference host (call after a final
        ``between_units(force=True)``)."""
        before, after = self.probes[segment], self.probes[segment + 1]
        return PROBE_REFERENCE_S / ((before + after) / 2)


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def setup_probe_seconds(
    seed: int, statement: str, tmp: pathlib.Path, repeats: int = 5
) -> float:
    """Median time of a fresh interpreter importing the compiler,
    generating the corpus and running ``statement`` -- the set-up a user
    of ``repro evaluate`` pays before the first cell compiles -- scaled to
    the reference host."""
    code = (
        "from repro.evalx.runner import run_evaluation\n"
        "from repro.workloads.corpus import spec95_corpus\n"
        f"loops = spec95_corpus(seed={seed})\n"
        f"{statement}\n"
    )
    speed = SpeedTracker()
    samples = []
    for _ in range(repeats):
        segment = speed.segment
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=subprocess_env(tmp),
            check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        samples.append((time.perf_counter() - t0, segment))
        speed.between_units(force=True)
    return statistics.median(t * speed.factor(k) for t, k in samples)
