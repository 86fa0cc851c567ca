"""served-mixed: one closed-loop client against a ``repro serve`` daemon.

Each round starts ``repro serve --jobs 1`` on a fresh store inside the
checkout and talks to it over one :class:`~repro.serve.client
.ServeClient` connection, each request sent once the previous one is
done.  The round first submits its share of the corpus in one request
(every cell compiled, then written to the store), then one-loop requests
drawn with replacement from those loops (every cell a store read), as
many as the loops written, so half the cells are each.  It ends by
reading the daemon's ``stats``, draining it with ``shutdown`` and
requiring exit status 0.

Why writes come first: on a daemon whose worker has already forked,
loops parsed later can receive register and operation ids that the
worker also hands out to the copies it inserts; such a loop compiles to
wrong code.  Interleaving new loops with repeats triggers that, so every
loop of a round is parsed before the first compile.

Round ``k`` writes chunk ``k mod 3`` of a seeded permutation of the
corpus, so the first three rounds cover every loop once; the quality
metrics come from those rounds.  A traced run pairs an untraced round
with a traced one on the same requests; the traced daemon runs through
``traced_serve.py``, whose workers keep the per-layer ledger.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
import re
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from perfbench.common import (
    HERE,
    ROOT,
    BenchError,
    Expectations,
    calibration_seconds,
    corpus,
    oracle_sample,
    percentile,
    SpeedTracker,
    subprocess_env,
)
from perfbench.ledger import LAYERS, Ledger

#: rounds that together write every corpus loop once
CORPUS_ROUNDS = 3
DAEMON_TIMEOUT_S = 60.0


def round_requests(loops: list, seed: int, round_no: int) -> tuple[list, list]:
    """(loops written in one request, loops read one per request)."""
    order = random.Random(f"served-mixed:{seed}").sample(loops, len(loops))
    size = math.ceil(len(order) / CORPUS_ROUNDS)
    part = round_no % CORPUS_ROUNDS
    written = order[part * size:(part + 1) * size]
    rng = random.Random(f"served-mixed:{seed}:{round_no}")
    return written, [rng.choice(written) for _ in written]


class Daemon:
    """One ``repro serve`` subprocess, started and waited for."""

    def __init__(self, store: pathlib.Path, tmp: pathlib.Path,
                 ledger_dir: pathlib.Path | None):
        args = ["serve", "--store", str(store), "--port", "0", "--jobs", "1"]
        if ledger_dir is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"), str(ledger_dir), *args]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=subprocess_env(tmp), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], DAEMON_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        self.start_s = time.perf_counter() - t0
        found = re.search(r"listening on ([\d.]+):(\d+)", line)
        if found is None:
            self.kill()
            raise BenchError(f"daemon did not start: {line.strip()!r}")
        self.host, self.port = found.group(1), int(found.group(2))

    def peak_rss_mb(self) -> float:
        """Peak resident set of the daemon plus its worker processes."""
        total_kb = 0
        for entry in pathlib.Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
                ppid = int(stat.rsplit(")", 1)[1].split()[1])
                if self.proc.pid not in (int(entry.name), ppid):
                    continue
                for line in (entry / "status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except (OSError, ValueError, IndexError):
                continue  # the process ended while we looked
        return total_kb / 1024

    def wait(self) -> int:
        """Exit status after a drain (the daemon's last lines are read)."""
        try:
            self.proc.communicate(timeout=DAEMON_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def _connect(host: str, port: int, traced: bool):
    """A client; a traced round's also stamps each ``accepted`` line."""
    from repro.serve.client import ServeClient

    class AcceptTimedClient(ServeClient):
        accepted_at = 0.0

        def _response(self) -> dict:
            doc = super()._response()
            if doc.get("type") == "accepted":
                self.accepted_at = time.perf_counter()
            return doc

    return (AcceptTimedClient if traced else ServeClient)(host, port, timeout=120.0)


@dataclass
class Round:
    """One daemon's life.  Times are (raw value, speed segment) pairs
    until :meth:`rescale` turns them into reference-host values."""

    traced: bool
    speed: SpeedTracker
    start_s: tuple = (0.0, 0)
    #: time the requests took (as measured, and scaled), and the cells
    #: per second they delivered
    measured_busy_s: float = 0.0
    busy_s: float = 0.0
    cells_per_s: float = 0.0
    peak_rss_mb: float = 0.0
    exit_status: int = 0
    write_ms: list = field(default_factory=list)
    #: one-loop read requests: latency, and each cell's arrival after submit
    request_ms: list = field(default_factory=list)
    cell_ms: list = field(default_factory=list)
    accept_ms: list = field(default_factory=list)
    #: (loop name, label, metrics) of every cell that came back ok
    cells: list[tuple] = field(default_factory=list)
    sources: dict[str, int] = field(default_factory=dict)
    requests: int = 0
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    refused_requests: int = 0
    stats: dict = field(default_factory=dict)
    ledger: Ledger | None = None
    mismatches: list[str] = field(default_factory=list)
    #: scale to the reference host (request-time-weighted mean)
    factor: float = 1.0

    def submit(self, client, texts: list[str], probe_inside: bool = False):
        """One request, tallied.  Returns its time as (ms, speed segment)
        pieces -- the host's speed is probed between streamed cells when
        ``probe_inside``, outside the pieces -- and each cell's arrival
        after submit as (ms, segment); None when the daemon refused it."""
        from repro.serve.client import ServeError

        n_cells = 6 * len(texts)
        self.requests += 1
        self.attempted += n_cells
        speed = self.speed
        arrivals: list[float] = []
        pieces = [[time.perf_counter(), speed.segment]]

        def on_cell(_cell) -> None:
            now = time.perf_counter()
            arrivals.append(now)
            if probe_inside and len(arrivals) < n_cells:
                segment = speed.segment
                speed.between_units()
                if speed.segment != segment:
                    pieces[-1].append(now)
                    pieces.append([time.perf_counter(), speed.segment])

        t0 = pieces[0][0]
        try:
            result = client.submit(texts, on_cell=on_cell)
        except ServeError:
            self.refused += n_cells
            self.refused_requests += 1
            return None
        pieces[-1].append(time.perf_counter())
        speed.between_units()
        segment = pieces[0][1]
        if self.traced:
            self.accept_ms.append(((client.accepted_at - t0) * 1e3, segment))
        for cell in result.cells:
            self.sources[cell.source] = self.sources.get(cell.source, 0) + 1
            if cell.ok:
                self.cells.append((cell.loop_name, cell.config, cell.metrics))
            else:
                self.failed += 1
        timing = [((end - start) * 1e3, k) for start, k, end in pieces]
        return timing, [((t - t0) * 1e3, segment) for t in arrivals]

    def rescale(self) -> None:
        """Scale every time to the reference host (after the run's last
        probe); cells per second count the time requests took."""
        factor = self.speed.factor

        def scale(pieces) -> float:
            return sum(ms * factor(k) for ms, k in pieces)

        timed = [self.write_ms, *self.request_ms]
        self.measured_busy_s = sum(ms for t in timed for ms, _k in t) / 1e3
        self.busy_s = sum(map(scale, timed)) / 1e3
        self.factor = self.busy_s / self.measured_busy_s
        self.cells_per_s = (self.attempted - self.refused) / self.busy_s
        self.start_s = scale([self.start_s])
        self.write_ms = scale(self.write_ms)
        self.request_ms = [scale(pieces) for pieces in self.request_ms]
        self.cell_ms = [scale([pair]) for pair in self.cell_ms]
        self.accept_ms = [scale([pair]) for pair in self.accept_ms]


def _run_round(written: list[str], reads: list[str], tmp: pathlib.Path,
               traced: bool, round_dir: pathlib.Path, speed: SpeedTracker) -> Round:
    rnd = Round(traced=traced, speed=speed)
    ledger_dir = round_dir / "ledger" if traced else None
    if ledger_dir is not None:
        ledger_dir.mkdir(parents=True)
    segment = speed.segment
    daemon = Daemon(round_dir / "store", tmp, ledger_dir)
    rnd.start_s = (daemon.start_s, segment)
    speed.between_units(force=True)
    try:
        with _connect(daemon.host, daemon.port, traced) as client:
            outcome = rnd.submit(client, written, probe_inside=True)
            if outcome is not None:
                rnd.write_ms = outcome[0]
            for text in reads:
                outcome = rnd.submit(client, [text])
                if outcome is not None:
                    rnd.request_ms.append(outcome[0])
                    rnd.cell_ms.extend(outcome[1])
            rnd.stats = client.stats()
            rnd.peak_rss_mb = daemon.peak_rss_mb()
            client.shutdown()
        rnd.exit_status = daemon.wait()
    finally:
        daemon.kill()
    if ledger_dir is not None:
        rnd.ledger = Ledger()
        for path in sorted(ledger_dir.glob("worker-*.json")):
            rnd.ledger.absorb(json.loads(path.read_text(encoding="utf-8")))
    rnd.mismatches = _cross_check(rnd)
    return rnd


def _cross_check(rnd: Round) -> list[str]:
    """The client's tallies must equal the daemon's own counters."""
    server, worker = rnd.stats["server_store"], rnd.stats["worker_store"]
    counters = rnd.stats["metrics"]["counters"]
    compiled = rnd.sources.get("compiled", 0) + rnd.sources.get("inflight", 0)
    checks = {
        "store hits": (rnd.sources.get("store", 0), server["hits"]),
        "store misses": (compiled, server["misses"]),
        "store writes": (rnd.sources.get("compiled", 0), worker["writes"]),
        "requests": (rnd.requests - rnd.refused_requests,
                     counters.get("serve.requests", 0)),
        "refusals": (rnd.refused_requests, counters.get("serve.refused", 0)),
        "exit status": (0, rnd.exit_status),
    }
    return [
        f"{what}: client {mine} != daemon {theirs}"
        for what, (mine, theirs) in checks.items() if mine != theirs
    ]


def run_served(seed: int, seconds: float, trace: bool, cap: int | None,
               tmp: pathlib.Path) -> dict:
    from repro.ir.printer import format_loop

    record: dict = {"calibration_before_s": calibration_seconds()}
    loops = corpus(seed, cap)
    rounds: list[Round] = []
    speed = SpeedTracker()
    t_start = time.perf_counter()
    round_no = 0
    while True:
        written, reads = round_requests(loops, seed, round_no)
        written = [format_loop(loop) for loop in written]
        reads = [format_loop(loop) for loop in reads]
        for traced in ((False, True) if trace else (False,)):
            round_dir = tmp / f"round-{len(rounds)}"
            rounds.append(_run_round(written, reads, tmp, traced, round_dir, speed))
        round_no += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds and (trace or round_no >= CORPUS_ROUNDS):
            break
    record["calibration_after_s"] = calibration_seconds()
    speed.between_units(force=True)
    record["daemon_start_s"] = [r.start_s[0] for r in rounds]
    for rnd in rounds:
        rnd.rescale()
    record["round_busy_s"] = [r.busy_s for r in rounds]
    record["speed_factors"] = [r.factor for r in rounds]
    record["cross_check"] = [m for r in rounds for m in r.mismatches]

    check = _check(rounds, loops, seed)
    record.update(check)
    metrics = _layer_metrics(rounds) if trace else _end_to_end(rounds, check)
    return {
        "record": record,
        "correct": check["wrong"] == 0 and not record["cross_check"],
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": metrics,
    }


def _check(rounds: list[Round], loops: list, seed: int) -> dict:
    """Every served cell must equal a local compilation of the same loop
    text, which in turn must match the frozen expectations (default
    seed); a seeded sample of the local cells goes through the oracles."""
    from repro.core.pipeline import PipelineConfig
    from repro.evalx.runner import run_evaluation
    from repro.ir.parser import parse_loop
    from repro.ir.printer import format_loop

    served_names = {name for rnd in rounds for name, _label, _m in rnd.cells}
    # the daemon compiles the loop parsed back from its text; so does the
    # reference (the round trip renumbers registers, which can move a tie)
    parsed = [parse_loop(format_loop(loop)) for loop in loops
              if loop.name in served_names]
    # the daemon's own default: no register allocation
    config = PipelineConfig(run_regalloc=False)
    local = run_evaluation(loops=parsed, config=config)
    reference = {
        (m.loop_name, label): m
        for label, cells in local.per_config.items() for m in cells
    }
    expected = Expectations(seed, "served")
    wrong_keys = {
        key for key, m in reference.items() if expected.wrong(*key, m)
    }
    by_name = {loop.name: loop for loop in parsed}
    sample, bad = oracle_sample(
        {key: (by_name[key[0]], local.machines[key[1]], m)
         for key, m in reference.items()},
        config, seed,
    )
    wrong_keys.update(bad)
    wrong = mismatched = 0
    for rnd in rounds:
        for name, label, m in rnd.cells:
            if (name, label) in wrong_keys:
                wrong += 1
            elif reference.get((name, label)) != m:
                wrong += 1
                mismatched += 1
    return {
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed + r.refused for r in rounds),
        "wrong": wrong,
        "served_differs_from_local": mismatched,
        "local_failures": len(local.failures),
        "oracle_sample": [list(key) for key in sample],
        "frozen_expectations": expected.table is not None,
    }


def _end_to_end(rounds: list[Round], check: dict) -> dict:
    attempted = check["attempted"]
    # every corpus cell once: what the first rounds wrote
    written = {
        (name, label): m
        for r in rounds[:CORPUS_ROUNDS] for name, label, m in r.cells
    }
    quality = list(written.values())

    def per_round(values: str, pct: int) -> float:
        # the median daemon's percentile: a stretch of host hiccups that
        # hits one round's tail does not move it
        return statistics.median(percentile(getattr(r, values), pct) for r in rounds)

    return {
        "setup_s": statistics.median(r.start_s for r in rounds),
        "cells_per_s": statistics.median(r.cells_per_s for r in rounds),
        "cell_ms_p50": per_round("cell_ms", 50),
        "cell_ms_p95": per_round("cell_ms", 95),
        "request_ms_p50": per_round("request_ms", 50),
        "request_ms_p95": per_round("request_ms", 95),
        "cells_ok_frac": (attempted - check["failed"]) / attempted,
        "cells_correct_frac": (attempted - check["wrong"]) / attempted,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
        "kernel_ipc_mean": statistics.fmean(m.partitioned_ipc for m in quality),
        "body_copies_per_cell": statistics.fmean(m.n_body_copies for m in quality),
    }


def _layer_metrics(rounds: list[Round]) -> dict:
    """Per-layer numbers of the first traced round (its requests are fixed
    by the seed, so its counters repeat exactly)."""
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    rnd = traced[0]
    server, worker = rnd.stats["server_store"], rnd.stats["worker_store"]
    out: dict[str, float] = dict(rnd.ledger.counts)
    out.update({
        f"{layer}.self_s": rnd.ledger.self_s[layer] * rnd.factor for layer in LAYERS
    })
    out.update({
        "store.hits": server["hits"] + worker["hits"],
        "store.misses": server["misses"],
        "store.writes": server["writes"] + worker["writes"],
        "store.invalid": server["invalid"] + worker["invalid"],
        "serve.requests": rnd.requests - rnd.refused_requests,
        "serve.refused": rnd.refused_requests,
        "serve.cells.store": rnd.sources.get("store", 0),
        "serve.cells.compiled": rnd.sources.get("compiled", 0),
        "serve.cells.inflight": rnd.sources.get("inflight", 0),
        "serve.accept_ms_p50": statistics.median(rnd.accept_ms),
        "serve.warm_request_ms_p50": statistics.median(rnd.request_ms),
        "serve.cold_request_ms_p50": rnd.write_ms,
        "trace.overhead_ratio": statistics.median(
            t.measured_busy_s / u.measured_busy_s for u, t in zip(untraced, traced)),
        "trace.accounted_ratio": (
            sum(rnd.ledger.self_s.values()) / rnd.ledger.root_wall_s),
    })
    return out
