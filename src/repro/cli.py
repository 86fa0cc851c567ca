"""Command-line interface.

::

    python -m repro kernels                     # list the named kernels
    python -m repro compile daxpy --clusters 4  # compile one loop, show artifacts
    python -m repro compile my_loop.ir --model copy_unit --sim
    python -m repro evaluate --quick 40         # Tables 1-2 + Figures 5-7
    python -m repro evaluate --store .artifacts # incremental re-evaluation
    python -m repro store stats .artifacts      # inspect the artifact store
    python -m repro check --fuzz 100 --seed 2026  # differential oracle fuzzing
    python -m repro tune --trials 10            # heuristic auto-tuning (Sec. 7)

``compile`` accepts either a named kernel (see ``kernels``) or a path to
a textual IR file in the :mod:`repro.ir.parser` format.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.core.passes import PARTITIONERS
from repro.core.pipeline import PipelineConfig, compile_loop
from repro.ir.block import Loop
from repro.ir.parser import parse_loop
from repro.ir.printer import format_loop
from repro.machine.machine import CopyModel
from repro.machine.presets import paper_machine


def _load_loop(spec: str) -> Loop:
    from repro.workloads.kernels import NAMED_KERNELS, make_kernel

    if spec in NAMED_KERNELS:
        return make_kernel(spec)
    path = pathlib.Path(spec)
    if path.exists():
        return parse_loop(path.read_text(encoding="utf-8"))
    raise SystemExit(
        f"error: {spec!r} is neither a named kernel nor a readable file; "
        f"named kernels: {', '.join(sorted(NAMED_KERNELS))}"
    )


def cmd_kernels(_args: argparse.Namespace) -> int:
    from repro.ddg.analysis import recurrence_ii
    from repro.ddg.builder import build_loop_ddg
    from repro.workloads.kernels import NAMED_KERNELS, make_kernel

    print(f"{'name':16s} {'ops':>4s} {'RecII':>6s}  description")
    for name, factory in sorted(NAMED_KERNELS.items()):
        loop = factory()
        rec = recurrence_ii(build_loop_ddg(loop))
        doc = (factory.__doc__ or "").strip().splitlines()[0]
        print(f"{name:16s} {len(loop.ops):>4d} {rec:>6d}  {doc}")
    return 0


def _open_store(path: str):
    """Open (initialising if needed) the artifact store at ``path``."""
    from repro.store import ArtifactStore, StoreFormatError

    try:
        return ArtifactStore.open(path)
    except StoreFormatError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _open_obs_output(path: str, what: str):
    """Open an observability output file for writing, failing early and
    cleanly (before any compilation) when the path is unwritable."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"error: cannot write {what} file {path!r}: {exc}") from exc


def _export_trace(tracer, path: str, fh) -> None:
    from repro.obs.trace import export_trace, trace_format_for

    fmt = trace_format_for(path)
    with fh:
        n = export_trace(tracer, fh, fmt)
    print(f"trace ({fmt}, {n} events) written to {path}")


def cmd_compile(args: argparse.Namespace) -> int:
    loop = _load_loop(args.loop)
    if args.unroll > 1:
        from repro.transform import unroll_loop

        loop = unroll_loop(loop, args.unroll)
    model = CopyModel.EMBEDDED if args.model == "embedded" else CopyModel.COPY_UNIT
    machine = paper_machine(args.clusters, model, width=args.width)
    config = PipelineConfig(
        partitioner=args.partitioner,
        scheduler=args.scheduler,
        run_simulation=args.sim,
        run_regalloc=not args.no_regalloc,
        run_check=args.check,
        mrt_backend=args.mrt_backend,
    )
    store = _open_store(args.store) if args.store else None
    tracer = trace_fh = None
    if args.trace:
        from repro.evalx.runner import config_label
        from repro.obs.trace import Tracer

        trace_fh = _open_obs_output(args.trace, "trace")
        tracer = Tracer()
        with tracer.cell(0, config_label(args.clusters, model),
                         loop_name=loop.name):
            result = compile_loop(loop, machine, config, tracer=tracer,
                                  store=store)
    else:
        result = compile_loop(loop, machine, config, store=store)
    m = result.metrics

    if store is not None:
        outcome = (
            "hit (result rehydrated, pipeline skipped)"
            if result.store_hit else "miss (compiled and stored)"
        )
        print(f"artifact store {store.path}: {outcome}", file=sys.stderr)
    if tracer is not None:
        _export_trace(tracer, args.trace, trace_fh)
    if args.timing:
        print(_format_pass_timing(result.pass_seconds))

    print(f"loop: {loop.name} ({len(loop.ops)} ops)   machine: {machine.describe()}")
    print(f"partitioner: {args.partitioner}")
    print("\n--- source ---")
    print(format_loop(loop))
    print("\n--- ideal kernel ---")
    print(result.ideal.format())
    print("\n--- partition ---")
    for bank in machine.clusters:
        regs = result.partition.registers_in_bank(bank)
        if regs:
            print(f"  bank {bank}: {', '.join(r.name for r in regs)}")
    print("\n--- clustered kernel ---")
    print(result.kernel.format())
    print("\n--- metrics ---")
    print(f"  II {m.ideal_ii} -> {m.partitioned_ii}   "
          f"degradation {m.degradation_pct:+.0f}%   "
          f"copies {m.n_body_copies}+{m.n_preheader_copies}p   "
          f"IPC {m.ideal_ipc:.2f} -> {m.partitioned_ipc:.2f}")
    if result.bank_assignment is not None:
        print(f"  register assignment: unroll x{result.bank_assignment.unroll}, "
              f"max pressure {m.max_bank_pressure}, spills {m.spilled_registers}")
    if m.exact_cost >= 0:
        certificate = (
            "proven optimal" if m.exact_proven
            else f"bound {m.exact_bound} (search interrupted)"
        )
        print(f"  exact oracle: cost {m.exact_cost} (greedy {m.exact_warm_cost}), "
              f"{m.exact_nodes} nodes, {certificate}")
    if args.sim:
        print("  simulator equivalence: PASSED")
    if args.check:
        print("  cross-stage oracles: PASSED")
    if args.emit:
        from repro.codegen import emit_assembly

        print("\n--- final assembly (physical registers) ---")
        print(emit_assembly(result).text())
    if args.expand:
        from repro.codegen import emit_expanded

        print(f"\n--- expanded pipeline ({args.expand} iterations) ---")
        print(emit_expanded(result, args.expand).text())
    return 0


def _format_pass_timing(pass_seconds: dict[str, float]) -> str:
    """Render per-pass wall time, widest first."""
    total = sum(pass_seconds.values()) or 1.0
    lines = ["--- pass timing ---"]
    for name, seconds in sorted(pass_seconds.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:20s} {seconds * 1e3:9.2f} ms  {100 * seconds / total:5.1f}%")
    return "\n".join(lines)


def _format_profile(profiler, top: int = 20) -> str:
    """Render the hottest functions by internal time from a cProfile run."""
    import io
    import pstats

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("tottime").print_stats(top)
    return "--- cProfile (top by internal time) ---\n" + stream.getvalue().rstrip()


def _require_workers(args: argparse.Namespace) -> None:
    if args.jobs < 1:
        raise SystemExit("error: --jobs requires at least one worker")


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.evalx.export import run_to_csv, run_to_json
    from repro.evalx.report import render_full_report
    from repro.evalx.runner import run_evaluation
    from repro.workloads.corpus import spec95_corpus

    # `--quick 0` must be rejected, not silently treated as "all 211 loops"
    if args.quick is not None and args.quick <= 0:
        raise SystemExit("error: --quick requires a positive number of loops")
    _require_workers(args)
    n = args.quick if args.quick is not None else 211
    loops = spec95_corpus(n=n)
    pipeline_config = PipelineConfig(
        partitioner=args.partitioner,
        run_regalloc=args.regalloc, run_check=args.check,
        mrt_backend=args.mrt_backend,
    )

    tracer = trace_fh = None
    if args.trace:
        from repro.obs.trace import Tracer

        trace_fh = _open_obs_output(args.trace, "trace")
        tracer = Tracer()
    metrics_fh = None
    if args.metrics_out:
        metrics_fh = _open_obs_output(args.metrics_out, "metrics")

    profiling = args.profile or args.profile_out
    if profiling and args.jobs > 1:
        print("note: with --jobs, cProfile covers the coordinating process; "
              "per-pass timings and cache stats aggregate from the workers",
              file=sys.stderr)
    store = _open_store(args.store) if args.store else None
    profiler = None
    if profiling:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        run = run_evaluation(
            loops=loops,
            config=pipeline_config,
            progress=args.progress,
            jobs=args.jobs,
            timeout=args.timeout,
            tracer=tracer,
            collect_metrics=bool(args.metrics_out),
            store=store,
        )
    finally:
        if profiler is not None:
            profiler.disable()
    if store is not None:
        print(f"artifact store {store.path}: {run.store_hits} hits, "
              f"{run.store_misses} misses ({run.store_writes} written, "
              f"{run.store_invalid} invalid)", file=sys.stderr)
    print(render_full_report(run))
    if metrics_fh is not None:
        from repro.evalx.export import aggregate_metrics, run_metrics_json
        from repro.evalx.report import render_metrics_summary

        with metrics_fh:
            metrics_fh.write(run_metrics_json(run) + "\n")
        print()
        print(render_metrics_summary(aggregate_metrics(run)))
        print(f"compile metrics written to {args.metrics_out}")
    if tracer is not None:
        _export_trace(tracer, args.trace, trace_fh)
    if args.timing or profiling:
        print(_format_pass_timing(run.pass_seconds))
        lookups = run.cache_hits + run.cache_misses
        print(f"ideal-schedule cache: {run.cache_hits}/{lookups} hits "
              f"({100 * run.cache_hit_rate:.1f}%), "
              f"{run.cache_evictions} evictions, jobs={run.jobs}")
        if store is not None:
            slookups = run.store_hits + run.store_misses
            print(f"artifact store: {run.store_hits}/{slookups} hits "
                  f"({100 * run.store_hit_rate:.1f}%), "
                  f"{run.store_writes} written, {run.store_invalid} invalid")
    if profiler is not None:
        print(_format_profile(profiler))
        if args.profile_out:
            profiler.dump_stats(args.profile_out)
            print(f"pstats dump written to {args.profile_out} "
                  f"(inspect with python -m pstats or snakeviz)")
    if args.csv:
        pathlib.Path(args.csv).write_text(run_to_csv(run), encoding="utf-8")
        print(f"\nper-loop CSV written to {args.csv}")
    if args.json:
        pathlib.Path(args.json).write_text(run_to_json(run), encoding="utf-8")
        print(f"JSON written to {args.json}")
    # recorded failures must be visible in the exit status, not just the text
    return 1 if run.failures else 0


def cmd_gap(args: argparse.Namespace) -> int:
    from repro.evalx.gap import compute_gap, gap_to_csv
    from repro.evalx.runner import run_evaluation
    from repro.workloads.corpus import spec95_corpus

    if args.quick <= 0:
        raise SystemExit("error: --quick requires a positive number of loops")
    _require_workers(args)
    loops = spec95_corpus(n=args.quick)
    store = _open_store(args.store) if args.store else None

    runs = {}
    for leg in ("greedy", "exact"):
        pipeline_config = PipelineConfig(
            partitioner=leg, run_regalloc=False, mrt_backend=args.mrt_backend
        )
        if args.progress:
            print(f"--- {leg} leg ---", file=sys.stderr)
        runs[leg] = run_evaluation(
            loops=loops,
            config=pipeline_config,
            progress=args.progress,
            jobs=args.jobs,
            timeout=args.timeout,
            store=store,
        )
    if store is not None:
        hits = sum(r.store_hits for r in runs.values())
        misses = sum(r.store_misses for r in runs.values())
        writes = sum(r.store_writes for r in runs.values())
        print(f"artifact store {store.path}: {hits} hits, {misses} misses "
              f"({writes} written)", file=sys.stderr)
    report = compute_gap(runs["greedy"], runs["exact"])
    print(report.format())
    if args.csv:
        pathlib.Path(args.csv).write_text(gap_to_csv(report), encoding="utf-8")
        print(f"\nper-loop gap CSV written to {args.csv}")
    # exact-leg timeouts are expected (intractable loops degrading under
    # the per-loop budget); anything else means a leg actually broke
    return 1 if report.hard_failures else 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.check.fuzz import fuzz_corpus

    if args.fuzz <= 0:
        raise SystemExit("error: --fuzz requires a positive number of loops")
    report = fuzz_corpus(
        n_loops=args.fuzz,
        seed=args.seed,
        shrink=not args.no_shrink,
        progress=args.progress,
    )
    print(report.format())
    if args.shrink_out and report.failures:
        out_dir = pathlib.Path(args.shrink_out)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = 0
        for i, failure in enumerate(report.failures):
            if failure.reproducer is None:
                continue
            path = out_dir / f"repro_{failure.oracle}_{i:03d}.ir"
            path.write_text(failure.reproducer, encoding="utf-8")
            written += 1
        print(f"{written} reproducer(s) written to {out_dir}/", file=sys.stderr)
    return 1 if report.failures else 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.evalx.diagnose import diagnose

    loop = _load_loop(args.loop)
    model = CopyModel.EMBEDDED if args.model == "embedded" else CopyModel.COPY_UNIT
    machine = paper_machine(args.clusters, model)
    result = compile_loop(
        loop, machine, PipelineConfig(partitioner=args.partitioner, run_regalloc=False)
    )
    d = diagnose(result)
    print(f"loop: {loop.name}   machine: {machine.describe()}")
    print(d.format())
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    """Inspect and maintain an on-disk artifact store."""
    from repro.store import DiskStore, StoreFormatError

    try:
        disk = DiskStore(args.dir)
    except StoreFormatError as exc:
        raise SystemExit(f"error: {exc}") from exc

    if args.store_command == "stats":
        s = disk.stats()
        print(f"store: {disk.root}")
        print(f"  entries: {s.entries}")
        print(f"  size:    {s.total_bytes / 1024:.1f} KiB")
        if s.invalid:
            print(f"  unreadable files: {s.invalid}")
        return 0

    if args.store_command == "verify":
        report = disk.verify()
        print(f"store: {disk.root}")
        print(f"  checked: {report.checked}")
        if report.ok:
            print("  all entries decode and match their content address")
            return 0
        for digest, reason in report.bad:
            print(f"  BAD {digest[:16]}...: {reason}")
        if args.repair:
            for digest, _reason in report.bad:
                disk.delete(digest)
            print(f"  removed {len(report.bad)} bad entr"
                  f"{'y' if len(report.bad) == 1 else 'ies'}")
            return 0
        print("  (re-run with --repair to remove them; the next evaluation "
              "recompiles and rewrites the affected cells)")
        return 1

    if args.store_command == "gc":
        if args.max_entries is None and args.max_age is None:
            raise SystemExit(
                "error: gc needs at least one of --max-entries / --max-age"
            )
        removed = disk.gc(max_entries=args.max_entries, max_age_days=args.max_age)
        print(f"store: {disk.root}")
        print(f"  removed {len(removed)} entr"
              f"{'y' if len(removed) == 1 else 'ies'}, {len(disk)} remain")
        return 0

    raise SystemExit(f"error: unknown store command {args.store_command!r}")


def cmd_tune(args: argparse.Namespace) -> int:
    from repro.core.tuning import describe_config, tune_heuristic
    from repro.machine.machine import CopyModel
    from repro.workloads.synthetic import PROFILES, SyntheticLoopGenerator

    gen = SyntheticLoopGenerator(args.seed + 1)  # training set, not the corpus
    names = sorted(PROFILES)
    loops = [
        gen.generate(f"train_{i}", PROFILES[names[i % len(names)]])
        for i in range(args.loops)
    ]
    machine = paper_machine(args.clusters, CopyModel.EMBEDDED)
    result = tune_heuristic(loops, machine, n_trials=args.trials, seed=args.seed)
    print(f"incumbent objective: {result.incumbent_objective:.1f} (ideal = 100)")
    print(f"best objective:      {result.best_objective:.1f} "
          f"({result.improvement:+.1f})")
    print(f"best config:         {describe_config(result.best_config)}")
    print(f"trials:              {len(result.history) - 1}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import serve_forever

    _require_workers(args)
    if args.queue < 1:
        raise SystemExit("error: --queue requires a positive cell bound")
    pipeline_config = PipelineConfig(
        run_regalloc=args.regalloc, mrt_backend=args.mrt_backend,
    )
    _open_store(args.store)  # fail early on an unusable store directory
    return serve_forever(
        args.store,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cell_timeout=args.timeout,
        queue_limit=args.queue,
        pipeline_config=pipeline_config,
        metrics_out=args.metrics_out,
        watchdog_grace=args.watchdog_grace,
    )


def cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import ServeClient, ServeError

    try:
        client = ServeClient(args.host, args.port, timeout=args.connect_timeout)
    except OSError as exc:
        raise SystemExit(
            f"error: cannot reach daemon at {args.host}:{args.port} ({exc})"
        ) from exc
    with client:
        try:
            if args.ping:
                print(json.dumps(client.ping(), sort_keys=True))
                return 0
            if args.stats:
                print(json.dumps(client.stats(), sort_keys=True, indent=2))
                return 0
            if args.shutdown:
                client.shutdown()
                print("daemon draining")
                return 0
            if not args.loops:
                raise SystemExit("error: submit requires at least one loop")
            loops = [_load_loop(spec) for spec in args.loops]
            configs = (
                [s.strip() for s in args.configs.split(",") if s.strip()]
                if args.configs else None
            )

            def show(cell) -> None:
                if cell.ok:
                    print(f"{cell.loop_name:16s} {cell.config:24s} "
                          f"[{cell.source:8s}] II={cell.metrics.partitioned_ii}")
                else:
                    print(f"{cell.loop_name:16s} {cell.config:24s} "
                          f"[{cell.failure.kind}] {cell.failure.error}")

            result = client.submit(
                loops, configs=configs, deadline=args.deadline, on_cell=show,
            )
        except ServeError as exc:
            raise SystemExit(f"error: {exc}") from exc
    print(f"{len(result.cells)} cells in {result.elapsed_ms} ms: "
          f"{result.store_hits} store hits, {result.inflight_hits} in-flight "
          f"hits, {result.compiled} compiled, {result.failures} failures")
    return 1 if result.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Register assignment for software pipelining with "
        "partitioned register banks (IPPS 2000) - reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("kernels", help="list the named kernels").set_defaults(
        func=cmd_kernels
    )

    c = sub.add_parser("compile", help="compile one loop and show artifacts")
    c.add_argument("loop", help="named kernel or path to a textual IR file")
    c.add_argument("--clusters", type=int, default=4, choices=(2, 4, 8))
    c.add_argument("--width", type=int, default=16)
    c.add_argument("--model", choices=("embedded", "copy_unit"), default="embedded")
    c.add_argument(
        "--partitioner",
        choices=sorted(PARTITIONERS),
        default="greedy",
        help="bank-assignment strategy from the partitioner registry; "
             "'exact' is the branch-and-bound optimality oracle",
    )
    c.add_argument(
        "--scheduler",
        choices=("ims", "swing"),
        default="ims",
        help="modulo scheduler: Rau's IMS or Swing (lifetime-sensitive)",
    )
    c.add_argument("--unroll", type=int, default=1, metavar="U",
                   help="unroll the loop U times before compiling")
    c.add_argument(
        "--mrt-backend",
        choices=("packed", "reference"),
        default="packed",
        help="modulo-reservation-table backend: packed occupancy words "
             "(default) or the reference dict-of-pools oracle; both "
             "produce byte-identical schedules",
    )
    c.add_argument("--sim", action="store_true", help="validate via simulation")
    c.add_argument("--check", action="store_true",
                   help="run the cross-stage differential oracles on the "
                        "compiled artifacts (repro.check)")
    c.add_argument("--no-regalloc", action="store_true")
    c.add_argument(
        "--emit",
        action="store_true",
        help="print final assembly with physical registers (MVE applied)",
    )
    c.add_argument(
        "--expand",
        type=int,
        metavar="T",
        help="print the pipeline fully expanded for T iterations",
    )
    c.add_argument("--store", metavar="DIR",
                   help="durable artifact store: serve this compilation "
                        "from DIR when its full input fingerprint matches "
                        "a stored entry, and store it otherwise")
    c.add_argument("--timing", action="store_true",
                   help="print per-pass wall times")
    c.add_argument("--trace", metavar="PATH",
                   help="record a hierarchical compile trace: Chrome "
                        "trace-event JSON (chrome://tracing / Perfetto), "
                        "or span-per-line JSONL if PATH ends in .jsonl")
    c.set_defaults(func=cmd_compile)

    e = sub.add_parser("evaluate", help="regenerate Tables 1-2 and Figures 5-7")
    e.add_argument("--quick", type=int, metavar="N", help="use only N loops")
    e.add_argument("--regalloc", action="store_true")
    e.add_argument(
        "--partitioner",
        choices=sorted(PARTITIONERS),
        default="greedy",
        help="bank-assignment strategy for every cell (default: greedy); "
             "pair 'exact' with --timeout so intractable loops degrade "
             "to typed timeout failures",
    )
    e.add_argument(
        "--mrt-backend",
        choices=("packed", "reference"),
        default="packed",
        help="modulo-reservation-table backend (see `compile --help`); "
             "the report is byte-identical across backends",
    )
    e.add_argument("--check", action="store_true",
                   help="run the cross-stage oracles on every cell; "
                        "violations become 'oracle' failures in the report")
    e.add_argument("--progress", action="store_true")
    e.add_argument("--csv", metavar="PATH", help="write per-loop metrics CSV")
    e.add_argument("--json", metavar="PATH", help="write aggregate + per-loop JSON")
    e.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="compile with N worker processes (default: serial)")
    e.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-loop wall-clock budget; a loop exceeding it is "
                        "recorded as a timeout failure instead of hanging "
                        "the run")
    e.add_argument("--timing", action="store_true",
                   help="print per-pass wall times and cache statistics")
    e.add_argument("--profile", action="store_true",
                   help="run under cProfile; print per-pass timings and the "
                        "hottest functions (serial runner only)")
    e.add_argument("--profile-out", metavar="PATH",
                   help="also dump raw pstats data to PATH (implies --profile)")
    e.add_argument("--trace", metavar="PATH",
                   help="record per-cell compile traces (merged across "
                        "workers): Chrome trace-event JSON, or JSONL if "
                        "PATH ends in .jsonl")
    e.add_argument("--metrics-out", metavar="PATH",
                   help="write per-cell + aggregate compile metrics "
                        "(counters/gauges/histograms) as JSON")
    e.add_argument("--store", metavar="DIR",
                   help="durable artifact store: answer unchanged "
                        "(loop, config) cells from DIR and store fresh "
                        "compilations, making re-evaluation incremental; "
                        "rerunning an interrupted run with the same DIR "
                        "resumes it")
    e.set_defaults(func=cmd_evaluate)

    g = sub.add_parser(
        "gap",
        help="greedy-vs-optimal copy gap: run the corpus through both the "
             "greedy partitioner and the exact branch-and-bound oracle, "
             "and report per-loop copy and degradation deltas",
    )
    g.add_argument("--quick", type=int, default=40, metavar="N",
                   help="number of corpus loops per leg (default: 40; "
                        "pass 211 for the full corpus)")
    g.add_argument("--timeout", type=float, default=5.0, metavar="SECONDS",
                   help="per-loop wall-clock budget for each leg; exact "
                        "searches exceeding it degrade to typed timeout "
                        "cells in the report (default: 5.0)")
    g.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="compile each leg with N worker processes; the "
                        "report is byte-identical to a serial run's")
    g.add_argument(
        "--mrt-backend",
        choices=("packed", "reference"),
        default="packed",
        help="modulo-reservation-table backend (see `compile --help`)",
    )
    g.add_argument("--progress", action="store_true")
    g.add_argument("--csv", metavar="PATH",
                   help="write the per-(config, loop) gap rows as CSV")
    g.add_argument("--store", metavar="DIR",
                   help="durable artifact store shared by both legs "
                        "(partitioner choice is part of the store key); "
                        "rerunning with the same DIR resumes an interrupted "
                        "run, recomputing failed and timed-out cells")
    g.set_defaults(func=cmd_gap)

    k = sub.add_parser(
        "check",
        help="fuzz the pipeline against the cross-stage differential oracles",
    )
    k.add_argument("--fuzz", type=int, default=25, metavar="N",
                   help="number of seeded corpus loops (default: 25)")
    k.add_argument("--seed", type=int, default=2026,
                   help="corpus seed; the same --fuzz/--seed pair always "
                        "exercises the same cells (default: 2026)")
    k.add_argument("--no-shrink", action="store_true",
                   help="report failures without minimizing reproducers")
    k.add_argument("--shrink-out", metavar="DIR",
                   help="write each shrunk reproducer to DIR as parseable IR")
    k.add_argument("--progress", action="store_true")
    k.set_defaults(func=cmd_check)

    d = sub.add_parser(
        "diagnose", help="explain one loop's degradation (recurrence vs resources)"
    )
    d.add_argument("loop", help="named kernel or path to a textual IR file")
    d.add_argument("--clusters", type=int, default=4, choices=(2, 4, 8))
    d.add_argument("--model", choices=("embedded", "copy_unit"), default="embedded")
    d.add_argument(
        "--partitioner",
        choices=sorted(PARTITIONERS),
        default="greedy",
    )
    d.set_defaults(func=cmd_diagnose)

    s = sub.add_parser(
        "store", help="inspect and maintain an on-disk artifact store"
    )
    ssub = s.add_subparsers(dest="store_command", required=True)
    st = ssub.add_parser("stats", help="entry count and total size")
    st.add_argument("dir", help="store directory")
    sv = ssub.add_parser(
        "verify",
        help="decode every entry and recheck checksums + content addresses",
    )
    sv.add_argument("dir", help="store directory")
    sv.add_argument("--repair", action="store_true",
                    help="remove entries that fail verification")
    sg = ssub.add_parser("gc", help="apply retention limits")
    sg.add_argument("dir", help="store directory")
    sg.add_argument("--max-entries", type=int, metavar="N",
                    help="keep at most the N most recently written entries")
    sg.add_argument("--max-age", type=float, metavar="DAYS",
                    help="drop entries not rewritten in DAYS days")
    s.set_defaults(func=cmd_store)

    t = sub.add_parser("tune", help="stochastic heuristic tuning (Section 7)")
    t.add_argument("--trials", type=int, default=10)
    t.add_argument("--loops", type=int, default=12)
    t.add_argument("--clusters", type=int, default=4, choices=(2, 4, 8))
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(func=cmd_tune)

    from repro.serve.protocol import DEFAULT_PORT, DEFAULT_QUEUE_LIMIT

    v = sub.add_parser(
        "serve",
        help="batch-compile daemon: serve warm cells from the store, "
             "shard cold cells over worker processes",
    )
    v.add_argument("--store", metavar="DIR", required=True,
                   help="artifact store backing the service (created if "
                        "missing); warm requests are answered from it "
                        "without compiling")
    v.add_argument("--host", default="127.0.0.1")
    v.add_argument("--port", type=int, default=DEFAULT_PORT, metavar="P",
                   help=f"TCP port (default: {DEFAULT_PORT}; 0 binds an "
                        f"ephemeral port, printed on startup)")
    v.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="compile worker processes (default: 1)")
    v.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-cell compile budget; an exceeding cell becomes "
                        "a timeout failure")
    v.add_argument("--queue", type=int, default=DEFAULT_QUEUE_LIMIT,
                   metavar="N",
                   help="admission bound: refuse submissions that would "
                        "leave more than N cold cells pending "
                        f"(default: {DEFAULT_QUEUE_LIMIT})")
    v.add_argument("--watchdog-grace", type=float, default=2.0,
                   metavar="SECONDS",
                   help="extra seconds a running chunk may outlive its "
                        "worker-side deadline before the watchdog SIGKILLs "
                        "the stuck worker and degrades its cells to "
                        "timeout failures (default: 2.0)")
    v.add_argument("--regalloc", action="store_true",
                   help="run register allocation (same default as evaluate)")
    v.add_argument(
        "--mrt-backend", choices=("packed", "reference"),
        default="packed",
    )
    v.add_argument("--metrics-out", metavar="PATH",
                   help="write the final stats document (request counters, "
                        "store hit rates) as JSON on shutdown")
    v.set_defaults(func=cmd_serve)

    b = sub.add_parser(
        "submit", help="submit loops to a running compile daemon"
    )
    b.add_argument("loops", nargs="*",
                   help="named kernels or paths to textual IR files")
    b.add_argument("--host", default="127.0.0.1")
    b.add_argument("--port", type=int, default=DEFAULT_PORT, metavar="P")
    b.add_argument("--configs", metavar="SPECS",
                   help="comma-separated config specs like "
                        "'4/embedded,8/copy_unit' (default: the paper's "
                        "six-column grid)")
    b.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="per-request budget; unfinished cells come back as "
                        "timeout failures")
    b.add_argument("--connect-timeout", type=float, default=60.0,
                   metavar="SECONDS", help="socket timeout (default: 60)")
    b.add_argument("--ping", action="store_true",
                   help="just check the daemon is up")
    b.add_argument("--stats", action="store_true",
                   help="print the daemon's stats document")
    b.add_argument("--shutdown", action="store_true",
                   help="ask the daemon to drain and exit")
    b.set_defaults(func=cmd_submit)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
