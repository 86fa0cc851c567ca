"""The supervised pool shared by ``evaluate``, ``gap`` and ``serve``.

Real worker processes run the real worker entry point
(:func:`repro.evalx.runner.compile_chunk`); faults come from the
``REPRO_FAULT_*`` fixture, which workers inherit at fork.  The
properties: a chunk killed by another chunk's fault is retried, never
convicted; a reaped chunk of several loops convicts only the stuck one.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.faults import FAULT_CRASH_ENV, FAULT_HANG_ENV, FAULT_STUCK_ENV
from repro.core.pipeline import PipelineConfig
from repro.evalx.executor import SupervisedPool
from repro.evalx.runner import ChunkPayload, compile_chunk
from repro.machine.machine import CopyModel
from repro.workloads.corpus import spec95_corpus

CONFIG = PipelineConfig(run_regalloc=False)
CONFIGS = ((2, CopyModel.EMBEDDED), (4, CopyModel.COPY_UNIT))


def payload(loops, first_key: int = 0, **kw) -> ChunkPayload:
    return ChunkPayload(
        cells=[(first_key + i, loop, n, model.value)
               for i, loop in enumerate(loops) for n, model in CONFIGS],
        config=CONFIG, **kw,
    )


def by_key(results) -> dict[int, list]:
    out: dict[int, list] = {}
    for result in results:
        for cell in result.cells:
            out.setdefault(cell.loop_index, []).append(cell)
    return out


class TestWatchdogLimit:
    def test_watchdog_limit_composition(self):
        pool = SupervisedPool(1, grace=1.0)
        try:
            assert pool.limit(3, 2.0, None) == 7.0
            assert pool.limit(3, 2.0, 4.0) == 5.0
            assert pool.limit(1, 2.0, 10.0) == 3.0
        finally:
            pool.close()
        unbounded = SupervisedPool(1)
        try:
            assert unbounded.limit(5, None, None) is None
            assert unbounded.limit(5, None, 4.0) == 6.0
        finally:
            unbounded.close()


class TestFailureRule:
    @pytest.mark.parametrize("fault_env", [FAULT_CRASH_ENV, FAULT_STUCK_ENV])
    def test_chunk_killed_by_another_is_retried_not_convicted(
        self, monkeypatch, fault_env
    ):
        culprit, slow, innocent = spec95_corpus(n=3)
        clean = by_key([compile_chunk(payload([innocent], first_key=2))])
        monkeypatch.setenv(fault_env, culprit.name)
        # the bystander's first loop sleeps through its cells' deadlines,
        # so it is still running when the culprit kills the pool
        monkeypatch.setenv(FAULT_HANG_ENV, slow.name)
        bystander = payload([slow, innocent], first_key=1, cell_timeout=1.0)
        out: list = []
        with SupervisedPool(2, grace=0.2) as pool:
            thread = threading.Thread(
                target=lambda: out.extend(pool.run(compile_chunk, bystander))
            )
            thread.start()
            time.sleep(0.5)
            convicted = by_key(pool.run(
                compile_chunk, payload([culprit], cell_timeout=0.05)
            ))
            thread.join(timeout=60)
        assert not thread.is_alive()

        kind = "crash" if fault_env == FAULT_CRASH_ENV else "timeout"
        assert [c.failure.kind for c in convicted[0]] == [kind] * len(CONFIGS)
        cells = by_key(out)
        # retried alone (attempt 2), the slow loop only meets its own
        # deadlines and the innocent loop compiles as in a clean run
        assert all(c.failure.kind == "timeout" and c.failure.attempts == 2
                   and "deadline" in c.failure.error for c in cells[1])
        assert [c.metrics for c in cells[2]] == [c.metrics for c in clean[2]]

    def test_reaped_multi_loop_chunk_convicts_only_the_stuck_loop(
        self, monkeypatch
    ):
        stuck, innocent = spec95_corpus(n=2)
        clean = by_key([compile_chunk(payload([innocent], first_key=1))])
        monkeypatch.setenv(FAULT_STUCK_ENV, stuck.name)
        with SupervisedPool(1, grace=0.2) as pool:
            cells = by_key(pool.run(
                compile_chunk, payload([stuck, innocent], cell_timeout=0.5)
            ))
        # reaped once as a chunk and once more when retried alone
        assert pool.reaps == 2
        assert all(c.failure.kind == "timeout" and c.failure.attempts == 2
                   and "watchdog" in c.failure.error for c in cells[0])
        assert [c.metrics for c in cells[1]] == [c.metrics for c in clean[1]]

    def test_concurrent_chunks_account_every_cell_once(self, monkeypatch):
        """More driver threads and workers than cores, a fast switch
        interval and a crash: every cell comes back exactly once, and
        only the crashing loop is convicted."""
        loops = spec95_corpus(n=8)
        monkeypatch.setenv(FAULT_CRASH_ENV, loops[3].name)
        results: list = []
        lock = threading.Lock()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SupervisedPool(3) as pool:
                def drive(i: int) -> None:
                    got = pool.run(compile_chunk, payload([loops[i]], first_key=i))
                    with lock:
                        results.extend(got)

                threads = [threading.Thread(target=drive, args=(i,))
                           for i in range(len(loops))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        cells = by_key(results)
        assert sorted(cells) == list(range(len(loops)))
        for key, got in cells.items():
            assert len(got) == len(CONFIGS)
            if key == 3:
                assert all(c.failure.kind == "crash" for c in got)
            else:
                assert all(c.ok for c in got)
