"""The supervised process pool behind ``evaluate``, ``gap`` and ``serve``.

:class:`SupervisedPool` runs chunks of cells on worker processes and
turns every worker fault into typed failure cells, so every entry point
gets the same guarantees.  It is generic over the chunk: a payload
exposes ``cells``, ``cell_timeout``, ``time_left()`` (the seconds left
before its deadline, ``None`` without one), ``split()`` (one
payload per loop, stamped as the second attempt) and ``failed(kind,
error)`` (a result holding every cell as a failure);
:class:`repro.evalx.runner.ChunkPayload` is the one implementation.
"""

from __future__ import annotations

import concurrent.futures
import signal
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

#: seconds a running chunk may outlive its worker-side deadlines before
#: the watchdog reaps it
DEFAULT_WATCHDOG_GRACE = 2.0

_MAIN, _SOLO = 0, 1

#: held around ``pool.submit``, the one call that forks workers, so no two
#: forks from different calling threads overlap (see :class:`SupervisedPool`)
_FORK_LOCK = threading.Lock()


class _Reaped(Exception):
    """A chunk outlived its watchdog limit; its pool's workers are dead."""


def _reset_signals() -> None:
    """Give a forked worker default SIGTERM handling and no signal wakeup
    fd.  A daemon's worker otherwise inherits asyncio's handlers and its
    wakeup fd: a SIGTERM sent to the worker would be ignored there and
    written into the daemon's self-pipe, draining the daemon instead.
    SIGINT keeps the inherited handler, a no-op in a daemon's worker, so
    a Ctrl-C sent to the whole process group drains the daemon without
    interrupting the chunks its workers are compiling."""
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _new_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers, initializer=_reset_signals)


class SupervisedPool:
    """A blocking, thread-safe process pool with a stuck-worker watchdog.

    At most ``jobs`` chunks are submitted at once: ``ProcessPoolExecutor``
    marks queued work running as soon as it enters the call queue, so
    without the gate the watchdog could not tell a stuck chunk from one
    parked behind it.  ``reaps`` and ``breaks`` count watchdog reaps and
    chunks that failed on the main pool.

    Workers are forked from several calling threads, for the main and the
    isolation pool.  A child forked while another thread is inside
    ``Popen`` inherits that thread's half-built worker's sentinel pipe,
    so when that worker dies its sentinel never fires: its pool hangs,
    or blames the break on an innocent loop.  Every submission therefore
    holds the module-wide ``_FORK_LOCK``, so forks never overlap.
    """

    def __init__(self, jobs: int, grace: float = DEFAULT_WATCHDOG_GRACE):
        self.grace = grace
        self.reaps = 0
        self.breaks = 0
        self._gate = threading.BoundedSemaphore(jobs)
        #: guards pool swaps, the counters and ``_closed``
        self._lock = threading.Lock()
        self._isolate_lock = threading.Lock()
        self._widths = (jobs, 1)
        self._pools = [_new_pool(jobs), _new_pool(1)]
        self._closed = False

    def limit(
        self, n_cells: int, cell_timeout: float | None, budget: float | None
    ) -> float | None:
        """How long a *running* chunk may take before it is reaped: the
        bound its worker-side deadlines put on it plus the grace, or
        ``None`` (unsupervised) when it has no deadline.  ``budget`` is
        the time left before the chunk's deadline; a deadline that has
        passed leaves the grace alone."""
        bounds = [cell_timeout * n_cells] if cell_timeout and cell_timeout > 0 else []
        if budget is not None:
            bounds.append(max(budget, 0.0))
        return min(bounds) + self.grace if bounds else None

    def run(self, entry, payload) -> list:
        """``entry(payload)`` on a worker, as a list of results.

        Only exceptions from submitting the chunk or reading its future
        are worker faults, and each becomes failure cells.  A *broken*
        chunk (its worker died, its payload or result did not pickle, or
        it was killed with a reaped chunk) is retried one loop at a time
        on a one-worker isolation pool, serialised, so a break there
        convicts that loop alone (``crash`` cells).  A *reaped* chunk of
        one loop becomes ``timeout`` cells naming the watchdog; one of
        several loops is split like a broken chunk.
        """
        with self._gate:
            # read the live pool once a slot is free, so a chunk that
            # waited out a break lands on the replacement
            pool = self._pools[_MAIN]
            try:
                return [self._attempt(pool, entry, payload)]
            except _Reaped as exc:
                self._fault(_MAIN, pool, "reaps", exc)
                if len(payload.split()) == 1:
                    return [payload.failed("timeout", str(exc))]
            except Exception as exc:
                self._fault(_MAIN, pool, "breaks", exc)
        return [self._isolate(entry, part) for part in payload.split()]

    def _isolate(self, entry, part):
        with self._isolate_lock:
            pool = self._pools[_SOLO]
            try:
                return self._attempt(pool, entry, part)
            except _Reaped as exc:
                self._fault(_SOLO, pool, "reaps", exc)
                return part.failed("timeout", str(exc))
            except Exception as exc:
                self._fault(_SOLO, pool, None, exc)
                return part.failed("crash", repr(exc))

    def _attempt(self, pool: ProcessPoolExecutor, entry, payload):
        """Run one chunk on ``pool``, reaping it past its limit.

        Worker deadlines are ``SIGALRM`` timers, which a worker wedged in
        uninterruptible work (a C extension, blocked signals; see
        ``REPRO_FAULT_STUCK``) never honours.  Time counts only while the
        chunk runs; past the limit the pool's processes get ``SIGKILL``,
        the one signal a wedged worker cannot block.
        """
        with _FORK_LOCK:
            cf = pool.submit(entry, payload)
        limit = self.limit(len(payload.cells), payload.cell_timeout, payload.time_left())
        if limit is None:
            return cf.result()
        poll = min(0.1, limit / 4)
        running_for = 0.0
        while running_for < limit:
            try:
                return cf.result(timeout=poll)
            except concurrent.futures.TimeoutError:
                if cf.running():
                    running_for += poll
        try:  # it may have finished since the last poll
            return cf.result(timeout=0)
        except concurrent.futures.TimeoutError:
            pass
        for proc in list((pool._processes or {}).values()):
            proc.kill()
        raise _Reaped(f"worker stuck past its deadline; reaped by the "
                      f"watchdog after {running_for:.1f}s")

    def _fault(self, slot: int, pool: ProcessPoolExecutor,
               counter: str | None, exc: Exception) -> None:
        """Count a fault and, if it left ``pool`` dead and ``pool`` is
        still the live one (several threads may see one break), replace
        it."""
        with self._lock:
            if counter is not None:
                setattr(self, counter, getattr(self, counter) + 1)
            dead = isinstance(exc, (_Reaped, BrokenExecutor))
            if not dead or self._pools[slot] is not pool or self._closed:
                return
            self._pools[slot] = _new_pool(self._widths[slot])
        pool.shutdown(wait=False)

    def close(self) -> None:
        """Cancel queued chunks and wait for running ones."""
        with self._lock:
            self._closed = True
        for pool in self._pools:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> SupervisedPool:
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
