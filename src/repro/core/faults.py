"""Timeout, retry and fault-injection primitives.

The evaluation runner (:mod:`repro.evalx.runner`) needs production-grade
fault handling: a pathological loop must not hang a multi-hour corpus
run, and a crashed worker must poison only its own chunk.  The
primitives live here — not in the runner — because they are equally
useful to :mod:`repro.core.tuning` (a tuning trial that compiles forever
should count as a failed trial, not stall the search) and to future
search-based partitioners with unbounded per-loop compile times.

Three building blocks:

* :func:`deadline` / :func:`call_with_deadline` — a wall-clock budget
  for a block of otherwise uninterruptible CPU-bound Python, enforced
  with ``SIGALRM`` (``signal.setitimer``).  Raises
  :class:`DeadlineExceeded` when the budget expires.  Signal delivery
  only works in a process's main thread; elsewhere the deadline
  degrades to a no-op rather than an error, because a missing timeout
  must never turn a healthy run into a failed one.
* :func:`retry` — call a function up to ``attempts`` times, reporting
  how many attempts were used alongside the value.
* :func:`maybe_inject_fault` — test/CI hook: environment variables name
  loops that should crash the process, hang, or raise, letting the
  fault paths be exercised end-to-end (including across the process
  boundary of a worker pool) without patching any code.

Failure *classification* lives with the other result types:
:class:`repro.core.results.LoopFailure` records which of the three
kinds (``exception`` / ``timeout`` / ``crash``) occurred and after how
many attempts.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")

#: environment variables read by :func:`fault_names`; each holds a
#: comma-separated list of loop names.
FAULT_CRASH_ENV = "REPRO_FAULT_CRASH"
FAULT_HANG_ENV = "REPRO_FAULT_HANG"
FAULT_RAISE_ENV = "REPRO_FAULT_RAISE"
FAULT_STUCK_ENV = "REPRO_FAULT_STUCK"

#: exit status of an injected crash — distinctive, so a worker found dead
#: with it in CI logs is unambiguously the fixture, not a real fault.
CRASH_EXIT_STATUS = 117


class DeadlineExceeded(Exception):
    """A :func:`deadline` budget expired before the block finished."""

    def __init__(self, seconds: float):
        super().__init__(f"deadline of {seconds:g}s exceeded")
        self.seconds = seconds


def _deadline_supported() -> bool:
    """SIGALRM-based deadlines need a main-thread POSIX process."""
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def deadline(seconds: float | None) -> Iterator[None]:
    """Bound the wrapped block to ``seconds`` of wall-clock time.

    ``None`` (and any non-positive value) means no budget.  On expiry the
    block is interrupted by :class:`DeadlineExceeded` — even mid-way
    through CPU-bound pure-Python work, which ``threading``-based
    watchdogs cannot interrupt.  The previous ``SIGALRM`` disposition is
    restored on exit, so deadlines may wrap code that also uses alarms.

    Deadlines **nest**: ``setitimer`` returns the budget the enclosing
    deadline still had when the inner one armed, and the inner context
    re-arms that remainder (less its own elapsed wall time) on exit.  An
    outer per-request budget wrapping inner per-cell budgets therefore
    still fires once the inner blocks are done; if the outer budget ran
    out while an inner deadline held the timer, it fires immediately
    after the inner context exits.
    """
    if seconds is None or seconds <= 0 or not _deadline_supported():
        yield
        return

    def _on_alarm(_signum, _frame):
        raise DeadlineExceeded(seconds)

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    outer_remaining, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    armed_at = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_remaining > 0.0:
            # an enclosing deadline (or raw alarm) was ticking when we
            # replaced the timer: give it back whatever it has left; an
            # already-expired budget fires at the next opportunity
            elapsed = time.monotonic() - armed_at
            signal.setitimer(
                signal.ITIMER_REAL, max(outer_remaining - elapsed, 1e-6)
            )


def call_with_deadline(
    fn: Callable[..., T], *args, seconds: float | None = None, **kwargs
) -> T:
    """Call ``fn`` under a :func:`deadline` of ``seconds``."""
    with deadline(seconds):
        return fn(*args, **kwargs)


def retry(
    fn: Callable[[int], T],
    attempts: int = 2,
    retry_on: tuple[type[BaseException], ...] = (Exception,),
) -> tuple[T, int]:
    """Call ``fn(attempt)`` up to ``attempts`` times (attempt is 1-based).

    Returns ``(value, attempts_used)``.  An exception matching
    ``retry_on`` triggers another attempt; the last attempt's exception
    propagates.  Exceptions outside ``retry_on`` propagate immediately.
    """
    if attempts < 1:
        raise ValueError("need at least one attempt")
    for attempt in range(1, attempts + 1):
        try:
            return fn(attempt), attempt
        except retry_on:
            if attempt == attempts:
                raise
    raise AssertionError("unreachable")  # pragma: no cover


def _names_in(env_var: str) -> frozenset[str]:
    raw = os.environ.get(env_var, "")
    return frozenset(name.strip() for name in raw.split(",") if name.strip())


#: the loop names of each ``REPRO_FAULT_*`` variable: crash, hang, raise, stuck
FaultNames = tuple[frozenset[str], frozenset[str], frozenset[str], frozenset[str]]


def fault_names() -> FaultNames:
    """Read the ``REPRO_FAULT_*`` variables, once per batch of cells."""
    return (_names_in(FAULT_CRASH_ENV), _names_in(FAULT_HANG_ENV),
            _names_in(FAULT_RAISE_ENV), _names_in(FAULT_STUCK_ENV))


def maybe_inject_fault(name: str, names: FaultNames | None = None) -> None:
    """Fault-injection fixture for tests and the CI smoke run.

    If ``name`` appears in one of the ``REPRO_FAULT_*`` environment
    variables (as read by :func:`fault_names`, now unless ``names`` holds
    an earlier read), simulate the corresponding fault:

    * ``REPRO_FAULT_CRASH`` — die instantly via ``os._exit`` (no cleanup,
      no exception), exactly like a segfaulting worker;
    * ``REPRO_FAULT_HANG`` — sleep for an hour, the stand-in for a
      schedule that never converges (a wrapping :func:`deadline` turns
      this into :class:`DeadlineExceeded`);
    * ``REPRO_FAULT_RAISE`` — raise ``RuntimeError``;
    * ``REPRO_FAULT_STUCK`` — block ``SIGALRM`` and *then* sleep: a hang
      that :func:`deadline` cannot interrupt, modelling a worker wedged
      in uninterruptible work (C extension, kernel wait).  Only the
      executor watchdog's ``SIGKILL`` recovers from this one (any
      ``--jobs N`` run with a timeout: evaluate, gap or serve).

    Environment variables travel to pool workers for free, so one
    mechanism drives serial, parallel and subprocess (CLI) fault tests.
    """
    crash, hang, raise_, stuck = names if names is not None else fault_names()
    if name in crash:
        os._exit(CRASH_EXIT_STATUS)
    if name in hang:
        time.sleep(3600.0)
    if name in raise_:
        raise RuntimeError(f"injected fault for {name!r}")
    if name in stuck:
        if hasattr(signal, "pthread_sigmask"):
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        time.sleep(3600.0)
