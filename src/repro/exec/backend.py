"""Pluggable multi-core task execution backends.

The substrates (``MapReduceJob``, ``RDD``) hand their independent task
bodies to an :class:`ExecutorBackend` instead of looping over them.
Two implementations are provided:

* :class:`SerialBackend` — runs tasks one by one in the calling thread
  (the default; zero dependencies, zero overhead beyond the wrapper).
* :class:`ProcessBackend` — forks one child per worker slice of each
  stage, giving real multi-core execution of the pure-Python
  geometry/refinement work.

**Determinism is the design constraint**: every backend runs each task
against its own scratch :class:`~repro.metrics.Counters` (see
:mod:`repro.exec.task`) and :func:`merge_outcomes` folds the scratches
back in task-index order, so counters, phase records, result ordering
and failure outcomes are bit-identical across backends.  The backends
only change wall-clock time, never the simulated run.

:class:`ProcessBackend` keeps no state between stages: the children
inherit the stage's task bodies at fork time and pipe their outcomes
back.  On platforms without ``fork`` it degrades to serial — loudly:
the degradation charges the ``exec.backend_fallback`` counter and
surfaces a warning on the :class:`~repro.systems.base.RunReport`.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, Sequence

from ..metrics import _REDIRECT, Counters
from ..trace.core import attach as _attach_span
from .task import TaskOutcome, run_task

__all__ = [
    "ExecutorBackend",
    "SerialBackend",
    "ProcessBackend",
    "resolve_backend",
    "merge_outcomes",
    "BACKENDS",
]

#: repro-lint whole-program declarations (WRK001): every function-valued
#: argument at a ``*.run_tasks(...)`` call site is a task body that may
#: execute inside a worker, and ``_fork_slice`` is the forked child's own
#: body — everything reachable from either must be free of wall-clock
#: reads, unseeded RNG and module-global writes.
_WORKER_ENTRY_POINTS = ("_fork_slice",)
_DISPATCH_POINTS = ("ExecutorBackend.run_tasks",)


def _even_slices(n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` task-index slices, sized as evenly as
    possible — one per :class:`ProcessBackend` child of a stage."""
    workers = min(workers, n)
    base, extra = divmod(n, workers)
    slices = []
    start = 0
    for w in range(workers):
        stop = start + base + (1 if w < extra else 0)
        slices.append((start, stop))
        start = stop
    return slices


def merge_outcomes(
    outcomes: Sequence[TaskOutcome], shared: Counters
) -> tuple[list, dict]:
    """Fold task outcomes into the shared counters, in task-index order.

    Returns ``(results, side)`` where *results* is the per-task result
    list and *side* maps each :func:`~repro.exec.task.emit` key to the
    list of values emitted under it (task order, then emit order).  When
    a task captured an error, the scratches of all earlier tasks *and*
    of the failing task are merged before the error is re-raised — the
    exact state a serial run leaves behind when that task raises.
    """
    results: list = []
    side: dict = {}
    for outcome in outcomes:
        shared.merge(outcome.counters)
        # Trace spans graft here — in the same task-index order the
        # scratches merge — so the tree structure is backend-independent.
        _attach_span(outcome.span)
        for key, value in outcome.side:
            side.setdefault(key, []).append(value)
        if outcome.error is not None:
            raise outcome.error
        results.append(outcome.result)
    return results, side


def _in_task() -> bool:
    return getattr(_REDIRECT, "task_side", None) is not None


class ExecutorBackend:
    """Runs independent task bodies; subclasses choose the concurrency."""

    name = "abstract"

    def __init__(self, workers: int = 1):
        self.workers = max(1, int(workers))
        #: per-stage timing rows appended by :meth:`run_tasks`.
        self.profile: list[dict] = []

    # ------------------------------------------------------------- dispatch
    def run_tasks(
        self, label: str, fns: Sequence[Callable[[], Any]], shared: Counters
    ) -> list[TaskOutcome]:
        """Execute all task bodies and return their outcomes, in order.

        Also appends a per-stage timing row (label, task count, summed
        task seconds, max task seconds) to :attr:`profile`.
        """
        if not fns:
            return []
        # Allocate the redirect token in the driver thread before any
        # worker does: concurrent lazy allocation would be benign only by
        # luck, and forked workers should inherit the same key.
        shared.token
        if len(fns) == 1 or _in_task():
            # Nested dispatch (a task body triggering another stage) and
            # single-task stages always run inline.
            outcomes = self._serial(fns, shared)
        else:
            outcomes = self._execute(fns, shared)
        task_seconds = [o.seconds for o in outcomes]
        self.profile.append(
            {
                "label": label,
                "tasks": len(outcomes),
                "task_seconds": sum(task_seconds),
                "max_task_seconds": max(task_seconds, default=0.0),
            }
        )
        return outcomes

    def _serial(
        self, fns: Sequence[Callable[[], Any]], shared: Counters
    ) -> list[TaskOutcome]:
        outcomes = []
        for index, fn in enumerate(fns):
            outcome = run_task(index, fn, shared)
            outcomes.append(outcome)
            if outcome.error is not None:
                break  # serial semantics: later tasks never start
        return outcomes

    def _execute(
        self, fns: Sequence[Callable[[], Any]], shared: Counters
    ) -> list[TaskOutcome]:
        raise NotImplementedError

    # ------------------------------------------------------------ reporting
    def profile_summary(self) -> dict:
        """Aggregate per-task timing for ``RunReport.engine_profile``."""
        return {
            "backend": self.name,
            "workers": self.workers,
            "stages": len(self.profile),
            "tasks": sum(row["tasks"] for row in self.profile),
            "task_seconds": sum(row["task_seconds"] for row in self.profile),
            "phases": list(self.profile),
        }


class SerialBackend(ExecutorBackend):
    """One task at a time, in the calling thread (the default)."""

    name = "serial"

    def __init__(self, workers: int = 1):
        super().__init__(1)

    def _execute(self, fns, shared):
        return self._serial(fns, shared)


def _fork_slice(fns, shared, lo, hi, conn) -> None:
    """Child side of one :class:`ProcessBackend` slice: run tasks
    ``lo..hi-1`` against the fork-time snapshot of the driver state and
    send their outcomes back over *conn*."""
    conn.send([run_task(i, fns[i], shared) for i in range(lo, hi)])
    conn.close()


class ProcessBackend(ExecutorBackend):
    """Fork-per-stage multi-process backend: real multi-core execution.

    Each stage forks one child per :func:`_even_slices` slice.  A child
    inherits the task bodies, the shared counters and the trace session
    state at fork time — they travel as process arguments, never through
    a module global, so concurrent stages (a service running queries on
    several dispatcher threads) cannot see each other's state.  Only the
    :class:`~repro.exec.task.TaskOutcome` list crosses back, pickled
    over a pipe; ``GeometryBatch`` results pickle as their six arrays.

    A child that dies without sending (a crash, ``os._exit``) makes the
    stage raise a :class:`RuntimeError`; every child is joined before the
    call returns, so nothing outlives the stage.  Where ``fork`` is
    missing the backend runs the stage serially, charging
    ``exec.backend_fallback`` once and recording a warning surfaced on
    the run's ``RunReport``.
    """

    name = "process"

    def __init__(self, workers: int = 1):
        super().__init__(workers)
        self._fallback_noted = False
        #: warning strings surfaced on RunReport.warnings by the systems.
        self.warnings: tuple = ()

    @staticmethod
    def available() -> bool:
        """Whether this platform supports the fork start method."""
        return hasattr(os, "fork") and (
            "fork" in multiprocessing.get_all_start_methods()
        )

    def _note_fallback(self, shared: Counters) -> None:
        if not self._fallback_noted:
            self._fallback_noted = True
            shared.add("exec.backend_fallback", 1)
            self.warnings = self.warnings + (
                "process backend unavailable on this platform "
                "(no fork start method); degraded to serial",
            )

    def _execute(self, fns, shared):
        if not self.available():
            self._note_fallback(shared)
            return self._serial(fns, shared)
        ctx = multiprocessing.get_context("fork")
        children = []
        try:
            for lo, hi in _even_slices(len(fns), self.workers):
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_fork_slice, args=(fns, shared, lo, hi, send),
                    daemon=True,
                )
                proc.start()
                send.close()  # so a child that dies reads as EOF here
                children.append((proc, recv))
            outcomes = []
            for w, (proc, recv) in enumerate(children):
                try:
                    outcomes.extend(recv.recv())
                except EOFError:
                    proc.join()
                    raise RuntimeError(
                        f"process worker {w} exited (code {proc.exitcode}) "
                        "without sending its task outcomes"
                    ) from None
            return outcomes
        except BaseException:
            # A sibling blocked on a full pipe would never exit by itself.
            for proc, _ in children:
                proc.terminate()
            raise
        finally:
            for proc, recv in children:
                proc.join()
                recv.close()


BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}


def resolve_backend(
    backend: "str | ExecutorBackend | None" = None, workers: int = 1
) -> ExecutorBackend:
    """Build the executor for a run.

    *backend* is a name from :data:`BACKENDS`, an already-built backend
    (returned as-is), or None — meaning serial for ``workers <= 1`` and
    process above.
    """
    if isinstance(backend, ExecutorBackend):
        return backend
    if backend is None:
        return SerialBackend() if workers <= 1 else ProcessBackend(workers)
    try:
        cls = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown executor backend {backend!r}; options: {sorted(BACKENDS)}"
        ) from None
    return cls(workers)
