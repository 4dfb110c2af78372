"""Task isolation for the executor backends.

A *task* is one unit of substrate work — a MapReduce map/reduce attempt
or one RDD partition of a stage.  To run tasks concurrently while keeping
the run's accounting bit-identical to serial execution, every task body
executes against its own scratch state:

* **Counters** — charges made through the run's shared
  :class:`~repro.metrics.Counters` instance are redirected (thread-local,
  per-instance) into a scratch ledger captured in the task's
  :class:`TaskOutcome`.  The caller merges scratches back in task-index
  order, so the shared counters end up identical no matter how the tasks
  were interleaved — or in which process they ran.
* **Side outputs** — task bodies that need to hand structured data back
  to the driver (e.g. SpatialHadoop's reducers materializing partitions)
  call :func:`emit` instead of mutating closure state; closure mutation
  is invisible to the driver when the task ran in another process.
* **Errors** — modelled failures (broken pipes, OOM) raised inside a
  task are captured, not propagated, and re-raised by the merge loop at
  the failing task's index, reproducing serial failure order exactly.
* **Timing** — each outcome carries the real wall-clock seconds of the
  task body, surfaced in ``RunReport.engine_profile["exec"]`` so real
  multi-core speedup is observable next to the simulated seconds.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from ..metrics import _REDIRECT, Counters
from ..trace import core as _trace

__all__ = ["TaskOutcome", "run_task", "emit", "redirect_counters"]


@dataclass
class TaskOutcome:
    """Everything one task attempt produced, ready to merge in order."""

    index: int
    result: Any = None
    counters: Counters = field(default_factory=Counters)
    side: list = field(default_factory=list)  # [(key, value), ...] in emit order
    error: Optional[BaseException] = None
    seconds: float = 0.0
    #: The task's finished trace span (None when tracing is off).  It is
    #: recorded *detached* and grafted by ``merge_outcomes`` in task-index
    #: order so the trace tree is identical on every backend.
    span: Optional[_trace.Span] = None


@contextmanager
def redirect_counters(shared: Counters, sink: Counters) -> Iterator[None]:
    """Route charges against *shared* into *sink* for the current thread."""
    sinks = getattr(_REDIRECT, "sinks", None)
    if sinks is None:
        sinks = _REDIRECT.sinks = {}
    key = shared.token
    prev = sinks.get(key)
    sinks[key] = sink
    try:
        yield
    finally:
        if prev is None:
            del sinks[key]
        else:
            sinks[key] = prev


#: The side-output list of the task currently running in this thread.
def _current_side() -> Optional[list]:
    return getattr(_REDIRECT, "task_side", None)


def emit(key: Any, value: Any) -> None:
    """Record a (key, value) side output of the current task.

    Side outputs are the process-safe replacement for mutating closure
    state from a task body: they travel back to the driver inside the
    :class:`TaskOutcome` and are merged in task-index order.
    """
    side = _current_side()
    if side is None:
        raise RuntimeError(
            "emit() called outside a task body; side outputs only exist "
            "while an ExecutorBackend is running the task"
        )
    side.append((key, value))


def run_task(index: int, fn: Callable[[], Any], shared: Counters) -> TaskOutcome:
    """Execute one task body in isolation and capture its outcome."""
    outcome = TaskOutcome(index=index)
    prev_side = getattr(_REDIRECT, "task_side", None)
    _REDIRECT.task_side = outcome.side
    start = time.perf_counter()
    try:
        with redirect_counters(shared, outcome.counters):
            if _trace.active():
                # Detached: the span must not attach to whatever happens to
                # be open in *this* thread (in a forked child that is a
                # copy of the driver's stack, which never travels back) —
                # merge_outcomes grafts it in task-index order instead, so
                # the tree is backend-independent.
                with _trace.span(
                    "task", kind="task", counters=shared, detach=True,
                    index=index,
                ) as sp:
                    outcome.span = sp
                    outcome.result = fn()
            else:
                outcome.result = fn()
    except Exception as err:  # modelled failures surface via the merge loop
        outcome.error = err
    finally:
        outcome.seconds = time.perf_counter() - start
        _REDIRECT.task_side = prev_side
    return outcome
