"""Multi-core task execution backends for the simulated substrates.

``MapReduceJob`` map/reduce attempts and ``RDD`` per-partition stage
tasks run on a pluggable :class:`ExecutorBackend` (serial, or one
forked process per worker slice of each stage).  Parallel execution
is *observationally equivalent* to serial: every task runs against its
own scratch counters and side channel, and outcomes are merged in
task-index order, so result pairs, per-phase counters and failure
outcomes are bit-identical across backends — only wall-clock time
changes.
"""

from .backend import (
    BACKENDS,
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    merge_outcomes,
    resolve_backend,
)
from .pool import run_ordered
from .task import TaskOutcome, emit, redirect_counters, run_task

__all__ = [
    "run_ordered",
    "ExecutorBackend",
    "SerialBackend",
    "ProcessBackend",
    "BACKENDS",
    "resolve_backend",
    "merge_outcomes",
    "TaskOutcome",
    "emit",
    "redirect_counters",
    "run_task",
]
