"""Hierarchical run tracing: a deterministic span tree over real execution.

The paper's analysis method is "where did the time go?" — it attributes
each system's behaviour to stages of the preprocessing → global join →
local join framework and to partition skew within them (Section III).
This module records that attribution *during* a run instead of
reconstructing it afterwards: a tree of :class:`Span` objects —
experiment → system run → phase → task → partition — where every span
carries

* real wall-clock duration (``start`` / ``seconds``),
* the **counter deltas** charged while it was open (measured against the
  same redirect target the :mod:`repro.exec` machinery uses, so parallel
  task bodies attribute their deltas to the right span), and
* structured attributes (partition ids, candidate/refine counts, …).

**Tracing is zero-cost-to-results by construction.**  Spans never charge
or redirect counters themselves — they only *snapshot and diff* the
ledger that would have been written anyway — so result pairs and counter
totals are bit-identical with tracing on or off, on every backend.  The
wall-clock fields (``start``, ``seconds``, ``pid``, ``tid``) are the
only nondeterministic state; :meth:`Span.fingerprint` excludes them, and
the remainder of the tree is bit-identical across serial and process
execution.

Activation is explicit and process-global: spans are recorded only
inside a :meth:`Tracer.session` (forked workers inherit the activation
flag).  Outside a session every
:func:`span` entry is a cheap no-op.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..metrics import _REDIRECT, Counters

__all__ = [
    "Span",
    "Tracer",
    "span",
    "annotate",
    "attach",
    "active",
    "current_span",
]

#: Wall-clock / worker-identity fields excluded from determinism
#: comparisons (everything else in the tree is bit-identical across
#: backends and repeated runs).
TIMING_FIELDS = ("start", "seconds", "pid", "tid")


@dataclass
class Span:
    """One node of the trace tree.

    ``counters`` holds the *inclusive* counter deltas observed while the
    span was open (children's charges are sub-intervals of the same
    ledger, so a parent's deltas equal its own work plus its children's —
    the conservation invariant the property tests pin down).
    """

    name: str
    kind: str = "span"  # experiment | run | stage | phase | task | partition
    attrs: dict = field(default_factory=dict)
    counters: Counters = field(default_factory=Counters)
    children: list["Span"] = field(default_factory=list)
    start: float = 0.0  # time.perf_counter() at open
    seconds: float = 0.0
    pid: int = 0
    tid: int = 0

    @property
    def end(self) -> float:
        return self.start + self.seconds

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, *, kind: Optional[str] = None, name: Optional[str] = None) -> list["Span"]:
        """All descendants (including self) matching *kind* and/or *name*."""
        return [
            s
            for s in self.walk()
            if (kind is None or s.kind == kind) and (name is None or s.name == name)
        ]

    def self_counters(self) -> Counters:
        """This span's exclusive deltas: inclusive minus children's sums."""
        out = Counters(self.counters)
        for child in self.children:
            for key, value in child.counters.items():
                out[key] = out.get(key, 0.0) - value
        return Counters({k: v for k, v in out.items() if v})

    def fingerprint(self):
        """Deterministic tree digest: everything except the timing fields.

        Bit-identical across backends and repeated same-seed runs; the
        golden determinism tests compare these directly.
        """
        return (
            self.name,
            self.kind,
            tuple(sorted(self.attrs.items())),
            tuple(sorted(self.counters.items())),
            tuple(child.fingerprint() for child in self.children),
        )


# --------------------------------------------------------------------- state
_TLS = threading.local()  # .stack: list[Span] of open spans in this thread
#: Count of open Tracer sessions in this process.  Forked workers inherit
#: it; thread workers read it directly.  While zero, span() is a no-op.
_ACTIVE_SESSIONS = 0
#: Guards _ACTIVE_SESSIONS: concurrent query threads may open/close
#: sessions while a long-lived service session is active, and an unlocked
#: read-modify-write could drop a decrement and leave tracing stuck on.
_SESSION_LOCK = threading.Lock()


def active() -> bool:
    """Whether a tracing session is open (spans are being recorded)."""
    return _ACTIVE_SESSIONS > 0


def _stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    return stack


def current_span() -> Optional[Span]:
    """The innermost open span of the current thread, or None."""
    stack = getattr(_TLS, "stack", None)
    return stack[-1] if stack else None


def _effective_target(counters: Counters):
    """The mapping ``counters.add`` is writing to right now, in this thread.

    Mirrors the redirect resolution of :meth:`repro.metrics.Counters.add`
    exactly: inside an executor task the target is the task's scratch
    ledger, so spans opened in task bodies diff the scratch and their
    deltas stay attributed to the right task on every backend.
    """
    sinks = getattr(_REDIRECT, "sinks", None)
    if sinks:
        token = counters.__dict__.get("_token")
        if token is not None:
            sink = sinks.get(token)
            if sink is not None:
                return sink
    return counters


class _SpanHandle:
    """Context manager returned by :func:`span` (no-op outside a session)."""

    __slots__ = ("_name", "_kind", "_counters", "_detach", "_attrs",
                 "span", "_target", "_before")

    def __init__(self, name, kind, counters, detach, attrs):
        self._name = name
        self._kind = kind
        self._counters = counters
        self._detach = detach
        self._attrs = attrs
        self.span = None
        self._target = None
        self._before = None

    def __enter__(self) -> Optional[Span]:
        if not _ACTIVE_SESSIONS:
            return None
        sp = Span(
            name=self._name,
            kind=self._kind,
            attrs=dict(self._attrs),
            pid=os.getpid(),
            tid=threading.get_ident(),
        )
        if self._counters is not None:
            # Snapshot, never redirect: the accumulation order of the real
            # ledger is untouched, which is what keeps traced totals
            # bit-identical to untraced runs.
            self._target = _effective_target(self._counters)
            self._before = dict(self._target)
        _stack().append(sp)
        self.span = sp
        sp.start = time.perf_counter()
        return sp

    def __exit__(self, exc_type, exc_value, tb) -> bool:
        sp = self.span
        if sp is None:
            return False
        sp.seconds = time.perf_counter() - sp.start
        stack = _stack()
        if stack and stack[-1] is sp:
            stack.pop()
        else:  # pragma: no cover - unbalanced exit (a leaked handle)
            try:
                stack.remove(sp)
            except ValueError:
                pass
        if self._target is not None:
            before = self._before
            for key, value in self._target.items():
                delta = value - before.get(key, 0.0)
                if delta:
                    sp.counters[key] = delta
        if not self._detach:
            parent = stack[-1] if stack else None
            if parent is not None:
                parent.children.append(sp)
        return False


def span(
    name: str,
    *,
    kind: str = "span",
    counters: Optional[Counters] = None,
    detach: bool = False,
    **attrs,
) -> _SpanHandle:
    """Open a span under the current thread's innermost open span.

    *counters* selects the ledger whose deltas the span records (snapshot
    on open, diff on close — the ledger itself is never touched).
    *detach* leaves the finished span unattached; the executor uses it
    for task spans, which are grafted by :func:`attach` in task-index
    order so the tree structure is identical on every backend.

    Outside a :class:`Tracer` session this is a no-op that yields None.
    """
    return _SpanHandle(name, kind, counters, detach, attrs)


def annotate(**attrs) -> None:
    """Set attributes on the innermost open span (no-op when untraced).

    Task and partition bodies use this to label their span with partition
    ids and candidate/refine counts without threading a span handle
    through every call signature.
    """
    sp = current_span()
    if sp is not None:
        sp.attrs.update(attrs)


def attach(finished: Optional[Span]) -> None:
    """Graft an already-finished span under the current open span.

    The executor's merge loop calls this with each task's span, in
    task-index order — the same order task scratches merge — so the
    children lists are deterministic regardless of how tasks interleaved.
    """
    if finished is None:
        return
    parent = current_span()
    if parent is not None:
        parent.children.append(finished)


class Tracer:
    """Owns one traced session; ``root`` holds the finished span tree."""

    def __init__(self):
        self.root: Optional[Span] = None

    def session(
        self,
        name: str,
        *,
        kind: str = "experiment",
        counters: Optional[Counters] = None,
        **attrs,
    ) -> "_SessionHandle":
        """Open the root span and activate tracing until it closes."""
        return _SessionHandle(self, span(
            name, kind=kind, counters=counters, detach=True, **attrs
        ))


class _SessionHandle:
    __slots__ = ("_tracer", "_handle")

    def __init__(self, tracer: Tracer, handle: _SpanHandle):
        self._tracer = tracer
        self._handle = handle

    def __enter__(self) -> Span:
        global _ACTIVE_SESSIONS
        with _SESSION_LOCK:
            _ACTIVE_SESSIONS += 1
        return self._handle.__enter__()

    def __exit__(self, exc_type, exc_value, tb) -> bool:
        global _ACTIVE_SESSIONS
        try:
            return self._handle.__exit__(exc_type, exc_value, tb)
        finally:
            with _SESSION_LOCK:
                _ACTIVE_SESSIONS -= 1
            self._tracer.root = self._handle.span
