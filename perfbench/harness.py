"""Wrapper harness: per-layer self time and call counts from outside the program.

The benchmark does not edit the program to trace it.  Instead
:class:`LayerTracer` replaces chosen public functions and methods with
thin wrappers that time every call and keep a per-thread stack of open
calls.  A call's *self time* is its duration minus the durations of the
wrapped calls nested directly inside it, so the self times of all layers
add up to the wall time of the outermost call (the operation root that
the benchmark opens with :meth:`LayerTracer.op`).

Rules the wrappers follow:

* A function is wrapped where it is defined, and every loaded
  ``repro.*`` module holding a ``from ... import`` alias of it is
  rebound too, so callers that imported the name directly see the
  wrapper.  Methods are wrapped on the class that defines them.
* A recursive call (the function already open on this thread's stack)
  is neither timed nor counted again: recursion counts once, at the
  outermost call.
* Generator functions are timed per resumption, and counted once per
  generator created.
* Time and counts are attributed to the system named by the innermost
  :meth:`LayerTracer.op` on the calling thread.

Each thread records into its own tables, so the hot path takes no lock;
:meth:`LayerTracer.snapshot` merges them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from contextlib import contextmanager

__all__ = ["Entry", "Figures", "LayerTracer"]


class Entry:
    """One wrapped entry point: ``module:qualname`` in a named layer.

    With *quantity* set, each outermost call also adds
    ``measure(args, result)`` to that named quantity.
    """

    def __init__(self, target: str, layer: str, quantity=None, measure=None):
        self.target = target
        self.layer = layer
        self.quantity = quantity
        self.measure = measure

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Entry({self.target!r}, {self.layer!r})"


class Figures:
    """Recorded figures, keyed by system first.

    ``self_s[(system, layer)]``, ``incl_s[(system, target)]`` (inclusive
    seconds of outermost calls), ``calls[(system, target)]``,
    ``quantities[(system, name)]`` and ``op_wall[system]``.
    """

    _TABLES = ("self_s", "incl_s", "calls", "quantities", "op_wall")

    def __init__(self):
        for name in self._TABLES:
            setattr(self, name, {})

    def merge(self, other) -> None:
        for name in self._TABLES:
            mine = getattr(self, name)
            for k, v in getattr(other, name).items():
                mine[k] = mine.get(k, 0) + v

    def entry_calls(self, system, targets) -> int:
        return sum(self.calls.get((system, t), 0) for t in targets)

    def fired(self) -> set:
        """Entry targets called at least once (any system)."""
        return {target for (_, target), n in self.calls.items() if n}


class _ThreadState(Figures):
    def __init__(self, epoch: int):
        super().__init__()
        self.epoch = epoch
        self.stack: list = []  # one [child seconds] cell per open call
        self.open: set = set()
        self.system = None


class LayerTracer:
    """Installs the wrappers and collects their figures."""

    ROOT_LAYER = "systems"

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list = []
        self._states: list = []
        self._epoch = 0
        self.enabled = False

    # ------------------------------------------------------------ state
    def reset(self) -> None:
        """Drop everything recorded so far (wrappers stay installed).

        Call only while no wrapped call or :meth:`op` is open.
        """
        with self._lock:
            self._epoch += 1
            self._states = []

    def _thread(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None or st.epoch != self._epoch:
            system = st.system if st is not None else None
            st = _ThreadState(self._epoch)
            st.system = system
            with self._lock:
                self._states.append(st)
            self._local.state = st
        return st

    def snapshot(self) -> Figures:
        """Figures of every thread since the last :meth:`reset`, merged."""
        out = Figures()
        with self._lock:
            states = list(self._states)
        for st in states:
            out.merge(st)
        return out

    # ------------------------------------------------------------ timing
    @staticmethod
    def _enter(st: _ThreadState, key) -> list:
        cell = [0.0]
        st.stack.append(cell)
        st.open.add(key)
        return cell

    @staticmethod
    def _exit(st: _ThreadState, key, layer, cell, duration) -> None:
        st.stack.pop()
        st.open.discard(key)
        if st.stack:
            st.stack[-1][0] += duration
        sk = (st.system, layer)
        st.self_s[sk] = st.self_s.get(sk, 0.0) + duration - cell[0]
        ik = (st.system, key)
        st.incl_s[ik] = st.incl_s.get(ik, 0.0) + duration

    @staticmethod
    def _count(st: _ThreadState, entry: Entry, args, result) -> None:
        ik = (st.system, entry.target)
        st.calls[ik] = st.calls.get(ik, 0) + 1
        if entry.quantity is not None:
            qk = (st.system, entry.quantity)
            st.quantities[qk] = st.quantities.get(qk, 0) + entry.measure(args, result)

    @contextmanager
    def op(self, system: str):
        """One benchmark operation on *system*.

        Its self time (wall time no wrapped call covers) is charged to
        the ``systems`` layer: orchestration left unattributed.
        """
        st = self._thread()
        prev, st.system = st.system, system
        try:
            if not self.enabled:
                yield
                return
            key = ("op", system)
            cell = self._enter(st, key)
            start = self._clock()
            try:
                yield
            finally:
                duration = self._clock() - start
                self._exit(st, key, self.ROOT_LAYER, cell, duration)
                st.op_wall[system] = st.op_wall.get(system, 0.0) + duration
        finally:
            st.system = prev

    # ------------------------------------------------------------ wrapping
    def _make_wrapper(self, fn, entry: Entry):
        tracer, clock = self, self._clock
        key, layer = entry.target, entry.layer

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.enabled or key in tracer._thread().open:
                    yield from fn(*args, **kwargs)
                    return
                tracer._count(tracer._thread(), entry, args, None)
                gen = fn(*args, **kwargs)
                while True:
                    st = tracer._thread()
                    cell = tracer._enter(st, key)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(st, key, layer, cell, clock() - start)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            st = tracer._thread()
            if key in st.open:
                return fn(*args, **kwargs)
            cell = tracer._enter(st, key)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(st, key, layer, cell, clock() - start)
            tracer._count(st, entry, args, result)
            return result

        return wrapper

    def install(self, entries) -> None:
        """Wrap every entry; raises if a target no longer resolves."""
        for entry in entries:
            module_name, _, qualname = entry.target.partition(":")
            owner = sys.modules.get(module_name)
            if owner is None:
                owner = __import__(module_name, fromlist=["_"])
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            if inspect.isclass(owner):
                raw = owner.__dict__.get(attr)
                if raw is None:
                    raise AttributeError(f"{entry.target}: not defined on {owner.__name__}")
                setattr(owner, attr, self._make_wrapper(raw, entry))
                self._restore.append((owner, attr, raw))
                continue
            fn = getattr(owner, attr)
            if not callable(fn):
                raise TypeError(f"{entry.target} is not callable")
            self._rebind(fn, self._make_wrapper(fn, entry))

    def _rebind(self, fn, wrapper) -> None:
        """Point every loaded ``repro.*`` module alias of *fn* at *wrapper*."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
