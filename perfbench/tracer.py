"""Span recorder for the traced benchmark pass.

The tracer replaces a function at the module attribute its caller looks up
(``drcvar.conic.schur_accumulate`` for the solver, ``drcvar.dual.dual_objective``
for the certificate search, and so on) with a wrapper that records one span
per call: name, start, end, span id, parent id, fit id and a work count.
Spans are appended to an in-memory list and only aggregated or written out
after the measured work is done.  No code under ``src/`` is changed.

Parents come from a per-thread stack.  A span opened on a thread whose stack
is empty (a worker of ``radius_sweep``'s thread pool) takes as parent the
innermost open span that was registered with ``spawns=True``.  A span
registered with ``fit_scope=True`` starts a new fit id unless one is already
open on its thread, and everything below it carries that id.

A span's self time is its duration minus the union of its children's
intervals, so children that overlap in time (two fits on two threads) are
not subtracted twice.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import threading
import time
import types
from collections import defaultdict

# span record fields
NAME, START, END, SID, PARENT, FIT, WORK = range(7)


class Tracer:
    """Collects spans from wrapped functions; restores them on ``close``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._fit_ids = itertools.count(1)
        self._local = threading.local()
        self._spawner: tuple | None = None  # (span id, fit id) of an open spawner
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, name: str, *, work=None,
             fit_scope: bool = False, spawns: bool = False,
             optional: bool = False) -> None:
        """Replace ``module.attr`` with a recording wrapper.

        ``work(args, result)`` returns the span's work count.  A missing
        attribute raises AttributeError, because its layer would silently
        read as zero; with ``optional=True`` (a helper that a later version
        may delete) it is left alone and reads as zero.
        """
        original = getattr(module, attr, None)
        if original is None:
            if optional:
                return
            raise AttributeError(f"{module.__name__} has no attribute "
                                 f"{attr!r} to trace")
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid, parent, fit = tracer._open(fit_scope, spawns)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._close(spawns)
            count = work(args, result) if work is not None else 0
            tracer.spans.append((name, start, end, sid, parent, fit, count))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def _open(self, fit_scope: bool, spawns: bool) -> tuple:
        stack = self._stack()
        if stack:
            parent, fit = stack[-1]
        elif self._spawner is not None:
            parent, fit = self._spawner
        else:
            parent, fit = 0, 0
        if fit_scope and fit == 0:
            fit = next(self._fit_ids)
        sid = next(self._ids)
        stack.append((sid, fit))
        if spawns:
            self._spawner = (sid, fit)
        return sid, parent, fit

    def _close(self, spawns: bool) -> None:
        self._stack().pop()
        if spawns:
            self._spawner = None

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around benchmark code."""
        sid, parent, fit = self._open(False, False)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._close(False)
            self.spans.append((name, start, end, sid, parent, fit, 0))

    def close(self) -> None:
        """Put every wrapped attribute back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @staticmethod
    def span_cost(calls: int = 20000) -> float:
        """Seconds a wrapper adds to one call, measured on a no-op function."""
        target = types.SimpleNamespace(noop=lambda: None)
        plain = target.noop
        Tracer().wrap(target, "noop", "noop")
        wrapped = target.noop
        t0 = time.perf_counter()
        for _ in range(calls):
            plain()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)

    def self_times(self) -> dict[int, float]:
        """Self time of every span, keyed by span id."""
        children = defaultdict(list)
        for sp in self.spans:
            children[sp[PARENT]].append((sp[START], sp[END]))
        out = {}
        for sp in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(sp[SID], ())):
                lo, hi = max(lo, sp[START]), min(hi, sp[END])
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[sp[SID]] = (sp[END] - sp[START]) - covered
        return out

    def write(self, path, header: dict) -> None:
        """Write the header line, then one JSON array per span, gzipped."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            fh.write(json.dumps(["name", "start", "end", "id", "parent",
                                 "fit", "work"]) + "\n")
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")

