"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` replaces public callables *by name in the module (or class)
that looks them up* with timing wrappers, keeps the spans in memory, and
writes them out as JSON lines when the benchmark ends.  Nothing under
``src/`` knows about it; spans inside the program are a later change.

Each span is ``{id, name, start, end, parent, req, pid, tid, kind}``.
``start``/``end`` are ``time.perf_counter()`` readings (CLOCK_MONOTONIC on
Linux, so the server child's spans share the client's time base).  ``parent``
is the id of the span that was open in the same thread / asyncio task when
this one began; ``req`` names the operation the span belongs to (job label,
request id, repeat index, ``artifact@M``).  ``kind`` is ``"call"`` for a
synchronous call and ``"await"`` for a coroutine, whose duration includes
time spent suspended.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "dump_spans", "load_spans", "self_times"]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: ``req`` given to a span that has no parent and no extractor: the
        #: operation the benchmark's own loop is driving right now.
        self.ambient: str | None = None
        self._ids = itertools.count()
        self._open = contextvars.ContextVar("perf_open_span", default=None)
        self._patched: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    # -- recording ------------------------------------------------------------------

    def _append(self, sid, name, start, end, parent, req, kind) -> None:
        self.spans.append(
            {
                "id": sid,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "req": req,
                "pid": self._pid,
                "tid": threading.get_ident(),
                "kind": kind,
            }
        )

    def record(self, name, start, end, *, parent=None, req=None, kind="call") -> None:
        """Append one finished span that was timed by the caller."""
        self._append(next(self._ids), name, start, end, parent, req, kind)

    def current(self) -> tuple[int, str | None] | None:
        """(id, req) of the span open in this thread / task, if any."""
        return self._open.get()

    def wrap(self, name: str, fn, req=None):
        """A callable that runs *fn* inside a span called *name*.

        *req* maps the call's arguments to the span's ``req``; without it a
        span inherits its parent's, or takes :attr:`ambient`.
        """
        tracer = self

        def begin(args, kwargs):
            parent = tracer._open.get()
            if req is not None:
                label = req(*args, **kwargs)
            elif parent is not None:
                label = parent[1]
            else:
                label = tracer.ambient
            sid = next(tracer._ids)
            token = tracer._open.set((sid, label))
            return sid, parent[0] if parent else None, label, token

        def finish(sid, parent, label, token, start, kind):
            end = time.perf_counter()
            tracer._open.reset(token)
            tracer._append(sid, name, start, end, parent, label, kind)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_await(*args, **kwargs):
                sid, parent, label, token = begin(args, kwargs)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    finish(sid, parent, label, token, start, "await")

            return traced_await

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            sid, parent, label, token = begin(args, kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                finish(sid, parent, label, token, start, "call")

        return traced_call

    # -- patching -------------------------------------------------------------------

    def patch(self, target: str, make_wrapper) -> None:
        """Replace ``module:attr`` or ``module:Class.attr`` with
        ``make_wrapper(original)``, remembering how to undo it."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *holders, attr = path.split(".")
        for holder in holders:
            owner = getattr(owner, holder)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make_wrapper(raw.__func__))
        else:
            wrapped = make_wrapper(raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def install(self, targets) -> None:
        """Install ``(span name, target, req extractor or None)`` wrappers."""
        # import everything before patching anything: a module first imported
        # after a patch would bind the wrapper by name and get it wrapped again
        for _name, target, _req in targets:
            importlib.import_module(target.partition(":")[0])
        for name, target, req in targets:
            self.patch(target, lambda fn, name=name, req=req: self.wrap(name, fn, req))

    def restore(self, owner, key, original) -> None:
        """Register an undo step for a patch made by hand (mapping entry)."""
        self._patched.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)


def dump_spans(spans, path) -> None:
    """Write *spans* as JSON lines."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def load_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans) -> dict[tuple[int, int], float]:
    """Self time per span, keyed ``(pid, id)``: the span's duration minus the
    part of that interval its child spans cover (children may overlap each
    other when they are awaited concurrently, so coverage is a union)."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["pid"], s["parent"])].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for start, end in sorted(children.get((s["pid"], s["id"]), ())):
            start = max(start, reach)
            end = min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[(s["pid"], s["id"])] = (s["end"] - s["start"]) - covered
    return out
