"""Span recording by wrapping the library's public callables.

The benchmark measures layers without editing ``src/``: :class:`Tracer`
replaces each named callable with a wrapper that records a span (name,
start, end, parent span, thread) around the call; the wrappers stay for
the life of the process. Module-level functions are replaced in
every loaded ``repro`` module that imported them by name, so call sites
that did ``from x import f`` are traced too.

Spans stay in memory and are written out by :meth:`Tracer.dump` when the
run ends. A span's parent is the innermost open span on the same thread;
coroutine wrappers do not nest others, because their awaits interleave
with unrelated work on the event loop thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

# Span fields, by index into the per-span list.
NAME, START, END, PARENT, THREAD, EXTRA = range(6)


@dataclass(frozen=True)
class Layer:
    """One traced callable.

    Attributes:
        name: Span name, the ``repro`` module path plus the callable,
            e.g. ``"stats.prefix_moments.build"``.
        target: ``"module:Qualified.name"`` of the callable to wrap.
        root: Whether a parentless span of this layer counts as covered
            operation time in ``trace.coverage``.
        note: Optional ``note(args, kwargs)`` whose result is stored on
            the span, for counts measured where the work happens.
        timed: False records only the note (as a zero-length span) and
            opens no parent scope, for hot accessors.
    """

    name: str
    target: str
    root: bool = False
    note: Callable[[tuple, dict], Any] | None = None
    timed: bool = True


class Tracer:
    """Installs layer wrappers and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.recording = True
        self._local = threading.local()
        self._installed: set[str] = set()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # Pool workers forked from a traced process keep the wrappers but
        # their spans could never reach the parent: stop recording there.
        self.recording = False
        self.spans = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- installation ------------------------------------------------------

    def install(self, layers) -> None:
        """Wrap every layer's callable (idempotent per target)."""
        for layer in layers:
            self._install(layer)

    def _install(self, layer: Layer) -> None:
        if layer.target in self._installed:
            return
        self._installed.add(layer.target)
        module_name, _, qualname = layer.target.partition(":")
        owner: object = importlib.import_module(module_name)
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        if isinstance(owner, type):
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, layer))
            else:
                wrapped = self._wrap(raw, layer)
            setattr(owner, attr, wrapped)
            return
        original = getattr(owner, attr)
        wrapped = self._wrap(original, layer)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    def _wrap(self, func: Callable, layer: Layer) -> Callable:
        tracer = self
        name, note = layer.name, layer.note
        if not layer.timed:

            @functools.wraps(func)
            def noted(*args, **kwargs):
                if tracer.recording:
                    now = time.perf_counter()
                    tracer.spans.append(
                        [name, now, now, -1, 0, note(args, kwargs)]
                    )
                return func(*args, **kwargs)

            return noted

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def traced_async(*args, **kwargs):
                if not tracer.recording:
                    return await func(*args, **kwargs)
                extra = note(args, kwargs) if note is not None else None
                span = [name, time.perf_counter(), 0.0, -1,
                        threading.get_ident(), extra]
                tracer.spans.append(span)
                try:
                    return await func(*args, **kwargs)
                finally:
                    span[END] = time.perf_counter()

            return traced_async

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return func(*args, **kwargs)
            extra = note(args, kwargs) if note is not None else None
            stack = tracer._stack()
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, threading.get_ident(), extra]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every recorded span as JSON (extras that are not plain
        data are written as their ``repr``)."""
        rows = [
            [s[NAME], s[START], s[END], s[PARENT], s[THREAD],
             s[EXTRA] if isinstance(s[EXTRA], (int, float, str, list, type(None)))
             else repr(s[EXTRA])]
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "thread",
                                  "extra"], "spans": rows}, handle)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its child spans."""
    own = [s[END] - s[START] for s in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own
