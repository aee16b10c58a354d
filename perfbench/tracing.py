"""Benchmark-side spans around the public functions of each ``repro`` layer.

The program itself records no spans yet, so the traced run wraps the layer
entry points from outside: methods are replaced at class level, and a
module-level function is rebound in its defining module *and* in every
``repro`` module that imported it by name (``from x import f`` copies the
binding, so patching the defining module alone would miss the façade's
calls).  :func:`instrument` returns an undo handle; the untraced part of a
run never has a wrapper installed, so it pays nothing.

Each span records its name, start, end, parent span and request id.  Spans
stay in memory and are written out once, when the run ends.  A span's self
time is its duration minus the time covered by its child spans; children
always run on the parent's thread, nested inside it, so their durations
add up without overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

#: Counter callback of a probe: (call args, call kwargs, return value) ->
#: counter increments.
CountFn = Callable[[tuple, dict, object], dict[str, float]]


@dataclass(frozen=True)
class Span:
    """One finished span."""

    span_id: int
    parent_id: int | None
    request_id: object
    name: str
    start: float
    end: float
    thread: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._counters: Counter[str] = Counter()
        #: While set, wrapped calls record nothing (oracle work in a traced share).
        self.paused = False

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def pause(self):
        """Record no spans inside the block."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def set_request(self, request_id: object) -> None:
        """Attribute the calling thread's next spans to ``request_id``."""
        self._local.request = request_id

    def enter(self, name: str) -> tuple[int, int | None, str, float]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, name, time.perf_counter()

    def exit(self, token: tuple[int, int | None, str, float]) -> None:
        end = time.perf_counter()
        span_id, parent, name, start = token
        self._stack().pop()
        span = Span(
            span_id,
            parent,
            getattr(self._local, "request", None),
            name,
            start,
            end,
            threading.current_thread().name,
        )
        with self._lock:
            self._spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    @property
    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def self_times(self) -> dict[str, list[float]]:
        """Span name -> self time (seconds) of every finished span."""
        spans = self.spans
        covered: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent_id is not None:
                covered[span.parent_id] += span.duration
        by_name: dict[str, list[float]] = defaultdict(list)
        for span in spans:
            by_name[span.name].append(span.duration - covered.get(span.span_id, 0.0))
        return dict(by_name)

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "parent": span.parent_id,
                            "request": span.request_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )


@dataclass(frozen=True)
class Probe:
    """Wrap ``target`` (``"module:Class.method"`` or ``"module:function"``).

    ``count`` turns each call into counter increments.
    """

    target: str
    span: str
    count: CountFn | None = None


def _wrap(func: Callable, tracer: Tracer, probe: Probe) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return func(*args, **kwargs)
        token = tracer.enter(probe.span)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit(token)
        if probe.count is not None:
            for name, amount in probe.count(args, kwargs, result).items():
                tracer.count(name, amount)
        return result

    return wrapper


class Instrumentation:
    """The installed wrappers; :meth:`remove` restores every original."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def instrument(tracer: Tracer, probes: list[Probe]) -> Instrumentation:
    """Install every probe; fails loudly if a target no longer exists."""
    installed = Instrumentation()
    try:
        for probe in probes:
            module_name, _, path = probe.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attribute = path.split(".")
                cls = getattr(module, class_name)
                raw = cls.__dict__[attribute]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(_wrap(raw.__func__, tracer, probe))
                else:
                    wrapped = _wrap(raw, tracer, probe)
                installed._set(cls, attribute, wrapped)
            else:
                original = getattr(module, path)
                wrapped = _wrap(original, tracer, probe)
                for loaded_name, loaded in list(sys.modules.items()):
                    if not loaded_name.startswith("repro") or loaded is None:
                        continue
                    if loaded.__dict__.get(path) is original:
                        installed._set(loaded, path, wrapped)
    except BaseException:
        installed.remove()
        raise
    return installed


@contextmanager
def traced(tracer: Tracer, probe_list: list[Probe]):
    """Install ``probe_list`` for the duration of the block."""
    installed = instrument(tracer, probe_list)
    try:
        yield tracer
    finally:
        installed.remove()
