"""Span tracer that wraps pitkit's public functions from outside.

Nothing under src/ knows about it.  `Tracer.install()` replaces every
binding of each target: the module globals of every loaded ``pitkit.*``
module that hold the function (``from .kron import separating_weights``
binds it in ``isolate`` and ``concentrate`` too), or the class attribute
for methods.  `uninstall()` puts the originals back.

Targets come in three modes:

* ``span``  -- one span per call: name, start, end, parent id, self time.
* ``agg``   -- hot functions: calls and inclusive time are summed (per
  parent name as well), no span is kept.  Their time still counts as child
  time of the enclosing span, so self times stay right.
* ``leaf``  -- hot kernels that call no other target: like ``agg`` with the
  least bookkeeping (no frame, no self time), to keep the timer's own cost
  out of the traced pass.
* ``count`` -- the hottest kernels: only the exact call count is kept;
  their time stays inside the caller's self time.

Generator functions are timed per ``next()``.  Spans stay in memory and are
written once, by `write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

clock = time.perf_counter


@dataclass(frozen=True)
class Target:
    module: str  # pitkit submodule that defines the object
    attr: str  # "func", "Class.method", or "Class" (its __init__ is wrapped)
    mode: str  # span | agg | count
    observe: Callable | None = None  # observe(tracer, args, kwargs, result)

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


class _Frame:
    __slots__ = ("span_id", "name", "start", "child")

    def __init__(self, span_id: int, name: str, start: float):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[tuple] = []  # (id, name, start, end, parent_id, self_s)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.calls_by_parent: Counter = Counter()  # (name, parent name)
        self.counts: Counter = Counter()  # named counts filled by observers
        self.distinct: dict = defaultdict(set)  # observers' distinct values
        self._stack: list[_Frame] = []
        self._depth: Counter = Counter()
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- spans opened by the benchmark itself (one per CLI call) -----------
    def root(self, name: str):
        return _RootSpan(self, name)

    # -- bookkeeping ---------------------------------------------------------
    def _enter(self, name: str) -> _Frame:
        self._next_id += 1
        frame = _Frame(self._next_id, name, clock())
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def _exit(self, frame: _Frame, keep_span: bool) -> None:
        end = clock()
        self._stack.pop()
        name = frame.name
        dur = end - frame.start
        self._depth[name] -= 1
        if self._depth[name] == 0:  # outermost call of a recursive name only
            self.inclusive[name] += dur
        self.self_time[name] += dur - frame.child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += dur
        self.calls_by_parent[(name, parent.name if parent else None)] += 1
        if keep_span:
            self.spans.append(
                (frame.span_id, name, frame.start, end,
                 parent.span_id if parent else None, dur - frame.child)
            )

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name = target.name
        observe = target.observe
        if target.mode == "count":
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted
        if target.mode == "leaf" and not inspect.isgeneratorfunction(fn):
            return self._wrap_leaf(fn, name, observe)
        keep = target.mode == "span"
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        frame = self._enter(name)
                        try:
                            value = next(it)
                        except StopIteration:
                            return
                        finally:
                            self._exit(frame, keep)
                        if observe is not None:
                            observe(self, args, kwargs, value)
                        yield value
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, keep)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def _wrap_leaf(self, fn: Callable, name: str, observe) -> Callable:
        stack, inclusive, calls, by_parent = (
            self._stack, self.inclusive, self.calls, self.calls_by_parent)

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                inclusive[name] += dur
                calls[name] += 1
                if stack:
                    stack[-1].child += dur
                    by_parent[(name, stack[-1].name)] += 1
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return leaf

    def install(self) -> None:
        pitkit_modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "pitkit" or key.startswith("pitkit."))
        ]
        for target in self.targets:
            home = importlib.import_module(f"pitkit.{target.module}")
            head, _, method = target.attr.partition(".")
            obj = getattr(home, head)
            if inspect.isclass(obj):
                meth = method or "__init__"
                original = obj.__dict__[meth]
                self._saved.append((obj, meth, original))
                setattr(obj, meth, self._wrap(original, target))
                continue
            wrapped = self._wrap(obj, target)
            for module in pitkit_modules:
                for var, value in list(vars(module).items()):
                    if value is obj:
                        self._saved.append((module, var, value))
                        setattr(module, var, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "self_s"],
                    "spans": self.spans,
                },
                fh,
            )


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer._enter(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.frame, True)
