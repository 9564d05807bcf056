"""Outside-in span tracer for the ap3 modules.

Inside a ``with Tracer():`` block every public module-level function of the
traced layers is replaced by a timing wrapper at every place a caller looks
it up: module attributes of every loaded ``ap3`` module (so the copies that
``from .sets import canonicalize`` makes in other modules are covered) and
the values of module-level dicts such as ``ap3.suites.SUITES``.  Leaving the
block restores every one of them.

Each call records one span (each resumption, for generator functions): the
function, start, end and the span that was open when it began.  Spans stay in
memory in flat arrays.  A function's self time is the sum over its spans of
the duration minus the time covered by the span's children.  Spans nest per
thread, so at threads=1 the tree is exact.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from array import array
from time import perf_counter
from typing import Callable

LAYERS = ("sets", "counting", "constructions", "search", "structure",
          "bounds", "suites", "cli", "parallel")


class Tracer:
    """Patches the layers on enter and restores them on exit; one block each.

    result_counters maps a function name ("search.max3ap_integers") to
    (counter name, function of the call's return value); the values are
    summed over calls into ``counters``.
    """

    def __init__(self, result_counters: dict[str, tuple[str, Callable]] | None = None):
        self._result_counters = result_counters or {}
        self.names: list[str] = []
        self.calls: list[int] = []
        self.yields: list[int] = []
        self.counters: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        if self.names:
            raise RuntimeError("a Tracer records one block; make a new one")
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ap3.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))

        def replacement(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for modname, mod in list(sys.modules.items()):
            if modname != "ap3" and not modname.startswith("ap3."):
                continue
            for attr, value in list(vars(mod).items()):
                new = replacement(value)
                if new is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, new)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        new = replacement(item)
                        if new is not None:
                            self._patches.append((value, key, item))
                            value[key] = new
        return self

    def __exit__(self, *exc) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.yields.append(0)
        counter = self._result_counters.get(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                self.calls[idx] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        span = self._open(idx)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self._close(span)
                        self.yields[idx] += 1
                        yield item
                finally:
                    it.close()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[idx] += 1
            span = self._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                key, value = counter
                self.counters[key] = self.counters.get(key, 0) + value(result)
            return result

        return traced

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, idx: int) -> int:
        stack = self._stack()
        span = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_end.append(0.0)
        stack.append(span)
        self.span_start.append(perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.span_end[span] = perf_counter()
        self._stack().pop()

    # -- summaries --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per function name, in seconds."""
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        totals = [0.0] * len(self.names)
        for i in range(n):
            totals[self.span_name[i]] += self.span_end[i] - self.span_start[i] - child[i]
        return dict(zip(self.names, totals))

    def calls_under(self, child: str, parent: str) -> int:
        """Spans of ``child`` whose enclosing span belongs to ``parent``."""
        c, p = self.names.index(child), self.names.index(parent)
        return sum(
            1 for i in range(len(self.span_name))
            if self.span_name[i] == c and self.span_parent[i] >= 0
            and self.span_name[self.span_parent[i]] == p
        )

    def stats(self) -> dict[str, float]:
        """``<layer>.<function>.calls`` / ``.self_s`` / ``.yields`` for every
        function that ran, plus the result counters."""
        out: dict[str, float] = {}
        selfs = self.self_times()
        for k, name in enumerate(self.names):
            if self.calls[k]:
                out[f"{name}.calls"] = self.calls[k]
                out[f"{name}.self_s"] = selfs[name]
            if self.yields[k]:
                out[f"{name}.yields"] = self.yields[k]
        out.update(self.counters)
        return out
