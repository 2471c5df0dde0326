"""Span tracer that wraps the package's public functions from outside it.

``Tracer.install`` replaces each public function of the traced layers by a
wrapper in every ``opinionselect`` namespace that holds it (for example
``cli.normalize`` and ``selector.f_score`` as well as the defining module), so
calls made between modules are seen too. Each call records a span
``(name, start, end, parent, note)``; ``note`` is the exception class name
when the call raised, else the value of the name's note function, if any.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

LAYERS = ("graph", "equilibrium", "objective", "selector", "centrality")


class Tracer:
    def __init__(self, notes: dict[str, Callable] | None = None):
        self.spans: list = []
        self._stack = [-1]
        self._notes = notes or {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = self._notes.get(name)
        signature = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (name, start, clock(), parent, type(exc).__name__)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[idx] = (name, start, end, parent, note(
                signature.bind(*args, **kwargs).arguments, result)
                if note else None)
            return result
        return traced

    def install(self) -> None:
        """Wrap every public function of ``LAYERS`` wherever it is bound."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"opinionselect.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "opinionselect":
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(mod, attr, wrapped[id(obj)][1])

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(spans: list) -> dict:
    """Per-name self time and call count, plus per-span child-name counts.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it because calls are synchronous.
    """
    child_time = [0.0] * len(spans)
    children: dict[int, Counter] = defaultdict(Counter)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            children[parent][name] += 1
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for k, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += (end - start) - child_time[k]
        calls[name] += 1
    return {"self_s": dict(self_s), "calls": dict(calls), "children": children}
