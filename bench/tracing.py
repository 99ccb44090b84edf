"""Spans around the public functions of tmdkit, recorded from outside it.

:meth:`Tracer.install` replaces every public function of each layer
module with a timing wrapper, under every name by which the package and
its modules reach it (``tmdkit.pipelines.run_experiment`` as well as
``tmdkit.montecarlo.run_experiment``).  Spans stay in memory as
``[name, start, end, parent]`` lists; :func:`layer_summary` turns them
into per-layer self time and call counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "pipelines", "montecarlo", "detector", "sources", "reconstruct", "stats", "io")

# Name of the span the benchmark opens around each workload pass.
PASS_SPAN = "bench.pass"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str):
        return _Span(self, name)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def graft(self, spans: list[list]) -> None:
        """Add spans recorded in another process beneath the open span."""
        offset, top = len(self.spans), self._stack[-1] if self._stack else -1
        for name, start, end, parent in spans:
            self.spans.append([name, start, end, top if parent < 0 else parent + offset])

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def install(self) -> None:
        package = importlib.import_module("tmdkit")
        modules = [importlib.import_module(f"tmdkit.{layer}") for layer in LAYERS]
        holders = [package] + modules
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                for holder in holders:
                    if getattr(holder, attr, None) is obj:
                        self._patched.append((holder, attr, obj))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, obj in reversed(self._patched):
            setattr(holder, attr, obj)
        self._patched.clear()


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.index)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def subtree(spans: list[list], roots: set[int]) -> list[bool]:
    """Mask of spans that are one of ``roots`` or lie beneath one."""
    inside = [False] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        inside[i] = i in roots or (parent >= 0 and inside[parent])
    return inside


def layer_summary(spans: list[list], passes: int, only: list[bool] | None = None) -> dict:
    """Per-layer self milliseconds and calls per pass."""
    own = self_times(spans)
    out = {layer: {"self_ms": 0.0, "calls": 0} for layer in LAYERS}
    for i, (name, _, _, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if layer not in out or (only is not None and not only[i]):
            continue
        out[layer]["self_ms"] += own[i] * 1e3
        out[layer]["calls"] += 1
    for entry in out.values():
        entry["self_ms"] /= passes
        entry["calls"] /= passes
    return out


def durations(spans: list[list], name: str) -> list[float]:
    """Wall seconds of every span with this name."""
    return [end - start for n, start, end, _ in spans if n == name]
