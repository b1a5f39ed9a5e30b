"""In-memory spans and counters for the traced benchmark run.

The tracer wraps functions of the biaseval modules from outside: every
module attribute (and METRIC_FUNCTIONS entry) that refers to a traced
function is replaced by a wrapper for the duration of a ``patched`` block,
because callers import those functions by name into their own namespace.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


HOOK_SPAN = "trace.hooks"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None for a root span
    result: object = None


class Tracer:
    """Collects spans (name, start, end, parent) and named counts.

    Wrapped functions must be called from one thread: the open-span stack
    that decides each span's parent is shared.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, func, keep_result: bool = False):
        """Wrap ``func`` so each call records a span named ``name``."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None))
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[index].end = time.perf_counter()
            if keep_result:
                self.spans[index].result = result
            return result

        return wrapper

    def open_span(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self.spans[self._stack[-1]].name if self._stack else None

    def counter(self, name: str, func, on_call=None):
        """Wrap ``func`` so each call bumps count ``name``. No span for the
        call itself: these run too often to time. ``on_call`` sees the
        arguments and result, inside a ``trace.hooks`` span so its work is
        tracing overhead and not the caller's self time."""
        hook = self.span(HOOK_SPAN, on_call) if on_call is not None else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            self.count(name)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append((span.end - span.start) - covered)
    return result


def _modules(package: str):
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))]


@contextmanager
def patched(replacements: dict, package: str = "biaseval"):
    """Swap every reference to each key function for its wrapper inside the
    package's modules, dict-valued module globals and classes; undo on exit.

    ``replacements`` maps an original function (or a (class, attribute)
    pair for a method) to its wrapper.
    """
    undo = []
    try:
        for original, wrapper in replacements.items():
            if isinstance(original, tuple):
                owner, attribute = original
                undo.append((setattr, owner, attribute, owner.__dict__[attribute]))
                setattr(owner, attribute, wrapper)
                continue
            for module in _modules(package):
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        undo.append((setattr, module, attribute, value))
                        setattr(module, attribute, wrapper)
                    elif isinstance(value, dict) and not attribute.startswith("__"):
                        for key, entry in list(value.items()):
                            if entry is original:
                                undo.append((dict.__setitem__, value, key, entry))
                                value[key] = wrapper
        yield
    finally:
        for setter, owner, key, value in reversed(undo):
            setter(owner, key, value)
