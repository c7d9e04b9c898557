"""Span recording from outside the program.

A ``Tracer`` replaces module attributes with timing wrappers.  Each call
appends one span ``[name, start, end, parent, info]`` to an in-memory list;
``parent`` is the index of the enclosing span (-1 at top level) and ``info``
is whatever the wrapper's ``info`` callable extracted from the arguments.
``restore`` puts the original attributes back.
"""

from __future__ import annotations

import functools
import time

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def span(self, name: str, info=None) -> "_Span":
        """Context manager recording one span around the benchmark's own calls."""
        return _Span(self, name, info)

    def _open(self, name: str, info) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, info]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module: object, attr: str, name: str, info=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span ``name``.

        Wrap the attribute the caller looks up: a module that did
        ``from .scheme import f`` calls its own ``f``, not ``scheme.f``.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = self._open(name, info(*args, **kwargs) if info else None)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(record)

        self._originals.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


class _Span:
    def __init__(self, tracer: Tracer, name: str, info) -> None:
        self._tracer, self._name, self._info = tracer, name, info

    def __enter__(self) -> None:
        self._record = self._tracer._open(self._name, self._info)

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._record)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def ancestor_ids(spans: list[list], name: str) -> list[int]:
    """For each span, the index of its nearest ancestor-or-self called
    ``name`` (-1 if none).  Parents precede children in the list."""
    out = [-1] * len(spans)
    for i, s in enumerate(spans):
        if s[NAME] == name:
            out[i] = i
        elif s[PARENT] >= 0:
            out[i] = out[s[PARENT]]
    return out
