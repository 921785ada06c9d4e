"""Run-time wrappers that time calls into the reproduction's layers.

Nothing under ``src/`` is edited: a :class:`Probe` replaces a public
method on a class (or on one object) with a wrapper that records a span
(name, start, end, parent, attributes) in memory, and puts the original
back on :meth:`Probe.uninstall`.  Spans nest by call depth, because the
benchmark runs in one thread, so a layer's *self* time is its span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

_MISSING = object()


class Probe:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        #: One list per span: [name, start, end, parent, attrs].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, tally=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``tally(args, kwargs, result)`` may return a dict of quantities
        (bytes, counts) stored on the span; it runs inside the span.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
                if tally is not None:
                    span[4] = tally(args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        # Remember what the owner itself held, so an inherited method is
        # restored by deleting the override rather than by copying it down.
        self._installed.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def after(self, owner, attr: str, hook) -> None:
        """Call ``hook()`` after every call of ``owner.attr`` returns or raises."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                hook()

        self._installed.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, held = self._installed.pop()
            if held is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, held)

    # -- analysis ---------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w") as f:
            for name, start, end, parent, attrs in self.spans:
                f.write(json.dumps([name, start, end, parent, attrs]) + "\n")


def load_spans(path: Path) -> list[list]:
    with open(path) as f:
        return [json.loads(line) for line in f]


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, int], float]:
    """Per-name self seconds and call counts, plus the top-level total.

    The self times of all spans sum to the duration covered by top-level
    spans, so ``wall - top_level`` is the time no span covers.
    """
    child = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
        else:
            top += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += end - start - child[i]
        calls[name] += 1
    return dict(self_s), dict(calls), top


def attr_sum(spans: list[list], name: str, key: str) -> float:
    return float(sum((s[4] or {}).get(key, 0) for s in spans if s[0] == name))
