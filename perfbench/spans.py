"""Span recorder and function instrumentation for the benchmark's traced run.

Spans are recorded in memory and written out when the run ends.  A span has
a name (``<module>.<function>``), a start, an end, the id of its parent span
and its self time: its duration minus the time covered by spans called from
it.  Functions called once per point ("hot" functions) are not stored one
span each; their calls, total time and self time are summed per iteration
and per enclosing span, and their time still counts as child time of the
span that called them.

Instrumentation replaces a function of the program with a wrapper, in every
loaded module of the package that holds it, and puts the original back
afterwards.  A target that no longer exists is reported as missing instead
of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    self_s: float
    ann: dict = field(default_factory=dict)
    hot: dict = field(default_factory=dict)  # self time of hot calls made under this span

    @property
    def dur(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans and hot-call sums of the calls made on the recording thread.

    Only the thread that created the recorder is recorded: calls from worker
    threads interleave under the interpreter lock, so their wall times would
    double-count.
    """

    def __init__(self):
        self.iterations = []  # [(spans, hot sums)] of finished iterations
        self.missing = {}  # target -> reason, in the order first seen
        self._spans = []
        self._hot = {}  # name -> [calls, total_s, self_s]
        self._hot_under = {}  # span id -> {hot name: self time}
        self._stack = []  # open frames: [span id or None, child_s, parent id]
        self._thread = threading.get_ident()
        self._t0 = time.perf_counter()

    def note_missing(self, target: str, reason: str) -> None:
        self.missing.setdefault(target, reason)

    def wrap(self, name, fn, hot=False, on_return=None):
        """A function that calls fn and records the call under name.

        on_return(args, kwargs, result) may return a dict of annotations
        (counts read off the result) stored with the span.
        """
        spans = self._spans
        stack = self._stack
        recording_thread = self._thread
        clock = time.perf_counter

        def recorded(*args, **kwargs):
            if threading.get_ident() != recording_thread:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            parent_id = None if parent is None else (parent[0] if parent[0] is not None else parent[2])
            frame = [None if hot else len(spans), 0.0, parent_id]
            if not hot:
                spans.append(None)
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                own = dur - frame[1]
                if hot:
                    acc = self._hot.setdefault(name, [0, 0.0, 0.0])
                    acc[0] += 1
                    acc[1] += dur
                    acc[2] += own
                    if parent_id is not None:
                        under = self._hot_under.setdefault(parent_id, {})
                        under[name] = under.get(name, 0.0) + own
                else:
                    ann = self._annotate(name, on_return, args, kwargs, result)
                    spans[frame[0]] = Span(
                        name, start - self._t0, end - self._t0, parent_id, own, ann,
                        self._hot_under.pop(frame[0], {}),
                    )

        return recorded

    def _annotate(self, name, on_return, args, kwargs, result):
        if on_return is None or result is None:
            return {}
        try:
            return on_return(args, kwargs, result)
        except (AttributeError, TypeError, KeyError, IndexError) as exc:
            self.note_missing(name + " (annotation)", repr(exc))
            return {}

    def end_iteration(self) -> None:
        self.iterations.append(([s for s in self._spans if s is not None], self._hot))
        self._spans.clear()
        self._hot = {}
        self._hot_under.clear()
        self._stack.clear()

    def to_json(self) -> dict:
        return {
            "missing": self.missing,
            "iterations": [
                {
                    "spans": [
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "self_s": s.self_s,
                            **({"ann": s.ann} if s.ann else {}),
                            **({"hot": s.hot} if s.hot else {}),
                        }
                        for i, s in enumerate(spans)
                    ],
                    "hot": {
                        name: {"calls": c, "total_s": t, "self_s": st}
                        for name, (c, t, st) in hot.items()
                    },
                }
                for spans, hot in self.iterations
            ],
        }


def resolve(package: str, target: str):
    """(owner, attribute, value) for a dotted target such as
    ``stats.compare`` or ``field.FieldCtx.mul`` inside package."""
    module_name, *attrs = target.split(".")
    owner = importlib.import_module(f"{package}.{module_name}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return owner, attrs[-1], getattr(owner, attrs[-1])


class Instrumentation:
    """Context manager that swaps functions for wrappers and restores them."""

    def __init__(self, package: str, recorder: Recorder):
        self.package = package
        self.recorder = recorder
        self._saved = []

    def wrap(self, target: str, make_wrapper) -> bool:
        try:
            owner, attr, original = resolve(self.package, target)
        except (ImportError, AttributeError) as exc:
            self.recorder.note_missing(target, repr(exc))
            return False
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            holders = [(owner, attr)]
        else:
            # Rebind every module-level name bound to the function, so that
            # `from .sets import enumerate_points` style imports are covered.
            holders = [
                (mod, name)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == self.package or mod_name.startswith(self.package + ".")
                for name, value in list(vars(mod).items())
                if value is original
            ]
        for holder, name in holders:
            self._saved.append((holder, name, original))
            setattr(holder, name, wrapper)
        return True

    def restore(self) -> None:
        while self._saved:
            holder, name, original = self._saved.pop()
            setattr(holder, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
