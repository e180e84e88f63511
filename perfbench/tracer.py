"""Bench-owned span recorder and call wrappers.

The benchmark times each layer by wrapping the public functions it calls
into, from these files, without touching the program.  A span is
``(name, start_ns, end_ns, parent)``; spans stay in memory and are written
out once, when the run ends.  Counts are taken at the same boundaries.

A span's layer is the text before the first dot of its name (``core.peel``
is in layer ``core``).  A layer's self time is the summed duration of its
spans minus the part of each span that its direct child spans cover.
"""

import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

#: Spans that wrap whole operations.  Their children are the layer spans.
ROOT_PREFIX = "bench."


class Tracer:
    """In-memory spans and counters, plus the wrappers that feed them.

    Recording can be paused without removing the wrappers (``enabled``),
    so one process can run traced and untraced phases back to back.
    """

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent_index]
        self.counts = Counter()
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    # ------------------------------------------------------------ spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        """Open a span; returns its index (``None`` while paused)."""
        if not self.enabled:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), None, parent])
        stack.append(index)
        return index

    def end(self, index):
        if index is None:
            return
        self.spans[index][2] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def count(self, name, amount=1):
        if self.enabled:
            with self._lock:
                self.counts[name] += amount

    # ---------------------------------------------------------- wrapping

    def _timed(self, fn, name, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None and index is not None:
                observe(self, args, result, index)
            return result

        return wrapper

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, targets):
        """Wrap every ``(owner, attr, name, kind, observe)`` target.

        ``owner`` is a class or a module.  ``kind`` is ``"span"`` or
        ``"count"``.  ``observe(tracer, args, result, span_index)``, when
        given, runs after each recorded call of a span target.  A module
        function is replaced in every loaded ``repro`` module that imported
        it by name, so callers that did ``from x import f`` see the wrapper
        too.
        """
        for owner, attr, name, kind, observe in targets:
            raw = owner.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if kind == "span":
                wrapped = self._timed(fn, name, observe)
            else:
                wrapped = self._counted(fn, name)
            if is_classmethod:
                wrapped = classmethod(wrapped)
            if isinstance(owner, type):
                homes = [owner]
            else:
                homes = [
                    module
                    for key, module in list(sys.modules.items())
                    if key.split(".")[0] == "repro"
                    and getattr(module, attr, None) is fn
                ]
            for home in homes:
                self._undo.append((home, attr, home.__dict__[attr]))
                setattr(home, attr, wrapped)

    def uninstall(self):
        while self._undo:
            home, attr, original = self._undo.pop()
            setattr(home, attr, original)

    # --------------------------------------------------------- reporting

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "counts": dict(self.counts)}, handle
            )


def layer_of(name):
    return name.split(".", 1)[0]


def summarize(spans):
    """Per-name total and per-call durations, per-layer self time and
    root coverage, from a list of ``[name, start, end, parent]`` spans.

    Returns ``(calls, self_s, coverage)``: ``calls[name]`` lists every
    closed span's duration in seconds; ``self_s[layer]`` is the layer's
    self time; ``coverage`` is the share of ``bench.*`` root time that
    their direct children cover (``None`` without roots).
    """
    child_ns = defaultdict(int)
    for name, start, end, parent in spans:
        if end is not None and parent is not None:
            child_ns[parent] += end - start
    calls = defaultdict(list)
    self_s = defaultdict(float)
    root_ns = covered_ns = 0
    for index, (name, start, end, _parent) in enumerate(spans):
        if end is None:
            continue
        duration = end - start
        calls[name].append(duration / 1e9)
        if name.startswith(ROOT_PREFIX):
            root_ns += duration
            covered_ns += child_ns[index]
        else:
            self_s[layer_of(name)] += (duration - child_ns[index]) / 1e9
    coverage = covered_ns / root_ns if root_ns else None
    return calls, self_s, coverage
