"""Structured phase profiling: a nested timer tree, free when disabled.

The paper evaluates its algorithms by decomposing runtime into counting,
index-build and peeling phases; this module makes that decomposition a
first-class signal.  Call sites wrap work in ``with phases.phase(name):``
— when profiling is **disabled** (the default) ``phase()`` returns one
shared no-op context manager, so the whole mechanism costs a global read
and a function call (~100 ns); hot loops can stay instrumented.  When
**enabled** (``REPRO_PROFILE=1`` or the CLI ``--profile`` flags) each
entry pushes a node onto a stack, producing a tree like::

    index construction             0.0090s
      bloom discovery              0.0045s
      assemble                     0.0028s
    peeling                        0.0849s
      frontier refill              0.0002s
      batch updates                0.0783s x240

:class:`~repro.utils.stats.PhaseTimer` (the per-run sink every algorithm
already accepts) feeds this profiler automatically while profiling is
enabled, so the existing ``timer.time("peeling")`` sites appear in the
tree without duplicate instrumentation.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

_ENV_FLAG = "REPRO_PROFILE"


class _Node:
    __slots__ = ("name", "seconds", "count", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        self.count = 0
        self.children: Dict[str, "_Node"] = {}

    def child(self, name: str) -> "_Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _Node(name)
        return node

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "count": self.count,
            "children": [
                child.to_dict() for child in self.children.values()
            ],
        }


class _PhaseContext:
    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_PhaseContext":
        self._profiler._push(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._profiler._pop(time.perf_counter() - self._start)


class _Noop:
    __slots__ = ()

    def __enter__(self) -> "_Noop":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NOOP = _Noop()


class PhaseProfiler:
    """A stack-based profiler accumulating a nested phase tree."""

    def __init__(self) -> None:
        self._root = _Node("total")
        self._stack: List[_Node] = [self._root]

    # ----------------------------------------------------------- recording

    def phase(self, name: str) -> _PhaseContext:
        """Context manager timing one (possibly nested) phase entry."""
        return _PhaseContext(self, name)

    def _push(self, name: str) -> None:
        self._stack.append(self._stack[-1].child(name))

    def _pop(self, seconds: float) -> None:
        node = self._stack.pop()
        node.seconds += seconds
        node.count += 1

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Directly accumulate into a child of the current phase."""
        node = self._stack[-1].child(name)
        node.seconds += seconds
        node.count += count

    # ---------------------------------------------------------- inspection

    def tree(self) -> dict:
        """The recorded tree as plain dicts (root node is ``"total"``)."""
        return self._root.to_dict()

    def reset(self) -> None:
        """Drop everything recorded (open phases survive as fresh nodes)."""
        self._root = _Node("total")
        # Re-anchor any open phases on the new root so their exits are
        # harmless after a mid-phase reset (count/seconds land on nodes
        # that the next tree() call reports — negligible and safe).
        self._stack = [self._root] + [
            self._root.child(node.name) for node in self._stack[1:]
        ]

    def render(self, *, min_seconds: float = 0.0) -> str:
        """Human-readable indented tree (see also :func:`render_tree`)."""
        return render_tree(self.tree(), min_seconds=min_seconds)


def render_tree(tree: dict, *, min_seconds: float = 0.0) -> str:
    """Render a :meth:`PhaseProfiler.tree` dict as an indented table."""
    lines: List[str] = []

    def walk(node: dict, depth: int) -> None:
        if depth >= 0:
            if node["seconds"] < min_seconds and not node["children"]:
                return
            label = "  " * depth + str(node["name"])
            count = int(node.get("count", 0))
            suffix = f" x{count}" if count > 1 else ""
            lines.append(f"{label:<44s} {node['seconds']:9.4f}s{suffix}")
        for child in node.get("children", ()):
            walk(child, depth + 1)

    walk(tree, -1)
    return "\n".join(lines) if lines else "(no phases recorded)"


def leaf_seconds(tree: dict) -> float:
    """Sum of leaf-phase seconds — the profiler's covered wall time."""
    children = tree.get("children", ())
    if not children:
        return float(tree.get("seconds", 0.0))
    return sum(leaf_seconds(child) for child in children)


# -------------------------------------------------------------- module API

_PROFILER = PhaseProfiler()
_enabled = os.environ.get(_ENV_FLAG, "").strip().lower() in ("1", "true", "yes", "on")


def enabled() -> bool:
    """Whether phase profiling is currently on."""
    return _enabled


def enable(on: bool = True) -> None:
    """Turn phase profiling on (or off with ``enable(False)``)."""
    global _enabled
    _enabled = bool(on)


def profiler() -> PhaseProfiler:
    """The process-global profiler instance."""
    return _PROFILER


def phase(name: str):
    """Time a phase when profiling is enabled; a shared no-op otherwise."""
    if not _enabled:
        return _NOOP
    return _PROFILER.phase(name)


def add(name: str, seconds: float, count: int = 1) -> None:
    """Accumulate directly (no-op while disabled)."""
    if _enabled:
        _PROFILER.add(name, seconds, count)


def tree() -> dict:
    """The global profiler's recorded tree."""
    return _PROFILER.tree()


def reset() -> None:
    """Reset the global profiler."""
    _PROFILER.reset()
