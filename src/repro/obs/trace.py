"""Lightweight request tracing: trace ids.

One trace id is minted (or adopted from an ``X-Trace-Id`` header) per
HTTP request and stored in a :mod:`contextvars` variable, so everything
the request touches — coalescer windows, engine calls, log records —
can correlate without threading an argument through every signature.
:func:`repro.obs.spans.span` records a real span only while a trace id
is set.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

_TRACE_ID: ContextVar[Optional[str]] = ContextVar("repro_trace_id", default=None)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return os.urandom(8).hex()


def current_trace_id() -> Optional[str]:
    """The trace id of the current context, or None outside any trace."""
    return _TRACE_ID.get()


def set_trace_id(trace_id: Optional[str]):
    """Install ``trace_id`` on the current context; returns a reset token."""
    return _TRACE_ID.set(trace_id)


def reset_trace_id(token) -> None:
    """Undo a :func:`set_trace_id` (restores the previous id)."""
    _TRACE_ID.reset(token)


@contextmanager
def trace_context(trace_id: Optional[str] = None) -> Iterator[str]:
    """Run a block under a trace id (minting one when not supplied)."""
    tid = trace_id if trace_id is not None else new_trace_id()
    token = _TRACE_ID.set(tid)
    try:
        yield tid
    finally:
        _TRACE_ID.reset(token)

