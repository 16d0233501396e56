"""Cooperative cancellation.

Long-running verifications poll `checkpoint()` between normalization
passes, and `Expr.__mul__` and `Poly.__mul__` once per term of their left
factor; a caller (the CLI's --timeout) installs a deadline for the
current context.  Expressions themselves are immutable, so cancellation
only abandons the expression being built, never corrupts state.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

from .expr.errors import CancelledComputation

_deadline: ContextVar[float | None] = ContextVar("conslaw_deadline", default=None)


@contextmanager
def deadline(seconds: float | None):
    """Run the body with a deadline `seconds` from now (None disables)."""
    token = _deadline.set(None if seconds is None else time.monotonic() + seconds)
    try:
        yield
    finally:
        _deadline.reset(token)


def checkpoint() -> None:
    limit = _deadline.get()
    if limit is not None and time.monotonic() > limit:
        raise CancelledComputation("computation exceeded the configured timeout")
