"""Common base class of the planner's solver errors."""

from __future__ import annotations

__all__ = ["SolverError"]


class SolverError(RuntimeError):
    """A solver found no acceptable result for its input.

    Every error a solve can end in derives from this class, so a sweep or
    the CLI records it in its cell and carries on with the next one.
    """
