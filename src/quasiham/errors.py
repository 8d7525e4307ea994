"""Exception types shared across the toolkit."""

from __future__ import annotations

from contextlib import contextmanager


class ToolkitError(Exception):
    """Base class for all toolkit rejections."""


class InputError(ToolkitError, ValueError):
    """Invalid argument, tagged with a short stable code.

    The code (e.g. ``invalid-rank``, ``not-in-alcove``) is machine-checkable;
    the message is for humans.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@contextmanager
def built_here():
    """Run checks on data the package built itself: an InputError they raise
    is a fault of the program, and is raised again as a ToolkitError."""
    try:
        yield
    except InputError as exc:
        raise ToolkitError(f"check failed on data the package built: {exc}") from exc
