"""Exception types shared across the package, and the two file readers
that turn unreadable or malformed input files into :class:`InputError`."""

from __future__ import annotations

import json
from pathlib import Path


class InputError(ValueError):
    """Invalid user-supplied input: graphs, files, parameters."""


def read_text(path: str | Path, what: str) -> str:
    """The text of ``path``; a file that cannot be opened or decoded is an
    :class:`InputError`."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file: {exc}") from exc


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in ``path``; anything else is an :class:`InputError`."""
    try:
        payload = json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError(f"{what} file must hold a JSON object")
    return payload


class DimacsParseError(InputError):
    """Malformed DIMACS text; carries the offending line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class SolverFailure(RuntimeError):
    """Relaxation budget exhausted before the iterate reached a binary state.

    Carries the last iterate and penalty level so callers can inspect or
    fall back to another solver.
    """

    def __init__(self, message: str, last_iterate=None, penalty: float | None = None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.penalty = penalty


class BudgetExceeded(RuntimeError):
    """Exact search ran out of its node-expansion budget."""


class RegistrationError(RuntimeError):
    """Registration pipeline could not produce a rigid transform."""
