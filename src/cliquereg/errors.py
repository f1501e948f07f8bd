"""Exception types shared across the package, and the file readers and
writer that turn unreadable, malformed or unwritable files into
:class:`InputError`."""

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


def write_text(path: str | Path, text: str, what: str, mode: str = "w") -> None:
    """Write ``text`` to ``path``, opened in ``mode``; a file that cannot be
    written (a missing directory, a directory, no permission) is an
    :class:`InputError`."""
    try:
        with Path(path).open(mode) as f:
            f.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {what} file: {exc}") from exc


def check_writable(path: str | Path, what: str) -> None:
    """Raise now the :class:`InputError` that ``write_text`` would raise
    for ``path`` later, so a long run cannot end in it. Appending nothing
    leaves an existing file as it was; a file this creates is removed."""
    existed = Path(path).exists()
    write_text(path, "", what, mode="a")
    if not existed:
        Path(path).unlink()


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
    """The relaxation stopped without a binary iterate: its outer-round
    budget ran out, its line search stalled, or its inner loop ran out of
    iterations at the penalty ceiling. The message says which, and at what
    penalty."""


class BudgetExceeded(RuntimeError):
    """Exact search ran out of its node-expansion budget."""


class RegistrationError(RuntimeError):
    """Registration pipeline could not produce a rigid transform."""
