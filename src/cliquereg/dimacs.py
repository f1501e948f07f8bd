"""Parser for ASCII DIMACS clique-benchmark graphs."""

from __future__ import annotations

import warnings
from pathlib import Path

from .errors import DimacsParseError, read_text
from .graph import Graph


class DimacsWarning(UserWarning):
    """Non-fatal irregularity in a DIMACS file (e.g. wrong edge count)."""


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS text: 'c' comments, one 'p edge <n> <m>' line, then
    'e <i> <j>' lines with 1-based endpoints.

    Duplicate edges collapse to one. A mismatch between the declared and
    actual edge count only warns; structural problems raise
    :class:`~cliquereg.errors.DimacsParseError` with the line number.
    """
    n: int | None = None
    declared_m: int | None = None
    edges: list[tuple[int, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "p":
            if n is not None:
                raise DimacsParseError("second problem line", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise DimacsParseError(
                    f"problem line must be 'p edge <n> <m>', got {line!r}", lineno
                )
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise DimacsParseError(
                    f"non-integer counts in problem line {line!r}", lineno
                ) from None
            if n < 0 or declared_m < 0:
                raise DimacsParseError("negative counts in problem line", lineno)
        elif kind == "e":
            if n is None:
                raise DimacsParseError("edge before the problem line", lineno)
            if len(fields) != 3:
                raise DimacsParseError(
                    f"edge line must be 'e <i> <j>', got {line!r}", lineno
                )
            try:
                i, j = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsParseError(
                    f"non-integer endpoint in {line!r}", lineno
                ) from None
            if not (1 <= i <= n) or not (1 <= j <= n):
                raise DimacsParseError(
                    f"endpoint outside 1..{n} in {line!r}", lineno
                )
            if i == j:
                raise DimacsParseError(f"self-loop at vertex {i}", lineno)
            edges.append((i, j))
        else:
            raise DimacsParseError(f"unrecognized line type {kind!r}", lineno)

    if n is None:
        raise DimacsParseError("missing 'p edge' problem line")
    g = Graph.from_edge_list(n, edges)
    if declared_m is not None and g.edge_count != declared_m:
        warnings.warn(
            f"problem line declares {declared_m} edges but the file defines "
            f"{g.edge_count} unique edges",
            DimacsWarning,
            stacklevel=2,
        )
    return g


def load_dimacs(path: str | Path) -> Graph:
    """Read and parse a DIMACS file."""
    return parse_dimacs(read_text(path, "DIMACS"))
