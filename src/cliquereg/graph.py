"""Immutable dense-bitset graphs, core numbers, clique validation, and the
smallest-last order and relabelling that the exact search numbers by.

Vertices are 0-based everywhere inside the package. External formats that
use 1-based labels (edge lists, DIMACS files) are converted at the boundary
by the constructors and parsers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class Graph:
    """Undirected, unweighted, simple graph over vertices ``0..n-1``.

    Adjacency is held twice, with the same bits, for the graph's lifetime:
    ``packed`` is the ``(n, ceil(n/8))`` ``uint8`` array of rows packed
    little-endian, read-only, and ``rows`` is one Python int per row. Bit
    ``j`` of ``rows[i]`` (bit ``j % 8`` of ``packed[i, j // 8]``) is set iff
    ``i`` and ``j`` are adjacent. The bitmasks make pairwise adjacency tests
    and candidate-set intersections cheap for every solver in the package;
    the packed rows serve the numpy paths (core numbers, unpacking to a
    boolean matrix, induced subgraphs) without a conversion. Every
    constructor ends in ``_from_packed``. Equality and hashing use ``n``,
    ``rows`` and ``edge_count``. Instances are immutable and safe to share.
    """

    n: int
    rows: tuple[int, ...]
    edge_count: int
    packed: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from 1-based undirected edges.

        Duplicate edges (in either orientation) collapse to one. Endpoints
        outside ``1..n`` and self-loops are rejected, and so is an ``n``
        whose packed rows would pass ``_MAX_PACKED_BYTES``.
        """
        if n < 0:
            raise InputError(f"vertex count must be non-negative, got {n}")
        _check_packed_size(n)
        flat = []
        for edge in edges:
            try:
                i, j = edge
            except (TypeError, ValueError):
                raise InputError(f"edge {edge!r} is not a pair") from None
            if not (1 <= i <= n) or not (1 <= j <= n):
                raise InputError(f"edge ({i}, {j}) has an endpoint outside 1..{n}")
            if i == j:
                raise InputError(f"self-loop at vertex {i}")
            flat += (i, j)
        ends = np.asarray(flat)
        # A fractional endpoint would be truncated by the integer scatter.
        if flat and ends.dtype.kind not in "iu":
            raise InputError("edge endpoints must be integers")
        ends = ends.astype(np.int64).reshape(-1, 2) - 1
        # Both orientations of every edge, scattered into the packed rows.
        src, dst = np.concatenate([ends, ends[:, ::-1]]).T
        packed = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
        bit = np.left_shift(np.uint8(1), (dst & 7).astype(np.uint8))
        np.bitwise_or.at(packed, (src, dst >> 3), bit)
        return _from_packed(packed, n)

    @classmethod
    def from_adjacency(cls, matrix: np.ndarray) -> "Graph":
        """Build a graph from a square boolean adjacency matrix.

        The matrix must be symmetric with an all-false diagonal.
        """
        mat = np.asarray(matrix, dtype=bool)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InputError(f"adjacency matrix must be square, got shape {mat.shape}")
        if mat.diagonal().any():
            raise InputError("adjacency matrix has a true diagonal entry")
        if not np.array_equal(mat, mat.T):
            raise InputError("adjacency matrix is not symmetric")
        return _from_packed(np.packbits(mat, axis=1, bitorder="little"), mat.shape[0])

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.rows[v]))

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean adjacency matrix (fresh copy)."""
        return _unpack(self.packed, self.n)

    def induced_subgraph(self, vertices: Sequence[int]) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph on ``vertices`` plus the local-to-original index map.

        Keeping every vertex returns this graph itself.
        """
        keep = sorted(set(vertices))
        for v in keep:
            if not (0 <= v < self.n):
                raise InputError(f"vertex {v} outside 0..{self.n - 1}")
        if len(keep) == self.n:
            return self, tuple(keep)
        return _relabel(self, keep), tuple(keep)


# The largest packed graph a constructor allocates, n * ceil(n/8) bytes:
# 1 GiB, which admits up to 92,680 vertices.
_MAX_PACKED_BYTES = 1 << 30

# Bytes of unpacked rows that core_numbers and _relabel hold at once.
_UNPACK_BYTES = 1 << 20

# core_numbers' degree of a removed vertex: later rounds subtract at most
# n - 1 < 2**17 from it, so it stays above every live degree.
_PEELED = 1 << 30


def _check_packed_size(n: int) -> None:
    """Raise ``InputError`` if the packed rows of an n-vertex graph would
    pass ``_MAX_PACKED_BYTES``; called before they are allocated."""
    size = n * ((n + 7) // 8)
    if size > _MAX_PACKED_BYTES:
        raise InputError(
            f"{n} vertices need {size} bytes of packed graph rows, "
            f"over the cap of {_MAX_PACKED_BYTES}"
        )


def _from_packed(packed: np.ndarray, n: int) -> Graph:
    """Graph of ``(n, ceil(n/8))`` ``uint8`` rows packed little-endian from a
    symmetric, loop-free boolean matrix (unchecked): bit ``j`` of row ``i``
    is entry ``(i, j)``. The graph keeps ``packed`` itself and makes it
    read-only; callers pass an array they do not write to again."""
    packed.setflags(write=False)
    rows = tuple(int.from_bytes(r.tobytes(), "little") for r in packed)
    return Graph(
        n=n, rows=rows, edge_count=sum(r.bit_count() for r in rows) // 2, packed=packed
    )


def _relabel(g: Graph, order: Sequence[int]) -> Graph:
    """Subgraph on the distinct vertices ``order`` (unchecked), numbered as
    listed: vertex ``i`` of the result is ``order[i]`` of ``g``.

    Rows are unpacked and their columns selected a batch at a time, at most
    ``_UNPACK_BYTES`` of both together, so no ``n x n`` array is allocated
    beside the result's own packed rows.
    """
    m = len(order)
    idx = np.asarray(order, dtype=np.intp)
    packed = np.empty((m, (m + 7) // 8), dtype=np.uint8)
    batch = max(1, _UNPACK_BYTES // max(g.n + m, 1))
    for s in range(0, m, batch):
        rows = _unpack(g.packed[idx[s : s + batch]], g.n)
        packed[s : s + batch] = np.packbits(rows[:, idx], axis=1, bitorder="little")
    return _from_packed(packed, m)


def _smallest_last_order(g: Graph, mask: int) -> list[int]:
    """The vertices of ``mask`` in smallest-last order (Matula & Beck 1983)
    on the subgraph they induce.

    Repeatedly remove a vertex of least degree among those left, the lowest
    index on ties, and list the vertices in reverse removal order. Degrees
    count only neighbours in ``mask``, and a vertex outside it starts
    removed, so the order is the one the induced subgraph, numbered in
    index order, would give. Each vertex then has at most its core number
    in that subgraph of neighbours listed before it, and the largest degree
    at removal so far is the removed vertex's core number there. One packed
    row is unpacked per removal, so beside the graph the memory is O(n);
    the work is O(n) per vertex of ``mask``.
    """
    n = g.n
    # A removed vertex's degree: still above every live degree after the at
    # most n - 1 decrements that follow.
    removed = np.iinfo(np.int64).max
    degree = np.fromiter(
        ((r & mask).bit_count() if (mask >> v) & 1 else removed
         for v, r in enumerate(g.rows)),
        dtype=np.int64,
        count=n,
    )
    order = []
    for _ in range(mask.bit_count()):
        v = int(degree.argmin())
        order.append(v)
        degree -= np.unpackbits(g.packed[v], count=n, bitorder="little")
        degree[v] = removed
    order.reverse()
    return order


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """Boolean ``(len(packed), n)`` matrix of packed rows."""
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Clique:
    """A vertex set asserted to be pairwise adjacent, kept sorted."""

    members: tuple[int, ...]

    @staticmethod
    def of(members: Iterable[int]) -> "Clique":
        return Clique(members=tuple(sorted(set(members))))

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CliqueCheck:
    is_clique: bool
    is_maximal: bool


def core_numbers(g: Graph) -> tuple[int, ...]:
    """Core numbers of every vertex by level-synchronous min-degree peeling:
    entry ``v`` is the largest k such that v belongs to a subgraph where
    every vertex has degree >= k.

    Each round raises ``k`` to the smallest live degree if that is larger,
    removes every live vertex whose degree is at most ``k`` and gives it
    core number ``k``, then subtracts the removed rows from the degrees. A
    removed vertex's degree becomes ``_PEELED``, which stays above every
    live degree, so no separate set of live vertices is kept. This gives
    the same core numbers as the one-vertex-at-a-time (Batagelj-Zaversnik)
    peel, but whole degree levels at a time (ParK, Dasari, Desh & Zubair
    2014). Every round removes at least one vertex, so there are at most n
    rounds; a path takes n/2.

    The peel reads the graph's own packed rows, ``n²/8`` bytes, and unpacks
    each exactly once, in the round that removes it, at most
    ``_UNPACK_BYTES`` at a time, so the memory it allocates does not grow
    with n². Initial degrees are the rows' bit counts. The work is O(n²) bit
    operations over all rounds, the order of the graph's own representation.
    """
    n = g.n
    degree = np.fromiter((r.bit_count() for r in g.rows), dtype=np.int32, count=n)
    core = np.zeros(n, dtype=np.int32)
    batch = max(1, _UNPACK_BYTES // max(n, 1))
    k = 0
    left = n
    while left:
        k = max(k, int(degree.min()))
        peel = np.flatnonzero(degree <= k)
        core[peel] = k
        degree[peel] = _PEELED
        left -= len(peel)
        for s in range(0, len(peel), batch):
            removed = _unpack(g.packed[peel[s : s + batch]], n)
            degree -= removed.sum(axis=0, dtype=np.int32)
    return tuple(core.tolist())


def sparsity(g: Graph) -> float:
    """Fraction of absent edges, ``1 - |E| / (n(n-1)/2)``. Needs n >= 2."""
    if g.n < 2:
        raise InputError(f"sparsity needs at least 2 vertices, got n={g.n}")
    possible = g.n * (g.n - 1) // 2
    return 1.0 - g.edge_count / possible


def validate_clique(g: Graph, members: Iterable[int]) -> CliqueCheck:
    """Check whether ``members`` is a clique of g and whether it is maximal.

    Maximality means no outside vertex is adjacent to every member. The
    empty set counts as a (non-maximal, unless the graph is empty) clique.
    """
    verts = sorted(set(members))
    for v in verts:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} outside 0..{g.n - 1}")
    member_mask = 0
    for v in verts:
        member_mask |= 1 << v
    is_clique = True
    for v in verts:
        others = member_mask & ~(1 << v)
        if others & ~g.rows[v]:
            is_clique = False
            break
    if not is_clique:
        return CliqueCheck(is_clique=False, is_maximal=False)
    # Common neighborhood of all members, restricted to outside vertices.
    common = (1 << g.n) - 1 if g.n else 0
    for v in verts:
        common &= g.rows[v]
    common &= ~member_mask
    return CliqueCheck(is_clique=True, is_maximal=common == 0)
