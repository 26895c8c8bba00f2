"""LPHVG construction: a bounded-cost builder plus an exhaustive pairwise oracle.

Two series points i < j are linked when at most rho of the intermediate
values x_q (i < q < j) satisfy x_q >= min(x_i, x_j); values exactly equal
to the smaller endpoint count as blocking. The builder links each point to
the first rho+1 values at least as high on either side of it (the
lower-endpoint rule), in O((rho+1) n log n) time for any input shape.
Graphs are stored as read-only CSR arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .series import as_values, validate_rho

ADJACENCY_EXPORT_MAX_NODES = 2000
_EDGE_CHUNK_ROWS = 4096
_EDGE_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True, eq=False)
class VisibilityGraph:
    """Immutable undirected simple graph over series indices 0..n-1.

    Stored as read-only CSR arrays: the neighbors of node i are
    indices[indptr[i]:indptr[i+1]] (int64 indptr, int32 indices), ascending.
    """

    n: int
    rho: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    def _upper(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Edges (i, j), i < j, of rows a..b-1 in lexicographic order."""
        j = self.indices[self.indptr[a] : self.indptr[b]]
        i = np.repeat(np.arange(a, b, dtype=np.int32), np.diff(self.indptr[a : b + 1]))
        upper = j > i
        return i[upper], j[upper]

    @cached_property
    def edge_codes(self) -> np.ndarray:
        """Sorted int64 codes i*n+j (i<j) of all edges; used for fast set algebra."""
        i, j = self._upper(0, self.n)
        return i.astype(np.int64) * self.n + j

    @property
    def edge_count(self) -> int:
        return int(self.indptr[-1]) // 2

    def edges(self):
        """Yield edges (i, j) with i < j in lexicographic order."""
        for a in range(0, self.n, _EDGE_CHUNK_ROWS):
            i, j = self._upper(a, min(a + _EDGE_CHUNK_ROWS, self.n))
            yield from zip(i.tolist(), j.tolist())

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VisibilityGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.rho == other.rho
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )


def _from_edges(n: int, rho: int, lo: np.ndarray, hi: np.ndarray) -> VisibilityGraph:
    """CSR graph from distinct undirected edges (lo[e], hi[e])."""
    keys = np.concatenate([lo, hi]).astype(np.int64)
    keys *= n
    keys += np.concatenate([hi, lo])
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    np.remainder(keys, n, out=keys)
    return VisibilityGraph(n=n, rho=rho, indptr=indptr, indices=keys.astype(np.int32))


def _partners(ranks: np.ndarray, count: int) -> np.ndarray:
    """partners[r, p]: the (r+1)-th index q > p with ranks[q] >= ranks[p], or n if none.

    Most partners lie a few places away, so a scan first compares every node
    with offsets d = 1..4*count, one offset at a time, and gives each hit the
    node's next free slot. Nodes still short of `count` partners then resume
    past the scan, one round per partner, by descending a sparse range-maximum
    table, table[k][i] = the maximum of ranks[i : i + 2**k]: O(n log n) per
    round, after O(count n) for the scan.
    """
    n = ranks.size
    partners = np.full((count, n), n, dtype=np.int32)
    found = np.zeros(n, dtype=np.int32)  # partners found so far, per node
    span = min(4 * count, n - 1)
    for d in range(1, span + 1):
        p = np.flatnonzero(ranks[d:] >= ranks[:-d])
        p = p[found[p] < count]
        partners[found[p], p] = p + d
        found[p] += 1
    p = np.flatnonzero(found[: n - 1 - span] < count)  # short, with indices left past the scan
    if not p.size:
        return partners
    level = np.append(ranks, np.iinfo(np.int32).max)  # a sentinel at n ends every descent
    table = [level]
    for k in range(1, n.bit_length()):
        h = 1 << (k - 1)
        level = level.copy()
        np.maximum(level[:-h], level[h:], out=level[:-h])
        table.append(level)
    slot, pos = found[p], p + span + 1
    while p.size:
        v = ranks[p]
        for k in range(len(table) - 1, -1, -1):  # skip each block that holds no value >= v
            np.add(pos, 1 << k, out=pos, where=table[k][pos] < v)
        hit = pos < n
        p, pos, slot = p[hit], pos[hit], slot[hit]
        partners[slot, p] = pos
        more = slot < count - 1
        p, pos, slot = p[more], pos[more] + 1, slot[more] + 1
    return partners


def build_lphvg(series, rho: int) -> VisibilityGraph:
    """Build the LPHVG of a series with penetrability rho.

    Lower-endpoint rule: take p, the endpoint with the smaller value. The
    blockers of a link are the values >= x_p strictly between its ends, so
    p's right partners are the first rho+1 later indices with a value >= x_p
    and its left partners the first rho+1 earlier such indices, kept only
    when strictly higher so that a tied pair is emitted once. A graph thus
    has at most 2(rho+1)n edges. The search runs on int32 value ranks (ties
    share a rank) and costs O(min(rho+1, n) n log n) for any input shape.
    """
    x = as_values(series)
    rho = validate_rho(rho)
    n = x.size
    if n < 2:
        raise ValueError(f"series must have at least 2 points, got {n}")
    ranks = np.unique(x, return_inverse=True)[1].astype(np.int32)
    rounds = min(rho + 1, n - 1)  # no node has more than n-1 partners on a side
    right = _partners(ranks, rounds)
    left = n - 1 - _partners(ranks[::-1], rounds)[:, ::-1]  # -1 if none
    nodes = np.broadcast_to(np.arange(n, dtype=np.int32), right.shape)
    up = right < n
    down = (left >= 0) & (ranks[left] > ranks)
    return _from_edges(
        n, rho, np.concatenate([nodes[up], left[down]]), np.concatenate([right[up], nodes[down]])
    )


def build_lphvg_naive(series, rho: int) -> VisibilityGraph:
    """Oracle builder: count blockers of every pair directly.

    Sums, for each intermediate q, its blocking indicator over all pairs
    (i < q < j); no code is shared with the scan builder's decision path.
    Quadratic in memory, intended for cross-checking on small inputs.
    """
    x = as_values(series)
    rho = validate_rho(rho)
    n = x.size
    if n < 2:
        raise ValueError(f"series must have at least 2 points, got {n}")
    mins = np.minimum.outer(x, x)
    blockers = np.zeros((n, n), dtype=np.int64)
    for q in range(1, n - 1):
        blockers[:q, q + 1 :] += x[q] >= mins[:q, q + 1 :]
    return _from_edges(n, rho, *np.nonzero(np.triu(blockers <= rho, k=1)))


def write_edge_list(graph: VisibilityGraph, path) -> None:
    """Write edges as lines "i j" (i < j, zero-based, lexicographic order).

    numpy makes the bytes from a table of each node id's right-aligned ASCII
    digits (leading zeros set to 0, then dropped), in chunks of at most
    _EDGE_CHUNK_ENTRIES CSR entries or one row, so memory stays bounded.
    """
    powers = 10 ** np.arange(len(str(graph.n - 1)) - 1, -1, -1, dtype=np.int64)
    ids = np.arange(graph.n, dtype=np.int64)[:, None]
    table = (ids // powers % 10 + ord("0")).astype(np.uint8)
    table[:, :-1][ids < powers[:-1]] = 0  # the units digit always prints
    w = powers.size
    with Path(path).open("wb") as fh:
        a = 0
        while a < graph.n:
            end = np.searchsorted(graph.indptr, graph.indptr[a] + _EDGE_CHUNK_ENTRIES, "right")
            b = max(a + 1, int(end) - 1)
            i, j = graph._upper(a, b)
            buf = np.empty((i.size, 2 * w + 2), dtype=np.uint8)
            buf[:, :w] = np.take(table, i, axis=0)  # np.take gathers rows faster than table[i]
            buf[:, w] = ord(" ")
            buf[:, w + 1 : -1] = np.take(table, j, axis=0)
            buf[:, -1] = ord("\n")
            fh.write(buf[buf != 0].tobytes())
            a = b


def check_adjacency_export(n: int) -> None:
    """Refuse a dense adjacency export of n nodes above ADJACENCY_EXPORT_MAX_NODES."""
    if n > ADJACENCY_EXPORT_MAX_NODES:
        raise ValueError(
            f"adjacency export limited to n <= {ADJACENCY_EXPORT_MAX_NODES} "
            f"(got n={n}); use the edge-list format"
        )


def write_adjacency_csv(graph: VisibilityGraph, path) -> None:
    """Write the dense 0/1 adjacency matrix as CSV; refused for large graphs."""
    check_adjacency_export(graph.n)
    buf = np.full((graph.n, 2 * graph.n), ord(","), dtype=np.uint8)
    buf[:, ::2] = ord("0")
    buf[:, -1] = ord("\n")
    buf[np.repeat(np.arange(graph.n), graph.degrees()), 2 * graph.indices] = ord("1")
    Path(path).write_bytes(buf.tobytes())
