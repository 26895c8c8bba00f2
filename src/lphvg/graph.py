"""LPHVG construction: a bounded-cost builder plus an exhaustive pairwise oracle.

Two series points i < j are linked when at most rho of the intermediate
values x_q (i < q < j) satisfy x_q >= min(x_i, x_j); values exactly equal
to the smaller endpoint count as blocking. The builder links each point to
the first rho+1 values at least as high on either side of it (the
lower-endpoint rule), in O((rho+1) n log n) time for any input shape.
Graphs are stored as their sorted edge codes.
"""
from __future__ import annotations

from functools import cached_property
from pathlib import Path

import numpy as np

from .series import Record, as_values, validate_int

ADJACENCY_EXPORT_MAX_NODES = 2000
_EDGE_CHUNK = 1 << 17  # edges decoded at a time


class VisibilityGraph(Record):
    """Immutable undirected simple graph over series indices 0..n-1.

    Stored as the read-only int64 codes i*n+j of its edges (i, j), sorted and
    distinct, with i < j; the constructor trusts that and checks nothing.
    Traversals read CSR arrays derived on first use: the neighbors of node i
    are indices[indptr[i]:indptr[i+1]] (int64 indptr, int32 indices), ascending.
    """

    n: int
    rho: int
    edge_codes: np.ndarray

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) from both directions of every edge, keyed row*n+column."""
        n, codes = self.n, self.edge_codes
        keys = np.concatenate([codes, codes % n * n + codes // n])
        keys.sort()
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        indices = (keys % n).astype(np.int32)
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices

    @property
    def indptr(self) -> np.ndarray:
        return self._csr[0]

    @property
    def indices(self) -> np.ndarray:
        return self._csr[1]

    @property
    def edge_count(self) -> int:
        return self.edge_codes.size

    def edges(self):
        """Yield edges (i, j) with i < j in lexicographic order."""
        for a in range(0, self.edge_codes.size, _EDGE_CHUNK):
            i, j = np.divmod(self.edge_codes[a : a + _EDGE_CHUNK], self.n)
            yield from zip(i.tolist(), j.tolist())

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


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


def _builder_input(series, rho) -> tuple[np.ndarray, int]:
    """Both builders' input rule: the series' values, rho an integer >= 0, then n >= 2."""
    x, rho = as_values(series), validate_int("rho", rho)
    if x.size < 2:
        raise ValueError(f"series must have at least 2 points, got {x.size}")
    return x, rho


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
    x, rho = _builder_input(series, rho)
    n = x.size
    ranks = np.unique(x, return_inverse=True)[1].astype(np.int32)
    rounds = min(rho + 1, n - 1)  # no node has more than n-1 partners on a side
    right = _partners(ranks, rounds)
    left = n - 1 - _partners(ranks[::-1], rounds)[:, ::-1]  # -1 if none
    nodes = np.broadcast_to(np.arange(n, dtype=np.int32), right.shape)
    up = right < n
    down = (left >= 0) & (ranks[left] > ranks)
    codes = np.concatenate([nodes[up], left[down]]).astype(np.int64) * n
    codes += np.concatenate([right[up], nodes[down]])
    codes.sort()
    return VisibilityGraph(n, rho, codes)


def build_lphvg_naive(series, rho: int) -> VisibilityGraph:
    """Oracle builder: count blockers of every pair directly.

    Sums, for each intermediate q, its blocking indicator over all pairs
    (i < q < j); no code is shared with the scan builder's decision path.
    Quadratic in memory, intended for cross-checking on small inputs.
    """
    x, rho = _builder_input(series, rho)
    n = x.size
    mins = np.minimum.outer(x, x)
    blockers = np.zeros((n, n), dtype=np.int64)
    for q in range(1, n - 1):
        blockers[:q, q + 1 :] += x[q] >= mins[:q, q + 1 :]
    i, j = np.nonzero(np.triu(blockers <= rho, k=1))
    return VisibilityGraph(n, rho, i * n + j)  # row-major order: already sorted


def write_edge_list(graph: VisibilityGraph, path) -> None:
    """Write edges as lines "i j" (i < j, zero-based, lexicographic order).

    numpy makes the bytes from a table of each node id's right-aligned ASCII
    digits (leading zeros set to 0, then dropped), in chunks of at most
    _EDGE_CHUNK edges, so memory stays bounded.
    """
    powers = 10 ** np.arange(len(str(graph.n - 1)) - 1, -1, -1, dtype=np.int64)
    ids = np.arange(graph.n, dtype=np.int64)[:, None]
    table = (ids // powers % 10 + ord("0")).astype(np.uint8)
    table[:, :-1][ids < powers[:-1]] = 0  # the units digit always prints
    w = powers.size
    with Path(path).open("wb") as fh:
        for a in range(0, graph.edge_codes.size, _EDGE_CHUNK):
            i, j = np.divmod(graph.edge_codes[a : a + _EDGE_CHUNK], graph.n)
            buf = np.empty((i.size, 2 * w + 2), dtype=np.uint8)
            buf[:, :w] = np.take(table, i, axis=0)  # np.take gathers rows faster than table[i]
            buf[:, w] = ord(" ")
            buf[:, w + 1 : -1] = np.take(table, j, axis=0)
            buf[:, -1] = ord("\n")
            fh.write(buf[buf != 0].tobytes())


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
    i, j = np.divmod(graph.edge_codes, graph.n)
    buf[i, 2 * j] = buf[j, 2 * i] = ord("1")
    Path(path).write_bytes(buf.tobytes())
