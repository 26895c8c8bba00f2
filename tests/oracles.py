"""Independent reference implementations used as test oracles."""
from __future__ import annotations

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import shortest_path


def hvg_reference_edges(values) -> set[tuple[int, int]]:
    """Textbook horizontal visibility graph: all intermediates strictly below
    the smaller endpoint. Written independently of the package builders."""
    x = list(map(float, values))
    n = len(x)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            lo = min(x[i], x[j])
            if all(x[q] < lo for q in range(i + 1, j)):
                edges.add((i, j))
    return edges


def lphvg_reference_edges(values, rho: int) -> set[tuple[int, int]]:
    """Pair-by-pair blocker count, plain Python loops; a pair's count stops
    once it exceeds rho."""
    x = list(map(float, values))
    n = len(x)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            lo = min(x[i], x[j])
            blockers = 0
            for q in range(i + 1, j):
                blockers += x[q] >= lo
                if blockers > rho:
                    break
            else:
                edges.add((i, j))
    return edges


def edge_list_reference(values, rho: int) -> bytes:
    """The edge-list file of lphvg_reference_edges, one f-string per edge."""
    return "".join(f"{i} {j}\n" for i, j in sorted(lphvg_reference_edges(values, rho))).encode()


def adjacency_reference(values, rho: int) -> bytes:
    """The adjacency CSV of lphvg_reference_edges, from a dense list-of-lists matrix."""
    n = len(values)
    adj = [[0] * n for _ in range(n)]
    for i, j in lphvg_reference_edges(values, rho):
        adj[i][j] = adj[j][i] = 1
    return "".join(",".join(map(str, row)) + "\n" for row in adj).encode()


def triangle_reference(values, rho: int) -> list[int]:
    """Triangles through each node of lphvg_reference_edges, by set loops."""
    nbrs = [set() for _ in range(len(values))]
    for i, j in lphvg_reference_edges(values, rho):
        nbrs[i].add(j)
        nbrs[j].add(i)
    return [sum(1 for a in nb for b in nb if a < b and b in nbrs[a]) for nb in nbrs]


def path_length_reference(graph) -> float:
    """Mean shortest-path length over i < j by scipy's per-source search."""
    i, j = np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2).T
    adj = coo_array((np.ones(i.size), (i, j)), shape=(graph.n, graph.n))
    dist = shortest_path(adj, method="D", unweighted=True, directed=False)
    return float(dist[np.triu_indices(graph.n, k=1)].sum()) / (graph.n * (graph.n - 1) // 2)


def edge_set(graph) -> set[tuple[int, int]]:
    return set(graph.edges())


def geometric_pmf_series_mean(rho: int, tail_mass: float = 1e-14) -> float:
    """Mean degree by summing k * P(k) until the geometric tail is negligible."""
    ratio = (2 * rho + 2) / (2 * rho + 3)
    k = 2 * (rho + 1)
    p = 1.0 / (2 * rho + 3)
    total = 0.0
    while p > tail_mass:
        total += k * p
        k += 1
        p *= ratio
    return total
