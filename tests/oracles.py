"""Independent reference implementations used as test oracles, the affine
map the invariance tests apply to series, the array form of the flow
integrator, and a table of faulty builders."""
from __future__ import annotations

import csv
import math

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import shortest_path

from lphvg import TimeSeries, VisibilityGraph, build_lphvg, clustering_max, clustering_min
from lphvg.generators import ENERGY_PARAMS, LORENZ_PARAMS, DivergenceError
from lphvg.series import as_values


def load_series_reference(path, column: int | str = 0, has_header: bool = False) -> np.ndarray:
    """One CSV column, cell by cell: csv.reader rows and float(cell.strip()) of each."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if isinstance(column, str):
        column = [cell.strip() for cell in rows[0]].index(column)
    return np.array([float(row[column].strip()) for row in rows[has_header:]], dtype=np.float64)


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


def local_clustering(graph, node: int) -> float:
    """Triangles through `node` over C(k, 2), from its CSR rows alone; zero for degree < 2."""
    if not 0 <= node < graph.n:
        raise IndexError(f"node {node} out of range for n={graph.n}")
    ptr, idx = graph.indptr, graph.indices
    nb = idx[ptr[node] : ptr[node + 1]]
    k = nb.size
    if k < 2:
        return 0.0
    rows = np.concatenate([idx[ptr[u] : ptr[u + 1]] for u in nb])
    return int(np.isin(rows, nb).sum()) / (k * (k - 1))  # 2 * triangles / (k(k-1))


def coverage_reference(graph, tol: float = 1e-12) -> tuple[float, int, int, int]:
    """(fraction, interior count, below, above) of the clustering envelope by a
    per-node loop that evaluates the envelope at every interior node."""
    rho = graph.rho
    unvalidated = rho > 2
    below = above = inside = total = 0
    degrees = graph.degrees().tolist()
    for i in range(rho + 1, graph.n - rho - 1):
        k, c = degrees[i], local_clustering(graph, i)
        lo = clustering_min(rho, k, unvalidated=unvalidated)
        hi = clustering_max(rho, k, unvalidated=unvalidated)
        total += 1
        if c < lo - tol:
            below += 1
        elif c > hi + tol:
            above += 1
        else:
            inside += 1
    if total == 0:
        raise ValueError("graph has no interior nodes")
    return inside / total, total, below, above


def _distances(graph, sources=None) -> np.ndarray:
    """Shortest-path lengths from `sources` (default every node) by scipy's per-source search."""
    i, j = np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2).T
    adj = coo_array((np.ones(i.size), (i, j)), shape=(graph.n, graph.n))
    return shortest_path(adj, method="D", unweighted=True, directed=False, indices=sources)


def path_length_reference(graph) -> float:
    """Mean shortest-path length over i < j by scipy's per-source search."""
    dist = _distances(graph)
    return float(dist[np.triu_indices(graph.n, k=1)].sum()) / (graph.n * (graph.n - 1) // 2)


def sourced_path_length_reference(graph, sources) -> float:
    """Mean shortest-path length from each of `sources` to every other node, by scipy."""
    return float(_distances(graph, sources).sum()) / (len(sources) * (graph.n - 1))


def graph_distance(g1: VisibilityGraph, g2: VisibilityGraph) -> float:
    """sqrt(# differing ordered adjacency entries) between equal-size graphs."""
    if g1.n != g2.n:
        raise ValueError(f"node counts differ: {g1.n} vs {g2.n}")
    common = np.intersect1d(g1.edge_codes, g2.edge_codes, assume_unique=True).size
    sym_diff = g1.edge_codes.size + g2.edge_codes.size - 2 * common
    return math.sqrt(2.0 * sym_diff)


def _lorenz_deriv_array(state: np.ndarray, p: dict) -> np.ndarray:
    x, y, z = state
    return np.array([p["a"] * (y - x), p["c"] * x - y - x * z, x * y - p["b"] * z])


def _energy_deriv_array(state: np.ndarray, p: dict) -> np.ndarray:
    x, y, z = state
    return np.array([
        p["a1"] * x + p["a2"] * (p["C"] - y) + p["a3"] * (z - p["K1"]),
        -p["b1"] * y + p["b2"] * x - p["b3"] * z * (1.0 - z / p["K2"]),
        p["c1"] * z * (1.0 - z / p["L"]) + p["c2"] * y * z,
    ])


def _rk4_step_array(deriv, state: np.ndarray, dt: float, params: dict) -> np.ndarray:
    k1 = deriv(state, params)
    k2 = deriv(state + 0.5 * dt * k1, params)
    k3 = deriv(state + 0.5 * dt * k2, params)
    k4 = deriv(state + dt * k3, params)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@np.errstate(over="ignore", invalid="ignore")
def flow_states_reference(system: str, init, dt: float, steps: int) -> np.ndarray:
    """The (steps + 1) x 3 states of a flow, row k after k fixed RK4 steps, each stage a new
    float64 array; a non-finite state raises DivergenceError with gen_flow's message."""
    lorenz = system == "lorenz"
    deriv, params = ((_lorenz_deriv_array, LORENZ_PARAMS) if lorenz
                     else (_energy_deriv_array, ENERGY_PARAMS))
    states = np.empty((steps + 1, 3))
    states[0] = init
    for step in range(1, steps + 1):
        states[step] = _rk4_step_array(deriv, states[step - 1], dt, params)
        if not np.all(np.isfinite(states[step])):
            raise DivergenceError(f"flow state became non-finite at step {step}")
    return states


def flow_reference(spec) -> np.ndarray:
    """gen_flow's samples of a FlowSpec, read from flow_states_reference."""
    steps = spec.transient + (spec.n - 1) * spec.stride
    return flow_states_reference(spec.system, spec.init, spec.dt, steps)[
        spec.transient::spec.stride, spec.component]


def affine_transform(series: TimeSeries, a: float, b: float) -> TimeSeries:
    """Map every value to a*x + b; requires a > 0 (order must be preserved)."""
    if not a > 0:
        raise ValueError(f"a must be > 0, got {a}")
    return TimeSeries(a * series.values + b)


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


def dropping(drop):
    """build_lphvg less the edges (i, j) for which drop(i, j, x, rho) holds, x the values."""
    def build(series, rho):
        g = build_lphvg(series, rho)
        i, j = np.divmod(g.edge_codes, g.n)
        return VisibilityGraph(g.n, g.rho, g.edge_codes[~drop(i, j, as_values(series), rho)])
    return build


def relabelled(shift: int):
    """build_lphvg at rho + shift, labelled rho."""
    def build(series, rho):
        g = build_lphvg(series, rho + shift)
        return VisibilityGraph(g.n, rho, g.edge_codes)
    return build


def _every_tenth_long(i, j, x, rho):
    long = j - i > rho + 1  # in code order
    return long & (np.cumsum(long) % 10 == 0)


# builders that each break the LPHVG in one way; "built-at-rho-1" needs rho >= 1
FAULTY_BUILDS = {
    "no-sep-1": dropping(lambda i, j, x, rho: j - i == 1),
    "rising-edges-only": dropping(lambda i, j, x, rho: x[i] >= x[j]),  # lower end on the left
    "built-at-rho-1": relabelled(-1),
    "no-last-node-edges": dropping(lambda i, j, x, rho: j == x.size - 1),
    "no-sep-rho+2": dropping(lambda i, j, x, rho: j - i == rho + 2),
    "built-at-rho+1": relabelled(1),
    "every-10th-long-edge": dropping(_every_tenth_long),
    "no-sep-over-30": dropping(lambda i, j, x, rho: j - i > 30),
    "no-sep-over-40": dropping(lambda i, j, x, rho: j - i > 40),
    "no-sep-over-100": dropping(lambda i, j, x, rho: j - i > 100),
    "even-sep-rho+2": dropping(lambda i, j, x, rho: (j - i == rho + 2) & (i % 2 == 0)),
    "no-edge-0-1": dropping(lambda i, j, x, rho: (i == 0) & (j == 1)),
}
