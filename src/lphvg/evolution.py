"""Sliding-window evolution pipeline: per-window graphs, pairwise graph
distances, a random-reference threshold, correlation index, and recurrence."""
from __future__ import annotations

import contextlib
import math
import os

import numpy as np

from .graph import VisibilityGraph, build_lphvg
from .metrics import _forward_pairs, _local_clustering, mean_degree_empirical, mean_path_length
from .series import Record, RngConfig, as_values, validate_int

DEFAULT_ENSEMBLE = 10
_THRESHOLD_STREAM_TAG = 0x7468  # namespaces the reference-series substreams


class WindowConfig(Record):
    window_len: int
    step: int

    def __post_init__(self):
        validate_int("window_len", self.window_len, 2)
        if validate_int("step", self.step, 1) >= self.window_len:
            raise ValueError(
                f"need 0 < step < window_len, got step={self.step}, "
                f"window_len={self.window_len}"
            )


def make_windows(n: int, cfg: WindowConfig) -> list[tuple[int, int]]:
    """Half-open ranges [i*step, i*step + window_len), i = 0..T-1."""
    if validate_int("n", n) < cfg.window_len:
        raise ValueError(f"series length {n} shorter than window {cfg.window_len}")
    count = (n - cfg.window_len) // cfg.step + 1
    return [(i * cfg.step, i * cfg.step + cfg.window_len) for i in range(count)]


def distance_matrix(graphs: list[VisibilityGraph]) -> np.ndarray:
    """sqrt(2 |A ^ B|) for the edge sets A, B of every pair of equal-size graphs (A ^ B their
    symmetric difference), by popcounts over packed edge bitsets."""
    if not graphs:
        return np.zeros((0, 0))
    if any(g.n != graphs[0].n for g in graphs):
        raise ValueError(f"node counts differ: {sorted({g.n for g in graphs})}")
    return _code_distances([g.edge_codes for g in graphs], graphs[0].n ** 2)


def _code_distances(codes: list[np.ndarray], space: int) -> np.ndarray:
    """sqrt(2 |A ^ B|) for every pair of edge sets A, B, each given by its
    sorted distinct codes in [0, space).

    A code's bitset column is its rank among all distinct codes. While space
    is at most 4x the code count, a presence array of space bools and one
    cumsum give the ranks: faster than np.unique's sort, in about the same
    memory (5 bytes a slot with int32 ranks, at most 20 a code; 9 and 36 from
    2**31 codes on). Sparser codes go through np.unique. Rows are packed one
    at a time, so the only (rows x columns) array is the packed words.
    """
    sizes = np.array([c.size for c in codes])
    if space <= 4 * sizes.sum():
        seen = np.zeros(space, dtype=bool)
        for c in codes:
            seen[c] = True
        rank = np.cumsum(seen, dtype=_rank_dtype(int(sizes.sum())))
        rank -= 1
        width = int(rank[-1]) + 1
        cols = (rank[c] for c in codes)
    else:
        distinct, inverse = np.unique(np.concatenate(codes), return_inverse=True)
        width = distinct.size
        cols = np.split(inverse, np.cumsum(sizes)[:-1])
    row = np.zeros(-(-width // 64) * 64, dtype=bool)  # whole words
    words = np.empty((sizes.size, row.size // 64), dtype=np.uint64)  # row g: the edges of graph g
    for g, c in enumerate(cols):
        row[:] = False
        row[c] = True
        words[g] = np.packbits(row).view(np.uint64)
    common = np.zeros((sizes.size, sizes.size), dtype=np.int64)  # shared edges of each pair
    for a in range(sizes.size):
        common[a, a:] = common[a:, a] = np.bitwise_count(words[a] & words[a:]).sum(axis=1)
    return np.sqrt(2.0 * (sizes[:, None] + sizes[None, :] - 2 * common))


def _rank_dtype(count: int):
    """int32 while a cumsum over `count` codes stays below 2**31, else int64."""
    return np.int32 if count < 2**31 else np.int64


def _window_codes(whole: VisibilityGraph, windows: list[tuple[int, int]]) -> list[np.ndarray]:
    """Each window's edge codes, cut from the whole graph's sorted codes i*n+j.

    The windows share one length L. Window [a, b) holds the edges with a <= i
    and j < b: a run of codes found by searchsorted on i, less those with
    j >= b. Their window codes (i-a)*L + (j-a) = (i*L + j) - a*(L+1) keep the
    order, so each cut is sorted, as edge_codes is.
    """
    i, j = np.divmod(whole.edge_codes, whole.n)
    size = windows[0][1] - windows[0][0]
    base = i * size + j
    runs = np.searchsorted(i, windows).tolist()
    return [base[lo:hi][j[lo:hi] < b] - a * (size + 1) for (a, b), (lo, hi) in zip(windows, runs)]


def _per_window(parts, n: int, cfg: WindowConfig, count: int) -> np.ndarray:
    """counts[t, x - t*step]: the cliques through node x inside window t, for the `count`
    windows [t*step, t*step + L) that make_windows(n, cfg) gives, L = window_len. `parts`
    yields arrays whose columns are cliques of node indices. One spanning lo to hi lies in
    windows ceil((hi - L + 1) / step) to floor(lo / step). Node x lies in at most
    (L-1)//step + 1 windows, window t in slot x//step - t: a difference over slots counts
    each. A clique in no window gets first = last + 1: its +1 and -1 cancel."""
    window_len, step = cfg.window_len, cfg.step
    slots = (window_len - 1) // step + 2  # the last slot only ends ranges
    node, size = np.arange(n), n * slots
    base = node * slots + node // step + 1  # slot 0 of node x: window x//step
    diff = np.zeros(size, dtype=np.int64)
    for cliques in parts:  # one part at a time, so the scratch stays that small
        last = np.minimum(cliques.min(0) // step, count - 1)
        first = np.minimum(np.maximum(-((window_len - 1 - cliques.max(0)) // step), 0), last + 1)
        row = base[cliques]
        row -= last + 1  # where each clique's range of slots starts
        diff += np.bincount(row.ravel(), minlength=size)[:size]
        row += last + 1 - first  # and where it ends
        diff -= np.bincount(row.ravel(), minlength=size)[:size]
    counts = np.cumsum(diff.reshape(n, slots), axis=1)
    i = np.arange(window_len)  # node t*step + i of window t: slot i//step
    return counts[np.arange(count)[:, None] * step + i, i // step]


def _window_clustering(graph: VisibilityGraph, cfg: WindowConfig, count: int) -> list[float]:
    """mean_clustering of the subgraph induced on each of the `count` windows of
    make_windows(graph.n, cfg), from one triangle pass over the whole graph, whose forward
    edges (w, out) hold every edge once. For an LPHVG, that subgraph is the window's own LPHVG."""
    n = graph.n
    w, out, chunks = _forward_pairs(graph)
    edges = (np.array([w[a : a + n], out[a : a + n]]) for a in range(0, out.size, n))  # n a part
    linked = ((first[hit], second[hit]) for _, _, first, second, hit in chunks)
    triangles = (np.array([w[f], out[f], out[s]]) for f, s in linked)
    k = _per_window(edges, n, cfg, count)
    tri = _per_window(triangles, n, cfg, count)
    return [sum(c) / cfg.window_len for c in _local_clustering(k, tri).tolist()]


def _reference_windows(series_len: int, cfg: WindowConfig, ensemble: int) -> list[tuple[int, int]]:
    """The windows of a series, refused before any build when the reference
    ensemble is empty or there are too few windows to give it a pair."""
    validate_int("ensemble", ensemble, 1)
    windows = make_windows(series_len, cfg)
    if len(windows) < 2:
        raise ValueError("need at least two windows to form a reference distance")
    return windows


def threshold_from_random(
    cfg: WindowConfig,
    series_len: int,
    rho: int,
    rng: RngConfig,
    ensemble: int = DEFAULT_ENSEMBLE,
) -> float:
    """Minimum off-diagonal window distance over an i.i.d.-uniform reference ensemble.

    Each member is an independent uniform series of the target's length,
    built once; its windows' edge codes are cut from that build and go
    through the same distance kernel as distance_matrix.
    """
    rho = validate_int("rho", rho)
    windows = _reference_windows(series_len, cfg, ensemble)
    off_diagonal = np.triu_indices(len(windows), k=1)
    best = math.inf
    for member in range(ensemble):
        g = rng.generator(_THRESHOLD_STREAM_TAG, member)
        whole = build_lphvg(g.random(series_len), rho)
        dist = _code_distances(_window_codes(whole, windows), cfg.window_len ** 2)
        best = min(best, float(dist[off_diagonal].min()))
        if not best > 0:  # no later member can raise the minimum
            raise ValueError("degenerate reference ensemble: zero minimum distance")
    return best


def correlation_index(distances: np.ndarray, theta: float) -> np.ndarray:
    """Entrywise 1 - d/theta where d < theta, else 0. A far d is never divided: it may overflow."""
    if not theta > 0:
        raise ValueError(f"theta must be > 0, got {theta}")
    d = np.asarray(distances, dtype=np.float64)
    return 1.0 - np.divide(d, theta, out=np.ones_like(d), where=d < theta)


def recurrence_matrix(distances: np.ndarray, theta: float) -> np.ndarray:
    """Binary matrix, entry 1 iff d < theta (step function with Theta(0) = 0): just where
    the correlation index is > 0, as for 0 <= d < theta the rounded d/theta is at most
    1 - 2**-53, and negative, infinite and NaN distances agree too."""
    return (correlation_index(distances, theta) > 0).astype(np.int8)


class WindowMetrics(Record):
    start: int
    stop: int
    mean_degree: float
    mean_clustering: float
    mean_path_length: float


class EvolutionResult(Record):
    window_count: int
    windows: tuple[tuple[int, int], ...]
    per_window: tuple[WindowMetrics, ...]
    distances: np.ndarray
    theta: float
    gamma: np.ndarray
    recurrence: np.ndarray


@contextlib.contextmanager
def _in_child(fn, *args):
    """Run fn(*args) in a forked child during the with-block, which gets a function that waits: it
    reads the pipe to EOF, where the child wrote its float's hex in one write. No bytes (no fork, a
    failed one, a child that raised or died) run fn(*args) in process, exact as fn is deterministic.
    The block's exit kills and reaps the child. Python 3.12+ warns of a fork with threads (numpy's
    OpenBLAS pool): fn must call no BLAS routine, and the threshold calls none. Its first
    RngConfig.generator call imports numpy.random, with hashlib, secrets, hmac and base64: about
    15 ms the child pays off the main path, where an i.i.d. evolve never loads numpy.random."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except (AttributeError, OSError):  # no os.fork (Windows), or EAGAIN/ENOMEM
        pid = None
    if pid == 0:  # the child: never returns into the caller's stack
        try:
            os.write(write, fn(*args).hex().encode())
        finally:
            os._exit(0)
    os.close(write)
    def wait():
        data = pipe.read()
        return float.fromhex(data.decode()) if data else fn(*args)
    with open(read, "rb") as pipe:
        try:
            yield wait
        finally:
            if pid:  # a child that has exited is a zombie until reaped: macOS refuses its kill
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, 9)  # SIGKILL, without loading the signal module
                os.waitpid(pid, 0)


def evolve(
    series,
    rho: int,
    cfg: WindowConfig,
    rng: RngConfig,
    ensemble: int = DEFAULT_ENSEMBLE,
) -> EvolutionResult:
    """Run the full window pipeline; deterministic given (series, rho, cfg, rng)."""
    values = as_values(series)
    rho = validate_int("rho", rho)
    windows = _reference_windows(values.size, cfg, ensemble)
    with _in_child(threshold_from_random, cfg, values.size, rho, rng, ensemble) as threshold:
        whole = build_lphvg(values, rho)
        # before the cuts, so its scratch and theirs are never held together
        clustering = _window_clustering(whole, cfg, len(windows))
        codes = _window_codes(whole, windows)
        graphs = (VisibilityGraph(cfg.window_len, rho, c) for c in codes)
        per_window = tuple(
            WindowMetrics(*w, mean_degree=mean_degree_empirical(g), mean_clustering=c,
                          mean_path_length=mean_path_length(g))
            for w, g, c in zip(windows, graphs, clustering)
        )
        dist = _code_distances(codes, cfg.window_len ** 2)
        theta = threshold()
    gamma = correlation_index(dist, theta)
    return EvolutionResult(
        window_count=len(windows),
        windows=tuple(windows),
        per_window=per_window,
        distances=dist,
        theta=theta,
        gamma=gamma,
        recurrence=recurrence_matrix(dist, theta),
    )
