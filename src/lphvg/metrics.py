"""Empirical graph statistics and theory-comparison diagnostics."""
from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import theory
from .graph import VisibilityGraph, build_lphvg
from .series import as_values, validate_rho

EXACT_PATH_LENGTH_MAX_NODES = 2000
PATH_PROBE_DEPTH = 32  # deeper graphs (trending windows) go to scipy's per-source search
DEFAULT_PATH_SAMPLE_PAIRS = 10_000

# Verdict thresholds, calibrated on seeded uniform/gaussian/powerlaw series of
# n = 3000 (240 runs for the chi-square, 120 per rho for the coverage bands).
# The chi-square aggregates per-bin deviations from the closed-form degree law
# over bins with expected count >= DEGREE_CHI2_MIN_EXPECTED; i.i.d. input stays
# below 2.0 while the weakest chaotic benchmark (logistic map, rho=1) sits
# above 4. Coverage bands are two-sided because structured series can hug the
# clustering envelope *more* tightly than i.i.d. input does.
DEGREE_CHI2_MIN_EXPECTED = 10.0
DEGREE_CHI2_THRESHOLD = 3.0
COVERAGE_BANDS: dict[int, tuple[float, float]] = {
    0: (0.985, 1.0),
    1: (0.760, 0.835),
    2: (0.955, 0.9845),
}

VERDICT_IID = "consistent-with-iid"
VERDICT_DEVIATING = "deviating"

DISCRIMINATE_SOFT_FLOOR = 500


class InsufficientBinsError(ValueError):
    """Tail fit attempted with fewer than four usable histogram bins."""


@dataclass(frozen=True)
class DegreeDistribution:
    """Exact degree histogram of a graph."""

    counts: dict[int, int]
    n: int

    def __post_init__(self):
        total = sum(self.counts.values())
        if total != self.n:
            raise ValueError(f"counts sum to {total}, expected n={self.n}")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("negative count")

    @classmethod
    def from_graph(cls, graph: VisibilityGraph) -> "DegreeDistribution":
        return cls(dict(Counter(graph.degrees().tolist())), graph.n)

    def pmf(self, k: int) -> float:
        return self.counts.get(k, 0) / self.n

    @property
    def max_degree(self) -> int:
        return max(self.counts)

    def items(self):
        return sorted(self.counts.items())


def degree_distribution(graph: VisibilityGraph) -> DegreeDistribution:
    return DegreeDistribution.from_graph(graph)


def local_clustering(graph: VisibilityGraph, node: int) -> float:
    """Triangles through `node` over C(k, 2); zero for degree < 2."""
    if not 0 <= node < graph.n:
        raise IndexError(f"node {node} out of range for n={graph.n}")
    ptr, idx = graph.indptr, graph.indices
    nb = idx[ptr[node] : ptr[node + 1]]
    k = nb.size
    if k < 2:
        return 0.0
    rows = np.concatenate([idx[ptr[u] : ptr[u + 1]] for u in nb])
    return int(np.isin(rows, nb).sum()) / (k * (k - 1))  # 2 * triangles / (k(k-1))


def _triangles(graph: VisibilityGraph) -> np.ndarray:
    """Triangles through each node by degree-ordered compact-forward (Latapy 2008):
    edges point from the lower (degree, index) end w up, so each triangle is one
    linked pair u < v of w's out-neighbours (a bit of u's map of its next 64
    indices, else u*n+v in edge_codes); even a hub costs O(m^1.5) lookups."""
    n, k, nb = graph.n, graph.degrees(), graph.indices
    src = np.repeat(np.arange(n), k)
    fwd = (k[src] < k[nb]) | ((k[src] == k[nb]) & (src < nb))
    w, out = src[fwd], nb[fwd].astype(np.int64)  # out-neighbours, ascending per node
    later = np.cumsum(np.bincount(w, minlength=n))[w] - np.arange(out.size) - 1
    gap = (nb - src - 1).astype(np.uint64)  # wraps round for left neighbours
    near = np.zeros(n, dtype=np.uint64)
    np.bitwise_or.at(near, src[gap < 64], np.left_shift(np.uint64(1), gap[gap < 64]))
    cum, codes, hits = np.cumsum(later), graph.edge_codes, np.zeros((2, out.size))
    ends = np.searchsorted(cum, np.arange(1 << 16, cum[-1] if cum.size else 0, 1 << 16))
    for a, b in zip(np.r_[0, ends], np.r_[ends, out.size]):  # 65536 pairs at a time
        r = later[a:b]
        first = np.repeat(np.arange(a, b), r)
        second = first + np.arange(first.size) - np.repeat(np.cumsum(r) - r, r) + 1
        u, v = out[first], out[second]
        d = (v - u - 1).astype(np.uint64)
        hit = (d < 64) & (near[u] >> np.minimum(d, 63) & 1).astype(bool)
        far = np.flatnonzero(d >= 64)
        code = u[far] * n + v[far]
        hit[far] = codes[np.searchsorted(codes, code).clip(max=codes.size - 1)] == code
        hits[0, a:b] += np.bincount(first - a, hit, b - a)  # triangles found as u
        as_v = np.bincount(second - a, hit)  # and as v
        hits[1, a : a + as_v.size] += as_v
    return (np.bincount(w, hits[0], n) + np.bincount(out, hits.sum(0), n)).astype(np.int64)


def _clustering(graph: VisibilityGraph) -> list[float]:
    """Local clustering of every node, 2 * triangles / (k(k-1))."""
    pairs = graph.degrees() * (graph.degrees() - 1)
    return np.divide(2 * _triangles(graph), pairs, out=np.zeros(graph.n), where=pairs > 0).tolist()


def mean_degree_empirical(graph: VisibilityGraph) -> float:
    return 2.0 * graph.edge_count / graph.n


def mean_clustering(graph: VisibilityGraph) -> float:
    return sum(_clustering(graph)) / graph.n


def _bfs_distance_sum(graph: VisibilityGraph, lo: int, hi: int, max_depth: int):
    """Sum of BFS distances from sources lo..hi-1, run at once (MS-BFS): source lo+s
    is bit s%64 of word s//64 of each node's row, a level is one reduceat over the
    CSR rows (none may be empty). inf if a node is unreachable, None past max_depth."""
    src = np.arange(hi - lo)
    seen = np.zeros((graph.n, (hi - lo + 63) // 64), dtype=np.uint64)
    seen[src + lo, src // 64] = np.left_shift(np.uint64(1), (src % 64).astype(np.uint64))
    frontier, total = seen, 0
    for level in range(1, max_depth + 2):
        frontier = np.bitwise_or.reduceat(frontier[graph.indices], graph.indptr[:-1], axis=0)
        frontier &= ~seen
        count = int(np.bitwise_count(frontier).sum())
        if count == 0:
            return total if int(np.bitwise_count(seen).sum()) == graph.n * src.size else math.inf
        seen |= frontier
        total += level * count
    return None


def _shortest_paths(graph: VisibilityGraph, indices=None) -> np.ndarray:
    from scipy import sparse  # slow to import: deep or large graphs only
    from scipy.sparse.csgraph import shortest_path

    data = np.ones(graph.indices.size, dtype=np.int64)
    adj = sparse.csr_array((data, graph.indices, graph.indptr), shape=(graph.n, graph.n))
    return shortest_path(adj, method="D", unweighted=True, directed=False, indices=indices)


def mean_path_length(
    graph: VisibilityGraph,
    sample_pairs: int | None = None,
    seed: int = 0,
) -> float:
    """Average shortest-path length over distinct node pairs.

    Exact for n <= 2000 (bit-parallel BFS, or scipy if a 64-source probe runs
    deeper than PATH_PROBE_DEPTH); larger graphs average over `sample_pairs`
    seeded uniform random pairs (default 10000).
    """
    if sample_pairs is not None and sample_pairs <= 0:
        raise ValueError(f"sample_pairs must be positive, got {sample_pairs}")
    n = graph.n
    if n <= EXACT_PATH_LENGTH_MAX_NODES and sample_pairs is None:
        if graph.degrees().min() == 0:
            return math.inf  # an isolated node is unreachable
        total = _bfs_distance_sum(graph, 0, min(n, 64), PATH_PROBE_DEPTH)
        if total is None:
            total = _shortest_paths(graph)[np.triu_indices(n, k=1)].sum()
        elif total < math.inf:  # connected: count each unordered pair once
            total = (total + (_bfs_distance_sum(graph, 64, n, n) if n > 64 else 0)) // 2
        return float(total) / (n * (n - 1) // 2)
    pairs = sample_pairs if sample_pairs is not None else DEFAULT_PATH_SAMPLE_PAIRS
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, pairs)
    dst = rng.integers(0, n - 1, pairs)
    dst = np.where(dst >= src, dst + 1, dst)  # exclude the diagonal
    order = np.unique(src)
    dist = _shortest_paths(graph, order)
    row = {s: r for r, s in enumerate(order)}
    return float(np.mean([dist[row[s], d] for s, d in zip(src, dst)]))


@dataclass(frozen=True)
class FiniteSizeReport:
    """Relative errors against the closed-form degree law.

    per_k covers every supported bin up to the maximum observed degree; the
    scalar summaries (me, me_sum) aggregate the pre-cutoff bins k < k0 only,
    which is the regime the cutoff marks as unaffected by finite size.
    """

    per_k: tuple[tuple[int, float], ...]
    me: float
    me_sum: float
    k0: int
    rho: int
    e_threshold: float

    def error(self, k: int) -> float:
        for kk, e in self.per_k:
            if kk == k:
                return e
        raise KeyError(k)


def finite_size_report(
    dist: DegreeDistribution, rho: int, e_threshold: float = 1.0
) -> FiniteSizeReport:
    rho = validate_rho(rho)
    if not dist.counts:
        raise ValueError("empty distribution")
    k_min = 2 * (rho + 1)
    max_deg = dist.max_degree
    per_k: list[tuple[int, float]] = []
    for k in range(k_min, max_deg + 1):
        p_the = theory.degree_pmf(rho, k)
        per_k.append((k, abs(dist.pmf(k) - p_the) / p_the))

    k0 = k_min
    errors = dict(per_k)
    while dist.counts.get(k0, 0) > 0 and errors.get(k0, math.inf) <= e_threshold:
        k0 += 1

    pre_cutoff = [e for k, e in per_k if k < k0]
    me = float(np.mean(pre_cutoff)) if pre_cutoff else math.nan
    me_sum = float(np.sum(pre_cutoff)) if pre_cutoff else math.nan
    return FiniteSizeReport(
        per_k=tuple(per_k),
        me=me,
        me_sum=me_sum,
        k0=k0,
        rho=rho,
        e_threshold=e_threshold,
    )


@dataclass(frozen=True)
class TailFit:
    """Unweighted OLS fit of ln pmf(k) against k over the populated tail."""

    lambda_hat: float
    stderr: float
    k_range: tuple[int, int]
    r2: float
    n_bins: int
    range_extended: bool


def _linear_fit(x, y):
    """(slope, slope stderr, r) of y on x by OLS, in scipy.stats.linregress's arithmetic."""
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.float64(np.nan if ssxym == 0 else 0.0)
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    return ssxym / ssxm, np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2)), r


def fit_tail(
    dist: DegreeDistribution,
    rho: int,
    k_hi: int | None = None,
    min_count: int = 5,
) -> TailFit:
    """Estimate the exponential decay rate of the degree distribution tail.

    Fits bins k in [2(rho+1), k_hi] holding at least `min_count` nodes; k_hi
    defaults to the finite-size cutoff k0. When fewer than four bins qualify
    under the default cap (heavily deviating series), the range extends to
    every qualifying bin and the fit is flagged range_extended.
    """
    rho = validate_rho(rho)
    k_min = 2 * (rho + 1)
    candidates = sorted(k for k, c in dist.counts.items() if k >= k_min and c >= min_count)
    extended = False
    if k_hi is None:
        cutoff = finite_size_report(dist, rho).k0
        ks = [k for k in candidates if k <= cutoff]
        if len(ks) < 4:
            ks = candidates
            extended = True
    else:
        ks = [k for k in candidates if k <= k_hi]
    if len(ks) < 4:
        raise InsufficientBinsError(
            f"tail fit needs >= 4 bins with count >= {min_count}, found {len(ks)}"
        )
    slope, stderr, r = _linear_fit(ks, [math.log(dist.pmf(k)) for k in ks])
    return TailFit(
        lambda_hat=-float(slope),
        stderr=float(stderr),
        k_range=(ks[0], ks[-1]),
        r2=float(r) ** 2,
        n_bins=len(ks),
        range_extended=extended,
    )


def degree_law_chi2(
    dist: DegreeDistribution, rho: int, min_expected: float = DEGREE_CHI2_MIN_EXPECTED
) -> tuple[float, int]:
    """Chi-square of observed bin counts against the closed-form degree law.

    Sums z^2 over consecutive bins from k = 2(rho+1) while the expected count
    n * P(k) stays >= min_expected; returns (chi2, df).
    """
    rho = validate_rho(rho)
    chi2 = 0.0
    df = 0
    k = 2 * (rho + 1)
    while True:
        p = theory.degree_pmf(rho, k)
        expected = dist.n * p
        if expected < min_expected:
            break
        observed = dist.counts.get(k, 0)
        chi2 += (observed - expected) ** 2 / (expected * (1.0 - p))
        df += 1
        k += 1
    return chi2, df


def interior_nodes(graph: VisibilityGraph) -> range:
    """Indices with a full rho+1 band on both sides."""
    return range(graph.rho + 1, graph.n - graph.rho - 1)


@dataclass(frozen=True)
class CoverageReport:
    fraction: float
    interior_count: int
    below_min: int
    above_max: int


def clustering_coverage(graph: VisibilityGraph, tol: float = 1e-12) -> CoverageReport:
    """Fraction of interior nodes whose clustering lies inside the envelope.

    Uses the extrapolated maximum below its stated domain; rho > 2 evaluates
    the formulas outside their stated scope (callers should treat the result
    as unvalidated there).
    """
    rho = graph.rho
    unvalidated = rho > theory.CLUSTERING_RHO_MAX
    below = above = inside = total = 0
    degrees = graph.degrees().tolist()
    clustering = _clustering(graph)
    for i in interior_nodes(graph):
        k, c = degrees[i], clustering[i]
        lo = theory.clustering_min(rho, k, unvalidated=unvalidated)
        hi = theory.clustering_max(rho, k, unvalidated=unvalidated)
        total += 1
        if c < lo - tol:
            below += 1
        elif c > hi + tol:
            above += 1
        else:
            inside += 1
    if total == 0:
        raise ValueError("graph has no interior nodes")
    return CoverageReport(
        fraction=inside / total,
        interior_count=total,
        below_min=below,
        above_max=above,
    )


def link_frequency_by_separation(graph: VisibilityGraph, max_sep: int) -> np.ndarray:
    """freq[d-1] = (# edges with j - i = d) / (n - d) for d = 1..max_sep."""
    if max_sep < 1:
        raise ValueError("max_sep must be >= 1")
    i, j = np.divmod(graph.edge_codes, graph.n)
    counts = np.bincount(j - i, minlength=max_sep + 1)[1 : max_sep + 1]
    denom = np.array([graph.n - d for d in range(1, max_sep + 1)], dtype=np.float64)
    return counts / denom


@dataclass(frozen=True)
class DiscriminationResult:
    """Verdict plus every statistic that fed it."""

    verdict: str
    rho: int
    n: int
    lambda_theory: float
    lambda_hat: float
    lambda_stderr: float
    lambda_consistent: bool
    fit_r2: float
    fit_k_range: tuple[int, int]
    fit_range_extended: bool
    chi2: float
    chi2_df: int
    chi2_reduced: float
    chi2_threshold: float
    coverage: float
    coverage_band: tuple[float, float] | None
    coverage_in_band: bool | None
    me: float
    k0: int
    mean_degree: float

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["fit_k_range"] = list(self.fit_k_range)
        d["coverage_band"] = list(self.coverage_band) if self.coverage_band else None
        return d


def discriminate(series, rho: int) -> DiscriminationResult:
    """Classify a series as consistent with i.i.d. randomness or deviating.

    Builds the graph and tests the closed-form degree law with a per-bin
    chi-square, plus a two-sided check of clustering-envelope coverage
    against an i.i.d. reference band (rho <= 2; bands calibrated near
    n = 3000). The tail decay estimate and its 3-sigma comparison against
    ln((2rho+3)/(2rho+2)) are reported but do not gate the verdict: the
    envelope formulas are soft bounds in practice, and structured series can
    match the tail slope while deviating elsewhere. With too few bins to fit
    (a constant series, say) the fit fields are NaN.
    """
    values = as_values(series)
    rho = validate_rho(rho)
    if values.size < DISCRIMINATE_SOFT_FLOOR:
        warnings.warn(
            f"series length {values.size} is below the statistical soft floor "
            f"of {DISCRIMINATE_SOFT_FLOOR}; the verdict may be unreliable",
            stacklevel=2,
        )
    graph = build_lphvg(values, rho)
    dist = degree_distribution(graph)
    try:
        fit = fit_tail(dist, rho)
    except InsufficientBinsError:  # constant or few-level input: no tail to fit
        fit = TailFit(math.nan, math.nan, (math.nan, math.nan), math.nan, 0, True)
    fsr = finite_size_report(dist, rho)
    chi2, df = degree_law_chi2(dist, rho)
    if df == 0:
        raise ValueError("series too short for the degree-law test: no usable bins")
    chi2_reduced = chi2 / df
    cov = clustering_coverage(graph)
    band = COVERAGE_BANDS.get(rho)
    in_band = None if band is None else band[0] <= cov.fraction <= band[1]

    lam_theory = theory.decay_rate(rho)
    lam_ok = abs(fit.lambda_hat - lam_theory) <= 3.0 * fit.stderr

    deviating = chi2_reduced > DEGREE_CHI2_THRESHOLD or in_band is False
    return DiscriminationResult(
        verdict=VERDICT_DEVIATING if deviating else VERDICT_IID,
        rho=rho,
        n=values.size,
        lambda_theory=lam_theory,
        lambda_hat=fit.lambda_hat,
        lambda_stderr=fit.stderr,
        lambda_consistent=bool(lam_ok),
        fit_r2=fit.r2,
        fit_k_range=fit.k_range,
        fit_range_extended=fit.range_extended,
        chi2=chi2,
        chi2_df=df,
        chi2_reduced=chi2_reduced,
        chi2_threshold=DEGREE_CHI2_THRESHOLD,
        coverage=cov.fraction,
        coverage_band=band,
        coverage_in_band=in_band,
        me=fsr.me,
        k0=fsr.k0,
        mean_degree=mean_degree_empirical(graph),
    )
