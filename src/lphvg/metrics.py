"""Empirical graph statistics and theory-comparison diagnostics."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import theory
from .generators import IidSpec, gen_iid
from .graph import VisibilityGraph, build_lphvg
from .series import RngConfig, as_values, validate_rho

PATH_PROBE_DEPTH = 32  # deeper graphs (trending windows) go to scipy's per-source search
PATH_SAMPLE_PAIRS = 2000 * 1999  # ordered pairs: n <= 2000 is exact

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
VERIFY_MAX_SEP = 30  # separations whose link frequency verify_ensemble checks
FINITE_SIZE_E_THRESHOLD = 1.0  # the cutoff k0 is the first bin whose relative error exceeds it
TAIL_MIN_COUNT = 5  # nodes a degree bin needs to enter the tail fit
COVERAGE_TOL = 1e-12  # rounding slack at the clustering envelope's edges


class InsufficientBinsError(ValueError):
    """Tail fit attempted with fewer than four usable histogram bins."""


@dataclass(frozen=True)
class DegreeDistribution:
    """Exact degree histogram of a graph: counts[k] nodes have degree k."""

    counts: np.ndarray
    n: int

    def __post_init__(self):
        if self.counts.size == 0:
            raise ValueError("empty distribution")
        if self.counts.min() < 0:
            raise ValueError("negative count")
        total = int(self.counts.sum())
        if total != self.n:
            raise ValueError(f"counts sum to {total}, expected n={self.n}")

    def pmf(self, k: int) -> float:
        return (int(self.counts[k]) if k < self.counts.size else 0) / self.n

    @property
    def max_degree(self) -> int:
        return int(np.flatnonzero(self.counts)[-1])


def degree_distribution(graph: VisibilityGraph) -> DegreeDistribution:
    return DegreeDistribution(np.bincount(graph.degrees()), graph.n)


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


def _clustering(graph: VisibilityGraph) -> np.ndarray:
    """Local clustering of every node, 2 * triangles / (k(k-1))."""
    pairs = graph.degrees() * (graph.degrees() - 1)
    return np.divide(2 * _triangles(graph), pairs, out=np.zeros(graph.n), where=pairs > 0)


def mean_degree_empirical(graph: VisibilityGraph) -> float:
    return 2.0 * graph.edge_count / graph.n


def mean_clustering(graph: VisibilityGraph) -> float:
    return sum(_clustering(graph).tolist()) / graph.n


def _bfs_distance_sum(graph: VisibilityGraph, sources: np.ndarray, max_depth: int):
    """Sum of BFS distances from the distinct `sources`, run at once (MS-BFS): sources[s]
    is bit s%64 of word s//64 of each node's row, a level is one reduceat over the
    CSR rows (none may be empty). inf if a node is unreachable, None past max_depth."""
    src = np.arange(sources.size)
    seen = np.zeros((graph.n, (src.size + 63) // 64), dtype=np.uint64)
    seen[sources, src // 64] = np.left_shift(np.uint64(1), (src % 64).astype(np.uint64))
    frontier, total = seen, 0
    for level in range(1, max_depth + 2):
        frontier = np.bitwise_or.reduceat(
            np.take(frontier, graph.indices, axis=0), graph.indptr[:-1], axis=0)
        frontier &= ~seen
        count = int(np.bitwise_count(frontier).sum())
        if count == 0:
            return total if int(np.bitwise_count(seen).sum()) == graph.n * src.size else math.inf
        seen |= frontier
        total += level * count
    return None


def _shortest_paths(graph: VisibilityGraph, sources: np.ndarray) -> np.ndarray:
    from scipy import sparse  # slow to import: deep graphs only
    from scipy.sparse.csgraph import shortest_path

    data = np.ones(graph.indices.size, dtype=np.int64)
    adj = sparse.csr_array((data, graph.indices, graph.indptr), shape=(graph.n, graph.n))
    return shortest_path(adj, method="D", unweighted=True, directed=False, indices=sources)


def mean_path_length(graph: VisibilityGraph) -> float:
    """Average shortest-path length from a set of sources to every other node.

    The sources are every node (the exact mean over distinct pairs) when the
    n(n-1) ordered pairs fit in PATH_SAMPLE_PAIRS, so n <= 2000; else the
    fewest whole 64-source words of random nodes (seed 0) that cover
    PATH_SAMPLE_PAIRS ordered pairs. They run as one bit-parallel BFS, or
    through scipy if the first 64 sources probe deeper than PATH_PROBE_DEPTH.
    """
    n = graph.n
    if graph.degrees().min() == 0:
        return math.inf  # an isolated node is unreachable
    sources = np.arange(n)
    if n * (n - 1) > PATH_SAMPLE_PAIRS:
        words = -(-PATH_SAMPLE_PAIRS // (64 * (n - 1)))
        sources = np.sort(np.random.default_rng(0).permutation(n)[: 64 * words])
    total = _bfs_distance_sum(graph, sources[:64], PATH_PROBE_DEPTH)
    if total is None:
        total = _shortest_paths(graph, sources).sum()
    elif total < math.inf and sources.size > 64:
        total += _bfs_distance_sum(graph, sources[64:], n)
    return float(total) / (sources.size * (n - 1))


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


def finite_size_report(dist: DegreeDistribution, rho: int) -> FiniteSizeReport:
    rho = validate_rho(rho)
    k_min = 2 * (rho + 1)
    per_k: list[tuple[int, float]] = []
    for k in range(k_min, dist.max_degree + 1):
        if not dist.counts[k]:  # |0 - P| / P is 1 for any P > 0
            per_k.append((k, 1.0))
            continue
        p_the = theory.degree_pmf(rho, k)  # 0.0 far out in a hub's tail
        per_k.append((k, abs(dist.pmf(k) - p_the) / p_the if p_the else math.inf))

    k0 = k_min
    errors = dict(per_k)
    while errors.get(k0, math.inf) <= FINITE_SIZE_E_THRESHOLD and dist.counts[k0]:
        k0 += 1  # errors holds only k <= max_degree, so counts[k0] is in range

    pre_cutoff = [e for k, e in per_k if k < k0]
    me = float(np.mean(pre_cutoff)) if pre_cutoff else math.nan
    me_sum = float(np.sum(pre_cutoff)) if pre_cutoff else math.nan
    return FiniteSizeReport(per_k=tuple(per_k), me=me, me_sum=me_sum, k0=k0)


@dataclass(frozen=True)
class TailFit:
    """Unweighted OLS fit of ln pmf(k) against k over the populated tail."""

    lambda_hat: float
    stderr: float
    k_range: tuple[int, int]
    r2: float
    range_extended: bool


def _linear_fit(x, y):
    """(slope, slope stderr, r) of y on x by OLS, in scipy.stats.linregress's arithmetic."""
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.float64(np.nan if ssxym == 0 else 0.0)
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    return ssxym / ssxm, np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2)), r


def fit_tail(dist: DegreeDistribution, rho: int) -> TailFit:
    """Estimate the exponential decay rate of the degree distribution tail.

    Fits bins k in [2(rho+1), k0] holding at least TAIL_MIN_COUNT nodes, k0
    being the finite-size cutoff. When fewer than four bins qualify under
    that cap (heavily deviating series), the range extends to every
    qualifying bin and the fit is flagged range_extended.
    """
    rho = validate_rho(rho)
    k_min = 2 * (rho + 1)
    candidates = (np.flatnonzero(dist.counts[k_min:] >= TAIL_MIN_COUNT) + k_min).tolist()
    cutoff = finite_size_report(dist, rho).k0
    ks = [k for k in candidates if k <= cutoff]
    extended = len(ks) < 4
    if extended:
        ks = candidates
    if len(ks) < 4:
        raise InsufficientBinsError(
            f"tail fit needs >= 4 bins with count >= {TAIL_MIN_COUNT}, found {len(ks)}"
        )
    slope, stderr, r = _linear_fit(ks, [math.log(dist.pmf(k)) for k in ks])
    return TailFit(-float(slope), float(stderr), (ks[0], ks[-1]), float(r) ** 2, extended)


def degree_law_chi2(dist: DegreeDistribution, rho: int) -> tuple[float, int]:
    """Chi-square of observed bin counts against the closed-form degree law.

    Sums z^2 over consecutive bins from k = 2(rho+1) while the expected count
    n * P(k) stays >= DEGREE_CHI2_MIN_EXPECTED; returns (chi2, df).
    """
    rho = validate_rho(rho)
    chi2 = 0.0
    k = 2 * (rho + 1)
    while True:
        p = theory.degree_pmf(rho, k)
        expected = dist.n * p
        if expected < DEGREE_CHI2_MIN_EXPECTED:
            break
        observed = int(dist.counts[k]) if k < dist.counts.size else 0
        chi2 += (observed - expected) ** 2 / (expected * (1.0 - p))
        k += 1
    return chi2, k - 2 * (rho + 1)  # df: one per bin summed


def clustering_coverage(graph: VisibilityGraph) -> float:
    """Fraction of interior nodes, those with a full rho+1 band on both sides,
    whose clustering lies inside the envelope.

    Uses the extrapolated maximum below its stated domain; rho > 2 evaluates
    the formulas outside their stated scope (callers should treat the result
    as unvalidated there). The envelope is evaluated once per distinct degree.
    """
    rho = graph.rho
    if graph.n <= 2 * (rho + 1):
        raise ValueError("graph has no interior nodes")
    span = slice(rho + 1, graph.n - rho - 1)
    c = _clustering(graph)[span]
    ks, inverse = np.unique(graph.degrees()[span], return_inverse=True)
    below = ks < 2 * (rho + 1)  # no LPHVG has such an interior node: it counts as outside
    ks = np.maximum(ks, 2 * (rho + 1)).tolist()
    unvalidated = rho > theory.CLUSTERING_RHO_MAX
    lo = np.array([theory.clustering_min(rho, k, unvalidated=unvalidated) for k in ks])
    hi = np.array([theory.clustering_max(rho, k, unvalidated=unvalidated) for k in ks])
    outside = below[inverse] | (c < lo[inverse] - COVERAGE_TOL) | (c > hi[inverse] + COVERAGE_TOL)
    return (c.size - int(outside.sum())) / c.size


def link_frequency_by_separation(graph: VisibilityGraph, max_sep: int) -> np.ndarray:
    """freq[d-1] = (# edges with j - i = d) / (n - d) for d = 1..max_sep < n."""
    if not 1 <= max_sep < graph.n:
        raise ValueError(f"max_sep must be in 1..n-1 = {graph.n - 1}, got {max_sep}")
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
        fit = TailFit(math.nan, math.nan, (math.nan, math.nan), math.nan, True)
    fsr = finite_size_report(dist, rho)
    chi2, df = degree_law_chi2(dist, rho)
    if df == 0:
        raise ValueError("series too short for the degree-law test: no usable bins")
    chi2_reduced = chi2 / df
    cov = clustering_coverage(graph)
    band = COVERAGE_BANDS.get(rho)
    in_band = None if band is None else band[0] <= cov <= band[1]

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
        coverage=cov,
        coverage_band=band,
        coverage_in_band=in_band,
        me=fsr.me,
        k0=fsr.k0,
        mean_degree=mean_degree_empirical(graph),
    )


def _t_quantile(df: int, p: float) -> float:
    """Student's t quantile at an integer df >= 1, for 0.9995 <= p <= 1 - 1e-6.

    Newton's method in log t on the two-sided tail P(|T| > t) = 2(1 - p), the
    finite series in y = cos^2(theta) = df / (df + t^2) of Abramowitz & Stegun
    26.7.3-26.7.4 (Hill, CACM 13, 1970). The tail's rounding error keeps the
    result within about 2e-12 relative of the exact quantile for df <= 1000.
    """
    odd = df % 2
    coefs, c = [], 1.0  # the series' coefficients of y^k, 1 <= k < df // 2
    for k in range(1, df // 2):
        c *= (2 * k - 1 + odd) / (2 * k + odd)
        coefs.append(c)
    coefs.reverse()
    log_norm = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    target, t = 2.0 * (1.0 - p), 3.0
    for _ in range(50):  # at most 6 steps in the stated domain, df <= 1000
        y, rest = df / (df + t * t), 0.0  # rest: the series after its first term
        for c in coefs:
            rest = (rest + c) * y
        if odd:  # (2/pi)(pi/2 - theta - sin cos series); df = 1 has no series
            tail = 2 / math.pi * (math.atan(math.sqrt(df) / t)
                                  - (df > 1) * (1 + rest) * t * math.sqrt(df) / (df + t * t))
        else:  # 1 - sin series, with 1 - sin(theta) = y / (1 + sin(theta))
            s = t / math.sqrt(df + t * t)
            tail = y / (1 + s) - s * rest
        density = math.exp(log_norm - (df + 1) / 2 * math.log1p(t * t / df))
        step = math.log(tail / target) * tail / (2 * t * density)
        t *= math.exp(step)
        if abs(step) < 1e-8:  # quadratic convergence: t now carries only the tail's rounding
            break
    return t


@dataclass(frozen=True)
class VerifyReport:
    """verify_ensemble's outcome: each artifact name's (header, rows), the failed
    checks (empty when all pass) and the ensemble's summary figures."""

    tables: dict[str, tuple[list[str], list[tuple]]]
    failures: list[str]
    mean_degree: float
    coverage: float
    k0: int


def verify_ensemble(
    rho: int, n: int, seeds: int, seed: int = 0, family: str = "uniform"
) -> VerifyReport:
    """Check the closed-form i.i.d. laws on the LPHVGs of `seeds` seeded series.

    Series s is gen_iid of `family` with RngConfig(seed, s), s = 0..seeds-1,
    and one graph is alive at a time. Five checks: the pooled degree pmf per
    well-populated bin, the mean degree 4(rho+1), the mean clustering coverage
    against its i.i.d. band (rho <= 2), certain links inside the band, and the
    link frequency against the long-distance law for separations beyond it.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    max_sep = min(VERIFY_MAX_SEP, n - 1)
    degrees, mean_degrees, coverages, freq_rows = [], [], [], []
    for stream in range(seeds):
        graph = build_lphvg(gen_iid(IidSpec(family=family, n=n, rng=RngConfig(seed, stream))), rho)
        degrees.append(graph.degrees())
        mean_degrees.append(mean_degree_empirical(graph))
        coverages.append(clustering_coverage(graph))
        freq_rows.append(link_frequency_by_separation(graph, max_sep))
    dist = DegreeDistribution(np.bincount(np.concatenate(degrees)), n * seeds)
    fsr = finite_size_report(dist, rho)

    failures = []
    # thresholds are designed for the 10-seed ensemble; smaller ensembles get
    # proportionally looser bounds so the checks keep ~the same power
    e_threshold = 0.15 * max(1.0, math.sqrt(10.0 / seeds))
    pmf_rows = []
    for k, err in fsr.per_k:
        p_the = theory.degree_pmf(rho, k)
        pmf_rows.append((k, int(dist.counts[k]), dist.pmf(k), p_the, err))
        if n * p_the >= 50 and err >= e_threshold:
            failures.append(f"pmf E(k={k}) = {err:.3f} >= {e_threshold:.3f}")

    md, md_theory = float(np.mean(mean_degrees)), theory.mean_degree(rho)
    md_rel = abs(md - md_theory) / md_theory
    if md_rel >= 0.05:
        failures.append(f"mean degree {md:.3f} deviates {md_rel:.3%} from {md_theory}")

    cov = float(np.mean(coverages))
    band = COVERAGE_BANDS.get(rho)
    if band is not None and not band[0] <= cov <= band[1]:
        failures.append(f"coverage {cov:.4f} outside iid band {band}")

    # simultaneous check over ~30 separations with few-seed (t-distributed)
    # standard errors: use a family-wise 0.1% bound so a pass/fail verdict is
    # reproducible without seed luck; genuine deviations sit far outside it
    n_checked = max(1, max_sep - (rho + 1))
    # one seed gives no standard error, so se_factor is never read; at p >= 0.9995
    # a t quantile exceeds z(0.9995) = 3.29, so it needs no floor of 3
    se_factor = _t_quantile(seeds - 1, 1.0 - 0.0005 / n_checked) if seeds > 1 else math.inf
    freq = np.vstack(freq_rows)
    long_rows = []
    for sep in range(1, max_sep + 1):
        col = freq[:, sep - 1]
        emp = float(col.mean())
        # equal frequencies leave no spread (their std would be a rounding residue)
        spread = bool(col.min() < col.max())
        se = float(col.std(ddof=1) / math.sqrt(seeds)) if spread else 0.0 if seeds > 1 else math.nan
        th = theory.long_visibility_prob(rho, sep)
        long_rows.append((sep, emp, se, th, theory.long_visibility_prob_classic(rho, sep)))
        if sep <= rho + 1:
            if emp != 1.0:
                failures.append(f"band link frequency at sep={sep} is {emp} != 1")
        elif spread and abs(emp - th) > se_factor * se:
            failures.append(
                f"link frequency at sep={sep}: {emp:.5f} vs {th:.5f} "
                f"(bound {se_factor:.1f}*se = {se_factor * se:.5f})"
            )

    envelope = theory.degree_table(
        rho, dist.max_degree, unvalidated=rho > theory.CLUSTERING_RHO_MAX
    )
    tables = {
        "pmf_vs_theory.csv": (["k", "count", "pmf", "theory_pmf", "relative_error"], pmf_rows),
        "finite_size.csv": (["k", "relative_error"], list(fsr.per_k)),
        "finite_size_summary.csv": (
            ["me", "me_sum", "k0", "e_threshold"],
            [(fsr.me, fsr.me_sum, fsr.k0, FINITE_SIZE_E_THRESHOLD)],
        ),
        "coverage.csv": (["seed", "coverage"], list(enumerate(coverages))),
        "long_distance.csv": (
            ["sep", "empirical", "stderr", "probability", "probability_classic"],
            long_rows,
        ),
        "theory_table.csv": (
            ["k", "pmf", "c_min", "c_max", "c_max_extrapolated"],
            [(r["k"], r["pmf"], r["c_min"], r["c_max"], int(r["c_max_extrapolated"]))
             for r in envelope],
        ),
    }
    return VerifyReport(tables, failures, md, cov, fsr.k0)
