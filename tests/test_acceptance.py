"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

All random inputs use fixed seeds, so every check is deterministic. The
periodic mean degree is checked against the exact law, and the clustering
envelope, which is not a pointwise bound for rho >= 1, through witnesses,
the exact rho = 0 case and the calibrated coverage bands (see the README's
"known deviations" section).
"""
import math
import time

import numpy as np
import pytest

from lphvg import (
    DegreeDistribution,
    RngConfig,
    build_lphvg,
    build_lphvg_naive,
    clustering_coverage,
    clustering_max,
    clustering_min,
    clustering_pmf_max,
    clustering_pmf_min,
    degree_distribution,
    degree_pmf,
    discriminate,
    finite_size_report,
    gen_flow,
    gen_henon,
    gen_iid,
    gen_logistic,
    gen_periodic,
    link_frequency_by_separation,
    mean_degree_empirical,
    mean_degree_periodic_exact,
    long_visibility_prob,
    long_visibility_prob_classic,
    TimeSeries,
)
from lphvg.cli import main as cli_main
from lphvg.generators import FlowSpec, IidSpec
from lphvg.metrics import COVERAGE_BANDS, VERDICT_DEVIATING, VERDICT_IID

from oracles import (
    affine_transform,
    coverage_reference,
    edge_set,
    hvg_reference_edges,
    local_clustering,
    lphvg_reference_edges,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def uniform_series(n: int, seed: int, base: int = 100) -> TimeSeries:
    return gen_iid(IidSpec("uniform", n, RngConfig(base, seed)))


def test_criterion_01_closed_form_self_consistency():
    t0 = time.perf_counter()
    problems = []
    for rho in range(6):
        ratio = (2 * rho + 2) / (2 * rho + 3)
        k = 2 * (rho + 1)
        p = degree_pmf(rho, k)
        total = mean = 0.0
        while p > 1e-14:
            total += p
            mean += k * p
            k += 1
            p *= ratio
        if abs(total - 1.0) > 1e-9:
            problems.append(f"rho={rho}: pmf sums to {total}")
        if abs(mean - 4 * (rho + 1)) > 1e-9:
            problems.append(f"rho={rho}: mean {mean} != {4 * (rho + 1)}")
    for rho in (0, 1, 2):
        for k in range(2 * (rho + 1), 41):
            err = abs(clustering_pmf_min(rho, clustering_min(rho, k)) - degree_pmf(rho, k))
            if err > 1e-9:
                problems.append(f"min round trip rho={rho} k={k}: {err}")
        for k in range(2 * (2 * rho + 1), 41):
            err = abs(clustering_pmf_max(rho, clustering_max(rho, k)) - degree_pmf(rho, k))
            if err > 1e-9:
                problems.append(f"max round trip rho={rho} k={k}: {err}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    report("1", ok, f"rho 0..5 sums/means and envelope round-trips; {elapsed:.2f}s")
    assert not problems, problems
    assert elapsed < 1.0


def pooled_errors(family: str, rho: int, n: int, seeds: int, base: int):
    degrees = [build_lphvg(gen_iid(IidSpec(family, n, RngConfig(base, seed))), rho).degrees()
               for seed in range(seeds)]
    pooled = DegreeDistribution(np.bincount(np.concatenate(degrees)), n * seeds)
    out = []
    k = 2 * (rho + 1)
    while n * degree_pmf(rho, k) >= 50:
        p = degree_pmf(rho, k)
        out.append((k, abs(pooled.pmf(k) - p) / p))
        k += 1
    return out


def _check_eq2(families, criterion: str, base: int):
    t0 = time.perf_counter()
    worst = ("", 0, 0.0)
    for family in families:
        for rho in (1, 2):
            for k, err in pooled_errors(family, rho, 3000, 10, base):
                if err > worst[2]:
                    worst = (f"{family} rho={rho}", k, err)
    elapsed = time.perf_counter() - t0
    ok = worst[2] < 0.15 and elapsed < 10.0 * len(families)
    report(
        criterion,
        ok,
        f"max pooled E(k) = {worst[2]:.3f} at k={worst[1]} ({worst[0]}), "
        f"threshold 0.15; {elapsed:.1f}s",
    )
    assert worst[2] < 0.15, worst
    return elapsed


def test_criterion_02_degree_law_reproduction():
    elapsed = _check_eq2(["uniform"], "2", base=200)
    assert elapsed < 10.0


def test_criterion_03_distribution_independence():
    _check_eq2(["gaussian", "powerlaw"], "3", base=300)


def test_criterion_04_finite_size_trends():
    t0 = time.perf_counter()
    sizes = (500, 1000, 2000, 4000, 8000)
    problems = []
    detail = []
    for rho in (1, 2):
        me_means = []
        k0_means = []
        for n in sizes:
            mes, k0s = [], []
            for seed in range(10):
                ts = gen_iid(IidSpec("uniform", n, RngConfig(400 + rho, seed * 1000 + n)))
                rep = finite_size_report(degree_distribution(build_lphvg(ts, rho)), rho)
                mes.append(rep.me)
                k0s.append(rep.k0)
            me_means.append(float(np.mean(mes)))
            k0_means.append(float(np.mean(k0s)))
        if not all(a > b for a, b in zip(me_means, me_means[1:])):
            problems.append(f"rho={rho}: ME not strictly decreasing: {me_means}")
        if not all(a <= b for a, b in zip(k0_means, k0_means[1:])):
            problems.append(f"rho={rho}: k0 decreases: {k0_means}")
        detail.append(
            f"rho={rho} ME {me_means[0]:.3f}->{me_means[-1]:.3f} "
            f"k0 {k0_means[0]:.1f}->{k0_means[-1]:.1f}"
        )
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    report("4", ok, "; ".join(detail) + f"; {elapsed:.1f}s")
    assert not problems, problems
    assert elapsed < 60.0


def test_criterion_05_periodic_mean_degree():
    # A link depends only on the values between its endpoints and none reaches
    # past (rho+1) periods, so the middle period of a (2rho+3)-period tile has
    # exactly the degrees of the infinite periodic series.
    t0 = time.perf_counter()
    rows = []
    above_law = []
    for period in (50, 100, 200, 250):
        for rho in range(0, 11):
            if 2 * rho + 1 >= period:
                continue
            rng = RngConfig(500, period * 100 + rho)
            tile = gen_periodic(period, (2 * rho + 3) * period, rng)
            middle = build_lphvg(tile, rho).degrees()[(rho + 1) * period:(rho + 2) * period]
            md = float(middle.sum()) / period
            expected = mean_degree_periodic_exact(rho, period)
            rows.append((period, rho, md, expected, abs(md - expected) / expected))
            # The n=1000 graph (whole periods) is an induced subgraph of the
            # infinite one, so its mean degree cannot exceed the law.
            finite = mean_degree_empirical(build_lphvg(gen_periodic(period, 1000, rng), rho))
            if finite > expected:
                above_law.append((period, rho, finite, expected))
    elapsed = time.perf_counter() - t0
    bad = [r for r in rows if r[4] > 1e-12]
    ok = not bad and not above_law and elapsed < 10.0
    worst = max(rows, key=lambda r: r[4])
    report(
        "5",
        ok,
        f"{len(rows) - len(bad)}/{len(rows)} combos match the exact law (worst rel. "
        f"difference {worst[4]:.1e}); n=1000 mean degree above the law in "
        f"{len(above_law)}/{len(rows)}; {elapsed:.1f}s",
    )
    assert elapsed < 10.0
    assert not bad, (
        "middle-period mean degree differs from the exact law at: "
        + ", ".join(f"(T={p}, rho={r}: {md} vs {e})" for p, r, md, e, _ in bad)
    )
    assert not above_law, above_law


def _triangles_at(edges: set, node: int) -> tuple[int, int]:
    """Degree of `node` and the triangles through it, from an edge set."""
    nb = sorted({j for e in edges if node in e for j in e if j != node})
    tri = sum(1 for a in nb for b in nb if a < b and (a, b) in edges)
    return len(nb), tri


def test_criterion_06_clustering_bounds():
    t0 = time.perf_counter()
    exact = {
        (1, 4, "min"): 5 / 6,
        (1, 5, "min"): 7 / 10,
        (1, 6, "min"): 3 / 5,
        (1, 6, "max"): 11 / 15,
    }
    for (rho, k, side), value in exact.items():
        got = clustering_min(rho, k) if side == "min" else clustering_max(rho, k)
        assert got == pytest.approx(value, abs=1e-12), (rho, k, side)

    # (a) Seven-point witnesses that leave the envelope inside its stated
    # domain: node 3 has k=6 and 12 triangles, so C=12/15, above
    # C_max(1,6) = 11/15 at rho=1 and below C_min(2,6) = 13/15 at rho=2.
    witnesses = (([6, 3, 0, 2, 1, 4, 5], 1), ([1, 6, 4, 0, 5, 3, 2], 2))
    for x, rho in witnesses:
        assert _triangles_at(lphvg_reference_edges(x, rho), 3) == (6, 12), (x, rho)
        for builder in (build_lphvg, build_lphvg_naive):
            g = builder(x, rho)
            assert g.degrees()[3] == 6, (builder.__name__, x, rho)
            assert local_clustering(g, 3) == pytest.approx(12 / 15, abs=1e-12)
    assert 12 / 15 > clustering_max(1, 6)
    assert 12 / 15 < clustering_min(2, 6)

    # (b) rho = 0 is the exact HVG result C = 2/k (Luque et al. 2009) for
    # every node with a strictly higher value on both sides.
    ts = uniform_series(3000, 0, base=600)
    x = ts.values
    g0 = build_lphvg(ts, 0)
    deg0 = g0.degrees().tolist()
    left_max = np.maximum.accumulate(np.concatenate(([-np.inf], x[:-1])))
    right_max = np.maximum.accumulate(np.concatenate(([-np.inf], x[:0:-1])))[::-1]
    bounded = np.flatnonzero((left_max > x) & (right_max > x))
    off_hvg = []
    for i in bounded:
        k, c = deg0[i], local_clustering(g0, i)
        if abs(c - clustering_min(0, k)) > 1e-12 or abs(c - clustering_max(0, k)) > 1e-12:
            off_hvg.append((int(i), k, c))
    assert bounded.size > 0.99 * (x.size - 2)
    assert not off_hvg, off_hvg[:5]

    # (c) i.i.d. coverage at rho = 1, 2 lies in the discriminator's calibrated band.
    covs = {}
    for rho in (1, 2):
        g = build_lphvg(uniform_series(3000, rho, base=600), rho)
        covs[rho] = coverage_reference(g)  # (fraction, interior, below, above)
        assert clustering_coverage(g) == covs[rho][0]
    out_of_band = {
        r: c[0] for r, c in covs.items()
        if not COVERAGE_BANDS[r][0] <= c[0] <= COVERAGE_BANDS[r][1]
    }
    elapsed = time.perf_counter() - t0
    report(
        "6",
        not out_of_band,
        "exact envelope values and both witnesses hold; "
        f"rho=0: C = 2/k at all {bounded.size} bounded nodes; coverage "
        + ", ".join(
            f"rho={r}: {c[0]:.4f} (below {c[2]}, above {c[3]}, "
            f"band {COVERAGE_BANDS[r]})"
            for r, c in covs.items()
        )
        + f" (for information: 0.99 would be needed for a pointwise bound); {elapsed:.1f}s",
    )
    assert not out_of_band, out_of_band


def test_criterion_07_long_distance_visibility():
    t0 = time.perf_counter()
    problems = []
    classic_note = []
    for rho in range(4):
        freqs = []
        for seed in range(100):
            ts = uniform_series(1000, seed, base=710 + rho)
            freqs.append(link_frequency_by_separation(build_lphvg(ts, rho), 30))
        freq = np.vstack(freqs)
        for sep in range(1, 31):
            col = freq[:, sep - 1]
            emp = float(col.mean())
            if sep <= rho + 1:
                if emp != 1.0:
                    problems.append(f"rho={rho} sep={sep}: band frequency {emp} != 1")
                continue
            se = float(col.std(ddof=1)) / math.sqrt(len(col))
            th = long_visibility_prob(rho, sep)
            if abs(emp - th) > 3 * se:
                problems.append(
                    f"rho={rho} sep={sep}: {emp:.5f} vs exact {th:.5f} (3se={3*se:.5f})"
                )
            classic = long_visibility_prob_classic(rho, sep)
            if abs(emp - classic) > 3 * se and not classic_note:
                classic_note.append(
                    f"classic form first deviates at rho={rho}, sep={sep}: "
                    f"emp {emp:.4f} vs {classic:.4f}"
                )
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    extra = f" [{classic_note[0]}]" if classic_note else ""
    report(
        "7",
        ok,
        f"rho 0..3, 100 series each: all separations within 3 se of the exact law"
        f"{extra}; {elapsed:.1f}s",
    )
    assert not problems, problems
    assert elapsed < 60.0


def test_criterion_08_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(800)
    for _ in range(200):
        n = int(rng.integers(2, 101))
        rho = int(rng.integers(0, 5))
        x = rng.random(n)
        fast = edge_set(build_lphvg(x, rho))
        naive = edge_set(build_lphvg_naive(x, rho))
        assert fast == naive, (n, rho)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    report("8", ok, f"200 instances (n<=100, rho<=4) edge-identical; {elapsed:.1f}s")
    assert elapsed < 5.0


def test_criterion_09_structural_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(900)
    instances = 0
    while instances < 500:
        n = int(rng.integers(2, 61))
        rho = int(rng.integers(0, 5))
        x = rng.random(n)
        g = build_lphvg(x, rho)
        # symmetry + sortedness
        rows = np.split(g.indices, g.indptr[1:-1])
        for i, nb in enumerate(rows):
            assert list(nb) == sorted(nb) and i not in nb
            for j in nb:
                assert i in rows[j]
        # near band present, hence connectivity
        edges = edge_set(g)
        for i in range(n - 1):
            assert (i, i + 1) in edges
            if i + rho + 1 < n:
                assert (i, i + rho + 1) in edges
        # monotonicity in rho
        assert edges <= edge_set(build_lphvg(x, rho + 1))
        # affine invariance
        shifted = affine_transform(TimeSeries(x), 3.7, -2.5)
        assert edge_set(build_lphvg(shifted, rho)) == edges
        # rho = 0 equals an independently coded HVG
        if rho == 0:
            assert edges == hvg_reference_edges(x)
        else:
            assert edge_set(build_lphvg(x, 0)) == hvg_reference_edges(x)
        instances += 1
    elapsed = time.perf_counter() - t0
    report("9", True, f"{instances} instances, all invariants exact; {elapsed:.1f}s")


def chaotic_series(name: str, seed: int, n: int = 3000) -> TimeSeries:
    g = RngConfig(1000, seed).generator(hashname(name))
    if name == "logistic":
        return gen_logistic(n, x0=0.05 + 0.9 * g.random())
    if name == "henon":
        return gen_henon(n, x0=-0.1 + 0.2 * g.random(), y0=-0.1 + 0.2 * g.random())
    if name == "lorenz":
        init = tuple(np.array([1.0, 1.0, 1.0]) + 0.2 * (g.random(3) - 0.5))
        return gen_flow(FlowSpec("lorenz", n, init=init))
    init = tuple(np.array([10.0, 20.0, 14.0]) * (1 + 0.02 * (g.random(3) - 0.5)))
    return gen_flow(FlowSpec("energy", n, init=init))


def hashname(name: str) -> int:
    return {"logistic": 1, "henon": 2, "lorenz": 3, "energy": 4}[name]


def test_criterion_10_discrimination():
    t0 = time.perf_counter()
    problems = []
    chaotic = ("logistic", "henon", "lorenz", "energy")
    iid = ("uniform", "gaussian", "powerlaw")
    for name in chaotic:
        for seed in range(5):
            ts = chaotic_series(name, seed)
            for rho in (1, 2):
                res = discriminate(ts, rho)
                if res.verdict != VERDICT_DEVIATING:
                    problems.append(
                        f"{name} rho={rho} seed={seed}: {res.verdict} "
                        f"(chi2/df={res.chi2_reduced:.2f}, cov={res.coverage:.4f})"
                    )
    for name in iid:
        for seed in range(5):
            ts = gen_iid(IidSpec(name, 3000, RngConfig(1100, seed * 10 + hash_iid(name))))
            for rho in (1, 2):
                res = discriminate(ts, rho)
                if res.verdict != VERDICT_IID:
                    problems.append(
                        f"{name} rho={rho} seed={seed}: {res.verdict} "
                        f"(chi2/df={res.chi2_reduced:.2f}, cov={res.coverage:.4f})"
                    )
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    report(
        "10",
        ok,
        f"4 chaotic + 3 iid systems, rho in (1,2), 5 seeds each: "
        f"{70 - len(problems)}/70 verdicts correct; {elapsed:.1f}s",
    )
    assert not problems, problems
    assert elapsed < 60.0


def hash_iid(name: str) -> int:
    return {"uniform": 1, "gaussian": 2, "powerlaw": 3}[name]


def test_criterion_11_evolution_pipeline(tmp_path):
    t0 = time.perf_counter()
    series_path = tmp_path / "series.csv"
    rc = cli_main(
        ["generate", "--family", "uniform", "--n", "8600", "--seed", "1100",
         "--out", str(series_path)]
    )
    assert rc == 0
    run1 = tmp_path / "run1"
    rc = cli_main(
        ["evolve", "--input", str(series_path), "--has-header", "--rho", "2",
         "--window-len", "500", "--step", "100", "--seed", "7",
         "--ensemble", "10", "--outdir", str(run1)]
    )
    assert rc == 0

    dist = np.loadtxt(run1 / "distances.csv", delimiter=",")
    rec = np.loadtxt(run1 / "recurrence.csv", delimiter=",", dtype=np.int64)
    metrics_rows = (run1 / "window_metrics.csv").read_text().splitlines()[1:]
    window_count = dist.shape[0]
    mean_degrees = [float(r.split(",")[3]) for r in metrics_rows]

    problems = []
    if window_count != 82:
        problems.append(f"window count {window_count} != 82")
    md_bad = [md for md in mean_degrees if abs(md - 12.0) / 12.0 >= 0.05]
    if md_bad:
        problems.append(f"{len(md_bad)} windows outside 5% of 12")
    if not np.array_equal(dist, dist.T) or np.any(np.diag(dist) != 0):
        problems.append("distance matrix not symmetric with zero diagonal")
    offdiag_density = (rec.sum() - window_count) / (window_count * (window_count - 1))
    if offdiag_density >= 0.05:
        problems.append(f"recurrence off-diagonal density {offdiag_density:.3f}")

    run2 = tmp_path / "run2"
    rc = cli_main(
        ["replay", "--manifest", str(run1 / "manifest.json"), "--outdir", str(run2)]
    )
    assert rc == 0
    for name in ("distances.csv", "gamma.csv", "recurrence.csv",
                 "window_metrics.csv", "theta.txt"):
        if (run1 / name).read_bytes() != (run2 / name).read_bytes():
            problems.append(f"replay differs in {name}")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 120.0
    md_span = (min(mean_degrees), max(mean_degrees))
    report(
        "11",
        ok,
        f"T={window_count}, window mean degree in [{md_span[0]:.2f}, {md_span[1]:.2f}], "
        f"recurrence density {offdiag_density:.4f}, replay byte-identical; {elapsed:.1f}s",
    )
    assert not problems, problems
    assert elapsed < 120.0
