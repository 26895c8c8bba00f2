import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import linregress

from lphvg import (
    DegreeDistribution,
    RngConfig,
    build_lphvg,
    clustering_coverage,
    degree_distribution,
    degree_law_chi2,
    degree_pmf,
    discriminate,
    finite_size_report,
    fit_tail,
    gen_iid,
    gen_logistic,
    link_frequency_by_separation,
    local_clustering,
    mean_clustering,
    mean_degree_empirical,
    mean_path_length,
)
from lphvg.generators import IidSpec
from lphvg.graph import VisibilityGraph
from lphvg.metrics import (
    DEGREE_CHI2_THRESHOLD,
    PATH_PROBE_DEPTH,
    VERDICT_DEVIATING,
    _bfs_distance_sum,
    _clustering,
    _linear_fit,
    _shortest_paths,
    _triangles,
    VERDICT_IID,
    InsufficientBinsError,
    interior_nodes,
)
from oracles import (
    coverage_reference,
    lphvg_reference_edges,
    path_length_reference,
    sourced_path_length_reference,
    triangle_reference,
)
from shapes import monotone_values, plateau_values, rhos, sawtooth_values, series_values


def path_graph(n):
    return build_lphvg(list(range(1, n + 1)), 0)


def k4():
    return build_lphvg([3, 1, 2, 4], 1)


def hub_series(n):
    """One huge value, then an increasing run: node 0 links to every node."""
    return np.r_[1e9, np.arange(1, n, dtype=float)]


class TestDegreeDistribution:
    def test_path5(self):
        dist = degree_distribution(path_graph(5))
        assert dist.counts == {1: 2, 2: 3}

    def test_k4(self):
        dist = degree_distribution(k4())
        assert dist.counts == {3: 4}

    def test_pmf_sums_to_one(self):
        g = build_lphvg(np.random.default_rng(0).random(500), 1)
        dist = degree_distribution(g)
        assert sum(dist.pmf(k) for k in dist.counts) == pytest.approx(1.0)

    def test_count_consistency_enforced(self):
        with pytest.raises(ValueError):
            DegreeDistribution({2: 3}, 5)

    def test_empirical_mean_degree_near_theory(self):
        ts = gen_iid(IidSpec("uniform", 3000, RngConfig(17)))
        g = build_lphvg(ts, 1)
        assert mean_degree_empirical(g) == pytest.approx(8.0, rel=0.05)

    def test_short_series_mean_degree_below_asymptote(self):
        # n=500, rho=2: boundary truncation keeps the mean just under 12
        ts = gen_iid(IidSpec("uniform", 500, RngConfig(18)))
        md = mean_degree_empirical(build_lphvg(ts, 2))
        assert 0.95 * 12 < md < 12


class TestClustering:
    def test_k4_all_ones(self):
        g = k4()
        assert all(local_clustering(g, i) == 1.0 for i in range(4))

    def test_path_interior_zero(self):
        g = path_graph(5)
        assert local_clustering(g, 2) == 0.0
        assert local_clustering(g, 0) == 0.0  # degree 1

    def test_mean_clustering_triangle_band(self):
        # increasing series, rho=1: band graph where interior C = 0.5
        g = build_lphvg(list(range(20)), 1)
        assert local_clustering(g, 10) == pytest.approx(0.5)
        assert 0 < mean_clustering(g) < 1

    @pytest.mark.parametrize("rho", [0, 1, 3])
    def test_local_matches_whole_graph_vector(self, rho):
        x = np.random.default_rng(rho).integers(0, 6, 400).astype(float)  # ties too
        g = build_lphvg(x, rho)
        local = [local_clustering(g, i) for i in range(g.n)]
        assert local == _clustering(g)
        assert mean_clustering(g) == sum(local) / g.n

    @staticmethod
    def assert_matches_oracle(x, rho):
        g = build_lphvg(x, rho)
        tri = triangle_reference(x, rho)
        k = [0] * g.n
        for i, j in lphvg_reference_edges(x, rho):
            k[i] += 1
            k[j] += 1
        assert _triangles(g).tolist() == tri
        assert _clustering(g) == [2 * t / (d * (d - 1)) if d > 1 else 0.0 for t, d in zip(tri, k)]

    @pytest.mark.parametrize(
        "values", [monotone_values, plateau_values, sawtooth_values],
        ids=["monotone", "plateau", "sawtooth"],
    )
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rho=rhos)
    def test_matches_triangle_oracle(self, values, data, rho):
        self.assert_matches_oracle(np.asarray(data.draw(values)), rho)

    @pytest.mark.parametrize("rho", [0, 1, 2, 3])
    def test_hub_and_iid_match_triangle_oracle(self, rho):
        self.assert_matches_oracle(hub_series(90), rho)
        # linked pairs more than 64 apart are looked up in edge_codes, not the bit map
        self.assert_matches_oracle(np.random.default_rng(rho).random(150), rho)

    def test_hub_clustering_is_not_quadratic(self):
        g = build_lphvg(hub_series(20000), 1)
        t0 = time.perf_counter()
        c = mean_clustering(g)
        assert time.perf_counter() - t0 < 1.0  # the sparse product (A·A)∘A took about 12 s
        assert 0 < c < 1


class TestPathLength:
    def test_path5(self):
        g = path_graph(5)
        assert mean_path_length(g) == pytest.approx(2.0)
        assert mean_degree_empirical(g) == pytest.approx(1.6)

    def test_k4(self):
        assert mean_path_length(k4()) == pytest.approx(1.0)

    def test_sampled_matches_exact_roughly(self):
        g = build_lphvg(np.random.default_rng(1).random(400), 1)
        exact = mean_path_length(g)
        sampled = mean_path_length(g, sample_pairs=4000, seed=3)
        assert sampled == pytest.approx(exact, rel=0.05)

    def test_sample_pairs_validation(self):
        with pytest.raises(ValueError):
            mean_path_length(path_graph(5), sample_pairs=0)

    @pytest.mark.parametrize(
        "values, deep",
        [
            (np.random.default_rng(65).random(65), False),
            (np.random.default_rng(700).random(700), False),
            (np.random.default_rng(2000).random(2000), False),
            (np.arange(2000, 0, -1, dtype=float), True),
        ],
        ids=["iid65", "iid700", "iid2000", "decreasing2000"],
    )
    def test_matches_scipy(self, values, deep):
        g = build_lphvg(values, 1)
        probe = _bfs_distance_sum(g, np.arange(64), PATH_PROBE_DEPTH)
        assert (probe is None) is deep  # probe's choice
        assert mean_path_length(g) == path_length_reference(g)

    def test_unreachable_pairs_give_inf(self):
        def graph(indptr, indices):
            return VisibilityGraph(4, 0, np.array(indptr), np.array(indices, dtype=np.int32))

        isolated = graph([0, 1, 3, 4, 4], [1, 0, 2, 1])  # path 0-1-2, node 3 alone
        assert mean_path_length(isolated) == math.inf
        assert path_length_reference(isolated) == math.inf
        two_parts = graph([0, 1, 2, 3, 4], [1, 0, 3, 2])  # edges (0, 1) and (2, 3)
        assert mean_path_length(two_parts) == math.inf

    def test_large_graph_samples_automatically(self):
        # path graph on n nodes has exact mean distance (n+1)/3
        n = 2100
        g = path_graph(n)
        est = mean_path_length(g, seed=11)
        assert est == pytest.approx((n + 1) / 3, rel=0.03)

    @pytest.mark.parametrize(
        "values",
        [np.random.default_rng(4).random(400), np.arange(400, 0, -1, dtype=float)],
        ids=["iid400", "decreasing400"],  # the probe keeps the first, sends the second to scipy
    )
    def test_one_word_of_seeded_sources_matches_scipy(self, values):
        n = values.size
        g = build_lphvg(values, 1)
        sources = np.sort(np.random.default_rng(7).permutation(n)[:64])  # one word
        assert mean_path_length(g, sample_pairs=1, seed=7) == sourced_path_length_reference(
            g, sources
        )

    def test_sources_cover_sample_pairs_in_whole_words(self):
        n = 1000
        g = build_lphvg(np.random.default_rng(5).random(n), 2)
        for words in (1, 2, 3):
            sources = np.sort(np.random.default_rng(1).permutation(n)[: 64 * words])
            expect = sourced_path_length_reference(g, sources)
            for pairs in (64 * (words - 1) * (n - 1) + 1, 64 * words * (n - 1)):
                assert mean_path_length(g, sample_pairs=pairs, seed=1) == expect

    @pytest.mark.parametrize("extra", [0, 1, 12345])
    def test_all_ordered_pairs_give_the_exact_value(self, extra):
        for values, rho in [
            (np.random.default_rng(3).random(300), 1),
            (np.arange(150, 0, -1, dtype=float), 0),  # deep: scipy
        ]:
            g = build_lphvg(values, rho)
            exact = mean_path_length(g, sample_pairs=g.n * (g.n - 1) + extra, seed=5)
            assert exact == mean_path_length(g) == path_length_reference(g)

    def test_bfs_and_scipy_sum_agree_on_sampled_sources(self):
        n = 3000
        g = build_lphvg(np.random.default_rng(8).random(n), 2)
        sources = np.sort(np.random.default_rng(2).permutation(n)[:192])
        total = _bfs_distance_sum(g, sources, n)
        assert _bfs_distance_sum(g, sources[:64], PATH_PROBE_DEPTH) is not None  # shallow
        assert total == _shortest_paths(g, sources).sum()

    def test_sampled_estimate_is_cheap(self):
        g = build_lphvg(np.random.default_rng(0).random(20000), 1)
        t0 = time.perf_counter()
        est = mean_path_length(g)
        assert time.perf_counter() - t0 < 2.0  # Dijkstra per sampled pair's source: ~41 s
        assert 5 < est < 15


def exact_theory_distribution(rho=1, k_lo=4, k_hi=20):
    """Integer counts exactly proportional to the closed-form law on
    k_lo..k_hi, remainder parked below the support (boundary-like bin)."""
    base = 2 * rho + 2  # 4
    top = 2 * rho + 3  # 5
    n = top ** (k_hi - k_lo + 1)
    counts = {
        k: base ** (k - k_lo) * top ** (k_hi - k) for k in range(k_lo, k_hi + 1)
    }
    counts[k_lo - 1] = n - sum(counts.values())
    return DegreeDistribution(counts, n)


class TestFiniteSize:
    def test_exact_distribution_zero_errors(self):
        dist = exact_theory_distribution()
        rep = finite_size_report(dist, 1)
        assert rep.k0 == 21  # first unsupported bin
        assert all(e == 0.0 for _, e in rep.per_k)
        assert rep.me == 0.0
        assert rep.me_sum == 0.0

    def test_single_bin_error_value(self):
        # P_num(4)=0.25 against theory 0.2 -> E(4)=0.25
        counts = {4: 250, 5: 750}
        rep = finite_size_report(DegreeDistribution(counts, 1000), 1)
        assert rep.error(4) == pytest.approx(0.25)

    def test_cutoff_with_zero_count_gap(self):
        counts = {4: 200, 5: 160, 7: 150}
        rep = finite_size_report(DegreeDistribution(counts, 510), 1)
        assert rep.k0 == 6

    def test_me_distribution_independence(self):
        # equal length and seed count: family MEs agree within 2x the
        # across-seed spread
        per_family = {}
        for family in ("uniform", "gaussian", "powerlaw"):
            mes = []
            for seed in range(5):
                ts = gen_iid(IidSpec(family, 2000, RngConfig(19, seed)))
                rep = finite_size_report(degree_distribution(build_lphvg(ts, 1)), 1)
                mes.append(rep.me)
            per_family[family] = (np.mean(mes), np.std(mes, ddof=1))
        families = list(per_family)
        for i in range(len(families)):
            for j in range(i + 1, len(families)):
                m1, s1 = per_family[families[i]]
                m2, s2 = per_family[families[j]]
                assert abs(m1 - m2) <= 2 * max(s1, s2)

    def test_me_trend_small(self):
        # two sizes, 3 seeds: ensemble ME decreases, k0 does not decrease
        mes = []
        k0s = []
        for n in (500, 4000):
            per_seed = []
            per_k0 = []
            for seed in range(3):
                ts = gen_iid(IidSpec("uniform", n, RngConfig(23, seed)))
                rep = finite_size_report(degree_distribution(build_lphvg(ts, 1)), 1)
                per_seed.append(rep.me)
                per_k0.append(rep.k0)
            mes.append(np.mean(per_seed))
            k0s.append(np.mean(per_k0))
        assert mes[1] < mes[0]
        assert k0s[1] >= k0s[0]


class TestFitTail:
    def test_exact_geometric_recovery(self):
        # counts 4^(k-4) * 5^(10-k): ln pmf is exactly linear with slope -ln(5/4)
        counts = {k: 4 ** (k - 4) * 5 ** (10 - k) for k in range(4, 11)}
        dist = DegreeDistribution(counts, sum(counts.values()))
        fit = fit_tail(dist, 1)
        assert fit.lambda_hat == pytest.approx(math.log(5 / 4), abs=1e-9)
        assert fit.stderr == pytest.approx(0.0, abs=1e-9)
        assert fit.r2 == pytest.approx(1.0)
        assert fit.k_range == (4, 10)

    def test_uniform_series_recovers_decay(self):
        ts = gen_iid(IidSpec("uniform", 3000, RngConfig(29)))
        fit = fit_tail(degree_distribution(build_lphvg(ts, 1)), 1)
        assert abs(fit.lambda_hat - math.log(5 / 4)) <= 3 * fit.stderr

    def test_logistic_series_deviates(self):
        g = build_lphvg(gen_logistic(3000, x0=0.3), 1)
        fit = fit_tail(degree_distribution(g), 1)
        dist = degree_distribution(g)
        chi2, df = degree_law_chi2(dist, 1)
        assert chi2 / df > 3.0  # the slope alone can look iid; the law does not

    def test_insufficient_bins(self):
        counts = {4: 100, 5: 50}
        with pytest.raises(InsufficientBinsError):
            fit_tail(DegreeDistribution(counts, 150), 1)

    def test_linear_fit_is_linregress_bit_for_bit(self):
        def same(a, b):
            return np.float64(a).tobytes() == np.float64(b).tobytes()

        rng = np.random.default_rng(8)
        cases = [([4, 5, 6, 7], [math.log(0.25)] * 4)]  # flat pmf: r is NaN
        cases.append((list(range(4, 11)), [-0.2 * k for k in range(4, 11)]))
        for _ in range(200):
            ks = sorted(rng.choice(60, int(rng.integers(4, 25)), replace=False).tolist())
            cases.append((ks, (rng.normal(size=len(ks)) - 0.3 * np.array(ks)).tolist()))
        for ks, y in cases:
            ref = linregress(ks, y)
            slope, stderr, r = _linear_fit(ks, y)
            assert same(slope, ref.slope) and same(stderr, ref.stderr) and same(r, ref.rvalue)

    def test_explicit_k_hi(self):
        counts = {k: 4 ** (k - 4) * 5 ** (10 - k) for k in range(4, 11)}
        dist = DegreeDistribution(counts, sum(counts.values()))
        fit = fit_tail(dist, 1, k_hi=8)
        assert fit.k_range == (4, 8)


class TestChi2:
    def test_exact_distribution_is_tiny(self):
        # counts exactly proportional to the law up to k=40; stop the scan
        # there (beyond it the construction has no mass by design)
        dist = exact_theory_distribution(k_hi=40)
        floor = dist.n * degree_pmf(1, 41) * 1.000001
        chi2, df = degree_law_chi2(dist, 1, min_expected=floor)
        assert df > 10
        assert chi2 / df < 1e-6  # pure float rounding at n ~ 7e25

    def test_uniform_series_near_one(self):
        ts = gen_iid(IidSpec("uniform", 3000, RngConfig(31)))
        dist = degree_distribution(build_lphvg(ts, 1))
        chi2, df = degree_law_chi2(dist, 1)
        assert chi2 / df < 2.5


class TestCoverage:
    def test_interior_definition(self):
        g = build_lphvg(np.random.default_rng(2).random(50), 2)
        assert list(interior_nodes(g)) == list(range(3, 47))

    def test_uniform_coverage_band(self):
        ts = gen_iid(IidSpec("uniform", 3000, RngConfig(37)))
        for rho, lo, hi in ((1, 0.76, 0.835), (2, 0.955, 0.9845)):
            cov = clustering_coverage(build_lphvg(ts, rho))
            assert lo <= cov.fraction <= hi
            assert cov.interior_count == 3000 - 2 * (rho + 1)

    def test_counts_add_up(self):
        cov = clustering_coverage(build_lphvg(np.random.default_rng(3).random(500), 1))
        inside = cov.interior_count - cov.below_min - cov.above_max
        assert inside / cov.interior_count == pytest.approx(cov.fraction)

    @staticmethod
    def assert_matches_reference(x, rho):
        g = build_lphvg(x, rho)
        if g.n <= 2 * (rho + 1):
            with pytest.raises(ValueError, match="no interior nodes"):
                coverage_reference(g)
            with pytest.raises(ValueError, match="no interior nodes"):
                clustering_coverage(g)
            return
        cov = clustering_coverage(g)
        got = (cov.fraction, cov.interior_count, cov.below_min, cov.above_max)
        assert got == coverage_reference(g)

    @pytest.mark.parametrize(
        "values", [series_values, monotone_values, plateau_values, sawtooth_values],
        ids=["random", "monotone", "plateau", "sawtooth"],
    )
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rho=rhos)
    def test_matches_per_node_reference(self, values, data, rho):
        # rho 3 and 4 evaluate the envelope outside its stated scope
        self.assert_matches_reference(np.asarray(data.draw(values)), rho)

    @pytest.mark.parametrize("rho", range(5))
    def test_iid_matches_per_node_reference(self, rho):
        self.assert_matches_reference(np.random.default_rng(rho).random(400), rho)

    @pytest.mark.parametrize("rho", range(5))
    def test_tiny_graph_has_no_interior(self, rho):
        for n in range(2, 2 * (rho + 1) + 1):
            self.assert_matches_reference(np.random.default_rng(n).random(n), rho)


class TestLinkFrequency:
    def test_band_is_certain(self):
        g = build_lphvg(np.random.default_rng(5).random(400), 2)
        freq = link_frequency_by_separation(g, 10)
        assert freq[0] == 1.0 and freq[1] == 1.0 and freq[2] == 1.0
        assert freq[3] < 1.0

    def test_matches_edge_count(self):
        g = build_lphvg(np.random.default_rng(6).random(100), 0)
        freq = link_frequency_by_separation(g, 99)
        total = sum(freq[d - 1] * (100 - d) for d in range(1, 100))
        assert total == pytest.approx(g.edge_count)

    @pytest.mark.parametrize("max_sep", [0, 3, 4, 30])
    def test_separation_must_be_below_n(self, max_sep):
        g = build_lphvg([0.2, 0.9, 0.1], 0)
        with pytest.raises(ValueError, match="max_sep"):
            link_frequency_by_separation(g, max_sep)
        assert link_frequency_by_separation(g, 2).tolist() == [1.0, 0.0]


class TestDiscriminate:
    def test_uniform_is_consistent(self):
        ts = gen_iid(IidSpec("uniform", 3000, RngConfig(41)))
        res = discriminate(ts, 1)
        assert res.verdict == VERDICT_IID
        assert res.coverage_in_band is True
        assert res.chi2_reduced < 3.0

    def test_logistic_deviates(self):
        res = discriminate(gen_logistic(3000, x0=0.3), 1)
        assert res.verdict == VERDICT_DEVIATING

    def test_plain_hvg_discrimination(self):
        # rho=0 still separates: map series fail the degree law outright
        ts = gen_iid(IidSpec("uniform", 3000, RngConfig(55)))
        assert discriminate(ts, 0).verdict == VERDICT_IID
        res = discriminate(gen_logistic(3000, x0=0.3), 0)
        assert res.verdict == VERDICT_DEVIATING
        assert res.chi2_reduced > 10

    def test_short_series_warns_but_runs(self):
        ts = gen_iid(IidSpec("uniform", 400, RngConfig(43)))
        with pytest.warns(UserWarning, match="soft floor"):
            res = discriminate(ts, 1)
        assert res.verdict in (VERDICT_IID, VERDICT_DEVIATING)

    @pytest.mark.parametrize(
        "values, fitted",
        [
            (np.ones(3000), False),
            (np.tile([0.0, 1.0], 1500), False),
            (np.random.default_rng(5).integers(0, 2, 3000).astype(float), True),
            (np.round(np.random.default_rng(6).random(3000), 1), True),
        ],
        ids=["constant", "alternating", "two-level", "rounded"],
    )
    def test_degenerate_series_get_an_answer(self, values, fitted):
        if not fitted:
            with pytest.raises(InsufficientBinsError):
                fit_tail(degree_distribution(build_lphvg(values, 1)), 1)
        res = discriminate(values, 1)
        assert res.verdict == VERDICT_DEVIATING
        assert res.chi2_reduced > DEGREE_CHI2_THRESHOLD
        assert math.isnan(res.lambda_hat) is not fitted
        assert math.isnan(res.lambda_stderr) is not fitted
        assert math.isnan(res.fit_r2) is not fitted
        assert fitted or not res.lambda_consistent

    def test_record_is_json_ready(self):
        import json

        ts = gen_iid(IidSpec("uniform", 600, RngConfig(47)))
        res = discriminate(ts, 1)
        payload = json.dumps(res.to_dict())
        assert "verdict" in payload
