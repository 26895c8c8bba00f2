import math

import numpy as np
import pytest

from lphvg import (
    clustering_max,
    clustering_min,
    clustering_pmf_max,
    clustering_pmf_min,
    decay_rate,
    degree_pmf,
    long_visibility_prob,
    long_visibility_prob_classic,
    mean_degree,
    mean_degree_periodic,
    mean_degree_periodic_exact,
)
from lphvg.theory import clustering_max_is_extrapolated, degree_table
from oracles import geometric_pmf_series_mean, lphvg_reference_edges


class TestDegreePmf:
    def test_known_values(self):
        assert degree_pmf(1, 4) == 1 / 5
        assert degree_pmf(1, 5) == 4 / 25
        assert degree_pmf(0, 2) == 1 / 3
        assert degree_pmf(2, 6) == pytest.approx(1 / 7)

    def test_out_of_support(self):
        assert degree_pmf(1, 3) == 0.0
        assert degree_pmf(2, 5) == 0.0

    @pytest.mark.parametrize("rho", range(6))
    def test_sums_to_one(self, rho):
        total = 0.0
        k = 2 * (rho + 1)
        while degree_pmf(rho, k) > 1e-14:
            total += degree_pmf(rho, k)
            k += 1
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rho", range(6))
    def test_mean_matches_closed_form(self, rho):
        assert geometric_pmf_series_mean(rho) == pytest.approx(
            mean_degree(rho), abs=1e-9
        )


class TestDecayRate:
    def test_values(self):
        assert decay_rate(0) == pytest.approx(math.log(3 / 2))
        assert decay_rate(1) == pytest.approx(math.log(5 / 4))
        assert decay_rate(2) == pytest.approx(math.log(7 / 6))

    def test_pmf_ratio_is_decay(self):
        for rho in range(4):
            k = 2 * (rho + 1) + 3
            ratio = degree_pmf(rho, k + 1) / degree_pmf(rho, k)
            assert math.log(1 / ratio) == pytest.approx(decay_rate(rho))


class TestMeanDegree:
    def test_infinite(self):
        assert mean_degree(0) == 4
        assert mean_degree(1) == 8
        assert mean_degree(2) == 12

    def test_periodic_values(self):
        assert mean_degree_periodic(1, 10) == pytest.approx(6.8)
        assert mean_degree_periodic(2, 100) == pytest.approx(11.7)

    def test_periodic_limit_is_infinite_value(self):
        assert mean_degree_periodic(0, 10**9) == pytest.approx(4.0, abs=1e-6)

    def test_periodic_monotone_in_period(self):
        vals = [mean_degree_periodic(1, T) for T in (10, 20, 50, 100, 1000)]
        assert vals == sorted(vals)
        assert vals[-1] < mean_degree(1)

    def test_periodic_domain(self):
        with pytest.raises(ValueError):
            mean_degree_periodic(2, 5)  # needs period > 2*rho+1


class TestMeanDegreePeriodicExact:
    def test_classic_form_at_rho0(self):
        for period in (2, 3, 10, 250):
            assert mean_degree_periodic_exact(0, period) == pytest.approx(
                mean_degree_periodic(0, period), rel=1e-15
            )

    def test_constant_series(self):
        for rho in range(6):
            assert mean_degree_periodic_exact(rho, 1) == 2 * (rho + 1)

    def test_divisor_sum_form(self):
        # D(4) = 1 + 2 + 2 + 3 = 8, so <k> = 16 - 16/T once T >= 4.
        assert mean_degree_periodic_exact(3, 8) == 14.0
        assert mean_degree_periodic_exact(3, 2) == 16.0 - (4 + 2)

    @pytest.mark.parametrize(
        "rho,period", [(0, 2), (1, 2), (1, 3), (2, 2), (2, 3), (2, 5), (3, 4), (2, 7)]
    )
    def test_matches_middle_period_degree(self, rho, period):
        # No link reaches past rho+1 periods, so the middle period of a
        # (2rho+3)-period tile carries the infinite series' degrees.
        values = np.random.default_rng(100 * rho + period).permutation(period)
        x = np.tile(values, 2 * rho + 3)
        middle = range((rho + 1) * period, (rho + 2) * period)
        degree_sum = sum(
            (i in middle) + (j in middle) for i, j in lphvg_reference_edges(x, rho)
        )
        assert degree_sum / period == pytest.approx(
            mean_degree_periodic_exact(rho, period), rel=1e-12
        )

    def test_rejects_empty_period(self):
        for period in (0, -3):
            with pytest.raises(ValueError):
                mean_degree_periodic_exact(1, period)


class TestClusteringEnvelope:
    def test_min_values_rho1(self):
        assert clustering_min(1, 4) == pytest.approx(5 / 6)
        assert clustering_min(1, 5) == pytest.approx(7 / 10)
        assert clustering_min(1, 6) == pytest.approx(3 / 5)

    def test_max_value_rho1(self):
        assert clustering_max(1, 6) == pytest.approx(11 / 15)

    def test_hvg_limit(self):
        for k in range(2, 20):
            assert clustering_min(0, k) == pytest.approx(2 / k)
            assert clustering_max(0, k) == pytest.approx(2 / k)

    def test_min_le_max_in_domain(self):
        for rho in (0, 1, 2):
            for k in range(2 * (2 * rho + 1), 60):
                lo = clustering_min(rho, k)
                hi = clustering_max(rho, k)
                assert lo <= hi <= 1.0

    def test_extrapolated_region(self):
        # below the stated max domain the value is min(1, formula)
        assert clustering_max_is_extrapolated(1, 5)
        assert not clustering_max_is_extrapolated(1, 6)
        assert clustering_max(1, 5) == pytest.approx(0.8)
        assert clustering_max(2, 6) == 1.0  # formula exceeds 1, capped

    def test_rho_scope(self):
        with pytest.raises(ValueError):
            clustering_min(3, 10)
        assert clustering_min(3, 10, unvalidated=True) > 0

    def test_k_domain(self):
        with pytest.raises(ValueError):
            clustering_min(1, 3)


class TestClusteringPmf:
    def test_inversion_examples(self):
        assert clustering_pmf_min(1, 5 / 6) == pytest.approx(1 / 5, abs=1e-9)
        assert clustering_pmf_min(1, 7 / 10) == pytest.approx(4 / 25, abs=1e-9)

    @pytest.mark.parametrize("rho", [0, 1, 2])
    def test_min_round_trip(self, rho):
        for k in range(2 * (rho + 1), 41):
            c = clustering_min(rho, k)
            assert clustering_pmf_min(rho, c) == pytest.approx(
                degree_pmf(rho, k), abs=1e-9
            )

    @pytest.mark.parametrize("rho", [0, 1, 2])
    def test_max_round_trip(self, rho):
        for k in range(2 * (2 * rho + 1), 41):
            c = clustering_max(rho, k)
            assert clustering_pmf_max(rho, c) == pytest.approx(
                degree_pmf(rho, k), abs=1e-9
            )

    def test_unattainable_rejected(self):
        with pytest.raises(ValueError, match="not attainable"):
            clustering_pmf_min(1, 0.77)
        with pytest.raises(ValueError):
            clustering_pmf_min(1, 0.0)


class TestLongVisibility:
    def test_pinned_values(self):
        assert long_visibility_prob(0, 2) == pytest.approx(1 / 3)
        assert long_visibility_prob(1, 3) == pytest.approx(1 / 2)
        assert long_visibility_prob(1, 2) == 1.0
        assert long_visibility_prob(2, 4) == pytest.approx(12 / 20)
        assert long_visibility_prob_classic(2, 4) == pytest.approx(14 / 20)

    def test_band_is_certain(self):
        for rho in range(5):
            for sep in range(1, rho + 2):
                assert long_visibility_prob(rho, sep) == 1.0

    def test_continuous_at_band_edge(self):
        # the closed form evaluates to exactly 1 at sep = rho+1
        for rho in range(5):
            sep = rho + 1
            assert (rho + 1) * (rho + 2) / (sep * (sep + 1)) == 1.0

    def test_hvg_form(self):
        for sep in range(1, 31):
            expected = 1.0 if sep == 1 else 2 / (sep * (sep + 1))
            assert long_visibility_prob(0, sep) == pytest.approx(expected)

    def test_classic_matches_exact_only_for_small_rho(self):
        for sep in range(2, 20):
            assert long_visibility_prob_classic(0, sep) == long_visibility_prob(0, sep)
            assert long_visibility_prob_classic(1, sep + 1) == long_visibility_prob(1, sep + 1)
        assert long_visibility_prob_classic(2, 5) > long_visibility_prob(2, 5)

    def test_exact_law_against_quadrature(self):
        # P = integral over m = min of endpoints of P(at most rho of s exceed m)
        from math import comb

        for rho in range(5):
            for sep in range(rho + 2, 12):
                s = sep - 1
                u = np.linspace(0, 1, 20001)
                dens = 2 * (1 - u)
                prob = np.zeros_like(u)
                for j in range(0, rho + 1):
                    prob += comb(s, j) * (1 - u) ** j * u ** (s - j)
                numeric = np.trapezoid(dens * prob, u)
                assert long_visibility_prob(rho, sep) == pytest.approx(
                    numeric, abs=1e-6
                )

    def test_sep_validation(self):
        with pytest.raises(ValueError):
            long_visibility_prob(0, 0)

    def test_clamped(self):
        assert long_visibility_prob_classic(5, 7) == 1.0


class TestTables:
    def test_degree_table_columns(self):
        rows = degree_table(1, 8)
        assert [r["k"] for r in rows] == [4, 5, 6, 7, 8]
        assert rows[0]["pmf"] == 1 / 5
        assert rows[0]["c_max_extrapolated"] is True
        assert rows[2]["c_max_extrapolated"] is False
