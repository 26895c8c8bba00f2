import re

import numpy as np
import pytest

from lphvg import (
    FlowSpec,
    IidSpec,
    RngConfig,
    build_lphvg,
    gen_flow,
    gen_henon,
    gen_iid,
    gen_logistic,
    gen_periodic,
    mean_degree_empirical,
    mean_degree_periodic,
)
from lphvg.generators import (
    DivergenceError,
    energy_deriv,
    lorenz_deriv,
    ENERGY_PARAMS,
    LORENZ_PARAMS,
    rk4_step,
)


class TestIid:
    def test_uniform_support_and_mean(self):
        ts = gen_iid(IidSpec("uniform", 3000, RngConfig(7)))
        assert len(ts) == 3000
        assert np.all((ts.values > 0) & (ts.values < 1))
        assert abs(ts.values.mean() - 0.5) < 0.02

    def test_powerlaw_support(self):
        ts = gen_iid(IidSpec("powerlaw", 3000, RngConfig(7), alpha=2.5, xmin=1.0))
        assert np.all(ts.values >= 1.0)

    def test_gaussian_params(self):
        ts = gen_iid(IidSpec("gaussian", 5000, RngConfig(1), mean=3.0, sd=0.5))
        assert abs(ts.values.mean() - 3.0) < 0.05
        assert abs(ts.values.std() - 0.5) < 0.05

    def test_determinism(self):
        a = gen_iid(IidSpec("uniform", 100, RngConfig(9, 2)))
        b = gen_iid(IidSpec("uniform", 100, RngConfig(9, 2)))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(family="powerlaw", alpha=0.5),
            dict(family="powerlaw", xmin=0.0),
            dict(family="gaussian", sd=0.0),
            dict(family="nope"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            IidSpec(n=100, rng=RngConfig(0), **kwargs)


class TestPeriodic:
    def test_tiling(self):
        ts = gen_periodic(4, 8, RngConfig(3))
        assert np.array_equal(ts.values[:4], ts.values[4:])

    def test_truncated_tail(self):
        ts = gen_periodic(4, 10, RngConfig(3))
        assert len(ts) == 10
        assert np.array_equal(ts.values[8:], ts.values[:2])

    def test_distinct_within_period(self):
        ts = gen_periodic(50, 50, RngConfig(5))
        assert np.unique(ts.values).size == 50

    def test_period_equals_n_is_iid_draw(self):
        ts = gen_periodic(64, 64, RngConfig(11))
        assert np.unique(ts.values).size == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_periodic(1, 10, RngConfig(0))
        with pytest.raises(ValueError):
            gen_periodic(20, 10, RngConfig(0))

    def test_mean_degree_tracks_closed_form_small_rho(self):
        # period 50 over 1000 samples, rho=1: within 2% of 8*(1 - 3/100)
        ts = gen_periodic(50, 1000, RngConfig(21))
        md = mean_degree_empirical(build_lphvg(ts, 1))
        expected = mean_degree_periodic(1, 50)
        assert abs(md - expected) / expected < 0.02

    def test_small_period_overshoots_closed_form(self):
        # the closed form misses edges freed by deleting minima; at T=10 the
        # gap is ~9% and always positive (see README on its rho<<T domain)
        ts = gen_periodic(10, 2000, RngConfig(4))
        md = mean_degree_empirical(build_lphvg(ts, 1))
        expected = mean_degree_periodic(1, 10)
        assert expected == pytest.approx(6.8)
        assert expected < md < 1.15 * expected


class TestLogistic:
    def test_first_iterate(self):
        ts = gen_logistic(3, x0=0.3)
        assert ts.values[0] == pytest.approx(0.3)
        assert ts.values[1] == pytest.approx(0.84, rel=1e-12)

    def test_degenerate_orbit_documented(self):
        # x0=0.5 falls onto 1 -> 0 -> 0 ...; accepted, not an error
        ts = gen_logistic(5, x0=0.5)
        assert list(ts.values[1:3]) == [1.0, 0.0]

    def test_invariant_interval(self):
        ts = gen_logistic(3000, x0=0.123)
        assert np.all((ts.values >= 0) & (ts.values <= 1))

    def test_x0_validation(self):
        with pytest.raises(ValueError):
            gen_logistic(10, x0=0.0)
        with pytest.raises(ValueError):
            gen_logistic(10, x0=1.5)

    @pytest.mark.parametrize("mu", [0.0, -1.0, 4.0000001, 5.0, float("nan")])
    def test_mu_validation(self, mu):
        # outside (0, 4] the orbit leaves [0, 1] and runs off to -inf
        with pytest.raises(ValueError, match=r"mu must lie in \(0, 4\]"):
            gen_logistic(10, x0=0.3, mu=mu)


class TestHenon:
    def test_two_step_hand_iteration(self):
        ts = gen_henon(3, x0=0.0, y0=0.0)
        assert ts.values[0] == 0.0
        assert ts.values[1] == pytest.approx(1.0)
        assert ts.values[2] == pytest.approx(-0.4, rel=1e-12)

    def test_bounded_default_orbit(self):
        ts = gen_henon(3000)
        assert np.max(np.abs(ts.values)) < 2.0

    def test_divergence_aborts(self):
        with pytest.raises(DivergenceError, match="step"):
            gen_henon(100, x0=10.0, y0=0.0)


class TestFlows:
    def test_lorenz_zero_state_is_fixed_point(self):
        d = lorenz_deriv(np.zeros(3), LORENZ_PARAMS)
        assert np.array_equal(d, np.zeros(3))
        with pytest.raises(ValueError, match="fixed point"):
            FlowSpec("lorenz", 100, init=(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(system="nope"), "system must be one of ('lorenz', 'energy'), got 'nope'"),
        (dict(n=1), "n must be >= 2, got 1"),
        (dict(dt=0.0), "dt must be > 0, got 0.0"),
        (dict(transient=-1), "transient must be >= 0, got -1"),
        (dict(stride=0), "stride must be >= 1, got 0"),
        (dict(component=3), "component must be 0, 1 or 2, got 3"),
        (dict(init=(1.0, 2.0)), "init must have exactly 3 components"),
    ], ids=["system", "n", "dt", "transient", "stride", "component", "init"])
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FlowSpec(**{"system": "lorenz", "n": 100, **kwargs})

    def test_divergence_aborts(self):
        # raised with no RuntimeWarning first, which the suite's filter would turn into an error
        with pytest.raises(DivergenceError, match="non-finite at step"):
            gen_flow(FlowSpec("lorenz", n=5, dt=1.0, transient=200))

    def test_lorenz_bounded(self):
        ts = gen_flow(FlowSpec("lorenz", 3000))
        assert np.max(np.abs(ts.values)) < 25.0

    def test_energy_bounded_aperiodic(self):
        ts = gen_flow(FlowSpec("energy", 3000))
        v = ts.values
        assert np.all(np.isfinite(v))
        assert v.std() > 1.0
        assert v[-500:].std() > 1.0  # not settling to a fixed point

    @staticmethod
    def _halving_error(dt: float) -> float:
        coarse = np.array([1.0, 1.0, 1.0])
        for _ in range(10):
            coarse = rk4_step(lorenz_deriv, coarse, dt, LORENZ_PARAMS)
        fine = np.array([1.0, 1.0, 1.0])
        for _ in range(20):
            fine = rk4_step(lorenz_deriv, fine, dt / 2, LORENZ_PARAMS)
        return float(np.max(np.abs(coarse - fine)))

    def test_integrator_fourth_order(self):
        # fixed 10-step windows: horizon shrinks with dt, so the dt-vs-dt/2
        # defect scales ~dt^5 (ratio -> 32); a 3rd-order scheme would give 16
        e1 = self._halving_error(0.01)
        e2 = self._halving_error(0.005)
        assert 20.0 < e1 / e2 < 40.0
        assert self._halving_error(0.001) < 1e-8

    def test_transient_and_stride(self):
        base = gen_flow(FlowSpec("lorenz", 10, transient=0, stride=1))
        strided = gen_flow(FlowSpec("lorenz", 5, transient=0, stride=2))
        assert np.allclose(strided.values, base.values[::2])
        shifted = gen_flow(FlowSpec("lorenz", 5, transient=3, stride=1))
        assert np.allclose(shifted.values, base.values[3:8])

    def test_component_selection(self):
        x = gen_flow(FlowSpec("lorenz", 50, transient=100, component=0))
        z = gen_flow(FlowSpec("lorenz", 50, transient=100, component=2))
        assert not np.allclose(x.values, z.values)

    def test_energy_derivative_form(self):
        p = ENERGY_PARAMS
        s = np.array([2.0, 3.0, 4.0])
        d = energy_deriv(s, p)
        assert d[0] == pytest.approx(p["a1"] * 2 + p["a2"] * (p["C"] - 3) + p["a3"] * (4 - p["K1"]))
        assert d[1] == pytest.approx(-p["b1"] * 3 + p["b2"] * 2 - p["b3"] * 4 * (1 - 4 / p["K2"]))
        assert d[2] == pytest.approx(p["c1"] * 4 * (1 - 4 / p["L"]) + p["c2"] * 3 * 4)
