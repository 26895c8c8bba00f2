"""Seeded generators for every test signal: i.i.d. draws, periodic series,
chaotic maps, and chaotic flows via fixed-step 4th-order integration."""
from __future__ import annotations

import numpy as np

from .series import Record, RngConfig, TimeSeries, validate_int

IID_FAMILIES = ("uniform", "gaussian", "powerlaw")
FLOW_SYSTEMS = ("lorenz", "energy")


class DivergenceError(RuntimeError):
    """Raised when an iterated map or flow leaves the finite range."""


class IidSpec(Record):
    """Specification of an i.i.d. draw: family, parameters, length, stream."""

    family: str
    n: int
    rng: RngConfig
    mean: float = 0.0
    sd: float = 1.0
    alpha: float = 2.5
    xmin: float = 1.0

    def __post_init__(self):
        if self.family not in IID_FAMILIES:
            raise ValueError(f"family must be one of {IID_FAMILIES}, got {self.family!r}")
        validate_int("n", self.n, 2)
        if self.family == "gaussian" and not self.sd > 0:
            raise ValueError(f"sd must be > 0, got {self.sd}")
        if self.family == "powerlaw":
            if not self.alpha > 1:
                raise ValueError(f"alpha must be > 1, got {self.alpha}")
            if not self.xmin > 0:
                raise ValueError(f"xmin must be > 0, got {self.xmin}")


def gen_iid(spec: IidSpec) -> TimeSeries:
    rng = spec.rng.generator()
    if spec.family == "uniform":
        vals = rng.random(spec.n)
        # keep the support open: redraw the (measure-zero) exact zeros
        while np.any(vals == 0.0):
            vals[vals == 0.0] = rng.random(int(np.count_nonzero(vals == 0.0)))
    elif spec.family == "gaussian":
        vals = rng.normal(spec.mean, spec.sd, spec.n)
    else:
        vals = (rng.pareto(spec.alpha, spec.n) + 1.0) * spec.xmin
    return TimeSeries(vals)


def gen_periodic(period: int, n: int, rng: RngConfig) -> TimeSeries:
    """Tile one period of `period` distinct uniform draws out to length n."""
    if not validate_int("n", n) >= validate_int("period", period) >= 2:
        raise ValueError(f"need 2 <= period <= n, got period={period}, n={n}")
    g = rng.generator()
    base = g.random(period)
    while np.unique(base).size != period:  # exact float collision: redraw
        base = g.random(period)
    reps = -(-n // period)
    return TimeSeries(np.tile(base, reps)[:n])


def gen_logistic(n: int, x0: float = 0.3, mu: float = 4.0) -> TimeSeries:
    """Iterate x_{t+1} = mu*x_t*(1-x_t) from x0 in (0,1); no transient discarded.

    mu must lie in (0, 4], where the map keeps (0, 1) inside [0, 1].

    x0 = 0.5 lands on the unstable fixed point chain 0.5 -> 1 -> 0 at mu=4
    and yields a degenerate constant tail; it is accepted but not useful.
    """
    if not 0 < x0 < 1:
        raise ValueError(f"x0 must lie in (0, 1), got {x0}")
    if not 0 < mu <= 4:
        raise ValueError(f"mu must lie in (0, 4], got {mu}")
    validate_int("n", n, 2)
    out = np.empty(n)
    x = float(x0)
    for t in range(n):
        out[t] = x
        x = mu * x * (1.0 - x)
    return TimeSeries(out)


def gen_henon(n: int, x0: float = 0.0, y0: float = 0.0) -> TimeSeries:
    """Record the x-coordinate of x_{t+1} = 1 + y_t - 1.4 x_t^2, y_{t+1} = 0.3 x_t."""
    validate_int("n", n, 2)
    out = np.empty(n)
    x, y = float(x0), float(y0)
    for t in range(n):
        out[t] = x
        x, y = 1.0 + y - 1.4 * x * x, 0.3 * x
        if abs(x) > 1e10:
            raise DivergenceError(f"orbit diverged at step {t + 1} (|x| > 1e10)")
    return TimeSeries(out)


LORENZ_PARAMS = {"a": 10.0, "b": 8.0 / 3.0, "c": 28.0}
ENERGY_PARAMS = {
    "a1": 0.3, "C": 27.0, "a2": 0.5563, "a3": 0.15,
    "b1": 0.4, "b2": 0.6073, "b3": 0.3,
    "K1": 15.0, "K2": 15.0, "c1": 0.3, "c2": 0.006, "L": 19.0,
}
FLOW_DEFAULT_INIT = {"lorenz": (1.0, 1.0, 1.0), "energy": (10.0, 20.0, 14.0)}


class FlowSpec(Record):
    """Fixed-step integration spec for a three-dimensional flow."""

    system: str
    n: int
    init: tuple[float, float, float] | None = None
    dt: float = 0.01
    transient: int = 10_000
    stride: int = 1
    component: int = 0

    def __post_init__(self):
        if self.system not in FLOW_SYSTEMS:
            raise ValueError(f"system must be one of {FLOW_SYSTEMS}, got {self.system!r}")
        validate_int("n", self.n, 2)
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        validate_int("transient", self.transient)
        validate_int("stride", self.stride, 1)
        if validate_int("component", self.component) > 2:
            raise ValueError(f"component must be 0, 1 or 2, got {self.component}")
        init = self.init if self.init is not None else FLOW_DEFAULT_INIT[self.system]
        init = tuple(float(v) for v in init)
        if len(init) != 3:
            raise ValueError("init must have exactly 3 components")
        if self.system == "lorenz" and init == (0.0, 0.0, 0.0):
            raise ValueError("the all-zero state is a fixed point of this flow")
        object.__setattr__(self, "init", init)


def lorenz_deriv(state: np.ndarray, p: dict) -> np.ndarray:
    x, y, z = state
    return np.array(
        [p["a"] * (y - x), p["c"] * x - y - x * z, x * y - p["b"] * z]
    )


def energy_deriv(state: np.ndarray, p: dict) -> np.ndarray:
    x, y, z = state
    return np.array(
        [
            p["a1"] * x + p["a2"] * (p["C"] - y) + p["a3"] * (z - p["K1"]),
            -p["b1"] * y + p["b2"] * x - p["b3"] * z * (1.0 - z / p["K2"]),
            p["c1"] * z * (1.0 - z / p["L"]) + p["c2"] * y * z,
        ]
    )


def rk4_step(deriv, state: np.ndarray, dt: float, params: dict) -> np.ndarray:
    k1 = deriv(state, params)
    k2 = deriv(state + 0.5 * dt * k1, params)
    k3 = deriv(state + 0.5 * dt * k2, params)
    k4 = deriv(state + dt * k3, params)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@np.errstate(over="ignore", invalid="ignore")  # a divergence is reported by DivergenceError alone
def gen_flow(spec: FlowSpec) -> TimeSeries:
    """Integrate the flow, discard the transient, sample every `stride` steps."""
    lorenz = spec.system == "lorenz"
    deriv, params = (lorenz_deriv, LORENZ_PARAMS) if lorenz else (energy_deriv, ENERGY_PARAMS)
    state = np.array(spec.init, dtype=np.float64)
    out = np.empty(spec.n)
    step = 0
    for t in range(spec.n):  # the transient before the first sample, `stride` steps before the rest
        for _ in range(spec.stride if t else spec.transient):
            state = rk4_step(deriv, state, spec.dt, params)
            step += 1
            if not np.all(np.isfinite(state)):
                raise DivergenceError(f"flow state became non-finite at step {step}")
        out[t] = state[spec.component]
    return TimeSeries(out)
