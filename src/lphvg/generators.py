"""Seeded generators for every test signal (i.i.d. draws, periodic series, chaotic maps, chaotic
flows by fixed-step 4th-order integration on floats), and generate_series, which picks one."""
from __future__ import annotations

import math

import numpy as np

from .series import Record, RngConfig, TimeSeries, validate_int

IID_FAMILIES = ("uniform", "gaussian", "powerlaw")
FLOW_SYSTEMS = ("lorenz", "energy")


class DivergenceError(RuntimeError):
    """Raised when an iterated map or flow leaves the finite range."""


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
            raise ValueError(f"{name} must be finite, got {value}")


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
        _require_finite(mean=self.mean, sd=self.sd, alpha=self.alpha, xmin=self.xmin)


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
    _require_finite(x0=x0, y0=y0)
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
        _require_finite(dt=self.dt, init=init)
        if self.system == "lorenz" and init == (0.0, 0.0, 0.0):
            raise ValueError("the all-zero state is a fixed point of this flow")
        object.__setattr__(self, "init", init)


def lorenz_deriv(state: tuple, p: dict) -> tuple:
    x, y, z = state
    return (p["a"] * (y - x), p["c"] * x - y - x * z, x * y - p["b"] * z)


def energy_deriv(state: tuple, p: dict) -> tuple:
    x, y, z = state
    return (
        p["a1"] * x + p["a2"] * (p["C"] - y) + p["a3"] * (z - p["K1"]),
        -p["b1"] * y + p["b2"] * x - p["b3"] * z * (1.0 - z / p["K2"]),
        p["c1"] * z * (1.0 - z / p["L"]) + p["c2"] * y * z,
    )


def rk4_step(deriv, state: tuple, dt: float, params: dict) -> tuple:
    """One classical RK4 step on three floats; an overflow gives inf or nan, never an error."""
    x, y, z = state
    h = 0.5 * dt
    a1, a2, a3 = deriv(state, params)
    b1, b2, b3 = deriv((x + h * a1, y + h * a2, z + h * a3), params)
    c1, c2, c3 = deriv((x + h * b1, y + h * b2, z + h * b3), params)
    d1, d2, d3 = deriv((x + dt * c1, y + dt * c2, z + dt * c3), params)
    w = dt / 6.0
    return (x + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
            y + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
            z + w * (a3 + 2.0 * b3 + 2.0 * c3 + d3))


def gen_flow(spec: FlowSpec) -> TimeSeries:
    """Integrate the flow, discard the transient, sample every `stride` steps."""
    lorenz = spec.system == "lorenz"
    deriv, params = (lorenz_deriv, LORENZ_PARAMS) if lorenz else (energy_deriv, ENERGY_PARAMS)
    state = spec.init
    out = np.empty(spec.n)
    step = 0
    for t in range(spec.n):  # the transient before the first sample, `stride` steps before the rest
        for _ in range(spec.stride if t else spec.transient):
            state = rk4_step(deriv, state, spec.dt, params)
            step += 1
            if not all(map(math.isfinite, state)):
                raise DivergenceError(f"flow state became non-finite at step {step}")
        out[t] = state[spec.component]
    return TimeSeries(out)


def generate_series(source: str, n: int, rng: RngConfig, *, mean: float = IidSpec.mean,
                    sd: float = IidSpec.sd, alpha: float = IidSpec.alpha,
                    xmin: float = IidSpec.xmin, period: int | None = None,
                    x0: float | None = None, y0: float | None = None, mu: float = 4.0,
                    init: tuple | None = None, dt: float = FlowSpec.dt,
                    transient: int = FlowSpec.transient, stride: int = FlowSpec.stride,
                    component: int = FlowSpec.component) -> TimeSeries:
    """The series `lphvg generate --family/--system source` writes; each keyword is the option
    of that name, and one the source does not take is ignored. An unset start is drawn from
    rng.generator() in this order: the logistic x0 from U(0.05, 0.95); the Henon x0, then y0,
    from U(-0.1, 0.1); a flow's init as FLOW_DEFAULT_INIT times 1 + U(-0.01, 0.01) each."""
    if source in IID_FAMILIES:
        return gen_iid(IidSpec(source, n, rng, mean, sd, alpha, xmin))
    if source == "periodic":
        if period is None:
            raise ValueError("--period is required for --system periodic")
        return gen_periodic(period, n, rng)
    if source not in ("logistic", "henon") + FLOW_SYSTEMS:
        raise ValueError(f"unknown family or system {source!r}")
    g = rng.generator()
    if source == "logistic":
        return gen_logistic(n, 0.05 + 0.9 * g.random() if x0 is None else x0, mu)
    if source == "henon":
        x0 = -0.1 + 0.2 * g.random() if x0 is None else x0
        y0 = -0.1 + 0.2 * g.random() if y0 is None else y0
        return gen_henon(n, x0, y0)
    if init is None:
        init = tuple(v * (1.0 + 0.02 * (u - 0.5))
                     for v, u in zip(FLOW_DEFAULT_INIT[source], g.random(3)))
    return gen_flow(FlowSpec(source, n, init, dt, transient, stride, component))
