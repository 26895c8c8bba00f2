"""Seeded input series for the benchmark, generated with numpy alone.

Every series is a pure function of (workload seed, series name), so the
same seed always gives the same CSV files. Nothing here imports lphvg: the
program under test receives only the files written by `write_csv`.
"""
from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

LORENZ_DT = 0.01
LORENZ_TRANSIENT = 10_000


def rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def uniform(seed: int, name: str, n: int) -> np.ndarray:
    return rng_for(seed, name).random(n)


def gaussian(seed: int, name: str, n: int) -> np.ndarray:
    return rng_for(seed, name).normal(0.0, 1.0, n)


def trend(seed: int, name: str, n: int) -> np.ndarray:
    """Downward trend x_t = -t + 2 N(0, 1): the worst-case shape for graph construction."""
    return -np.arange(n, dtype=np.float64) + 2.0 * rng_for(seed, name).normal(size=n)


def logistic(seed: int, name: str, n: int) -> np.ndarray:
    x = 0.05 + 0.9 * rng_for(seed, name).random()
    out = np.empty(n)
    for t in range(n):
        out[t] = x
        x = 4.0 * x * (1.0 - x)
    return out


def henon(seed: int, name: str, n: int) -> np.ndarray:
    g = rng_for(seed, name)
    x, y = -0.1 + 0.2 * g.random(), -0.1 + 0.2 * g.random()
    out = np.empty(n)
    for t in range(n):
        out[t] = x
        x, y = 1.0 + y - 1.4 * x * x, 0.3 * x
    return out


def lorenz(seed: int, name: str, n: int) -> np.ndarray:
    """x component of the Lorenz flow (10, 8/3, 28), RK4 at dt=0.01 after a transient."""
    x, y, z = 1.0 + 0.2 * (rng_for(seed, name).random(3) - 0.5)
    h = LORENZ_DT

    def f(x, y, z):
        return 10.0 * (y - x), x * (28.0 - z) - y, x * y - 8.0 / 3.0 * z

    out = np.empty(n)
    for step in range(LORENZ_TRANSIENT + n):
        if step >= LORENZ_TRANSIENT:
            out[step - LORENZ_TRANSIENT] = x
        a = f(x, y, z)
        b = f(x + h / 2 * a[0], y + h / 2 * a[1], z + h / 2 * a[2])
        c = f(x + h / 2 * b[0], y + h / 2 * b[1], z + h / 2 * b[2])
        d = f(x + h * c[0], y + h * c[1], z + h * c[2])
        x += h / 6 * (a[0] + 2 * b[0] + 2 * c[0] + d[0])
        y += h / 6 * (a[1] + 2 * b[1] + 2 * c[1] + d[1])
        z += h / 6 * (a[2] + 2 * b[2] + 2 * c[2] + d[2])
    return out


def constant(seed: int, name: str, n: int) -> np.ndarray:
    return np.ones(n)


SHAPES = {
    "uniform": uniform,
    "gaussian": gaussian,
    "trend": trend,
    "logistic": logistic,
    "henon": henon,
    "lorenz": lorenz,
    "constant": constant,
}


def make(shape: str, seed: int, n: int) -> np.ndarray:
    values = SHAPES[shape](seed, f"{shape}-{n}", n)
    if not np.all(np.isfinite(values)):
        raise RuntimeError(f"{shape} series for seed {seed} is not finite")
    return values


def write_csv(path: Path, values: np.ndarray) -> Path:
    """One value per line, no header, 17 significant digits (exact round trip)."""
    path.write_text("\n".join(format(v, ".17g") for v in values.tolist()) + "\n")
    return path
