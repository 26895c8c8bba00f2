"""Output checks for the benchmark's CLI calls.

Each check reads the artifacts a call wrote and returns a list of problems
(empty when the output is correct). The graph oracle counts blockers of
every pair directly from the definition and shares no code with lphvg.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

VERDICT_IID = "consistent-with-iid"
VERDICT_DEVIATING = "deviating"
MEAN_DEGREE_TOLERANCE = 0.05


def oracle_edge_codes(values: np.ndarray, rho: int) -> np.ndarray:
    """Sorted codes i*n+j of the LPHVG edges of `values`, by direct counting.

    i < j are linked when at most rho of x_q (i < q < j) satisfy
    x_q >= min(x_i, x_j). With ge[r, q] = x_q >= x_r and C its running sum
    along q, the blockers of (i, j) are C[i, j-1] - C[i, i] when x_i <= x_j
    and C[j, j-1] - C[j, i] when x_i > x_j. Quadratic memory: keep n small.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    c = np.cumsum(x[None, :] >= x[:, None], axis=1, dtype=np.int32)
    before = np.zeros_like(c)
    before[:, 1:] = c[:, :-1]  # before[r, j] = C[r, j-1]
    diag = np.diagonal(c)
    from_left = before - diag[:, None]  # blockers of (i, j) seen from i
    from_right = np.diagonal(before)[None, :] - c.T  # blockers of (i, j) seen from j
    left_is_min = x[:, None] <= x[None, :]
    blockers = np.where(left_is_min, from_left, from_right)
    i, j = np.nonzero(np.triu(blockers <= rho, k=1))
    return np.sort(i.astype(np.int64) * n + j)


def read_edges(path: Path) -> np.ndarray:
    """Edge list file ("i j" per line) as an (m, 2) int64 array."""
    flat = np.fromfile(path, dtype=np.int64, sep=" ")
    if flat.size % 2:
        raise ValueError(f"{path}: odd number of integers")
    return flat.reshape(-1, 2)


def check_build(out: Path, n: int, rho: int, prefix_codes: np.ndarray, prefix: int,
                iid: bool) -> list[str]:
    """Edges well formed, prefix equal to the oracle, i.i.d. mean degree near 4(rho+1)."""
    try:
        edges = read_edges(out)
    except (OSError, ValueError) as exc:
        return [f"cannot read {out.name}: {exc}"]
    i, j = edges[:, 0], edges[:, 1]
    if edges.size and not (np.all(i >= 0) and np.all(i < j) and np.all(j < n)):
        return [f"{out.name}: edge endpoints out of order or range"]
    inside = j < prefix
    got = np.sort(i[inside] * prefix + j[inside])
    problems = []
    if not np.array_equal(got, prefix_codes):
        problems.append(
            f"{out.name}: {got.size} edges on the first {prefix} nodes, "
            f"oracle has {prefix_codes.size} (or they differ)"
        )
    if iid:
        mean_degree = 2.0 * len(edges) / n
        expected = 4.0 * (rho + 1)
        if abs(mean_degree - expected) / expected > MEAN_DEGREE_TOLERANCE:
            problems.append(f"{out.name}: mean degree {mean_degree:.3f} not within 5% of {expected}")
    return problems


def check_evolve(outdir: Path, windows: int, rho: int) -> list[str]:
    """Window count, symmetric zero-diagonal distances, per-window mean degree, theta > 0."""
    try:
        dist = np.loadtxt(outdir / "distances.csv", delimiter=",", ndmin=2)
        rows = (outdir / "window_metrics.csv").read_text().splitlines()[1:]
        theta = float((outdir / "theta.txt").read_text())
    except (OSError, ValueError) as exc:
        return [f"cannot read evolve outputs: {exc}"]
    problems = []
    if dist.shape != (windows, windows) or len(rows) != windows:
        problems.append(f"expected {windows} windows, got {dist.shape} / {len(rows)} rows")
    elif not np.array_equal(dist, dist.T) or np.any(np.diag(dist) != 0):
        problems.append("distance matrix not symmetric with zero diagonal")
    expected = 4.0 * (rho + 1)
    degrees = [float(r.split(",")[3]) for r in rows]
    off = [d for d in degrees if abs(d - expected) / expected > MEAN_DEGREE_TOLERANCE]
    if off:
        problems.append(f"{len(off)} windows with mean degree not within 5% of {expected}")
    if not theta > 0:
        problems.append(f"theta {theta} is not > 0")
    return problems


def check_verdict(out: Path, expected: str) -> list[str]:
    try:
        verdict = json.loads(out.read_text())["verdict"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"cannot read verdict {out.name}: {exc}"]
    if verdict != expected:
        return [f"{out.name}: verdict {verdict!r}, expected {expected!r}"]
    return []


VERIFY_ARTIFACTS = (
    "pmf_vs_theory.csv", "finite_size.csv", "finite_size_summary.csv",
    "coverage.csv", "long_distance.csv", "theory_table.csv", "manifest.json",
)


def check_verify(outdir: Path) -> list[str]:
    """The exit code carries verify's own pass/fail; here check that it wrote everything."""
    missing = [name for name in VERIFY_ARTIFACTS if not (outdir / name).is_file()]
    return [f"verify did not write {', '.join(missing)}"] if missing else []
