"""Closed-form predictions for LPHVGs of i.i.d. series.

Degree law, mean degree (infinite and periodic), clustering envelope and its
distribution, and the long-distance link probability. All functions are pure
and distribution-free: they depend only on the penetrability rho.
"""
from __future__ import annotations

import math

from .series import validate_int

# Theorem scope for the clustering envelope as stated.
CLUSTERING_RHO_MAX = 2


def decay_rate(rho: int) -> float:
    """Exponential decay rate of the degree law: ln((2rho+3)/(2rho+2))."""
    rho = validate_int("rho", rho)
    return math.log((2 * rho + 3) / (2 * rho + 2))


def degree_pmf(rho: int, k: int) -> float:
    """P(k) = (1/(2rho+3)) * ((2rho+2)/(2rho+3))^(k-2(rho+1)) for k >= 2rho+2.

    Computed as a ratio of exact integers so that rational values (1/5, 4/25,
    ...) are correctly rounded; returns 0.0 outside the support, and without
    the integer powers where the value is below 2**-1075 and so rounds to 0.0.
    """
    rho = validate_int("rho", rho)
    m = validate_int("k", k) - 2 * (rho + 1)
    if m < 0 or m * math.log2((2 * rho + 3) / (2 * rho + 2)) > 1080:
        return 0.0
    return (2 * rho + 2) ** m / (2 * rho + 3) ** (m + 1)


def mean_degree(rho: int) -> float:
    """Asymptotic mean degree 4(rho+1) of an aperiodic series' LPHVG."""
    rho = validate_int("rho", rho)
    return 4.0 * (rho + 1)


def mean_degree_periodic(rho: int, period: int) -> float:
    """Mean degree 4(rho+1)(1 - (2rho+1)/(2T)) for an infinite period-T series.

    Requires 2rho+1 < T (the derivation deletes T-(2rho+1) minima). Note the
    count behind this form omits edges that open up when a removed minimum
    frees a penetration slot, an O(rho/T) effect; it is exact only at rho = 0
    (see the package README). mean_degree_periodic_exact gives the exact law.
    """
    rho = validate_int("rho", rho)
    period = validate_int("period", period, 2 * rho + 2)
    return 4.0 * (rho + 1) * (1.0 - (2 * rho + 1) / (2.0 * period))


def mean_degree_periodic_exact(rho: int, period: int) -> float:
    """Exact mean degree 4(rho+1) - (2/T) sum_{r=1..T} floor((rho+1)/r).

    For an infinite period-T series whose period holds T distinct values;
    valid for every T >= 1. Counting each link at its lower endpoint, a node
    has rho+1 partners to its right and takes only the strictly higher ones of
    its rho+1 left partners; a node of rank r (r-th highest of its period)
    loses floor((rho+1)/r) left slots to its own copies. For T >= rho+1 the
    sum is the divisor summatory function D(rho+1). Equals
    mean_degree_periodic at rho = 0 and 2(rho+1) at T = 1.
    """
    rho = validate_int("rho", rho)
    period = validate_int("period", period, 1)
    slots = rho + 1
    own_copies = sum(slots // r for r in range(1, min(period, slots) + 1))
    return 4.0 * slots - 2.0 * own_copies / period


def _check_scope(rho: int, unvalidated: bool) -> int:
    rho = validate_int("rho", rho)
    if rho > CLUSTERING_RHO_MAX and not unvalidated:
        raise ValueError(
            f"clustering envelope is stated for rho in 0..{CLUSTERING_RHO_MAX}; "
            "pass unvalidated=True to evaluate the formula anyway"
        )
    return rho


def _check_clustering_args(rho: int, k: int, unvalidated: bool) -> tuple[int, int]:
    rho = _check_scope(rho, unvalidated)
    return rho, validate_int("k", k, 2 * (rho + 1))


def clustering_min(rho: int, k: int, *, unvalidated: bool = False) -> float:
    """Lower clustering envelope 2/k + 2 rho (k-2)/(k(k-1)) for degree-k nodes."""
    rho, k = _check_clustering_args(rho, k, unvalidated)
    return 2.0 / k + 2.0 * rho * (k - 2) / (k * (k - 1))


def clustering_max(rho: int, k: int, *, unvalidated: bool = False) -> float:
    """Upper clustering envelope 2/k + 4 rho (k-3)/(k(k-1)) for degree-k nodes.

    Stated for k >= 2(2rho+1); below that the value is extrapolated as
    min(1, formula) (see clustering_max_is_extrapolated).
    """
    rho, k = _check_clustering_args(rho, k, unvalidated)
    value = 2.0 / k + 4.0 * rho * (k - 3) / (k * (k - 1))
    if clustering_max_is_extrapolated(rho, k):
        return min(1.0, value)
    return value


def clustering_max_is_extrapolated(rho: int, k: int) -> bool:
    """True when k lies below the stated domain k >= 2(2rho+1) of the max envelope."""
    rho = validate_int("rho", rho)
    return validate_int("k", k) < 2 * (2 * rho + 1)


def _envelope_pmf(rho: int, c: float, a: int, b: int, k_min: int, name: str) -> float:
    """The degree law at the k whose envelope 2/k + 2a(k-b)/(k(k-1)) equals c.

    k is the larger root of c k^2 - (c+2a+2) k + 2(ab+1) = 0 and must be an
    integer >= k_min within 1e-6.
    """
    if not 0 < c <= 1:
        raise ValueError(f"clustering value must lie in (0, 1], got {c}")
    phi = c + 2 * a + 2
    disc = phi * phi - 8 * (a * b + 1) * c
    if disc < 0:
        raise ValueError(f"clustering value {c} is not attainable (negative discriminant)")
    k_real = (phi + math.sqrt(disc)) / (2.0 * c)
    k_int = round(k_real)
    if abs(k_real - k_int) > 1e-6 or k_int < k_min:
        raise ValueError(
            f"clustering value {c} is not attainable via the {name} envelope "
            f"(inverted degree {k_real:.6f})"
        )
    return degree_pmf(rho, k_int)


def clustering_pmf_min(rho: int, c: float, *, unvalidated: bool = False) -> float:
    """Probability of minimum-envelope clustering value c: the degree law at its k >= 2(rho+1)."""
    rho = _check_scope(rho, unvalidated)
    return _envelope_pmf(rho, c, rho, 2, 2 * (rho + 1), "minimum")


def clustering_pmf_max(rho: int, c: float, *, unvalidated: bool = False) -> float:
    """Probability of maximum-envelope clustering value c, whose k must be >= 2(2rho+1)."""
    rho = _check_scope(rho, unvalidated)
    return _envelope_pmf(rho, c, 2 * rho, 3, 2 * (2 * rho + 1), "maximum")


def long_visibility_prob(rho: int, sep: int) -> float:
    """Probability that points at index separation sep link in an i.i.d. LPHVG.

    Exactly 1 for sep <= rho+1 (at most rho intermediates), else
    (rho+1)(rho+2)/(sep(sep+1)). This is the exact law; the commonly quoted
    (2rho(rho+1)+2)/(sep(sep+1)) coincides with it only for rho <= 1 and
    overestimates beyond (see long_visibility_prob_classic).
    """
    rho = validate_int("rho", rho)
    sep = validate_int("sep", sep, 1)
    if sep <= rho + 1:
        return 1.0
    return (rho + 1) * (rho + 2) / (sep * (sep + 1.0))  # <= (rho+1)/(rho+3) < 1 here


def long_visibility_prob_classic(rho: int, sep: int) -> float:
    """The classical closed form (2rho(rho+1)+2)/(sep(sep+1)), clamped to [0,1].

    Kept for comparison; exact only for rho in {0, 1}.
    """
    rho, sep = validate_int("rho", rho), validate_int("sep", sep, 1)
    return 1.0 if sep <= rho + 1 else min(1.0, (2 * rho * (rho + 1) + 2) / (sep * (sep + 1.0)))


def degree_table(rho: int, k_max: int, *, unvalidated: bool = False) -> list[dict]:
    """Rows (k, pmf, c_min, c_max, c_max_extrapolated) for k = 2(rho+1)..k_max."""
    rho = validate_int("rho", rho)
    rows = []
    for k in range(2 * (rho + 1), validate_int("k_max", k_max) + 1):
        rows.append(
            {
                "k": k,
                "pmf": degree_pmf(rho, k),
                "c_min": clustering_min(rho, k, unvalidated=unvalidated),
                "c_max": clustering_max(rho, k, unvalidated=unvalidated),
                "c_max_extrapolated": clustering_max_is_extrapolated(rho, k),
            }
        )
    return rows
