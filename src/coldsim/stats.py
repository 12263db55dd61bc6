"""Nonparametric tests used by the experiment analyses.

Tie-corrected Kruskal-Wallis, two-sided Wilcoxon rank-sum (exact only
for tie-free samples of combined size <= EXACT_RANKSUM_LIMIT, otherwise
the normal approximation with tie and continuity corrections),
Benjamini-Hochberg FDR adjustment and the chi-square survival function.

Both rank tests rank their pooled values once (_ranks) and compute the
statistic and its tail here, in the order of operations of
scipy.stats.kruskal and mannwhitneyu, so that each result is bit for
bit scipy's: ranks are half-integers and tie counts integers, so every
rank sum and tie term is exact in float64, and the exact rank-sum tail
sums the same integer counts over the same divisor.  Benjamini-Hochberg
follows scipy.stats.false_discovery_control's operations.

Only scipy.special is imported (ndtr, chdtrc, binom), where it is first
used: scipy.stats is the tests' oracle, not a run-time dependency.
Simulating needs no scipy at all (see plant.first_order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError

# Combined sample size up to which the rank-sum test uses the exact null
# distribution (tie-free data only); it is effectively free at this scale.
EXACT_RANKSUM_LIMIT = 20


@dataclass(frozen=True)
class TestResult:
    statistic: float
    df: Optional[int]
    p_value: float
    method: str


def _ranks(values) -> tuple[np.ndarray, np.ndarray]:
    """Average ranks of the values, as scipy.stats.rankdata gives them,
    and the size of each tie group in ascending order.  Any NaN makes
    every rank NaN, one tie group."""
    x = np.asarray(values)
    order = np.argsort(x, kind="stable")
    y = x[order]
    if np.isnan(y[-1]):  # NaN sorts last
        return np.full(len(y), np.nan), np.array([len(y)])
    starts = np.flatnonzero(np.concatenate(([True], y[:-1] != y[1:])))
    ties = np.diff(starts, append=len(y))
    ranks = np.empty(len(y))
    ranks[order] = np.repeat(starts + 1.0 + (ties - 1) / 2, ties)
    return ranks, ties


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> TestResult:
    """Tie-corrected Kruskal-Wallis H test across k groups.

    When every observation is identical the tie correction removes all
    rank variation; H is 0 and p is 1 by convention.  A NaN gives NaN.
    """
    if len(groups) < 2:
        raise ValidationError("kruskal_wallis needs at least 2 groups")
    if any(len(g) == 0 for g in groups):
        raise ValidationError("kruskal_wallis groups must be non-empty")
    df = len(groups) - 1
    ranks, ties = _ranks(np.concatenate(groups))
    if len(ties) == 1 and not np.isnan(ranks[0]):
        # scipy returns NaN with a RuntimeWarning here.
        return TestResult(0.0, df, 1.0, "kruskal_wallis")
    sizes = [len(g) for g in groups]
    sums = np.add.reduceat(ranks, np.cumsum([0] + sizes[:-1]))
    ssbn = sum(s * s / k for s, k in zip(sums, sizes))
    n = len(ranks)
    h = 12.0 / (n * (n + 1)) * ssbn - 3 * (n + 1)
    h /= 1 - (ties ** 3 - ties).sum() / (n ** 3 - n)
    from scipy.special import chdtrc
    return TestResult(float(h), df, float(chdtrc(df, h)), "kruskal_wallis")


def wilcoxon_rank_sum(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Two-sided Wilcoxon rank-sum (Mann-Whitney) test.

    Uses the exact permutation distribution when the combined sample is
    small and tie-free; otherwise the normal approximation with tie and
    continuity corrections (p is 1 when every value is tied).  The
    statistic reported is U for the first sample.  A NaN gives NaN.
    """
    if len(a) == 0 or len(b) == 0:
        raise ValidationError("wilcoxon_rank_sum samples must be non-empty")
    n1, n2 = len(a), len(b)
    n = n1 + n2
    ranks, ties = _ranks(np.concatenate((a, b)))
    u1 = ranks[:n1].sum() - n1 * (n1 + 1) / 2
    u = max(u1, n1 * n2 - u1)
    if len(ties) == n <= EXACT_RANKSUM_LIMIT:
        # counts[k, s] is the number of k-subsets of the ranks 1..n that
        # sum to s, exact in int64.  Row n1, from s = n1(n1+1)/2 on, counts
        # the arrangements by U1.  By symmetry the tail of u is the low
        # tail up to n1 n2 - u, a cumsum over binom as mannwhitneyu takes.
        counts = np.zeros((n1 + 1, n * (n + 1) // 2 + 1), dtype=np.int64)
        counts[0, 0] = 1
        for r in range(1, n + 1):
            counts[1:, r:] = counts[1:, r:] + counts[:-1, :-r]
        low = n1 * (n1 + 1) // 2
        from scipy.special import binom
        tail = np.cumsum(counts[n1, low:low + n1 * n2 - int(u) + 1] / binom(n, n1))
        return TestResult(float(u1), None, float(np.clip(2 * tail[-1], 0.0, 1.0)),
                          "wilcoxon_exact")
    tie_term = (ties ** 3 - ties).sum()
    s = np.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
    with np.errstate(divide="ignore"):  # s is 0 when every value is tied
        z = (u - n1 * n2 / 2 - 0.5) / s
    from scipy.special import ndtr
    # The doubled tail passes 1 near the centre; min keeps a NaN.
    p = min(2 * ndtr(-z), 1.0)
    return TestResult(float(u1), None, float(p), "wilcoxon_normal")


def benjamini_hochberg(p_values: Sequence[float]) -> list[float]:
    """Benjamini-Hochberg adjusted p-values, in the input order.

    adj_(i) = min_{j >= i} m * p_(j) / j over the ascending-sorted list,
    clipped at 1.
    """
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"p-values must lie in [0, 1], got {p}")
    ps = np.array(p_values, dtype=float)
    order = np.argsort(ps)
    adjusted = ps[order] * (len(ps) / np.arange(1, len(ps) + 1))
    ps[order] = np.minimum.accumulate(adjusted[::-1])[::-1]
    return [float(p) for p in np.clip(ps, 0.0, 1.0)]


def chi_square_sf(x: float, df: int) -> float:
    """Chi-square upper-tail probability: chdtrc, as kruskal_wallis uses."""
    if x < 0:
        raise ValidationError("chi_square_sf requires x >= 0")
    if df < 1:
        raise ValidationError("chi_square_sf requires df >= 1")
    from scipy.special import chdtrc
    return float(chdtrc(df, x))
