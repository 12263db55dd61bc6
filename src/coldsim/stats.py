"""Nonparametric tests used by the experiment analyses.

Thin wrappers over `scipy.stats` with the method choices fixed here:
tie-corrected Kruskal-Wallis, Wilcoxon rank-sum (exact only for
tie-free samples of combined size <= EXACT_RANKSUM_LIMIT, otherwise the
normal approximation with tie and continuity corrections),
Benjamini-Hochberg FDR adjustment, and the chi-square survival
function.  All p-values are two-sided.

A family of rank-sum tests (wilcoxon_rank_sums) makes one scipy call
per sample-size shape, not one per pair: each scipy call costs about
0.5 ms of wrapping whatever its size (on a shared 2-vCPU host), and an
analysis' pairs share a few shapes.  Each result is bit for bit
wilcoxon_rank_sum's.

scipy is imported where it is first used, as in plant and experiment:
importing it takes about 0.6 s, which every CLI start would pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> TestResult:
    """Tie-corrected Kruskal-Wallis H test across k groups.

    When every observation is identical the tie correction removes all
    rank variation; H is 0 and p is 1 by convention.
    """
    if len(groups) < 2:
        raise ValidationError("kruskal_wallis needs at least 2 groups")
    if any(len(g) == 0 for g in groups):
        raise ValidationError("kruskal_wallis groups must be non-empty")
    df = len(groups) - 1
    if len({float(v) for g in groups for v in g}) == 1:
        # scipy returns NaN with a RuntimeWarning here.
        return TestResult(0.0, df, 1.0, "kruskal_wallis")
    from scipy.stats import kruskal
    res = kruskal(*groups)
    return TestResult(float(res.statistic), df, float(res.pvalue), "kruskal_wallis")


def wilcoxon_rank_sum(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Two-sided Wilcoxon rank-sum (Mann-Whitney) test.

    Uses the exact permutation distribution when the combined sample is
    small and tie-free; otherwise the normal approximation with tie and
    continuity corrections.  The statistic reported is U for the first
    sample.
    """
    exact = _ranksum_exact(a, b)
    from scipy.stats import mannwhitneyu
    res = mannwhitneyu(a, b, alternative="two-sided", use_continuity=True,
                       method="exact" if exact else "asymptotic")
    return TestResult(float(res.statistic), None, float(res.pvalue),
                      "wilcoxon_exact" if exact else "wilcoxon_normal")


def wilcoxon_rank_sums(pairs: Sequence[tuple[Sequence[float], Sequence[float]]]
                       ) -> list[TestResult]:
    """wilcoxon_rank_sum(a, b) of each (a, b) pair, in the input order.

    Pairs for the exact test go through wilcoxon_rank_sum one at a time.
    The rest are stacked by (len(a), len(b)), and each stack is one
    normal-approximation scipy call along axis 1.  Ranking and the tie
    term are per row, and U is a sum of half-integers, exact in float64,
    so every result is bit for bit the pair's own.
    """
    results: list[Optional[TestResult]] = [None] * len(pairs)
    stacks: dict[tuple[int, int], list[int]] = {}
    for i, (a, b) in enumerate(pairs):
        if _ranksum_exact(a, b):
            results[i] = wilcoxon_rank_sum(a, b)
        else:
            stacks.setdefault((len(a), len(b)), []).append(i)
    from scipy.stats import mannwhitneyu
    for rows in stacks.values():
        res = mannwhitneyu([pairs[i][0] for i in rows], [pairs[i][1] for i in rows],
                           axis=1, alternative="two-sided", use_continuity=True,
                           method="asymptotic")
        for i, u, p in zip(rows, res.statistic.tolist(), res.pvalue.tolist()):
            results[i] = TestResult(u, None, p, "wilcoxon_normal")
    return results


def _ranksum_exact(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether the pair takes the exact test (tie-free and small); an
    empty sample raises ValidationError."""
    if len(a) == 0 or len(b) == 0:
        raise ValidationError("wilcoxon_rank_sum samples must be non-empty")
    pooled = [float(v) for v in a] + [float(v) for v in b]
    return len(set(pooled)) == len(pooled) <= EXACT_RANKSUM_LIMIT


def benjamini_hochberg(p_values: Sequence[float]) -> list[float]:
    """Benjamini-Hochberg adjusted p-values, in the input order.

    adj_(i) = min_{j >= i} m * p_(j) / j over the ascending-sorted list,
    clipped at 1.
    """
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"p-values must lie in [0, 1], got {p}")
    from scipy.stats import false_discovery_control
    return [float(p) for p in false_discovery_control(p_values)]


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution."""
    if x < 0:
        raise ValidationError("chi_square_sf requires x >= 0")
    if df < 1:
        raise ValidationError("chi_square_sf requires df >= 1")
    from scipy.stats import chi2
    return float(chi2.sf(x, df))
