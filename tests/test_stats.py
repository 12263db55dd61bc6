"""Nonparametric statistics against hand oracles and scipy cross-checks."""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st

from coldsim import (ValidationError, benjamini_hochberg, chi_square_sf,
                     kruskal_wallis, wilcoxon_rank_sum)
from coldsim.stats import EXACT_RANKSUM_LIMIT, _ranks


# --- oracles -----------------------------------------------------------

def brute_ranksum_p(a, b):
    """Exhaustive two-sided permutation p for tie-free samples."""
    pooled = sorted(a) + sorted(b)
    assert len(set(pooled)) == len(pooled)
    n1 = len(a)
    ranks = {v: i + 1 for i, v in enumerate(sorted(pooled))}
    observed = sum(ranks[v] for v in a) - n1 * (n1 + 1) / 2
    sums = [sum(c) for c in
            itertools.combinations(range(1, len(pooled) + 1), n1)]
    us = [s - n1 * (n1 + 1) / 2 for s in sums]
    low = sum(1 for u in us if u <= observed) / len(us)
    high = sum(1 for u in us if u >= observed) / len(us)
    return min(1.0, 2.0 * min(low, high))


def stepwise_bh(p_values):
    """Adjusted p-values computed directly from the definition."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    for pos, idx in enumerate(order):
        adjusted[idx] = min(
            min(m * p_values[order[j]] / (j + 1) for j in range(pos, m)), 1.0)
    return adjusted


# --- Kruskal-Wallis ----------------------------------------------------

def test_kw_hand_computed_examples():
    # rank sums 6/15/24 over ranks 1..9
    res = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert res.statistic == pytest.approx(7.2, abs=1e-12)
    assert res.df == 2
    res = kruskal_wallis([[1, 2], [3, 4]])
    assert res.statistic == pytest.approx(2.4, abs=1e-12)
    assert res.df == 1
    # tie-corrected: ranks 1.5,1.5,3.5 | 3.5,5.5,5.5 give H = 3.0476 / (1 - 18/210)
    res = kruskal_wallis([[1, 1, 2], [2, 3, 3]])
    assert res.statistic == pytest.approx(10 / 3, abs=1e-12)
    assert res.p_value == pytest.approx(math.erfc(math.sqrt(5 / 3)), abs=1e-12)


def test_kw_identical_groups():
    res = kruskal_wallis([[5, 5, 5], [5, 5], [5, 5, 5, 5]])
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_kw_requires_two_nonempty_groups():
    with pytest.raises(ValidationError):
        kruskal_wallis([[1, 2, 3]])
    with pytest.raises(ValidationError):
        kruskal_wallis([[1, 2], []])


def test_kw_monotone_transform_invariance():
    rng = np.random.default_rng(0)
    for _ in range(30):
        groups = [list(rng.normal(size=rng.integers(3, 8))) for _ in range(3)]
        base = kruskal_wallis(groups)
        warped = kruskal_wallis([[math.exp(v) for v in g] for g in groups])
        assert warped.statistic == pytest.approx(base.statistic, abs=1e-9)


def test_kw_matches_scipy_with_ties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        groups = [list(rng.integers(0, 6, size=rng.integers(3, 10)).astype(float))
                  for _ in range(rng.integers(2, 5))]
        if len({v for g in groups for v in g}) == 1:
            continue
        ours = kruskal_wallis(groups)
        ref = scipy.stats.kruskal(*groups)
        assert (ours.statistic, ours.p_value) == (ref.statistic, ref.pvalue)


# --- Wilcoxon rank-sum -------------------------------------------------

def test_ranksum_exact_examples():
    res = wilcoxon_rank_sum([1, 2], [3, 4])
    assert res.statistic == 0
    assert res.p_value == pytest.approx(1 / 3, abs=1e-12)
    assert res.method == "wilcoxon_exact"
    res = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
    assert res.statistic == 0
    assert res.p_value == pytest.approx(0.1, abs=1e-12)


def test_ranksum_identical_samples():
    res = wilcoxon_rank_sum([2.5, 2.5, 2.5], [2.5, 2.5, 2.5])
    assert res.p_value == 1.0


def test_ranksum_exact_equals_brute_force_enumeration():
    """Exhaustive check over every tie-free input shape with n <= 10."""
    for n in range(2, 11):
        for n1 in range(1, n):
            ranks = list(range(1, n + 1))
            for combo in itertools.combinations(ranks, n1):
                a = [float(r) for r in combo]
                b = [float(r) for r in ranks if r not in combo]
                res = wilcoxon_rank_sum(a, b)
                assert res.method == "wilcoxon_exact"
                assert res.p_value == pytest.approx(brute_ranksum_p(a, b),
                                                    abs=1e-12)


def test_ranksum_exact_normal_boundary():
    """Exact only when tie-free and the combined n is at most 20."""
    ranks = [float(r) for r in range(1, 22)]
    assert wilcoxon_rank_sum(ranks[:8], ranks[8:20]).method == "wilcoxon_exact"
    assert wilcoxon_rank_sum(ranks[:8], ranks[8:21]).method == "wilcoxon_normal"
    tied = ranks[:19] + [ranks[18]]
    assert wilcoxon_rank_sum(tied[:8], tied[8:]).method == "wilcoxon_normal"
    a = [1.0, 4.0, 9.0]
    b = [r for r in ranks[:20] if r not in a]
    res = wilcoxon_rank_sum(a, b)
    assert res.method == "wilcoxon_exact"
    assert res.p_value == pytest.approx(brute_ranksum_p(a, b), abs=1e-12)


def test_ranksum_normal_path_with_ties():
    rng = np.random.default_rng(2)
    a = list(rng.integers(0, 4, size=25).astype(float))
    b = list(rng.integers(1, 5, size=30).astype(float))
    ours = wilcoxon_rank_sum(a, b)
    assert ours.method == "wilcoxon_normal"
    ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
    assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-9)


def test_ranksum_empty_sample():
    with pytest.raises(ValidationError):
        wilcoxon_rank_sum([], [1.0])
    with pytest.raises(ValidationError):
        wilcoxon_rank_sum([1.0, 2.0], [])


SPECIAL_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0)


@st.composite
def ranksum_pairs(draw):
    """Pairs of samples: tied integer samples, all-identical samples and
    samples of signed zeros, infinities and NaN, whose sizes come from a
    small pool, small tie-free pairs (infinities among them) that take
    the exact test, and pairs holding a NaN."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    pairs = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("tied", "identical", "special", "exact", "nan")))
        if kind in ("exact", "nan"):
            n1 = draw(st.integers(1, 19))
            n = n1 + draw(st.integers(1, 20 - n1))
            values = st.floats(-100, 100) | st.sampled_from((-math.inf, math.inf))
            pooled = draw(st.lists(values, min_size=n, max_size=n, unique=True))
            if kind == "nan":
                pooled[draw(st.integers(0, n - 1))] = math.nan
            pairs.append((pooled[:n1], pooled[n1:]))
            continue
        n1, n2 = draw(st.sampled_from(sizes)), draw(st.sampled_from(sizes))
        if kind == "identical":
            value = draw(st.sampled_from((0, 2.5, -1.0)))
            pairs.append(([value] * n1, [value] * n2))
        elif kind == "special":
            pairs.append(tuple(draw(st.lists(st.sampled_from(SPECIAL_VALUES),
                                             min_size=size, max_size=size))
                               for size in (n1, n2)))
        else:
            top = draw(st.integers(1, 6))
            pairs.append((draw(st.lists(st.integers(0, top), min_size=n1, max_size=n1)),
                          draw(st.lists(st.integers(0, top), min_size=n2, max_size=n2))))
    return pairs


def scipy_quiet(test, *args, **kwargs):
    """A scipy.stats result as (statistic, p) floats; scipy warns on NaN
    input and on all-identical Kruskal-Wallis groups."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = test(*args, **kwargs)
    return float(res.statistic), float(res.pvalue)


@settings(max_examples=120)
@given(pairs=ranksum_pairs())
def test_property_rank_tests_match_scipy(pairs):
    # Each pair's pooled ranks against rankdata and their tie counts
    # against np.unique, each pair against mannwhitneyu and all drawn
    # samples as the groups of one Kruskal-Wallis test, bit for bit; repr
    # tells -0.0 from 0.0 and calls every NaN alike.  Our calls run under
    # the suite's RuntimeWarning-as-error filter.
    for a, b in pairs:
        values = np.concatenate((a, b))
        ranks, ties = _ranks(values)
        want = scipy.stats.rankdata(values)
        assert ranks.tobytes() == want.tobytes()
        assert ties.tolist() == np.unique(want, return_counts=True)[1].tolist()
        pooled = [float(v) for v in a + b]
        exact = len(set(pooled)) == len(pooled) <= EXACT_RANKSUM_LIMIT
        got = wilcoxon_rank_sum(a, b)
        want = scipy_quiet(scipy.stats.mannwhitneyu, a, b, alternative="two-sided",
                           method="exact" if exact else "asymptotic")
        assert (repr(got.statistic), repr(got.p_value)) == tuple(map(repr, want))
        if any(math.isnan(v) for v in pooled):
            assert math.isnan(got.statistic) and math.isnan(got.p_value)
            continue
        assert got.method == ("wilcoxon_exact" if exact else "wilcoxon_normal")
        if len(set(pooled)) == 1:
            assert got.p_value == 1.0
    groups = [sample for pair in pairs for sample in pair]
    got = kruskal_wallis(groups)
    if len({float(v) for g in groups for v in g}) == 1:
        assert (got.statistic, got.p_value) == (0.0, 1.0)
    else:
        want = scipy_quiet(scipy.stats.kruskal, *groups)
        assert (repr(got.statistic), repr(got.p_value)) == tuple(map(repr, want))


# --- Benjamini-Hochberg ------------------------------------------------

def test_bh_examples():
    assert benjamini_hochberg([0.01, 0.02, 0.03, 0.04, 0.05]) == pytest.approx(
        [0.05, 0.05, 0.05, 0.05, 0.05], abs=1e-12)
    assert benjamini_hochberg([0.5]) == [0.5]
    assert benjamini_hochberg([]) == []
    assert benjamini_hochberg([0.04, 0.9]) == pytest.approx([0.08, 0.9], abs=1e-12)


def test_bh_validation():
    with pytest.raises(ValidationError):
        benjamini_hochberg([0.5, 1.5])


def test_bh_matches_stepwise_definition_random():
    rng = np.random.default_rng(3)
    for _ in range(500):
        m = int(rng.integers(1, 15))
        p = [float(v) for v in rng.uniform(0, 1, size=m)]
        assert benjamini_hochberg(p) == pytest.approx(stepwise_bh(p), abs=1e-12)


@st.composite
def p_value_lists(draw):
    """0 to 40 p-values in [0, 1], repeats and exact 0 and 1 among them."""
    pool = draw(st.lists(st.floats(0, 1), min_size=1, max_size=6)) + [0.0, 1.0]
    return draw(st.lists(st.sampled_from(pool) | st.floats(0, 1), max_size=40))


@settings(max_examples=300)
@given(p_values=p_value_lists())
def test_property_bh_matches_scipy(p_values):
    want = scipy.stats.false_discovery_control(p_values)
    assert repr(benjamini_hochberg(p_values)) == repr([float(p) for p in want])


def test_bh_properties():
    rng = np.random.default_rng(4)
    for _ in range(200):
        p = [float(v) for v in rng.uniform(0, 1, size=rng.integers(1, 12))]
        adj = benjamini_hochberg(p)
        assert all(a >= x - 1e-15 for a, x in zip(adj, p))
        assert all(a <= 1.0 for a in adj)
        order = sorted(range(len(p)), key=lambda i: p[i])
        sorted_adj = [adj[i] for i in order]
        assert all(x <= y + 1e-15 for x, y in zip(sorted_adj, sorted_adj[1:]))


# --- chi-square survival function --------------------------------------

def test_chi2_full_mass_at_zero():
    for df in (1, 2, 7, 50):
        assert chi_square_sf(0.0, df) == 1.0


def test_chi2_df2_closed_form():
    for x in (0.5, 1.0, 3.6, 7.2, 20.0, 100.0):
        assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)
    assert chi_square_sf(7.2, 2) == pytest.approx(math.exp(-3.6), abs=1e-12)


def test_chi2_standard_value():
    assert chi_square_sf(3.84, 1) == pytest.approx(0.0500, abs=1e-4)


def test_chi2_against_scipy_grid():
    for df in (1, 2, 3, 5, 10, 25, 50):
        for x in (0.01, 0.5, 1.0, 4.0, 10.0, 50.0, 120.0, 200.0):
            ref = float(scipy.special.gammaincc(df / 2.0, x / 2.0))
            assert chi_square_sf(x, df) == pytest.approx(ref, abs=1e-10)


def test_chi2_matches_scipy_stats_bit_for_bit():
    # chdtrc is the same tail as scipy.stats.chi2.sf, bit for bit
    xs = np.concatenate(([0.0, 5e-324, 1e-300, 1e-12, math.inf],
                         np.linspace(0.0, 200.0, 81), np.geomspace(1e-6, 1e4, 81)))
    for df in range(1, 60):
        got = np.array([chi_square_sf(float(x), df) for x in xs])
        assert got.tobytes() == scipy.stats.chi2.sf(xs, df).tobytes(), df


def test_chi2_strictly_decreasing():
    for df in (1, 4, 9):
        values = [chi_square_sf(x, df) for x in np.linspace(0.01, 60, 120)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_chi2_domain_errors():
    with pytest.raises(ValidationError):
        chi_square_sf(-1.0, 2)
    with pytest.raises(ValidationError):
        chi_square_sf(1.0, 0)
