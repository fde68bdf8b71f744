import math

import numpy as np
import pytest

from aucal.errors import InsufficientData, InvalidCounts, OutOfDomain
from aucal.stats import (
    chi2_sf,
    chi_square_independence,
    lower_gamma_cf,
    lower_gamma_series,
    reg_upper_gamma,
    table_from_counts,
    two_proportion_test,
    upper_gamma_cf,
    ContingencyTable,
)

A_GRID = [0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 7.5, 10.0]
X_GRID = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0]


def cross_method_error(a, x):
    """Dual-method relative disagreement, measured in the well-conditioned
    direction per region (the production route picks the same split)."""
    if x < a + 1.0:
        p1 = lower_gamma_series(a, x)
        p2 = lower_gamma_cf(a, x)
    else:
        p1 = lower_gamma_series(a, x)
        p2 = 1.0 - upper_gamma_cf(a, x)
    return abs(p1 - p2) / max(p1, 1e-300)


def test_gamma_dual_method_agreement():
    for a in A_GRID:
        for x in X_GRID:
            assert cross_method_error(a, x) <= 1e-10, (a, x)


def test_gamma_limits():
    for a in A_GRID:
        assert reg_upper_gamma(a, 0.0) == 1.0
        assert reg_upper_gamma(a, 1e6) < 1e-12


def test_gamma_against_mpmath():
    mp = pytest.importorskip("mpmath")
    for a in A_GRID:
        for x in X_GRID:
            if x == 0.0:
                continue
            ref = float(mp.gammainc(a, x, mp.inf, regularized=True))
            got = reg_upper_gamma(a, x)
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("call", [
    lambda: lower_gamma_series(0.0, 1.0),
    lambda: upper_gamma_cf(1.0, -1.0),
    lambda: lower_gamma_cf(-2.0, 1.0),
    lambda: chi2_sf(1.0, 0),
])
def test_gamma_and_chi2_domain_errors_are_typed(call):
    with pytest.raises(OutOfDomain) as info:
        call()
    assert not isinstance(info.value, ValueError)


def test_chi2_sf_known_value():
    # chi2(1) upper tail at 3.841 is 0.05
    assert chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, rel=1e-9)


def test_chi_square_identical_rows():
    t = table_from_counts(["M", "F"], [10, 10], [20, 20])
    stat, dof, p = chi_square_independence(t)
    assert stat == 0.0 and dof == 1 and p == 1.0


def test_chi_square_hand_example():
    t = ContingencyTable(("a", "b"), ("x", "y"),
                         np.array([[20, 30], [30, 20]]))
    stat, dof, p = chi_square_independence(t)
    assert stat == pytest.approx(4.0)
    assert dof == 1
    assert p == pytest.approx(0.0455, abs=5e-4)


def test_chi_square_insufficient():
    t = ContingencyTable(("a", "b"), ("x", "y"), np.array([[1, 0], [0, 1]]))
    with pytest.raises(InsufficientData):
        chi_square_independence(t)


def test_chi_square_matches_permutation_mc():
    gen = np.random.default_rng(4)
    for _ in range(8):
        n_per_row = gen.integers(80, 200, size=2)
        p_col = gen.uniform(0.3, 0.7)
        counts = np.array(
            [[gen.binomial(n, p_col), 0] for n in n_per_row]
        )
        counts[:, 1] = n_per_row - counts[:, 0]
        t = ContingencyTable(("a", "b"), ("x", "y"), counts)
        try:
            stat, dof, p = chi_square_independence(t)
        except InsufficientData:
            continue
        p_mc, se = _independence_mc_pvalue(counts, stat, gen, n_rep=2000)
        assert abs(p - p_mc) <= 3 * se + 1e-9


def _independence_mc_pvalue(counts, observed_stat, gen, n_rep=2000):
    # resample tables from the fitted independence model -- the sampling
    # scheme the chi-square tail approximates; conditioning on both margins
    # instead gives a discrete distribution offset by the observed point
    # mass, which sits outside Monte Carlo noise at these table sizes
    n = int(counts.sum())
    probs = np.outer(counts.sum(axis=1), counts.sum(axis=0)).ravel() / n**2
    shape = counts.shape
    sim = gen.multinomial(n, probs, size=n_rep).reshape(n_rep, *shape)
    sim = sim.astype(float)
    expected = np.einsum("ij,ik->ijk", sim.sum(axis=2), sim.sum(axis=1)) / n
    stats = ((sim - expected) ** 2 / np.maximum(expected, 1e-12)).sum(axis=(1, 2))
    p = float(np.mean(stats >= observed_stat - 1e-12))
    se = math.sqrt(max(p * (1 - p), 1.0 / n_rep) / n_rep)
    return p, se


def test_two_proportion_equal():
    assert two_proportion_test(50, 100, 50, 100) == 1.0


def test_two_proportion_degenerate():
    assert two_proportion_test(0, 10, 0, 10) == 1.0
    assert two_proportion_test(10, 10, 10, 10) == 1.0


def test_two_proportion_known():
    # pooled z: p=0.8, se=sqrt(0.8*0.2*0.02), z=3.5355
    z = 0.2 / math.sqrt(0.8 * 0.2 * 0.02)
    expected = math.erfc(z / math.sqrt(2.0))
    assert two_proportion_test(90, 100, 70, 100) == pytest.approx(expected)
    assert expected == pytest.approx(4.07e-4, rel=0.01)


def test_two_proportion_strong_difference():
    assert two_proportion_test(700, 1000, 900, 1000) < 1e-6


def test_two_proportion_invalid():
    with pytest.raises(InvalidCounts):
        two_proportion_test(5, 4, 1, 10)
    with pytest.raises(InvalidCounts):
        two_proportion_test(1, 0, 1, 10)
