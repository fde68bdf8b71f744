import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aucal.errors import InsufficientData, InvalidCounts, OutOfDomain
from aucal.stats import (
    chi2_sf,
    chi_square_independence,
    lower_gamma_cf,
    lower_gamma_series,
    sigmoid,
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
        assert upper_gamma_cf(a, 0.0) == 1.0
        assert upper_gamma_cf(a, 1e6) < 1e-12


def test_gamma_against_mpmath():
    mp = pytest.importorskip("mpmath")
    for a in A_GRID:
        for x in X_GRID:
            if x == 0.0:
                continue
            ref = float(mp.gammainc(a, x, mp.inf, regularized=True))
            got = upper_gamma_cf(a, x)
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("call", [
    lambda: lower_gamma_series(0.0, 1.0),
    lambda: lower_gamma_series(-0.5, 1.0),
    lambda: lower_gamma_series(1.0, -0.5),
    lambda: upper_gamma_cf(0.0, 1.0),
    lambda: upper_gamma_cf(-0.5, 1.0),
    lambda: upper_gamma_cf(1.0, -1.0),
    lambda: upper_gamma_cf(1.0, -0.5),
    lambda: lower_gamma_cf(-2.0, 1.0),
    lambda: lower_gamma_cf(0.0, 1.0),
    lambda: lower_gamma_cf(-0.5, 1.0),
    lambda: lower_gamma_cf(1.0, -0.5),
    lambda: lower_gamma_series(5e-324, 1.0),  # 1 / a overflows
    lambda: chi2_sf(1.0, 0),
    lambda: chi2_sf(100.0, -2),
    lambda: chi2_sf(-1.0, 1),
])
def test_gamma_and_chi2_domain_errors_are_typed(call):
    with pytest.raises(OutOfDomain) as info:
        call()
    assert not isinstance(info.value, ValueError)


def test_each_gamma_route_at_small_a_and_x():
    # P(1/2, x) = erf(sqrt x), P(1, x) = 1 - e^-x and Q(3/2, x) = erfc(sqrt x)
    # + 2 sqrt(x/pi) e^-x; Q(3/2, 1/2) starts the continued fraction at
    # b = x + 1 - a = 0, and P(1, 2) needs lower_gamma_cf's early stop
    x = 0.5
    assert lower_gamma_cf(1.0, 2.0) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)
    assert lower_gamma_series(0.5, x) == pytest.approx(math.erf(math.sqrt(x)), rel=1e-12)
    assert lower_gamma_cf(0.5, x) == pytest.approx(math.erf(math.sqrt(x)), rel=1e-12)
    assert upper_gamma_cf(0.5, x) == pytest.approx(math.erfc(math.sqrt(x)), rel=1e-12)
    assert upper_gamma_cf(1.5, x) == pytest.approx(
        math.erfc(math.sqrt(x)) + 2 * math.sqrt(x / math.pi) * math.exp(-x), rel=1e-12)
    assert (lower_gamma_series(0.5, 0.0), upper_gamma_cf(0.5, 0.0),
            lower_gamma_cf(0.5, 0.0)) == (0.0, 1.0, 0.0)
    # at x = a + 1, Q takes its continued fraction and P its own, whose last
    # bits differ from the other route's
    assert upper_gamma_cf(7.0, 8.0) != 1.0 - lower_gamma_series(7.0, 8.0)
    assert lower_gamma_cf(1.0, 2.0) != 1.0 - upper_gamma_cf(1.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(sys.float_info.min, 60.0), st.floats(0.0, 200.0))
@example(3.0, 1e-9)
@example(2.0, 1e-9)
@example(10.0, 0.5)
@example(20.0, 3.0)  # the continued fraction alone gave Q = 1.0066 here
@example(1e-200, 1.0)  # P's fraction overflows where P is 1 to double precision
def test_each_gamma_function_is_a_probability_everywhere(a, x):
    q, p = upper_gamma_cf(a, x), lower_gamma_cf(a, x)
    assert 0.0 <= q <= 1.0 and 0.0 <= p <= 1.0
    if x < a + 1.0:
        assert q == 1.0 - lower_gamma_series(a, x)
    assert abs(p + q - 1.0) <= 1e-10


def test_sigmoid_clips_eta_at_35():
    s = sigmoid(np.array([-40.0, -35.0, -34.0, 34.0, 35.0, 40.0]))
    assert s[0] == s[1] < s[2] and s[3] < s[4] == s[5]


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


@pytest.mark.parametrize("counts, message", [
    ([[0, 0], [0, 0]], "empty table"),
    ([[1, 0], [0, 0]], "expected count below"),
])
def test_chi_square_too_sparse(counts, message):
    with pytest.raises(InsufficientData, match=message):
        chi_square_independence(ContingencyTable(("a", "b"), ("x", "y"), np.array(counts)))


def test_chi_square_tests_expected_counts_of_exactly_min_expected():
    assert chi_square_independence(table_from_counts(["a", "b"], [5, 5], [10, 10])) == (0.0, 1, 1.0)


@pytest.mark.parametrize("rows, cols, counts", [
    (("a",), ("x", "y"), [[1, 2]]),
    (("a", "b"), ("x",), [[1], [2]]),
    (("a", "b"), ("x", "y"), [[-1, 2], [3, 4]]),
])
def test_contingency_table_needs_two_by_two_nonnegative_counts(rows, cols, counts):
    with pytest.raises(InvalidCounts):
        ContingencyTable(rows, cols, np.array(counts))


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
    with pytest.raises(InvalidCounts):
        two_proportion_test(0, 0, 1, 10)
    with pytest.raises(InvalidCounts):
        two_proportion_test(-1, 10, 1, 10)
