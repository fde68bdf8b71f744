"""Statistical primitives: regularized incomplete gamma, chi-square,
two-proportion z-test, and the contingency-table container.

The incomplete gamma is implemented twice on purpose (power series and
Lentz continued fractions): the two routes cross-validate each other and
back the chi-square p-values with no external dependency. Each gamma
function returns a probability for every a > 0 and x >= 0, by its own
method where that method converges and the other route elsewhere; the
cross-checks compare the two methods where each converges.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientData, InvalidCounts, OutOfDomain

_EPS = 1e-15
_MAX_ITER = 10000


def _check_domain(a: float, x: float) -> None:
    # every route divides by a, and 1 / a overflows for a subnormal a
    if x < 0 or a < sys.float_info.min:
        raise OutOfDomain("require x >= 0 and a > 0 (a normal float)")


def _regularized(total: float, a: float, x: float) -> float:
    """total * x^a e^-x / Gamma(a), the last step of the series and both
    fractions: 0 at x = 0, and capped at 1, since near a = 0 the series and
    P's fraction can round past 1 or overflow where P is 1 to double precision."""
    if x == 0.0:
        return 0.0
    return min(total * math.exp(-x + a * math.log(x) - math.lgamma(a)), 1.0)


def _lentz(b: float, step: float, numerator: Callable[[int], float]) -> float:
    """1 / (b + a_1 / (b + step + a_2 / (b + 2 step + ...))) with
    a_i = numerator(i), by the modified Lentz method."""
    tiny = 1e-300
    c = 1.0 / tiny
    d = 1.0 / (b or tiny)
    h = d
    for i in range(1, _MAX_ITER):
        an = numerator(i)
        b += step
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by power series.

    Converges for all x >= 0; fastest for x < a + 1.
    """
    _check_domain(a, x)
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return _regularized(total, a, x)


def upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x): the Legendre continued
    fraction (modified Lentz) from x = a + 1 on, where it converges, and
    1 - lower_gamma_series below."""
    _check_domain(a, x)
    if x < a + 1.0:
        return 1.0 - lower_gamma_series(a, x)
    return _regularized(_lentz(x + 1.0 - a, 2.0, lambda i: -i * (i - a)), a, x)


def lower_gamma_cf(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x): its own continued
    fraction (modified Lentz) up to x = a + 1, where it converges best,
    and 1 - upper_gamma_cf above."""
    _check_domain(a, x)
    if x > a + 1.0:
        return 1.0 - upper_gamma_cf(a, x)

    # gamma(a,x) = x^a e^-x * CF with a_1 = 1, b_1 = a, b_n = a + n - 1,
    # a_{2m} = -(a+(m-1))x (a + m - 1.0 loses a near 0), a_{2m+1} = m x.
    def numerator(i: int) -> float:
        m = (i + 1) // 2
        return -(a + (m - 1)) * x if i % 2 == 1 else m * x

    return _regularized(_lentz(a, 1.0, numerator), a, x)


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X >= x) of the chi-square distribution; the gamma
    routes refuse dof < 1 and x < 0 as OutOfDomain."""
    return upper_gamma_cf(dof / 2.0, x / 2.0)


def sigmoid(eta: np.ndarray) -> np.ndarray:
    """Logistic function, with eta clipped to [-35, 35] against overflow."""
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -35.0, 35.0)))


@dataclass(frozen=True)
class ContingencyTable:
    """Counts of label values (columns) per group level (rows) within one
    conditioning cell."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 2:
            raise InvalidCounts("counts must be a 2-d matrix")
        if counts.shape != (len(self.row_labels), len(self.col_labels)):
            raise InvalidCounts("counts shape does not match labels")
        if counts.shape[0] < 2 or counts.shape[1] < 2:
            raise InvalidCounts("need at least 2 rows and 2 columns")
        if (counts < 0).any():
            raise InvalidCounts("counts must be nonnegative")


def chi_square_independence(
    table: ContingencyTable, min_expected: float = 5.0
) -> tuple[float, int, float]:
    """Pearson chi-square test of independence.

    Raises InsufficientData when any expected count falls below
    min_expected (the table is too sparse for the asymptotic test).
    """
    counts = table.counts.astype(float)
    total = counts.sum()
    if total <= 0:
        raise InsufficientData("empty table")
    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)
    expected = np.outer(row_sums, col_sums) / total
    if (expected < min_expected).any():
        raise InsufficientData(
            f"expected count below {min_expected} "
            f"(min {expected.min():.3g})"
        )
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = (counts.shape[0] - 1) * (counts.shape[1] - 1)
    p = chi2_sf(stat, dof)
    return stat, dof, p


def two_proportion_test(k1: int, n1: int, k2: int, n2: int) -> float:
    """Pooled two-sided two-proportion z-test; returns the p-value.

    A degenerate pooled proportion (all successes or all failures) carries
    no evidence against equality, so p = 1.
    """
    for k, n in ((k1, n1), (k2, n2)):
        if n < 1 or k < 0 or k > n:
            raise InvalidCounts(f"invalid counts: k={k}, n={n}")
    pooled = (k1 + k2) / (n1 + n2)
    if pooled <= 0.0 or pooled >= 1.0:
        return 1.0
    p1 = k1 / n1
    p2 = k2 / n2
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    z = (p1 - p2) / se
    return math.erfc(abs(z) / math.sqrt(2.0))


def table_from_counts(
    levels: Sequence[str], positives: Sequence[int], totals: Sequence[int]
) -> ContingencyTable:
    """Rows = group levels, columns = (positive, negative)."""
    pos = np.asarray(positives, dtype=np.int64)
    tot = np.asarray(totals, dtype=np.int64)
    counts = np.stack([pos, tot - pos], axis=1)
    return ContingencyTable(
        row_labels=tuple(levels),
        col_labels=("positive", "negative"),
        counts=counts,
    )
