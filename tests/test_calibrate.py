"""Threshold calibration and the accuracy-parity test.

The threshold scan counts, at each grid point, the rows of each class on
either side from one sort of that class's values, and the parity test
counts per level from integer group codes. `_reference_best_threshold`
(one stable argsort and a cumulative count of positives) and
`_reference_parity_check` (one string mask per level) are the scan and the
test as they were written before; the results must keep every bit,
checked through repr, on inputs with heavy ties, -0.0 and degenerate
levels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aucal.calibrate import (
    CalibrationResult,
    ParityCheck,
    calibrate_global,
    calibrate_per_group,
)
from aucal.errors import EmptyInput, LengthMismatch
from aucal.data import AU_MAX, AU_MIN
from aucal.metrics import f1_score, select_threshold, threshold_grid
from aucal.rng import Rng
from aucal.stats import two_proportion_test


def brute_force_threshold(intensities, truth):
    """Independent oracle: scan every midpoint plus sentinels."""
    x = np.asarray(intensities, dtype=float)
    y = np.asarray(truth, dtype=int)
    distinct = np.unique(x)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    grid = np.concatenate([[max(distinct[0] - 0.5, 0.0)], mids,
                           [min(distinct[-1] + 0.5, 5.0)]])
    best_acc, best_t = -1.0, None
    for t in grid:
        acc = float(np.mean((x > t).astype(int) == y))
        if acc > best_acc + 1e-12:
            best_acc, best_t = acc, t
    return best_t, best_acc


def test_calibrate_global_separable():
    t, acc = calibrate_global([0, 1, 2, 3], [0, 0, 1, 1])
    assert t == pytest.approx(1.5)
    assert acc == 1.0


def test_calibrate_global_all_absent():
    t, acc = calibrate_global([1.0, 2.0], [0, 0])
    assert t > 2.0
    assert acc == 1.0


def test_calibrate_global_matches_brute_force():
    gen = Rng(3, ("calib",)).generator()
    for _ in range(10):
        n = 200
        y = (gen.random(n) < 0.5).astype(int)
        x = np.clip(gen.normal(1.5 + 1.2 * y, 0.9), 0, 5)
        t, acc = calibrate_global(x, y)
        bt, bacc = brute_force_threshold(x, y)
        assert acc == pytest.approx(bacc)


def test_scan_counts_label_1_as_positive_against_every_other_label():
    # the scan once summed the labels as positive counts: accuracy 5/3 here
    assert calibrate_global([1.0, 2.0, 3.0], [0, 2, 2]) == (3.5, 1.0)
    assert calibrate_global([1.0, 2.0, 3.0], [0, 1, -1]) == (1.5, 2 / 3)
    assert select_threshold([1.0, 2.0, 3.0], [2, 1, 1]) == (1.5, 1.0)


def test_calibrate_global_errors():
    with pytest.raises(LengthMismatch):
        calibrate_global([1, 2], [0])
    with pytest.raises(EmptyInput):
        calibrate_global([], [])


def test_calibrate_per_group_errors():
    with pytest.raises(LengthMismatch):
        calibrate_per_group([1, 2], [0, 1], ["F"])
    with pytest.raises(LengthMismatch):
        calibrate_per_group([1, 2], [0, 1, 1], ["F", "M"])
    with pytest.raises(EmptyInput):
        calibrate_per_group([], [], [])


def test_calibrate_global_accuracy_is_grid_max():
    gen = Rng(9, ("grid",)).generator()
    y = (gen.random(120) < 0.4).astype(int)
    x = np.clip(gen.normal(2.0 + y, 1.1), 0, 5)
    t, acc = calibrate_global(x, y)
    _, bacc = brute_force_threshold(x, y)
    assert acc == pytest.approx(bacc)
    assert acc == pytest.approx(float(np.mean((x > t).astype(int) == y)))


def test_per_group_symmetry():
    x = [0.5, 1.0, 3.0, 3.5] * 2
    y = [0, 0, 1, 1] * 2
    g = ["M"] * 4 + ["F"] * 4
    result = calibrate_per_group(x, y, g)
    assert result.per_group_thresholds["M"] == result.per_group_thresholds["F"]
    assert result.parity_p_value == 1.0


def test_per_group_shrinks_gap_on_shifted_distributions():
    # one group's intensities shifted: a single global threshold misserves
    # it, per-group calibration restores balance
    gen = Rng(7, ("shift",)).generator()
    n = 3000
    y = (gen.random(2 * n) < 0.5).astype(int)
    g = np.array(["M"] * n + ["F"] * n)
    shift = np.where(g == "F", 1.2, 0.0)
    x = np.clip(gen.normal(1.2 + 1.5 * y + shift, 0.55), 0, 5)
    result = calibrate_per_group(x, y, g)
    raw_gap = abs(result.per_group_accuracy_raw["M"]
                  - result.per_group_accuracy_raw["F"])
    cal_gap = abs(result.per_group_accuracy["M"]
                  - result.per_group_accuracy["F"])
    assert cal_gap < raw_gap
    assert result.parity_p_value > result.raw_parity_p_value


def test_per_group_never_below_global_threshold_accuracy():
    gen = Rng(21, ("pg",)).generator()
    n = 400
    y = (gen.random(2 * n) < 0.5).astype(int)
    g = np.array(["M"] * n + ["F"] * n)
    x = np.clip(gen.normal(1.5 + y + 0.8 * (g == "F"), 0.8), 0, 5)
    result = calibrate_per_group(x, y, g)
    for lvl in ("M", "F"):
        mask = g == lvl
        raw_acc = float(np.mean((x[mask] > result.global_threshold) == y[mask]))
        assert result.per_group_accuracy[lvl] >= raw_acc - 1e-12


def test_degenerate_group_flagged():
    x = [0.5, 1.0, 3.0, 3.5, 2.0, 2.5]
    y = [0, 0, 1, 1, 1, 1]
    g = ["M", "M", "M", "M", "F", "F"]  # F has truth all 1
    result = calibrate_per_group(x, y, g)
    assert result.degenerate_levels == ("F",)
    assert "F" not in result.per_group_thresholds
    assert result.parity_p_value == 1.0  # no pair left to test


def test_permutation_invariance():
    x = np.array([0.5, 1.0, 3.0, 3.5, 2.0, 2.5, 0.2, 4.0])
    y = np.array([0, 0, 1, 1, 1, 0, 0, 1])
    g = np.array(["M", "F", "M", "F", "M", "F", "M", "F"])
    base = calibrate_per_group(x, y, g)
    perm = Rng(2, ("perm",)).generator().permutation(len(x))
    shuffled = calibrate_per_group(x[perm], y[perm], g[perm])
    assert base.per_group_thresholds == shuffled.per_group_thresholds
    assert base.parity_p_value == shuffled.parity_p_value


def _scored_levels(**counts):
    """Intensities, truths and groups in which each level's calibrated
    threshold lies between 1.0 and 4.0 and gets right of its right + wrong
    rows right, for counts level=(right, wrong): the right rows are truth
    1 at 4.0 and truth 0 at 1.0, the wrong ones truth 1 at 1.0 and truth
    0 at 4.0, about half each."""
    x, y, groups = [], [], []
    for level, (right, wrong) in counts.items():
        for n, high, low in ((right, (4.0, 1), (1.0, 0)), (wrong, (1.0, 1), (4.0, 0))):
            rows = [high] * (n - n // 2) + [low] * (n // 2)
            x += [v for v, _ in rows]
            y += [t for _, t in rows]
            groups += [level] * n
    return x, y, groups


def test_accuracy_parity_equal_proportions():
    result = calibrate_per_group(*_scored_levels(A=(90, 10), B=(90, 10)))
    assert result.parity_p_value == 1.0
    assert result.per_group_accuracy == {"A": 0.9, "B": 0.9}


def test_accuracy_parity_close_proportions():
    # 859/1000 vs 860/1000 correct: nowhere near significant
    result = calibrate_per_group(*_scored_levels(A=(859, 141), B=(860, 140)))
    assert result.per_group_accuracy == {"A": 0.859, "B": 0.86}
    assert result.parity_p_value > 0.9


def test_accuracy_parity_strong_difference():
    result = calibrate_per_group(*_scored_levels(A=(700, 300), B=(900, 100)))
    assert result.parity_p_value < 1e-6


def test_accuracy_parity_k_levels():
    # every pair is tested: the smallest p is A's against C's, not a neighbour's
    result = calibrate_per_group(*_scored_levels(A=(6, 2), B=(7, 1), C=(8, 0)))
    assert result.per_group_accuracy == {"A": 0.75, "B": 0.875, "C": 1.0}
    assert result.parity_p_value == two_proportion_test(6, 8, 8, 8)
    assert result.parity_p_value < two_proportion_test(6, 8, 7, 8)


def _reference_best_threshold(values, labels, grid):
    order = np.argsort(values, kind="stable")
    xs, ys = values[order], labels[order]
    # pos_cum[i] = positives among the i smallest values
    pos_cum = np.concatenate([[0], np.cumsum(ys)])
    n_pos = int(ys.sum())
    # correct = (# y==0 with value <= t) + (# y==1 with value > t)
    below = np.searchsorted(xs, grid, side="right")
    pos_below = pos_cum[below]
    correct = (below - pos_below) + (n_pos - pos_below)
    best = int(np.argmax(correct))  # argmax returns the first (smallest t)
    return float(grid[best]), float(correct[best]) / values.size


def _reference_select_threshold(scores, labels):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    distinct = np.unique(s)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    grid = np.concatenate([[distinct[0] - 0.5], mids, [distinct[-1] + 0.5]])
    return _reference_best_threshold(s, y, grid)


def _reference_calibrate_global(x, y):
    return _reference_best_threshold(x, y, threshold_grid(x, (AU_MIN, AU_MAX)))


def _reference_parity_check(pred, truth, grp):
    acc, f1, correct, totals = {}, {}, {}, {}
    for lvl in sorted(set(grp.tolist())):
        mask = grp == lvl
        correct[lvl] = int(np.sum(pred[mask] == truth[mask]))
        totals[lvl] = int(mask.sum())
        acc[lvl] = correct[lvl] / totals[lvl]
        f1[lvl] = f1_score(pred[mask], truth[mask])
    levels = list(correct)
    pairwise = {
        (a, b): two_proportion_test(correct[a], totals[a], correct[b], totals[b])
        for i, a in enumerate(levels)
        for b in levels[i + 1:]
    }
    return ParityCheck(per_group_accuracy=acc, per_group_f1=f1,
                       p_value=min(pairwise.values(), default=1.0),
                       pairwise_p=pairwise)


def _reference_calibrate_per_group(x, y, grp, au_id):
    g_thr, g_acc = _reference_calibrate_global(x, y)
    raw = _reference_parity_check((x > g_thr).astype(int), y, grp)
    thresholds = {}
    cut = np.full(x.size, np.nan)  # each row's level threshold
    for lvl in raw.per_group_accuracy:
        mask = grp == lvl
        if y[mask].min() != y[mask].max():
            thresholds[lvl] = cut[mask] = _reference_calibrate_global(x[mask], y[mask])[0]
    degenerate = tuple(lvl for lvl in raw.per_group_accuracy if lvl not in thresholds)
    keep = ~np.isnan(cut)
    fit = _reference_parity_check((x[keep] > cut[keep]).astype(int), y[keep], grp[keep])
    return CalibrationResult(
        au_id=au_id,
        global_threshold=g_thr,
        global_accuracy=g_acc,
        per_group_thresholds=thresholds,
        per_group_accuracy=fit.per_group_accuracy,
        per_group_f1=fit.per_group_f1,
        parity_p_value=fit.p_value,
        per_group_accuracy_raw=raw.per_group_accuracy,
        raw_parity_p_value=min((p for pair, p in raw.pairwise_p.items()
                                if not set(pair) & set(degenerate)), default=1.0),
        degenerate_levels=degenerate,
    )


@st.composite
def tied_calibration_sets(draw):
    """Intensities rounded to 0-2 decimals (so many ties), some zeros signed
    -0.0, 0/1 truths and 1-3 group levels, one of them at times holding a
    single truth class."""
    n = draw(st.integers(1, 80))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    x = np.round(np.array(column(st.floats(0.0, 5.0))), draw(st.integers(0, 2)))
    x[(x == 0) & np.array(column(st.booleans()))] = -0.0
    y = np.array(column(st.integers(0, 1)))
    grp = np.array(column(st.sampled_from(["F", "M", "X"][:draw(st.integers(1, 3))])))
    if draw(st.booleans()):
        y[grp == grp[0]] = draw(st.integers(0, 1))
    return x, y, grp


@settings(max_examples=60, deadline=None)
@given(tied_calibration_sets())
def test_calibration_keeps_the_reference_bits(case):
    x, y, grp = case
    want = _reference_calibrate_per_group(x, y, grp, "AU6")
    assert repr(calibrate_per_group(x, y, grp, au_id="AU6")) == repr(want)
    assert repr(calibrate_per_group(x.tolist(), y.tolist(), grp.tolist(),
                                    au_id="AU6")) == repr(want)
    if y.min() != y.max():
        assert repr(select_threshold(x, y)) == repr(_reference_select_threshold(x, y))
        assert repr(select_threshold(-x, y)) == repr(_reference_select_threshold(-x, y))
