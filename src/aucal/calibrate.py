"""AU binarization threshold calibration and recognition-parity checks.

Thresholds are picked from the empirical candidate grid (midpoints of
consecutive distinct intensities plus one candidate below the minimum and
one above the maximum), maximizing the accuracy of the strict-comparison
predictor 1[intensity > t].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import AU_MAX, AU_MIN
from .errors import EmptyInput, LengthMismatch
from .metrics import best_threshold, f1_score
from .stats import two_proportion_test


@dataclass(frozen=True)
class CalibrationResult:
    au_id: str
    global_threshold: float
    global_accuracy: float
    per_group_thresholds: Mapping[str, float]
    per_group_accuracy: Mapping[str, float]
    per_group_f1: Mapping[str, float]
    parity_p_value: float
    # accuracy per level under the single global threshold (the "raw" column)
    per_group_accuracy_raw: Mapping[str, float] = field(default_factory=dict)
    raw_parity_p_value: float = 1.0
    degenerate_levels: tuple[str, ...] = ()


@dataclass(frozen=True)
class ParityCheck:
    per_group_accuracy: Mapping[str, float]
    per_group_f1: Mapping[str, float]
    p_value: float
    pairwise_p: Mapping[tuple[str, str], float] = field(default_factory=dict)


def _candidate_grid(values: np.ndarray) -> np.ndarray:
    distinct = np.unique(values)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    lo = max(distinct[0] - 0.5, AU_MIN)
    hi = min(distinct[-1] + 0.5, AU_MAX)
    return np.unique(np.concatenate([[lo], mids, [hi]]))


def calibrate_global(
    intensities: Sequence[float], truth_presence: Sequence[int]
) -> tuple[float, float]:
    """Accuracy-maximizing threshold over the candidate grid; ties broken
    toward the smallest threshold."""
    x = np.asarray(intensities, dtype=float)
    y = np.asarray(truth_presence, dtype=int)
    if x.size != y.size:
        raise LengthMismatch(f"{x.size} intensities vs {y.size} truths")
    if x.size == 0:
        raise EmptyInput("no samples")
    return best_threshold(x, y, _candidate_grid(x))


def accuracy_parity_check(
    predicted_presence: Sequence[int],
    truth_presence: Sequence[int],
    groups: Sequence[str],
) -> ParityCheck:
    """Per-level accuracy/F1 plus a two-proportion z-test on the accuracy
    counts (pairwise matrix for more than two levels)."""
    pred = np.asarray(predicted_presence, dtype=int)
    truth = np.asarray(truth_presence, dtype=int)
    grp = np.asarray(groups)
    if not (pred.size == truth.size == grp.size):
        raise LengthMismatch("predicted/truth/groups lengths differ")
    acc, f1, correct, totals = {}, {}, {}, {}
    for lvl in sorted(set(grp.tolist())):
        mask = grp == lvl
        correct[lvl] = int(np.sum(pred[mask] == truth[mask]))
        totals[lvl] = int(mask.sum())
        acc[lvl] = correct[lvl] / totals[lvl]
        f1[lvl] = f1_score(pred[mask], truth[mask])
    pairwise = _pairwise_p(correct, totals)
    return ParityCheck(per_group_accuracy=acc, per_group_f1=f1,
                       p_value=min(pairwise.values(), default=1.0),
                       pairwise_p=pairwise)


def _pairwise_p(correct: Mapping[str, int], totals: Mapping[str, int]) -> dict:
    """Two-proportion z-test p-value of the accuracy counts for every
    pair of the levels in correct, in their order."""
    levels = list(correct)
    return {
        (a, b): two_proportion_test(correct[a], totals[a], correct[b], totals[b])
        for i, a in enumerate(levels)
        for b in levels[i + 1:]
    }


def calibrate_per_group(
    intensities: Sequence[float],
    truth_presence: Sequence[int],
    groups: Sequence[str],
    au_id: str = "",
) -> CalibrationResult:
    """Per-level accuracy-maximizing thresholds plus the parity test on the
    recalibrated accuracies. Levels lacking both truth classes are flagged
    as degenerate and omitted from the parity test."""
    x = np.asarray(intensities, dtype=float)
    y = np.asarray(truth_presence, dtype=int)
    grp = np.asarray(groups)
    if not (x.size == y.size == grp.size):
        raise LengthMismatch("intensities/truth/groups lengths differ")
    if x.size == 0:
        raise EmptyInput("no samples")

    g_thr, g_acc = calibrate_global(x, y)
    levels = sorted(set(grp.tolist()))
    thresholds, accs, f1s, raw_accs = {}, {}, {}, {}
    correct, totals, raw_correct = {}, {}, {}
    degenerate = []
    for lvl in levels:
        mask = grp == lvl
        yl = y[mask]
        xl = x[mask]
        raw_pred = (xl > g_thr).astype(int)
        raw_accs[lvl] = float(np.mean(raw_pred == yl))
        raw_correct[lvl] = int(np.sum(raw_pred == yl))
        totals[lvl] = int(mask.sum())
        if yl.min(initial=1) == yl.max(initial=0):
            degenerate.append(lvl)
            continue
        thr, acc = calibrate_global(xl, yl)
        pred = (xl > thr).astype(int)
        thresholds[lvl] = thr
        accs[lvl] = acc
        f1s[lvl] = f1_score(pred, yl)
        correct[lvl] = int(np.sum(pred == yl))
    raw_correct = {lvl: raw_correct[lvl] for lvl in levels if lvl not in degenerate}

    return CalibrationResult(
        au_id=au_id,
        global_threshold=g_thr,
        global_accuracy=g_acc,
        per_group_thresholds=thresholds,
        per_group_accuracy=accs,
        per_group_f1=f1s,
        parity_p_value=min(_pairwise_p(correct, totals).values(), default=1.0),
        per_group_accuracy_raw=raw_accs,
        raw_parity_p_value=min(_pairwise_p(raw_correct, totals).values(), default=1.0),
        degenerate_levels=tuple(degenerate),
    )
