"""AU binarization threshold calibration and recognition-parity checks.

Thresholds are picked from metrics.threshold_grid (midpoints of
consecutive distinct intensities plus one candidate below the minimum and
one above the maximum, those two kept in [AU_MIN, AU_MAX]), maximizing
the accuracy of the strict-comparison predictor 1[intensity > t].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import AU_MAX, AU_MIN
from .errors import EmptyInput, LengthMismatch
from .metrics import best_threshold, f1_score, threshold_grid
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
    return best_threshold(x, y, threshold_grid(x, (AU_MIN, AU_MAX)))


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
    levels, codes = np.unique(grp, return_inverse=True)
    return _parity(pred, truth, levels.tolist(), codes)


def _parity(pred: np.ndarray, truth: np.ndarray, levels: list, codes: np.ndarray) -> ParityCheck:
    """accuracy_parity_check over the levels that hold a row; row i's level
    is levels[codes[i]]."""
    totals = np.bincount(codes, minlength=len(levels)).tolist()
    correct = np.bincount(codes[pred == truth], minlength=len(levels)).tolist()
    held = [k for k, total in enumerate(totals) if total]
    pairwise = {(levels[a], levels[b]):
                two_proportion_test(correct[a], totals[a], correct[b], totals[b])
                for i, a in enumerate(held) for b in held[i + 1:]}
    return ParityCheck(per_group_accuracy={levels[k]: correct[k] / totals[k] for k in held},
                       per_group_f1={levels[k]: f1_score(pred[codes == k], truth[codes == k])
                                     for k in held},
                       p_value=min(pairwise.values(), default=1.0), pairwise_p=pairwise)


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
    levels, codes = np.unique(grp, return_inverse=True)
    levels = levels.tolist()

    g_thr, g_acc = calibrate_global(x, y)
    raw = _parity((x > g_thr).astype(int), y, levels, codes)
    thresholds = {}
    cut = np.full(len(levels), np.nan)  # each level's threshold, by code
    for k, lvl in enumerate(levels):
        mask = codes == k
        if y[mask].min() != y[mask].max():
            thresholds[lvl] = cut[k] = calibrate_global(x[mask], y[mask])[0]
    degenerate = tuple(lvl for lvl in levels if lvl not in thresholds)
    keep = ~np.isnan(cut)[codes]
    fit = _parity((x[keep] > cut[codes[keep]]).astype(int), y[keep], levels, codes[keep])

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
