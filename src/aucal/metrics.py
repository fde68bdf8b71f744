"""Evaluation protocol: fair test-set construction, accuracy-maximizing
decision threshold, and the Calders-Verwer discrimination score."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset
from .errors import (
    EmptyInput,
    InfeasibleBalance,
    InsufficientData,
    Misaligned,
    MissingGroup,
    SingleClass,
)
from .rng import Rng

EASY_LOW = 1e-5
EASY_HIGH = 0.99999


@dataclass(frozen=True)
class EvalResult:
    threshold: float
    accuracy: float
    f1: float
    per_group_positive_rate: Mapping[str, float]
    disc_signed: float
    disc_abs: float


def cv_discrimination(
    predictions: Sequence[int],
    groups: Sequence[str],
    positive_group: str,
) -> tuple[float, float]:
    """Calders-Verwer score: positive prediction rate of positive_group
    minus the other group's, plus its absolute value."""
    pred = np.asarray(predictions, dtype=int)
    grp = np.asarray(groups)
    levels = sorted(set(grp.tolist()))
    if positive_group not in levels:
        raise MissingGroup(positive_group)
    if len(levels) != 2:
        raise InsufficientData(f"need exactly two group levels, got {levels}")
    (other,) = set(levels) - {positive_group}
    rate_pos = float(pred[grp == positive_group].mean())
    rate_other = float(pred[grp == other].mean())
    signed = rate_pos - rate_other
    return signed, abs(signed)


def select_threshold(
    scores: Sequence[float], labels: Sequence[int]
) -> tuple[float, float]:
    """Accuracy-maximizing threshold for 1[score > t] over the scores'
    threshold_grid; ties broken toward the smallest threshold."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    if s.size != y.size:
        raise Misaligned("scores/labels length mismatch")
    if s.size == 0:
        raise EmptyInput("no scores to select a threshold for")
    if y.min() == y.max():
        raise SingleClass("need both classes to select a threshold")
    return best_threshold(s, y, threshold_grid(s))


def threshold_grid(values: np.ndarray, clamp=(-np.inf, np.inf)) -> np.ndarray:
    """The candidate thresholds of a scan, sorted and distinct: the
    midpoints of consecutive distinct values, one point 0.5 below the
    smallest and one 0.5 above the largest, those two kept inside clamp."""
    distinct = np.unique(values)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    lo, hi = max(distinct[0] - 0.5, clamp[0]), min(distinct[-1] + 0.5, clamp[1])
    return np.unique(np.concatenate([[lo], mids, [hi]]))


def best_threshold(
    values: np.ndarray, labels: np.ndarray, grid: np.ndarray
) -> tuple[float, float]:
    """The threshold t in grid that maximizes the accuracy of
    1[value > t], the smallest on ties, and that accuracy. Label 1 is the
    positive class, against every other label."""
    pos = labels == 1
    # correct = (# label != 1 with value <= t) + (# label == 1 with value > t)
    correct = (np.searchsorted(np.sort(values[~pos]), grid, side="right") + np.count_nonzero(pos)
               - np.searchsorted(np.sort(values[pos]), grid, side="right"))
    best = np.argmax(correct)  # argmax returns the first (smallest t)
    return float(grid[best]), float(correct[best]) / values.size


def f1_score(pred: np.ndarray, truth: np.ndarray) -> float:
    tp = np.count_nonzero((pred == 1) & (truth == 1))
    fp = np.count_nonzero((pred == 1) & (truth == 0))
    fn = np.count_nonzero((pred == 0) & (truth == 1))
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def build_fair_test_set(
    dataset: Dataset,
    scores: Sequence[float],
    group_attr: str,
    seed: int = 0,
) -> Dataset:
    """Prune easy cases by reference-model score, keeping EASY_LOW <= s <=
    EASY_HIGH, then equalize P(Y=1 | group) by down-sampling the positives
    of each group above the lowest rate, with label 1 the positive class
    against every other label."""
    s = np.asarray(scores, dtype=float)
    if s.size != len(dataset):
        raise Misaligned(f"{s.size} scores for {len(dataset)} records")
    pruned = dataset.subset(np.flatnonzero((s >= EASY_LOW) & (s <= EASY_HIGH)))
    if len(pruned) == 0:
        raise InfeasibleBalance(f"no score of the {s.size} rows lies in "
                                f"[{EASY_LOW}, {EASY_HIGH}]")

    y = (pruned.labels() == 1).astype(int)
    codes = pruned.group_codes(group_attr)
    levels = pruned.group_levels(group_attr)
    rng = Rng(seed, ("fair_test",))

    totals = np.bincount(codes, minlength=len(levels))
    positives = np.bincount(codes[y == 1], minlength=len(levels))
    present = np.flatnonzero(totals)  # the levels left after pruning
    empty = present[positives[present] == 0]
    if empty.size:
        raise InfeasibleBalance(f"group {levels[empty[0]]!r} has no positives")
    rates = positives[present] / totals[present]
    target_rate = float(rates.min())
    keep = np.ones(len(pruned), dtype=bool)
    for code in present[rates > target_rate]:
        pos_idx = np.flatnonzero((codes == code) & (y == 1))
        # remove k positives so (pos - k)/(n - k) == target_rate; 0 <= k <= pos
        k = round((pos_idx.size - target_rate * int(totals[code])) / (1.0 - target_rate))
        gen = rng.child(f"rate-{levels[code]}").generator()
        keep[gen.choice(pos_idx, size=k, replace=False)] = False
    return pruned.subset(np.flatnonzero(keep))


def evaluate(
    scores: Sequence[float],
    test_dataset: Dataset,
    group_attr: str,
    positive_group: str,
) -> EvalResult:
    """Threshold the scores for maximum accuracy, then report accuracy,
    F1, per-group positive rates, and both Disc forms. Label 1 is the
    positive class, against every other label."""
    s = np.asarray(scores, dtype=float)
    y = (test_dataset.labels() == 1).astype(int)
    codes = test_dataset.group_codes(group_attr)
    levels = test_dataset.group_levels(group_attr)
    threshold, accuracy = select_threshold(s, y)
    pred = (s > threshold).astype(int)
    rates = {levels[code]: float(pred[codes == code].mean()) for code in np.unique(codes)}
    signed, absolute = cv_discrimination(
        pred, test_dataset.group_values(group_attr), positive_group
    )
    return EvalResult(
        threshold=threshold,
        accuracy=accuracy,
        f1=f1_score(pred, y),
        per_group_positive_rate=rates,
        disc_signed=signed,
        disc_abs=absolute,
    )


@dataclass(frozen=True)
class RunSummary:
    name: str
    mean_disc_abs: float
    std_disc_abs: float
    mean_accuracy: float
    std_accuracy: float
    n_runs: int


def summarize_runs(name: str, results: Sequence[EvalResult]) -> RunSummary:
    """Mean +/- sample (n-1) standard deviation over seeded runs."""
    if len(results) == 0:
        raise EmptyInput(f"{name}: no runs to summarize")
    disc = np.array([r.disc_abs for r in results])
    acc = np.array([r.accuracy for r in results])
    ddof = 1 if len(results) > 1 else 0
    return RunSummary(
        name=name,
        mean_disc_abs=float(disc.mean()),
        std_disc_abs=float(disc.std(ddof=ddof)),
        mean_accuracy=float(acc.mean()),
        std_accuracy=float(acc.std(ddof=ddof)),
        n_runs=len(results),
    )
