"""Annotation-bias auditing: conditional label proportions per AU cell and
group, chi-square independence tests, logistic-regression significance of
group membership given AU intensities, and plot-ready bias curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset, au_sort_key
from .errors import InvalidConfig, Separation, SingularDesign
from .stats import (
    InsufficientData,
    chi_square_independence,
    sigmoid,
    table_from_counts,
)


@dataclass(frozen=True)
class LogisticFit:
    beta: np.ndarray
    std_errors: np.ndarray
    wald_z: np.ndarray
    p_values: np.ndarray
    converged: bool
    iterations: int
    log_likelihood: float
    covariance: np.ndarray
    term_names: tuple[str, ...] = ()

    def predict(self, design: np.ndarray) -> np.ndarray:
        return sigmoid(np.asarray(design, dtype=float) @ self.beta)


def _log_likelihood(eta: np.ndarray, y: np.ndarray) -> float:
    # -sum(log(1 + exp(-s*eta))) computed stably
    s = np.where(y == 1, 1.0, -1.0)
    return float(-np.logaddexp(0.0, -s * eta).sum())


def logistic_fit(
    design: np.ndarray,
    labels: Sequence[int],
    term_names: Sequence[str] | None = None,
) -> LogisticFit:
    """Maximum-likelihood logistic regression by IRLS (Newton) with
    step-halving. Standard errors come from the inverse observed
    information; Wald z and two-sided p-values per coefficient.

    Raises Separation when the fitted probabilities pin to {0, 1} and
    SingularDesign when the information matrix is not invertible or its
    inverse's diagonal is not finite and positive.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(labels, dtype=float)
    n, p = X.shape
    if n <= p:
        raise SingularDesign(f"n={n} <= p={p}")
    # a constant non-intercept column makes the information singular
    const_cols = np.where(X.std(axis=0) == 0)[0]
    if len(const_cols) > 1 or (len(const_cols) == 1 and const_cols[0] != 0):
        raise SingularDesign("duplicate constant column")

    beta = np.zeros(p)
    eta = X @ beta
    ll = _log_likelihood(eta, y)
    iterations = 0
    converged = False
    for iterations in range(1, 101):  # at most 100 Newton steps
        mu = sigmoid(eta)
        w = mu * (1.0 - mu)
        grad = X.T @ (y - mu)
        info = (X * w[:, None]).T @ X
        try:
            delta = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            if np.max(np.minimum(mu, 1.0 - mu)) < 1e-8:
                raise Separation("fitted probabilities pinned to {0, 1}")
            raise SingularDesign("information matrix singular")
        # step-halving keeps the log-likelihood non-decreasing
        step = 1.0
        for _ in range(40):
            cand = beta + step * delta
            cand_eta = X @ cand
            cand_ll = _log_likelihood(cand_eta, y)
            if cand_ll >= ll - 1e-12:
                break
            step *= 0.5
        beta, eta, ll = cand, cand_eta, cand_ll
        if np.max(np.abs(step * delta)) < 1e-10:
            converged = True
            break
        mu = sigmoid(eta)
        if np.max(np.minimum(mu, 1.0 - mu)) < 1e-10:
            raise Separation("fitted probabilities pinned to {0, 1}")

    mu = sigmoid(eta)
    if np.max(np.minimum(mu, 1.0 - mu)) < 1e-8 and not converged:
        raise Separation("fitted probabilities pinned to {0, 1}")
    w = mu * (1.0 - mu)
    info = (X * w[:, None]).T @ X
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise SingularDesign("information matrix singular at optimum")
    variances = np.diag(cov)  # an ill-conditioned info can invert to negatives
    if not np.all(np.isfinite(variances) & (variances > 0)):
        raise SingularDesign("covariance diagonal not finite and positive at optimum")
    se = np.sqrt(variances)
    z = beta / se
    pvals = np.array([math.erfc(abs(v) / math.sqrt(2.0)) for v in z])
    return LogisticFit(
        beta=beta,
        std_errors=se,
        wald_z=z,
        p_values=pvals,
        converged=converged,
        iterations=iterations,
        log_likelihood=ll,
        covariance=cov,
        term_names=tuple(term_names or ()),
    )


@dataclass(frozen=True)
class CellResult:
    condition: str
    n_per_group: Mapping[str, int]
    positives_per_group: Mapping[str, int]
    proportion_per_group: Mapping[str, float]
    status: str  # "tested" | "insufficient_data"
    delta: float | None = None
    chi_square: float | None = None
    dof: int | None = None
    p_value: float | None = None
    argmax_level: str | None = None
    merged_levels: tuple[str, ...] = ()


@dataclass(frozen=True)
class BiasReport:
    group_attr: str
    group_levels: tuple[str, ...]
    target_label: int
    conditioning: tuple[str, ...]
    mode: str
    cells: tuple[CellResult, ...]
    logistic: LogisticFit | None = None
    logistic_error: str | None = None
    metadata: Mapping[str, object] = field(default_factory=dict)


def _cell_masks(
    dataset: Dataset, conditioning: Sequence[str], mode: str
) -> list[tuple[str, np.ndarray]]:
    aus = sorted(conditioning, key=au_sort_key)
    keys = dataset.cell_keys(aus)
    if mode == "joint":
        return [(keys.key(code).describe(), keys.codes == code)
                for code in range(2 ** len(aus))]
    if mode == "marginal":
        # a one-AU cell code is that AU's presence bit
        return [(f"{au}={b}", dataset.cell_keys([au]).codes == b)
                for au in aus for b in (0, 1)]
    raise InvalidConfig(f"unknown conditioning mode {mode!r}")


def group_design(
    dataset: Dataset, au_ids: Sequence[str], group_attr: str
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Design matrix: intercept + raw AU intensities + one indicator per
    non-reference group level (reference = first declared level)."""
    aus = sorted(au_ids, key=au_sort_key)
    levels = dataset.attribute_levels[group_attr]
    cols = [np.ones(len(dataset))]
    names = ["intercept"]
    for au in aus:
        cols.append(dataset.intensities(au))
        names.append(au)
    codes = dataset.group_codes(group_attr)
    for code, lvl in enumerate(levels[1:], start=1):
        cols.append((codes == code).astype(float))
        names.append(f"{group_attr}={lvl}")
    return np.stack(cols, axis=1), tuple(names)


def _build_cell(
    condition: str,
    levels: Sequence[str],
    positives: dict[str, int],
    totals: dict[str, int],
    min_expected: float,
    small_level_policy: str = "insufficient",
) -> CellResult:
    present = [lvl for lvl in levels if totals.get(lvl, 0) > 0]
    props = {lvl: positives[lvl] / totals[lvl] for lvl in present}
    delta = None
    if len(levels) == 2 and len(present) == 2:
        delta = props[present[1]] - props[present[0]]

    # (positives, total) per table row; the merge bucket "other" stays last
    rows = {lvl: (positives[lvl], totals[lvl]) for lvl in present}
    merged: tuple[str, ...] = ()
    test = None
    while len(rows) >= 2:
        table = table_from_counts(list(rows), *zip(*rows.values()))
        try:
            test = chi_square_independence(table, min_expected=min_expected)
            break
        except InsufficientData:
            if small_level_policy != "merge" or len(rows) <= 2:
                break
            # fold the thinnest level into "other" and retry
            smallest = min((r for r in rows if r != "other"), key=lambda r: rows[r][1])
            pos, tot = rows.pop(smallest)
            other_pos, other_tot = rows.get("other", (0, 0))
            rows["other"] = (other_pos + pos, other_tot + tot)
            merged += (smallest,)

    stat = dof = p = argmax = None
    if test is not None:
        stat, dof, p = test
        if p < 0.05:
            argmax = max(rows, key=lambda r: rows[r][0] / rows[r][1])
    return CellResult(
        condition=condition,
        n_per_group=dict(totals),
        positives_per_group=dict(positives),
        proportion_per_group=props,
        status="insufficient_data" if test is None else "tested",
        delta=delta,
        chi_square=stat,
        dof=dof,
        p_value=p,
        argmax_level=argmax,
        merged_levels=merged,
    )


def conditional_bias_report(
    dataset: Dataset,
    conditioning: Sequence[str],
    group_attr: str,
    mode: str = "joint",
    min_expected: float = 5.0,
    include_logistic: bool = True,
    small_level_policy: str = "insufficient",
) -> BiasReport:
    """Per-cell conditional positive proportions, deltas, and chi-square
    independence outcomes, plus a pooled logistic fit of the label on AU
    intensities and group indicators.

    Label 1 is the positive class, against every other label. Delta
    convention: second declared group level minus first.
    """
    levels = dataset.attribute_levels[group_attr]
    if small_level_policy == "merge" and "other" in levels:
        raise InvalidConfig(f"group attribute {group_attr!r} has a level named "
                         f"'other', the name of the merge bucket")
    codes = dataset.group_codes(group_attr)
    y = (dataset.labels() == 1).astype(int)
    cells = []
    for condition, mask in _cell_masks(dataset, conditioning, mode):
        totals = np.bincount(codes[mask], minlength=len(levels)).tolist()
        positives = np.bincount(codes[mask & (y == 1)], minlength=len(levels)).tolist()
        cells.append(
            _build_cell(condition, levels, dict(zip(levels, positives)),
                        dict(zip(levels, totals)), min_expected, small_level_policy)
        )
    cells.sort(key=lambda c: c.condition)

    logistic = None
    logistic_error = None
    if include_logistic:
        try:
            X, names = group_design(dataset, conditioning, group_attr)
            logistic = logistic_fit(X, y, term_names=names)
        except (Separation, SingularDesign) as exc:
            logistic_error = f"{type(exc).__name__}: {exc}"

    return BiasReport(
        group_attr=group_attr,
        group_levels=tuple(levels),
        target_label=1,
        conditioning=tuple(sorted(conditioning, key=au_sort_key)),
        mode=mode,
        cells=tuple(cells),
        logistic=logistic,
        logistic_error=logistic_error,
        metadata={
            "min_expected": min_expected,
            "target_definition": "binary target vs rest",
        },
    )


@dataclass(frozen=True)
class GroupCurve:
    level: str
    au_id: str
    grid: np.ndarray
    probabilities: np.ndarray
    std_errors: np.ndarray


def bias_curves(
    dataset: Dataset,
    au_intensity_ids: Sequence[str],
    group_attr: str,
    grid: Sequence[float] = (),
) -> list[GroupCurve]:
    """Per-group fitted logistic curves of P(Y=1 | AU intensity) on
    the grid, with delta-method standard-error bands. Each AU is swept in
    turn with the remaining AUs held at their pooled mean."""
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0:
        return []
    aus = sorted(au_intensity_ids, key=au_sort_key)
    y = (dataset.labels() == 1).astype(int)
    codes = dataset.group_codes(group_attr)
    means = {au: float(dataset.intensities(au).mean()) for au in aus}
    intensity = {au: dataset.intensities(au) for au in aus}

    curves = []
    for code, lvl in enumerate(dataset.attribute_levels[group_attr]):
        mask = codes == code
        X = np.stack(
            [np.ones(int(mask.sum()))] + [intensity[au][mask] for au in aus],
            axis=1,
        )
        fit = logistic_fit(X, y[mask], term_names=("intercept", *aus))
        for j, au in enumerate(aus):
            design = np.ones((grid.size, len(aus) + 1))
            for k, other in enumerate(aus):
                design[:, k + 1] = means[other]
            design[:, j + 1] = grid
            probs = fit.predict(design)
            # delta method through the logistic link
            g = design * (probs * (1 - probs))[:, None]
            var = np.einsum("ij,jk,ik->i", g, fit.covariance, g)
            curves.append(
                GroupCurve(
                    level=lvl,
                    au_id=au,
                    grid=grid.copy(),
                    probabilities=probs,
                    std_errors=np.sqrt(np.maximum(var, 0.0)),
                )
            )
    return curves
