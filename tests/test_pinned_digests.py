"""SHA-256 digests of library results that the golden demo does not reach:
the audit of 3- and 4-level groups under both small-level policies and both
conditioning modes, per-group calibration with a degenerate level,
relabeling a dataset that holds a label other than 0 and 1, and the bits of
the statistics kernels: chi2_sf on a grid and logistic_fit on seeded random
designs, including those it refuses. The digests were recorded once; a
refactor that is meant to leave behaviour alone must leave them alone too."""

import dataclasses
import hashlib

import numpy as np
import pytest

from aucal.audit import conditional_bias_report, logistic_fit
from aucal.calibrate import calibrate_per_group
from aucal.data import binarize
from aucal.errors import Separation, SingularDesign
from aucal.relabel import relabel_to_parity
from aucal.report import canonical_json
from aucal.stats import chi2_sf
from aucal.synth import generate
from conftest import biased_config

AUS = ["AU6", "AU12"]

# levels and row count: the 3-level data leaves merged cells untested, the
# 4-level data tests some cells unmerged and merges up to three levels
GROUPS = {
    "three": ({"young": 0.55, "mid": 0.38, "old": 0.07}, 250),
    "four": ({"a": 0.5, "b": 0.35, "c": 0.1, "d": 0.05}, 1500),
}

AUDIT = {
    ("three", "insufficient", "joint"):
        "567392628a4e9340c368133ef497f3c93821baf6d405f50ac3bcddfcbf515f1c",
    ("three", "insufficient", "marginal"):
        "903c0ea8557b0bd1c1d7640a1cc3375b726884d55c04547adbde003709b06d7b",
    ("three", "merge", "joint"):
        "8cb02828113f9cf2cc3b7c36c89897b58484d079e46ccc46229a49e17ee919d2",
    ("three", "merge", "marginal"):
        "4342d9e22c8b5d2e209eb41ecab3f7dc6fe2491997aa9161a466a4033ae64b18",
    ("four", "insufficient", "joint"):
        "d18eac50e0cf354117cd4b9c7bdcca5e20a641cc684aa55ccab78a668328b4d1",
    ("four", "insufficient", "marginal"):
        "c0711f9e4e3ec1bf9e049a9b5dca878ace5c3ff6f2de0046b501f65b1e25ebf4",
    ("four", "merge", "joint"):
        "40eaf791b1edd53b1c93690b4ca0c62a59771e5f9ee46e8ac2e3079de7e45ebe",
    ("four", "merge", "marginal"):
        "7a4423e93b47442a9eb9dceeb8e4efcd6dcd8c4f50cf3468a38364a060c0b715",
}
CALIBRATION = "b4cc15d0179737000b7e1b3671609d10d483ea9d67adbbb3fc6533c78157f023"
RELABEL = "55f4620b25b12dc792e52f798774a0ebeb662a38d8332dbf9d67d66d6d4f15e8"
KERNELS = "5aebfbce34f4e9d33cbff98a6eff600b1129590bddcc11e7df7ec29e49d8a322"


def _digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _multi_level(name):
    levels, n = GROUPS[name]
    config = dataclasses.replace(
        biased_config(seed=len(levels), n=n),
        group_attr="age_group",
        group_probs=levels,
        group_bias={next(iter(levels)): 1.0},
    )
    return binarize(generate(config).dataset, {au: 2.2 for au in AUS})


@pytest.mark.parametrize("name, policy, mode", sorted(AUDIT))
def test_multi_level_audit_digest(name, policy, mode):
    report = conditional_bias_report(_multi_level(name), AUS, "age_group",
                                     mode=mode, small_level_policy=policy)
    if policy == "merge":
        assert any(cell.merged_levels for cell in report.cells)
    assert _digest(report) == AUDIT[name, policy, mode]


def test_calibration_with_degenerate_level_digest():
    gen = np.random.default_rng(17)
    groups = np.repeat(["a", "b", "c"], [120, 90, 30])
    truth = (gen.random(groups.size) < 0.5).astype(int)
    truth[groups == "c"] = 0  # level c has no positives
    shift = np.where(groups == "b", 0.4, 0.0)
    x = np.clip(np.where(truth == 1, 3.0, 1.4) + shift
                + gen.normal(0.0, 0.7, groups.size), 0.0, 5.0)
    result = calibrate_per_group(x.round(3), truth, groups.tolist(), au_id="AU6")
    assert result.degenerate_levels == ("c",)
    assert _digest(result) == CALIBRATION


def test_relabel_with_label_two_digest():
    dataset = binarize(generate(biased_config(seed=9, n=500)).dataset,
                       {au: 2.2 for au in AUS})
    labels = dataset.labels().copy()
    labels[::7] = 2
    relabeled, log = relabel_to_parity(dataset.with_labels(labels), AUS, "gender",
                                       seed=4)
    out = relabeled.labels()
    assert (out == 2).any() and ((labels == 2) & (out == 1)).any()
    assert _digest({"labels": out, "flips": log}) == RELABEL


def _logistic_designs(count=200):
    """Seeded designs in four kinds: well posed, completely separated,
    quasi-completely separated (tied rows on both sides) and strong signal;
    every 25th has a repeated column."""
    gen = np.random.default_rng(30)
    for i in range(count):
        n = int(gen.integers(12, 60))
        p = int(gen.integers(1, 4))
        X = np.column_stack([np.ones(n), gen.normal(0.0, 1.0, (n, p))])
        if i % 4 == 0:
            y = (gen.random(n) < 1 / (1 + np.exp(-X @ gen.normal(0, 1, p + 1)))).astype(int)
        elif i % 4 == 1:
            y = (X[:, 1] > 0).astype(int)
        elif i % 4 == 2:
            X[:2, 1] = 0.0
            y = (X[:, 1] > 0).astype(int)
            y[:2] = [0, 1]
        else:
            y = (gen.random(n) < 1 / (1 + np.exp(-X @ gen.normal(0, 4, p + 1)))).astype(int)
        if i % 25 == 24:
            X = np.column_stack([X, X[:, 1]])
        yield X, y


def test_statistics_kernels_digest():
    h = hashlib.sha256()
    for dof in range(1, 9):
        for x in np.arange(0.0, 60.25, 0.25):
            h.update(np.float64(chi2_sf(float(x), dof)).tobytes())
    outcomes = []
    for X, y in _logistic_designs():
        try:
            fit = logistic_fit(X, y)
        except (Separation, SingularDesign) as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
        else:
            outcomes.append("fit")
            h.update(fit.beta.tobytes() + fit.covariance.tobytes()
                     + str(fit.iterations).encode("ascii"))
    h.update("\n".join(outcomes).encode("utf-8"))
    for kind in ("fit", "pinned", "no convergence", "SingularDesign"):
        assert any(kind in outcome for outcome in outcomes), kind
    assert h.hexdigest() == KERNELS
