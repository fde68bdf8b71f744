"""No silent non-finite numbers in a result: over generated datasets with
two to five group levels, some of them sparse and some without a single
positive label, every float that conditional_bias_report (both small-level
policies, both modes), calibrate_per_group and evaluate return is finite,
and a value is None only where its field's type declares it. evaluate
raises SingleClass, and returns nothing, when the labels hold one class."""

import dataclasses
import math
from collections.abc import Mapping
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aucal.audit import conditional_bias_report
from aucal.calibrate import calibrate_per_group
from aucal.errors import SingleClass
from aucal.metrics import evaluate
from conftest import Row, dataset_of

SETTINGS = settings(max_examples=60, deadline=None)
ATTR = "age_group"


@st.composite
def leveled(draw):
    """A binarized dataset whose levels are each sparse (1-3 rows) or not
    (4-200 rows), and each without positives or with a drawn positive rate.
    Row values come from a seeded generator; intensities lie on a 0.5 grid,
    so thresholds see ties."""
    aus = draw(st.lists(st.sampled_from(["AU1", "AU6", "AU12"]), min_size=1,
                        max_size=3, unique=True))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for level in range(draw(st.integers(2, 5))):
        size = draw(st.one_of(st.integers(1, 3), st.integers(4, 200)))
        rate = draw(st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.05, 0.95)))
        labels = np.where(gen.random(size) < rate, 1, gen.choice([0, 2], size))
        rows += [
            Row(id=f"r{len(rows) + i}",
                au_intensities=dict(zip(aus, gen.integers(0, 11, len(aus)) / 2)),
                label=int(label),
                group={ATTR: f"g{level}"},
                au_presence=dict(zip(aus, gen.integers(0, 2, len(aus)).tolist())))
            for i, label in enumerate(labels)
        ]
    return dataset_of(rows, aus), aus


def undeclared(obj, path="result"):
    """Paths under obj to a non-finite float, or to a None that the
    enclosing dataclass field's type does not declare."""
    if dataclasses.is_dataclass(obj):
        hints = get_type_hints(type(obj))
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if value is not None:
                yield from undeclared(value, f"{path}.{f.name}")
            elif type(None) not in get_args(hints[f.name]):
                yield f"{path}.{f.name}"
    elif isinstance(obj, Mapping):
        for key, value in obj.items():
            yield from undeclared(key, f"{path} key {key!r}")
            yield from undeclared(value, f"{path}[{key!r}]")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from undeclared(value, f"{path}[{i}]")
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            yield path
    elif obj is None or (isinstance(obj, float) and not math.isfinite(obj)):
        yield path


def test_walk_finds_non_finite_and_undeclared_none():
    @dataclasses.dataclass
    class Result:
        p: float | None
        q: float
        by_level: Mapping[str, float]
        grid: np.ndarray

    clean = Result(None, 1.0, {"a": 0.5}, np.zeros(2))
    assert list(undeclared(clean)) == []
    dirty = Result(math.nan, None, {"a": math.inf}, np.array([0.0, math.nan]))
    assert list(undeclared(dirty)) == ["result.p", "result.q", "result.by_level['a']",
                                       "result.grid"]


@SETTINGS
@given(leveled(), st.sampled_from([5.0, 1.0]))
def test_bias_reports_are_finite(case, min_expected):
    ds, aus = case
    for mode in ("joint", "marginal"):
        for policy in ("insufficient", "merge"):
            report = conditional_bias_report(ds, aus, ATTR, mode=mode,
                                             min_expected=min_expected,
                                             small_level_policy=policy)
            assert report.cells
            assert list(undeclared(report)) == [], (mode, policy)


@SETTINGS
@given(leveled())
def test_calibration_is_finite(case):
    ds, aus = case
    for j, au in enumerate(ds.au_ids):
        result = calibrate_per_group(ds.intensities(au), ds.presence[:, j],
                                     ds.group_values(ATTR), au_id=au)
        assert list(undeclared(result)) == [], au


@SETTINGS
@given(leveled(), st.data())
def test_evaluation_is_finite(case, data):
    # Calders-Verwer discrimination compares two levels, so the test set is
    # the rows of two of them; every declared level stays declared
    ds, _ = case
    positive, other = data.draw(st.permutations(ds.attribute_levels[ATTR]))[:2]
    test = ds.subset(np.flatnonzero(np.isin(ds.group_values(ATTR), [positive, other])))
    scores = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(test),
                                max_size=len(test)))
    if len(set((test.labels() == 1).tolist())) < 2:
        with pytest.raises(SingleClass):
            evaluate(scores, test, ATTR, positive)
        return
    result = evaluate(scores, test, ATTR, positive)
    assert list(undeclared(result)) == []
