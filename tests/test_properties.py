"""Property tests of the data layer and the audit.

- save_dataset followed by load_dataset gives back every column;
- strata visits AU cells in the order of their sorted describe() strings,
  the order every seeded stage draws its random streams in;
- the per-cell audit does not depend on row order;
- logistic_fit on a sparse two-level design returns a converged fit whose
  score is near zero, or raises Separation or SingularDesign.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aucal.audit import conditional_bias_report, logistic_fit
from aucal.aucfer import stratified_order
from aucal.data import AuCellKey, load_dataset, save_dataset, strata
from aucal.errors import Separation, SingularDesign
from aucal.rng import Rng
from conftest import Row, dataset_of

AU_POOL = ["AU1", "AU2", "AU4", "AU5", "AU10", "AU12", "AU23"]
NAMES = st.text(alphabet="abzXY019_-", min_size=1, max_size=5)
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def datasets(draw, aus=None, max_rows=12, binarized=None):
    """Small datasets built through the record API: random AUs, presence
    bits (or none), labels, two group attributes, features and splits."""
    aus = aus or draw(st.lists(st.sampled_from(AU_POOL), min_size=1, max_size=4,
                               unique=True))
    n = draw(st.integers(1, max_rows))
    d = draw(st.integers(0, 3))
    if binarized is None:
        binarized = draw(st.booleans())
    intensity = st.floats(0.0, 5.0)
    feature = st.floats(allow_nan=False, allow_infinity=False)
    records = [
        Row(
            id=draw(NAMES),
            au_intensities={au: draw(intensity) for au in aus},
            label=draw(st.integers(-2, 3)),
            group={"gender": draw(st.sampled_from(["F", "M", "X"])),
                   "race": draw(NAMES)},
            au_presence={au: draw(st.integers(0, 1)) for au in aus}
            if binarized else None,
            features=np.array([draw(feature) for _ in range(d)]) if d else None,
            split=draw(st.sampled_from(["train", "test"])),
        )
        for _ in range(n)
    ]
    return dataset_of(records, aus, feature_dim=d)


@SETTINGS
@given(datasets())
def test_save_load_round_trip(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        save_dataset(ds, path)
        back = load_dataset(path).dataset
    assert back.ids.tolist() == ds.ids.tolist()
    np.testing.assert_array_equal(back.labels(), ds.labels())
    assert back.attribute_levels == ds.attribute_levels
    for attr in ds.attribute_levels:
        assert back.group_values(attr).tolist() == ds.group_values(attr).tolist()
    assert back.au_ids == ds.au_ids
    np.testing.assert_array_equal(back.intensity, ds.intensity)
    assert back.binarized == ds.binarized
    np.testing.assert_array_equal(back.presence, ds.presence)
    np.testing.assert_array_equal(back.is_test, ds.is_test)
    np.testing.assert_array_equal(back.feature_matrix(), ds.feature_matrix())


@SETTINGS
@given(st.lists(st.sampled_from(AU_POOL), min_size=1, max_size=5, unique=True),
       st.data())
def test_strata_visit_cells_in_describe_order(aus, data):
    n = data.draw(st.integers(1, 40))
    bits = [data.draw(st.lists(st.integers(0, 1), min_size=len(aus),
                               max_size=len(aus))) for _ in range(n)]
    ds = dataset_of(
        [Row(id=f"r{i}", au_intensities=dict.fromkeys(aus, 0.0),
             label=0, group={"gender": "F"},
             au_presence=dict(zip(aus, row)))
         for i, row in enumerate(bits)],
        aus,
    )
    described = [AuCellKey(tuple(zip(aus, row))).describe() for row in bits]
    expected = [(cell, [i for i in range(n) if described[i] == cell])
                for cell in sorted(set(described))]

    keys = ds.cell_keys(aus)
    visited = [(keys.key(code).describe(), idx.tolist())
               for code, idx in strata(keys.codes)]
    assert visited == expected
    # a plain list of AuCellKey is stratified exactly like the codes
    rng = Rng(3, ("order",))
    np.testing.assert_array_equal(stratified_order(list(keys), rng),
                                  stratified_order(keys, rng))


@SETTINGS
@given(datasets(aus=["AU6", "AU12"], max_rows=80, binarized=True), st.data())
def test_bias_report_invariant_under_row_permutation(ds, data):
    # the pooled logistic fit sums rows in a different order once they are
    # permuted, so only its per-cell part is compared exactly
    perm = data.draw(st.permutations(range(len(ds))))
    for mode in ("joint", "marginal"):
        for min_expected in (1.0, 5.0):
            kwargs = dict(mode=mode, min_expected=min_expected,
                          include_logistic=False)
            before = conditional_bias_report(ds, ["AU6", "AU12"], "gender", **kwargs)
            after = conditional_bias_report(ds.subset(perm), ["AU6", "AU12"],
                                            "gender", **kwargs)
            assert after == before


@st.composite
def sparse_designs(draw):
    """Intercept, two AU intensities and a minority-level indicator, with
    labels from a logistic annotator, a minority level that is never
    positive, an AU threshold with a few flips, or rare positives."""
    n = draw(st.integers(8, 120))
    share = draw(st.floats(0.02, 0.5))
    regime = draw(st.sampled_from(["logistic", "one-label", "au-split", "rare"]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    group = (gen.random(n) < share).astype(float)
    au = gen.uniform(0.0, 5.0, (n, 2))
    if regime == "logistic":
        eta = -4.0 + 0.9 * au.sum(axis=1) + gen.normal(0.0, 2.0) * group
        y = (gen.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    elif regime == "one-label":
        y = np.where(group == 1, 0, gen.random(n) < 0.5).astype(int)
    elif regime == "au-split":
        y = (au[:, 0] > 2.5).astype(int)
        y ^= gen.random(n) < draw(st.sampled_from([0.0, 0.02, 0.05]))
    else:
        y = (gen.random(n) < gen.uniform(0.01, 0.15)).astype(int)
    return np.column_stack([np.ones(n), au, group]), y


@SETTINGS
@given(sparse_designs())
def test_logistic_fit_converges_or_raises(case):
    X, y = case
    try:
        fit = logistic_fit(X, y)
    except (Separation, SingularDesign):
        return
    assert fit.converged
    mu = 1.0 / (1.0 + np.exp(-(X @ fit.beta)))
    assert np.max(np.abs(X.T @ (y - mu))) < 1e-6
    assert np.all((fit.p_values >= 0) & (fit.p_values <= 1))
