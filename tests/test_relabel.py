import numpy as np
import pytest

from aucal.audit import conditional_bias_report
from aucal.data import binarize
from aucal.errors import InvalidCount, NotBinarized
from aucal.relabel import balanced_subsample, relabel_to_parity
from conftest import dataset_of, record, rows_of


def _one_cell_dataset(n_pos_f, n_f, n_pos_m, n_m):
    recs = []
    i = 0
    for gender, n, n_pos in (("F", n_f, n_pos_f), ("M", n_m, n_pos_m)):
        for j in range(n):
            recs.append(record(i, 3.0, 3.0, 1 if j < n_pos else 0, gender))
            i += 1
    ds = dataset_of(recs, ["AU6", "AU12"])
    return binarize(ds, {"AU6": 2.0, "AU12": 2.0})


def test_flip_counts_toward_pooled_proportion():
    # pooled p* = (60 + 40) / 200 = 0.5: 10 F positives flipped down,
    # 10 M negatives flipped up
    ds = _one_cell_dataset(60, 100, 40, 100)
    out, log = relabel_to_parity(ds, ["AU6", "AU12"], "gender")
    y = out.labels()
    grp = np.array(out.group_values("gender"))
    assert y[grp == "F"].sum() == 50
    assert y[grp == "M"].sum() == 50
    assert len(log) == 20
    dirs = {(e.group, e.direction) for e in log.entries}
    assert dirs == {("F", "pos_to_neg"), ("M", "neg_to_pos")}
    assert log.deficits == []


def test_already_fair_cell_untouched():
    ds = _one_cell_dataset(50, 100, 50, 100)
    out, log = relabel_to_parity(ds, ["AU6", "AU12"], "gender")
    assert len(log) == 0
    np.testing.assert_array_equal(out.labels(), ds.labels())


def test_total_positive_count_nearly_preserved():
    # each cell moves at most one positive in or out of the pool
    ds = _one_cell_dataset(63, 101, 38, 99)
    out, _ = relabel_to_parity(ds, ["AU6", "AU12"], "gender")
    assert abs(int(out.labels().sum()) - 101) <= 1


def test_only_labels_change():
    ds = _one_cell_dataset(60, 100, 40, 100)
    out, _ = relabel_to_parity(ds, ["AU6", "AU12"], "gender")
    for before, after in zip(rows_of(ds), rows_of(out)):
        assert before.id == after.id
        assert before.au_intensities == after.au_intensities
        assert before.au_presence == after.au_presence
        assert before.group == after.group


def test_relabel_deterministic():
    ds = _one_cell_dataset(70, 120, 30, 80)
    out1, log1 = relabel_to_parity(ds, ["AU6", "AU12"], "gender", seed=3)
    out2, log2 = relabel_to_parity(ds, ["AU6", "AU12"], "gender", seed=3)
    np.testing.assert_array_equal(out1.labels(), out2.labels())
    assert log1.entries == log2.entries
    # a different seed picks different records but the same flip counts
    out3, _ = relabel_to_parity(ds, ["AU6", "AU12"], "gender", seed=4)
    assert int(out3.labels().sum()) == int(out1.labels().sum())


def test_post_relabel_parity(biased_dataset):
    ds, _ = biased_dataset
    out, _ = relabel_to_parity(ds, ["AU6", "AU12"], "gender", seed=1)
    rep = conditional_bias_report(out, ["AU6", "AU12"], "gender",
                                  include_logistic=False)
    grp = np.array(out.group_values("gender"))
    min_n = min(int((grp == lvl).sum()) for lvl in ("F", "M"))
    for cell in rep.cells:
        if cell.status != "tested":
            continue
        assert abs(cell.delta) <= 1.0 / min(cell.n_per_group.values())
        assert cell.p_value > 0.05
    assert min_n > 0


def test_relabel_requires_binarized():
    ds = dataset_of([record(0, 1.0, 1.0, 0, "F"),
                     record(1, 3.0, 3.0, 1, "M")], ["AU6", "AU12"])
    with pytest.raises(NotBinarized):
        relabel_to_parity(ds, ["AU6", "AU12"], "gender")


def test_relabel_deficit_logged():
    # F has 10/10 positives; reaching the pooled proportion would need
    # flips in M beyond what exists -> never, but force a deficit by
    # asking target_label=0 on an all-positive group
    ds = _one_cell_dataset(10, 10, 0, 10)
    out, log = relabel_to_parity(ds, ["AU6", "AU12"], "gender")
    # pooled p* = 0.5; both groups can supply 5 flips, so no deficit here
    assert log.deficits == []
    y = out.labels()
    grp = np.array(out.group_values("gender"))
    assert y[grp == "F"].sum() == 5
    assert y[grp == "M"].sum() == 5


def test_balanced_subsample_counts(biased_dataset):
    ds, _ = biased_dataset
    res = balanced_subsample(ds, ["AU6", "AU12"], "gender", 200, seed=2)
    out = res.dataset
    keys = [k.describe() for k in out.cell_keys(["AU6", "AU12"])]
    grp = out.group_values("gender")
    from collections import Counter

    counts = Counter(zip(keys, grp))
    assert res.shortfalls == []
    assert set(counts.values()) == {200}
    assert len(counts) == 8  # 4 cells x 2 groups


def test_balanced_subsample_shortfall():
    ds = _one_cell_dataset(3, 5, 4, 9)
    res = balanced_subsample(ds, ["AU6", "AU12"], "gender", 7, seed=0)
    assert len(res.shortfalls) == 1
    assert "only 5 of 7" in res.shortfalls[0]
    assert len(res.dataset) == 12  # 5 kept + 7 sampled


def test_balanced_subsample_of_one_row_and_of_a_whole_stratum():
    ds = _one_cell_dataset(3, 5, 4, 9)
    assert len(balanced_subsample(ds, ["AU6", "AU12"], "gender", 1, seed=0).dataset) == 2
    whole = balanced_subsample(ds, ["AU6", "AU12"], "gender", 5, seed=0)
    assert (whole.shortfalls, len(whole.dataset)) == ([], 10)


def test_balanced_subsample_invalid_count():
    ds = _one_cell_dataset(1, 2, 1, 2)
    with pytest.raises(InvalidCount):
        balanced_subsample(ds, ["AU6", "AU12"], "gender", 0, seed=0)


def test_balanced_subsample_deterministic(biased_dataset):
    ds, _ = biased_dataset
    a = balanced_subsample(ds, ["AU6", "AU12"], "gender", 50, seed=9)
    b = balanced_subsample(ds, ["AU6", "AU12"], "gender", 50, seed=9)
    assert [r.id for r in rows_of(a.dataset)] == [r.id for r in rows_of(b.dataset)]
