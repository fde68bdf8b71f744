"""Inputs that used to give a wrong or unlabelled result and now end in a
typed error with exit code 1: a group level named like the merge bucket,
and calibration CSV cells that the dataset loader would not accept. Also,
calibration group values are stripped of whitespace, as the loader's are."""

import json

import numpy as np
import pytest

from aucal.audit import conditional_bias_report
from aucal.cli import run
from aucal.data import binarize, save_dataset
from conftest import Row, dataset_of

AUS = ["AU6", "AU12"]


def _other_level_dataset():
    """Levels a, b and a real 'other' with 40 rows each, and 'tiny' with 4,
    all in one AU cell."""
    sizes = {"a": 40, "b": 40, "other": 40, "tiny": 4}
    records = [
        Row(id=f"{level}{i}", au_intensities={"AU6": 3.0, "AU12": 3.0},
            label=i % 2, group={"age_group": level})
        for level, n in sizes.items() for i in range(n)
    ]
    return binarize(dataset_of(records, AUS), {au: 2.5 for au in AUS})


def test_merge_rejects_a_level_named_other():
    dataset = _other_level_dataset()
    with pytest.raises(ValueError, match="'age_group'.*'other'"):
        conditional_bias_report(dataset, AUS, "age_group", small_level_policy="merge")
    # without merging there is no bucket, so the level is an ordinary one
    report = conditional_bias_report(dataset, AUS, "age_group")
    assert [c.n_per_group["other"] for c in report.cells if c.n_per_group["a"]] == [40]


def test_audit_merge_with_a_level_named_other_exits_1(tmp_path, capsys):
    data = tmp_path / "data.csv"
    save_dataset(_other_level_dataset(), data)
    out = tmp_path / "audit.json"
    assert run(["audit", "--data", str(data), "--condition", ",".join(AUS),
                "--group", "age_group", "--small-levels", "merge",
                "--out", str(out)]) == 1
    assert "'age_group'" in capsys.readouterr().err
    assert not out.exists()


CALIBRATION = "id,AU6,AU6_true,gender\na,1.0,0,F\nb,3.0,1,M\nc,2.0,1,F\n"


@pytest.mark.parametrize("old, new, row, column", [
    ("b,3.0,1", "b,9.0,1", 3, "AU6"),
    ("c,2.0,1", "c,2.0,7", 4, "AU6_true"),
    ("a,1.0,0", "a,x,0", 2, "AU6"),
    ("b,3.0,1", "b,3.0,12345678901234567890", 3, "AU6_true"),
], ids=["intensity-9", "truth-7", "cell-x", "truth-20-digits"])
def test_calibrate_bad_cell_names_row_and_column(tmp_path, capsys, old, new, row,
                                                  column):
    data = tmp_path / "cal.csv"
    data.write_text(CALIBRATION.replace(old, new), encoding="utf-8")
    out = tmp_path / "cal.json"
    assert run(["calibrate", "--data", str(data), "--truth-cols", "AU6",
                "--out", str(out)]) == 1
    assert f"row {row}, column {column!r}" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_strips_group_values(tmp_path):
    rows = ["id,AU6,AU6_true,gender"]
    gen = np.random.default_rng(5)
    for i in range(60):
        truth = i % 2
        group = ["F", " F ", "M"][i % 3]
        rows.append(f"c{i},{1.0 + 2.0 * truth + gen.uniform(-0.5, 0.5):.3f},"
                    f"{truth},{group}")
    data = tmp_path / "cal.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "cal.json"
    assert run(["calibrate", "--data", str(data), "--truth-cols", "AU6",
                "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))["report"]["AU6"]
    assert sorted(result["per_group_accuracy_raw"]) == ["F", "M"]
