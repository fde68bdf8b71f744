import numpy as np
import pytest

from aucal.cli import run
from aucal.data import (
    AuCellKey,
    CsvSchema,
    binarize,
    load_dataset,
    save_dataset,
)
from aucal.errors import (
    MissingColumn,
    NotBinarized,
    ParseError,
    UnknownAu,
)
from conftest import dataset_of, record, rows_of, small_dataset

CSV4 = """id,AU6,AU12,happy,gender
a,3.0,2.8,1,F
b,0.5,0.4,0,F
c,3.2,3.1,1,M
d,0.3,0.6,0,M
"""


def test_load_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(CSV4)
    result = load_dataset(p, CsvSchema(label_col="happy"))
    ds = result.dataset
    assert len(ds) == 4
    assert ds.feature_dim == 0
    assert ds.au_ids == ("AU6", "AU12")
    assert ds.attribute_levels["gender"] == ("F", "M")
    assert result.dropped_rows == 0


def test_load_drops_missing_au(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(CSV4.replace("b,0.5", "b,", 1))
    result = load_dataset(p, CsvSchema(label_col="happy"))
    assert len(result.dataset) == 3
    assert result.dropped_rows == 1


def test_load_missing_group_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("id,AU6,AU12,happy\na,1,1,0\n")
    with pytest.raises(MissingColumn):
        load_dataset(p, CsvSchema(label_col="happy"))


def test_load_out_of_range_intensity(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(CSV4.replace("3.0", "6.1"))
    with pytest.raises(ParseError):
        load_dataset(p, CsvSchema(label_col="happy"))


def test_load_ignores_unknown_columns(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(
        "id,AU6,AU12,happy,gender,notes\na,1.0,1.0,0,F,x\nb,2.0,2.0,1,M,y\n"
    )
    result = load_dataset(p, CsvSchema(label_col="happy"))
    assert result.ignored_columns == ["notes"]


def test_round_trip(tmp_path, biased_dataset):
    ds, _ = biased_dataset
    ds = ds.subset(range(200))
    p = tmp_path / "out.csv"
    save_dataset(ds, p)
    back = load_dataset(p).dataset
    assert len(back) == len(ds)
    for a, b in zip(rows_of(ds), rows_of(back)):
        assert a.id == b.id and a.label == b.label and a.group == b.group
        assert a.au_intensities == b.au_intensities
        assert a.au_presence == b.au_presence
        assert a.split == b.split


def test_binarize_strict_comparison():
    ds = dataset_of(
        [record(0, 2.3, 1.5, 1, "F"), record(1, 1.5, 1.5, 0, "M")],
        ["AU6", "AU12"],
    )
    out = binarize(ds, {"AU6": 1.5, "AU12": 1.5})
    assert rows_of(out)[0].au_presence == {"AU6": 1, "AU12": 0}
    assert rows_of(out)[1].au_presence == {"AU6": 0, "AU12": 0}
    # intensities retained, labels untouched
    assert rows_of(out)[0].au_intensities["AU6"] == 2.3
    assert rows_of(out)[0].label == 1


def test_binarize_idempotent():
    ds = small_dataset()
    once = binarize(ds, {"AU6": 1.5, "AU12": 1.5})
    twice = binarize(once, {"AU6": 1.5, "AU12": 1.5})
    for a, b in zip(rows_of(once), rows_of(twice)):
        assert a.au_presence == b.au_presence


def test_binarize_unknown_au():
    with pytest.raises(UnknownAu):
        binarize(small_dataset(), {"AU99": 1.0})


def test_cell_keys_require_binarization():
    ds = small_dataset()
    with pytest.raises(NotBinarized):
        ds.cell_keys(["AU6", "AU12"])
    out = binarize(ds, {"AU6": 1.5, "AU12": 1.5})
    keys = out.cell_keys(["AU12", "AU6"])
    assert keys[0] == AuCellKey((("AU6", 1), ("AU12", 1)))
    assert keys[1] == AuCellKey((("AU6", 0), ("AU12", 0)))


def test_au_cell_key_sorted():
    k = AuCellKey((("AU12", 1), ("AU6", 0)))
    assert k.items == (("AU12", 1), ("AU6", 0))
    assert k.describe() == "AU12=1,AU6=0"


def test_feature_columns(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(
        "id,AU6,AU12,label,gender,f0,f1\na,1,1,0,F,0.5,1.5\nb,2,2,1,M,2.5,3.5\n"
    )
    ds = load_dataset(p).dataset
    assert ds.feature_dim == 2
    np.testing.assert_allclose(ds.feature_matrix(), [[0.5, 1.5], [2.5, 3.5]])


def test_load_short_row_raises_parse_error_naming_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(CSV4.replace("c,3.2,3.1,1,M", "c,3.2,3.1,1"))
    with pytest.raises(ParseError) as info:
        load_dataset(p, CsvSchema(label_col="happy"))
    assert (info.value.row, info.value.column) == (4, "gender")


def test_audit_short_row_exits_1(tmp_path, capsys):
    p = tmp_path / "d.csv"
    p.write_text(CSV4.replace("c,3.2,3.1,1,M", "c,3.2"))
    code = run(["audit", "--data", str(p), "--label", "happy",
                "--condition", "AU6,AU12", "--thresholds", "AU6=1.5,AU12=1.5",
                "--out", str(tmp_path / "rep.json")])
    assert code == 1
    assert "row 4" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_non_finite_feature_raises_parse_error(tmp_path, value):
    p = tmp_path / "d.csv"
    p.write_text(
        "id,AU6,AU12,label,gender,f0,f1\n"
        f"a,1,1,0,F,0.5,1.5\nb,2,2,1,M,2.5,{value}\n"
    )
    with pytest.raises(ParseError) as info:
        load_dataset(p)
    assert (info.value.row, info.value.column) == (3, "f1")


def test_load_drops_missing_au_before_checking_other_fields(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(
        "id,AU6,AU12,label,gender,split,f0\n"
        "a,1,1,0,F,train,0.5\n"
        "b,,7,x,M,neither,nan\n"
        "c,2,2,1,M,test,1.5\n"
    )
    result = load_dataset(p)
    assert result.dropped_rows == 1
    assert [r.id for r in rows_of(result.dataset)] == ["a", "c"]


@pytest.mark.parametrize("old, new, row, column", [
    ("b,0.5,0.4", "b,abc,0.4", 3, "AU6"),
    ("d,0.3,0.6", "d,0.3,5.5", 5, "AU12"),
    ("c,3.2,3.1,1,M", "c,3.2,3.1,1.0,M", 4, "happy"),
    ("c,3.2,3.1,1,M", "c,3.2,3.1,99999999999999999999,M", 4, "happy"),
])
def test_load_bad_cell_names_row_and_column(tmp_path, old, new, row, column):
    p = tmp_path / "d.csv"
    p.write_text(CSV4.replace(old, new))
    with pytest.raises(ParseError) as info:
        load_dataset(p, CsvSchema(label_col="happy"))
    assert (info.value.row, info.value.column) == (row, column)


@pytest.mark.parametrize("cells, row, column", [
    ("a,1,1,0,F,2,train,0.5", 2, "AU6_presence"),
    ("a,1,1,0,F,0,valid,0.5", 2, "split"),
    ("a,1,1,0,F,0,train,x", 2, "f*"),
])
def test_load_bad_presence_split_feature(tmp_path, cells, row, column):
    p = tmp_path / "d.csv"
    p.write_text(f"id,AU6,AU12,label,gender,AU6_presence,split,f0\n{cells}\n")
    with pytest.raises(ParseError) as info:
        load_dataset(p)
    assert (info.value.row, info.value.column) == (row, column)
