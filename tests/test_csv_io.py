"""The CSV layer's byte and parsing contracts.

- save_dataset writes exactly the bytes csv.writer would, for any text in
  ids, group levels, header names and extra columns, and load_dataset reads
  them back;
- numeric cells padded with any whitespace load to the unpadded values;
- a bad cell raises ParseError naming its row, column and reason;
- rows with a missing intensity are dropped and counted;
- a field longer than csv.field_size_limit() ends in exit code 1 naming
  its row (its record, not its physical line), and the data layer's other
  input errors are typed;
- a plain file, which numpy's text reader reads without csv.reader, loads
  exactly as its quoted twin does through csv.reader.
"""

import csv
import io
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aucal.cli import run
from aucal.data import AuCellKey, CellKeys, CsvSchema, load_dataset, save_dataset
from aucal.errors import AucalError, LengthMismatch, Misaligned, NotBinarized, ParseError
from conftest import Row, dataset_of

HOSTILE = [",", '"', "\r", "\n", "\x00", "\t", " ", "\xa0", "\x1c", "é", "中", "😀"]
TEXT = st.text(st.one_of(st.sampled_from(HOSTILE), st.characters(blacklist_categories=("Cs",))),
               max_size=6)


def reference_csv(ds, label_col, extra) -> bytes:
    """save_dataset's file as csv.writer writes it, cell by cell."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    binarized = [j for j, au in enumerate(ds.au_ids) if au in ds.binarized]
    groups = list(ds.attribute_levels)
    w.writerow(["id", *ds.au_ids, *(f"{ds.au_ids[j]}_presence" for j in binarized),
                label_col, *groups, "split", *(f"f{i}" for i in range(ds.feature_dim)),
                *extra])
    values = {g: ds.group_values(g).tolist() for g in groups}
    for i, row_id in enumerate(ds.ids.tolist()):
        intensity = ds.intensity[i].tolist()
        presence = ds.presence[i].tolist()
        w.writerow([row_id, *map(repr, intensity),
                    *(repr(presence[j]) for j in binarized), repr(int(ds.label[i])),
                    *(values[g][i] for g in groups), "test" if ds.is_test[i] else "train",
                    *map(repr, ds.features[i].tolist()),
                    *(str(column[i]) for column in extra.values())])
    return buf.getvalue().encode("utf-8")


def _as_loaded(cells) -> list[str]:
    """Text cells as load_dataset gives them back: stripped, then held in a
    numpy str array (which drops trailing NULs)."""
    return np.array([c.strip() for c in cells], dtype=str).tolist()


@st.composite
def hostile_datasets(draw):
    n = draw(st.integers(1, 8))
    d = draw(st.integers(0, 2))
    binarized = draw(st.booleans())
    rows = [
        Row(
            id=draw(TEXT),
            au_intensities={"AU4": draw(st.floats(0.0, 5.0)), "AU12": draw(st.floats(0.0, 5.0))},
            label=draw(st.integers(-2, 3)),
            group={"gender": draw(TEXT)},
            au_presence={"AU4": draw(st.integers(0, 1)), "AU12": draw(st.integers(0, 1))}
            if binarized else None,
            features=np.array([draw(st.floats(allow_nan=False, allow_infinity=False))
                               for _ in range(d)]) if d else None,
            split=draw(st.sampled_from(["train", "test"])),
        )
        for _ in range(n)
    ]
    ds = dataset_of(rows, ["AU4", "AU12"], feature_dim=d)
    extra = {"x" + draw(TEXT): [draw(st.one_of(TEXT, st.integers())) for _ in range(n)]}
    return ds, "lab" + draw(TEXT), extra


@settings(max_examples=100, deadline=None)
@given(hostile_datasets())
def test_save_matches_csv_writer_and_round_trips(case):
    ds, label_col, extra = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        save_dataset(ds, path, label_col=label_col, extra_columns=extra)
        assert path.read_bytes() == reference_csv(ds, label_col, extra)
        result = load_dataset(path, CsvSchema(label_col=label_col))
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    back = result.dataset
    (name, values), = extra.items()
    assert result.ignored_columns == [name]
    assert [row[rows[0].index(name)] for row in rows[1:]] == list(map(str, values))
    assert back.ids.tolist() == _as_loaded(ds.ids.tolist())
    assert back.group_values("gender").tolist() == _as_loaded(ds.group_values("gender").tolist())
    np.testing.assert_array_equal(back.labels(), ds.labels())
    np.testing.assert_array_equal(back.intensity, ds.intensity)
    np.testing.assert_array_equal(back.presence, ds.presence)
    np.testing.assert_array_equal(back.feature_matrix(), ds.feature_matrix())
    np.testing.assert_array_equal(back.is_test, ds.is_test)


PLAIN = ("id,AU6,AU12,AU6_presence,label,gender,split,f0,f1\n"
         "a,1.5,0,1,0,F,train,0.25,-3e-05\n"
         "b,5,2.75,0,1,M,test,1e10,7\n"
         "c,0.125,4.0,1,-2,F,train,-0.0,12345678901234567\n")
NUMERIC_COLUMNS = (1, 2, 4, 7, 8)


def _pad(text: str, pad: str) -> str:
    lines = text.splitlines()
    padded = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        padded.append(",".join(f"{pad}{c}{pad}" if j in NUMERIC_COLUMNS else c
                               for j, c in enumerate(cells)))
    return "\n".join(padded) + "\n"


@pytest.mark.parametrize("pad", [" ", "\t", "\xa0", "　", "\x1c", "\x1d", "\x1e",
                                 "\x1f", " \x1c\t", "\x1f　"])
def test_padded_numeric_cells_load_to_the_same_values(tmp_path, pad):
    plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
    plain.write_text(PLAIN, encoding="utf-8")
    padded.write_text(_pad(PLAIN, pad), encoding="utf-8")
    want, got = load_dataset(plain).dataset, load_dataset(padded).dataset
    np.testing.assert_array_equal(got.intensity, want.intensity)
    np.testing.assert_array_equal(got.label, want.label)
    np.testing.assert_array_equal(got.features, want.features)
    np.testing.assert_array_equal(np.signbit(got.features), np.signbit(want.features))
    np.testing.assert_array_equal(got.presence, want.presence)


BASE = ("id,AU6,AU12,label,gender,split,f0\n"
        "a,1,1,0,F,train,0.5\nb,2,2,1,M,test,1.5\nc,3,0.5,1,F,train,2.5\n")


@pytest.mark.parametrize("old, new, message", [
    ("b,2,2,1", "b,abc,2,1", "row 3, column 'AU6': unparseable value (not a number)"),
    ("b,2,2,1", "b,1 .5,2,1", "row 3, column 'AU6': unparseable value (not a number)"),
    ("b,2,2,1", "b,\x1c1\x1c2,2,1", "row 3, column 'AU6': unparseable value (not a number)"),
    ("c,3,0.5,1", "c,\xa05.5,0.5,1",
     "row 4, column 'AU6': unparseable value (intensity 5.5 outside [0, 5])"),
    ("b,2,2,1,M", "b,2,2,1.0,M", "row 3, column 'label': unparseable value (not an integer)"),
    ("b,2,2,1,M", "b,2,2, 99999999999999999999 ,M",
     "row 3, column 'label': unparseable value (not an integer)"),
    ("1.5\n", "x\t\n", "row 3, column 'f*': unparseable value (feature not a number)"),
    ("2.5\n", "\x1cnan\n", "row 4, column 'f0': unparseable value (feature not finite)"),
    ("test", "tst", "row 3, column 'split': unparseable value (split must be train/test)"),
])
def test_bad_cell_names_row_column_and_reason(tmp_path, old, new, message):
    p = tmp_path / "d.csv"
    p.write_text(BASE.replace(old, new, 1), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_dataset(p)
    assert str(info.value) == message


@pytest.mark.parametrize("missing", ["", " ", "\t", "\x1c", "　 "])
def test_dropped_rows_counted_and_later_rows_keep_their_numbers(tmp_path, missing):
    p = tmp_path / "d.csv"
    p.write_text(BASE, encoding="utf-8")
    whole = load_dataset(p)
    assert whole.dropped_rows == 0 and len(whole.dataset) == 3
    # the dropped row's bad label is never read
    p.write_text(BASE.replace("b,2,2,1", f"b,2,{missing},x"), encoding="utf-8")
    part = load_dataset(p)
    assert part.dropped_rows == 1
    assert part.dataset.ids.tolist() == ["a", "c"]
    np.testing.assert_array_equal(part.dataset.intensity, whole.dataset.intensity[[0, 2]])
    p.write_text(BASE.replace("b,2,2,1", f"b,2,{missing},x").replace("c,3,", "c,x,"),
                 encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_dataset(p)
    assert (info.value.row, info.value.column) == (4, "AU6")


@pytest.mark.parametrize("command, header, row", [
    (["audit", "--condition", "AU6,AU12"], "id,AU6,AU12,label,gender,f0", "b,2,2,1,M,"),
    (["calibrate", "--truth-cols", "AU6"], "id,AU6,AU6_true,gender,f0", "b,2,1,M,"),
])
def test_field_over_the_csv_limit_exits_1_naming_its_row(tmp_path, capsys, command,
                                                         header, row):
    data, out = tmp_path / "d.csv", tmp_path / "out.json"
    first = ",".join(["a", "1"] + ["0"] * (header.count(",") - 2) + ["0.5"])
    data.write_text(f"{header}\n{first}\n{row}{'1' * 140_000}\n", encoding="utf-8")
    assert run([command[0], "--data", str(data), *command[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: row 3: unparseable value (field larger than field limit" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("call, error", [
    (lambda: AuCellKey((("AU6", 2),)), NotBinarized),
    (lambda: CellKeys.of([AuCellKey((("AU6", 1),)), AuCellKey((("AU12", 1),))]),
     Misaligned),
    (lambda: _dataset().with_labels([0]), LengthMismatch),
    (lambda: save_dataset(_dataset(), os.devnull, extra_columns={"x": [1]}),
     LengthMismatch),
])
def test_data_layer_input_errors_are_typed(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, AucalError) and not isinstance(info.value, ValueError)


def _dataset():
    rows = [Row(id=f"r{i}", au_intensities={"AU6": 1.0}, label=i % 2, group={"gender": "F"})
            for i in range(3)]
    return dataset_of(rows, ["AU6"])


def test_long_field_after_a_quoted_line_feed_names_its_record(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text('id,AU6,label,gender,f0\n"a\nb",1,0,F,0.5\nc,2,1,M,' + "1" * 140_000 + "\n",
                 encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_dataset(p)
    assert str(info.value).startswith("row 3: unparseable value (field larger than field limit")


# Plain files (no '"', so np.loadtxt may read them), mostly well formed,
# with the cells and line shapes where numpy and csv.reader plus
# float()/int() could part ways mixed in.
PADS = ["", "", "", " ", "\t", "\xa0", "　", "\x1c", "\x1d", "\x1e", "\x1f"]
ODD = ["nan", "inf", "-inf", "1e400", "-0.0", "1_0", "１", "٣", "", " ", "x", "1e-400",
       "99999999999999999999", "1.0", "+1", "007"]
SAFE = st.text(st.one_of(st.sampled_from(["\x00", "\t", " ", "\xa0", "\x1c", "#", "'", "é"]),
                         st.characters(blacklist_categories=("Cs",),
                                       blacklist_characters=',"\r\n')), max_size=4)
CELLS = {
    "AU": st.one_of(st.floats(0, 5).map(repr), st.integers(0, 5).map(str)),
    "f": st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.integers(-10, 10).map(str)),
    "label": st.integers(-2, 3).map(str),
    "bit": st.sampled_from(["0", "1"]),
    "gender": st.sampled_from(["F", "M", " F", "M\x00"]),
    "split": st.sampled_from(["train", "test", "", " test"]),
    "text": SAFE,
}
FLAWS = ["odd cell", "pad", "extra", "short", "blank", "bare CR"]


def _kind(name):
    return {"AU6": "AU", "AU12": "AU", "f0": "f", "f1": "f", "label": "label",
            "AU6_presence": "bit", "gender": "gender", "split": "split"}.get(name, "text")


@st.composite
def plain_files(draw):
    """(text, label_col): a CSV with no '"', its first line the header."""
    label_col = draw(st.sampled_from(["label"] * 6 + ["AU12", "f0", "id", "gender",
                                                      "AU6_presence"]))
    names = ["id", "AU6", "AU12", "gender", "split", "f0", "f1"]
    names += draw(st.lists(st.sampled_from(["label", "AU6_presence", "x", "AU6", "gender"]),
                           max_size=2))
    names += [c for c in (label_col, "label") if c not in names][:1]
    names = draw(st.permutations(names))
    rows = [[draw(CELLS[_kind(name)]) for name in names]
            for _ in range(draw(st.integers(0, 5)))]
    blanks = []
    for flaw in draw(st.lists(st.sampled_from(FLAWS), max_size=3)) if rows else []:
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i])))  # cell j, or a new last one
        cell = "".join(rows[i][j:j + 1])
        if flaw == "odd cell":
            rows[i][j:j + 1] = [draw(st.sampled_from(ODD))]
        elif flaw == "pad":
            rows[i][j:j + 1] = [draw(st.sampled_from(PADS)) + cell + draw(st.sampled_from(PADS))]
        elif flaw == "extra":
            rows[i] += draw(st.lists(SAFE, min_size=1, max_size=2))
        elif flaw == "short":
            rows[i] = rows[i][:j]
        elif flaw == "bare CR":
            rows[i][j:j + 1] = [cell + "\r"]
        elif flaw == "blank":
            blanks.append(i)
    lines = [",".join(names)]
    for i, cells in enumerate(rows):
        lines += [""] * blanks.count(i) + [",".join(cells)]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""])), label_col


def _outcome(path, label_col):
    """Everything load_dataset gives back, or its error."""
    try:
        result = load_dataset(path, CsvSchema(label_col=label_col))
    except AucalError as exc:
        message = str(exc).replace(str(path), "<path>")
        return type(exc), message, getattr(exc, "row", None), getattr(exc, "column", None)
    ds = result.dataset
    return (result.dropped_rows, result.ignored_columns, ds.au_ids, dict(ds.attribute_levels),
            ds.binarized, ds.ids.tolist(), ds.label.dtype, ds.label.tolist(),
            ds.intensity.tolist(), np.signbit(ds.intensity).tolist(), ds.presence.tolist(),
            ds.features.tolist(), np.signbit(ds.features).tolist(), ds.is_test.tolist(),
            {g: c.tolist() for g, c in ds.codes.items()})


@settings(max_examples=200, deadline=None)
@given(plain_files(), st.sampled_from([131_072, 131_072, 131_072, 60, 16]))
@example(("id,AU6,label,gender\na,1,0,F\n\nb,2,1,M\n", "label"), 131_072)
@example(("id,AU6,label,gender\na,1,0,F\rb,2,1,M\n", "label"), 131_072)
@example(("id,AU6\r,label,gender\na,1,0,F\n", "label"), 131_072)
@example(("id,AU6,label,gender\r\na,1,0,F\r\nb,2\r\n", "label"), 131_072)
@example(("id,AU6,label,gender\na,1,0,F,x,y\nb,2,1,M", "label"), 131_072)
@example(("id,AU6,label,gender\na,1.25,0,FFFFFFFFFFFF\n", "label"), 16)
@example(("id,AU6,AU6,label,gender,gender\na,x,1,0,F,M\n", "label"), 131_072)
@example(("id,AU6,label,gender,f0\na,\xa01_0,7,F,1\nb,1,99999999999999999999,M,１\n",
          "label"), 131_072)
@example(("id,AU6,gender,label\na,,F,1\nb,2,M,0\n", "AU6"), 131_072)
def test_numpy_reader_gives_what_csv_reader_gives(case, limit):
    """A plain file and its twin, whose first header name is quoted: csv
    reads the name back unchanged, and the quote leaves the twin to
    csv.reader. Both load the same, or fail with the same error."""
    text, label_col = case
    old_limit = csv.field_size_limit(limit)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            plain, twin = Path(tmp) / "plain.csv", Path(tmp) / "twin.csv"
            plain.write_bytes(text.encode("utf-8"))
            name, rest = text.split(",", 1)
            twin.write_bytes(f'"{name}",{rest}'.encode("utf-8"))
            assert _outcome(plain, label_col) == _outcome(twin, label_col)
    finally:
        csv.field_size_limit(old_limit)


def test_plain_files_are_read_without_csv_reader(tmp_path, monkeypatch, capsys):
    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader called on a plain file")

    data, calib = tmp_path / "d.csv", tmp_path / "calib.csv"
    data.write_text(BASE.replace("\n", "\r\n"), encoding="utf-8")
    calib.write_text("id,AU6,AU6_true,gender\na,1.0,0,F\nb,3.0,1,M\nc,2.0,1,F\n",
                     encoding="utf-8")
    want = _outcome(data, "label")
    monkeypatch.setattr(csv, "reader", no_reader)
    assert _outcome(data, "label") == want
    assert load_dataset(data).dataset.label.tolist() == [0, 1, 1]
    out = tmp_path / "calib.json"
    assert run(["calibrate", "--data", str(calib), "--truth-cols", "AU6",
                "--out", str(out)]) == 0
    assert '"AU6"' in out.read_text(encoding="utf-8")
