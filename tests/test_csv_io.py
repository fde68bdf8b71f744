"""The CSV layer's byte and parsing contracts.

- save_dataset writes exactly the bytes csv.writer would, for any text in
  ids, group levels, header names and extra columns, and load_dataset reads
  them back;
- numeric cells padded with any whitespace load to the unpadded values, and
  0/1 cells so padded read as 0/1 in load_dataset and aucal calibrate, where
  any other cell names its row and column;
- a bad cell raises ParseError naming its row, column and reason;
- rows with a missing intensity are dropped and counted;
- a field longer than csv.field_size_limit() ends in exit code 1 naming
  its row (its record, not its physical line), and the data layer's other
  input errors are typed;
- a plain file, which numpy's text reader reads without csv.reader, loads
  exactly as its quoted twin does through csv.reader;
- save_dataset's digit writer gives repr's text for every float block, and
  writes from digits exactly the rows whose every cell repr prints as a
  decimal of at most 9 fraction digits below 1e6 in size;
- save_dataset's traced peak memory does not grow with the row count;
- load_dataset's label, group and split columns, converted once per
  distinct cell, equal the per-cell conversion kept here as the
  `_reference_*` helpers, or fail with the same row and column.
"""

import csv
import io
import json
import os
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aucal import data
from aucal.cli import demo_synth_config, run
from aucal.data import (AuCellKey, CellKeys, CsvSchema, binarize, load_dataset,
                        save_dataset)
from aucal.errors import AucalError, LengthMismatch, Misaligned, NotBinarized, ParseError
from aucal.synth import generate
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


BIT_CELLS = ["1", " 1", "0 ", "\t0\t", "\xa01", "1\x1c", "0", "　1　", "\x1f0", "1\x00"]


def _bits_file(path, cells, quoted):
    """One row per cell, the cell both AU6's presence and its truth; AU6's
    intensity separates the rows whose cell reads 1."""
    rows = ["id,AU6,AU6_presence,AU6_true,label,gender"]
    ones = np.array(_as_loaded(cells)) == "1"
    for i, cell in enumerate(cells):
        x = 1.0 + 2.0 * ones[i] + 0.01 * i
        rows.append(f"r{i},{x:.2f},{cell},{cell},{i % 2},{'FM'[i % 2]}")
    if quoted:  # csv.reader, not numpy, reads the file
        rows[1] = '"r0"' + rows[1][2:]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_padded_bit_cells_read_as_their_stripped_text(tmp_path, quoted):
    cells = BIT_CELLS * 3
    want = np.array(_as_loaded(cells)) == "1"
    padded = _bits_file(tmp_path / "padded.csv", cells, quoted)
    bare = _bits_file(tmp_path / "bare.csv", [c.strip() for c in cells], quoted)
    np.testing.assert_array_equal(load_dataset(padded).dataset.presence[:, 0], want)
    assert data.CsvColumns(padded, lambda header: {"AU6"}).bits("AU6_true").tolist() \
        == want.tolist()
    reports = []
    for path in (padded, bare):
        out = tmp_path / f"{path.stem}.json"
        assert run(["calibrate", "--data", str(path), "--truth-cols", "AU6",
                    "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text(encoding="utf-8"))["report"])
    assert reports[0] == reports[1]
    assert reports[0]["AU6"]["global_accuracy"] == 1.0


@pytest.mark.parametrize("bad", ["2", "", "1.0", " 2 ", "01"])
@pytest.mark.parametrize("command, column", [
    (["calibrate", "--truth-cols", "AU6"], "AU6_true"),
    (["audit", "--condition", "AU6"], "AU6_presence"),
])
def test_a_bit_cell_other_than_0_or_1_names_its_row(tmp_path, capsys, bad, command,
                                                     column):
    cells = BIT_CELLS * 2
    cells[4], cells[9] = bad, "7"  # rows 6 and 11; the first is named
    path = _bits_file(tmp_path / "d.csv", cells, quoted=False)
    out = tmp_path / "out.json"
    assert run([*command, "--data", str(path), "--out", str(out)]) == 1
    assert f"row 6, column {column!r}: unparseable value (must be 0 or 1)" \
        in capsys.readouterr().err
    assert not out.exists()


BASE = ("id,AU6,AU12,label,gender,split,f0\n"
        "a,1,1,0,F,train,0.5\nb,2,2,1,M,test,1.5\nc,3,0.5,1,F,train,2.5\n")


def test_cells_float_reads_only_once_stripped_load_through_csv_reader(tmp_path):
    """float() refuses "\x1c1.5", which str.strip makes 1.5; a quoted id
    sends the file through csv.reader, whose cells the load retries stripped."""
    p = tmp_path / "d.csv"
    p.write_text(BASE.replace("a,1,1", '"a",\x1c1.5,1').replace("2.5\n", "\x1c-1\n"),
                 encoding="utf-8")
    ds = load_dataset(p).dataset
    assert (ds.intensity[0, ds.au_ids.index("AU6")], ds.features[2, 0]) == (1.5, -1.0)


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


def _reference_label(table, label_col):
    """The label column as load_dataset read it before: int per cell."""
    return table.parse(label_col, int, np.int64, label_col, "not an integer")


def _reference_groups(table, group_cols):
    """Group levels and codes as load_dataset read them before: np.unique of
    one numpy str array of every stripped cell."""
    levels, codes = {}, {}
    for g in group_cols:
        values, codes[g] = np.unique(np.array(table.cells(g)), return_inverse=True)
        levels[g] = tuple(values.tolist())
    return levels, codes


def _reference_is_test(table):
    """The test-split mask as load_dataset read it before: every stripped
    cell checked, and a list of n blanks for an absent column."""
    split = np.array(table.cells("split") if "split" in table.index
                     else [""] * len(table))
    table.reject((split != "") & (split != "train") & (split != "test"),
                 "split", "split must be train/test")
    return split == "test"


def _few_valued(label, levels, codes, is_test):
    return (label.dtype, label.tolist(), levels,
            {g: (c.dtype, c.tolist()) for g, c in codes.items()}, is_test.tolist())


def _reference_load(path):
    """What the per-cell references give for load_dataset's label, levels,
    codes and split mask, or the ParseError's row, column and text."""
    table = data.CsvColumns(path, lambda header: {"AU6"})
    table.keep(table.filled("AU6"))
    try:
        label = _reference_label(table, "label")
        levels, codes = _reference_groups(
            table, [g for g in data.KNOWN_GROUP_COLUMNS if g in table.index])
        return _few_valued(label, levels, codes, _reference_is_test(table))
    except ParseError as exc:
        return exc.row, exc.column, str(exc)


def _distinct_load(path):
    try:
        ds = load_dataset(path).dataset
    except ParseError as exc:
        return exc.row, exc.column, str(exc)
    return _few_valued(ds.label, dict(ds.attribute_levels), dict(ds.codes), ds.is_test)


LABEL_CELLS = ["0", "1", " 1", "+1", "1_0", "01", "-0", "9223372036854775808", "x"]
GROUP_CELLS = ["F", " F", "F\x00", "F\x00 ", "M", "M\t", "é", "中 ", "Ω\x00", "\xa0X"]
SPLIT_CELLS = ["train", "test", " test ", "", " ", "TEST", "test\x00", "\ttrain"]


@st.composite
def few_valued_files(draw):
    """A CSV's rows, header first: label, group and split cells from small
    vocabularies drawn per file, the split column at times absent, and rows
    with a blank AU6 cell, which load_dataset drops before it reads these
    columns."""
    vocab = {"label": LABEL_CELLS, "gender": GROUP_CELLS, "race": GROUP_CELLS,
             "split": SPLIT_CELLS}
    header = ["id", "AU6", "label", "gender"]
    header += draw(st.lists(st.sampled_from(["race", "split"]), unique=True))
    cells = {c: draw(st.lists(st.sampled_from(v), min_size=1, max_size=3, unique=True))
             for c, v in vocab.items()}
    rows = [[f"r{i}", "" if i and draw(st.integers(0, 3)) == 0 else "2.5",
             *(draw(st.sampled_from(cells[c])) for c in header[2:])]
            for i in range(draw(st.integers(1, 12)))]
    return [header, *rows]


@settings(max_examples=60, deadline=None)
@given(few_valued_files(), st.booleans())
def test_per_distinct_load_gives_the_per_cell_columns(table, quoted):
    """load_dataset converts the label, group and split columns once per
    distinct cell: the arrays and levels the per-cell references give, or
    the same ParseError, on plain files and on files csv.reader reads."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL if quoted else csv.QUOTE_MINIMAL,
                       lineterminator="\n").writerows(table)
        assert _distinct_load(path) == _reference_load(path)


def _written(block):
    """The row texts _decimal_rows gives for block, and how many rows it
    wrote from digits: the rows for which it called repr on no cell."""
    calls = []

    def spy(value):
        calls.append(value)
        return repr(value)

    with mock.patch.object(data, "repr", spy, create=True):
        columns = data._decimal_rows(block)
    return [",".join(row) for row in zip(*columns)], len(block) - len(calls) // block.shape[1]


def _short(x: float) -> bool:
    """repr(x) is fixed notation with at most 9 fraction digits, |x| < 1e6."""
    text = repr(x)
    return "e" not in text and "n" not in text and abs(x) < 1e6 \
        and len(text.partition(".")[2]) <= 9


EDGES = [0.0, -0.0, 1e-4, -1e-4, float(np.nextafter(1e-4, 0)), 6e-05, 999999.999999999,
         1e15 - 1, 1e15, 2.0**53, 5e-324, float("inf"), float("-inf"), float("nan")]
# m / 10**k, the shortest decimal repr has; a draw with k <= 9 and
# |m| < 10**(6 + k), 0 or at least 1e-4, is one the digit writer must take
SHORT = st.integers(0, 9).flatmap(lambda k: st.integers(-10**(6 + k) + 1, 10**(6 + k) - 1)
                                  .filter(lambda m: m == 0 or abs(m) * 10**4 >= 10**k)
                                  .map(lambda m: m / 10**k))
DECIMAL = st.builds(lambda m, k: m / 10**k, st.integers(-10**16, 10**16), st.integers(0, 12))
INTEGRAL = st.one_of(st.integers(-10**6, 10**6), st.integers(-2**60, 2**60)).map(float)
CELL = {"decimal": DECIMAL, "float": st.floats(allow_nan=False, allow_infinity=False),
        "integral": INTEGRAL, "edge": st.sampled_from(EDGES),
        "mixed": st.one_of(SHORT, DECIMAL, INTEGRAL, st.sampled_from(EDGES), st.floats())}


@st.composite
def float_blocks(draw):
    """(block, least rows the digit writer must take): a decimal block
    draws at least half its rows from SHORT."""
    kind = draw(st.sampled_from(sorted(CELL)))
    n, c = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    sure = (n + 1) // 2 if kind == "decimal" else 0
    rows = [[draw(SHORT if i < sure else CELL[kind]) for _ in range(c)] for i in range(n)]
    return np.array(rows, dtype=np.float64), sure


@settings(max_examples=300, deadline=None)
@given(float_blocks())
def test_digit_writer_gives_repr(case):
    block, sure = case
    texts, fast = _written(block)
    assert texts == [",".join(map(repr, row)) for row in block.tolist()]
    assert fast == sum(all(map(_short, row)) for row in block.tolist())
    assert fast >= sure


@pytest.mark.parametrize("value", EDGES)
def test_digit_writer_edges(value):
    for block in (np.array([[value]]), np.array([[value, 2.5], [1.0, 0.25]]),
                  np.array([EDGES, [value] * len(EDGES)])):
        texts, _ = _written(block)
        assert texts == [",".join(map(repr, row)) for row in block.tolist()]


@pytest.mark.parametrize("case", ["bench", "blocks", "one_row_block"])
def test_bench_shaped_file_saves_as_csv_writer_does(tmp_path, case):
    """2,000 rows in the benchmark's %.4f intensity and %.5f feature format,
    one feature cell below 1e-4, loaded, binarized and saved: the bytes
    csv.writer gives, with only that row's features written by repr. With
    blocks, 4,000 rows span at least 3 of save's blocks, every third row's
    features are full precision (so repr writes them too), an id in the
    third block needs quotes and an extra column is saved; one_row_block is
    blocks with a row count that leaves save's last block one row."""
    gen = np.random.default_rng(15)
    blocks, aus = case != "bench", ["AU4", "AU5", "AU7", "AU23"]
    step = data._SAVE_CELLS // 25  # the columns saved with blocks
    n = {"bench": 2000, "blocks": 4000, "one_row_block": 3 * step + 1}[case]
    intensity = np.clip(gen.normal(2.0, 1.2, (n, 4)), 0.0, 5.0)
    features = gen.normal(0.0, 1.5, (n, 12))
    features[7, 3], features[8, 0] = 6e-05, -0.0
    slow = sorted({7, *range(0, n, 3)}) if blocks else [7]
    lines = [",".join(["id", *aus, "label", "gender", *(f"f{j}" for j in range(12))])]
    for i in range(n):
        cell = repr if blocks and i % 3 == 0 else "{:.5f}".format
        lines.append(",".join([f'"a,{i}"' if blocks and i == 3001 else f"a{i}",
                               *(f"{v:.4f}" for v in intensity[i]),
                               str(int(gen.random() < 0.4)), "FM"[i % 2],
                               *map(cell, features[i].tolist())]))
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ds = binarize(load_dataset(src).dataset, dict.fromkeys(aus, 2.5))
    assert ds.features[7, 3] == 6e-05 and np.signbit(ds.features[8, 0])
    extra = {"note": [f'n"{i}' if i % 5 else i for i in range(n)]} if blocks else {}
    floats = []

    def spy(value):
        if isinstance(value, float):
            floats.append(value)
        return repr(value)

    with mock.patch.object(data, "repr", spy, create=True):
        save_dataset(ds, out, extra_columns=extra)
    assert out.read_bytes() == reference_csv(ds, "label", extra)
    assert floats == ds.features[slow].ravel().tolist()
    if blocks:
        columns = out.read_bytes().partition(b"\r\n")[0].count(b",") + 1
        assert columns == 25 and n > 2 * step  # at least 3 blocks
        assert case != "one_row_block" or n % step == 1


def test_save_working_set_does_not_grow_with_rows(tmp_path):
    """save_dataset formats a bounded block of cells at a time, so its
    traced peak on demo data is about the same at 2k and at 16k rows."""
    peaks = []
    for n in (2000, 16000):
        ds = generate(replace(demo_synth_config(7), n=n)).dataset
        tracemalloc.start()
        try:
            save_dataset(ds, tmp_path / f"{n}.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks
