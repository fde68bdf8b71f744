"""Canonical JSON and report emission.

A list or tuple of one dataclass whose field values are all str (a flip
log) is written from one row template; it must give the bytes the
recursive encoder gives, which are json.dumps's with sorted keys.

The CSV tables quote their text cells as csv.writer does, so csv.reader
gives back every row at the header's width, with its text and floats."""

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aucal import report
from aucal.audit import BiasReport, CellResult, GroupCurve
from aucal.metrics import RunSummary
from aucal.relabel import FlipEntry
from aucal.report import canonical_json, file_digest, report_header


def test_keys_sorted_recursively():
    s = canonical_json({"b": 1, "a": {"z": 1, "y": 2}})
    assert s == '{"a":{"y":2,"z":1},"b":1}'


def test_float_formatting_round_trips():
    values = [0.1, 1 / 3, 1e-300, 1.7976931348623157e308, 2.0, -0.0]
    s = canonical_json(values)
    back = json.loads(s)
    for orig, parsed in zip(values, back):
        assert parsed == orig  # %.17g preserves every double exactly


def test_non_finite_becomes_null():
    assert canonical_json([float("nan"), float("inf")]) == "[null,null]"


def test_ndarray_and_dataclass_support():
    @dataclass
    class Point:
        x: float
        y: np.ndarray

    s = canonical_json(Point(x=0.5, y=np.array([1.0, 2.0])))
    assert json.loads(s) == {"x": 0.5, "y": [1.0, 2.0]}


def test_identical_input_identical_bytes():
    payload = {"values": np.linspace(0, 1, 7), "n": 7, "tag": "x"}
    assert canonical_json(payload) == canonical_json(payload)


def test_header_has_no_timestamps(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("id\n1\n", encoding="utf-8")
    h = report_header(seed=3, input_path=p)
    s = canonical_json(h)
    assert canonical_json(report_header(seed=3, input_path=p)) == s
    assert "time" not in s and "date" not in s


def test_file_digest(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"abc")
    assert file_digest(p) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_math_nan_guard():
    assert json.loads(canonical_json({"v": math.nan})) == {"v": None}


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Pair:
    b_text: str
    a_text: str


# non-ASCII, quotes, backslashes, control characters, lone surrogates, ""
TEXTS = st.text(st.one_of(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "é",
                                           "\u2028", "😀", "\ud800", "%", "s"]),
                          st.characters()), max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.builds(FlipEntry, TEXTS, TEXTS, TEXTS, TEXTS), max_size=6),
       st.lists(st.builds(Pair, TEXTS, TEXTS), max_size=4))
def test_rows_of_one_str_dataclass_encode_as_json_dumps(flips, pairs):
    value = {"entries": flips, "pairs": tuple(pairs)}
    assert canonical_json(value) == _dumps({
        "entries": list(map(dataclasses.asdict, flips)),
        "pairs": list(map(dataclasses.asdict, pairs))})


class Text(str):
    pass


@pytest.mark.parametrize("items", [
    [FlipEntry("r1", "AU6=1", "F", "pos_to_neg"), Pair("x", "y")],
    [FlipEntry("r1", "AU6=1", "F", "pos_to_neg"), FlipEntry("r2", "AU6=0", 3, "neg_to_pos")],
    [FlipEntry("r1", "AU6=1", Text("F"), "pos_to_neg")],
    [],
    ("r1", Pair("x", "y")),
], ids=["two_dataclasses", "non_str_field", "str_subclass", "empty", "tuple"])
def test_other_lists_take_the_recursive_path_and_keep_their_bytes(items):
    assert not report._encode_rows(items, [])
    assert canonical_json(items) == _dumps([
        dataclasses.asdict(v) if dataclasses.is_dataclass(v) else v for v in items])


# commas, quotes, CR, LF and spaces; csv.reader refuses NUL, and surrogates
# do not encode
CELL_TEXTS = st.one_of(
    st.sampled_from(["F,x", 'M"']),
    st.text(st.one_of(st.sampled_from([",", '"', "\r", "\n", " "]),
                      st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")),
            max_size=6))
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _read(text: str) -> list[list[str]]:
    assert text.endswith("\n")
    return list(csv.reader(io.StringIO(text, newline="")))


@settings(max_examples=80, deadline=None)
@given(name=CELL_TEXTS, level=CELL_TEXTS, condition=CELL_TEXTS,
       levels=st.lists(CELL_TEXTS, min_size=1, max_size=3, unique=True),
       values=st.lists(FINITE, min_size=4, max_size=4))
def test_tables_quote_text_cells_and_keep_their_width(name, level, condition, levels, values):
    header, row = _read(report.summaries_csv([RunSummary(name, *values, n_runs=3)]))
    assert len(header) == len(row) == 6
    assert row[0] == name and list(map(float, row[1:5])) == values and row[5] == "3"

    grid, probs, errors = np.array(values[:3]), np.array(values[1:]), np.array(values[::-1][:3])
    header, *rows = _read(report.curves_csv([GroupCurve(level, "AU6", grid, probs, errors)]))
    assert header == ["au_id", "level", "intensity", "probability", "std_error"]
    assert [row[:2] for row in rows] == [["AU6", level]] * 3
    assert [list(map(float, row[2:])) for row in rows] == np.c_[grid, probs, errors].tolist()

    counts = {lvl: i + 1 for i, lvl in enumerate(levels)}
    props = dict(zip(levels[1:], values))  # the first level has no proportion
    tested = CellResult(condition, counts, counts, props, "tested", delta=values[0],
                        chi_square=values[1], dof=1, p_value=values[2], argmax_level=levels[-1])
    thin = CellResult(condition, counts, counts, {}, "insufficient_data")
    bias = BiasReport("gender", tuple(levels), 1, ("AU6",), "joint", (tested, thin))
    header, *rows = _read(report.bias_report_csv(bias))
    assert header == ["condition", *(f"n[{lvl}]" for lvl in levels),
                      *(f"proportion[{lvl}]" for lvl in levels),
                      "delta", "chi_square", "dof", "p_value", "status", "argmax_level"]
    assert all(len(row) == len(header) for row in rows) and len(rows) == 2
    k = len(levels)
    for row, cell in zip(rows, (tested, thin)):
        assert row[0] == condition and row[1:1 + k] == [str(counts[lvl]) for lvl in levels]
        assert [float(v) if v else None for v in row[1 + k:1 + 2 * k]] == [
            cell.proportion_per_group.get(lvl) for lvl in levels]
    delta, chi_square, dof, p_value, status, argmax_level = rows[0][-6:]
    assert list(map(float, (delta, chi_square, p_value))) == values[:3]
    assert [dof, status, argmax_level] == ["1", "tested", levels[-1]]
    assert rows[1][-6:] == ["", "", "", "", "insufficient_data", ""]
