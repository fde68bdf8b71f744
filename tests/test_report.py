"""Canonical JSON and report emission.

A list or tuple of one dataclass whose field values are all str (a flip
log) is written from one row template; it must give the bytes the
recursive encoder gives, which are json.dumps's with sorted keys."""

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aucal import report
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
