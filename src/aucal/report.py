"""Canonical report emission: byte-stable JSON (sorted keys, 17 significant
digit floats) and CSV tables, quoted as csv.writer quotes (data._csv_text)."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .audit import BiasReport, GroupCurve
from .data import _csv_text
from .errors import IoError
from .metrics import RunSummary


def _format_float(x: float) -> str:
    return format(x, ".17g") if math.isfinite(x) else "null"


def _encode(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))  # the bytes json.dumps(obj) gives
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), out)
    elif dataclasses.is_dataclass(obj):  # before the slower Mapping check
        _encode_object([(name, getattr(obj, name)) for name in _field_names(type(obj))], out)
    elif isinstance(obj, Mapping):
        items = {str(k): v for k, v in obj.items()}
        if len(items) < len(obj):
            raise IoError(f"mapping keys collide as strings: {sorted(map(repr, obj))}")
        _encode_object(sorted(items.items()), out)
    elif isinstance(obj, (list, tuple)):
        if _encode_rows(obj, out):
            return
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _encode(v, out)
        out.append("]")
    else:
        raise IoError(f"cannot serialize {type(obj).__name__}")


def _encode_rows(items: list | tuple, out: list[str]) -> bool:
    """Append items from one row template and return True when every item is
    an instance of one dataclass whose field values are all str (a flip log)."""
    cls = type(items[0]) if items else None
    names = _field_names(cls) if dataclasses.is_dataclass(cls) else ()
    if not names or any(type(item) is not cls for item in items):
        return False
    values = [getattr(item, name) for item in items for name in names]
    if set(map(type, values)) != {str}:
        return False
    row = "{" + ",".join(encode_basestring_ascii(name) + ":%s" for name in names) + "}"
    rows = ",".join([row] * len(items)) % tuple(map(encode_basestring_ascii, values))
    out.append("[" + rows + "]")
    return True


def _encode_object(pairs: list[tuple[str, object]], out: list[str]) -> None:
    out.append("{")  # the keys are sorted and unique
    for i, (key, value) in enumerate(pairs):
        out.append(("," if i else "") + encode_basestring_ascii(key) + ":")
        _encode(value, out)
    out.append("}")


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(sorted(f.name for f in dataclasses.fields(cls)))


def canonical_json(obj) -> str:
    out: list[str] = []
    _encode(obj, out)
    return "".join(out)


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def report_header(seed: int | None = None,
                  input_path: str | Path | None = None) -> dict:
    header = {"tool": "aucal", "version": __version__}
    if seed is not None:
        header["seed"] = seed
    if input_path is not None:
        header["input_digest"] = file_digest(input_path)
    return header


def emit_json(report, path: str | Path, header: dict) -> None:
    payload = {"header": header, "report": report}
    Path(path).write_text(canonical_json(payload) + "\n", encoding="utf-8")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # numpy's float64 too
        return _format_float(value)
    return _csv_text(str(value))


def _table(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """One "\n"-ended line per row: None as "", a float by _format_float, any
    other cell its str, quoted as csv.writer quotes it."""
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in [header, *rows])


def bias_report_csv(report: BiasReport) -> str:
    """One row per conditioning cell: condition, per-group proportions,
    delta, chi-square, p, status."""
    levels = report.group_levels
    header = ["condition", *(f"n[{lvl}]" for lvl in levels),
              *(f"proportion[{lvl}]" for lvl in levels),
              "delta", "chi_square", "dof", "p_value", "status", "argmax_level"]
    return _table(header, (
        [cell.condition, *(cell.n_per_group.get(lvl, 0) for lvl in levels),
         *(cell.proportion_per_group.get(lvl) for lvl in levels),
         cell.delta, cell.chi_square, cell.dof, cell.p_value, cell.status, cell.argmax_level]
        for cell in report.cells))


def curves_csv(curves: Sequence[GroupCurve]) -> str:
    return _table(["au_id", "level", "intensity", "probability", "std_error"], (
        [curve.au_id, curve.level, x, p, se]
        for curve in sorted(curves, key=lambda c: (c.au_id, c.level))
        for x, p, se in zip(curve.grid, curve.probabilities, curve.std_errors)))


def summaries_csv(summaries: Sequence[RunSummary]) -> str:
    header = ["model", "disc_abs_mean", "disc_abs_std", "accuracy_mean", "accuracy_std", "runs"]
    return _table(header, ([s.name, s.mean_disc_abs, s.std_disc_abs,
                            s.mean_accuracy, s.std_accuracy, s.n_runs] for s in summaries))
