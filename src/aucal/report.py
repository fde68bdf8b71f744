"""Canonical report emission: byte-stable JSON (sorted keys, 17
significant digit floats) and Table-shaped CSV exports."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .audit import BiasReport, GroupCurve
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
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _encode(v, out)
        out.append("]")
    else:
        raise IoError(f"cannot serialize {type(obj).__name__}")


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


def emit_json(report, path: str | Path, header: dict | None = None) -> None:
    payload = {"header": header or report_header(), "report": report}
    try:
        Path(path).write_text(canonical_json(payload) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc))


def bias_report_csv(report: BiasReport) -> str:
    """One row per conditioning cell: condition, per-group proportions,
    delta, chi-square, p, status."""
    buf = io.StringIO()
    levels = report.group_levels
    cols = ["condition"]
    cols += [f"n[{lvl}]" for lvl in levels]
    cols += [f"proportion[{lvl}]" for lvl in levels]
    cols += ["delta", "chi_square", "dof", "p_value", "status", "argmax_level"]
    buf.write(",".join(cols) + "\n")
    for cell in report.cells:
        row = [cell.condition]
        row += [str(cell.n_per_group.get(lvl, 0)) for lvl in levels]
        row += [
            _format_float(cell.proportion_per_group[lvl])
            if lvl in cell.proportion_per_group else ""
            for lvl in levels
        ]
        row.append(_format_float(cell.delta) if cell.delta is not None else "")
        row.append(_format_float(cell.chi_square) if cell.chi_square is not None else "")
        row.append(str(cell.dof) if cell.dof is not None else "")
        row.append(_format_float(cell.p_value) if cell.p_value is not None else "")
        row.append(cell.status)
        row.append(cell.argmax_level or "")
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def curves_csv(curves: Sequence[GroupCurve]) -> str:
    buf = io.StringIO()
    buf.write("au_id,level,intensity,probability,std_error\n")
    for curve in sorted(curves, key=lambda c: (c.au_id, c.level)):
        for x, p, se in zip(curve.grid, curve.probabilities, curve.std_errors):
            buf.write(
                f"{curve.au_id},{curve.level},{_format_float(float(x))},"
                f"{_format_float(float(p))},{_format_float(float(se))}\n"
            )
    return buf.getvalue()


def summaries_csv(summaries: Sequence[RunSummary]) -> str:
    buf = io.StringIO()
    buf.write("model,disc_abs_mean,disc_abs_std,accuracy_mean,accuracy_std,runs\n")
    for s in summaries:
        buf.write(
            f"{s.name},{_format_float(s.mean_disc_abs)},{_format_float(s.std_disc_abs)},"
            f"{_format_float(s.mean_accuracy)},{_format_float(s.std_accuracy)},{s.n_runs}\n"
        )
    return buf.getvalue()
