"""Exception hierarchy for the aucal library, and the field type check
that raises InvalidConfig for every config dataclass."""

import dataclasses
import numbers
import sys
from collections.abc import Mapping
from typing import get_args, get_origin, get_type_hints


class AucalError(Exception):
    """Base class for all library errors."""


# --- data loading / validation ---

class MissingColumn(AucalError):
    def __init__(self, column: str):
        super().__init__(f"required column missing: {column!r}")
        self.column = column


class ParseError(AucalError):
    def __init__(self, row: int, column: str | None, message: str = ""):
        detail = f" ({message})" if message else ""
        where = "" if column is None else f", column {column!r}"
        super().__init__(f"row {row}{where}: unparseable value{detail}")
        self.row = row
        self.column = column


class EmptyDataset(AucalError):
    pass


class InconsistentFeatureDim(AucalError):
    pass


class NotUtf8(AucalError):
    pass


class UnknownAu(AucalError):
    def __init__(self, au_id: str):
        super().__init__(f"unknown AU id: {au_id!r}")
        self.au_id = au_id


class NotBinarized(AucalError):
    pass


class RepeatedAu(AucalError):
    pass


# --- statistics ---

class LengthMismatch(AucalError):
    pass


class EmptyInput(AucalError):
    pass


class InsufficientData(AucalError):
    pass


class InvalidCounts(AucalError):
    pass


class Separation(AucalError):
    pass


class SingularDesign(AucalError):
    pass


class OutOfDomain(AucalError):
    pass


# --- model / training ---

class IndexOutOfRange(AucalError):
    pass


class InvalidLabel(AucalError):
    pass


class NoFeatures(AucalError):
    pass


class EmptyTrainSplit(AucalError):
    pass


class DimensionMismatch(AucalError):
    pass


class Diverged(AucalError):
    pass


class InvalidModel(AucalError):
    pass


# --- metrics ---

class MissingGroup(AucalError):
    def __init__(self, level: str):
        super().__init__(f"group level not present: {level!r}")
        self.level = level


class SingleClass(AucalError):
    pass


class Misaligned(AucalError):
    pass


class InfeasibleBalance(AucalError):
    pass


# --- synth / relabel ---

class InvalidConfig(AucalError):
    pass


_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string"}


def holds(value, kind) -> bool:
    """Whether value is a kind: an int that fits in numpy's int64 (not a
    bool) for int, a finite number (not a bool) for float, an instance of
    kind otherwise."""
    if isinstance(value, bool):
        return False
    if kind is int:
        return isinstance(value, numbers.Integral) and -2**63 <= value < 2**63
    if kind is float:  # abs(nan) <= max is false, and an int too big is rejected
        return isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def check_types(config, where: str = "") -> None:
    """InvalidConfig unless every field of the dataclass config holds its
    annotated type (see holds), a mapping with string keys for
    Mapping[str, T], and each nested dataclass in turn."""
    for name, kind in get_type_hints(type(config)).items():
        value, label = getattr(config, name), where + name
        items = [(label, value)]
        if get_origin(kind) is Mapping:
            if not (isinstance(value, Mapping) and all(isinstance(k, str) for k in value)):
                raise InvalidConfig(f"{label} must map names to values, not {value!r:.40}")
            kind = get_args(kind)[1]
            items = [(f"{label}[{k!r}]", v) for k, v in value.items()]
        for item, v in items:
            if not holds(v, kind):
                what = ("a 64-bit integer" if kind is int and isinstance(v, int)
                        else _TYPE_NAMES.get(kind, f"of type {kind.__name__}"))
                raise InvalidConfig(f"{item} must be {what}, not {v!r:.40}")
            if dataclasses.is_dataclass(kind):
                check_types(v, f"{item}.")


class InvalidCount(AucalError):
    pass


class IoError(AucalError):
    pass
