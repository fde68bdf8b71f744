"""Data model and tabular I/O: columnar datasets, CSV load/save, AU
binarization, and the one stratification helper.

A Dataset holds read-only, row-aligned columns: ids, AU intensities,
presence bits, labels, integer group codes, features and the test-split
mask. Every transform returns a new Dataset over new or indexed columns.
"""

from __future__ import annotations

import csv
import re
from collections.abc import Callable, Container, Mapping, Sequence
from dataclasses import dataclass, field, replace
from itertools import compress
from pathlib import Path

import numpy as np

from .errors import (
    EmptyDataset,
    InconsistentFeatureDim,
    LengthMismatch,
    Misaligned,
    MissingColumn,
    NotBinarized,
    NotUtf8,
    ParseError,
    RepeatedAu,
    UnknownAu,
)

AU_COLUMN_RE = re.compile(r"^AU\d+$")
FEATURE_COLUMN_RE = re.compile(r"^f(\d+)$")
PRESENCE_SUFFIX = "_presence"
KNOWN_GROUP_COLUMNS = ("gender", "age_group", "race")
AU_MIN, AU_MAX = 0.0, 5.0
DEFAULT_THRESHOLD = 2.5  # binarizes an AU that no threshold is given for
_SAVE_CELLS = 1 << 15  # cells formatted at a time, so save holds few cell strings
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def au_sort_key(au_id: str) -> tuple[int, str]:
    m = re.match(r"^AU(\d+)$", au_id)
    return (int(m.group(1)), au_id) if m else (10**9, au_id)


@dataclass(frozen=True, order=True)
class AuCellKey:
    """One binarized-AU configuration used as a conditioning event,
    e.g. ((AU6, 1), (AU12, 0)). AU ids are kept sorted."""

    items: tuple[tuple[str, int], ...]

    def __post_init__(self):
        items = tuple(sorted(self.items, key=lambda kv: kv[0]))
        for au, bit in items:
            if bit not in (0, 1):
                raise NotBinarized(f"presence bit must be 0/1, got {bit}")
        object.__setattr__(self, "items", items)

    def describe(self) -> str:
        return ",".join(f"{au}={bit}" for au, bit in self.items)


@dataclass(frozen=True, eq=False)
class CellKeys(Sequence):
    """The AU cell of each row as one integer code.

    au_ids are in AuCellKey order (sorted as strings) and the first is the
    most significant bit, so codes sort the way AuCellKey and its
    describe() strings do. Indexing with an int gives that row's AuCellKey;
    indexing with a slice or an index array gives a CellKeys."""

    au_ids: tuple[str, ...]
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return self.key(self.codes[index])
        return CellKeys(self.au_ids, self.codes[index])

    def key(self, code: int) -> AuCellKey:
        k = len(self.au_ids)
        return AuCellKey(tuple(
            (au, (int(code) >> (k - 1 - j)) & 1) for j, au in enumerate(self.au_ids)
        ))

    @classmethod
    def of(cls, keys: Sequence[AuCellKey]) -> "CellKeys":
        """keys as a CellKeys; a plain list must share one set of AUs."""
        if isinstance(keys, CellKeys):
            return keys
        items = [key.items for key in keys]
        au_ids = tuple(au for au, _ in items[0]) if items else ()
        if any(tuple(au for au, _ in it) != au_ids for it in items):
            raise Misaligned("cell keys condition on different AUs")
        bits = np.array([[b for _, b in it] for it in items], dtype=np.int64)
        return cls(au_ids, _pack(bits.reshape(len(items), len(au_ids))))


def _pack(bits: np.ndarray) -> np.ndarray:
    """Row codes of an (n, k) 0/1 matrix, first column most significant."""
    return bits.astype(np.int64) @ (1 << np.arange(bits.shape[1], dtype=np.int64)[::-1])


def strata(codes) -> list[tuple[int, np.ndarray]]:
    """Group row indices by code: (code, indices) pairs in ascending code
    order, each stratum's indices ascending (slices of a stable argsort)."""
    codes = np.asarray(codes)
    if codes.size == 0:
        return []
    order = np.argsort(codes, kind="stable")
    ranked = codes[order]
    cuts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    firsts = ranked[np.concatenate(([0], cuts))].tolist()
    bounds = [0, *cuts.tolist(), codes.size]
    return [(first, order[lo:hi]) for first, lo, hi in zip(firsts, bounds, bounds[1:])]


def _read_only(array) -> np.ndarray:
    view = np.asarray(array).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class Dataset:
    """Row-aligned, read-only columns.

    intensity and presence are (n, k) in au_ids order; presence bits are
    meaningful only for the AUs in `binarized`. codes[attr] indexes
    attribute_levels[attr], whose levels are sorted. features is (n, d)."""

    au_ids: tuple[str, ...]
    attribute_levels: Mapping[str, tuple[str, ...]]
    ids: np.ndarray
    intensity: np.ndarray
    presence: np.ndarray
    binarized: frozenset[str]
    label: np.ndarray
    codes: Mapping[str, np.ndarray]
    features: np.ndarray
    is_test: np.ndarray

    def __post_init__(self):
        for name in ("ids", "intensity", "presence", "label", "features", "is_test"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        object.__setattr__(self, "codes", {a: _read_only(c) for a, c in self.codes.items()})

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def labels(self) -> np.ndarray:
        return self.label

    def feature_matrix(self) -> np.ndarray:
        return self.features

    def group_levels(self, attr: str) -> tuple[str, ...]:
        """attr's sorted levels; MissingColumn when no group column is attr."""
        if attr not in self.attribute_levels:
            raise MissingColumn(attr)
        return self.attribute_levels[attr]

    def group_codes(self, attr: str) -> np.ndarray:
        self.group_levels(attr)
        return self.codes[attr]

    def group_values(self, attr: str) -> np.ndarray:
        return np.asarray(self.group_levels(attr))[self.codes[attr]]

    def intensities(self, au_id: str) -> np.ndarray:
        if au_id not in self.au_ids:
            raise UnknownAu(au_id)
        return self.intensity[:, self.au_ids.index(au_id)]

    def is_binarized(self, au_ids: Sequence[str]) -> bool:
        return self.binarized.issuperset(au_ids)

    def cell_keys(self, au_ids: Sequence[str]) -> CellKeys:
        if len(set(au_ids)) < len(au_ids):  # AU6,AU6 would give impossible cells
            raise RepeatedAu(f"an AU is named twice in {list(au_ids)}")
        if not self.is_binarized(au_ids):
            raise NotBinarized(f"dataset not binarized for {list(au_ids)}")
        aus = sorted(au_ids)
        cols = [self.au_ids.index(a) for a in aus]
        return CellKeys(tuple(aus), _pack(self.presence[:, cols]))

    def subset(self, indices: Sequence[int]) -> "Dataset":
        return self._rows(np.asarray(indices, dtype=np.int64))

    def split_part(self, part: str) -> "Dataset":
        masks = {"test": self.is_test, "train": ~self.is_test}
        return self._rows(masks.get(part, np.zeros(len(self), dtype=bool)))

    def with_labels(self, new_labels: Sequence[int]) -> "Dataset":
        if len(new_labels) != len(self):
            raise LengthMismatch("label vector length mismatch")
        return replace(self, label=np.asarray(new_labels, dtype=np.int64))

    def _rows(self, index: np.ndarray | slice) -> "Dataset":
        return replace(
            self,
            ids=self.ids[index],
            intensity=self.intensity[index],
            presence=self.presence[index],
            label=self.label[index],
            codes={a: c[index] for a, c in self.codes.items()},
            features=self.features[index],
            is_test=self.is_test[index],
        )


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for load_dataset. label_col names the expression
    column (e.g. 'happy' or 'label'); ids are read from 'id', the split from
    'split', and the group columns are whichever of gender/age_group/race
    are present, the names save_dataset writes."""

    label_col: str = "label"


@dataclass
class LoadResult:
    dataset: Dataset
    dropped_rows: int
    ignored_columns: list[str] = field(default_factory=list)


class CsvColumns:
    """A CSV file read column by column, its cells stripped of surrounding
    whitespace. A row with fewer fields than the header, a field longer than
    csv.field_size_limit() and a cell that does not parse raise ParseError
    naming the row (the header is row 1) and, but for the long field, the column;
    a file that is not UTF-8 text raises NotUtf8. In a plain file, numpy
    converts the columns floats(header) names to float."""

    def __init__(self, path: str | Path, floats: Callable[[list[str]], Container[str]]):
        try:
            self.header, self._columns, n = _read_plain(path, floats) or _read_csv(path)
        except UnicodeDecodeError as exc:
            raise NotUtf8(f"{path}: not UTF-8 text ({exc})") from None
        self.index = {name: i for i, name in enumerate(self.header)}
        self.rownums = np.arange(2, n + 2)

    def __len__(self) -> int:
        return len(self.rownums)

    def keep(self, rows: np.ndarray) -> None:
        """Read only the rows where rows is true from now on."""
        self.rownums = self.rownums[rows]
        kept = rows.tolist()
        self._columns = [column[rows] if isinstance(column, np.ndarray)
                         else list(compress(column, kept)) for column in self._columns]

    def _raw(self, name: str) -> Sequence[str]:
        if name not in self.index:
            raise MissingColumn(name)
        return self._columns[self.index[name]]

    def cells(self, name: str) -> list[str]:
        return list(map(str.strip, self._raw(name)))

    def distinct(self, name: str) -> tuple[list[str], np.ndarray]:
        """name's distinct raw cells, stripped, and each row's index into them."""
        raw = self._raw(name)
        index = {cell: i for i, cell in enumerate(dict.fromkeys(raw))}
        return (list(map(str.strip, index)),
                np.fromiter(map(index.__getitem__, raw), dtype=np.int64, count=len(raw)))

    def filled(self, name: str) -> np.ndarray:  # a float column from numpy has no blank cell
        values = self._raw(name)
        return (np.ones(len(values), dtype=bool) if isinstance(values, np.ndarray) else
                np.fromiter(map(bool, map(str.strip, values)), dtype=bool, count=len(values)))

    def reject(self, bad: np.ndarray, column: str,
               message: str | Callable[[int], str]) -> None:
        """ParseError at the first flagged row; message may take its index."""
        if bad.any():
            i = int(bad.argmax())
            raise ParseError(int(self.rownums[i]), column,
                             message(i) if callable(message) else message)

    def parse(self, name: str, convert: Callable, dtype, column: str,
              message: str) -> np.ndarray:
        # float() and int() skip what str.strip removes but \x1c-\x1f: strip on failure
        values = self._raw(name)
        if isinstance(values, np.ndarray):  # numpy's float column, as float() reads it
            return values
        try:
            return np.fromiter(map(convert, values), dtype=dtype, count=len(values))
        except (ValueError, OverflowError):  # OverflowError: beyond int64
            values = self.cells(name)
            for rownum, value in zip(self.rownums.tolist(), values):
                try:
                    np.array(convert(value), dtype=dtype)
                except (ValueError, OverflowError):
                    raise ParseError(rownum, column, message) from None
            return np.fromiter(map(convert, values), dtype=dtype, count=len(values))

    def intensity(self, name: str) -> np.ndarray:
        """An AU intensity column: numbers in [AU_MIN, AU_MAX]."""
        v = self.parse(name, float, float, name, "not a number")
        self.reject(~((v >= AU_MIN) & (v <= AU_MAX)), name,
                    lambda i: f"intensity {float(v[i])} outside [0, 5]")
        return v

    def bits(self, name: str) -> np.ndarray:
        """A 0/1 column, such as AU presence or expert-coded truth."""
        cells = self.cells(name)
        if set(cells) <= {"0", "1"}:
            return np.frombuffer("".join(cells).encode("ascii"), np.uint8) == ord("1")
        raw = np.array(cells)  # which drops trailing NULs: "1\x00" reads as 1
        self.reject((raw != "0") & (raw != "1"), name, "must be 0 or 1")
        return raw == "1"


def _read_csv(path: str | Path) -> tuple[list[str], list, int]:
    """Header, columns and row count of any CSV file: the reference reader."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        rows = []
        try:
            rows.extend(csv.reader(fh))  # keeps the records read before a csv.Error
        except csv.Error as exc:
            raise ParseError(len(rows) + 1, None, str(exc)) from None
    if not rows:
        raise EmptyDataset(f"{path}: no header")
    header = rows.pop(0)
    widths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    short = widths < len(header)
    if short.any():
        i = int(short.argmax())
        raise ParseError(i + 2, header[widths[i]],
                         f"row has {widths[i]} fields, header has {len(header)}")
    return header, list(zip(*rows)) if rows else [()] * len(header), len(rows)


def _read_plain(path: str | Path, floats: Callable) -> tuple[list[str], list, int] | None:
    """_read_csv's result from one np.loadtxt pass, or None if the file is not
    plain: a data row and no '"', bare CR, blank line or line longer than
    csv.field_size_limit(), so line.split(",") gives csv.reader's cells. numpy
    takes no float cell that float() refuses, and gives float()'s value."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        text = fh.read()
    text = text.replace("\r\n", "\n") if "\r" in text else text  # no copy of a CR-free text
    lines = [] if '"' in text or "\r" in text else text.removesuffix("\n").split("\n")
    del text
    if len(lines) < 2 or not all(lines) or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = lines.pop(0).split(",")
    typed = floats(header)
    dtype = [(f"c{j}", float if c in typed else object) for j, c in enumerate(header)]
    try:  # a list of lines: a StringIO would hold 4 bytes a character
        table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                           usecols=range(len(header)), ndmin=1)
    except (ValueError, OverflowError):  # e.g. a short row, '' or '1_0' in a float column
        return None
    if len(table) != len(lines):
        return None
    # copies, so no column keeps the structured array alive
    return header, [np.ascontiguousarray(table[f"c{j}"]) if c in typed
                    else table[f"c{j}"].tolist() for j, c in enumerate(header)], len(table)


def load_dataset(path: str | Path, schema: CsvSchema | None = None) -> LoadResult:
    """Load and validate a dataset CSV, column by column.

    Rows with any missing AU intensity are dropped and counted before their
    other fields are checked; rows with too few fields, out-of-range
    intensities and non-finite features raise ParseError.
    """
    schema = schema or CsvSchema()
    table = CsvColumns(path, lambda header: {  # the label's column stays text for int()
        c for c in header if c != schema.label_col
        and (AU_COLUMN_RE.match(c) or FEATURE_COLUMN_RE.match(c))})
    header = table.header
    for required in ("id", schema.label_col):
        if required not in table.index:
            raise MissingColumn(required)

    group_cols = [c for c in KNOWN_GROUP_COLUMNS if c in table.index]
    if not group_cols:
        raise MissingColumn("gender (no group column found)")

    au_cols = sorted(
        (c for c in header if AU_COLUMN_RE.match(c)), key=au_sort_key
    )
    presence_cols = {
        au: f"{au}{PRESENCE_SUFFIX}" for au in au_cols
        if f"{au}{PRESENCE_SUFFIX}" in table.index
    }
    feat_indices = {
        int(m.group(1)): c for c in header if (m := FEATURE_COLUMN_RE.match(c))
    }
    feature_dim = len(feat_indices)
    if feature_dim and sorted(feat_indices) != list(range(feature_dim)):
        raise InconsistentFeatureDim(
            f"feature columns not contiguous f0..f{feature_dim - 1}"
        )
    feat_cols = [feat_indices[i] for i in range(feature_dim)]

    recognized = {"id", schema.label_col, "split", *group_cols,
                  *au_cols, *presence_cols.values(), *feat_cols}
    ignored = [c for c in header if c not in recognized]

    # missing AU intensity -> drop (mirrors AU-detector failures)
    keep = np.ones(len(table), dtype=bool)
    for au in au_cols:
        keep &= table.filled(au)
    if not keep.any():
        raise EmptyDataset(f"{path}: no usable rows")
    if not keep.all():
        table.keep(keep)

    intensity = np.empty((len(table), len(au_cols)))
    for j, au in enumerate(au_cols):
        intensity[:, j] = table.intensity(au)

    presence = np.zeros(intensity.shape, dtype=np.uint8)
    for au, col in presence_cols.items():
        presence[:, au_cols.index(au)] = table.bits(col)

    cells, index = table.distinct(schema.label_col)  # int once per distinct cell
    try:
        label = np.array(list(map(int, cells)), dtype=np.int64)[index]
    except (ValueError, OverflowError):  # parse names the first bad row
        label = table.parse(schema.label_col, int, np.int64, schema.label_col,
                            "not an integer")

    levels, codes = {}, {}
    for g in group_cols:  # numpy's str array drops trailing NULs: "F\x00" joins "F"
        cells, index = table.distinct(g)
        values, inverse = np.unique(np.array(cells), return_inverse=True)
        levels[g], codes[g] = tuple(values.tolist()), inverse[index]

    features = np.empty((len(table), feature_dim))
    for j, c in enumerate(feat_cols):
        features[:, j] = table.parse(c, float, float, "f*", "feature not a number")
        table.reject(~np.isfinite(features[:, j]), c, "feature not finite")

    is_test = np.zeros(len(table), dtype=bool)
    if "split" in table.index:
        cells, index = table.distinct("split")
        split = np.array(cells)
        table.reject(((split != "") & (split != "train") & (split != "test"))[index],
                     "split", "split must be train/test")
        is_test = (split == "test")[index]

    dataset = Dataset(
        au_ids=tuple(au_cols),
        attribute_levels=levels,
        ids=np.array(table.cells("id"), dtype=str),
        intensity=intensity,
        presence=presence,
        binarized=frozenset(presence_cols),
        label=label,
        codes=codes,
        features=features,
        is_test=is_test,
    )
    return LoadResult(dataset=dataset, dropped_rows=keep.size - len(table),
                      ignored_columns=ignored)


def save_dataset(
    dataset: Dataset,
    path: str | Path,
    label_col: str = "label",
    extra_columns: Mapping[str, Sequence] | None = None,
) -> None:
    """Write a Dataset back to the CSV schema load_dataset reads
    (round-trip safe, including presence columns when binarized).

    The bytes are those csv.writer writes for repr of each number and the
    text cells, formatted _SAVE_CELLS cells at a time. Integer cells take
    repr once per distinct value in a block; a float row whose every cell is
    a proven short decimal is written from integer digits (_decimal_rows),
    and any other row, such as one with 6e-05 or a full-precision float,
    with repr."""
    group_cols = list(dataset.attribute_levels)
    binarized = [j for j, au in enumerate(dataset.au_ids) if au in dataset.binarized]
    header = ["id"] + list(dataset.au_ids)
    header += [f"{dataset.au_ids[j]}{PRESENCE_SUFFIX}" for j in binarized]
    header += [label_col] + group_cols + ["split"]
    header += [f"f{i}" for i in range(dataset.feature_dim)]
    extra = dict(extra_columns or {})
    header += list(extra)
    for col, values in extra.items():
        if len(values) < len(dataset):
            raise LengthMismatch(f"extra column {col!r} has {len(values)} values")

    # each level quoted once, as group_values gives it, then indexed by code
    levels = {g: np.array([_csv_text(v) for v in np.asarray(dataset.group_levels(g)).tolist()],
                          dtype=object) for g in group_cols}

    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_csv_text, header)) + "\r\n")
        step = max(1, _SAVE_CELLS // len(header))
        for lo in range(0, len(dataset), step):
            rows = slice(lo, lo + step)
            part = dataset._rows(rows)
            ids = part.ids.tolist()
            if _NEEDS_QUOTES.search("".join(ids)):
                ids = list(map(_csv_text, ids))
            columns = [ids, *_decimal_rows(part.intensity),
                       *_int_columns(np.column_stack([part.presence[:, binarized], part.label]))]
            columns += [levels[g][part.codes[g]].tolist() for g in group_cols]
            columns.append(np.where(part.is_test, "test", "train").tolist())
            columns += _decimal_rows(part.features)
            columns += [[_csv_text(str(v)) for v in values[rows]] for values in extra.values()]
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")  # a block has a row


def _int_columns(block: np.ndarray) -> list[list[str]]:
    """An integer block's columns as repr writes each cell (never quoted),
    from repr of each distinct value, indexed by the cells."""
    values, inverse = np.unique(block, return_inverse=True)
    texts = np.array(list(map(repr, values.tolist())), dtype=object)
    return texts[inverse.reshape(block.shape)].T.tolist()


def _decimal_rows(block: np.ndarray) -> list[list[str]]:
    """A float64 block's cells as save_dataset's columns: one column of row
    texts, each ",".join(map(repr, row)), built from integer digits in one
    vectorized pass for the rows whose every cell is proven to print as a
    short decimal; repr per cell for the other rows, and per column when no
    row qualifies.

    A cell x qualifies when m = rint(|x| * 10**9) is below 10**15, m / 10**9
    == |x|, and |x| >= 1e-4 or x == 0. The division is correctly rounded, so
    x is the double nearest m * 10**-9; no other decimal of at most 15
    significant digits (DBL_DIG) rounds to the same normal double; and from
    1e-4 up repr writes fixed notation. So repr(x) is that decimal, '-' if
    signbit(x), with its trailing zeros stripped down to one fraction digit.
    The block is written with the fewest fraction digits k >= 1 at which
    every cell of a qualifying row passes the same test, m / 10**k == |x|."""
    size = np.abs(block)
    size = np.where(size < 1e15, size, np.inf)  # NaN fails too, and nothing overflows
    m = np.rint(size * 1e9)
    rows_ok = ((m < 1e15) & (m / 1e9 == size) & ((size >= 1e-4) | (block == 0))).all(axis=1)
    if block.dtype != np.float64 or not block.size or not rows_ok.any():
        return [list(map(repr, col)) for col in block.T.tolist()]
    size = np.where(rows_ok[:, None], size, 0.0)
    for k in range(1, 10):  # ends by k = 9, where every cell left is exact
        m = np.rint(size * 10.0**k)
        if (m / 10.0**k == size).all():
            break
    m = m.astype(np.int64)
    whole = len(str(int(m.max()) // 10**k))  # digits before the point
    # per cell: separator, sign, whole digits, point, fraction digits
    chars = np.empty(block.shape + (whole + k + 3,), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    chars[..., 0] = ord(",")
    chars[:, 0, 0] = ord("\n")  # so the text splits into rows
    chars[..., 1] = ord("-")
    keep[..., 1] = np.signbit(block)
    chars[..., 2 + whole] = ord(".")
    seen = np.zeros(block.shape, dtype=bool)
    for j in range(2 + whole + k, 2 + whole, -1):  # fraction digits, last first
        m, digit = np.divmod(m, 10)
        chars[..., j] = digit + ord("0")
        seen |= digit != 0
        keep[..., j] = seen  # trailing zeros go, but the first fraction digit
    keep[..., 3 + whole] = True
    for j in range(1 + whole, 1, -1):  # whole digits, units first
        keep[..., j] = m > 0  # leading zeros go, but the units digit
        m, digit = np.divmod(m, 10)
        chars[..., j] = digit + ord("0")
    keep[..., 1 + whole] = True
    segments = chars[keep].tobytes().decode("ascii").split("\n")[1:]
    for i, row in zip(np.flatnonzero(~rows_ok).tolist(), block[~rows_ok].tolist()):
        segments[i] = ",".join(map(repr, row))
    return [segments]


def _csv_text(cell: str) -> str:
    """cell as csv.writer writes it (QUOTE_MINIMAL), quoted if it holds , " CR or LF."""
    return '"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES.search(cell) else cell


def binarize(dataset: Dataset, thresholds: Mapping[str, float]) -> Dataset:
    """Apply binarization thresholds: presence = 1 iff intensity strictly
    exceeds the AU's threshold; intensities are retained untouched."""
    for au in thresholds:
        if au not in dataset.au_ids:
            raise UnknownAu(au)
    presence = dataset.presence.copy()
    for au, t in thresholds.items():
        j = dataset.au_ids.index(au)
        presence[:, j] = dataset.intensity[:, j] > t
    return replace(dataset, presence=presence,
                   binarized=dataset.binarized | set(thresholds))
