"""Tabular data model: schema, datasets, split conditions, and paths.

Datasets are immutable after load. Views produced by filtering share the
underlying column storage and only carry a row-index array.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyDataset,
    InternalError,
    ParseError,
    SchemaMismatch,
    UnknownAttribute,
    UnlabeledData,
    ValueOutOfDomain,
)

DISCRETE = "discrete"
CONTINUOUS = "continuous"

EQ = "eq"
NEQ = "neq"
LEQ = "leq"
GT = "gt"

_NEGATE = {EQ: NEQ, NEQ: EQ, LEQ: GT, GT: LEQ}

# rows per chunk wherever rows are taken a bounded number at a time: reading
# CSV, and every pass over a dataset's rows through `Dataset.chunks` (writing
# CSV, routing); bounds the Python objects alive for rows at once
_ROW_CHUNK = 4096


@dataclass(frozen=True)
class Attribute:
    name: str
    kind: str
    domain: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in (DISCRETE, CONTINUOUS):
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        if self.kind == DISCRETE:
            if not self.domain:
                raise ValueError(f"discrete attribute {self.name!r} needs a non-empty domain")
            if len(set(self.domain)) != len(self.domain):
                raise ValueError(f"duplicate labels in domain of {self.name!r}")
            # CSV is read with universal newlines, so no cell can hold a \r
            if any("\r" in v for v in self.domain):
                raise ValueError(f"a label in the domain of {self.name!r} holds a carriage return")

    @property
    def is_discrete(self) -> bool:
        return self.kind == DISCRETE


@dataclass(frozen=True)
class Schema:
    predictive: tuple[Attribute, ...]
    class_attr: Attribute
    protected_attr: str | None = None

    def __post_init__(self):
        names = [a.name for a in self.predictive] + [self.class_attr.name]
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique within a schema")
        if not self.class_attr.is_discrete or len(self.class_attr.domain) < 2:
            raise ValueError("class attribute must be discrete with at least 2 values")
        if self.protected_attr is not None:
            attr = next((a for a in self.predictive if a.name == self.protected_attr), None)
            if attr is None or not attr.is_discrete:
                raise ValueError("protected attribute must name a discrete predictive attribute")

    def attribute(self, name: str) -> Attribute:
        try:
            return self._by_name[name]
        except (KeyError, TypeError):
            raise UnknownAttribute(f"no attribute named {name!r} in schema") from None

    @functools.cached_property
    def _by_name(self) -> dict[str, Attribute]:
        return {a.name: a for a in self.predictive + (self.class_attr,)}

    @functools.cached_property
    def predictive_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.predictive)

    @property
    def class_values(self) -> tuple[str, ...]:
        return self.class_attr.domain

    def column_names(self, labeled: bool) -> tuple[str, ...]:
        """A dataset's columns, in order: the predictive attributes', then
        the class attribute's when the dataset is labeled."""
        return self.predictive_names + ((self.class_attr.name,) if labeled else ())

    def to_json_dict(self) -> dict:
        def attr_dict(a: Attribute) -> dict:
            d = {"name": a.name, "kind": a.kind}
            if a.domain is not None:
                d["domain"] = list(a.domain)
            return d

        doc = {
            "predictive": [attr_dict(a) for a in self.predictive],
            "class": attr_dict(self.class_attr),
        }
        if self.protected_attr is not None:
            doc["protected"] = self.protected_attr
        return doc


def schema_from_json(source) -> Schema:
    """Parse a schema document; `source` is read by `read_json`."""
    doc = read_json(source)
    try:
        return Schema(predictive=tuple(_attr_from_dict(d) for d in doc["predictive"]),
                      class_attr=_attr_from_dict(doc["class"]),
                      protected_attr=doc.get("protected"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed schema document: {exc}") from exc


def _attr_from_dict(d: dict) -> Attribute:
    kind = d["kind"]
    domain = tuple(str(v) for v in d["domain"]) if d.get("domain") is not None else None
    return Attribute(name=d["name"], kind=kind, domain=domain)


def _inline_csv(text: str) -> bool:
    return text == "" or "\n" in text or "," in text


def _inline_json(text: str) -> bool:
    return text.lstrip().startswith(("{", "["))


def source_path(source, inline=_inline_json):
    """The file an input argument names, or None when it holds the content:
    bytes, a str for which `inline` holds, a dict (a parsed document) or a
    stream. Any other str, and any os.PathLike, is a path."""
    if isinstance(source, os.PathLike) or (isinstance(source, str) and not inline(source)):
        return os.fspath(source)
    return None


def _read(source, inline) -> str | bytes:
    path = source_path(source, inline)
    if path is None:
        return source if isinstance(source, (str, bytes)) else source.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the name
        raise ParseError(f"cannot read {path!r}: {exc}") from exc


def read_json(source):
    """The JSON document an input argument holds or names (see `source_path`);
    a str is content when it starts with { or [, and a dict is the document
    itself. Unreadable, undecodable or invalid JSON raises ParseError."""
    if isinstance(source, dict):
        return source
    try:
        return json.loads(_read(source, _inline_json))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"invalid JSON document: {exc}") from exc


@dataclass(frozen=True)
class SplitCondition:
    """A binary split condition: X=t / X≠t (discrete), X≤t / X>t (continuous)."""

    attribute: str
    op: str
    threshold: object

    def __post_init__(self):
        if self.op not in _NEGATE:
            raise ValueError(f"unknown op {self.op!r}")

    def negate(self) -> "SplitCondition":
        return SplitCondition(self.attribute, _NEGATE[self.op], self.threshold)

    def matches(self, values: np.ndarray) -> np.ndarray:
        if self.op == EQ:
            return values == self.threshold
        if self.op == NEQ:
            return values != self.threshold
        if self.op == LEQ:
            return values <= self.threshold
        return values > self.threshold

    def describe(self) -> str:
        sym = {EQ: "=", NEQ: "!=", LEQ: "<=", GT: ">"}[self.op]
        return f"{self.attribute}{sym}{self.threshold}"


@dataclass(frozen=True)
class Path:
    """Conjunction of split conditions in root-to-node order."""

    conditions: tuple[SplitCondition, ...] = ()

    def extend(self, cond: SplitCondition) -> "Path":
        return Path(self.conditions + (cond,))

    def attributes(self) -> tuple[str, ...]:
        seen: list[str] = []
        for c in self.conditions:
            if c.attribute not in seen:
                seen.append(c.attribute)
        return tuple(seen)

    def __len__(self) -> int:
        return len(self.conditions)

    def describe(self) -> str:
        return " & ".join(c.describe() for c in self.conditions) if self.conditions else "(root)"


EMPTY_PATH = Path()


class Dataset:
    """Immutable typed table; `index` selects the rows visible in this view.
    A column is stored once, a discrete one as its `codes`; the constructor
    takes equal-length columns of values; an undeclared one raises ValueOutOfDomain."""

    def __init__(self, schema: Schema, columns: dict[str, np.ndarray], labeled: bool = True):
        index = np.arange(_row_count(columns))
        columns = {name: _encode(a, values, name) if (a := schema.attribute(name)).is_discrete
                   else values for name, values in columns.items()}
        self.schema, self._columns, self.index, self.labeled = schema, columns, index, labeled
        self._stacked = {}  # `value_codes` matrices, shared by the storage's views

    @classmethod
    def from_codes(cls, schema: Schema, columns: dict[str, np.ndarray],
                   labeled: bool = True) -> "Dataset":
        """A dataset over columns given as `codes` gives them: a discrete
        column's positions in its attribute's domain, a continuous column's
        values. The first code that is not an integer in the domain's range
        raises ValueOutOfDomain, and the first value that is not a finite
        number raises ParseError."""
        n = _row_count(columns)
        stored = {name: _checked_codes(schema.attribute(name), np.asarray(values), name)
                  for name, values in columns.items()}
        return _stored(schema, stored, np.arange(n), labeled, {})

    @property
    def n(self) -> int:
        return len(self.index)

    def column(self, name: str) -> np.ndarray:
        """The column's values; a discrete column's are the domain's own
        string objects, in an object array."""
        stored = self.codes(name)
        attr = self.schema.attribute(name)
        return np.array(attr.domain, dtype=object)[stored] if attr.is_discrete else stored

    def codes(self, name: str) -> np.ndarray:
        """The column as stored: a discrete column's positions of its values
        in the attribute's domain, a continuous column's values."""
        if name not in self._columns:
            raise UnknownAttribute(f"no column named {name!r}")
        return self._columns[name][self.index]

    def mask(self, cond: SplitCondition) -> np.ndarray:
        """The rows meeting cond, as a boolean mask (`stored_mask`)."""
        return stored_mask(self.schema.attribute(cond.attribute), cond,
                           self.codes(cond.attribute))

    def value_codes(self, names: tuple[str, ...]) -> np.ndarray:
        """(attribute × row) codes of the named discrete columns that number
        all their values in one range, each attribute's after those of the
        attributes before it; stacked once per storage."""
        full = self._stacked.get(names)
        if full is None:
            offsets = np.cumsum([0] + [len(self.schema.attribute(a).domain) for a in names])
            full = np.stack([self._columns[a] for a in names]) + offsets[:-1, None]
            self._stacked[names] = full
        return full[:, self.index]

    def class_codes(self) -> np.ndarray:
        if not self.labeled:
            raise UnlabeledData("dataset has no class labels")
        return self.codes(self.schema.class_attr.name)

    def class_column(self) -> np.ndarray:
        if not self.labeled:
            raise UnlabeledData("dataset has no class labels")
        return self.column(self.schema.class_attr.name)

    def subset(self, mask_or_index: np.ndarray) -> "Dataset":
        return _stored(self.schema, self._columns, self.index[mask_or_index], self.labeled,
                       self._stacked)

    def without_labels(self) -> "Dataset":
        cols = {k: v for k, v in self._columns.items() if k != self.schema.class_attr.name}
        return _stored(self.schema, cols, self.index, False, {})

    def chunks(self):
        """Views of consecutive rows, a bounded chunk of them at a time."""
        for start in range(0, self.n, _ROW_CHUNK):
            yield self.subset(slice(start, start + _ROW_CHUNK))


def _row_count(columns: dict) -> int:
    """The columns' common length; unequal lengths raise ParseError."""
    lengths = {name: len(values) for name, values in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ParseError(f"columns of unequal length: {lengths}")
    return max(lengths.values(), default=0)


def _stored(schema: Schema, columns: dict[str, np.ndarray], index: np.ndarray,
            labeled: bool, stacked: dict) -> Dataset:
    """A dataset over columns as `Dataset` stores them, not encoded again."""
    d = object.__new__(Dataset)
    d.schema, d._columns, d.index, d.labeled, d._stacked = schema, columns, index, labeled, stacked
    return d


def stored_mask(attr: Attribute, cond: SplitCondition, stored: np.ndarray) -> np.ndarray:
    """Which cells of attr's column as stored (`Dataset.codes`) meet cond:
    continuous values are compared, and discrete codes look up cond's
    outcome on each domain value, so a row meets cond when its value would."""
    if attr.is_discrete:
        return cond.matches(np.array(attr.domain, dtype=object))[stored]
    return cond.matches(stored)


def dataset_from_rows(schema: Schema, rows: list[dict], labeled: bool = True) -> Dataset:
    """Build a validated dataset from row dicts (values already typed); each
    column is typed and checked in schema order, a discrete one's values as
    strings."""
    columns = {a.name: _typed_column(a, [str(r[a.name]) if a.is_discrete else r[a.name]
                                         for r in rows], a.name)
               for a in map(schema.attribute, schema.column_names(labeled))}
    return _stored(schema, columns, np.arange(len(rows)), labeled, {})


def _encode(attr: Attribute, cells, col: str, start: int = 0) -> np.ndarray:
    """Positions of a sequence of cells in attr's domain; the first
    undeclared cell in row order raises, numbering the rows from `start`."""
    code = {v: j for j, v in enumerate(attr.domain)}
    try:
        return np.fromiter(map(code.__getitem__, cells), np.intp, len(cells))
    except KeyError:
        i, s = next((i, s) for i, s in enumerate(cells, start) if s not in code)
        raise ValueOutOfDomain(
            f"row {i}, column {col!r}: value {s!r} not in domain {list(attr.domain)}") from None


def _checked_codes(attr: Attribute, values: np.ndarray, col: str) -> np.ndarray:
    """A copy of a column of codes (see `Dataset.from_codes`) as stored:
    intp positions or float64 values."""
    if values.dtype.kind not in "biuf":
        ok = np.zeros(len(values), dtype=bool)
    elif attr.is_discrete:
        ok = (values >= 0) & (values < len(attr.domain)) & (np.floor(values) == values)
    else:
        ok = np.isfinite(values)
    if not ok.all():
        i = int(np.argmin(ok))
        v = values[i:i + 1].tolist()[0]
        if attr.is_discrete:
            raise ValueOutOfDomain(f"row {i}, column {col!r}: code {v!r} is not a position "
                                   f"in domain {list(attr.domain)}")
        raise ParseError(f"row {i}, column {col!r}: {v!r} is not a finite number")
    return values.astype(np.intp if attr.is_discrete else np.float64)


def _typed_column(attr: Attribute, raw, col: str, start: int = 0) -> np.ndarray:
    """The column as stored: codes of the cells, which are strings, or float64
    values; the first bad value in row order raises, numbering `raw`'s rows
    from `start`."""
    if attr.is_discrete:
        return _encode(attr, raw, col, start)
    try:
        out = np.fromiter(map(float, raw), np.float64, len(raw))
        if np.isfinite(out).all():
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    for i, v in enumerate(raw, start):
        try:
            x = float(v)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"row {i}, column {col!r}: cannot parse {v!r} as a number") from exc
        except OverflowError as exc:  # an int too large for a float
            raise ParseError(f"row {i}, column {col!r}: number too large for a float") from exc
        if not math.isfinite(x):
            raise ParseError(f"row {i}, column {col!r}: non-finite value {v!r}")
    raise InternalError(f"column {col!r} failed to parse but has no bad value")


def load_dataset(csv_source, schema_source) -> Dataset:
    """Load and validate a CSV (header row required) against a schema document.

    Rows are read and typed `_ROW_CHUNK` at a time. Errors come in the order
    a whole-file check gives: unreadable or non-UTF-8 input; then the first
    structural error (cell count, missing value, malformed CSV) in row order;
    then the first bad value by schema column, then by row."""
    schema = schema_source if isinstance(schema_source, Schema) else schema_from_json(schema_source)
    stream, plain = _text_stream(csv_source)
    reader = _csv_rows(stream)
    header = next(reader, None)
    if header is None:
        raise ParseError("CSV has no header row")
    expected = set(schema.predictive_names)
    class_name = schema.class_attr.name
    labeled = class_name in header
    allowed = expected | ({class_name} if labeled else set())
    if set(header) != allowed:
        missing = sorted(allowed - set(header))
        extra = sorted(set(header) - allowed)
        raise SchemaMismatch(f"columns missing={missing} extra={extra}")
    if len(set(header)) != len(header):
        raise SchemaMismatch("duplicate column names in CSV header")

    names = schema.column_names(labeled)
    attrs = [schema.attribute(name) for name in names]
    # each column starts with its empty array: a header-only file loads typed
    parts = [[_typed_column(a, (), name)] for a, name in zip(attrs, names)]
    bad = None  # (schema position, error) of the first bad value found so far
    start = 0
    for n, cells in _cell_chunks(stream if plain else reader, header, plain):
        by_name = dict(zip(header, cells))
        # after a bad value, later rows are typed only in the columns before
        # it, where a bad value still comes first
        for k in range(len(names) if bad is None else bad[0]):
            try:
                parts[k].append(_typed_column(attrs[k], by_name[names[k]], names[k], start))
            except (ParseError, ValueOutOfDomain) as exc:
                bad = (k, exc)
                break
        start += n
    if bad is not None:
        raise bad[1]
    columns = {}
    for name, p in zip(names, parts):  # at most one column is held twice
        columns[name] = np.concatenate(p)
        p.clear()
    return _stored(schema, columns, np.arange(start), labeled, {})


def _cell_chunks(source, header: list[str], plain: bool):
    """The data rows, `_ROW_CHUNK` at a time, as each chunk's row count and
    its columns of cells in header order. `source` is the text stream after
    the header when the input is plain, else the header's CSV reader. The
    first structural error raises ParseError, in row order over chunks.

    A chunk of plain input is split on commas when each line has as many
    cells as the header, none empty or longer than `csv.field_size_limit()`;
    `csv.reader` splits such lines alike. Any other chunk is read by
    `csv.reader`, and only that path words an error."""
    width, limit = len(header), csv.field_size_limit()
    if not plain:
        source = _checked_rows(source, header, 0)
    start = 0
    while chunk := list(itertools.islice(source, _ROW_CHUNK)):
        n = len(chunk)
        if plain:
            if (set(map(str.count, chunk, itertools.repeat(","))) == {width - 1}
                    and max(map(len, chunk)) <= limit):
                text = "".join(chunk)
                del chunk  # its lines, before the cells are made
                cells = text.replace("\n", ",").split(",")
                if text.endswith("\n"):
                    cells.pop()
                if "" not in cells:
                    del text
                    columns = [cells[j::width] for j in range(width)]
                    del cells
                    yield n, columns
                    start += n
                    continue
                chunk = io.StringIO(text)  # the same lines again
            chunk = list(_checked_rows(_csv_rows(chunk), header, start))
        yield n, list(zip(*chunk))
        start += n


def _checked_rows(rows, header: list[str], start: int):
    """The rows, each checked before the next is read; `start` numbers the first."""
    for lineno, row in enumerate(rows, start):
        if len(row) != len(header):
            raise ParseError(f"row {lineno}: expected {len(header)} cells, got {len(row)}")
        if "" in row:
            raise ParseError(f"row {lineno}, column {header[row.index('')]!r}: missing value")
        yield row


def _text_stream(source):
    """The text an input argument holds or names (see `source_path`), as a
    stream with universal newlines: CRLF and CR end lines as in a file opened
    in text mode; and whether the input is plain: it holds no `"`, so no
    cell is quoted, and no NUL, which `csv.reader` refuses in Python 3.10
    and reads in 3.11. Unreadable or non-UTF-8 input raises ParseError."""
    data = _read(source, _inline_csv)
    try:
        # inline text as UTF-8: 1 byte a character where a str may take 4
        if isinstance(data, str):
            data = data.encode("utf-8")
        data.decode("utf-8")  # the whole input, before any row is read
    except UnicodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from exc
    plain = b'"' not in data and b"\0" not in data
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None), plain


def _csv_rows(stream):
    try:
        yield from csv.reader(stream)
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise ParseError(f"malformed CSV: {exc}") from exc


def serialize_dataset(d: Dataset) -> str:
    """Emit the dataset as CSV, the text of one chunk of rows at a time
    joined once; round-trips through load_dataset."""
    names = d.schema.column_names(d.labeled)
    discrete = [d.schema.attribute(name).is_discrete for name in names]
    parts = [_csv_text([names])]
    for chunk in d.chunks():
        # a continuous column built in memory may hold ints: write them as floats
        cells = [chunk.column(name).tolist() if disc
                 else map(repr, np.asarray(chunk.column(name), dtype=float).tolist())
                 for name, disc in zip(names, discrete)]
        parts.append(_csv_text(zip(*cells)))
    return "".join(parts)


def _csv_text(rows) -> str:
    """The CSV lines of rows, each cell quoted where CSV needs it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def split_train_test(d: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded uniform shuffle then prefix cut; train size rounds half up."""
    if d.n == 0:
        raise EmptyDataset("cannot split an empty dataset")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n_train = math.floor(train_fraction * d.n + 0.5)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(d.n)
    train_pos = np.sort(perm[:n_train])
    test_pos = np.sort(perm[n_train:])
    if n_train == 0 or n_train == d.n:
        warnings.warn("train/test split produced an empty part", stacklevel=2)
    return d.subset(train_pos), d.subset(test_pos)


def filter_by_path(d: Dataset, path: Path) -> Dataset:
    """Rows satisfying every condition in the path; empty path keeps all rows."""
    mask = np.ones(d.n, dtype=bool)
    for cond in path.conditions:
        mask &= d.mask(cond)
    return d.subset(mask)
