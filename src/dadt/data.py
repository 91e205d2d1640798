"""Tabular data model: schema, datasets, split conditions, and paths.

Datasets are immutable after load. Views produced by filtering share the
underlying column storage and only carry a row-index array.
"""

from __future__ import annotations

import csv
import functools
import io
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

# rows per chunk of `Dataset.iter_rows`; bounds the memory of the row lists
_ROW_CHUNK = 4096


@dataclass(frozen=True)
class Attribute:
    name: str
    kind: str
    domain: tuple[str, ...] | None = None
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in (DISCRETE, CONTINUOUS):
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        if self.kind == DISCRETE:
            if not self.domain:
                raise ValueError(f"discrete attribute {self.name!r} needs a non-empty domain")
            if len(set(self.domain)) != len(self.domain):
                raise ValueError(f"duplicate labels in domain of {self.name!r}")

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

    def to_json_dict(self) -> dict:
        def attr_dict(a: Attribute) -> dict:
            d = {"name": a.name, "kind": a.kind}
            if a.domain is not None:
                d["domain"] = list(a.domain)
            if a.bounds is not None:
                d["bounds"] = list(a.bounds)
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
    bounds = tuple(d["bounds"]) if d.get("bounds") is not None else None
    return Attribute(name=d["name"], kind=kind, domain=domain, bounds=bounds)


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


def read_text(source, inline=_inline_csv) -> str:
    """The UTF-8 text an input argument holds or names (see `source_path`);
    unreadable or non-UTF-8 input raises ParseError."""
    data = _read(source, inline)
    try:
        return data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from exc


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
    """Immutable typed table; `index` selects the rows visible in this view."""

    def __init__(self, schema: Schema, columns: dict[str, np.ndarray],
                 index: np.ndarray | None = None, labeled: bool = True,
                 codes: dict[str, np.ndarray] | None = None):
        self.schema = schema
        self._columns = columns
        # integer codes of discrete columns, computed on first use and shared
        # by every view of the same storage
        self._codes = {} if codes is None else codes
        if index is None:
            lengths = {len(v) for v in columns.values()}
            n = lengths.pop() if lengths else 0
            index = np.arange(n)
        self.index = index
        self.labeled = labeled

    @property
    def n(self) -> int:
        return len(self.index)

    def column(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise UnknownAttribute(f"no column named {name!r}")
        return self._columns[name][self.index]

    def codes(self, name: str) -> np.ndarray:
        """Positions of a discrete column's values in the attribute's domain."""
        full = self._codes.get(name)
        if full is None:
            values = self._columns.get(name)
            if values is None:
                raise UnknownAttribute(f"no column named {name!r}")
            domain = self.schema.attribute(name).domain
            full = np.full(len(values), -1, dtype=np.intp)
            for j, v in enumerate(domain):
                full[values == v] = j
            if (full < 0).any():
                raise ValueOutOfDomain(f"column {name!r} has values outside {list(domain)}")
            self._codes[name] = full
        return full[self.index]

    def class_codes(self) -> np.ndarray:
        if not self.labeled:
            raise UnlabeledData("dataset has no class labels")
        return self.codes(self.schema.class_attr.name)

    def class_column(self) -> np.ndarray:
        if not self.labeled:
            raise UnlabeledData("dataset has no class labels")
        return self.column(self.schema.class_attr.name)

    def subset(self, mask_or_index: np.ndarray) -> "Dataset":
        return Dataset(self.schema, self._columns, self.index[mask_or_index],
                       self.labeled, self._codes)

    def without_labels(self) -> "Dataset":
        cols = {k: v for k, v in self._columns.items() if k != self.schema.class_attr.name}
        codes = {k: v for k, v in self._codes.items() if k in cols}
        return Dataset(self.schema, cols, self.index, labeled=False, codes=codes)

    def row(self, i: int) -> dict:
        names = list(self.schema.predictive_names)
        if self.labeled:
            names.append(self.schema.class_attr.name)
        ridx = self.index[i]
        return {name: self._columns[name][ridx] for name in names}

    def iter_rows(self):
        """Row dicts of Python scalars, built a bounded chunk of rows at a time."""
        names = list(self.schema.predictive_names)
        if self.labeled:
            names.append(self.schema.class_attr.name)
        for start in range(0, self.n, _ROW_CHUNK):
            idx = self.index[start:start + _ROW_CHUNK]
            columns = [self._columns[name][idx].tolist() for name in names]
            for values in zip(*columns) if names else [()] * len(idx):
                yield dict(zip(names, values))


def dataset_from_rows(schema: Schema, rows: list[dict], labeled: bool = True) -> Dataset:
    """Build a validated dataset from row dicts (values already typed)."""
    return _dataset_from_columns(schema, lambda name: [r[name] for r in rows], labeled)


def _dataset_from_columns(schema: Schema, raw_column, labeled: bool) -> Dataset:
    """Type and check each column, in schema order; `raw_column(name)` gives
    a column's values in row order."""
    names = list(schema.predictive_names)
    if labeled:
        names.append(schema.class_attr.name)
    columns = {name: _typed_column(schema.attribute(name), raw_column(name), col=name)
               for name in names}
    return Dataset(schema, columns, labeled=labeled)


def _typed_column(attr: Attribute, raw, col: str) -> np.ndarray:
    """The column as an array; the first bad value in row order raises."""
    if attr.is_discrete:
        # every cell becomes the domain's own string, so a column holds no
        # more distinct strings than its domain has values
        canonical = {v: v for v in attr.domain}
        try:
            return np.array([canonical[s] for s in map(str, raw)], dtype=object)
        except KeyError:
            i, s = next((i, s) for i, s in enumerate(map(str, raw)) if s not in canonical)
            raise ValueOutOfDomain(
                f"row {i}, column {col!r}: value {s!r} not in domain {list(attr.domain)}") from None
    try:
        out = np.array(list(map(float, raw)), dtype=np.float64)
        if np.isfinite(out).all():
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    for i, v in enumerate(raw):
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
    """Load and validate a CSV (header row required) against a schema document."""
    schema = schema_source if isinstance(schema_source, Schema) else schema_from_json(schema_source)
    reader = _csv_rows(read_text(csv_source))
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

    raw_rows = []
    for lineno, cells in enumerate(reader):
        if len(cells) != len(header):
            raise ParseError(f"row {lineno}: expected {len(header)} cells, got {len(cells)}")
        if "" in cells:
            col = header[cells.index("")]
            raise ParseError(f"row {lineno}, column {col!r}: missing value")
        raw_rows.append(cells)
    by_name = dict(zip(header, zip(*raw_rows))) if raw_rows else dict.fromkeys(header, ())
    del raw_rows
    return _dataset_from_columns(schema, by_name.__getitem__, labeled)


def _csv_rows(text: str):
    try:  # newline=None: \r\n and \r end lines as in a file opened in text mode
        yield from csv.reader(io.StringIO(text, newline=None))
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise ParseError(f"malformed CSV: {exc}") from exc


def serialize_dataset(d: Dataset) -> str:
    """Emit the dataset as CSV; round-trips through load_dataset."""
    names = list(d.schema.predictive_names)
    if d.labeled:
        names.append(d.schema.class_attr.name)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    cols = [d.column(name).tolist() if d.schema.attribute(name).is_discrete
            else map(repr, np.asarray(d.column(name), dtype=float).tolist()) for name in names]
    writer.writerows(zip(*cols))
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
        mask &= cond.matches(d.column(cond.attribute))
    return d.subset(mask)
