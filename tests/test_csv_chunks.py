"""CSV loading and writing against the whole-file implementations.

The reference below reads the whole input into one text, keeps every row as
a list of strings, and types each column at once; it writes whole columns.
`load_dataset` must give equal columns (values and dtype), or raise the same
exception type with the same message, and `serialize_dataset` the same
bytes. Row counts cross chunk ends (the chunk is 3 rows here); files end
lines with LF, CRLF or CR; fields hold `,`, `"`, newlines and spaces; and a
file may carry up to three faults, in consecutive rows, so that two often
share a chunk, where the first in row order must win. Half the files are
drawn plain (no label needs quoting, and none is quoted), the input
`load_dataset` splits on commas; a fault may still make one quoted or put a
NUL in it, and either sends it through `csv.reader`.
"""

from __future__ import annotations

import csv
import io
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dadt import data
from dadt.data import Attribute, Dataset, Schema, load_dataset, serialize_dataset
from dadt.errors import InternalError, ParseError, SchemaMismatch, ValueOutOfDomain

from conftest import random_mixed_schema

DIFF = settings(derandomize=True, database=None, deadline=None, max_examples=300)
CHUNK = 3


# -- reference: the whole-file implementations ---------------------------------
def ref_typed_column(attr: Attribute, raw, col: str) -> np.ndarray:
    if attr.is_discrete:
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
        except OverflowError as exc:
            raise ParseError(f"row {i}, column {col!r}: number too large for a float") from exc
        if not math.isfinite(x):
            raise ParseError(f"row {i}, column {col!r}: non-finite value {v!r}")
    raise InternalError(f"column {col!r} failed to parse but has no bad value")


def ref_csv_rows(text: str):
    try:
        yield from csv.reader(io.StringIO(text, newline=None))
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from exc


def ref_load(content: bytes, schema: Schema) -> Dataset:
    try:
        text = content.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from exc
    reader = ref_csv_rows(text)
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
    names = list(schema.predictive_names) + ([class_name] if labeled else [])
    columns = {name: ref_typed_column(schema.attribute(name), by_name[name], col=name)
               for name in names}
    return Dataset(schema, columns, labeled=labeled)


def ref_serialize(d: Dataset) -> str:
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


# -- inputs -------------------------------------------------------------------
# domain labels a CSV must quote, or that carry spaces or non-ASCII text
LABELS = ("v0", "a,b", 'q"t', "l\nm", " s", "t ", "x y", "é", ",", '"', "\n", "ü,\"\n")
# those no cell of a plain file may hold: none of them is quoted
PLAIN_LABELS = tuple(v for v in LABELS if not any(c in v for c in ',"\n'))


def tricky_schema(rng: np.random.Generator, labels: tuple[str, ...] = LABELS) -> Schema:
    """A random mixed schema whose discrete attributes take awkward labels."""
    base = random_mixed_schema(rng)

    def relabel(a: Attribute) -> Attribute:
        if not a.is_discrete:
            return a
        picks = rng.choice(len(labels), size=len(a.domain), replace=False)
        return Attribute(a.name, a.kind, tuple(labels[i] for i in picks))

    return Schema(predictive=tuple(relabel(a) for a in base.predictive),
                  class_attr=relabel(base.class_attr))


def number_text(rng: np.random.Generator) -> str:
    v = float(rng.choice([rng.normal(), rng.normal() * 1e12, -0.0, 5e-324,
                          1.7976931348623157e308, float(rng.integers(-9, 9))]))
    form = int(rng.integers(5))
    if form == 0:
        return repr(v)
    if form == 1:
        return f"{v:.6g}"
    if form == 2:
        return " " + repr(v)
    if form == 3:
        return repr(v) + " "
    return str(int(v)) if abs(v) < 1e15 else repr(v)


BAD_BYTE = "~badbyte~"
# a NUL in a cell: Python 3.10's csv.reader refuses the line, 3.11's reads it
NUL = "~nul~"
FAULTS = ("cells", "empty", "number", "domain", "utf8", "long", "blank", "nul")


def faulty_csv(rng: np.random.Generator, schema: Schema, n_rows: int, labeled: bool,
               ending: str, faults: list[str], plain: bool = False) -> bytes:
    """The rows as CSV, with the faults; a plain file quotes no cell that
    need not be quoted."""
    names = list(schema.predictive_names) + ([schema.class_attr.name] if labeled else [])
    header = [names[i] for i in rng.permutation(len(names))]
    attrs = [schema.attribute(name) for name in header]
    rows = [[a.domain[int(rng.integers(len(a.domain)))] if a.is_discrete else number_text(rng)
             for a in attrs] for _ in range(n_rows)]
    blank = []
    first = int(rng.integers(max(n_rows, 1)))
    for kind, r in zip(faults, range(first, n_rows)):
        numeric = [j for j, a in enumerate(attrs) if not a.is_discrete]
        discrete = [j for j, a in enumerate(attrs) if a.is_discrete]
        j = int(rng.integers(len(header)))
        if kind == "cells":
            rows[r] = rows[r][:-1] if rng.random() < 0.5 else rows[r] + ["v0"]
        elif kind == "empty":
            rows[r][j] = ""
        elif kind == "number" and numeric:
            rows[r][int(rng.choice(numeric))] = str(rng.choice(["abc", "nan", "inf", "-inf",
                                                                "1e999", "1,5", "0x10"]))
        elif kind in ("number", "domain") and discrete:
            rows[r][int(rng.choice(discrete))] = str(rng.choice(["zz", "V0", "v0 ", "1"]))
        elif kind == "utf8":
            rows[r][j] = BAD_BYTE
        elif kind == "long":
            rows[r][j] = "9" * (csv.field_size_limit() + 1)
        elif kind == "blank":
            blank.append(r)
        elif kind == "nul":
            rows[r][j] += NUL
    buf = io.StringIO()
    quoting = csv.QUOTE_ALL if not plain and rng.random() < 0.25 else csv.QUOTE_MINIMAL
    writer = csv.writer(buf, lineterminator="\n", quoting=quoting)
    writer.writerow(header)
    for r, row in enumerate(rows):
        if r in blank:
            buf.write("\n")
        writer.writerow(row)
    text = buf.getvalue()
    if rng.random() < 0.3:
        text = text[:-1]  # no newline after the last row
    return text.replace("\n", ending).encode("utf-8").replace(BAD_BYTE.encode(), b"\xff") \
        .replace(NUL.encode(), b"\0")


def outcome(load, content: bytes, schema: Schema):
    """The loaded columns as (name, dtype, values), or the exception raised."""
    try:
        d = load(content, schema)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    assert d.n == len(d.index)
    columns = [(name, d.column(name)) for name in d.schema.column_names(d.labeled)]
    return d.labeled, d.n, sorted((name, col.dtype.str, [repr(v) for v in col.tolist()])
                                  for name, col in columns)


@DIFF
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(0, 14), labeled=st.booleans(),
       ending=st.sampled_from(("\n", "\r\n", "\r")),
       faults=st.lists(st.sampled_from(FAULTS), max_size=3), plain=st.booleans())
def test_load_dataset_equals_whole_file_reference(seed, n_rows, labeled, ending, faults, plain):
    rng = np.random.default_rng(seed)
    schema = tricky_schema(rng, PLAIN_LABELS if plain else LABELS)
    content = faulty_csv(rng, schema, n_rows, labeled, ending, faults, plain)
    expected = outcome(ref_load, content, schema)
    with mock.patch.object(data, "_ROW_CHUNK", CHUNK):
        assert outcome(load_dataset, content, schema) == expected


def test_a_row_error_comes_before_a_later_malformed_row_in_its_chunk():
    # row 1 holds a field over csv.field_size_limit(): csv.reader refuses it,
    # but only after row 0's cell count has been checked
    schema = Schema(predictive=(Attribute("A0", "continuous"), Attribute("A1", "continuous")),
                    class_attr=Attribute("Y", "discrete", ("no", "yes")))
    long = "9" * (csv.field_size_limit() + 1)
    expected = (ParseError, "row 0: expected 3 cells, got 2")
    for content in (f"A0,A1,Y\n1,2\n1,{long},no\n",
                    f'"A0","A1","Y"\n"1","2"\n"1","{long}","no"\n'):
        assert outcome(ref_load, content.encode(), schema) == expected
        assert outcome(load_dataset, content.encode(), schema) == expected


def test_header_only_and_empty_inputs():
    schema = tricky_schema(np.random.default_rng(1))
    header = ",".join(schema.predictive_names)
    for content in (header.encode(), (header + "\n").encode(), (header + "\r\n").encode(),
                    b"", b"\n", b"\xef\xbb\xbf" + header.encode(), b"\xff" + header.encode()):
        with mock.patch.object(data, "_ROW_CHUNK", CHUNK):
            assert outcome(load_dataset, content, schema) == outcome(ref_load, content, schema)


def test_blank_line_in_one_column_file_is_a_row_of_no_cells():
    # a blank line has the one column's count of commas, none, but no cell
    schema = Schema(predictive=(Attribute("A0", "continuous"),),
                    class_attr=Attribute("Y", "discrete", ("no", "yes")))
    for content, row in ((b"A0\n1.5\n\n2.5\n", 1), (b"A0\n1.5\n2.5\n\n", 2),
                         (b"A0\r\n1.5\r\n2.5\r\n\r\n", 2)):
        expected = (ParseError, f"row {row}: expected 1 cells, got 0")
        assert outcome(ref_load, content, schema) == expected
        assert outcome(load_dataset, content, schema) == expected
        with mock.patch.object(data, "_ROW_CHUNK", CHUNK):
            assert outcome(load_dataset, content, schema) == expected


def test_only_chunks_that_fail_a_check_are_read_by_csv_reader():
    schema = Schema(predictive=(Attribute("A0", "continuous"), Attribute("A1", "discrete", ("x", "y"))),
                    class_attr=Attribute("Y", "discrete", ("no", "yes")))
    lines = ["A0,A1,Y"] + [f"{i}.5,x,no" for i in range(10)]
    real_reader = csv.reader

    def rows_read(lines: list[str]) -> int:
        read = []

        def reader(*args):
            for row in real_reader(*args):
                read.append(row)
                yield row

        with mock.patch.object(data, "_ROW_CHUNK", CHUNK), \
                mock.patch.object(data.csv, "reader", reader):
            try:
                load_dataset("\n".join(lines) + "\n", schema)
            except (ParseError, ValueOutOfDomain):
                pass
        return len(read)

    assert rows_read(lines) == 1  # the header
    # a blank line in the third chunk (rows 6-8): that chunk, after the
    # header, up to the blank line, which raises
    assert rows_read(lines[:8] + [""] + lines[9:]) == 1 + 2
    assert rows_read([",".join(f'"{c}"' for c in line.split(",")) for line in lines]) == 11
    # a NUL, which Python 3.10's csv.reader refuses at its line
    assert rows_read(lines[:-1] + [lines[-1] + "\0"]) >= 10


def test_path_input_equals_bytes_input(tmp_path):
    rng = np.random.default_rng(2)
    schema = tricky_schema(rng)
    content = faulty_csv(rng, schema, 10, True, "\r\n", [])
    path = tmp_path / "rows.csv"
    path.write_bytes(content)
    with mock.patch.object(data, "_ROW_CHUNK", CHUNK):
        assert outcome(lambda p, s: load_dataset(p, s), path, schema) == \
            outcome(ref_load, content, schema)


def random_columns(rng: np.random.Generator, schema: Schema, n: int) -> Dataset:
    columns = {}
    for a in schema.predictive + (schema.class_attr,):
        if a.is_discrete:
            columns[a.name] = np.array([a.domain[i] for i in rng.integers(len(a.domain), size=n)],
                                       dtype=object)
        else:
            columns[a.name] = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    return Dataset(schema, columns)


@DIFF
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(0, 14), labeled=st.booleans())
def test_serialize_dataset_equals_whole_column_reference(seed, n_rows, labeled):
    rng = np.random.default_rng(seed)
    schema = tricky_schema(rng)
    d = random_columns(rng, schema, n_rows)
    d = d if labeled else d.without_labels()
    lo = int(rng.integers(n_rows + 1))
    hi = int(rng.integers(lo, n_rows + 1))
    views = [d, d.subset(slice(lo, hi)), d.subset(rng.permutation(n_rows)[:hi])]
    with mock.patch.object(data, "_ROW_CHUNK", CHUNK):
        for view in views:
            assert serialize_dataset(view).encode() == ref_serialize(view).encode()
            again = load_dataset(serialize_dataset(view), schema)
            for name in schema.column_names(labeled):
                col = again.column(name)
                assert col.dtype == view.column(name).dtype
                assert [repr(v) for v in col.tolist()] == \
                    [repr(v) for v in view.column(name).tolist()]
