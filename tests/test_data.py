"""Schema parsing, CSV loading/validation, views, splits, paths."""

from __future__ import annotations

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from dadt import data
from dadt.cli import main
from dadt.data import (
    EMPTY_PATH,
    EQ,
    GT,
    LEQ,
    NEQ,
    Attribute,
    Path,
    Schema,
    SplitCondition,
    dataset_from_rows,
    filter_by_path,
    load_dataset,
    schema_from_json,
    serialize_dataset,
    split_train_test,
)
from dadt.errors import (
    ParseError,
    SchemaMismatch,
    UnknownAttribute,
    UnlabeledData,
    ValueOutOfDomain,
)

from conftest import binary_schema, rows_dataset

SCHEMA_DOC = {
    "predictive": [
        {"name": "SEX", "kind": "discrete", "domain": ["female", "male"]},
        {"name": "AGEP", "kind": "continuous"},
    ],
    "class": {"name": "COV", "kind": "discrete", "domain": ["0", "1"]},
    "protected": "SEX",
}

CSV = "SEX,AGEP,COV\nfemale,31.5,1\nmale,62,0\nfemale,18,1\n"


class TestSchema:
    def test_parse_and_roundtrip(self):
        schema = schema_from_json(json.dumps(SCHEMA_DOC))
        assert schema.predictive_names == ("SEX", "AGEP")
        assert schema.class_values == ("0", "1")
        assert schema.protected_attr == "SEX"
        again = schema_from_json(schema.to_json_dict())
        assert again == schema
        # attribute bounds of older documents are read and ignored
        with_bounds = json.loads(json.dumps(SCHEMA_DOC))
        with_bounds["predictive"][1]["bounds"] = [0, 120]
        assert schema_from_json(with_bounds) == schema

    def test_unknown_attribute(self):
        schema = schema_from_json(SCHEMA_DOC)
        with pytest.raises(UnknownAttribute):
            schema.attribute("nope")

    def test_unhashable_name_is_unknown(self):
        with pytest.raises(UnknownAttribute):
            schema_from_json(SCHEMA_DOC).attribute(["SEX"])

    def test_bad_documents(self):
        with pytest.raises(ParseError):
            schema_from_json({"class": SCHEMA_DOC["class"]})
        bad = dict(SCHEMA_DOC, protected="AGEP")  # continuous protected attribute
        with pytest.raises(ParseError):
            schema_from_json(bad)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema(predictive=(Attribute("A", "discrete", ("x", "y")),),
                   class_attr=Attribute("A", "discrete", ("0", "1")))


class TestLoadDataset:
    def test_happy_path(self):
        d = load_dataset(CSV, SCHEMA_DOC)
        assert d.n == 3
        assert d.labeled
        assert list(d.column("SEX")) == ["female", "male", "female"]
        assert d.column("AGEP").dtype == np.float64
        assert list(d.class_column()) == ["1", "0", "1"]

    def test_unlabeled_when_class_absent(self):
        d = load_dataset("SEX,AGEP\nfemale,20\n", SCHEMA_DOC)
        assert not d.labeled
        with pytest.raises(UnlabeledData):
            d.class_column()

    def test_missing_column(self):
        with pytest.raises(SchemaMismatch):
            load_dataset("SEX,COV\nfemale,1\n", SCHEMA_DOC)

    def test_extra_column(self):
        with pytest.raises(SchemaMismatch):
            load_dataset("SEX,AGEP,COV,BONUS\nfemale,20,1,x\n", SCHEMA_DOC)

    def test_value_out_of_domain(self):
        with pytest.raises(ValueOutOfDomain):
            load_dataset("SEX,AGEP,COV\nother,20,1\n", SCHEMA_DOC)

    def test_unparseable_number(self):
        with pytest.raises(ParseError):
            load_dataset("SEX,AGEP,COV\nfemale,old,1\n", SCHEMA_DOC)

    def test_missing_value(self):
        with pytest.raises(ParseError):
            load_dataset("SEX,AGEP,COV\nfemale,,1\n", SCHEMA_DOC)

    def test_no_header(self):
        with pytest.raises(ParseError):
            load_dataset("", SCHEMA_DOC)

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError):
            load_dataset("SEX,AGEP,COV\nfemale,nan,1\n", SCHEMA_DOC)

    def test_int_too_large_for_a_float_rejected(self):
        schema = {"predictive": [{"name": "A", "kind": "continuous"}],
                  "class": {"name": "Y", "kind": "discrete", "domain": ["0", "1"]}}
        rows = [{"A": 1, "Y": "1"}, {"A": 10**400, "Y": "0"}]
        with pytest.raises(ParseError, match=r"^row 1, column 'A': number too large"):
            dataset_from_rows(schema_from_json(schema), rows)

    def test_first_bad_number_in_schema_then_row_order(self):
        schema = {"predictive": [{"name": "A", "kind": "continuous"},
                                 {"name": "B", "kind": "continuous"}],
                  "class": {"name": "Y", "kind": "discrete", "domain": ["0", "1"]}}
        # B (second in the schema, first in the header) goes bad first
        csv_text = "B,A,Y\n1,2,0\nbad,3,0\n4,inf,1\n5,x,1\n"
        with pytest.raises(ParseError, match=r"^row 2, column 'A': non-finite value 'inf'$"):
            load_dataset(csv_text, schema)
        csv_text = "B,A,Y\n1,2,0\nbad,3,0\n4,x,1\n5,inf,1\n"
        with pytest.raises(ParseError, match=r"^row 2, column 'A': cannot parse 'x' as a number$"):
            load_dataset(csv_text, schema)
        with pytest.raises(ParseError, match=r"^row 1, column 'B': cannot parse 'bad'"):
            load_dataset("B,A,Y\n1,2,0\nbad,3,0\n", schema)

    def test_first_value_out_of_domain_in_schema_then_row_order(self):
        with pytest.raises(ValueOutOfDomain, match=r"^row 1, column 'SEX': value 'x'"):
            load_dataset("COV,AGEP,SEX\n2,20,male\n1,old,x\n", SCHEMA_DOC)
        with pytest.raises(ParseError, match=r"^row 1, column 'AGEP'"):
            load_dataset("COV,AGEP,SEX\n2,20,male\n1,old,female\n", SCHEMA_DOC)

    def test_structural_errors_come_before_value_errors(self):
        with pytest.raises(ParseError, match=r"^row 2, column 'AGEP': missing value$"):
            load_dataset("SEX,AGEP,COV\nx,1,0\nfemale,2,0\nfemale,,\n", SCHEMA_DOC)
        with pytest.raises(ParseError, match=r"^row 1: expected 3 cells, got 2$"):
            load_dataset("SEX,AGEP,COV\nx,1,0\nfemale,2\n", SCHEMA_DOC)

    def test_serialize_roundtrip(self):
        d = load_dataset(CSV, SCHEMA_DOC)
        again = load_dataset(serialize_dataset(d), SCHEMA_DOC)
        assert again.n == d.n
        for name in ("SEX", "AGEP", "COV"):
            assert list(again.column(name)) == list(d.column(name))

    def test_labels_that_need_quoting_roundtrip(self, tmp_path):
        labels = ("a,b", 'say "hi"', "two\nlines", " lead", "plain")
        schema = Schema(predictive=(Attribute("A", "discrete", labels),
                                    Attribute("B", "continuous")),
                        class_attr=Attribute("Y", "discrete", ("0", "1")))
        d = dataset_from_rows(schema, [{"A": v, "B": float(i), "Y": str(i % 2)}
                                       for i, v in enumerate(labels * 2)])
        text = serialize_dataset(d)
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        for source in (text, path):
            again = load_dataset(source, schema)
            for name in ("A", "B", "Y"):
                assert list(again.column(name)) == list(d.column(name))

    @pytest.mark.parametrize("old, new", [
        ("SEX", "S\udc80X"),  # header
        ("male,", "m\ud800le,"),  # discrete cell
        ("31.5", "3\udfff"),  # continuous cell
    ])
    def test_inline_text_that_is_not_utf8_is_a_parse_error(self, old, new):
        # a lone surrogate has no UTF-8 form, wherever it stands
        with pytest.raises(ParseError, match="^input is not UTF-8 text"):
            load_dataset(CSV.replace(old, new, 1), SCHEMA_DOC)

    @pytest.mark.parametrize("label", ["a\rb", "a\r\nb", "\r"])
    def test_labels_with_a_carriage_return_are_rejected(self, label, tmp_path):
        # universal newlines read any \r in a cell as a line end or as \n
        with pytest.raises(ValueError, match="carriage return"):
            Attribute("A", "discrete", (label, "x"))
        doc = json.loads(json.dumps(SCHEMA_DOC))
        doc["predictive"][0]["domain"] = [label, "male"]
        with pytest.raises(ParseError, match="carriage return"):
            schema_from_json(doc)
        (tmp_path / "schema.json").write_text(json.dumps(doc))
        (tmp_path / "d.csv").write_text(CSV)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["train", "--source", str(tmp_path / "d.csv"),
                         "--schema", str(tmp_path / "schema.json"),
                         "--out", str(tmp_path / "tree.json")])
        assert code == 1 and err.getvalue().startswith("error:")


# Peak traced bytes per row of `load_dataset` on a mixed CSV read from a
# file. The file's bytes and the typed columns take about 115 bytes per row
# and one chunk of row lists about 3 MB, some 240 bytes per row at 40,000
# rows. Rows kept as Python strings next to a copy of the whole text take
# about 845 bytes per row.
_LOAD_PEAK_BYTES_PER_ROW = 400
# The same content given inline as a str, against the same as bytes: its
# UTF-8 copy adds about a quarter; a str held at up to 4 bytes a character
# and read as such came to about twice the bytes input's peak.
_STR_OVER_BYTES_PEAK = 1.3


def _mixed_dataset(n: int) -> data.Dataset:
    """n rows of four continuous, four discrete and a class column."""
    rng = np.random.default_rng(6)
    schema = Schema(predictive=tuple(Attribute(f"C{i}", "continuous") for i in range(4))
                    + tuple(Attribute(f"D{i}", "discrete", ("lo", "mid", "hi"))
                            for i in range(4)),
                    class_attr=Attribute("Y", "discrete", ("0", "1")))
    columns = {f"C{i}": np.round(rng.normal(size=n), 4) for i in range(4)}
    columns |= {f"D{i}": np.array(["lo", "mid", "hi"], dtype=object)[rng.integers(3, size=n)]
                for i in range(4)}
    columns["Y"] = np.array(["0", "1"], dtype=object)[rng.integers(2, size=n)]
    return data.Dataset(schema, columns)


def test_load_memory_is_bounded_per_row(tmp_path):
    n = 40_000
    d = _mixed_dataset(n)
    schema = d.schema

    def traced_peak(source) -> int:
        tracemalloc.start()
        try:
            d = load_dataset(source, schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.n == n
        return peak

    path = tmp_path / "mixed.csv"
    text = serialize_dataset(d)
    path.write_text(text, encoding="utf-8")
    peak = traced_peak(path)
    assert peak < _LOAD_PEAK_BYTES_PER_ROW * n, f"{peak / n:.0f} bytes per row"
    bytes_peak = traced_peak(text.encode("utf-8"))
    str_peak = traced_peak(text)
    assert str_peak <= _STR_OVER_BYTES_PEAK * bytes_peak, \
        f"str {str_peak / n:.0f}, bytes {bytes_peak / n:.0f} bytes per row"


# Peak traced bytes per row of `serialize_dataset` on the same rows, whose
# text takes about 45 bytes a row: the chunks' text and its join hold it
# twice, and one chunk's cell lists add about 10 bytes a row at 40,000 rows.
# The whole text in one buffer, then copied out of it, took about 235.
_SERIALIZE_PEAK_BYTES_PER_ROW = 150


def test_serialize_memory_is_bounded_per_row():
    n = 40_000
    d = _mixed_dataset(n)
    tracemalloc.start()
    try:
        text = serialize_dataset(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == n + 1
    assert peak < _SERIALIZE_PEAK_BYTES_PER_ROW * n, f"{peak / n:.0f} bytes per row"


class TestRows:
    def test_iter_rows_over_a_view_longer_than_a_chunk(self):
        n = 2 * data._ROW_CHUNK + 7
        rng = np.random.default_rng(4)
        rows = [{"SEX": ["female", "male"][int(rng.integers(2))],
                 "AGEP": float(rng.normal()), "COV": str(int(rng.integers(2)))}
                for _ in range(n)]
        d = dataset_from_rows(schema_from_json(SCHEMA_DOC), rows)
        view = d.subset(rng.permutation(n)[: n - 3])
        assert view.n > data._ROW_CHUNK
        got = list(view.iter_rows())
        assert len(got) == view.n
        for i, row in enumerate(got):
            assert row == view.row(i)
            assert type(row["AGEP"]) is float and type(row["SEX"]) is str
        unlabeled = list(view.without_labels().iter_rows())
        assert unlabeled == [{k: v for k, v in r.items() if k != "COV"} for r in got]

    def test_iter_rows_without_columns(self):
        schema = Schema(predictive=(), class_attr=Attribute("Y", "discrete", ("0", "1")))
        d = dataset_from_rows(schema, [{"Y": "0"}] * 3)
        assert list(d.without_labels().iter_rows()) == [{}, {}, {}]


def test_discrete_columns_are_stored_as_domain_codes():
    schema = schema_from_json(SCHEMA_DOC)
    values = {"SEX": np.array(["male", "female", "male"]), "AGEP": np.array([3.0, 1.5, 2.0]),
              "COV": np.array(["0", "1", "1"], dtype=object)}
    with pytest.raises(ValueOutOfDomain, match="row 1, column 'SEX'"):
        data.Dataset(schema, {**values, "SEX": np.array(["male", "other", "x"], dtype=object)})
    built = data.Dataset(schema, values)
    assert list(built.column("SEX")) == ["male", "female", "male"]
    for d in (load_dataset(CSV, schema), built):
        for view in (d, d.subset([2, 0]), d.subset(slice(1, None)), d.without_labels()):
            for name in view.schema.column_names(view.labeled):
                attr = schema.attribute(name)
                if attr.is_discrete:
                    col, codes = view.column(name), view.codes(name)
                    assert col.dtype == object and codes.dtype == np.intp
                    assert len(col) == view.n
                    assert all(v is attr.domain[c] for v, c in zip(col, codes))


class TestConditionsAndPaths:
    def test_mask_compares_as_the_values_would(self):
        d = load_dataset(CSV, schema_from_json(SCHEMA_DOC)).subset([2, 1, 0])
        conds = [SplitCondition(name, op, t) for op in (EQ, NEQ, LEQ, GT)
                 for name, t in (("SEX", "female"), ("SEX", "male"), ("SEX", "other"),
                                 ("COV", "1"), ("AGEP", 31.5))]
        conds += [SplitCondition("SEX", op, 1) for op in (EQ, NEQ)]
        for cond in conds:
            assert list(d.mask(cond)) == list(cond.matches(d.column(cond.attribute))), cond
        assert not d.mask(SplitCondition("SEX", EQ, "other")).any()
        assert d.mask(SplitCondition("SEX", NEQ, "other")).all()

    def test_negate(self):
        assert SplitCondition("A", EQ, "x").negate().op == NEQ
        assert SplitCondition("A", LEQ, 3.0).negate().op == GT

    def test_matches(self):
        vals = np.array(["a", "b", "a"], dtype=object)
        assert list(SplitCondition("A", EQ, "a").matches(vals)) == [True, False, True]
        nums = np.array([1.0, 2.0, 3.0])
        assert list(SplitCondition("A", LEQ, 2.0).matches(nums)) == [True, True, False]
        assert list(SplitCondition("A", GT, 2.0).matches(nums)) == [False, False, True]

    def test_path_attributes_distinct_in_order(self):
        p = Path((SplitCondition("B", EQ, "x"),
                  SplitCondition("A", EQ, "y"),
                  SplitCondition("B", NEQ, "z")))
        assert p.attributes() == ("B", "A")
        assert len(p) == 3

    def test_filter_by_path_is_conjunction(self):
        d = rows_dataset(binary_schema(), [
            {"X1": "0", "X2": "0", "Y": "0"},
            {"X1": "0", "X2": "1", "Y": "0"},
            {"X1": "1", "X2": "0", "Y": "1"},
        ])
        path = EMPTY_PATH.extend(SplitCondition("X1", EQ, "0")).extend(
            SplitCondition("X2", EQ, "1"))
        sub = filter_by_path(d, path)
        assert sub.n == 1
        assert sub.row(0)["X2"] == "1"

    def test_describe(self):
        assert EMPTY_PATH.describe() == "(root)"
        assert SplitCondition("A", LEQ, 2.0).describe() == "A<=2.0"


class TestSplit:
    def test_sizes_and_partition(self):
        d = rows_dataset(binary_schema(), [
            {"X1": str(i % 2), "X2": str((i // 2) % 2), "Y": str(i % 2)}
            for i in range(100)
        ])
        train, test = split_train_test(d, 0.75, seed=5)
        assert (train.n, test.n) == (75, 25)
        assert sorted(np.concatenate([train.index, test.index])) == list(range(100))

    def test_deterministic(self):
        d = rows_dataset(binary_schema(), [
            {"X1": str(i % 2), "X2": "0", "Y": "1"} for i in range(40)
        ])
        a1, b1 = split_train_test(d, 0.6, seed=9)
        a2, b2 = split_train_test(d, 0.6, seed=9)
        assert list(a1.index) == list(a2.index)
        assert list(b1.index) == list(b2.index)

    def test_single_row_warns(self):
        d = rows_dataset(binary_schema(), [{"X1": "0", "X2": "0", "Y": "0"}])
        with pytest.warns(UserWarning):
            train, test = split_train_test(d, 0.75, seed=0)
        assert train.n + test.n == 1

    def test_bad_fraction(self):
        d = rows_dataset(binary_schema(), [{"X1": "0", "X2": "0", "Y": "0"}] * 4)
        with pytest.raises(ValueError):
            split_train_test(d, 1.0, seed=0)
