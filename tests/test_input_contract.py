"""The input contract: malformed input files exit 1 with an `error:` line.

Exit code 2 is for internal invariants, never for bad input, and no
exception may escape `cli.main`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadt.cli import main
from dadt.data import Attribute, Schema, load_dataset, schema_from_json
from dadt.errors import DadtError, ParseError
from dadt.knowledge import KnowledgeStore, load_from_crosstabs

from conftest import binary_schema

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=250)


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, bytes]:
    """Valid tiny inputs: a synthetic pair, its schema, a tree and a config;
    every command exits 0 on them."""
    d = tmp_path_factory.mktemp("inputs")
    assert run_cli(["synth", "--n-source", 60, "--n-target", 60, "--n-attrs", 3,
                    "--label-noise", 0.1, "--out", d])[0] == 0
    assert run_cli(["train", "--source", d / "source.csv", "--schema", d / "schema.json",
                    "--regime", "ftdk", "--target", d / "target.csv",
                    "--out", d / "tree.json"])[0] == 0
    config = {"seed": 1, "regimes": ["tt", "ntdk", "ftdk"],
              "pairs": [{"id": "synth", "synth": {"n_source": 60, "n_target": 60,
                                                  "n_attrs": 3, "seed": 2}},
                        {"id": "files", "source_csv": str(d / "source.csv"),
                         "target_csv": str(d / "target.csv"),
                         "schema_json": str(d / "schema.json")}],
              "tree": {"max_depth": 3}, "fairness_objective": "dp",
              "train_fraction": 0.75, "output_dir": "out"}
    files = {name: (d / name).read_bytes()
             for name in ("schema.json", "source.csv", "target.csv", "tree.json")}
    files["config.json"] = json.dumps(config).encode()
    for command in ("train", "predict", "evaluate", "experiment"):
        assert run_command(command, files) == (0, "")
    return files


def run_command(command: str, files: dict[str, bytes]) -> tuple[int, str]:
    """Write the input files to a fresh directory and run one command on them."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, content in files.items():
            (d / name).write_bytes(content)
        argv = {
            "train": ["train", "--source", d / "source.csv", "--schema", d / "schema.json",
                      "--regime", "ftdk", "--target", d / "target.csv",
                      "--out", d / "out.json"],
            "predict": ["predict", "--tree", d / "tree.json", "--data", d / "target.csv",
                        "--out", d / "out.csv"],
            "evaluate": ["evaluate", "--tree", d / "tree.json", "--data", d / "target.csv",
                         "--out", d / "out.json"],
            "experiment": ["experiment", "--config", d / "config.json", "--out", d / "out"],
        }[command]
        return run_cli(argv)


def with_value(content: bytes, *path_and_value) -> bytes:
    """The JSON document `content` with the value at a key path replaced."""
    *path, value = path_and_value
    doc = json.loads(content)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc).encode()


BAD_INPUTS = {
    "schema-invalid-json": ("train", "schema.json", lambda _: b'{"predictive": ['),
    "schema-unknown-kind": ("train", "schema.json",
                            lambda c: with_value(c, "predictive", 0, "kind", "foo")),
    "csv-not-utf8-train": ("train", "source.csv", lambda c: c[:20] + b"\xff" + c[20:]),
    "csv-not-utf8-predict": ("predict", "target.csv", lambda c: c[:20] + b"\xff" + c[20:]),
    "csv-field-too-long": ("train", "source.csv", lambda c: c + b"0" * 200_000 + b"\n"),
    "config-invalid-json": ("experiment", "config.json", lambda c: c[:-1]),
    "config-pair-not-object": ("experiment", "config.json",
                               lambda c: with_value(c, "pairs", [1])),
    "config-seed-not-number": ("experiment", "config.json",
                               lambda c: with_value(c, "seed", "x")),
    "config-train-fraction-not-number": ("experiment", "config.json",
                                         lambda c: with_value(c, "train_fraction", "abc")),
    "config-train-fraction-out-of-range": ("experiment", "config.json",
                                           lambda c: with_value(c, "train_fraction", 1.5)),
    "config-synth-value": ("experiment", "config.json",
                           lambda c: with_value(c, "pairs", 0, "synth", "n_source", "a")),
    "config-tree-value": ("experiment", "config.json",
                          lambda c: with_value(c, "tree", "max_depth", "a")),
    "config-tree-depth-nan": ("experiment", "config.json",
                              lambda c: with_value(c, "tree", "max_depth", math.nan)),
    "config-output-dir-nul": ("experiment", "config.json",
                              lambda c: with_value(c, "output_dir", "o\0x")),
    "config-seed-infinite": ("experiment", "config.json",
                             lambda c: with_value(c, "seed", math.inf)),
    "config-seed-fractional": ("experiment", "config.json",
                               lambda c: with_value(c, "seed", 1.5)),
    "config-seed-bool": ("experiment", "config.json", lambda c: with_value(c, "seed", True)),
    "config-seed-string": ("experiment", "config.json", lambda c: with_value(c, "seed", "7")),
    "config-seed-negative": ("experiment", "config.json", lambda c: with_value(c, "seed", -1)),
    "config-seed-huge-float": ("experiment", "config.json",
                               lambda c: with_value(c, "seed", 1e30)),
    "config-train-fraction-string": ("experiment", "config.json",
                                     lambda c: with_value(c, "train_fraction", "0.5")),
    "config-synth-seed-negative": ("experiment", "config.json",
                                   lambda c: with_value(c, "pairs", 0, "synth", "seed", -1)),
    "config-synth-size-bool": ("experiment", "config.json",
                               lambda c: with_value(c, "pairs", 0, "synth", "n_source", True)),
    "schema-deeply-nested": ("train", "schema.json", lambda _: b"[" * 100_000),
    "tree-schema-not-object": ("predict", "tree.json", lambda c: with_value(c, "schema", [1])),
    "tree-depth-fractional": ("predict", "tree.json",
                              lambda c: with_value(c, "config", "max_depth", 2.5)),
    "tree-route-unseen-not-bool": ("predict", "tree.json",
                                   lambda c: with_value(c, "config", "route_unseen_right",
                                                        "false")),
    "config-tree-pivot-not-name": ("experiment", "config.json",
                                   lambda c: with_value(c, "tree", "x_w_override", 3)),
    "tree-row-count-infinite": ("predict", "tree.json",
                                lambda c: with_value(c, "root", "left", "n_source_rows", math.inf)),
    "tree-split-on-class": ("predict", "tree.json",
                            lambda c: with_value(c, "root", "condition", "attr", "Y")),
    "tree-pivot-unknown": ("predict", "tree.json", lambda c: with_value(c, "x_w", "nope")),
    "tree-leaf-path-not-its-splits": ("predict", "tree.json",
                                      lambda c: with_value(c, "root", "left", "path",
                                                           [["nope", "eq", 7]])),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_1(inputs, case):
    command, name, mutate = BAD_INPUTS[case]
    code, err = run_command(command, {**inputs, name: mutate(inputs[name])})
    assert code == 1 and err.startswith("error:"), err


def test_schema_from_json_bytes(inputs):
    schema = schema_from_json(inputs["schema.json"])
    assert schema.predictive_names == ("X1", "X2", "X3")


def test_unopenable_path_is_parse_error():
    with pytest.raises(ParseError, match="cannot read"):
        load_dataset(Path("a\0b.csv"), binary_schema())


# -- mutations --------------------------------------------------------------

scalars = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(),
                    st.sampled_from((math.nan, math.inf, -math.inf)), st.text(max_size=4))
values = st.one_of(scalars, st.lists(scalars, max_size=3),
                   st.dictionaries(st.text(max_size=3), scalars, max_size=2))


def key_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from key_paths(value, prefix + (key,))


@st.composite
def mutated(draw, content: bytes) -> bytes:
    """One byte-level edit (truncate, insert, replace) or one JSON-level edit
    (replace the value at a key path, or delete it)."""
    kind = draw(st.sampled_from(
        ("truncate", "insert", "replace", "json-set", "json-delete")
        if content.lstrip().startswith(b"{") else ("truncate", "insert", "replace")))
    if kind in ("truncate", "insert", "replace"):
        at = draw(st.integers(0, len(content) - 1))
        byte = bytes([draw(st.integers(0, 255))])
        return {"truncate": content[:at],
                "insert": content[:at] + byte + content[at:],
                "replace": content[:at] + byte + content[at + 1:]}[kind]
    doc = json.loads(content)
    path = draw(st.sampled_from(list(key_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "json-set":
        parent[path[-1]] = draw(values)
    else:
        del parent[path[-1]]
    return json.dumps(doc).encode()


COMMANDS = {"schema.json": ("train",), "source.csv": ("train",),
            "target.csv": ("train", "predict", "evaluate"),
            "tree.json": ("predict", "evaluate"), "config.json": ("experiment",)}


@pytest.mark.parametrize("name", sorted(COMMANDS))
@FUZZ
@given(data=st.data())
def test_mutated_input_keeps_exit_contract(inputs, name, data):
    content = data.draw(mutated(inputs[name]), label="content")
    command = data.draw(st.sampled_from(COMMANDS[name]), label="command")
    code, err = run_command(command, {**inputs, name: content})
    assert code in (0, 1), err
    assert code == 0 or err.startswith("error:"), err


CROSSTAB_DOC = {
    "tables": [{"vars": ["X1", "X2"], "cells": [
        {"key": ["0", "0"], "p": 0.4}, {"key": ["0", "1"], "p": 0.1},
        {"key": ["1", "0"], "p": 0.1}, {"key": ["1", "1"], "p": 0.4}]}],
    "cdfs": [{"var": "A", "context": [["X1", "0"]], "knots": [[0, 0.2], [1, 1.0]]}],
    "class_conditionals": [{"var": "X1", "marginal": {"0": 0.5, "1": 0.5},
                            "y_given_x": {"0": {"0": 0.3, "1": 0.7}, "1": {"0": 1.0}}}],
    "arity_limit": 2,
}


@FUZZ
@given(data=st.data())
def test_mutated_crosstabs_load_or_raise_dadt_error(data):
    base = binary_schema()
    schema = Schema(predictive=base.predictive + (Attribute("A", "continuous"),),
                    class_attr=base.class_attr)
    content = data.draw(mutated(json.dumps(CROSSTAB_DOC).encode()))
    try:
        assert isinstance(load_from_crosstabs(content, schema), KnowledgeStore)
    except DadtError:
        pass
