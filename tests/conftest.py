"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from dadt.data import Attribute, Dataset, Schema, dataset_from_rows
from dadt.errors import ValueOutOfDomain
from dadt.tree import Internal


def binary_schema(n_attrs: int = 2, protected: str | None = "X1") -> Schema:
    attrs = tuple(Attribute(f"X{i+1}", "discrete", ("0", "1")) for i in range(n_attrs))
    return Schema(predictive=attrs,
                  class_attr=Attribute("Y", "discrete", ("0", "1")),
                  protected_attr=protected)


def rows_dataset(schema: Schema, rows: list[dict], labeled: bool = True) -> Dataset:
    return dataset_from_rows(schema, rows, labeled=labeled)


def row_dicts(d: Dataset):
    """The dataset's rows as dicts of Python scalars, keyed by its column
    names in order; built from `Dataset.column` a chunk of rows at a time."""
    names = d.schema.column_names(d.labeled)
    for chunk in d.chunks():
        columns = [chunk.column(name).tolist() for name in names]
        for values in zip(*columns) if names else [()] * chunk.n:
            yield dict(zip(names, values))


def route_reference(tree, row: dict):
    """The leaf a row dict reaches, walking the tree one node at a time: each
    split looks its attribute up in the schema and compares the row's value,
    a discrete one as a string and a continuous one as a float, as
    `SplitCondition.matches` does. An undeclared discrete value on the path
    raises ValueOutOfDomain. The reference for `route_dataset`, which moves
    row-index arrays over stored codes instead."""
    node = tree.root
    while isinstance(node, Internal):
        cond = node.condition
        attr = tree.schema.attribute(cond.attribute)
        value = row[cond.attribute]
        if attr.is_discrete:
            value = str(value)
            if value not in attr.domain:
                raise ValueOutOfDomain(f"value {value!r} of {cond.attribute!r} was never declared")
        else:
            value = float(value)
        node = node.left if cond.matches(np.array([value], dtype=object))[0] else node.right
    return node


def xor_rows(n_attrs: int, counts: dict[tuple, int]) -> list[dict]:
    """Rows from (x1, ..., xn, y) -> count mappings."""
    out = []
    for key, c in counts.items():
        *xs, y = key
        row = {f"X{i+1}": str(v) for i, v in enumerate(xs)}
        row["Y"] = str(y)
        out.extend([dict(row)] * c)
    return out


def random_mixed_schema(rng: np.random.Generator, max_attrs: int = 6) -> Schema:
    n = int(rng.integers(2, max_attrs + 1))
    attrs = []
    for i in range(n):
        if rng.random() < 0.6:
            arity = int(rng.integers(2, 5))
            attrs.append(Attribute(f"A{i}", "discrete",
                                   tuple(f"v{j}" for j in range(arity))))
        else:
            attrs.append(Attribute(f"A{i}", "continuous"))
    return Schema(predictive=tuple(attrs),
                  class_attr=Attribute("Y", "discrete", ("no", "yes")),
                  protected_attr=None)


def random_dataset(rng: np.random.Generator, schema: Schema, n_rows: int) -> Dataset:
    rows = []
    weights = {a.name: rng.normal(size=3) for a in schema.predictive}
    for _ in range(n_rows):
        row = {}
        signal = 0.0
        for a in schema.predictive:
            w = weights[a.name]
            if a.is_discrete:
                j = int(rng.integers(len(a.domain)))
                row[a.name] = a.domain[j]
                signal += w[j % 3] * 0.5
            else:
                v = float(rng.normal())
                row[a.name] = v
                signal += w[0] * v
        p = 1.0 / (1.0 + np.exp(-signal))
        row["Y"] = "yes" if rng.random() < p else "no"
        rows.append(row)
    return dataset_from_rows(schema, rows)
