"""Pivot scores and the shift report against straightforward per-value loops.

The reference below counts each discrete value's or decile bin's rows with
its own mask, builds the target class conditionals of a sample-backed store
from its labeled sample as a dict, and subsets the source once per value.
`pivot_score`, `select_pivot` and `attribute_shift_report` must give the
same floats bit for bit (compared through `repr`) on random mixed schemas
under full and partial sample knowledge, with labeled and unlabeled
targets, on pivot cells empty on either side, and on cross-tab stores.
"""

from __future__ import annotations

import numpy as np
import pytest

from dadt.data import Attribute, Dataset, Schema
from dadt.errors import InsufficientKnowledge
from dadt.knowledge import (
    NAMED_REGIMES,
    KnowledgeStore,
    build_from_target_sample,
    load_from_crosstabs,
)
from dadt.metrics import attribute_shift_report
from dadt.stats import Distribution, class_distribution, wasserstein, wasserstein_empirical
from dadt.tree import _continuous_bin_edges, pivot_score, select_pivot

from conftest import random_dataset, random_mixed_schema
from test_golden_trees import _crosstab_doc, _mixed_pair


def ref_conditionals(target: Dataset) -> dict[str, dict]:
    out: dict[str, dict] = {}
    y_col = target.class_column()
    class_values = target.schema.class_values
    n = target.n
    for attr in target.schema.predictive:
        if not attr.is_discrete:
            continue
        col = target.column(attr.name)
        marginal: dict[str, float] = {}
        y_given_x: dict[str, Distribution] = {}
        for v in attr.domain:
            mask = col == v
            m = int(np.count_nonzero(mask))
            marginal[v] = m / n
            if m > 0:
                sub = y_col[mask]
                y_given_x[v] = Distribution(
                    class_values,
                    tuple(int(np.count_nonzero(sub == y)) / m for y in class_values))
        out[attr.name] = {"marginal": marginal, "y_given_x": y_given_x}
    return out


def ref_pivot_score(source: Dataset, ks: KnowledgeStore, attr: Attribute,
                    source_marginal: Distribution):
    support = source.schema.class_values
    col = source.column(attr.name)

    if attr.is_discrete:
        if ks.labeled_sample is not None:
            conditionals = ref_conditionals(ks.labeled_sample)
        else:
            conditionals = ks.class_conditionals
        info = (conditionals or {}).get(attr.name)
        if info is None:
            return None
        total = 0.0
        for v in attr.domain:
            p_t = info["marginal"].get(v, 0.0)
            tgt = info["y_given_x"].get(v)
            if p_t <= 0.0 or tgt is None:
                continue
            mask = col == v
            if mask.any():
                src = class_distribution(source.subset(mask))
            else:
                src = source_marginal
            total += wasserstein(src, tgt) * p_t
        return total

    if ks.labeled_sample is None:
        return None
    t_col = ks.labeled_sample.column(attr.name)
    t_y = ks.labeled_sample.class_column()
    s_y = source.class_column()
    edges = _continuous_bin_edges(np.concatenate([col, t_col]))
    total = 0.0
    lo = -np.inf
    for e in edges + [np.inf]:
        t_mask = (t_col > lo) & (t_col <= e)
        s_mask = (col > lo) & (col <= e)
        lo = e
        m = int(np.count_nonzero(t_mask))
        if m == 0:
            continue
        p_t = m / len(t_col)
        tgt = Distribution(support, tuple(
            int(np.count_nonzero(t_y[t_mask] == y)) / m for y in support))
        if s_mask.any():
            k = int(np.count_nonzero(s_mask))
            src = Distribution(support, tuple(
                int(np.count_nonzero(s_y[s_mask] == y)) / k for y in support))
        else:
            src = source_marginal
        total += wasserstein(src, tgt) * p_t
    return total


def ref_select_pivot(source: Dataset, ks: KnowledgeStore) -> str | None:
    source_marginal = class_distribution(source)
    best_name = None
    best_score = float("inf")
    for attr in source.schema.predictive:
        score = ref_pivot_score(source, ks, attr, source_marginal)
        if score is not None and score < best_score:
            best_score = score
            best_name = attr.name
    return best_name


def ref_shift_report(source: Dataset, target: Dataset, ks) -> list[dict]:
    source_marginal = class_distribution(source) if source.labeled else None
    rows = []
    for attr in source.schema.predictive:
        if attr.is_discrete:
            s_col = source.column(attr.name)
            t_col = target.column(attr.name)
            s_dist = Distribution(attr.domain, tuple(
                int(np.count_nonzero(s_col == v)) / source.n for v in attr.domain))
            t_dist = Distribution(attr.domain, tuple(
                int(np.count_nonzero(t_col == v)) / target.n for v in attr.domain))
            w_marginal = wasserstein(s_dist, t_dist)
        else:
            w_marginal = wasserstein_empirical(source.column(attr.name),
                                               target.column(attr.name))
        w_conditional = None
        if source_marginal is not None and ks is not None:
            w_conditional = ref_pivot_score(source, ks, attr, source_marginal)
        rows.append({"attribute": attr.name, "w_marginal": w_marginal,
                     "w_conditional": w_conditional})
    return rows


def assert_same_as_reference(source: Dataset, target: Dataset, ks: KnowledgeStore) -> int:
    """Compare every score, the pivot and the shift report; returns how many
    attributes got a score."""
    source_marginal = class_distribution(source)
    scored = 0
    for attr in source.schema.predictive:
        got = pivot_score(source, ks, attr, source_marginal)
        assert repr(got) == repr(ref_pivot_score(source, ks, attr, source_marginal)), attr
        scored += got is not None
    expected = ref_select_pivot(source, ks)
    if expected is None:
        with pytest.raises(InsufficientKnowledge):
            select_pivot(source, ks)
    else:
        assert select_pivot(source, ks) == expected
    assert repr(attribute_shift_report(source, target, ks)) == repr(
        ref_shift_report(source, target, ks))
    return scored


@pytest.mark.parametrize("regime", ["ftdk", "ptdk2"])
@pytest.mark.parametrize("labeled", [True, False])
def test_random_mixed_pairs(regime, labeled):
    rng = np.random.default_rng([41, int(labeled), len(regime)])
    scored = 0
    for _ in range(30):
        schema = random_mixed_schema(rng)
        source = random_dataset(rng, schema, int(rng.integers(5, 200)))
        target = random_dataset(rng, schema, int(rng.integers(1, 200)))
        if not labeled:
            target = target.without_labels()
        ks = build_from_target_sample(target, NAMED_REGIMES[regime])
        scored += assert_same_as_reference(source, target, ks)
    assert (scored > 0) == labeled


def _shifted(schema: Schema, n: int, seed: int, levels, shift: float) -> Dataset:
    """Rows whose discrete values come from `levels` only and whose
    continuous values lie in [shift, shift + 1)."""
    rng = np.random.default_rng(seed)
    columns = {}
    for attr in schema.predictive:
        if attr.is_discrete:
            columns[attr.name] = np.array(levels, dtype=object)[rng.integers(len(levels), size=n)]
        else:
            columns[attr.name] = shift + np.round(rng.random(n), 1)
    columns["Y"] = np.array(("0", "1"), dtype=object)[rng.integers(2, size=n)]
    return Dataset(schema, columns)


@pytest.mark.parametrize("source_levels, target_levels, target_shift", [
    (("a", "b"), ("a", "b", "c"), 0.0),  # D = c has no source rows
    (("a", "b", "c"), ("b", "c"), 0.5),  # D = a has no target rows; bins half shared
    (("a",), ("c",), 10.0),  # no cell has rows on both sides
    (("a", "b", "c"), ("a", "b", "c"), 0.0),
])
@pytest.mark.parametrize("regime", ["ftdk", "ptdk2"])
def test_cells_empty_on_either_side(source_levels, target_levels, target_shift, regime):
    schema = Schema(predictive=(Attribute("C", "continuous"),
                                Attribute("D", "discrete", ("a", "b", "c"))),
                    class_attr=Attribute("Y", "discrete", ("0", "1")))
    source = _shifted(schema, 60, 1, source_levels, 0.0)
    target = _shifted(schema, 45, 2, target_levels, target_shift)
    for tgt in (target, target.without_labels()):
        ks = build_from_target_sample(tgt, NAMED_REGIMES[regime])
        assert_same_as_reference(source, tgt, ks)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_crosstab_stores(seed):
    source, target = _mixed_pair(seed)
    for cdf_vars in (("C1", "C2"), ("C1",)):
        ks = load_from_crosstabs(_crosstab_doc(target, cdf_vars), source.schema)
        # the document's class conditionals are D1's and D2's only
        assert assert_same_as_reference(source, target, ks) == 2


def test_shift_report_without_store_or_source_labels():
    source, target = _mixed_pair(0)
    assert repr(attribute_shift_report(source, target, None)) == repr(
        ref_shift_report(source, target, None))
    ks = build_from_target_sample(target, NAMED_REGIMES["ftdk"])
    unlabeled = source.without_labels()
    assert repr(attribute_shift_report(unlabeled, target, ks)) == repr(
        ref_shift_report(unlabeled, target, ks))
