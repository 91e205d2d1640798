"""Tree induction: splits, class estimation, pivot choice, prediction, JSON."""

from __future__ import annotations

import copy
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadt import cli
from dadt import tree as tree_module
from dadt.baseline import grow_baseline, trees_equal
from dadt.data import (
    EMPTY_PATH,
    EQ,
    GT,
    LEQ,
    NEQ,
    Attribute,
    Dataset,
    Path,
    Schema,
    SplitCondition,
    dataset_from_rows,
    filter_by_path,
)
from dadt.errors import (
    ConfigError,
    InsufficientKnowledge,
    ParseError,
    UnlabeledData,
    ValueOutOfDomain,
)
from dadt.knowledge import (
    KnowledgeRegime,
    KnowledgeStore,
    build_from_target_sample,
    load_from_crosstabs,
    subpaths,
)
from dadt.stats import Distribution
from dadt.tree import (
    DecisionTree,
    Internal,
    Leaf,
    TreeConfig,
    best_split,
    estimate_class_dist,
    grow,
    _child_targets,
    _continuous_bin_edges,
    predict,
    select_pivot,
    tree_from_json,
    tree_to_json,
)

from conftest import (
    binary_schema,
    random_dataset,
    random_mixed_schema,
    route_reference,
    row_dicts,
    rows_dataset,
)


def eq(attr, v):
    return SplitCondition(attr, EQ, v)


def empty_ks(schema):
    return KnowledgeStore.empty(schema)


class TestConfig:
    def test_defaults(self):
        cfg = TreeConfig()
        assert cfg.max_depth == 8
        assert cfg.min_node_fraction == 0.05
        assert cfg.purity_stop == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            TreeConfig(max_depth=0)
        with pytest.raises(ConfigError):
            TreeConfig(min_node_fraction=0.0)
        with pytest.raises(ConfigError):
            TreeConfig(purity_stop=0.5)
        with pytest.raises(ConfigError):
            TreeConfig(alpha_override=1.5)

    @pytest.mark.parametrize("field, value", [
        ("max_depth", math.nan), ("max_depth", math.inf), ("max_depth", 2.5),
        ("max_depth", True), ("min_node_fraction", True), ("purity_stop", True),
        ("alpha_override", True), ("alpha_override", False), ("x_w_override", 1),
        ("x_w_override", ["X1"])])
    def test_validation_refuses_wrong_types(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TreeConfig(**{field: value})


class TestEstimateClassDist:
    def test_source_only_frequencies(self):
        rows = [{"X1": "0", "X2": "0", "Y": "1"}] * 7 + [{"X1": "0", "X2": "0", "Y": "0"}] * 3
        d = rows_dataset(binary_schema(), rows)
        dist = estimate_class_dist(d, EMPTY_PATH, None, empty_ks(d.schema), TreeConfig())
        assert dist.probs == (0.3, 0.7)

    def test_example_population_reconstruction(self):
        # Source: X1, X2 independent fair coins, Y = 1[X1 = X2], as exact counts.
        # Target: X1 = X2 almost surely. At the node X1=0, reconstructing the
        # class through X2 must yield P(Y=1) = 1 exactly, not the source's 0.5.
        rows = []
        for a in "01":
            for b in "01":
                rows.append({"X1": a, "X2": b, "Y": "1" if a == b else "0"})
        source = rows_dataset(binary_schema(), rows * 25)
        ks = load_from_crosstabs({"tables": [{"vars": ["X1", "X2"], "kind": "joint",
                                              "cells": [{"key": ["0", "0"], "p": 0.5},
                                                        {"key": ["1", "1"], "p": 0.5},
                                                        {"key": ["0", "1"], "p": 0.0},
                                                        {"key": ["1", "0"], "p": 0.0}]}]},
                                 source.schema)
        path = Path((eq("X1", "0"),))
        node = filter_by_path(source, path)
        cfg = TreeConfig()
        adapted = estimate_class_dist(node, path, "X2", ks, cfg)
        assert adapted.probs == (0.0, 1.0)
        source_only = estimate_class_dist(node, path, "X2", empty_ks(source.schema), cfg)
        assert source_only.probs == (0.5, 0.5)

    def test_empty_pivot_cell_falls_back_to_node_distribution(self):
        schema = Schema(
            predictive=(Attribute("P", "discrete", ("a", "b", "c")),),
            class_attr=Attribute("Y", "discrete", ("0", "1")))
        node = dataset_from_rows(schema, [
            {"P": "a", "Y": "1"}, {"P": "a", "Y": "1"},
            {"P": "b", "Y": "0"}, {"P": "b", "Y": "0"},
        ])
        ks = load_from_crosstabs({"tables": [{"vars": ["P"], "kind": "joint", "cells": [
            {"key": ["a"], "p": 0.5}, {"key": ["b"], "p": 0.25},
            {"key": ["c"], "p": 0.25}]}]}, schema)
        dist = estimate_class_dist(node, EMPTY_PATH, "P", ks,
                                   TreeConfig())
        # 0.5*(0,1) + 0.25*(1,0) + 0.25*(node = (0.5,0.5)) for the empty c cell
        assert dist.probs == pytest.approx((0.375, 0.625), abs=1e-12)

    def test_total_probability_against_brute_force(self):
        rng = np.random.default_rng(4)
        schema = binary_schema(3)
        rows = [{"X1": str(rng.integers(2)), "X2": str(rng.integers(2)),
                 "X3": str(rng.integers(2)), "Y": str(rng.integers(2))}
                for _ in range(200)]
        source = rows_dataset(schema, rows)
        target = rows_dataset(schema, [
            {"X1": str(rng.integers(2)), "X2": str(rng.integers(2)),
             "X3": str(rng.integers(2)), "Y": str(rng.integers(2))}
            for _ in range(200)])
        ks = build_from_target_sample(target, KnowledgeRegime.full())
        cfg = TreeConfig()
        path = Path((eq("X1", "0"),))
        node = filter_by_path(source, path)
        got = estimate_class_dist(node, path, "X2", ks, cfg)
        # independent oracle: direct total-probability sum with plain counting
        t_node = filter_by_path(target, path)
        s_col = node.column("X2")
        y_col = node.class_column()
        t_col = t_node.column("X2")
        expect = np.zeros(2)
        for x in ("0", "1"):
            w = np.count_nonzero(t_col == x) / t_node.n
            mask = s_col == x
            if mask.any():
                cell = np.array([np.count_nonzero(y_col[mask] == y) for y in ("0", "1")],
                                dtype=float) / mask.sum()
            else:
                cell = np.array([np.count_nonzero(y_col == y) for y in ("0", "1")],
                                dtype=float) / node.n
            expect += w * cell
        assert got.probs == pytest.approx(tuple(expect), abs=1e-9)


class TestBestSplit:
    def hand_table(self):
        rows = []
        # X1=0 rows are pure class 0; X2 is balanced within each class.
        for x2 in ("0", "0", "1"):
            rows.append({"X1": "0", "X2": x2, "Y": "0"})
        for x2 in ("0", "1", "1"):
            rows.append({"X1": "1", "X2": x2, "Y": "0"})
        for x2 in ("0", "0", "0", "1", "1", "1"):
            rows.append({"X1": "1", "X2": x2, "Y": "1"})
        return rows_dataset(binary_schema(), rows)

    def test_hand_built_twelve_rows(self):
        d = self.hand_table()
        cfg = TreeConfig(min_node_fraction=0.25)
        ks = empty_ks(d.schema)
        found = best_split(d, EMPTY_PATH, ks, None, cfg, d.n, {},
                           estimate_class_dist(d, EMPTY_PATH, None, ks, cfg))
        assert found is not None
        cond, ig, _, _ = found
        assert cond == eq("X1", "0")
        assert ig == pytest.approx(0.3112781244591328, abs=1e-9)

    def test_xor_has_no_positive_gain_split(self):
        rows = []
        for a in "01":
            for b in "01":
                rows += [{"X1": a, "X2": b, "Y": "1" if a == b else "0"}] * 5
        d = rows_dataset(binary_schema(), rows)
        cfg = TreeConfig(min_node_fraction=0.1)
        ks = empty_ks(d.schema)
        assert best_split(d, EMPTY_PATH, ks, None, cfg, d.n, {},
                          estimate_class_dist(d, EMPTY_PATH, None, ks, cfg)) is None

    def test_min_node_fraction_blocks(self):
        d = self.hand_table()
        cfg = TreeConfig(min_node_fraction=0.4)  # the 3-row child is too small
        ks = empty_ks(d.schema)
        found = best_split(d, EMPTY_PATH, ks, None, cfg, d.n, {},
                           estimate_class_dist(d, EMPTY_PATH, None, ks, cfg))
        assert found is None or found[0].attribute != "X1"

    def test_continuous_midpoints(self):
        schema = Schema(predictive=(Attribute("A", "continuous"),),
                        class_attr=Attribute("Y", "discrete", ("0", "1")))
        d = dataset_from_rows(schema, [
            {"A": 1.0, "Y": "0"}, {"A": 2.0, "Y": "0"},
            {"A": 3.0, "Y": "1"}, {"A": 4.0, "Y": "1"},
        ])
        cfg = TreeConfig(min_node_fraction=0.25)
        ks = empty_ks(schema)
        cond, ig, _, _ = best_split(d, EMPTY_PATH, ks, None, cfg, d.n, {},
                                    estimate_class_dist(d, EMPTY_PATH, None, ks, cfg))
        assert cond == SplitCondition("A", LEQ, 2.5)
        assert ig == pytest.approx(1.0)


class TestGrow:
    def test_pure_root_is_single_leaf(self):
        d = rows_dataset(binary_schema(), [{"X1": "0", "X2": "1", "Y": "1"}] * 10)
        tree = grow(d, empty_ks(d.schema), TreeConfig())
        assert isinstance(tree.root, Leaf)
        assert tree.root.class_dist.probs == (0.0, 1.0)

    def test_depth_limit(self):
        rng = np.random.default_rng(0)
        schema = random_mixed_schema(rng)
        d = random_dataset(rng, schema, 300)
        tree = grow(d, empty_ks(schema), TreeConfig(max_depth=2, min_node_fraction=0.01))
        def depth(node):
            if isinstance(node, Leaf):
                return 0
            return 1 + max(depth(node.left), depth(node.right))
        assert depth(tree.root) <= 2

    def test_leaf_invariants(self):
        rng = np.random.default_rng(1)
        schema = random_mixed_schema(rng)
        d = random_dataset(rng, schema, 400)
        cfg = TreeConfig()
        tree = grow(d, empty_ks(schema), cfg)
        leaves = tree.leaves()
        if not isinstance(tree.root, Leaf):
            for leaf in leaves:
                assert leaf.n_source_rows >= cfg.min_node_fraction * d.n
        for leaf in leaves:
            assert abs(sum(leaf.class_dist.probs) - 1.0) <= 1e-9

    def test_unlabeled_rejected(self):
        d = rows_dataset(binary_schema(), [{"X1": "0", "X2": "0", "Y": "0"}] * 4)
        with pytest.raises(UnlabeledData):
            grow(d.without_labels(), empty_ks(d.schema), TreeConfig())

    def test_pivot_must_be_predictive(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        d = random_dataset(rng, random_mixed_schema(rng), 40)
        for ks in (empty_ks(d.schema), build_from_target_sample(d, KnowledgeRegime.full())):
            for pivot in ("Y", "nope"):
                with pytest.raises(ConfigError, match="predictive"):
                    grow(d, ks, TreeConfig(x_w_override=pivot))
        data = tmp_path / "d"
        assert cli.main(["synth", "--n-source", "50", "--n-target", "50", "--out", str(data)]) == 0
        capsys.readouterr()
        for regime in ("ntdk", "ftdk"):
            assert cli.main(["train", "--source", str(data / "source.csv"),
                             "--schema", str(data / "schema.json"), "--regime", regime,
                             "--target", str(data / "target.csv"), "--pivot", "Y",
                             "--out", str(tmp_path / "t.json")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "predictive" in err
        assert not (tmp_path / "t.json").exists()

    def test_ntdk_equals_baseline(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            schema = random_mixed_schema(rng)
            d = random_dataset(rng, schema, 250)
            cfg = TreeConfig(max_depth=4)
            assert trees_equal(grow(d, empty_ks(schema), cfg), grow_baseline(d, cfg))

    def test_self_knowledge_is_identity(self):
        """Knowledge of the source itself changes no tree, under the dynamic
        alpha and under fixed ones, which mix exactly."""
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            schema = random_mixed_schema(rng)
            d = random_dataset(rng, schema, 250)
            cfg = TreeConfig(max_depth=4)
            ntdk = grow(d, empty_ks(schema), cfg)
            ks = build_from_target_sample(d, KnowledgeRegime.full())
            for alpha in (None, 0.3, 0.5, 1.0):
                adapted = grow(d, ks, TreeConfig(max_depth=4, alpha_override=alpha))
                assert trees_equal(ntdk, adapted), (seed, alpha)


class TestSelectPivot:
    def two_attr_store(self, y_given_a, y_given_b):
        schema = binary_schema(2)

        def dist(p1):
            return Distribution(("0", "1"), (1.0 - p1, p1))

        ks = KnowledgeStore(schema=schema, arity_limit=float("inf"))
        ks.class_conditionals = {
            "X1": {"marginal": {"0": 0.5, "1": 0.5},
                   "y_given_x": {v: dist(p) for v, p in y_given_a.items()}},
            "X2": {"marginal": {"0": 0.5, "1": 0.5},
                   "y_given_x": {v: dist(p) for v, p in y_given_b.items()}},
        }
        ks.tables = {("X1",): {("0",): 0.5, ("1",): 0.5}}  # store is non-empty
        return ks

    def source(self):
        # P_S(Y=1 | X1=0)=0.25, X1=1 -> 0.75; X2 uncorrelated -> 0.5 both
        rows = []
        for x1, x2, y in [("0", "0", "0"), ("0", "1", "0"), ("0", "0", "0"), ("0", "1", "1"),
                          ("1", "0", "1"), ("1", "1", "1"), ("1", "0", "1"), ("1", "1", "0")]:
            rows.append({"X1": x1, "X2": x2, "Y": y})
        return rows_dataset(binary_schema(2), rows)

    def test_zero_distance_attribute_wins(self):
        src = self.source()
        ks = self.two_attr_store({"0": 0.25, "1": 0.75}, {"0": 0.9, "1": 0.9})
        assert select_pivot(src, ks) == "X1"

    def test_hand_computed_argmin(self):
        src = self.source()
        # W(X1) = 0.5*|0.25-0.5| + 0.5*|0.75-0.5| = 0.25
        # W(X2) = 0.5*|0.5-0.4| + 0.5*|0.5-0.6| = 0.1 -> X2 wins
        ks = self.two_attr_store({"0": 0.5, "1": 0.5}, {"0": 0.4, "1": 0.6})
        assert select_pivot(src, ks) == "X2"

    def test_insufficient_knowledge(self):
        src = self.source()
        ks = KnowledgeStore(schema=src.schema, arity_limit=2.0)
        ks.tables = {("X1",): {("0",): 0.5, ("1",): 0.5}}
        with pytest.raises(InsufficientKnowledge):
            select_pivot(src, ks)

    def test_singleton(self):
        schema = Schema(predictive=(Attribute("A", "discrete", ("0", "1")),),
                        class_attr=Attribute("Y", "discrete", ("0", "1")))
        d = dataset_from_rows(schema, [{"A": "0", "Y": "0"}, {"A": "1", "Y": "1"}])
        ks = build_from_target_sample(d, KnowledgeRegime.full())
        assert select_pivot(d, ks) == "A"


class TestPredict:
    def hand_tree(self):
        schema = Schema(
            predictive=(Attribute("C", "discrete", ("x", "y")),
                        Attribute("A", "continuous")),
            class_attr=Attribute("Y", "discrete", ("0", "1")))
        leaf_a = Leaf(Distribution(("0", "1"), (0.9, 0.1)), 10, EMPTY_PATH)
        leaf_b = Leaf(Distribution(("0", "1"), (0.2, 0.8)), 10, EMPTY_PATH)
        leaf_c = Leaf(Distribution(("0", "1"), (0.5, 0.5)), 10, EMPTY_PATH)
        inner = Internal(SplitCondition("A", LEQ, 3.0), leaf_a, leaf_b, 0.5)
        root = Internal(eq("C", "x"), inner, leaf_c, 0.3)
        return DecisionTree(root=root, config=TreeConfig(), schema=schema,
                            x_w=None, diagnostics={})

    def test_hand_traced_routes(self):
        t = self.hand_tree()
        assert predict(t, {"C": "x", "A": 1.0})[0] == "0"
        assert predict(t, {"C": "x", "A": 5.0})[0] == "1"
        assert predict(t, {"C": "x", "A": 3.0})[0] == "0"  # boundary goes left
        label, dist = predict(t, {"C": "y", "A": 0.0})
        assert label == "0"  # tie broken by class declaration order
        assert dist.probs == (0.5, 0.5)

    def test_unseen_discrete_value(self):
        t = self.hand_tree()
        with pytest.raises(ValueOutOfDomain,
                           match=r"^row 0, column 'C': value 'zzz' not in domain \['x', 'y'\]$"):
            predict(t, {"C": "zzz", "A": 1.0})

    def test_row_is_typed_as_a_one_row_dataset(self):
        # every predictive attribute is read, on the row's path or not, and
        # typed as CSV loading types it; other keys are ignored
        t = self.hand_tree()
        assert predict(t, {"C": "x", "A": "5", "Y": "no such class"})[0] == "1"
        assert predict(t, {"C": "y", "A": 7})[0] == "0"
        for value in (math.nan, math.inf, "-inf"):
            with pytest.raises(ParseError, match=r"^row 0, column 'A': non-finite value"):
                predict(t, {"C": "y", "A": value})
        with pytest.raises(ParseError, match="cannot parse 'abc' as a number"):
            predict(t, {"C": "y", "A": "abc"})
        with pytest.raises(KeyError):
            predict(t, {"C": "y"})

    @pytest.mark.parametrize("op", [EQ, NEQ, LEQ, GT])
    def test_route_agrees_with_matches(self, op):
        schema = self.hand_tree().schema
        left = Leaf(Distribution(("0", "1"), (1.0, 0.0)), 1, EMPTY_PATH)
        right = Leaf(Distribution(("0", "1"), (0.0, 1.0)), 1, EMPTY_PATH)
        for attr, threshold, values in (("C", "x", ("x", "y")),
                                        ("A", 0.5, (0.0, 0.5, 1.0))):
            cond = SplitCondition(attr, op, threshold)
            tree = DecisionTree(root=Internal(cond, left, right, 0.0), config=TreeConfig(),
                                schema=schema, x_w=None, diagnostics={})
            for v in values:
                row = {"C": "x", "A": 0.0, attr: v}
                expect = bool(cond.matches(np.array([v], dtype=object))[0])
                assert (route_reference(tree, row) is left) == expect, (op, attr, v)
                assert (predict(tree, row)[1] is left.class_dist) == expect, (op, attr, v)

    def test_route_agrees_with_a_per_node_reference(self):
        # `predict` routes a one-row dataset through `route_dataset`; the
        # reference walks the tree objects and looks each attribute up in the
        # schema at every node. Numbers come as strings, some rows hold an
        # undeclared value (on the path or off it), and one row a NaN.
        rng = np.random.default_rng(21)
        n_both_raised = n_nan = 0
        for _ in range(6):
            schema = random_mixed_schema(rng)
            tree = grow(random_dataset(rng, schema, 150), KnowledgeStore.empty(schema),
                        TreeConfig())
            rows = list(row_dicts(random_dataset(rng, schema, 60)))
            for row in rows[:20]:
                for a in schema.predictive:
                    if a.is_discrete and rng.random() < 0.5:
                        row[a.name] = "unseen"
                    elif not a.is_discrete:
                        row[a.name] = repr(row[a.name])
            continuous = [a.name for a in schema.predictive if not a.is_discrete]
            if continuous:
                rows[20][continuous[0]] = math.nan
            for i, row in enumerate(rows):
                undeclared = [a.name for a in schema.predictive
                              if a.is_discrete and row[a.name] not in a.domain]
                if i == 20 and continuous:  # the reference routes a NaN right
                    with pytest.raises(ParseError, match="non-finite value nan"):
                        predict(tree, row)
                    n_nan += 1
                elif undeclared:
                    # the first undeclared column in schema order, on the
                    # row's path or not
                    with pytest.raises(ValueOutOfDomain,
                                       match=f"^row 0, column '{undeclared[0]}': value 'unseen'"):
                        predict(tree, row)
                    try:
                        route_reference(tree, row)
                    except ValueOutOfDomain:
                        n_both_raised += 1
                else:
                    assert predict(tree, row)[1] is route_reference(tree, row).class_dist
        assert n_both_raised > 0 and n_nan > 0


class TestContinuousBinEdges:
    def test_equal_to_numpy_quantile_deciles(self):
        rng = np.random.default_rng(11)
        qs = np.linspace(0.1, 0.9, 9)
        for n in list(range(1, 40)) + [97, 500, 1001]:
            for scale in (0.1, 1.0):
                values = np.round(rng.normal(size=n) / scale) * scale  # ties
                expect = []
                for q in np.quantile(values, qs):
                    if not expect or float(q) > expect[-1]:
                        expect.append(float(q))
                assert _continuous_bin_edges(values) == expect, (n, scale)


def _random_condition(rng: np.random.Generator, schema: Schema) -> SplitCondition:
    attr = schema.predictive[int(rng.integers(len(schema.predictive)))]
    if attr.is_discrete:
        return SplitCondition(attr.name, EQ, attr.domain[int(rng.integers(len(attr.domain)))])
    return SplitCondition(attr.name, LEQ, float(np.round(rng.normal(), 1)))


def _assert_sample_on_each_prefix(ks: KnowledgeStore, path: Path, targets: list) -> None:
    """targets holds the sample's rows on each prefix of the path's distinct
    attributes, and the subpaths of the path read their rows from it."""
    order = path.attributes()
    assert len(targets) == len(order) + 1
    for j, rows in enumerate(targets):
        prefix = Path(tuple(c for c in path.conditions if c.attribute in order[:j]))
        assert np.array_equal(rows.index, filter_by_path(ks.sample, prefix).index), (path, j)
    for attr in ks.schema.predictive_names:
        for sub in subpaths(ks, SplitCondition(attr, EQ, None), path):
            rows = targets[len(sub.attributes())]
            assert np.array_equal(rows.index, filter_by_path(ks.sample, sub).index), (path, sub)


class TestHandedDownTargets:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 80),
           arity=st.sampled_from([math.inf, 1, 2, 3]), max_depth=st.integers(1, 5))
    def test_depth_first_walk_equals_filtering_the_sample(self, seed, n_rows, arity, max_depth):
        """Node paths walked depth-first as `grow` walks them, each child's
        list handed down from its parent's, on a random mixed schema. A
        continuous attribute recurs on a path under other thresholds. A path
        holds no condition twice, nor one with its negation: such a node has
        no source rows."""
        rng = np.random.default_rng(seed)
        schema = random_mixed_schema(rng)
        regime = (KnowledgeRegime.full() if arity == math.inf
                  else KnowledgeRegime.partial(arity))
        ks = build_from_target_sample(random_dataset(rng, schema, n_rows), regime)

        def visit(path: Path, targets: list, depth: int) -> None:
            _assert_sample_on_each_prefix(ks, path, targets)
            if depth == max_depth:
                return
            cond = _random_condition(rng, schema)
            if cond in path.conditions or cond.negate() in path.conditions:
                return
            for c in (cond, cond.negate()):
                visit(path.extend(c), _child_targets(targets, path, c), depth + 1)

        visit(EMPTY_PATH, [ks.sample], 0)

    @pytest.mark.parametrize("regime", ["full", "partial"])
    def test_grow_hands_down_the_sample_and_leaves_the_store_as_it_was(self, regime):
        rng = np.random.default_rng(5)
        schema = random_mixed_schema(rng)
        source = random_dataset(rng, schema, 200)
        target = random_dataset(rng, schema, 200)
        kr = KnowledgeRegime.full() if regime == "full" else KnowledgeRegime.partial(2)
        ks = build_from_target_sample(target, kr)

        def state() -> dict:
            # the datasets by identity, every other field by value
            return {k: id(v) if isinstance(v, Dataset) else copy.deepcopy(v)
                    for k, v in vars(ks).items()}

        before = state()
        handed = []

        def spy(*args):
            handed.append(args)
            return best_split(*args)

        with mock.patch.object(tree_module, "best_split", spy):
            grow(source, ks, TreeConfig())
        assert state() == before
        assert max(len(args[1]) for args in handed) > 1
        for args in handed:
            _assert_sample_on_each_prefix(ks, args[1], args[-1])


class TestKnowledgeRowsBounded:
    @pytest.mark.parametrize("regime", ["full", "partial"])
    def test_at_most_one_entry_per_node(self, regime):
        """The target rows a grow keeps are bounded: one `best_split` call per
        internal node or leaf, each handed a list with at most one entry per
        node on the path from the root to it."""
        rng = np.random.default_rng(5)
        schema = random_mixed_schema(rng)
        source = random_dataset(rng, schema, 200)
        target = random_dataset(rng, schema, 200)
        kr = KnowledgeRegime.full() if regime == "full" else KnowledgeRegime.partial(2)
        ks = build_from_target_sample(target, kr)
        handed = []

        def spy(*args):
            handed.append((args[1], args[-1]))
            return best_split(*args)

        with mock.patch.object(tree_module, "best_split", spy):
            tree = grow(source, ks, TreeConfig())
        n_nodes = 2 * len(tree.leaves()) - 1
        assert 0 < len(handed) <= n_nodes
        for path, targets in handed:
            assert 0 < len(targets) <= len(path.conditions) + 1


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        schema = random_mixed_schema(rng)
        d = random_dataset(rng, schema, 200)
        target = random_dataset(rng, schema, 200)
        for ks in (KnowledgeStore.empty(schema),
                   build_from_target_sample(target, KnowledgeRegime.full())):
            tree = grow(d, ks, TreeConfig(max_depth=3))
            text = tree_to_json(tree)
            again = tree_from_json(text)
            for row in row_dicts(d):
                assert predict(again, row) == predict(tree, row)
            assert tree_to_json(again) == text
        assert json.loads(text)["diagnostics"]["n_alphas"] > 0

    def test_fields_of_older_versions_ignored(self):
        rng = np.random.default_rng(8)
        schema = random_mixed_schema(rng)
        d = random_dataset(rng, schema, 100)
        tree = grow(d, KnowledgeStore.empty(schema), TreeConfig(max_depth=3))
        doc = json.loads(tree_to_json(tree))
        doc["config"].update({"regime": {"variant": "full", "arity": None},
                              "seed": 3, "knowledge_at_leaves": True,
                              "route_unseen_right": True})
        doc["schema"]["predictive"][0]["bounds"] = [-5.0, 5.0]
        old = tree_from_json(json.dumps(doc))
        assert old.config == tree.config
        assert old.schema == tree.schema
        for row in row_dicts(d):
            assert predict(old, row) == predict(tree, row)

    def test_malformed_documents(self):
        good = json.loads(tree_to_json(TestPredict().hand_tree()))

        def bad_split(key, value, inner=False):
            doc = json.loads(json.dumps(good))
            split = doc["root"]["left"] if inner else doc["root"]
            split["condition"][key] = value
            return json.dumps(doc)

        for text in ("{", "[]", json.dumps({**good, "root": {"leaf": True}}),
                     bad_split("threshold", "three", inner=True),  # continuous A
                     bad_split("op", "eq", inner=True),
                     bad_split("threshold", "z")):  # not in the domain of C
            with pytest.raises(ParseError):
                tree_from_json(text)

    def test_schema_must_be_inline(self, tmp_path, monkeypatch, capsys):
        tree = TestPredict().hand_tree()
        (tmp_path / "schema.json").write_text(json.dumps(tree.schema.to_json_dict()))
        doc = {**json.loads(tree_to_json(tree)), "schema": "schema.json"}
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ParseError):
            tree_from_json(json.dumps(doc))
        (tmp_path / "tree.json").write_text(json.dumps(doc))
        (tmp_path / "data.csv").write_text("C,A,Y\nx,1.0,0\n")
        assert cli.main(["predict", "--tree", "tree.json", "--data", "data.csv",
                         "--out", "preds.csv"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_diagnostics_echoed(self):
        d = rows_dataset(binary_schema(), [{"X1": "0", "X2": "0", "Y": "1"}] * 5)
        tree = grow(d, KnowledgeStore.empty(d.schema), TreeConfig())
        doc = json.loads(tree_to_json(tree))
        assert doc["config"]["max_depth"] == 8
        assert doc["root"]["leaf"] is True
