"""Whole-dataset routing against per-row routing."""

from __future__ import annotations

import numpy as np
import pytest

from dadt import data
from dadt.data import (
    EMPTY_PATH,
    EQ,
    GT,
    LEQ,
    NEQ,
    Attribute,
    Schema,
    SplitCondition,
    dataset_from_rows,
)
from dadt.knowledge import KnowledgeRegime, KnowledgeStore, build_from_target_sample
from dadt.metrics import PostprocessedModel, positive_scores, postprocess_thresholds
from dadt.stats import Distribution
from dadt.tree import DecisionTree, Internal, Leaf, TreeConfig, grow, route, route_dataset

from conftest import random_dataset, random_mixed_schema


def per_row_ids(tree, d):
    """Each row's leaf position in `tree.leaves()`, routed one row at a time."""
    position = {id(leaf): i for i, leaf in enumerate(tree.leaves())}
    return np.array([position[id(route(tree, row))] for row in d.iter_rows()], dtype=np.intp)


def assert_routes_like_route(tree, d):
    got = route_dataset(tree, d)
    assert got.dtype == np.intp and got.shape == (d.n,)
    assert np.array_equal(got, per_row_ids(tree, d))


def leaf(p):
    return Leaf(Distribution(("0", "1"), (1 - p, p)), 1, EMPTY_PATH)


def split_conditions(node):
    if isinstance(node, Leaf):
        return []
    cond = node.condition
    return [cond] + split_conditions(node.left) + split_conditions(node.right)


HAND_SCHEMA = Schema(
    predictive=(Attribute("C", "discrete", ("x", "y", "z")),
                Attribute("A", "continuous"),
                Attribute("G", "discrete", ("a", "b"))),
    class_attr=Attribute("Y", "discrete", ("0", "1")),
    protected_attr="G")


def hand_tree():
    """C != y, then C = z: A <= -1.5, else A > 3.0; every op, on both kinds."""
    leq = Internal(SplitCondition("A", LEQ, -1.5), leaf(0.4), leaf(0.9), 0.1)
    gt = Internal(SplitCondition("A", GT, 3.0), leaf(0.1), leaf(0.7), 0.1)
    eq = Internal(SplitCondition("C", EQ, "z"), leq, gt, 0.1)
    root = Internal(SplitCondition("C", NEQ, "y"), eq, leaf(0.2), 0.2)
    return DecisionTree(root=root, config=TreeConfig(), schema=HAND_SCHEMA,
                        x_w=None, diagnostics={})


def hand_rows(n, rng):
    values = [3.0, -1.5, 0.0, 2.999, 3.001, -2.0, 10.0]  # on and around each threshold
    return dataset_from_rows(HAND_SCHEMA, [
        {"C": str(rng.choice(["x", "y", "z"])), "A": float(rng.choice(values)),
         "G": str(rng.choice(["a", "b"])), "Y": str(rng.choice(["0", "1"]))}
        for _ in range(n)])


class TestRouteDataset:
    def test_grown_trees_on_random_mixed_schemas(self):
        rng = np.random.default_rng(5)
        n_split_values = 0
        for i in range(12):
            schema = random_mixed_schema(rng)
            source = random_dataset(rng, schema, 200)
            target = random_dataset(rng, schema, 150)
            ks = (KnowledgeStore.empty(schema) if i % 2 else
                  build_from_target_sample(target, KnowledgeRegime.full()))
            tree = grow(source, ks, TreeConfig())
            rows = random_dataset(rng, schema, int(rng.integers(1, 300)))
            assert_routes_like_route(tree, rows)
            assert_routes_like_route(tree, source)
            # rows exactly on every continuous split's threshold
            on_split = []
            for cond, row in zip(split_conditions(tree.root), rows.iter_rows()):
                if not schema.attribute(cond.attribute).is_discrete:
                    on_split.append({**row, cond.attribute: cond.threshold})
            if on_split:
                n_split_values += len(on_split)
                assert_routes_like_route(tree, dataset_from_rows(schema, on_split))
        assert n_split_values > 0

    def test_hand_built_tree_with_every_op(self):
        tree = hand_tree()
        d = hand_rows(400, np.random.default_rng(0))
        ids = route_dataset(tree, d)
        assert np.array_equal(ids, per_row_ids(tree, d))
        assert set(ids.tolist()) == set(range(len(tree.leaves())))

    def test_rows_on_the_thresholds(self):
        tree = hand_tree()
        d = dataset_from_rows(HAND_SCHEMA, [
            {"C": "x", "A": 3.0, "G": "a", "Y": "0"},   # A > 3.0 fails
            {"C": "z", "A": -1.5, "G": "a", "Y": "0"},  # A <= -1.5 holds
            {"C": "y", "A": 3.0, "G": "b", "Y": "1"},   # C != y fails
        ])
        assert route_dataset(tree, d).tolist() == [3, 0, 4]
        assert_routes_like_route(tree, d)

    def test_single_leaf_tree(self):
        tree = DecisionTree(root=leaf(0.5), config=TreeConfig(), schema=HAND_SCHEMA,
                            x_w=None, diagnostics={})
        assert route_dataset(tree, hand_rows(7, np.random.default_rng(1))).tolist() == [0] * 7

    def test_empty_dataset(self):
        d = hand_rows(5, np.random.default_rng(2)).subset(np.zeros(5, dtype=bool))
        ids = route_dataset(hand_tree(), d)
        assert ids.shape == (0,) and ids.dtype == np.intp

    def test_more_rows_than_one_chunk(self):
        tree = hand_tree()
        d = hand_rows(2 * data._ROW_CHUNK + 9, np.random.default_rng(3))
        assert_routes_like_route(tree, d)
        # a view whose rows are not in storage order and cross chunk ends
        view = d.subset(np.random.default_rng(4).permutation(d.n)[:data._ROW_CHUNK + 3])
        assert_routes_like_route(tree, view)


class TestPostprocessedPrediction:
    @pytest.mark.parametrize("objective", ["dp", "eop"])
    def test_equals_the_per_row_rule(self, objective):
        tree = hand_tree()
        rng = np.random.default_rng(6)
        holdout = hand_rows(300, rng)
        models = [postprocess_thresholds(tree, holdout, "G", objective)]
        grid = sorted({lf.class_dist.prob("1") for lf in tree.leaves()} | {0.0, 1.0})
        models += [PostprocessedModel(tree, "G", "1", "0",
                                      {"a": float(rng.choice(grid)), "b": float(rng.choice(grid))})
                   for _ in range(10)]
        for d in (holdout, hand_rows(2 * data._ROW_CHUNK + 1, rng)):
            scores = positive_scores(tree, d, "1")
            groups = d.column("G")
            for model in models:
                taus = np.array([model.thresholds[g] for g in groups], dtype=float)
                expect = np.where(scores >= taus, "1", "0").astype(object)
                assert np.array_equal(model.predict_dataset(d), expect)
