"""Whole-dataset routing and scoring against per-row routing (`route_reference`)."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict

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
    Schema,
    SplitCondition,
    dataset_from_rows,
    load_dataset,
    serialize_dataset,
)
from dadt.errors import EmptyDataset, UnlabeledData
from dadt.knowledge import KnowledgeRegime, KnowledgeStore, build_from_target_sample
from dadt.metrics import (
    EvalReport,
    PostprocessedModel,
    evaluate_model,
    positive_scores,
    postprocess_thresholds,
    tree_shift_distance,
)
from dadt.stats import Distribution
from dadt.tree import (
    DecisionTree,
    Internal,
    Leaf,
    TreeConfig,
    grow,
    predict_dataset,
    route_dataset,
    tree_from_json,
    tree_to_json,
)

from conftest import random_dataset, random_mixed_schema, route_reference, row_dicts


def per_row_ids(tree, d):
    """Each row's leaf position in `tree.leaves()`, routed one row at a time."""
    position = {id(leaf): i for i, leaf in enumerate(tree.leaves())}
    return np.array([position[id(route_reference(tree, row))] for row in row_dicts(d)],
                    dtype=np.intp)


def assert_routes_like_reference(tree, d):
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
            assert_routes_like_reference(tree, rows)
            assert_routes_like_reference(tree, source)
            # rows exactly on every continuous split's threshold
            on_split = []
            for cond, row in zip(split_conditions(tree.root), row_dicts(rows)):
                if not schema.attribute(cond.attribute).is_discrete:
                    on_split.append({**row, cond.attribute: cond.threshold})
            if on_split:
                n_split_values += len(on_split)
                assert_routes_like_reference(tree, dataset_from_rows(schema, on_split))
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
        assert_routes_like_reference(tree, d)

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
        assert_routes_like_reference(tree, d)
        # a view whose rows are not in storage order and cross chunk ends
        view = d.subset(np.random.default_rng(4).permutation(d.n)[:data._ROW_CHUNK + 3])
        assert_routes_like_reference(tree, view)


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


# Per-row references: scoring from the leaf `route_reference` gives, one row
# dict at a time, and the evaluation report counted row by row from those
# labels.

def dist_per_row(tree, row):
    return route_reference(tree, row).class_dist


def labels_per_row(tree, d):
    return np.array([dist_per_row(tree, row).argmax() for row in row_dicts(d)], dtype=object)


def scores_per_row(tree, d, positive_label):
    return np.array([dist_per_row(tree, row).prob(positive_label) for row in row_dicts(d)],
                    dtype=float)


def postprocessed_per_row(model, d):
    return np.array([model.positive_label
                     if dist_per_row(model.tree, row).prob(model.positive_label)
                     >= model.thresholds[row[model.protected]] else model.negative_label
                     for row in row_dicts(d)], dtype=object)


def report_per_row(pred, d, protected, positive_label):
    rows = list(row_dicts(d))
    truth = [row[d.schema.class_attr.name] for row in rows]
    acc = float(sum(p == t for p, t in zip(pred, truth))) / len(rows)
    if protected is None:
        return EvalReport(acc=acc, dp=None, eop=None, confusion={}, n_test=len(rows))
    cells = {g: {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
             for g in d.schema.attribute(protected).domain}
    for p, t, row in zip(pred, truth, rows):
        key = {(True, True): "tp", (False, True): "fp",
               (True, False): "fn", (False, False): "tn"}[t == positive_label, p == positive_label]
        cells[row[protected]][key] += 1
    missing = next((g for g, c in cells.items() if sum(c.values()) == 0), None)
    if missing is not None:
        note = f"group {missing!r} of {protected!r} has no rows"
        return EvalReport(acc=acc, dp=None, eop=None, confusion={}, n_test=len(rows),
                          notes=(note, note))
    rates = [float(c["tp"] + c["fp"]) / sum(c.values()) for c in cells.values()]
    eop, notes = None, ()
    no_positives = next((g for g, c in cells.items() if c["tp"] + c["fn"] == 0), None)
    if no_positives is None:
        tprs = [float(c["tp"]) / (c["tp"] + c["fn"]) for c in cells.values()]
        eop = abs(tprs[0] - tprs[1])
    else:
        notes = (f"group {no_positives!r} has no positive ground-truth rows",)
    return EvalReport(acc=acc, dp=abs(rates[0] - rates[1]), eop=eop, confusion=cells,
                      n_test=len(rows), notes=notes)


def preds_csv_per_row(tree, d) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"predicted_{tree.schema.class_attr.name}"]
                    + [f"p_{y}" for y in tree.schema.class_values])
    for row in row_dicts(d):
        dist = dist_per_row(tree, row)
        writer.writerow([dist.argmax()] + [repr(p) for p in dist.probs])
    return buf.getvalue().encode("utf-8")


def tree_document(tree) -> str:
    """The tree's document without leaf paths, which hand-built leaves lack."""
    doc = json.loads(tree_to_json(tree))
    stack = [doc["root"]]
    while stack:
        node = stack.pop()
        node.pop("path", None)
        if not node["leaf"]:
            stack += [node["left"], node["right"]]
    return json.dumps(doc)


@pytest.fixture(scope="module")
def scoring_cases():
    """(tree, rows, protected attribute or None): grown trees on random mixed
    schemas and the hand-built tree, each over 0 rows, 1 row and more rows
    than one chunk; and a dataset with no positive rows in one group."""
    rng = np.random.default_rng(11)
    sizes = (0, 1, data._ROW_CHUNK + 17)
    cases = []
    for i in range(4):
        schema = random_mixed_schema(rng)
        ks = (KnowledgeStore.empty(schema) if i % 2 else
              build_from_target_sample(random_dataset(rng, schema, 150), KnowledgeRegime.full()))
        tree = grow(random_dataset(rng, schema, 200), ks, TreeConfig())
        assert len(tree.leaves()) > 1
        protected = next((a.name for a in schema.predictive
                          if a.is_discrete and len(a.domain) == 2), None)
        cases += [(tree, random_dataset(rng, schema, n), protected) for n in sizes]
    tree = hand_tree()
    cases += [(tree, hand_rows(n, rng), "G") for n in sizes]
    d = hand_rows(300, rng)
    cases.append((tree, d.subset(~((d.column("G") == "a") & (d.column("Y") == "1"))), "G"))
    grown = {p for _, _, p in cases[:12]}
    assert None in grown and len(grown) > 1  # grown trees with and without groups
    return cases


class TestScoringEqualsPerRowPredict:
    def test_labels_and_positive_scores(self, scoring_cases):
        for tree, d, _ in scoring_cases:
            for view in (d, d.without_labels()):
                labels = predict_dataset(tree, view)
                assert labels.dtype == object and labels.shape == (view.n,)
                assert all(type(y) is str for y in labels.tolist())
                assert labels.tolist() == labels_per_row(tree, view).tolist()
                for y in tree.schema.class_values:
                    scores = positive_scores(tree, view, y)
                    assert scores.dtype == np.float64 and scores.shape == (view.n,)
                    assert scores.tobytes() == scores_per_row(tree, view, y).tobytes()

    def test_evaluate_model_report(self, scoring_cases):
        rng = np.random.default_rng(12)
        n_postprocessed = 0
        for tree, d, protected in scoring_cases:
            negative, positive = tree.schema.class_values
            models = [(tree, labels_per_row(tree, d))]
            if protected is not None:
                grid = sorted({lf.class_dist.prob(positive) for lf in tree.leaves()} | {0.0, 1.0})
                for _ in range(3):
                    model = PostprocessedModel(
                        tree, protected, positive, negative,
                        {g: float(rng.choice(grid))
                         for g in tree.schema.attribute(protected).domain})
                    models.append((model, postprocessed_per_row(model, d)))
            for model, labels in models:
                if d.n == 0:
                    with pytest.raises(EmptyDataset):
                        evaluate_model(model, d, protected)
                    continue
                got = evaluate_model(model, d, protected)
                expect = report_per_row(labels, d, protected, positive)
                assert json.dumps(asdict(got)) == json.dumps(asdict(expect))
                with pytest.raises(UnlabeledData):
                    evaluate_model(model, d.without_labels(), protected)
                n_postprocessed += isinstance(model, PostprocessedModel)
        assert n_postprocessed > 0

    def test_dadt_predict_and_evaluate(self, scoring_cases, tmp_path, capsys):
        for k, (tree, d, protected) in enumerate(scoring_cases):
            tree_path = tmp_path / f"tree{k}.json"
            tree_path.write_text(tree_document(tree), encoding="utf-8")
            loaded = tree_from_json(tree_path)
            for view in (d, d.without_labels()):
                data_path = tmp_path / f"rows{k}-{view.labeled}.csv"
                data_path.write_text(serialize_dataset(view), encoding="utf-8")
                rows = load_dataset(data_path, loaded.schema)
                preds = tmp_path / "preds.csv"
                assert main(["predict", "--tree", str(tree_path), "--data", str(data_path),
                             "--out", str(preds)]) == 0
                assert preds.read_bytes() == preds_csv_per_row(loaded, rows)
                report = tmp_path / f"report{k}.json"
                capsys.readouterr()
                code = main(["evaluate", "--tree", str(tree_path), "--data", str(data_path),
                             "--out", str(report)]
                            + (["--protected", protected] if protected else []))
                if view.labeled and d.n:
                    assert code == 0
                    expect = report_per_row(labels_per_row(loaded, rows), rows, protected,
                                            loaded.schema.class_values[-1])
                    doc = {**asdict(expect), "w_tree": tree_shift_distance(loaded, rows)}
                    assert report.read_bytes() == json.dumps(doc, indent=2).encode("utf-8")
                else:
                    assert code == 1
                    message = ("cannot evaluate on an empty dataset" if d.n == 0
                               else "dataset has no class labels")
                    assert capsys.readouterr().err == f"error: {message}\n"
