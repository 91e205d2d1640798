"""Accuracy, fairness gaps, post-processing, relative gains, shift diagnostics."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dadt import cli
from dadt.data import (
    EMPTY_PATH,
    EQ,
    Attribute,
    Schema,
    SplitCondition,
    dataset_from_rows,
    serialize_dataset,
)
from dadt.errors import DomainError, EmptyDataset, GroupMissing, NoPositives, UnlabeledData
from dadt.knowledge import KnowledgeRegime, KnowledgeStore, build_from_target_sample
from dadt.metrics import (
    accuracy,
    attribute_shift_report,
    demographic_parity,
    equal_opportunity,
    evaluate_model,
    positive_scores,
    postprocess_thresholds,
    relative_gain_acc,
    relative_gain_fairness,
    tree_shift_distance,
)
from dadt.stats import Distribution, wasserstein
from dadt.tree import DecisionTree, Internal, Leaf, TreeConfig, grow, tree_to_json

from conftest import (
    binary_schema,
    random_dataset,
    random_mixed_schema,
    route_reference,
    row_dicts,
    rows_dataset,
)


class ConstantModel:
    def __init__(self, label):
        self.label = label

    def predict_dataset(self, d):
        return np.array([self.label] * d.n, dtype=object)


class EchoModel:
    def predict_dataset(self, d):
        return d.class_column().copy()


def two_leaf_tree(schema, p_left_pos, p_right_pos, protected="X1"):
    """Split on the protected attribute; leaves carry the given positive scores."""
    left = Leaf(Distribution(("0", "1"), (1 - p_left_pos, p_left_pos)), 10, EMPTY_PATH)
    right = Leaf(Distribution(("0", "1"), (1 - p_right_pos, p_right_pos)), 10, EMPTY_PATH)
    root = Internal(SplitCondition(protected, EQ, "0"), left, right, 0.1)
    return DecisionTree(root=root, config=TreeConfig(), schema=schema,
                        x_w=None, diagnostics={})


def labeled_rows(spec):
    """spec: list of (x1, x2, y) strings."""
    return rows_dataset(binary_schema(), [
        {"X1": a, "X2": b, "Y": y} for a, b, y in spec
    ])


class TestAccuracy:
    def test_echo_is_perfect(self):
        d = labeled_rows([("0", "0", "0"), ("1", "0", "1")] * 3)
        assert accuracy(EchoModel(), d) == 1.0

    def test_constant_majority_rate(self):
        d = labeled_rows([("0", "0", "1")] * 6 + [("0", "0", "0")] * 4)
        assert accuracy(ConstantModel("1"), d) == pytest.approx(0.6)


class TestFairnessGaps:
    def test_dp_hand_rates(self):
        # group X1=0: 6 rows, predict positive iff X2=1 -> rates by construction
        d = labeled_rows([("0", "1", "1")] * 3 + [("0", "0", "0")] * 2
                         + [("0", "1", "1")] * 1 + [("1", "1", "1")] * 2
                         + [("1", "0", "0")] * 2)

        class X2Model:
            def predict_dataset(self, data):
                return np.where(data.column("X2") == "1",
                                np.array("1", dtype=object), np.array("0", dtype=object))

        # group 0: 4/6 positive; group 1: 2/4 positive -> |2/3 - 1/2| = 1/6
        assert demographic_parity(X2Model(), d, "X1", "1") == pytest.approx(1 / 6)

    def test_dp_symmetric_zero(self):
        d = labeled_rows([("0", "0", "1"), ("1", "0", "1")] * 4)
        assert demographic_parity(ConstantModel("1"), d, "X1", "1") == 0.0

    def test_eop_hand_confusion(self):
        # group 0: (TP,FN)=(3,1); group 1: (TP,FN)=(1,1) -> |0.75-0.5|=0.25
        spec = ([("0", "1", "1")] * 3 + [("0", "0", "1")] * 1
                + [("1", "1", "1")] * 1 + [("1", "0", "1")] * 1
                + [("0", "0", "0"), ("1", "0", "0")])
        d = labeled_rows(spec)

        class X2Model:
            def predict_dataset(self, data):
                return np.where(data.column("X2") == "1",
                                np.array("1", dtype=object), np.array("0", dtype=object))

        assert equal_opportunity(X2Model(), d, "X1", "1") == pytest.approx(0.25)

    def test_perfect_classifier_zero_eop(self):
        d = labeled_rows([("0", "0", "1"), ("1", "0", "1"), ("0", "0", "0"), ("1", "0", "0")])
        assert equal_opportunity(EchoModel(), d, "X1", "1") == 0.0

    def test_group_missing(self):
        d = labeled_rows([("0", "0", "1")] * 4)
        with pytest.raises(GroupMissing):
            demographic_parity(ConstantModel("1"), d, "X1", "1")

    def test_continuous_protected_attribute(self, tmp_path, capsys):
        schema = Schema(predictive=(Attribute("C1", "continuous"),
                                    Attribute("D1", "discrete", ("a", "b"))),
                        class_attr=Attribute("Y", "discrete", ("no", "yes")))
        d = random_dataset(np.random.default_rng(0), schema, 60)
        tree = grow(d, KnowledgeStore.empty(schema), TreeConfig())
        with pytest.raises(DomainError, match="discrete"):
            evaluate_model(tree, d, "C1")
        with pytest.raises(DomainError, match="discrete"):
            postprocess_thresholds(tree, d, "C1", "dp")
        (tmp_path / "tree.json").write_text(tree_to_json(tree))
        (tmp_path / "data.csv").write_text(serialize_dataset(d))
        assert cli.main(["evaluate", "--tree", str(tmp_path / "tree.json"),
                         "--data", str(tmp_path / "data.csv"), "--protected", "C1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_no_positives(self):
        d = labeled_rows([("0", "0", "1"), ("1", "0", "0")])
        with pytest.raises(NoPositives):
            equal_opportunity(ConstantModel("1"), d, "X1", "1")

    def test_evaluate_model_collects_notes(self):
        d = labeled_rows([("0", "0", "1"), ("1", "0", "0")])
        report = evaluate_model(ConstantModel("1"), d, "X1")
        assert report.acc == 0.5
        assert report.dp == 0.0
        assert report.eop is None
        assert any("positive" in n for n in report.notes)

    def test_confusion_counts_sum(self):
        d = labeled_rows([("0", "1", "1"), ("0", "0", "0"), ("1", "1", "0"), ("1", "0", "1")])
        report = evaluate_model(EchoModel(), d, "X1")
        total = sum(sum(c.values()) for c in report.confusion.values())
        assert total == report.n_test

    def test_evaluate_model_predicts_once(self):
        class CountingModel(EchoModel):
            calls = 0

            def predict_dataset(self, d):
                self.calls += 1
                return super().predict_dataset(d)

        d = labeled_rows([("0", "1", "1"), ("0", "0", "0"), ("1", "1", "0"), ("1", "0", "1")])
        model = CountingModel()
        report = evaluate_model(model, d, "X1")
        assert model.calls == 1 and report.dp is not None and report.eop is not None
        model = CountingModel()
        with pytest.raises(EmptyDataset):
            evaluate_model(model, d.subset(np.zeros(d.n, dtype=bool)), "X1")
        assert model.calls == 0
        with pytest.raises(UnlabeledData):
            evaluate_model(model, d.without_labels(), "X1")


class TestPostprocess:
    def holdout(self):
        # group 0 rows score 0.8, group 1 rows score 0.3 under the tree below
        spec = ([("0", "0", "1")] * 6 + [("0", "0", "0")] * 2
                + [("1", "0", "1")] * 2 + [("1", "0", "0")] * 6)
        return labeled_rows(spec)

    def test_hand_grid(self):
        schema = binary_schema()
        tree = two_leaf_tree(schema, 0.8, 0.3)
        d = self.holdout()
        model = postprocess_thresholds(tree, d, "X1", "dp")
        # brute force over the 4x4 grid {0, 0.3, 0.8, 1} per group
        grid = [0.0, 0.3, 0.8, 1.0]
        best = None
        truth = d.class_column()
        groups = d.column("X1")
        scores = positive_scores(tree, d, "1")
        for ta, tb in itertools.product(grid, repeat=2):
            taus = {"0": ta, "1": tb}
            pred = np.array([s >= taus[g] for s, g in zip(scores, groups)])
            rates = [pred[groups == g].mean() for g in ("0", "1")]
            disparity = abs(rates[0] - rates[1])
            acc = np.mean(np.where(pred, truth == "1", truth != "1"))
            key = (disparity, -acc, ta, tb)
            if best is None or key < best:
                best = key
        got_pred = model.predict_dataset(d) == "1"
        got_rates = [got_pred[groups == g].mean() for g in ("0", "1")]
        assert abs(got_rates[0] - got_rates[1]) == pytest.approx(best[0], abs=1e-12)
        assert (model.thresholds["0"], model.thresholds["1"]) == (best[2], best[3])

    def test_never_increases_disparity(self):
        schema = binary_schema()
        rng = np.random.default_rng(3)
        for _ in range(20):
            tree = two_leaf_tree(schema, float(rng.random()), float(rng.random()))
            spec = [(str(rng.integers(2)), "0", str(rng.integers(2))) for _ in range(40)]
            spec += [("0", "0", "1"), ("1", "0", "1")]  # both groups present
            d = labeled_rows(spec)
            raw = demographic_parity(tree, d, "X1", "1")
            model = postprocess_thresholds(tree, d, "X1", "dp")
            assert demographic_parity(model, d, "X1", "1") <= raw + 1e-12

    def test_constant_score_degenerate(self):
        schema = binary_schema()
        tree = two_leaf_tree(schema, 0.7, 0.7)
        d = self.holdout()
        model = postprocess_thresholds(tree, d, "X1", "dp")
        assert demographic_parity(model, d, "X1", "1") == 0.0

    def test_eop_objective(self):
        schema = binary_schema()
        tree = two_leaf_tree(schema, 0.8, 0.3)
        d = self.holdout()
        model = postprocess_thresholds(tree, d, "X1", "eop")
        assert equal_opportunity(model, d, "X1", "1") <= \
            equal_opportunity(tree, d, "X1", "1") + 1e-12


def exhaustive_thresholds(tree, holdout, protected, objective, positive_label="1"):
    """The threshold search as a mask over every holdout row for every pair."""
    groups = list(tree.schema.attribute(protected).domain)
    col = holdout.column(protected)
    masks = {g: col == g for g in groups}
    scores = positive_scores(tree, holdout, positive_label)
    if objective == "eop" and not holdout.labeled:
        raise UnlabeledData("equal-opportunity post-processing needs labels")
    truth = holdout.class_column() if holdout.labeled else None
    grid = sorted({float(leaf.class_dist.prob(positive_label))
                   for leaf in tree.leaves()} | {0.0, 1.0})
    best_key = best_taus = None
    for taus in itertools.product(grid, repeat=2):
        assignment = dict(zip(groups, taus))
        pred_pos = np.empty(holdout.n, dtype=bool)
        for g, mask in masks.items():
            pred_pos[mask] = scores[mask] >= assignment[g]
        if objective == "dp":
            rates = [float(np.count_nonzero(pred_pos[m])) / int(np.count_nonzero(m))
                     for m in masks.values()]
        else:
            rates = []
            for g, mask in masks.items():
                pos = mask & (truth == positive_label)
                n_pos = int(np.count_nonzero(pos))
                if n_pos == 0:
                    raise NoPositives(f"group {g!r} has no positive ground-truth rows")
                rates.append(float(np.count_nonzero(pred_pos[pos])) / n_pos)
        disparity = abs(rates[0] - rates[1])
        acc = 0.0
        if holdout.labeled:
            correct = np.where(pred_pos, truth == positive_label, truth != positive_label)
            acc = float(np.count_nonzero(correct)) / holdout.n
        key = (disparity, -acc, taus[0], taus[1])
        if best_key is None or key < best_key:
            best_key, best_taus = key, assignment
    return best_taus


def four_leaf_tree(schema, p_pos):
    """X2 = 0, 1, 2 each get a leaf; X2 = 3 splits again on the protected X1."""
    leaves = [Leaf(Distribution(("0", "1"), (1 - p, p)), 10, EMPTY_PATH) for p in p_pos]
    node = Internal(SplitCondition("X1", EQ, "a"), leaves[3], leaves[4], 0.1)
    for v in ("2", "1", "0"):
        node = Internal(SplitCondition("X2", EQ, v), leaves[int(v)], node, 0.1)
    return DecisionTree(root=node, config=TreeConfig(), schema=schema,
                        x_w=None, diagnostics={})


class TestPostprocessOracle:
    schema = Schema(predictive=(Attribute("X1", "discrete", ("a", "b")),
                                Attribute("X2", "discrete", ("0", "1", "2", "3"))),
                    class_attr=Attribute("Y", "discrete", ("0", "1")),
                    protected_attr="X1")

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(p_pos=st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0, 0.3]),
                          min_size=5, max_size=5),
           share_a=st.sampled_from([0.5, 0.1, 0.9]),
           rows=st.lists(st.tuples(st.floats(0, 1), st.sampled_from("0123"),
                                   st.sampled_from("01")), min_size=2, max_size=60),
           objective=st.sampled_from(["dp", "eop"]),
           labeled=st.booleans())
    # ties on (disparity, accuracy) that the thresholds decide: tau_a in
    # {0.2, 0.5, 0.8, 1.0} with tau_b = 1.0 (the smallest tau_a wins), and
    # tau_a = 1.0 with tau_b in {0.3, 1.0} (the smallest tau_b wins)
    @example(p_pos=[0.5, 0.8, 0.8, 0.0, 0.2], share_a=0.1,
             rows=[(0.95, "0", "1"), (0.95, "2", "0")], objective="dp", labeled=True)
    @example(p_pos=[0.2, 0.2, 0.0, 0.3, 0.0], share_a=0.1,
             rows=[(0.0, "3", "0"), (0.0, "0", "0")], objective="dp", labeled=True)
    def test_counting_equals_masking(self, p_pos, share_a, rows, objective, labeled):
        spec = [{"X1": "a" if u < share_a else "b", "X2": x2, "Y": y} for u, x2, y in rows]
        spec += [{"X1": "a", "X2": "3", "Y": "0"}, {"X1": "b", "X2": "0", "Y": "0"}]
        holdout = dataset_from_rows(self.schema, spec, labeled=labeled)
        tree = four_leaf_tree(self.schema, p_pos)

        def outcome(search):
            try:
                return search()
            except (NoPositives, UnlabeledData) as exc:
                return type(exc), str(exc)

        got = outcome(lambda: postprocess_thresholds(tree, holdout, "X1", objective).thresholds)
        assert got == outcome(lambda: exhaustive_thresholds(tree, holdout, "X1", objective))


class TestRelativeGains:
    def test_full_recovery(self):
        assert relative_gain_acc(0.9, 0.6, 0.9).value == 100.0

    def test_no_recovery(self):
        assert relative_gain_acc(0.9, 0.6, 0.6).value == 0.0

    def test_clamped(self):
        g = relative_gain_acc(0.5000001, 0.5, 1.0)
        assert g.value == 100.0 and not g.degenerate

    def test_degenerate(self):
        g = relative_gain_acc(0.7, 0.7, 0.9)
        assert g.value == 0.0 and g.degenerate

    def test_fairness_orientation(self):
        assert relative_gain_fairness(0.1, 0.3, 0.1).value == 100.0
        assert relative_gain_fairness(0.1, 0.3, 0.3).value == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            relative_gain_acc(1.2, 0.5, 0.5)

    @settings(max_examples=300)
    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_fuzz_no_division_blowups(self, a, b, c):
        for fn in (relative_gain_acc, relative_gain_fairness):
            g = fn(a, b, c)
            assert -100.0 <= g.value <= 100.0
            if abs(a - b) < 1e-9:
                assert g.degenerate and g.value == 0.0


class TestShiftDiagnostics:
    def test_single_leaf(self):
        schema = binary_schema()
        leaf = Leaf(Distribution(("0", "1"), (0.5, 0.5)), 10, EMPTY_PATH)
        tree = DecisionTree(root=leaf, config=TreeConfig(), schema=schema,
                            x_w=None, diagnostics={})
        d = labeled_rows([("0", "0", "1")] * 10)  # target all positive
        assert tree_shift_distance(tree, d) == pytest.approx(0.5)

    def test_matching_leaves_zero(self):
        schema = binary_schema()
        tree = two_leaf_tree(schema, 1.0, 0.0)
        d = labeled_rows([("0", "0", "1")] * 6 + [("1", "0", "0")] * 4)
        assert tree_shift_distance(tree, d) == 0.0

    def test_two_leaf_hand_sum(self):
        schema = binary_schema()
        tree = two_leaf_tree(schema, 0.9, 0.2)
        d = labeled_rows([("0", "0", "1")] * 6 + [("1", "0", "1")] * 4)
        # leaf X1=0: |0.9-1.0| * 0.6; leaf X1=1: |0.2-1.0| * 0.4
        assert tree_shift_distance(tree, d) == pytest.approx(0.1 * 0.6 + 0.8 * 0.4)

    def test_equals_per_row_accumulator_bit_for_bit(self):
        def per_row_reference(tree, d):
            support = tree.schema.class_values
            truth = d.class_column()
            counts, leaves = {}, {}
            for i, row in enumerate(row_dicts(d)):
                leaf = route_reference(tree, row)
                if id(leaf) not in counts:
                    counts[id(leaf)] = np.zeros(len(support))
                    leaves[id(leaf)] = leaf
                counts[id(leaf)][support.index(truth[i])] += 1
            total = 0.0
            for key, c in counts.items():
                m = c.sum()
                total += wasserstein(leaves[key].class_dist,
                                     Distribution(support, tuple(c / m))) * (m / d.n)
            return float(total)

        rng = np.random.default_rng(17)
        for _ in range(8):
            schema = random_mixed_schema(rng)
            source = random_dataset(rng, schema, 300)
            target = random_dataset(rng, schema, int(rng.integers(1, 400)))
            tree = grow(source, build_from_target_sample(target, KnowledgeRegime.full()),
                        TreeConfig())
            assert len(tree.leaves()) > 1
            assert tree_shift_distance(tree, target) == per_row_reference(tree, target)

    def test_attribute_report_no_shift(self):
        d = labeled_rows([("0", "1", "1"), ("1", "0", "0")] * 5)
        ks = build_from_target_sample(d, KnowledgeRegime.full())
        rows = attribute_shift_report(d, d, ks)
        for r in rows:
            assert r["w_marginal"] == pytest.approx(0.0, abs=1e-12)
            assert r["w_conditional"] == pytest.approx(0.0, abs=1e-12)

    def test_attribute_report_bernoulli_gap(self):
        src = labeled_rows([("0", "0", "0")] * 7 + [("1", "0", "0")] * 3)
        tgt = labeled_rows([("0", "0", "0")] * 5 + [("1", "0", "0")] * 5)
        rows = attribute_shift_report(src, tgt, None)
        by_name = {r["attribute"]: r for r in rows}
        assert by_name["X1"]["w_marginal"] == pytest.approx(0.2)
        assert by_name["X2"]["w_marginal"] == pytest.approx(0.0)
