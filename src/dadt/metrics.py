"""Evaluation: accuracy, group fairness, relative recovery, shift diagnostics.

Fairness metrics are absolute gaps between two protected groups. Relative
gains express how much of the performance lost when moving from a
train-on-target model to a source-only model is recovered by the adapted
model, as a percentage clamped to [-100, 100].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Attribute, Dataset
from .errors import (
    DomainError,
    EmptyDataset,
    GroupMissing,
    NoPositives,
    UnlabeledData,
)
from .stats import Distribution, class_distribution, wasserstein, wasserstein_empirical
from .tree import (
    DecisionTree,
    pivot_score,
    positive_scores,
    predict_dataset,
    route_dataset,
)

DP = "dp"
EOP = "eop"

_EPS = 1e-9


def default_positive_label(schema) -> str:
    return schema.class_values[-1]


@dataclass(frozen=True)
class EvalReport:
    """Its fields, in order, are the report `dadt evaluate` writes and each
    results.json regime's report."""
    acc: float
    dp: float | None
    eop: float | None
    confusion: dict
    n_test: int
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class GainValue:
    value: float
    degenerate: bool


@dataclass(frozen=True)
class RelativeGains:
    r_acc: GainValue
    r_dp: GainValue | None
    r_eop: GainValue | None
    components: dict = field(default_factory=dict)


def _predicted_labels(model, d: Dataset) -> np.ndarray:
    if isinstance(model, DecisionTree):
        return predict_dataset(model, d)
    return model.predict_dataset(d)


def accuracy(model, test: Dataset) -> float:
    if test.n == 0:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    truth = test.class_column()
    pred = _predicted_labels(model, test)
    return float(np.count_nonzero(pred == truth)) / test.n


def _group_masks(test: Dataset, protected: str) -> dict[str, np.ndarray]:
    attr = test.schema.attribute(protected)
    if not attr.is_discrete:
        raise DomainError(f"protected attribute {protected!r} must be discrete")
    codes = test.codes(protected)
    masks = {}
    for j, g in enumerate(attr.domain):
        mask = codes == j
        if not mask.any():
            raise GroupMissing(f"group {g!r} of {protected!r} has no rows")
        masks[g] = mask
    if len(masks) != 2:
        raise DomainError(f"protected attribute {protected!r} must be binary")
    return masks


def demographic_parity(model, test: Dataset, protected: str, positive_label: str) -> float:
    """Absolute gap in predicted positive rates between the two groups."""
    if test.n == 0:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    return _dp_gap(_predicted_labels(model, test), _group_masks(test, protected), positive_label)


def _dp_gap(pred: np.ndarray, masks: dict, positive_label: str) -> float:
    rates = [float(np.count_nonzero(pred[mask] == positive_label)) / int(np.count_nonzero(mask))
             for mask in masks.values()]
    return abs(rates[0] - rates[1])


def equal_opportunity(model, test: Dataset, protected: str, positive_label: str) -> float:
    """Absolute gap in true positive rates between the two groups."""
    if test.n == 0:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    return _eop_gap(test.class_column(), _predicted_labels(model, test),
                    _group_masks(test, protected), positive_label)


def _eop_gap(truth: np.ndarray, pred: np.ndarray, masks: dict, positive_label: str) -> float:
    tprs = []
    for g, mask in masks.items():
        pos = mask & (truth == positive_label)
        n_pos = int(np.count_nonzero(pos))
        if n_pos == 0:
            raise NoPositives(f"group {g!r} has no positive ground-truth rows")
        tprs.append(float(np.count_nonzero(pred[pos] == positive_label)) / n_pos)
    return abs(tprs[0] - tprs[1])


def _confusion(truth: np.ndarray, pred: np.ndarray, masks: dict, positive_label: str) -> dict:
    out = {}
    for g, mask in masks.items():
        t = truth[mask] == positive_label
        p = pred[mask] == positive_label
        out[g] = {
            "tp": int(np.count_nonzero(t & p)),
            "fp": int(np.count_nonzero(~t & p)),
            "fn": int(np.count_nonzero(t & ~p)),
            "tn": int(np.count_nonzero(~t & ~p)),
        }
    return out


def evaluate_model(model, test: Dataset, protected: str | None,
                   positive_label: str | None = None) -> EvalReport:
    """Accuracy plus fairness gaps from one prediction; unavailable gaps become notes."""
    if positive_label is None:
        positive_label = default_positive_label(test.schema)
    if test.n == 0:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    truth = test.class_column()
    pred = _predicted_labels(model, test)
    dp = eop = None
    confusion: dict = {}
    notes: list[str] = []
    if protected is not None:
        try:
            masks = _group_masks(test, protected)
        except GroupMissing as exc:  # noted once for dp and once for eop
            notes += [str(exc), str(exc)]
        else:
            dp = _dp_gap(pred, masks, positive_label)
            confusion = _confusion(truth, pred, masks, positive_label)
            try:
                eop = _eop_gap(truth, pred, masks, positive_label)
            except NoPositives as exc:
                notes.append(str(exc))
    return EvalReport(acc=float(np.count_nonzero(pred == truth)) / test.n, dp=dp, eop=eop,
                      confusion=confusion, n_test=test.n, notes=tuple(notes))


@dataclass(frozen=True)
class PostprocessedModel:
    """Per-group decision thresholds applied to a tree's leaf scores."""

    tree: DecisionTree
    protected: str
    positive_label: str
    negative_label: str
    thresholds: dict

    def predict_dataset(self, d: Dataset) -> np.ndarray:
        """A row is positive when its leaf's positive probability is at least
        its group's threshold; leaf ids and group codes index both."""
        domain = self.tree.schema.attribute(self.protected).domain
        taus = np.array([self.thresholds[g] for g in domain], dtype=float)
        scores = positive_scores(self.tree, d, self.positive_label)
        positive = scores >= taus[d.codes(self.protected)]
        return np.where(positive,
                        np.array(self.positive_label, dtype=object),
                        np.array(self.negative_label, dtype=object))


def postprocess_thresholds(tree: DecisionTree, holdout: Dataset, protected: str,
                           objective: str, positive_label: str | None = None
                           ) -> PostprocessedModel:
    """Exhaustive per-group threshold search on the finite leaf-score grid.

    Among pairs minimizing the objective disparity on the holdout, picks the
    most accurate, then the lexicographically smallest (tau_a, tau_b). The
    grid contains 0 and 1, so the unthresholded behavior is always reachable.
    """
    if objective not in (DP, EOP):
        raise DomainError(f"objective must be {DP!r} or {EOP!r}")
    if positive_label is None:
        positive_label = default_positive_label(tree.schema)
    class_values = tree.schema.class_values
    if len(class_values) != 2:
        raise DomainError("threshold post-processing needs a binary class")
    negative_label = next(y for y in class_values if y != positive_label)

    masks = _group_masks(holdout, protected)
    groups = [g for g in tree.schema.attribute(protected).domain]
    scores = positive_scores(tree, holdout, positive_label)
    labeled = holdout.labeled
    if objective == EOP and not labeled:
        raise UnlabeledData("equal-opportunity post-processing needs labels")
    truth = holdout.class_column() if labeled else None

    grid = sorted({float(leaf.class_dist.prob(positive_label))
                   for leaf in tree.leaves()} | {0.0, 1.0})

    # per group and grid value: the group's rate (positive rate for dp, true
    # positive rate for eop) and its correctly predicted rows, both from
    # counts of the rows scoring at or above that threshold
    rates: dict[str, list[float]] = {}
    correct: dict[str, list[int]] = {}
    for g, mask in masks.items():
        group_scores = scores[mask]
        n_g = len(group_scores)
        if labeled:
            pos = truth[mask] == positive_label
            n_pos = int(np.count_nonzero(pos))
            pos_above = _at_or_above(group_scores[pos], grid)
            neg_above = _at_or_above(group_scores[~pos], grid)
            correct[g] = [p + (n_g - n_pos) - q for p, q in zip(pos_above, neg_above)]
        if objective == DP:
            rates[g] = [float(c) / n_g for c in _at_or_above(group_scores, grid)]
        else:
            if n_pos == 0:
                raise NoPositives(f"group {g!r} has no positive ground-truth rows")
            rates[g] = [float(c) / n_pos for c in pos_above]

    # every (tau_a, tau_b) pair at once, group a's grid index on axis 0;
    # the winner sorts first on (disparity, -accuracy, tau_a, tau_b)
    a, b = groups
    disparity = np.abs(np.subtract.outer(rates[a], rates[b]))
    acc = np.zeros_like(disparity)
    if labeled:
        acc = np.add.outer(correct[a], correct[b]) / holdout.n
    tau_a, tau_b = np.meshgrid(grid, grid, indexing="ij")
    first = np.lexsort((tau_b.ravel(), tau_a.ravel(), -acc.ravel(), disparity.ravel()))[0]
    i, j = divmod(int(first), len(grid))
    return PostprocessedModel(tree=tree, protected=protected,
                              positive_label=positive_label,
                              negative_label=negative_label,
                              thresholds={a: grid[i], b: grid[j]})


def _at_or_above(values: np.ndarray, grid: list[float]) -> list[int]:
    """For each grid value, how many of `values` are at or above it."""
    ordered = np.sort(values)
    return (len(ordered) - np.searchsorted(ordered, grid, side="left")).tolist()


def _relative_gain(numerator: float, denominator: float) -> GainValue:
    if denominator < _EPS:
        return GainValue(0.0, True)
    value = numerator / denominator * 100.0
    return GainValue(max(-100.0, min(100.0, value)), False)


def relative_gain_acc(acc_tt: float, acc_ntdk: float, acc_adapted: float) -> GainValue:
    """Share of the tt-vs-ntdk accuracy loss recovered by the adapted model."""
    for name, v in (("acc_tt", acc_tt), ("acc_ntdk", acc_ntdk), ("acc_adapted", acc_adapted)):
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"{name}={v} outside [0, 1]")
    return _relative_gain(acc_adapted - min(acc_ntdk, acc_tt), abs(acc_tt - acc_ntdk))


def relative_gain_fairness(m_tt: float, m_ntdk: float, m_adapted: float) -> GainValue:
    """Like relative_gain_acc, oriented for metrics where smaller is better."""
    for name, v in (("m_tt", m_tt), ("m_ntdk", m_ntdk), ("m_adapted", m_adapted)):
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"{name}={v} outside [0, 1]")
    return _relative_gain(max(m_ntdk, m_tt) - m_adapted, abs(m_tt - m_ntdk))


def tree_shift_distance(tree: DecisionTree, target_test: Dataset) -> float:
    """Leaf-averaged distance between stored and target class distributions.

    Each leaf contributes the Wasserstein distance between its stored class
    distribution and the target frequency distribution of the rows routed to
    it, weighted by the leaf's target mass. Empty leaves contribute zero.
    """
    if not target_test.labeled:
        raise UnlabeledData("shift distance needs labeled target data")
    if target_test.n == 0:
        raise EmptyDataset("cannot compute shift distance on an empty dataset")
    support = tree.schema.class_values
    leaves = tree.leaves()
    ids = route_dataset(tree, target_test)
    k = len(support)
    counts = np.bincount(ids * k + target_test.class_codes(),
                         minlength=len(leaves) * k).reshape(len(leaves), k).astype(np.float64)
    # the sum below adds the reached leaves in the order rows first reach them
    reached = np.flatnonzero(counts.sum(axis=1)).tolist()
    total = 0.0
    n = target_test.n
    for j in sorted(reached, key=lambda j: int(np.argmax(ids == j))):
        c = counts[j]
        m = c.sum()
        tgt = Distribution(support, tuple(c / m))
        total += wasserstein(leaves[j].class_dist, tgt) * (m / n)
    return float(total)


def _marginal(d: Dataset, attr: Attribute) -> Distribution:
    counts = np.bincount(d.codes(attr.name), minlength=len(attr.domain)).tolist()
    return Distribution(attr.domain, tuple(c / d.n for c in counts))


def attribute_shift_report(source: Dataset, target: Dataset, ks) -> list[dict]:
    """Per-attribute marginal shift and class-conditional disagreement.

    The marginal column is W(P_S(X), P_T(X)); the conditional column is the
    target-weighted average distance between source and target class
    conditionals (None when the knowledge store cannot supply them).
    """
    if source.n == 0 or target.n == 0:
        raise EmptyDataset("shift report needs non-empty source and target")
    schema = source.schema
    source_marginal = None
    if source.labeled:
        source_marginal = class_distribution(source)
    rows = []
    for attr in schema.predictive:
        if attr.is_discrete:
            w_marginal = wasserstein(_marginal(source, attr), _marginal(target, attr))
        else:
            w_marginal = wasserstein_empirical(source.column(attr.name),
                                               target.column(attr.name))
        w_conditional = None
        if source_marginal is not None and ks is not None:
            w_conditional = pivot_score(source, ks, attr, source_marginal)
        rows.append({"attribute": attr.name, "w_marginal": w_marginal,
                     "w_conditional": w_conditional})
    return rows
