"""Decision-tree induction with optional target-domain probability embedding.

The induction loop is a standard top-down information-gain tree. What makes it
domain-adaptive is where the probabilities feeding the gain formula come from:
split probabilities P(X=t|path) and class distributions P(Y|path) are affine
mixtures of source frequency counts and target-domain knowledge. With an empty
knowledge store every estimate collapses to plain source counting.

Sample-backed estimates are carried as exact fractions, so the collapse to the
source-only tree is bit-for-bit, not merely approximate.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .data import (
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
    read_json,
    schema_from_json,
)
from .errors import (
    ConfigError,
    EmptyDataset,
    InsufficientKnowledge,
    InternalError,
    ParseError,
    UnlabeledData,
    ValueOutOfDomain,
)
from .knowledge import (
    KnowledgeStore,
    affine_estimate,
    dynamic_alpha,
    maximal_subpath,
    query_target,
    subpaths,
)
from .stats import (
    Distribution,
    class_distribution,
    class_fractions,
    freq_fraction,
    information_gain,
    wasserstein,
)

_MIN_GAIN = 1e-12
_MASS_TOL = 1e-9
_N_BINS = 10
_QUANTILES = np.linspace(0.1, 0.9, _N_BINS - 1).tolist()
_DIAGNOSTIC_KEYS = ("n_alphas", "truncations", "forced_source")
_COMPARE = {LEQ: operator.le, EQ: operator.eq, GT: operator.gt, NEQ: operator.ne}


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 8
    min_node_fraction: float = 0.05
    purity_stop: float = 1.0
    alpha_override: float | None = None
    x_w_override: str | None = None
    route_unseen_right: bool = False

    def __post_init__(self):
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if not 0.0 < self.min_node_fraction < 1.0:
            raise ConfigError("min_node_fraction must be in (0, 1)")
        if not 0.5 < self.purity_stop <= 1.0:
            raise ConfigError("purity_stop must be in (0.5, 1]")
        if self.alpha_override is not None and not 0.0 <= self.alpha_override <= 1.0:
            raise ConfigError("alpha_override must be in [0, 1]")


@dataclass
class Leaf:
    class_dist: Distribution
    n_source_rows: int
    path: Path


@dataclass
class Internal:
    condition: SplitCondition
    left: "Leaf | Internal"
    right: "Leaf | Internal"
    ig_achieved: float


@dataclass
class DecisionTree:
    root: Leaf | Internal
    config: TreeConfig
    schema: Schema
    x_w: str | None
    diagnostics: dict

    @functools.cached_property
    def _router(self):
        """The tree as nested tuples for `route`: a split is (attribute name,
        comparison, threshold, frozenset domain or None if continuous, left,
        right) and a leaf is the `Leaf` itself. Built on first use; trees
        are not changed after construction."""
        def compile_node(node):
            if isinstance(node, Leaf):
                return node
            cond = node.condition
            attr = self.schema.attribute(cond.attribute)
            domain = frozenset(attr.domain) if attr.is_discrete else None
            return (cond.attribute, _COMPARE[cond.op], cond.threshold, domain,
                    compile_node(node.left), compile_node(node.right))
        return compile_node(self.root)

    def leaves(self) -> list[Leaf]:
        out: list[Leaf] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                out.append(node)
            else:
                stack.extend([node.right, node.left])
        return out


def _split_prob(node_rows: Dataset, cond: SplitCondition, path: Path,
                ks: KnowledgeStore, config: TreeConfig, diagnostics: dict):
    """P(cond | path): source frequency affinely mixed with target knowledge.

    Mixing weight alpha is 1 (source only) when the store cannot answer even
    the marginal, 0 when it answers the full path, and the missing-attribute
    fraction in between; an explicit override replaces the dynamic rule.
    """
    source_p = freq_fraction(node_rows, cond)
    if ks.is_empty:
        return source_p
    sub = maximal_subpath(ks, cond, path)
    if sub is None:
        diagnostics["forced_source"] = diagnostics.get("forced_source", 0) + 1
        return source_p
    target_p = query_target(ks, cond, sub)
    if config.alpha_override is not None:
        alpha = config.alpha_override
    else:
        alpha = dynamic_alpha(path, sub)
    if len(sub) != len(path):
        diagnostics["truncations"] = diagnostics.get("truncations", 0) + 1
    diagnostics["n_alphas"] = diagnostics.get("n_alphas", 0) + 1
    return affine_estimate(source_p, target_p, alpha)


def _continuous_bin_edges(values: np.ndarray) -> list[float]:
    """Strictly increasing deciles of values.

    The arithmetic is np.quantile's default (linear) method, operation for
    operation, on one sort of the values; np.quantile itself costs several
    times more per call, and every split candidate's children call this.
    """
    s = np.sort(values)
    top = len(s) - 1
    pos = [top * q for q in _QUANTILES]
    lo = [math.floor(p) for p in pos]
    bounds = s[lo + [min(i + 1, top) for i in lo]].tolist()
    edges: list[float] = []
    for p, i, below, above in zip(pos, lo, bounds, bounds[len(lo):]):
        gamma = p - i
        diff = above - below
        f = above - diff * (1 - gamma) if gamma >= 0.5 else below + diff * gamma
        if not edges or f > edges[-1]:
            edges.append(f)
    return edges


class _Node:
    """Counts of one node that every class estimate at the node or at a
    child of one of its split candidates is taken from.

    Source rows are the node's class codes and pivot values; with a
    sample-backed store, target rows are the retained sample on the node
    path. A child's rows are a selection of these, so estimating a child needs
    no dataset subset and no target filter.
    """

    def __init__(self, rows: Dataset, path: Path, x_w: str | None, ks: KnowledgeStore,
                 config: TreeConfig, diagnostics: dict):
        if rows.n == 0:
            raise EmptyDataset("cannot estimate a class distribution on an empty node")
        self.ks = ks
        self.config = config
        self.diagnostics = diagnostics
        self.support = rows.schema.class_values
        self.y = rows.class_codes()
        self.pivot = None if ks.is_empty or x_w is None else rows.schema.attribute(x_w)
        self.target = None
        if self.pivot is None:
            return
        self.piv = _pivot_values(rows, self.pivot)
        # bin edges pool the node's pivot values with the whole target sample's
        self.pool = None
        if ks.sample is not None:
            self.target = ks.sample_rows(path)
            self.tpiv = _pivot_values(self.target, self.pivot)
            self.pool = ks.sample.column(x_w)

    def estimate(self, sel, path: Path, tsel) -> Distribution:
        """Class distribution of the node rows `sel` at `path`, whose target
        rows are the node's target rows `tsel`."""
        y = self.y[sel]
        n = len(y)
        k = len(self.support)
        class_counts = np.bincount(y, minlength=k).tolist()
        if self.pivot is None:
            return Distribution(self.support, tuple(c / n for c in class_counts))
        piv = self.piv[sel]
        name = self.pivot.name
        if self.pivot.is_discrete:
            edges = None
            cells = piv
            n_cells = n_queries = len(self.pivot.domain)
            first = SplitCondition(name, EQ, self.pivot.domain[0])
        else:
            pool = piv if self.pool is None else self.pool
            edges = _continuous_bin_edges(np.concatenate([piv, pool]))
            cells = np.array(edges).searchsorted(piv)
            n_cells = len(edges) + 1
            n_queries = len(edges)
            first = SplitCondition(name, LEQ, edges[0])
        counts = np.bincount(cells * k + y, minlength=n_cells * k).reshape(n_cells, k).tolist()
        src = [sum(row) for row in counts]

        # The answerable subpath depends on the pivot attribute and the path,
        # not on the cell, so one lookup serves every P(X_w cell | path).
        ks = self.ks
        tv = None
        if ks.sample is None:
            sub = maximal_subpath(ks, first, path)
        else:
            full = self.tpiv[tsel]
            sub = None
            for cand in subpaths(ks, first, path):
                tv = full if len(cand) == len(path) else _pivot_values(ks.sample_rows(cand),
                                                                        self.pivot)
                if len(tv):
                    sub = cand
                    break
        diag = self.diagnostics
        if sub is None:
            diag["forced_source"] = diag.get("forced_source", 0) + n_queries
            return _mixed_counts(self.support, counts, src, class_counts, src, n)
        if len(sub) != len(path):
            diag["truncations"] = diag.get("truncations", 0) + n_queries
        diag["n_alphas"] = diag.get("n_alphas", 0) + n_queries
        alpha = self.config.alpha_override
        if alpha is None:
            alpha = dynamic_alpha(path, sub)

        if tv is not None:
            m = len(tv)
            if edges is None:
                tcum = np.cumsum(np.bincount(tv, minlength=n_cells)).tolist()
            else:
                tcum = np.searchsorted(np.sort(tv), edges, side="right").tolist() + [m]
            tgt = [t - prev for t, prev in zip(tcum, [0] + tcum[:-1])]
            if isinstance(alpha, Rational):
                # Every mixed cell weight shares the denominator b*n*m.
                a, b = alpha.numerator, alpha.denominator
                weights = [a * m * s + (b - a) * n * t for s, t in zip(src, tgt)]
                return _mixed_counts(self.support, counts, src, class_counts, weights, b * n * m)
            target_ps = [Fraction(t, m) for t in (tgt if edges is None else tcum[:-1])]
        elif edges is None:
            target_ps = [query_target(ks, SplitCondition(name, EQ, v), sub)
                         for v in self.pivot.domain]
        else:
            target_ps = [query_target(ks, SplitCondition(name, LEQ, e), sub) for e in edges]

        # Cross-tables, CDFs and a float alpha give float weights; they keep
        # the arithmetic, and its order, of one query per cell.
        if edges is None:
            weights = [affine_estimate(Fraction(s, n), tp, alpha)
                       for s, tp in zip(src, target_ps)]
        else:
            weights = []
            prev = Fraction(0)
            c = 0
            for s, tp in zip(src, target_ps):
                c += s
                cum = affine_estimate(Fraction(c, n), tp, alpha)
                weights.append(max(cum - prev, 0))
                prev = cum
            weights.append(max(1 - prev, 0))
        return _mixed_weights(self.support, counts, src, class_counts, weights)


def _pivot_values(rows: Dataset, pivot: Attribute) -> np.ndarray:
    return rows.codes(pivot.name) if pivot.is_discrete else rows.column(pivot.name)


def _mixed_counts(support: tuple, counts: list, src: list, class_counts: list,
                  weights: list, den: int) -> Distribution:
    """sum over cells of weight/den * P(Y | cell), in integers until one division.

    A cell with no source rows takes the node's class distribution; its
    weight is then a multiple of the node's row count n = sum(class_counts).
    The weights sum to den, so the mixture has mass exactly 1 and each
    probability is one correctly rounded int/int division, equal to that of
    the exact fraction.
    """
    n = sum(class_counts)
    lcm = math.lcm(*(s for s in src if s))
    num = [0] * len(support)
    for row, s, w in zip(counts, src, weights):
        if s:
            f, cell = w * (lcm // s), row
        else:
            f, cell = w // n * lcm, class_counts
        num = [x + f * c for x, c in zip(num, cell)]
    den *= lcm
    return Distribution(support, tuple(x / den for x in num))


def _mixed_weights(support: tuple, counts: list, src: list, class_counts: list,
                   weights: list) -> Distribution:
    """sum over cells of weight * P(Y | cell) for float (or mixed) weights,
    renormalized; a cell with no source rows takes the node's distribution."""
    n = sum(class_counts)
    node_fracs = [Fraction(c, n) for c in class_counts]
    acc: list = [Fraction(0)] * len(support)
    for row, s, w in zip(counts, src, weights):
        fracs = [Fraction(c, s) for c in row] if s else node_fracs
        acc = [a + w * f for a, f in zip(acc, fracs)]
    total = sum(acc)
    if abs(total - 1) > _MASS_TOL:
        raise InternalError(f"class mixture mass {float(total)} drifted beyond tolerance")
    probs = []
    for v in acc:
        v = v / total if total != 0 else v
        if isinstance(v, Fraction):
            probs.append(v.numerator / v.denominator)
        else:
            probs.append(min(max(float(v), 0.0), 1.0))
    return Distribution(support, tuple(probs))


def estimate_class_dist(node_rows: Dataset, path: Path, x_w: str | None,
                        ks: KnowledgeStore, config: TreeConfig,
                        diagnostics: dict | None = None) -> Distribution:
    """Class distribution at a path, reconstructed through the pivot attribute.

    With no knowledge (or no pivot) this is the plain source frequency
    distribution. Otherwise each pivot value x contributes its source class
    conditional weighted by the knowledge-backed estimate of P(X_w=x | path);
    pivot cells with no source rows fall back to the node's own distribution.
    """
    node = _Node(node_rows, path, x_w, ks, config, {} if diagnostics is None else diagnostics)
    return node.estimate(slice(None), path, slice(None))


def best_split(node_rows: Dataset, path: Path, ks: KnowledgeStore,
               x_w: str | None, config: TreeConfig, n_train: int,
               diagnostics: dict) -> tuple[SplitCondition, float] | None:
    """Maximum-gain candidate, or None when no admissible split improves.

    First strict maximum wins, so ties resolve to schema attribute order and
    then ascending threshold — induction is deterministic without randomness.
    Each attribute's column is read once: a continuous one is sorted once, and
    every threshold's left rows are a prefix of that order (on the target
    side too).
    """
    min_rows = config.min_node_fraction * n_train
    n = node_rows.n
    node = _Node(node_rows, path, x_w, ks, config, diagnostics)
    parent = node.estimate(slice(None), path, slice(None))
    target = node.target
    best: tuple[SplitCondition, float] | None = None
    for attr in node_rows.schema.predictive:
        if attr.is_discrete:
            codes = node_rows.codes(attr.name)
            tcodes = None if target is None else target.codes(attr.name)
            n_lefts = np.bincount(codes, minlength=len(attr.domain)).tolist()
            splits = []
            for j, (v, n_left) in enumerate(zip(attr.domain, n_lefts)):
                left = codes == j
                tleft = None if tcodes is None else tcodes == j
                splits.append((SplitCondition(attr.name, EQ, v), n_left,
                               left, ~left, tleft, None if tleft is None else ~tleft))
        else:
            col = node_rows.column(attr.name)
            vals = np.unique(col)
            mids = (vals[:-1] + vals[1:]) / 2.0
            order = np.argsort(col, kind="stable")
            n_lefts = np.searchsorted(col[order], mids, side="right").tolist()
            if target is None:
                t_lefts = [0] * len(n_lefts)
            else:
                tcol = target.column(attr.name)
                torder = np.argsort(tcol, kind="stable")
                t_lefts = np.searchsorted(tcol[torder], mids, side="right").tolist()
            splits = ((SplitCondition(attr.name, LEQ, t), k, order[:k], order[k:],
                       None if target is None else torder[:kt],
                       None if target is None else torder[kt:])
                      for t, k, kt in zip(mids.tolist(), n_lefts, t_lefts))
        for cond, n_left, left_rows, right_rows, t_left, t_right in splits:
            n_right = n - n_left
            if n_left < min_rows or n_right < min_rows or n_left == 0 or n_right == 0:
                continue
            p_left = _split_prob(node_rows, cond, path, ks, config, diagnostics)
            left = node.estimate(left_rows, path.extend(cond), t_left)
            right = node.estimate(right_rows, path.extend(cond.negate()), t_right)
            ig = information_gain(parent, p_left, left, right)
            if best is None or ig > best[1]:
                best = (cond, ig)
    if best is None or best[1] <= _MIN_GAIN:
        return None
    return best


def select_pivot(source: Dataset, ks: KnowledgeStore) -> str:
    """Attribute whose source/target class conditionals disagree least.

    Scores each predictive attribute by the average Wasserstein distance
    between source and target class conditionals, weighted by the target
    marginal; ties resolve to schema declaration order.
    """
    source_marginal = class_distribution(source)
    best_name: str | None = None
    best_score = float("inf")
    for attr in source.schema.predictive:
        score = pivot_score(source, ks, attr, source_marginal)
        if score is None:
            continue
        if score < best_score:
            best_score = score
            best_name = attr.name
    if best_name is None:
        raise InsufficientKnowledge(
            "pivot selection needs target class conditionals or an explicit override")
    return best_name


def pivot_score(source: Dataset, ks: KnowledgeStore, attr: Attribute,
                source_marginal: Distribution) -> float | None:
    """Target-marginal-weighted Wasserstein distance between the source and
    target class conditionals of one attribute; None when the store cannot
    supply the target conditionals.
    """
    support = source.schema.class_values
    col = source.column(attr.name)

    if attr.is_discrete:
        info = (ks.class_conditionals or {}).get(attr.name)
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


def grow(train_source: Dataset, ks: KnowledgeStore, config: TreeConfig) -> DecisionTree:
    """Top-down induction; stops on purity, depth, node size, or zero gain."""
    if not train_source.labeled:
        raise UnlabeledData("training data must be labeled")
    if train_source.n == 0:
        raise EmptyDataset("training data is empty")
    schema = train_source.schema
    if config.x_w_override is not None:
        schema.attribute(config.x_w_override)
        x_w = config.x_w_override
    elif ks.is_empty:
        x_w = None
    else:
        x_w = select_pivot(train_source, ks)
    diagnostics = {key: 0 for key in _DIAGNOSTIC_KEYS}
    n_train = train_source.n

    def make_leaf(rows: Dataset, path: Path) -> Leaf:
        dist = estimate_class_dist(rows, path, x_w, ks, config, diagnostics)
        return Leaf(class_dist=dist, n_source_rows=rows.n, path=path)

    def build(rows: Dataset, path: Path, depth: int):
        fracs = class_fractions(rows)
        if max(fracs.values()) >= config.purity_stop:
            return make_leaf(rows, path)
        if depth >= config.max_depth:
            return make_leaf(rows, path)
        found = best_split(rows, path, ks, x_w, config, n_train, diagnostics)
        if found is None:
            return make_leaf(rows, path)
        cond, ig = found
        mask = cond.matches(rows.column(cond.attribute))
        left = build(rows.subset(mask), path.extend(cond), depth + 1)
        right = build(rows.subset(~mask), path.extend(cond.negate()), depth + 1)
        return Internal(condition=cond, left=left, right=right, ig_achieved=ig)

    root = build(train_source, EMPTY_PATH, 0)
    return DecisionTree(root=root, config=config, schema=schema,
                        x_w=x_w, diagnostics=diagnostics)


def route(tree: DecisionTree, row: dict) -> Leaf:
    """The leaf a record reaches, comparing as each split's op says (as
    `SplitCondition.matches` does); undeclared discrete values raise unless
    the tree routes them right."""
    node = tree._router
    while type(node) is tuple:
        name, compare, threshold, domain, left, right = node
        value = row[name]
        if domain is None:
            value = float(value)
        else:
            value = str(value)
            if value not in domain:
                if tree.config.route_unseen_right:
                    node = right
                    continue
                raise ValueOutOfDomain(f"value {value!r} of {name!r} was never declared")
        node = left if compare(value, threshold) else right
    return node


def predict(tree: DecisionTree, row: dict) -> tuple[str, Distribution]:
    """Route a record to its leaf; returns (majority class, class distribution)."""
    dist = route(tree, row).class_dist
    return dist.argmax(), dist


def predict_dataset(tree: DecisionTree, d: Dataset) -> np.ndarray:
    """Predicted labels for every row, as an object array."""
    return np.array([predict(tree, row)[0] for row in d.iter_rows()], dtype=object)


def positive_scores(tree: DecisionTree, d: Dataset, positive_label: str) -> np.ndarray:
    """Leaf probability of the positive class for every row."""
    return np.array([predict(tree, row)[1].prob(positive_label)
                     for row in d.iter_rows()], dtype=float)


def _node_to_dict(node) -> dict:
    if isinstance(node, Leaf):
        return {
            "leaf": True,
            "dist": {y: p for y, p in zip(node.class_dist.support, node.class_dist.probs)},
            "n_source_rows": node.n_source_rows,
            "path": [[c.attribute, c.op, c.threshold] for c in node.path.conditions],
        }
    return {
        "leaf": False,
        "condition": {"attr": node.condition.attribute, "op": node.condition.op,
                      "threshold": node.condition.threshold},
        "ig": node.ig_achieved,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(d: dict, schema: Schema):
    if d["leaf"]:
        support = schema.class_values
        dist = Distribution(support, tuple(float(d["dist"][y]) for y in support))
        path = Path(tuple(SplitCondition(a, op, t) for a, op, t in d.get("path", [])))
        return Leaf(class_dist=dist, n_source_rows=int(d["n_source_rows"]), path=path)
    c = d["condition"]
    attr = schema.attribute(c["attr"])
    threshold = c["threshold"] if attr.is_discrete else float(c["threshold"])
    ops = (EQ, NEQ) if attr.is_discrete else (LEQ, GT)
    if c["op"] not in ops or (attr.is_discrete and threshold not in attr.domain):
        raise ParseError(f"split {c!r} does not fit attribute {attr.name!r}")
    cond = SplitCondition(attr.name, c["op"], threshold)
    return Internal(condition=cond,
                    left=_node_from_dict(d["left"], schema),
                    right=_node_from_dict(d["right"], schema),
                    ig_achieved=float(d["ig"]))


def tree_to_json(tree: DecisionTree) -> str:
    cfg = tree.config
    doc = {
        "schema": tree.schema.to_json_dict(),
        "config": {
            "max_depth": cfg.max_depth,
            "min_node_fraction": cfg.min_node_fraction,
            "purity_stop": cfg.purity_stop,
            "alpha_override": cfg.alpha_override,
            "x_w_override": cfg.x_w_override,
            "route_unseen_right": cfg.route_unseen_right,
        },
        "x_w": tree.x_w,
        "diagnostics": {key: tree.diagnostics.get(key, 0) for key in _DIAGNOSTIC_KEYS},
        "root": _node_to_dict(tree.root),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def tree_from_json(source) -> DecisionTree:
    """Parse a tree document, read by `read_json`; config fields that older
    versions wrote and this one no longer takes are ignored."""
    doc = read_json(source)
    try:
        if not isinstance(doc["schema"], dict):
            raise ParseError("the tree document's schema must be an inline object")
        schema = schema_from_json(doc["schema"])
        c = doc["config"]
        config = TreeConfig(
            max_depth=c["max_depth"], min_node_fraction=c["min_node_fraction"],
            purity_stop=c["purity_stop"],
            alpha_override=c["alpha_override"], x_w_override=c["x_w_override"],
            route_unseen_right=c["route_unseen_right"])
        root = _node_from_dict(doc["root"], schema)
        return DecisionTree(root=root, config=config, schema=schema,
                            x_w=doc.get("x_w"), diagnostics=dict(doc.get("diagnostics", {})))
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"malformed tree document: {exc!r}") from exc
