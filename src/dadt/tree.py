"""Decision-tree induction with optional target-domain probability embedding.

The induction loop is a standard top-down information-gain tree. What makes it
domain-adaptive is where the probabilities feeding the gain formula come from:
split probabilities P(X=t|path) and class distributions P(Y|path) are affine
mixtures of source frequency counts and target-domain knowledge. With an empty
knowledge store every estimate collapses to plain source counting.

Sample-backed estimates are carried as exact fractions, a fixed float alpha
at its exact value, so the collapse to the source-only tree (alpha 1, or
knowledge of the source itself) is bit-for-bit, not merely approximate.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Callable, NamedTuple

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
    dataset_from_rows,
    read_json,
    schema_from_json,
    stored_mask,
)
from .errors import (
    ConfigError,
    EmptyDataset,
    InsufficientKnowledge,
    InternalError,
    ParseError,
    UnlabeledData,
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
    entropy,
    freq_fraction,
    information_gain,
    wasserstein,
)

_MIN_GAIN = 1e-12
_MASS_TOL = 1e-9
_N_BINS = 10
_DECILES = np.linspace(0.1, 0.9, _N_BINS - 1)
# most cells in one block of split-candidate count tables
_TABLE_CELLS = 1 << 16
# δ, the screen's tolerance: a candidate whose float gain lies within 2δ of
# the node's best float gain gets its exact gain. With u = 2^-53, each class
# probability of a child's float mixture carries at most about C + 10
# roundings (C pivot cells), a relative error of (C + 10)u; entropy turns a
# relative error e of q into at most e(q |log2 q| + q / ln 2), which sums over
# k classes to e(log2 k + 1.45), and p_left adds a few u. Float and exact
# gains so differ by at most about 2(C + 10)(log2 k + 2)u, below 1e-11 for C
# and k up to 1,000: δ = 1e-9 is 100 times that bound, and 10^6 times the
# largest difference seen on the benchmark's training workloads (4.4e-16).
_SCREEN_TOL = 1e-9
_DIAGNOSTIC_KEYS = ("n_alphas", "truncations", "forced_source")


@dataclass(frozen=True)
class TreeConfig:
    """Growing settings; its fields are a tree document's config."""
    max_depth: int = 8
    min_node_fraction: float = 0.05
    purity_stop: float = 1.0
    alpha_override: float | None = None
    x_w_override: str | None = None

    def __post_init__(self):
        if type(self.max_depth) is not int or self.max_depth < 1:
            raise ConfigError("max_depth must be an integer >= 1")
        if any(isinstance(v, bool) for v in (self.min_node_fraction, self.purity_stop,
                                             self.alpha_override)):
            raise ConfigError("min_node_fraction, purity_stop and alpha_override take no bool")
        if not 0.0 < self.min_node_fraction < 1.0:
            raise ConfigError("min_node_fraction must be in (0, 1)")
        if not 0.5 < self.purity_stop <= 1.0:
            raise ConfigError("purity_stop must be in (0.5, 1]")
        if self.alpha_override is not None and not 0.0 <= self.alpha_override <= 1.0:
            raise ConfigError("alpha_override must be in [0, 1]")
        if self.x_w_override is not None and not isinstance(self.x_w_override, str):
            raise ConfigError("x_w_override must be an attribute name or null")


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


def _continuous_bin_edges(values: np.ndarray) -> list[float]:
    """Strictly increasing deciles of values: `_decile_edges` of one row,
    the values sorted and each counted once."""
    edges, kept = _decile_edges(np.sort(values), np.arange(1, len(values) + 1)[None])
    return edges[0][kept[0]].tolist()


class _Node:
    """Counts of one node that every class estimate at the node or at a
    child of one of its split candidates is taken from.

    Source rows are the node's class codes and pivot values. With a
    sample-backed store, entry j of `targets` holds the sample's rows on the
    path's first j distinct attributes, the last the node's own (`target`).
    A child's source rows are a selection of the node's, and its target rows
    an entry of `targets` masked by its condition (`targets_on`).
    """

    def __init__(self, rows: Dataset, path: Path, x_w: str | None, ks: KnowledgeStore,
                 config: TreeConfig, diagnostics: dict, targets: list | None = None):
        if rows.n == 0:
            raise EmptyDataset("cannot estimate a class distribution on an empty node")
        self.ks = ks
        self.config = config
        self.diagnostics = diagnostics
        self.path = path
        self.support = rows.schema.class_values
        self.y = rows.class_codes()
        self.pivot = None if ks.is_empty or x_w is None else rows.schema.attribute(x_w)
        self.targets = self.target = self.pool = None
        if ks.sample is not None:
            if targets is None:  # the sample, handed down the path
                targets = [ks.sample]
                for i, cond in enumerate(path.conditions):
                    targets = _child_targets(targets, Path(path.conditions[:i]), cond)
            self.targets, self.target = targets, targets[-1]
        if self.pivot is None:
            return
        self.piv = rows.codes(x_w)
        if self.target is not None:
            self.tpiv = self.target.codes(x_w)
            # bin edges pool the node's pivot values with the whole target sample's
            self.pool = ks.sample.codes(x_w)

    def alpha(self, path: Path, sub: Path):
        """The source weight at `path`, the node path or a child's, answered
        on its subpath `sub`: the fixed alpha if set, else the dynamic one."""
        alpha = self.config.alpha_override
        return dynamic_alpha(path, sub) if alpha is None else alpha

    def count(self, key: str, k: int = 1) -> None:
        self.diagnostics[key] = self.diagnostics.get(key, 0) + k

    def count_answer(self, sub: Path | None, path: Path, n: int) -> None:
        """The diagnostics of n queries at `path` answered on its subpath
        `sub`: from the source alone when sub is None, else mixed, and
        truncated when sub is not the whole path."""
        if sub is None:
            self.count("forced_source", n)
            return
        if len(sub) != len(path):
            self.count("truncations", n)
        self.count("n_alphas", n)

    def targets_on(self, sub: Path, path: Path) -> Dataset:
        """The target rows on `sub`, one of the `subpaths` of `path`: the node
        path, or a child's, the node path and one more condition. A child's
        subpath that keeps that condition is the node subpath below it
        masked by it."""
        cond = path.conditions[-1] if len(path) > len(self.path) else None
        if cond not in sub.conditions:
            return self.targets[len(sub.attributes())]
        rows = self.targets[len(Path(sub.conditions[:-1]).attributes())]
        return rows.subset(rows.mask(cond))

    def estimate(self, sel, path: Path) -> Distribution:
        """Class distribution of the node rows `sel` at `path`, the node path
        or a child's. A target sample's pivot cell counts mix exactly
        (`_mix`), under any alpha."""
        y = self.y[sel]
        n = len(y)
        k = len(self.support)
        class_counts = np.bincount(y, minlength=k).tolist()
        if self.pivot is None:
            return _frequencies(self.support, class_counts)
        piv = self.piv[sel]
        name = self.pivot.name
        if self.pivot.is_discrete:
            edges = None
            n_queries = len(self.pivot.domain)
            first = SplitCondition(name, EQ, self.pivot.domain[0])
        else:
            pool = piv if self.pool is None else self.pool
            edges = _continuous_bin_edges(np.concatenate([piv, pool]))
            n_queries = len(edges)
            first = SplitCondition(name, LEQ, edges[0])
        counts = _cell_class_counts(self.pivot, piv, edges, y, k)
        src = [sum(row) for row in counts]

        # The answerable subpath depends on the pivot attribute and the path,
        # not on the cell, so one lookup serves every P(X_w cell | path).
        ks = self.ks
        tv = None
        if ks.sample is None:
            sub = maximal_subpath(ks, first, path)
        else:
            sub = None
            for cand in subpaths(ks, first, path):
                tv = self.targets_on(cand, path).codes(self.pivot.name)
                if len(tv):
                    sub = cand
                    break
        self.count_answer(sub, path, n_queries)
        if sub is None:
            return _mix(self.support, counts, src, 1)
        alpha = self.alpha(path, sub)
        if tv is not None:
            cells = tv if edges is None else np.array(edges).searchsorted(tv)
            return _mix(self.support, counts, np.bincount(cells, minlength=len(counts)).tolist(),
                        alpha)
        if edges is None:
            target_ps = [query_target(ks, SplitCondition(name, EQ, v), sub)
                         for v in self.pivot.domain]
        else:
            target_ps = [query_target(ks, SplitCondition(name, LEQ, e), sub) for e in edges]

        # Cross-tables and CDFs give float answers; they keep the arithmetic,
        # and its order, of one query per cell.
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


def _child_targets(targets: list, path: Path, cond: SplitCondition) -> list:
    """The `_Node.targets` of the child on cond of a node at `path`: the
    entries before cond's attribute pass on, those from it on are masked by
    cond, and a new attribute appends the last entry, masked."""
    order = path.attributes() + (cond.attribute,)
    j = order.index(cond.attribute) + 1
    if j == len(order):  # a new attribute
        targets = targets + targets[-1:]
    return targets[:j] + [rows.subset(rows.mask(cond)) for rows in targets[j:]]


def _cell_class_counts(attr: Attribute, values: np.ndarray, edges: list | None,
                       y: np.ndarray, k: int) -> list:
    """Integer (cell × class) counts of rows by their `Dataset.codes` of
    attr and their class codes y. A discrete attribute's cells are its
    domain codes; a continuous one's are the (lo, e] bins between
    consecutive edges, open below the first edge and above the last."""
    if edges is None:
        cells, n_cells = values, len(attr.domain)
    else:
        cells, n_cells = np.array(edges).searchsorted(values), len(edges) + 1
    return np.bincount(cells * k + y, minlength=n_cells * k).reshape(n_cells, k).tolist()


def _mix(support: tuple, counts: list, tgt: list, alpha) -> Distribution:
    """sum over cells of P(cell) * P(Y | cell), in integers until one division.

    `counts` holds each pivot cell's class counts over n source rows and
    `tgt` each cell's count over m target rows; P(cell) = alpha * s/n +
    (1 - alpha) * t/m, a float alpha at its exact value. A cell with no
    source rows takes the rows' class distribution; its weight is then a
    multiple of n. The cell weights share one denominator, so the mixture has
    mass exactly 1 and each probability is one correctly rounded int/int
    division, equal to that of the exact fraction.
    """
    src = [sum(row) for row in counts]
    n = sum(src)
    m = sum(tgt)
    a, b = alpha.as_integer_ratio()
    lcm = math.lcm(*(s for s in src if s))
    num = [0] * len(support)
    for row, s, t in zip(counts, src, tgt):
        w = a * m * s + (b - a) * n * t
        if not w:
            continue
        if s:
            f, cell = w * (lcm // s), row
        else:
            f, cell = w // n * lcm, [sum(col) for col in zip(*counts)]
        num = [x + f * c for x, c in zip(num, cell)]
    den = b * n * m * lcm
    return Distribution(support, tuple(x / den for x in num))


def _mixed_weights(support: tuple, counts: list, src: list, class_counts: list,
                   weights: list) -> Distribution:
    """sum over cells of weight * P(Y | cell) for float weights (a clamped
    weight is the int 0), renormalized; a cell with no source rows takes the
    node's distribution."""
    n = sum(class_counts)
    node_fracs = [c / n for c in class_counts]
    acc = [0.0] * len(support)
    for row, s, w in zip(counts, src, weights):
        fracs = [c / s for c in row] if s else node_fracs
        acc = [a + w * f for a, f in zip(acc, fracs)]
    total = sum(acc)
    if abs(total - 1) > _MASS_TOL:
        raise InternalError(f"class mixture mass {total} drifted beyond tolerance")
    return Distribution(support, tuple(min(max(v / total, 0.0), 1.0) for v in acc))


@dataclass
class _Candidates:
    """One attribute's split candidates at a node.

    A row's key (`key`) is `first` plus the position of its value in the
    attribute's domain or, for a continuous attribute, of the first of the
    midpoints `mids` (None for a discrete attribute) it lies at or below;
    keys run over range(n_keys). Candidate i's left rows are those whose
    key is first + i or, for a continuous attribute, at most i; `n_lefts`
    counts the node's and `tcounts` its target rows', whose keys are `keys`
    and `tkeys`. `tkeys` and `tcounts` are None without a target sample.
    """

    attr: Attribute
    op: str
    thresholds: list
    first: int
    n_keys: int
    mids: np.ndarray | None = None
    keys: np.ndarray | None = None
    tkeys: np.ndarray | None = None
    n_lefts: list | None = None
    tcounts: list | None = None

    def key(self, values: np.ndarray) -> np.ndarray:
        """The keys of rows whose `Dataset.codes` of the attribute are
        `values`."""
        if self.mids is None:
            return values + self.first
        return self.mids.searchsorted(values)

    def lefts(self, keys: np.ndarray) -> list:
        """For a continuous attribute, how many of `keys` lie at or below
        each key: each candidate's left rows."""
        return _prefix(np.bincount(keys, minlength=self.n_keys))[1:].tolist()

    def mask(self, i: int) -> np.ndarray:
        """Candidate i's left node rows, as a boolean mask."""
        compare = operator.le if self.op == LEQ else operator.eq
        return compare(self.keys, self.first + i)


@dataclass
class _Cells:
    """Children's counts by pivot cell: (child × cell × class) source
    counts, (child × cell) target counts and (child × cell + 1) cell bounds
    on the value axis. The cell below a bound that is not `kept` is empty;
    `n_queries` is each child's number of pivot queries."""

    counts: np.ndarray
    tcounts: np.ndarray
    bounds: np.ndarray
    kept: np.ndarray
    n_queries: np.ndarray

    def __getitem__(self, i: int) -> tuple[list, list, list]:
        """Child i's (cell × class) counts, target cell counts and cell
        bounds over its kept cells, as lists."""
        kept = self.kept[i]
        return (self.counts[i][kept[1:]].tolist(), self.tcounts[i][kept[1:]].tolist(),
                self.bounds[i][kept].tolist())


class _Screened(NamedTuple):
    """A split candidate whose exact gain is computed: candidate i of the
    attribute at `position` in the schema, the knowledge answering its
    p_left, its float gain (NaN when the node is not tabled, and its
    candidates are not screened) and, per child, its exact distribution to
    compute, or None on a node that is not tabled."""

    position: int
    i: int
    gain: float
    cands: _Candidates
    knowledge: tuple | None
    left: Callable[[], Distribution] | None
    right: Callable[[], Distribution] | None


@dataclass
class _Fallbacks:
    """The `subpaths` below a child's full path, longest first, that its
    pivot queries (`query`) fall back to when its own target rows do not
    answer them, shared by the children whose paths have them: those of
    the candidates on one attribute of the node path (`cands`), or of every
    candidate off it (`cands` None). `child` is one such child's path. A
    subpath of an attribute on the path may keep the child's own condition;
    it is then the node subpath below it re-split by that condition."""

    ks: KnowledgeStore
    query: SplitCondition
    child: Path
    cands: _Candidates | None

    @functools.cached_property
    def subs(self) -> list:
        """The subpaths, walked when a child first falls back."""
        return [sub for sub in subpaths(self.ks, self.query, self.child)
                if len(sub) < len(self.child)]


def _child_bounds(n: int, min_rows: float) -> tuple[float, float]:
    """The fewest and the most rows the left child of an admissible split of
    n rows holds: each child holds at least one row and min_rows of them.
    When the most is below the fewest, no split of the node is admissible."""
    least = max(min_rows, 1)
    return least, n - least


class _Splits:
    """What the split candidates of one node share.

    A node's rows are counted into (candidate × value × class) tables, and
    its target rows into (candidate × value) tables, over each key range:
    one for all discrete attributes, and one per continuous attribute,
    whose left rows are summed along its midpoints. The value axis is the
    pivot's domain or, for a continuous pivot, the distinct values of the
    node rows and the target sample, which every child's deciles pool;
    along it, a continuous pivot's tables are prefix sums. The left
    children of all attributes are stacked, then their right children, the
    node minus the left (histogram subtraction). The subpath and alpha of
    p_left are resolved once for all attributes off the node path and once
    per attribute on it (`split_knowledge`), and so are the children's
    pivot queries (`answer`), whose fallbacks are counted only where a
    child uses them (`resolve`); a child that falls back to a subpath
    keeping its own condition counts that subpath's target rows in a table
    of its own (`resplit`). `search` screens all candidates' gains in
    float64 in one pass (`screen`), a batch (`batches`) at a time, and
    keeps those the exact gain must decide.
    """

    def __init__(self, node: _Node, rows: Dataset, min_rows: float):
        self.node = node
        self.least, self.most = _child_bounds(len(node.y), min_rows)
        self.order = node.path.attributes()
        self.sample = node.ks.sample is not None
        pivot = node.pivot
        # The tables answer a candidate, its p_left and its children, when the
        # store is empty or holds a target sample: they count every answer.
        self.tabled = node.ks.is_empty or self.sample
        self.best = -math.inf
        self.split_sub: dict = {}
        self.answers: dict = {}
        self.off_path: _Fallbacks | None = None
        self.targets: dict = {}
        self.sub_value_counts: dict = {}
        discrete = [a for a in rows.schema.predictive if a.is_discrete]
        self.discrete = tuple(a.name for a in discrete)
        self.offsets = np.cumsum([0] + [len(a.domain) for a in discrete])
        self.k = k = len(node.support)
        self.values = None
        if self.tabled:
            if pivot is None:
                self.cell_class = node.y
                self.n_values = 1
            else:
                if not pivot.is_discrete:
                    self.values = np.unique(np.concatenate([node.piv, node.pool]))
                    self.pooled = np.bincount(self.values.searchsorted(node.pool),
                                              minlength=len(self.values)).cumsum()
                index = self.index(node.piv)
                self.tindex = self.index(node.tpiv)
                self.n_values = len(pivot.domain) if self.values is None else len(self.values)
                self.ttotal = np.bincount(self.tindex, minlength=self.n_values)
                # each row's key in the (value × class) table
                self.cell_class = index * k + node.y
            self.total = np.bincount(self.cell_class, minlength=self.n_values * k).reshape(
                self.n_values, k)
            if self.values is not None:
                self.total, self.ttotal = _prefix(self.total), _prefix(self.ttotal)
        self.codes = self.tcodes = self.n_lefts = self.tcounts = None
        if not self.discrete:
            return
        self.codes = rows.value_codes(self.discrete)
        self.n_lefts = self.value_counts(self.codes)
        if node.target is not None:
            self.tcodes = node.target.value_codes(self.discrete)
            self.tcounts = self.value_counts(self.tcodes)

    def index(self, piv: np.ndarray) -> np.ndarray:
        """Positions of pivot values on the value axis."""
        return piv if self.values is None else self.values.searchsorted(piv)

    def value_counts(self, codes: np.ndarray) -> list:
        """Row count of each value code."""
        return np.bincount(codes.ravel(), minlength=int(self.offsets[-1])).tolist()

    def candidates(self, attr: Attribute, rows: Dataset) -> _Candidates:
        """attr's candidates at the node."""
        if attr.is_discrete:
            j = self.discrete.index(attr.name)
            lo = int(self.offsets[j])
            part = slice(lo, lo + len(attr.domain))
            return _Candidates(
                attr, EQ, attr.domain, lo, int(self.offsets[-1]), None, self.codes[j],
                None if self.tcodes is None else self.tcodes[j], self.n_lefts[part],
                None if self.tcounts is None else self.tcounts[part])
        col = rows.column(attr.name)
        vals = np.unique(col)
        mids = (vals[:-1] + vals[1:]) / 2.0
        cands = _Candidates(attr, LEQ, mids.tolist(), 0, len(mids) + 1, mids)
        cands.keys = cands.key(col)
        cands.n_lefts = cands.lefts(cands.keys)
        if self.node.target is not None:
            cands.tkeys = cands.key(self.node.target.column(attr.name))
            cands.tcounts = cands.lefts(cands.tkeys)
        return cands

    def split_knowledge(self, cands: _Candidates, cond: SplitCondition):
        """(subpath, alpha, each candidate's target count and the target row
        count at the subpath) answering P(cond | path) for the candidates;
        the counts are None when the store is not sample-backed, and the
        subpath None when not even the marginal is answerable."""
        node = self.node
        ks, path = node.ks, node.path
        attr = cands.attr
        key = attr.name if not self.sample or attr.name in self.order else None
        if key not in self.split_sub:
            sub = maximal_subpath(ks, cond, path)
            self.split_sub[key] = sub, None if sub is None else node.alpha(path, sub)
        sub, alpha = self.split_sub[key]
        if sub is None or not self.sample:
            return sub, alpha, None, None
        if len(sub) == len(path):
            return sub, alpha, cands.tcounts, node.target.n
        rows = node.targets_on(sub, path)
        if attr.is_discrete:
            if sub not in self.sub_value_counts:
                self.sub_value_counts[sub] = self.value_counts(rows.value_codes(self.discrete))
            counts = self.sub_value_counts[sub][cands.first:cands.first + len(attr.domain)]
        else:
            counts = cands.lefts(cands.key(rows.column(attr.name)))
        return sub, alpha, counts, rows.n

    def split_prob(self, rows: Dataset, cond: SplitCondition, i: int, knowledge):
        """P(cond | path): the source frequency affinely mixed with target
        knowledge; alpha is 1 (source only) when the store cannot answer even
        the marginal, 0 when it answers the full path, and the missing
        attribute fraction in between, unless an override replaces it."""
        source_p = freq_fraction(rows, cond)
        if knowledge is None or knowledge[0] is None:
            return source_p
        sub, alpha, tcounts, m = knowledge
        if tcounts is None:
            target_p = query_target(self.node.ks, cond, sub)
        else:
            target_p = Fraction(tcounts[i], m)
        return affine_estimate(source_p, target_p, alpha)

    def split_probs(self, cands: _Candidates, admissible: list, knowledge) -> list:
        """`split_prob` of the admissible candidates in float64."""
        n = len(self.node.y)
        n_lefts = cands.n_lefts
        if knowledge is None or knowledge[0] is None:
            return [n_lefts[i] / n for i in admissible]
        _, alpha, tcounts, m = knowledge
        alpha = float(alpha)
        return [alpha * (n_lefts[i] / n) + (1 - alpha) * (tcounts[i] / m) for i in admissible]

    def admissible(self, n_lefts: list) -> list:
        """Positions of the candidates whose children both hold rows, and at
        least `min_node_fraction` of the training rows."""
        least, most = self.least, self.most
        return [i for i, n_left in enumerate(n_lefts) if least <= n_left <= most]

    def search(self, rows: Dataset, h_parent: float) -> list[_Screened]:
        """The admissible candidates whose exact gain decides the split, in
        schema-then-threshold order: on a tabled node, those whose float
        gain (the parent's entropy being h_parent) lies within 2δ of the
        best one; on any other node, all of them."""
        found: list[_Screened] = []
        # one key range per continuous attribute, and one for every discrete one
        ranges, discrete = [], []
        for position, attr in enumerate(rows.schema.predictive):
            cands = self.candidates(attr, rows)
            admissible = self.admissible(cands.n_lefts)
            if not admissible:
                continue
            knowledge = None
            if not self.node.ks.is_empty:
                first = SplitCondition(attr.name, cands.op, cands.thresholds[admissible[0]])
                knowledge = self.split_knowledge(cands, first)
                self.node.count_answer(knowledge[0], self.node.path, len(admissible))
            entry = (position, cands, admissible, knowledge)
            if not self.tabled:
                found += [_Screened(position, i, math.nan, cands, knowledge, None, None)
                          for i in admissible]
            elif attr.is_discrete:
                discrete.append(entry)
            else:
                ranges.append([entry])
        if discrete:
            ranges.append(discrete)
        if ranges:
            found = self.screen(ranges, h_parent)
        floor = self.best - 2 * _SCREEN_TOL
        return sorted((c for c in found if not c.gain < floor), key=lambda c: c[:2])

    def screen(self, ranges: list, h_parent: float) -> list[_Screened]:
        """The candidates of a tabled node whose float gain is within 2δ of
        the best so far. `ranges` holds, per key range, the (position,
        candidates, admissible, knowledge) of its attributes. The stacked
        children go through their cells, pivot answers and entropies in one
        pass per batch (`batches`). Counts the children's diagnostics."""
        node = self.node
        entries = [entry for entries in ranges for entry in entries]
        codes = np.array([cands.first + i for _, cands, admissible, _ in entries
                          for i in admissible])
        owner = np.repeat(np.arange(len(entries)), [len(e[2]) for e in entries])
        p_left = np.array([p for _, cands, admissible, knowledge in entries
                           for p in self.split_probs(cands, admissible, knowledge)])
        found = []
        done = 0
        for batch in self.batches(ranges, codes):
            counts = batch[0]
            n = len(counts) // 2
            if node.pivot is None:
                classes = counts[:, 0]
                h = _entropies(classes / _class_sum(classes)[:, None])
            else:
                cells = self.group(counts, batch[1])
                choice, alphas = self.resolve(entries, np.tile(owner[done:done + n], 2), cells,
                                              codes[done:done + n])
                h = _mixed_entropies(cells.counts, cells.tcounts,
                                     np.array(alphas, dtype=float)[choice])
            p = p_left[done:done + n]
            gains = h_parent - p * h[:n] - (1 - p) * h[n:]
            self.best = max(self.best, float(gains.max()))
            for j in np.flatnonzero(~(gains < self.best - 2 * _SCREEN_TOL)).tolist():
                position, cands, _, knowledge = entries[owner[done + j]]
                if node.pivot is None:
                    left, right = (functools.partial(_frequencies, node.support,
                                                     classes[c].tolist()) for c in (j, n + j))
                else:
                    left, right = (functools.partial(_mix, node.support, *cells[c][:2],
                                                     alphas[choice[c]]) for c in (j, n + j))
                found.append(_Screened(position, int(codes[done + j]) - cands.first,
                                       float(gains[j]), cands, knowledge, left, right))
            done += n
        return found

    def batches(self, ranges: list, codes: np.ndarray):
        """The children of the candidates of `ranges`, whose keys are
        `codes`, in batches of at most `_TABLE_CELLS` // 4 left (value ×
        class) cells: the (value × class) counts and, under a pivot, target
        value counts of the left children, then of the right ones (the node
        minus the left), in arrays the next batch overwrites. Left children
        are counted a block of their key range at a time, a table of at most
        `_TABLE_CELLS` cells; blocks are aligned to multiples of their keys,
        so a key range that fits one block is counted whole, unfiltered."""
        shape = (self.n_values, self.k)
        step = max(1, _TABLE_CELLS // math.prod(shape))
        cap = max(1, step // 4)
        prefix = int(self.values is not None)
        sides = [(self.cell_class, shape, self.total)]
        if self.node.pivot is not None:
            sides.append((self.tindex, shape[:1], self.ttotal))
        # left rows are written from column `prefix` on: a prefix sum's leading 0 stays
        stacks = [np.zeros((2 * min(cap, len(codes)),) + total.shape, dtype=np.int64)
                  for *_, total in sides]
        start = 0
        for entries in ranges:
            cands = entries[0][1]
            cumulative = not cands.attr.is_discrete
            keys = (cands.keys, cands.tkeys) if cumulative else (self.codes, self.tcodes)
            end = start + sum(len(admissible) for _, _, admissible, _ in entries)
            while start < end:
                a = int(codes[start]) // step * step
                b = min(a + step, cands.n_keys)
                stop = start + int(codes[start:end].searchsorted(b))
                picked = codes[start:stop] - a
                lefts = [_block_counts(rows, cells, a, b, cands.n_keys, cumulative, s)[picked]
                         for rows, (cells, s, _) in zip(keys, sides)]
                first = start
                while start < stop:
                    # batches are runs of cap candidates; lo of this one's n are written
                    lo = start % cap
                    n = min(cap, len(codes) - start + lo)
                    m = min(stop - start, n - lo)
                    for stack, left in zip(stacks, lefts):
                        stack[lo:lo + m, prefix:] = left[start - first:start - first + m]
                    start += m
                    if lo + m == n:
                        for stack, (*_, total) in zip(stacks, sides):
                            if prefix:
                                np.cumsum(stack[:n], axis=1, out=stack[:n])
                            np.subtract(total, stack[:n], out=stack[n:2 * n])
                        yield [stack[:2 * n] for stack in stacks]

    def group(self, counts: np.ndarray, tcounts: np.ndarray) -> _Cells:
        """Children's cells, from their (value × class) and target value
        counts, prefix sums along a continuous pivot's values. A discrete
        pivot's cells are its values; a continuous pivot's lie between the
        deciles of the child's rows pooled with the target sample."""
        if self.values is None:
            n, n_values = tcounts.shape
            bounds = np.broadcast_to(np.arange(n_values + 1), (n, n_values + 1))
            return _Cells(counts, tcounts, bounds, np.ones(bounds.shape, dtype=bool),
                          np.full(n, n_values))
        return _decile_cells(self.values, self.pooled, counts, tcounts)

    def resolve(self, entries: list, whose: np.ndarray, cells: _Cells,
                keys: np.ndarray) -> tuple[np.ndarray, list]:
        """How each child (child i of the candidate whose key is keys[i %
        len(keys)], of the attribute of entries[whose[i]], as `screen`
        stacks them) answers its pivot queries, as `_Node.estimate` does:
        from its own target rows when it has any and the arity allows its
        full path; else on the first of its fallback subpaths (`answer`) with
        target rows; else from the source alone, with alpha 1. The first two
        take their `_Node.alpha`, 0 on a full path unless alpha is fixed.
        Only the children that fall back walk their fallbacks. Replaces the
        target counts of the children not answered from their own rows with
        those they mix, counts the diagnostics, and returns each child's
        position in the list of alphas, and the list: a full path's alpha
        first and alpha 1 second."""
        node = self.node
        answers = [self.answer(cands) for _, cands, _, _ in entries]
        own = np.array([full for full, _ in answers])[whose] & (cells.tcounts.sum(axis=1) > 0)
        alphas = [node.alpha(node.path, node.path), Fraction(1)]
        choice = np.where(own, 0, 1)
        if not own.all():
            tgt = cells.tcounts.copy()
            for chain in {id(c): c for _, c in answers}.values():
                mine = np.array([c is chain for _, c in answers])[whose]
                todo = np.flatnonzero(mine & ~own)
                for sub in chain.subs:
                    if not len(todo):
                        break
                    if chain.child.conditions[-1] in sub.conditions:
                        cum = self.resplit(chain.cands, Path(sub.conditions[:-1]),
                                           keys[todo % len(keys)], todo >= len(keys))
                        rows = cum[:, -1] > 0
                        cum = cum[rows]
                    else:
                        # the same rows for every child
                        cum = self.target_on(sub)[2]
                        rows = np.full(len(todo), cum[-1] > 0)
                    if rows.any():
                        use = todo[rows]
                        alphas.append(node.alpha(chain.child, sub))
                        choice[use] = len(alphas) - 1
                        tgt[use] = _between(cum, cells.bounds[use])
                        todo = todo[~rows]
                # answered from the source alone, alpha 1: any target counts with rows do
                tgt[todo] = _class_sum(cells.counts[todo])
            cells.tcounts = tgt
        # queries answered on the full path, from the source alone and on a truncated subpath
        full, forced, truncated = np.bincount(np.minimum(choice, 2), weights=cells.n_queries,
                                              minlength=3).astype(int).tolist()
        node.count("n_alphas", full + truncated)
        node.count("truncations", truncated)
        node.count("forced_source", forced)
        return choice, alphas

    def answer(self, cands: _Candidates) -> tuple[bool, _Fallbacks]:
        """(whether the arity lets a child of cands answer its pivot queries
        on its full path, as the first of the `subpaths` of the child's path
        tells, and the `_Fallbacks` below it, not yet walked). Children off
        the node path share one answer, except those split on the pivot,
        whose full path has one attribute fewer; all of them share their
        fallbacks, the node path's own subpaths.
        """
        node = self.node
        name = cands.attr.name
        key = name if name in self.order or name == node.pivot.name else None
        if key not in self.answers:
            child = node.path.extend(SplitCondition(name, cands.op, cands.thresholds[0]))
            # a pivot query; subpaths depend on its attribute alone
            query = SplitCondition(node.pivot.name, EQ, None)
            first = next(subpaths(node.ks, query, child), None)
            full = first is not None and len(first) == len(child)
            if name in self.order:
                chain = _Fallbacks(node.ks, query, child, cands)
            else:
                if self.off_path is None:
                    self.off_path = _Fallbacks(node.ks, query, child, None)
                chain = self.off_path
            self.answers[key] = full, chain
        return self.answers[key]

    def gain(self, rows: Dataset, parent: Distribution, cand: _Screened):
        """cand's condition, exact information gain and left and right
        children's distributions."""
        node, cands, i = self.node, cand.cands, cand.i
        cond = SplitCondition(cands.attr.name, cands.op, cands.thresholds[i])
        p_left = self.split_prob(rows, cond, i, cand.knowledge)
        if cand.left is None:
            # a node that is not tabled: each child from its own rows
            mask = cands.mask(i)
            left = node.estimate(mask, node.path.extend(cond))
            right = node.estimate(~mask, node.path.extend(cond.negate()))
        else:
            left, right = cand.left(), cand.right()
        return cond, information_gain(parent, p_left, left, right), left, right

    def target_on(self, sub: Path) -> tuple[Dataset, np.ndarray, np.ndarray]:
        """The target rows on `sub`, a subpath of the node path, their
        positions on the value axis and their counts along it, cumulative
        from 0."""
        if sub not in self.targets:
            node = self.node
            rows = node.targets_on(sub, node.path)
            index = self.tindex if sub == node.path else self.index(rows.codes(node.pivot.name))
            self.targets[sub] = rows, index, _prefix(np.bincount(index,
                                                                 minlength=self.n_values))
        return self.targets[sub]

    def resplit(self, cands: _Candidates, sub: Path, keys: np.ndarray,
                right: np.ndarray) -> np.ndarray:
        """Counts along the value axis, cumulative from 0, of the target rows
        on `sub`, a subpath of the node path, that meet the condition of
        some children of cands's candidates: row i of the candidate whose key
        is keys[i], its left child, or its right child where right[i]."""
        rows, index, cum = self.target_on(sub)
        a, b = int(keys.min()), int(keys.max()) + 1
        left = _block_counts(cands.key(rows.codes(cands.attr.name)), index, a, b,
                             cands.n_keys, not cands.attr.is_discrete,
                             (self.n_values,))[keys - a]
        out = np.zeros((len(keys), self.n_values + 1), dtype=np.int64)
        np.cumsum(left, axis=1, out=out[:, 1:])
        out[right] = cum - out[right]
        return out


def _block_counts(keys: np.ndarray, cells: np.ndarray, a: int, b: int, n_keys: int,
                  cumulative: bool, shape: tuple) -> np.ndarray:
    """(b - a, *shape) counts of the cells (keys into an array of `shape`,
    broadcast against `keys`) of the rows whose key, one of range(n_keys),
    is i, for i in range(a, b); with `cumulative`, of the rows whose key is
    at most i."""
    size = math.prod(shape)
    if a or b < n_keys:
        rel = keys - a
        sel = rel < b - a
        if cumulative:
            rel = np.maximum(rel, 0)
        else:
            sel &= rel >= 0
        flat = rel[sel] * size + np.broadcast_to(cells, keys.shape)[sel]
    else:
        flat = (keys * size + cells).ravel()
    table = np.bincount(flat, minlength=(b - a) * size).reshape((b - a,) + shape)
    return table.cumsum(axis=0) if cumulative else table


def _decile_cells(values: np.ndarray, pooled: np.ndarray, cum: np.ndarray,
                  tcum: np.ndarray) -> _Cells:
    """The cells of children under a continuous pivot: between the kept
    deciles (`_decile_edges`) of each child's values pooled with those
    counted in `pooled`, as `_Node.estimate` cuts them. Every child gets ten
    cells; those of the edges it drops are empty and not kept.

    `values` are the distinct pivot values, ascending, and `pooled` the
    cumulative count of the pool at each. Row i of `cum` holds child i's
    (value × class) counts and of `tcum` its target rows' value counts,
    both cumulative along the values from a leading row of zeros. A bound
    is the number of values at or below a cell's upper edge; the bounds run
    from 0 to len(values).
    """
    n, n_bounds = tcum.shape
    edges, kept = _decile_edges(values, _class_sum(cum[:, 1:]) + pooled)
    # a dropped edge takes the rank of the one kept before it: its cell is empty
    ranks = values.searchsorted(np.maximum.accumulate(edges, axis=1), side="right")
    bounds = np.column_stack([np.zeros(n, dtype=ranks.dtype), ranks,
                              np.full(n, n_bounds - 1, dtype=ranks.dtype)])
    kept = np.column_stack([np.ones(n, dtype=bool), kept, np.ones(n, dtype=bool)])
    # a continuous pivot queries the cells' upper edges but the last
    return _Cells(_between(cum, bounds), _between(tcum, bounds), bounds, kept,
                  kept.sum(axis=1) - 2)


def _between(cum: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Counts between consecutive bounds of each row of `bounds`, from
    counts summed along the value axis from 0: one row of them for all
    rows of bounds, or one for each."""
    at = cum[bounds] if cum.ndim == 1 else cum[np.arange(len(cum))[:, None], bounds]
    return at[:, 1:] - at[:, :-1]


def _decile_edges(values: np.ndarray, pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nine deciles of each row's values, by np.quantile's default
    (linear) interpolation, operation for operation, and which of them are
    kept: each that lies above every decile before it.

    `values` are ascending; row i of `pooled` holds, at each position, the
    number of row i's values at that position or before it (for distinct
    values, those at or below each). The order statistics of all rows come
    from one search of the rows' counts laid end to end.
    """
    n_rows, n_values = pooled.shape
    sizes = pooled[:, -1]
    starts = (np.cumsum(sizes) - sizes)[:, None]
    top = (sizes - 1)[:, None]
    pos = top * _DECILES
    lo = np.floor(pos).astype(np.int64)
    ranks = np.concatenate([lo, np.minimum(lo + 1, top)], axis=1) + starts
    at = (pooled + starts).ravel().searchsorted(ranks, side="right")
    at -= np.arange(n_rows)[:, None] * n_values
    below, above = values[at[:, :_N_BINS - 1]], values[at[:, _N_BINS - 1:]]
    gamma = pos - lo
    diff = above - below
    edges = np.where(gamma >= 0.5, above - diff * (1 - gamma), below + diff * gamma)
    kept = np.ones(edges.shape, dtype=bool)
    kept[:, 1:] = edges[:, 1:] > np.maximum.accumulate(edges, axis=1)[:, :-1]
    return edges, kept


def _mixed_entropies(counts: np.ndarray, tgt: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Entropy in bits, in float64, of each child's class mixture as `_mix`
    computes it exactly: row i of `counts` holds child i's (cell × class)
    source counts, of `tgt` its target cell counts, and alpha[i] its
    weight of the source."""
    source = _class_sum(counts)
    n = source.sum(axis=1, keepdims=True)
    a = alpha[:, None]
    w = a * (source / n) + (1 - a) * (tgt / tgt.sum(axis=1, keepdims=True))
    per_row = np.divide(w, source, out=np.zeros_like(w), where=source > 0)
    q = np.einsum("ij,ijk->ik", per_row, counts)
    # a cell without source rows takes the child's class distribution
    q += (w * (source == 0)).sum(axis=1, keepdims=True) * (counts.sum(axis=1) / n)
    return _entropies(q)


def _entropies(q: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of q."""
    return -_class_sum(q * np.log2(q, out=np.zeros_like(q), where=q > 0))


def _class_sum(a: np.ndarray) -> np.ndarray:
    """a summed over its last axis, the classes, by adding one slice per
    class: numpy's reduction over so short an axis costs ten times more."""
    return functools.reduce(operator.add, (a[..., c] for c in range(a.shape[-1])))


def _prefix(counts: np.ndarray) -> np.ndarray:
    """counts summed along their first axis, from a leading row of zeros."""
    out = np.zeros((len(counts) + 1,) + counts.shape[1:], dtype=np.int64)
    np.cumsum(counts, axis=0, out=out[1:])
    return out


def _frequencies(support: tuple, class_counts: list) -> Distribution:
    n = sum(class_counts)
    return Distribution(support, tuple(c / n for c in class_counts))


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
    return node.estimate(slice(None), path)


def best_split(node_rows: Dataset, path: Path, ks: KnowledgeStore,
               x_w: str | None, config: TreeConfig, n_train: int, diagnostics: dict,
               parent: Distribution, targets: list | None = None
               ) -> tuple[SplitCondition, float, Distribution, Distribution] | None:
    """The maximum-gain candidate's condition and gain, and its left and
    right children's class distributions; None when no admissible split
    improves. `parent` is the node's own distribution, and `targets` its
    `_Node.targets`, built from the store's sample when left out.

    First strict maximum wins, so ties resolve to schema attribute order and
    then ascending threshold — induction is deterministic without randomness.

    Every admissible candidate of every attribute is screened in one pass
    (`_Splits`): its gain is computed in float64 from count tables, and
    only those whose float gain lies within 2δ (`_SCREEN_TOL`) of the best
    one get the exact gain, in schema-then-threshold order. Float and exact
    gains differ by far less than δ, so the exact maximum and its first
    occurrence are among them. On a node over a store of cross-tables or
    CDFs, whose float answers the tables do not count, every admissible
    candidate gets the exact gain, and each child is estimated by
    `_Node.estimate` on its own rows. All exact counts are integers, so
    every probability, and each child's distribution that is returned,
    equals that of `estimate_class_dist` on the child's own rows.

    A node with fewer rows than two children need (`_child_bounds`) returns
    None before it builds anything.
    """
    min_rows = config.min_node_fraction * n_train
    least, most = _child_bounds(node_rows.n, min_rows)
    if most < least:
        return None
    splits = _Splits(_Node(node_rows, path, x_w, ks, config, diagnostics, targets), node_rows,
                     min_rows)
    best = None
    for cand in splits.search(node_rows, entropy(parent)):
        found = splits.gain(node_rows, parent, cand)
        if best is None or found[1] > best[1]:
            best = found
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

    Both sides are counted per cell (`_cell_class_counts`): a discrete
    attribute's values, or a continuous one's decile bins of the source and
    target values pooled. The target side is the store's labeled sample. A
    store without one takes a discrete attribute's target marginal and
    conditionals from its cross-tab document's `class_conditionals`, and
    has none for a continuous attribute. Cells add up in cell order; one
    without target mass adds nothing, and one without source rows compares
    the source marginal.
    """
    support = source.schema.class_values
    labeled = ks.labeled_sample
    values = source.codes(attr.name)
    edges = None
    if labeled is None:
        info = (ks.class_conditionals or {}).get(attr.name) if attr.is_discrete else None
        if info is None:
            return None
        targets = [(info["marginal"].get(v, 0.0), info["y_given_x"].get(v))
                   for v in attr.domain]
    else:
        t_values = labeled.codes(attr.name)
        if not attr.is_discrete:
            edges = _continuous_bin_edges(np.concatenate([values, t_values]))
        counts = _cell_class_counts(attr, t_values, edges, labeled.class_codes(), len(support))
        targets = [(sum(row) / labeled.n, _frequencies(support, row) if any(row) else None)
                   for row in counts]
    counts = _cell_class_counts(attr, values, edges, source.class_codes(), len(support))
    total = 0.0
    for row, (p_t, tgt) in zip(counts, targets):
        if p_t <= 0.0 or tgt is None:
            continue
        src = _frequencies(support, row) if any(row) else source_marginal
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
        if config.x_w_override not in schema.predictive_names:
            raise ConfigError(f"pivot {config.x_w_override!r} is not a predictive attribute")
        x_w = config.x_w_override
    elif ks.is_empty:
        x_w = None
    else:
        x_w = select_pivot(train_source, ks)
    diagnostics = {key: 0 for key in _DIAGNOSTIC_KEYS}
    n_train = train_source.n

    def build(rows: Dataset, path: Path, depth: int, dist: Distribution, targets: list | None):
        found = None
        if (Fraction(int(np.bincount(rows.class_codes()).max()), rows.n) < config.purity_stop
                and depth < config.max_depth):
            found = best_split(rows, path, ks, x_w, config, n_train, diagnostics, dist, targets)
        if found is None:
            return Leaf(class_dist=dist, n_source_rows=rows.n, path=path)
        cond, ig, left_dist, right_dist = found
        mask = rows.mask(cond)
        left = build(rows.subset(mask), path.extend(cond), depth + 1, left_dist,
                     targets and _child_targets(targets, path, cond))
        right = build(rows.subset(~mask), path.extend(cond.negate()), depth + 1, right_dist,
                      targets and _child_targets(targets, path, cond.negate()))
        return Internal(condition=cond, left=left, right=right, ig_achieved=ig)

    root = build(train_source, EMPTY_PATH, 0,
                 estimate_class_dist(train_source, EMPTY_PATH, x_w, ks, config, diagnostics),
                 None if ks.sample is None else [ks.sample])
    # build refers to itself through its closure; breaking that cycle frees
    # the datasets and store the closure holds now, not at the next cyclic
    # garbage collection
    del build
    return DecisionTree(root=root, config=config, schema=schema,
                        x_w=x_w, diagnostics=diagnostics)


def route_dataset(tree: DecisionTree, d: Dataset) -> np.ndarray:
    """Each row's leaf, as its position in `tree.leaves()`. Row-index arrays
    go down the tree a chunk of rows at a time, split as `Dataset.mask` splits in `grow`."""
    ids = np.empty(d.n, dtype=np.intp)
    start = 0
    for chunk in d.chunks():
        _descend(tree.root, chunk, {}, np.arange(chunk.n), ids[start:start + chunk.n], 0)
        start += chunk.n
    return ids


def _descend(node, chunk: Dataset, columns: dict, rows: np.ndarray, out: np.ndarray,
             leaf: int) -> int:
    """Write into `out` the leaf of each of the chunk's `rows` under node,
    whose leaves are numbered from `leaf`; returns the number after them.
    `columns` keeps the chunk's columns read so far, as stored."""
    if isinstance(node, Leaf):
        out[rows] = leaf
        return leaf + 1
    cond = node.condition
    col = columns.get(cond.attribute)
    if col is None:
        col = columns[cond.attribute] = chunk.codes(cond.attribute)
    mask = stored_mask(chunk.schema.attribute(cond.attribute), cond, col[rows])
    leaf = _descend(node.left, chunk, columns, rows[mask], out, leaf)
    return _descend(node.right, chunk, columns, rows[~mask], out, leaf)


def predict(tree: DecisionTree, row: dict) -> tuple[str, Distribution]:
    """Route a record to its leaf as a one-row dataset (`dataset_from_rows`);
    returns (majority class, class distribution)."""
    leaf = route_dataset(tree, dataset_from_rows(tree.schema, [row], labeled=False))[0]
    dist = tree.leaves()[leaf].class_dist
    return dist.argmax(), dist


def predict_dataset(tree: DecisionTree, d: Dataset) -> np.ndarray:
    """Predicted labels for every row, as an object array, read off its leaf id."""
    labels = np.array([leaf.class_dist.argmax() for leaf in tree.leaves()], dtype=object)
    return labels[route_dataset(tree, d)]


def positive_scores(tree: DecisionTree, d: Dataset, positive_label: str) -> np.ndarray:
    """Leaf probability of the positive class for every row, read off its leaf id."""
    scores = np.array([leaf.class_dist.prob(positive_label) for leaf in tree.leaves()], float)
    return scores[route_dataset(tree, d)]


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


def _node_from_dict(d: dict, schema: Schema, path: Path = EMPTY_PATH):
    """The node of a tree document at `path`, from the root through each
    split's condition (left) or its negation (right); a leaf's stored path
    must be that path."""
    if d["leaf"]:
        support = schema.class_values
        dist = Distribution(support, tuple(float(d["dist"][y]) for y in support))
        if "path" in d and Path(tuple(SplitCondition(a, op, t) for a, op, t in d["path"])) != path:
            raise ParseError(f"leaf path {d['path']!r} is not the path of the splits above it")
        return Leaf(class_dist=dist, n_source_rows=int(d["n_source_rows"]), path=path)
    c = d["condition"]
    if c["attr"] not in schema.predictive_names:
        raise ParseError(f"split {c!r} is not on a predictive attribute")
    attr = schema.attribute(c["attr"])
    threshold = c["threshold"] if attr.is_discrete else float(c["threshold"])
    ops = (EQ, NEQ) if attr.is_discrete else (LEQ, GT)
    if c["op"] not in ops or (attr.is_discrete and threshold not in attr.domain):
        raise ParseError(f"split {c!r} does not fit attribute {attr.name!r}")
    cond = SplitCondition(attr.name, c["op"], threshold)
    return Internal(condition=cond,
                    left=_node_from_dict(d["left"], schema, path.extend(cond)),
                    right=_node_from_dict(d["right"], schema, path.extend(cond.negate())),
                    ig_achieved=float(d["ig"]))


def tree_to_json(tree: DecisionTree) -> str:
    doc = {
        "schema": tree.schema.to_json_dict(),
        "config": asdict(tree.config),
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
        config = TreeConfig(**{f.name: c[f.name] for f in fields(TreeConfig)})
        root = _node_from_dict(doc["root"], schema)
        x_w = doc.get("x_w")
        if x_w is not None and x_w not in schema.predictive_names:
            raise ParseError(f"pivot {x_w!r} is not a predictive attribute")
        return DecisionTree(root=root, config=config, schema=schema,
                            x_w=x_w, diagnostics=dict(doc.get("diagnostics", {})))
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"malformed tree document: {exc!r}") from exc
