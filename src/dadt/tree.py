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
    entropy,
    freq_fraction,
    information_gain,
    wasserstein,
)

_MIN_GAIN = 1e-12
_MASS_TOL = 1e-9
_N_BINS = 10
_QUANTILES = np.linspace(0.1, 0.9, _N_BINS - 1).tolist()
_DECILES = np.array(_QUANTILES)
# most cells in one block of split-candidate count tables
_TABLE_CELLS = 1 << 16
# How a child's pivot queries are answered (`_Splits.resolve`).
_FULL, _FORCED, _TRUNCATED, _UNTABLED = range(4)
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
        self.path = path
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

    def count(self, key: str, k: int = 1) -> None:
        self.diagnostics[key] = self.diagnostics.get(key, 0) + k

    def estimate(self, sel, path: Path, tsel) -> Distribution:
        """Class distribution of the node rows `sel` at `path`, whose target
        rows are the node's target rows `tsel`."""
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
        if sub is None:
            self.count("forced_source", n_queries)
            return _mix(self.support, counts, src, 1)
        if len(sub) != len(path):
            self.count("truncations", n_queries)
        self.count("n_alphas", n_queries)
        alpha = self.config.alpha_override
        if alpha is None:
            alpha = dynamic_alpha(path, sub)

        if tv is not None:
            m = len(tv)
            if edges is None:
                tgt = target_ps = np.bincount(tv, minlength=n_cells).tolist()
            else:
                target_ps = np.searchsorted(np.sort(tv), edges, side="right").tolist()
                tgt = [t - prev for t, prev in zip(target_ps + [m], [0] + target_ps)]
            if isinstance(alpha, Rational):
                return _mix(self.support, counts, tgt, alpha)
            target_ps = [Fraction(t, m) for t in target_ps]
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


def _mix(support: tuple, counts: list, tgt: list, alpha: Rational) -> Distribution:
    """sum over cells of P(cell) * P(Y | cell), in integers until one division.

    `counts` holds each pivot cell's class counts over n source rows and
    `tgt` each cell's count over m target rows; P(cell) = alpha * s/n +
    (1 - alpha) * t/m. A cell with no source rows takes the rows' class
    distribution; its weight is then a multiple of n. The cell weights share
    one denominator, so the mixture has mass exactly 1 and each probability is
    one correctly rounded int/int division, equal to that of the exact
    fraction.
    """
    src = [sum(row) for row in counts]
    n = sum(src)
    m = sum(tgt)
    a, b = alpha.numerator, alpha.denominator
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


@dataclass
class _Candidates:
    """One attribute's split candidates at a node.

    A row's key is `first` plus the position of its value in the
    attribute's domain or, for a continuous attribute, of the first midpoint
    it lies at or below. Candidate i's left rows are those whose key is
    first + i or, for a continuous attribute, at most i; `n_lefts` counts
    them and `tcounts` the left target rows. `tkeys` and `tcounts` are None
    without a target sample.
    """

    attr: Attribute
    op: str
    thresholds: list
    first: int
    keys: np.ndarray
    tkeys: np.ndarray | None
    n_lefts: list
    tcounts: list | None

    def masks(self, i: int):
        """Candidate i's left node rows and left target rows (None without
        a target sample), as boolean masks."""
        compare = operator.le if self.op == LEQ else operator.eq
        key = self.first + i
        return compare(self.keys, key), None if self.tkeys is None else compare(self.tkeys, key)


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
    p_left, its float gain (NaN when it was not screened, or the tables
    cannot answer a child) and, per child, its exact distribution to
    compute, or None where the tables cannot answer it."""

    position: int
    i: int
    gain: float
    cands: _Candidates
    knowledge: tuple | None
    left: Callable[[], Distribution] | None
    right: Callable[[], Distribution] | None


class _Splits:
    """What the split candidates of one node share.

    Count tables over an attribute's keys and the pivot's value axis give
    every candidate's left child and, as the node minus the left, its right
    child. The value axis is the pivot's domain or, for a continuous pivot,
    the distinct values of the node rows and the target sample, which every
    child's deciles pool. The subpath and alpha of p_left and of the
    children's pivot queries are resolved once for all attributes off the
    node path, whose answers differ only through the arity check, and once
    per attribute on it. `search` screens every candidate's gain in float64
    from the tables and keeps those the exact gain must decide.
    """

    def __init__(self, node: _Node, rows: Dataset, min_rows: float):
        self.node = node
        # a child holds at least one row and min_rows of them
        self.least = max(min_rows, 1)
        self.most = len(node.y) - self.least
        self.order = node.path.attributes()
        self.sample = node.ks.sample is not None
        pivot = node.pivot
        # Children come from the tables when the node needs no pivot, or when
        # the pivot is answered from target rows with the dynamic alpha.
        self.tabled = pivot is None or (self.sample and node.config.alpha_override is None)
        self.best = -math.inf
        self.split_sub: dict = {}
        self.fallbacks: dict = {}
        self.prefix_targets: dict = {}
        self.sub_value_counts: dict = {}
        self.discrete = [a for a in rows.schema.predictive if a.is_discrete]
        self.offsets = np.cumsum([0] + [len(a.domain) for a in self.discrete])
        self.start = dict(zip((a.name for a in self.discrete), self.offsets.tolist()))
        self.row = {a.name: j for j, a in enumerate(self.discrete)}
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
                # the attributes of the node's own pivot queries
                self.queried = {pivot.name, *self.order}
                # each row's key in the (value × class) table
                self.cell_class = index * k + node.y
            self.total = np.bincount(self.cell_class, minlength=self.n_values * k).reshape(
                self.n_values, k)
        self.codes = self.tcodes = self.n_lefts = self.tcounts = None
        if not self.discrete:
            return
        self.codes = self.value_codes(rows)
        self.n_lefts = self.value_counts(self.codes)
        if node.target is not None:
            self.tcodes = self.value_codes(node.target)
            self.tcounts = self.value_counts(self.tcodes)

    def index(self, piv: np.ndarray) -> np.ndarray:
        """Positions of pivot values on the value axis."""
        return piv if self.values is None else self.values.searchsorted(piv)

    def value_codes(self, rows: Dataset) -> np.ndarray:
        """(discrete attribute × row) codes that number all the attributes'
        values in one range."""
        return np.stack([rows.codes(a.name) for a in self.discrete]) + self.offsets[:-1, None]

    def value_counts(self, codes: np.ndarray) -> list:
        """Row count of each value code."""
        return np.bincount(codes.ravel(), minlength=int(self.offsets[-1])).tolist()

    def candidates(self, attr: Attribute, rows: Dataset) -> _Candidates:
        """attr's candidates at the node."""
        if attr.is_discrete:
            j = self.row[attr.name]
            lo = self.start[attr.name]
            part = slice(lo, lo + len(attr.domain))
            return _Candidates(
                attr, EQ, attr.domain, lo, self.codes[j],
                None if self.tcodes is None else self.tcodes[j], self.n_lefts[part],
                None if self.tcounts is None else self.tcounts[part])
        col = rows.column(attr.name)
        vals = np.unique(col)
        mids = (vals[:-1] + vals[1:]) / 2.0
        keys = mids.searchsorted(col)
        tkeys = tcounts = None
        if self.node.target is not None:
            tkeys = mids.searchsorted(self.node.target.column(attr.name))
            tcounts = _cumulative_counts(tkeys, (len(mids) + 1,)).tolist()
        return _Candidates(attr, LEQ, mids.tolist(), 0, keys, tkeys,
                           _cumulative_counts(keys, (len(mids) + 1,)).tolist(), tcounts)

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
            alpha = node.config.alpha_override
            if sub is not None and alpha is None:
                alpha = dynamic_alpha(path, sub)
            self.split_sub[key] = sub, alpha
        sub, alpha = self.split_sub[key]
        if sub is None or not self.sample:
            return sub, alpha, None, None
        if len(sub) == len(path):
            return sub, alpha, cands.tcounts, node.target.n
        rows = ks.sample_rows(sub)
        if attr.is_discrete:
            if sub not in self.sub_value_counts:
                self.sub_value_counts[sub] = self.value_counts(self.value_codes(rows))
            lo = self.start[attr.name]
            counts = self.sub_value_counts[sub][lo:lo + len(attr.domain)]
        else:
            keys = np.searchsorted(cands.thresholds, rows.column(attr.name))
            counts = _cumulative_counts(keys, (len(cands.thresholds) + 1,)).tolist()
        return sub, alpha, counts, rows.n

    def count_split(self, knowledge, n: int) -> None:
        """The diagnostics of n candidates' p_left, answered by `knowledge`
        (`split_knowledge`'s answer; None for an empty store)."""
        if knowledge is None:
            return
        node = self.node
        sub = knowledge[0]
        if sub is None:
            node.count("forced_source", n)
            return
        if len(sub) != len(node.path):
            node.count("truncations", n)
        node.count("n_alphas", n)

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
        """`split_prob` of the admissible candidates in float64; NaN where
        only a query per candidate answers it."""
        n = len(self.node.y)
        n_lefts = cands.n_lefts
        if knowledge is None or knowledge[0] is None:
            return [n_lefts[i] / n for i in admissible]
        _, alpha, tcounts, m = knowledge
        if tcounts is None:
            return [math.nan] * len(admissible)
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
        gain (the parent's entropy being h_parent) is NaN or within 2δ of
        the best one; on any other node, all of them."""
        found: list[_Screened] = []
        discrete = []
        for position, attr in enumerate(rows.schema.predictive):
            cands = self.candidates(attr, rows)
            admissible = self.admissible(cands.n_lefts)
            if not admissible:
                continue
            knowledge = None
            if not self.node.ks.is_empty:
                first = SplitCondition(attr.name, cands.op, cands.thresholds[admissible[0]])
                knowledge = self.split_knowledge(cands, first)
                self.count_split(knowledge, len(admissible))
            entry = (position, cands, admissible, knowledge)
            if not self.tabled:
                found += [_Screened(position, i, math.nan, cands, knowledge, None, None)
                          for i in admissible]
            elif attr.is_discrete:
                discrete.append(entry)
            else:
                self.screen([entry], h_parent, found)
        if discrete:
            self.screen(discrete, h_parent, found)
        floor = self.best - 2 * _SCREEN_TOL
        return sorted((c for c in found if not c.gain < floor), key=lambda c: c[:2])

    def screen(self, entries: list, h_parent: float, found: list) -> None:
        """Float gains of the admissible candidates of `entries`, (position,
        candidates, admissible, knowledge) of attributes that share one key
        range: one continuous attribute, or every discrete one. Tables are
        built for blocks of candidates of at most `_TABLE_CELLS` cells; the
        candidates of a block whose gain is NaN or within 2δ of the best so
        far are added to `found`. Counts the diagnostics of the children."""
        node = self.node
        attrs = [cands.attr for _, cands, _, _ in entries]
        cumulative = not attrs[0].is_discrete
        if cumulative:
            (_, cands, _, _), = entries
            keys, tkeys, n_keys = cands.keys, cands.tkeys, len(cands.thresholds) + 1
        else:
            keys, tkeys, n_keys = self.codes, self.tcodes, int(self.offsets[-1])
        # the candidates' keys, ascending, and the entry each belongs to
        codes = np.array([cands.first + i for _, cands, admissible, _ in entries
                          for i in admissible])
        owner = np.repeat(np.arange(len(entries)), [len(e[2]) for e in entries])
        p_left = np.array([p for _, cands, admissible, knowledge in entries
                           for p in self.split_probs(cands, admissible, knowledge)])
        shape = (self.n_values, self.k)
        step = max(1, _TABLE_CELLS // math.prod(shape))
        done = 0
        while done < len(codes):
            a = int(codes[done])
            if cumulative:
                b = min(a + step, int(codes[-1]) + 1)
            else:
                a -= a % step
                b = min(a + step, n_keys)
            end = int(codes.searchsorted(b))
            picked = codes[done:end] - a
            n = len(picked)
            left = _block_counts(keys, self.cell_class, a, b, n_keys, cumulative, shape)[picked]
            counts = np.concatenate([left, self.total - left])
            whose = np.concatenate([owner[done:end]] * 2)
            if node.pivot is None:
                classes = counts[:, 0]
                h = _entropies(classes / classes.sum(axis=1, keepdims=True))
            else:
                tleft = _block_counts(tkeys, self.tindex, a, b, n_keys, cumulative,
                                      shape[:1])[picked]
                cells = self.group(counts, np.concatenate([tleft, self.ttotal - tleft]))
                case, alpha = self.resolve(attrs, whose, cells)
                h = _mixed_entropies(cells.counts, cells.tcounts, alpha)
                h[case == _UNTABLED] = np.nan
            p = p_left[done:end]
            gains = h_parent - p * h[:n] - (1 - p) * h[n:]
            screened = gains[~np.isnan(gains)]
            if len(screened):
                self.best = max(self.best, float(screened.max()))
            for j in np.flatnonzero(~(gains < self.best - 2 * _SCREEN_TOL)).tolist():
                position, cands, _, knowledge = entries[whose[j]]
                if node.pivot is None:
                    left, right = (functools.partial(_frequencies, node.support,
                                                     classes[c].tolist()) for c in (j, n + j))
                else:
                    left, right = (self.exact(cands.attr, cells, case, c) for c in (j, n + j))
                found.append(_Screened(position, int(codes[done + j]) - cands.first,
                                       float(gains[j]), cands, knowledge, left, right))
            done = end

    def group(self, counts: np.ndarray, tcounts: np.ndarray) -> _Cells:
        """Children's cells, from their (value × class) and target value
        counts. A discrete pivot's cells are its values; a continuous
        pivot's lie between the deciles of the child's rows pooled with the
        target sample."""
        if self.values is None:
            n, n_values = tcounts.shape
            bounds = np.broadcast_to(np.arange(n_values + 1), (n, n_values + 1))
            return _Cells(counts, tcounts, bounds, np.ones(bounds.shape, dtype=bool),
                          np.full(n, n_values))
        return _decile_cells(self.values, self.pooled, counts, tcounts)

    def resolve(self, attrs: list, whose: np.ndarray, cells: _Cells):
        """How each child (child i of a candidate of attrs[whose[i]]) answers
        its pivot queries, as `_Node.estimate` resolves them: from
        its own target rows with alpha 0 when it has any and the arity
        allows its full path (`_FULL`), else from those of the longest
        answerable subpath with its alpha (`_TRUNCATED`), from the source
        alone when there is none (`_FORCED`), and `_UNTABLED` when that
        subpath keeps the child's own condition, which the tables cannot
        answer. Replaces the target counts of the children not answered
        from their own rows with those they mix, counts the diagnostics, and
        returns the cases and the float alphas."""
        full = np.array([self.full_path(a) for a in attrs])[whose]
        full &= cells.tcounts.sum(axis=1) > 0
        case = np.full(len(whose), _FULL)
        alpha = np.zeros(len(whose))
        if not full.all():
            rest = ~full
            owners = whose[rest]
            # each attribute's fallback; those off the node path share one
            case_of = np.full(len(attrs), _FORCED)
            alpha_of = np.ones(len(attrs))
            same = np.full(len(attrs), -1)
            cums: dict = {}
            for j in set(owners.tolist()):
                case_of[j], a, cum = self.answer(attrs[j])
                if cum is not None:
                    alpha_of[j] = float(a)
                    same[j] = cums.setdefault(id(cum), (len(cums), cum))[0]
            case[rest] = case_of[owners]
            alpha[rest] = alpha_of[owners]
            tgt = cells.tcounts.copy()
            source = rest & (case != _TRUNCATED)
            tgt[source] = cells.counts[source].sum(axis=2)
            for g, cum in cums.values():
                sel = rest & (same[whose] == g)
                bounds = cells.bounds[sel]
                tgt[sel] = cum[bounds[:, 1:]] - cum[bounds[:, :-1]]
            cells.tcounts = tgt
        self.count_queries(*np.bincount(case, weights=cells.n_queries,
                                        minlength=4).astype(int).tolist()[:3])
        return case, alpha

    def answer(self, attr: Attribute | None):
        """The case, exact alpha and cumulative target counts (None unless
        truncated) of a child of attr (of the node itself for None) whose
        own target rows do not answer it; see `resolve`."""
        fallback = self.fallback(attr)
        if fallback is None:
            return _FORCED, 1, None
        if fallback is False:
            return _UNTABLED, None, None
        cum, alpha = fallback
        return _TRUNCATED, alpha, cum

    def count_queries(self, full: int, forced: int, truncated: int) -> None:
        """The diagnostics of pivot queries answered on the full path,
        from the source alone, and on a truncated subpath."""
        node = self.node
        node.count("n_alphas", full + truncated)
        node.count("truncations", truncated)
        node.count("forced_source", forced)

    def full_path(self, attr: Attribute | None) -> bool:
        """Whether the arity allows the pivot queries of a child of attr (of
        the node itself when attr is None) on its full path."""
        n_attrs = len(self.queried) + (attr is not None and attr.name not in self.queried)
        return n_attrs <= self.node.ks.arity_limit

    def exact(self, attr: Attribute | None, cells: _Cells, case: np.ndarray,
              i: int) -> Callable[[], Distribution] | None:
        """Child i's exact class distribution, to compute, as `resolve`
        answers it; None when the tables cannot answer it."""
        if case[i] == _UNTABLED:
            return None
        counts, tgt, _ = cells[i]
        alpha = 0 if case[i] == _FULL else self.answer(attr)[1]
        return functools.partial(_mix, self.node.support, counts, tgt, alpha)

    def parent(self) -> Distribution:
        """The node's own class distribution, from the tables' totals."""
        node = self.node
        if node.pivot is None:
            return _frequencies(node.support, self.total[0].tolist())
        if self.values is None:
            counts, tgt = self.total.tolist(), self.ttotal.tolist()
            bounds = list(range(self.n_values + 1))
        else:
            counts, tgt, bounds = _decile_cells(self.values, self.pooled, self.total[None],
                                                self.ttotal[None])[0]
        # a continuous pivot queries the cells' upper edges but the last
        n_queries = len(counts) - (self.values is not None)
        case, alpha = _FULL, 0
        if not (sum(tgt) and self.full_path(None)):
            case, alpha, cum = self.answer(None)
            tgt = ([sum(row) for row in counts] if cum is None
                   else np.diff(cum[bounds]).tolist())
        self.count_queries(*(n_queries * (case == c) for c in (_FULL, _FORCED, _TRUNCATED)))
        return _mix(node.support, counts, tgt, alpha)

    def gain(self, rows: Dataset, parent: Distribution, cand: _Screened):
        """cand's condition and exact information gain."""
        node, cands, i = self.node, cand.cands, cand.i
        cond = SplitCondition(cands.attr.name, cands.op, cands.thresholds[i])
        p_left = self.split_prob(rows, cond, i, cand.knowledge)
        left = None if cand.left is None else cand.left()
        right = None if cand.right is None else cand.right()
        if left is None or right is None:
            mask, tmask = cands.masks(i)
            if left is None:
                left = node.estimate(mask, node.path.extend(cond), tmask)
            if right is None:
                right = node.estimate(~mask, node.path.extend(cond.negate()),
                                      None if tmask is None else ~tmask)
        return cond, information_gain(parent, p_left, left, right)

    def fallback(self, attr: Attribute | None):
        """The cumulative target counts along the value axis and the alpha
        of the subpath that the node (attr None) or a child of attr falls
        back to, None when none is answerable, False when it keeps attr's
        own conditions (the tables cannot answer those)."""
        order, node = self.order, self.node
        adds = attr is not None and attr.name not in order
        # the node itself, a child that adds attr to the path, or one on it
        key = None if attr is None else "" if adds else attr.name
        if key in self.fallbacks:
            return self.fallbacks[key]
        n_attrs = len(order) + adds
        found = None
        for j in range(n_attrs - 1, -1, -1):
            if len({node.pivot.name, *order[:j]}) > node.ks.arity_limit:
                continue
            if key and j > order.index(key):
                found = False
                break
            cum, m = self.prefix_target(j)
            if m:
                found = cum, Fraction(n_attrs - j, n_attrs)
                break
        self.fallbacks[key] = found
        return found

    def prefix_target(self, j: int) -> tuple[np.ndarray, int]:
        """Counts, cumulative along the value axis from 0, and row count of
        the target rows on the node path's conditions on its first j
        distinct attributes."""
        if j not in self.prefix_targets:
            node = self.node
            if j == len(self.order):
                rows, index = node.target, self.tindex
            else:
                allowed = set(self.order[:j])
                rows = node.ks.sample_rows(
                    Path(tuple(c for c in node.path.conditions if c.attribute in allowed)))
                index = self.index(_pivot_values(rows, node.pivot))
            counts = np.bincount(index, minlength=self.n_values)
            self.prefix_targets[j] = np.concatenate([[0], counts.cumsum()]), rows.n
        return self.prefix_targets[j]


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


def _decile_cells(values: np.ndarray, pooled: np.ndarray, counts: np.ndarray,
                  tcounts: np.ndarray) -> _Cells:
    """The cells of children under a continuous pivot: between the edges
    `_continuous_bin_edges` takes of each child's values pooled with those
    counted in `pooled`, as `_Node.estimate` cuts them. Every child gets ten
    cells; those of the edges it drops are empty and not kept.

    `values` are the distinct pivot values, ascending, and `pooled` the
    cumulative count of the pool at each. Row i of `counts` holds child i's
    (value × class) counts and of `tcounts` its target rows' value counts.
    A bound is the number of values at or below a cell's upper edge; the
    bounds run from 0 to len(values).
    """
    n, n_values, k = counts.shape
    cum = np.zeros((n, n_values + 1, k), dtype=np.int64)
    np.cumsum(counts, axis=1, out=cum[:, 1:])
    tcum = np.zeros((n, n_values + 1), dtype=np.int64)
    np.cumsum(tcounts, axis=1, out=tcum[:, 1:])
    edges, kept = _decile_edges(values, cum[:, 1:].sum(axis=2) + pooled)
    # a dropped edge takes the rank of the one kept before it: its cell is empty
    ranks = values.searchsorted(np.maximum.accumulate(edges, axis=1), side="right")
    bounds = np.column_stack([np.zeros(n, dtype=ranks.dtype), ranks,
                              np.full(n, n_values, dtype=ranks.dtype)])
    kept = np.column_stack([np.ones(n, dtype=bool), kept, np.ones(n, dtype=bool)])
    rows = np.arange(n)[:, None]
    # a continuous pivot queries the cells' upper edges but the last
    return _Cells(np.diff(cum[rows, bounds], axis=1), np.diff(tcum[rows, bounds], axis=1),
                  bounds, kept, kept.sum(axis=1) - 2)


def _decile_edges(values: np.ndarray, pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nine deciles of each row's values, as `_continuous_bin_edges`
    computes them, and which of them it keeps.

    `values` are distinct and ascending; row i of `pooled` holds the number
    of row i's values at or below each of them. The order statistics of all
    rows come from one search of the rows' counts laid end to end, and the
    interpolation is that of `_continuous_bin_edges`, operation for
    operation.
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
    source = counts.sum(axis=2)
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
    return -(q * np.log2(q, out=np.zeros_like(q), where=q > 0)).sum(axis=1)


def _cumulative_counts(keys: np.ndarray, shape: tuple) -> np.ndarray:
    """Counts of each key in range(prod(shape)), as an array of `shape`
    summed along the first axis."""
    return np.bincount(keys, minlength=math.prod(shape)).reshape(shape).cumsum(axis=0)


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
    return node.estimate(slice(None), path, slice(None))


def best_split(node_rows: Dataset, path: Path, ks: KnowledgeStore,
               x_w: str | None, config: TreeConfig, n_train: int,
               diagnostics: dict) -> tuple[SplitCondition, float] | None:
    """Maximum-gain candidate, or None when no admissible split improves.

    First strict maximum wins, so ties resolve to schema attribute order and
    then ascending threshold — induction is deterministic without randomness.

    A node's rows are counted into (candidate × pivot value × class)
    tables, for blocks of admissible candidates: one over the values of all
    discrete attributes, and one per continuous attribute whose left rows
    are summed along its midpoints (exact prefix sums). A candidate's right
    child is the node minus its left (histogram subtraction), and target
    rows get the same (candidate × value) tables. A discrete pivot's values
    are its cells; a continuous pivot's values are the distinct ones of the
    node and the target sample, and every child's decile cells and their
    counts are read from prefix sums along them at once (`_decile_cells`).
    The node's own distribution comes from the tables' totals. The subpath
    and alpha that answer p_left, and the pivot queries when the full path
    cannot, are resolved once per node (see `_Splits`).

    Every candidate's gain is first screened in float64 from the tables;
    only those whose float gain lies within 2δ (`_SCREEN_TOL`) of the best
    one, or that the tables cannot answer, get the exact gain, in
    schema-then-threshold order. Float and exact gains differ by far less
    than δ, so the exact maximum and its first occurrence are among them. A
    child falls back to `_Node.estimate` on its own rows where the tables
    cannot answer it: a fixed alpha, a store of cross-tables or CDFs, or a
    subpath that keeps the candidate's own condition. All exact counts are
    integers, so every probability equals that of counting each
    candidate's rows.
    """
    node = _Node(node_rows, path, x_w, ks, config, diagnostics)
    splits = _Splits(node, node_rows, config.min_node_fraction * n_train)
    parent = splits.parent() if splits.tabled else node.estimate(slice(None), path, slice(None))
    best: tuple[SplitCondition, float] | None = None
    for cand in splits.search(node_rows, entropy(parent)):
        cond, ig = splits.gain(node_rows, parent, cand)
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
