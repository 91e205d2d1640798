"""The continuous-pivot kernel of the split search.

Every split candidate's children under a continuous pivot are cut into the
deciles of the child's pivot values pooled with the target sample. The split
search takes those deciles, and the cells' counts, for all candidates at
once from prefix sums along the pivot's distinct values; here they are
checked against `np.quantile` and `searchsorted` on each child's own values. The tables are built in blocks, so their memory does not grow
with the number of candidates. The children of all attributes are screened
in one pass, in batches that may hold several attributes' children and cut
one attribute's. With a target sample and the dynamic alpha every child
comes from the tables, those re-split on an attribute already on the node
path included.
"""

from __future__ import annotations

import collections
import itertools
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset, random_mixed_schema
from dadt.data import EMPTY_PATH, Attribute, Dataset, Schema
from dadt.knowledge import NAMED_REGIMES, KnowledgeRegime, build_from_target_sample
from dadt.tree import (
    Internal,
    TreeConfig,
    _decile_cells,
    _decile_edges,
    _Node,
    best_split,
    estimate_class_dist,
    grow,
    tree_to_json,
)


def _quantile_edges(values: np.ndarray) -> list[float]:
    """np.quantile's deciles of values, each kept when it lies above the
    last one kept."""
    edges: list[float] = []
    for q in np.quantile(values, np.linspace(0.1, 0.9, 9)):
        if not edges or float(q) > edges[-1]:
            edges.append(float(q))
    return edges


def _draw(rng, n: int, grid: float | None, spread: float) -> np.ndarray:
    x = rng.normal(0.0, spread, size=n)
    return x if grid is None else np.round(x / grid) * grid


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(seed=st.integers(0, 2**32 - 1), grid=st.sampled_from([0.05, 0.3, None]),
       spread=st.sampled_from([0.1, 1.0, 4.0]), n_node=st.integers(1, 80),
       n_pool=st.sampled_from([0, 1, 2, 9, 40, 150]), k=st.integers(1, 3))
def test_decile_cells_equal_each_childs_own_edges(seed, grid, spread, n_node, n_pool, k):
    """Left children are random subsets of the node's rows, the first one a
    single row, with random subsets of the pool as target rows; each right
    child that holds a row is the node minus its left child, and its prefix
    table the node's minus the left's, as the split search takes it. A
    narrow spread on a coarse grid gives tied values and duplicate deciles."""
    rng = np.random.default_rng(seed)
    node = _draw(rng, n_node, grid, spread)
    pool = _draw(rng, n_pool, grid, spread)
    y = rng.integers(0, k, size=n_node)
    values = np.unique(np.concatenate([node, pool]))
    pooled = np.bincount(values.searchsorted(pool), minlength=len(values)).cumsum()
    index = values.searchsorted(node)
    tindex = values.searchsorted(pool)
    lefts = [rng.choice(n_node, size=1, replace=False)] + [
        rng.choice(n_node, size=rng.integers(1, n_node + 1), replace=False) for _ in range(6)]
    ltargets = [rng.random(n_pool) < rng.random() for _ in lefts]

    def prefix(counts):
        out = np.zeros((len(counts), len(values) + 1) + counts.shape[2:], dtype=np.int64)
        out[:, 1:] = counts.cumsum(axis=1)
        return out

    lcum = prefix(np.stack([np.bincount(index[c] * k + y[c], minlength=len(values) * k)
                            .reshape(len(values), k) for c in lefts]))
    ltcum = prefix(np.stack([np.bincount(tindex[t], minlength=len(values)) for t in ltargets]))
    node_cum = prefix(np.bincount(index * k + y, minlength=len(values) * k)
                      .reshape(1, len(values), k))
    pool_cum = prefix(np.bincount(tindex, minlength=len(values))[None])
    right = [i for i, c in enumerate(lefts) if len(c) < n_node]
    children = lefts + [np.setdiff1d(np.arange(n_node), lefts[i]) for i in right]
    targets = ltargets + [~ltargets[i] for i in right]
    cum = np.concatenate([lcum, node_cum - lcum[right]])
    tcum = np.concatenate([ltcum, pool_cum - ltcum[right]])

    edges, kept = _decile_edges(values, cum[:, 1:].sum(axis=2) + pooled)
    cells = _decile_cells(values, pooled, cum, tcum)
    for i, (c, t) in enumerate(zip(children, targets)):
        expected = _quantile_edges(np.concatenate([node[c], pool]))
        assert edges[i][kept[i]].tolist() == expected
        cell = np.array(expected).searchsorted(node[c])
        n_cells = len(expected) + 1
        ends = np.searchsorted(np.sort(pool[t]), expected, side="right").tolist()
        assert cells[i] == (
            np.bincount(cell * k + y[c], minlength=n_cells * k).reshape(n_cells, k).tolist(),
            [hi - lo for lo, hi in zip([0] + ends, ends + [int(t.sum())])],
            [0] + values.searchsorted(expected, side="right").tolist() + [len(values)])


# Enough for blocked tables. Unblocked, one (threshold × value × class) table
# of this node takes about 1,400 × 3,000 × 2 × 8 bytes, some 70 MB.
_PEAK_MB = 16


def test_split_search_table_memory_is_bounded():
    rng = np.random.default_rng(5)
    schema = Schema(predictive=(Attribute("A", "continuous"), Attribute("B", "continuous")),
                    class_attr=Attribute("Y", "discrete", ("0", "1")))

    def draw(n: int, shift: float) -> Dataset:
        a = rng.normal(shift, 1.0, size=n)
        b = rng.normal(0.0, 1.0, size=n)
        y = np.where(a + b + rng.normal(size=n) > 0, "1", "0").astype(object)
        return Dataset(schema, {"A": a, "B": b, "Y": y})

    source, target = draw(1500, 0.0), draw(1500, 0.5)
    ks = build_from_target_sample(target, KnowledgeRegime.full())
    config = TreeConfig(x_w_override="A")
    tracemalloc.start()
    try:
        parent = estimate_class_dist(source, EMPTY_PATH, "A", ks, config)
        found = best_split(source, EMPTY_PATH, ks, "A", config, source.n, {}, parent)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is not None
    assert peak < _PEAK_MB * 2**20, f"peak {peak / 2**20:.1f} MB"


def _resplits_continuous(tree) -> bool:
    """Whether some split is on a continuous attribute that a split above
    it is on too."""
    stack = [(tree.root, frozenset())]
    while stack:
        node, above = stack.pop()
        if isinstance(node, Internal):
            name = node.condition.attribute
            if name in above and not tree.schema.attribute(name).is_discrete:
                return True
            stack += [(node.left, above | {name}), (node.right, above | {name})]
    return False


def test_sample_store_children_come_from_the_tables():
    """Under full and partial knowledge of a target sample, with the
    dynamic alpha or a fixed one, `grow` estimates the root alone from its
    own rows; every other node's distribution, re-split children's
    included, comes from its parent's count tables."""
    calls = []
    original = _Node.estimate

    def estimate(node, *args):
        calls.append(node.path)
        return original(node, *args)

    resplit = False
    with mock.patch.object(_Node, "estimate", estimate):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            schema = random_mixed_schema(rng)
            source, target = random_dataset(rng, schema, 300), random_dataset(rng, schema, 300)
            for regime, alpha in itertools.product(("ftdk", "ptdk2", "ptdk3"), (None, 0.3)):
                calls.clear()
                tree = grow(source, build_from_target_sample(target, NAMED_REGIMES[regime]),
                            TreeConfig(alpha_override=alpha))
                assert calls == [EMPTY_PATH], (seed, regime, alpha)
                resplit |= _resplits_continuous(tree)
    assert resplit


def test_discrete_blocks_above_key_0_give_the_same_trees(monkeypatch):
    """Tables small enough to cut the discrete attributes' key range into
    blocks of a few keys, most of them starting above key 0, give every
    tree the one-block tables give, under a continuous pivot and without
    one; the blocks are checked to occur."""
    from dadt import tree as tree_module

    def draw_schema(rng) -> Schema:
        attrs = [Attribute(f"D{i}", "discrete", tuple(f"v{j}" for j in range(arity)))
                 for i, arity in enumerate(rng.integers(2, 5, size=int(rng.integers(2, 5))))]
        attrs.insert(int(rng.integers(len(attrs) + 1)), Attribute("C", "continuous"))
        return Schema(predictive=tuple(attrs),
                      class_attr=Attribute("Y", "discrete", ("no", "yes")))

    cases = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        schema = draw_schema(rng)
        source, target = random_dataset(rng, schema, 250), random_dataset(rng, schema, 250)
        for regime in ("ntdk", "ftdk", "ptdk2"):
            ks = build_from_target_sample(target, NAMED_REGIMES[regime])
            config = TreeConfig(x_w_override="C")
            cases.append((source, ks, config, tree_to_json(grow(source, ks, config))))

    starts = []
    original = tree_module._block_counts

    def block_counts(keys, cells, a, b, n_keys, cumulative, shape):
        if not cumulative:
            starts.append(a)
        return original(keys, cells, a, b, n_keys, cumulative, shape)

    monkeypatch.setattr(tree_module, "_block_counts", block_counts)
    for table_cells in (1, 4_000, 12_000):
        monkeypatch.setattr(tree_module, "_TABLE_CELLS", table_cells)
        for source, ks, config, expected in cases:
            assert tree_to_json(grow(source, ks, config)) == expected, table_cells
    assert sum(a > 0 for a in starts) > len(starts) / 2


def _mixed_pair(rng, n_continuous: int, n_discrete: int, n_rows: int):
    """A source and a target sample on n_continuous continuous attributes
    C0, ... followed by n_discrete discrete ones D0, ... of arity 2 to 4."""
    attrs = [Attribute(f"C{i}", "continuous") for i in range(n_continuous)]
    attrs += [Attribute(f"D{i}", "discrete", tuple(f"v{j}" for j in range(arity)))
              for i, arity in enumerate(rng.integers(2, 5, size=n_discrete))]
    schema = Schema(predictive=tuple(attrs),
                    class_attr=Attribute("Y", "discrete", ("no", "yes")))
    return random_dataset(rng, schema, n_rows), random_dataset(rng, schema, n_rows)


def test_one_screen_per_node():
    """Under a continuous pivot, the candidates of all attributes, three
    continuous and two discrete, are mixed and scored in one pass when they
    fit one batch: one call of the mixed-entropy kernel for the node."""
    from dadt import tree as tree_module

    calls = []
    original = tree_module._mixed_entropies

    def mixed_entropies(*args):
        calls.append(len(args[0]))
        return original(*args)

    rng = np.random.default_rng(3)
    source, target = _mixed_pair(rng, 3, 2, 30)
    ks = build_from_target_sample(target, NAMED_REGIMES["ftdk"])
    config = TreeConfig(x_w_override="C0")
    parent = estimate_class_dist(source, EMPTY_PATH, "C0", ks, config)
    with mock.patch.object(tree_module, "_mixed_entropies", mixed_entropies):
        found = best_split(source, EMPTY_PATH, ks, "C0", config, source.n, {}, parent)
    assert found is not None
    splits = tree_module._Splits(_Node(source, EMPTY_PATH, "C0", ks, config, {}), source,
                                 config.min_node_fraction * source.n)
    admissible = [len(splits.admissible(splits.candidates(attr, source).n_lefts))
                  for attr in source.schema.predictive]
    # every attribute has admissible candidates, and they fit one batch
    assert all(admissible), admissible
    assert sum(admissible) * splits.n_values * splits.k <= tree_module._TABLE_CELLS // 4
    assert calls == [2 * sum(admissible)], calls


def test_batches_across_attributes_give_the_same_trees(monkeypatch):
    """Tables small enough to cut the stacked children into batches of a
    few give every tree the default tables give, under full and partial
    knowledge and a continuous or a discrete pivot. Checked to occur: a
    batch that re-splits children on an attribute of the node path and
    holds children of attributes of two key ranges, and an attribute whose
    children are cut across batches."""
    from dadt import tree as tree_module

    cases = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        source, target = _mixed_pair(rng, 2, 3, 150)
        for regime, pivot in itertools.product(("ftdk", "ptdk2", "ptdk3"), ("C0", "D0")):
            ks = build_from_target_sample(target, NAMED_REGIMES[regime])
            config = TreeConfig(x_w_override=pivot)
            cases.append((source, ks, config, tree_to_json(grow(source, ks, config))))

    # per batch: its node's `_Splits`, the key ranges of its children's
    # attributes (a continuous attribute's name, or "discrete") and whether
    # it re-split; the spy keeps every node's `_Splits` alive
    batches = []
    resolve, resplit = tree_module._Splits.resolve, tree_module._Splits.resplit

    def spy_resolve(splits, entries, whose, cells, keys):
        attrs = {entries[w][1].attr for w in whose.tolist()}
        batches.append([splits, {"discrete" if a.is_discrete else a.name for a in attrs},
                        attrs, False])
        return resolve(splits, entries, whose, cells, keys)

    def spy_resplit(splits, *args):
        batches[-1][3] = True
        return resplit(splits, *args)

    monkeypatch.setattr(tree_module._Splits, "resolve", spy_resolve)
    monkeypatch.setattr(tree_module._Splits, "resplit", spy_resplit)
    for table_cells in (2_000, 6_000, 20_000):
        monkeypatch.setattr(tree_module, "_TABLE_CELLS", table_cells)
        for source, ks, config, expected in cases:
            assert tree_to_json(grow(source, ks, config)) == expected, table_cells
    assert any(len(ranges) > 1 and resplit for _, ranges, _, resplit in batches)
    batches_of = collections.defaultdict(set)
    for i, (splits, _, attrs, _) in enumerate(batches):
        for attr in attrs:
            batches_of[splits, attr.name].add(i)
    assert any(len(seen) > 1 for seen in batches_of.values())


def test_no_pivot_under_cross_tables_is_not_tabled():
    """Without a pivot, a store of cross-tables and CDFs answers p_left by
    a query per candidate, which no table counts: the node takes every
    candidate's exact gain, and splits as the per-candidate oracle does."""
    from test_split_oracle import _crosstab_store, _pair, _schema, oracle_best_split

    for seed in range(6):
        rng = np.random.default_rng(seed)
        schema = _schema("mixed", 4, 2, rng)
        source, target = _pair(schema, 150, 150, rng)
        ks = _crosstab_store(schema, target)
        config = TreeConfig()
        parent = estimate_class_dist(source, EMPTY_PATH, None, ks, config)
        args = (source, EMPTY_PATH, ks, None, config, source.n)
        assert best_split(*args, {}, parent) == oracle_best_split(*args, {}, parent), seed


def test_no_pivot_under_a_target_sample_splits_as_the_oracle():
    """Without a pivot, a target sample answers p_left from the node's
    target rows, built from the sample when the caller hands none down: at
    the root and at the paths below it, the split, its children and the
    diagnostics are the per-candidate oracle's."""
    from test_split_oracle import _pair, _schema, oracle_best_split

    below_root = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        schema = _schema("mixed", 4, 2, rng)
        source, target = _pair(schema, 150, 150, rng)
        for regime in ("ftdk", "ptdk2"):
            ks = build_from_target_sample(target, NAMED_REGIMES[regime])
            config = TreeConfig()
            rows, path = source, EMPTY_PATH
            for depth in range(4):
                parent = estimate_class_dist(rows, path, None, ks, config)
                args = (rows, path, ks, None, config, source.n)
                got, want = {}, {}
                found = best_split(*args, got, parent)
                assert found == oracle_best_split(*args, want, parent), (seed, regime, path)
                assert got == want, (seed, regime, path)
                if found is None:
                    break
                below_root += depth > 0
                # left at even depths, right at odd ones
                cond = found[0] if depth % 2 == 0 else found[0].negate()
                rows, path = rows.subset(rows.mask(cond)), path.extend(cond)
    assert below_root >= 20
