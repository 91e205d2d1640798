"""Golden digests of grown trees under every knowledge regime.

Each case grows one tree and compares a digest of its full JSON document
(conditions, thresholds, gains, leaf probabilities, row counts, pivot and the
diagnostics counters) with a digest recorded from the straightforward
per-candidate implementation. The self-adaptation identity only covers
target = source; these cases pin the trees where target != source: shifted
samples, partial arities, cross-tables with CDFs, a fixed alpha, discrete and
continuous pivots, pivot cells with no source rows, and subpaths that
truncate because the target has no mass there.

`STRUCTURE` holds digests of the same documents without their diagnostics
counters, so that a change of what the counters count shows every tree
otherwise unchanged. Each leaf's distribution is also checked against the
estimate of its own path's source rows.

To re-record after an intended change of the trees, run

    PYTHONPATH=src:tests python -c "import test_golden_trees as g; g.print_digests()"
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np
import pytest

from dadt.data import Attribute, Dataset, Schema, filter_by_path
from dadt.harness import SynthConfig, generate_synthetic
from dadt.knowledge import (
    NAMED_REGIMES,
    KnowledgeRegime,
    KnowledgeStore,
    build_from_target_sample,
    load_from_crosstabs,
)
from dadt.tree import TreeConfig, estimate_class_dist, grow, tree_to_json

from conftest import random_dataset, random_mixed_schema

LEVELS = ("a", "b", "c")


def _mixed_schema() -> Schema:
    return Schema(
        predictive=(Attribute("C1", "continuous"), Attribute("D1", "discrete", LEVELS),
                    Attribute("C2", "continuous"), Attribute("D2", "discrete", ("0", "1"))),
        class_attr=Attribute("Y", "discrete", ("0", "1")),
        protected_attr="D2")


def _mixed(seed: int, n: int, target: bool, level_p=None, c1_floor=None) -> Dataset:
    """Covariate-shifted mixed rows; continuous values on a 0.1 grid (ties)."""
    rng = np.random.default_rng([seed, int(target)])
    means = (0.6, -0.4) if target else (0.0, 0.0)
    if level_p is None:
        level_p = (0.2, 0.3, 0.5) if target else (0.5, 0.3, 0.2)
    cont = np.round(rng.normal(means, 1.0, size=(n, 2)), 1)
    if c1_floor is not None:
        cont[:, 0] = np.maximum(cont[:, 0], c1_floor)
    d1 = rng.choice(3, size=n, p=level_p)
    d2 = (rng.random(n) < (0.3 if target else 0.5)).astype(int)
    logit = 1.5 * cont[:, 0] - cont[:, 1] + np.array([0.8, 0.0, -0.8])[d1] + 0.5 * d2
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
    labels = np.array(("0", "1"), dtype=object)
    return Dataset(_mixed_schema(), {
        "C1": cont[:, 0].copy(), "C2": cont[:, 1].copy(),
        "D1": np.array(LEVELS, dtype=object)[d1], "D2": labels[d2], "Y": labels[y]})


def _mixed_pair(seed: int, **target_kw):
    return _mixed(seed, 160, False), _mixed(seed, 160, True, **target_kw)


def _synth_pair(seed: int):
    s, t, _ = generate_synthetic(SynthConfig(
        n_source=300, n_target=300, n_attrs=5, target_correlation=0.9,
        label_noise=0.1, covshift_violation=0.25, seed=seed))
    return s, t


def _random_pair(seed: int):
    rng = np.random.default_rng(seed)
    schema = random_mixed_schema(rng, max_attrs=4)
    return random_dataset(rng, schema, 150), random_dataset(rng, schema, 150)


def _crosstab_doc(target: Dataset, cdf_vars=("C1", "C2")) -> dict:
    """Tables, CDFs (marginal and per D2 value) and class conditionals of a sample."""
    d1, d2 = target.column("D1"), target.column("D2")
    y = target.class_column()
    n = target.n
    tables = [
        {"vars": ["D1"], "cells": [{"key": [a], "p": float(np.sum(d1 == a)) / n}
                                   for a in LEVELS]},
        {"vars": ["D1", "D2"], "cells": [
            {"key": [a, b], "p": float(np.sum((d1 == a) & (d2 == b))) / n}
            for a in LEVELS for b in ("0", "1")]},
    ]

    def knots(values):
        vals = np.sort(values)
        uniq = np.unique(vals)
        return [[float(v), float(np.searchsorted(vals, v, side="right")) / len(vals)]
                for v in uniq]

    cdfs = []
    for var in cdf_vars:
        col = target.column(var)
        cdfs.append({"var": var, "knots": knots(col)})
        for b in ("0", "1"):
            cdfs.append({"var": var, "context": [["D2", b]], "knots": knots(col[d2 == b])})
    class_conditionals = []
    for var, dom in (("D1", LEVELS), ("D2", ("0", "1"))):
        col = target.column(var)
        marginal = {v: float(np.sum(col == v)) / n for v in dom}
        y_given_x = {v: {c: float(np.sum((col == v) & (y == c))) / float(np.sum(col == v))
                         for c in ("0", "1")}
                     for v in dom if np.any(col == v)}
        class_conditionals.append({"var": var, "marginal": marginal, "y_given_x": y_given_x})
    return {"tables": tables, "cdfs": cdfs, "class_conditionals": class_conditionals}


def _store(source: Dataset, target: Dataset, regime: str) -> KnowledgeStore:
    if regime == "self":
        return build_from_target_sample(source, KnowledgeRegime.full())
    if regime == "crosstab":
        return load_from_crosstabs(_crosstab_doc(target), source.schema)
    if regime == "crosstab-no-C2":  # C2 queries cannot be answered at all
        return load_from_crosstabs(_crosstab_doc(target, ("C1",)), source.schema)
    if regime == "ntdk":
        return KnowledgeStore.empty(source.schema)
    return build_from_target_sample(target, NAMED_REGIMES[regime])


def _case(pair, regime: str, **config):
    return pair, regime, config


CASES = {
    **{f"mixed{s}-{r}": _case(("mixed", s), r)
       for s in (0, 1, 2) for r in ("ntdk", "ftdk", "ptdk2", "ptdk3")},
    **{f"synth{s}-{r}": _case(("synth", s), r)
       for s in (0, 1) for r in ("ntdk", "ftdk", "ptdk2", "ptdk3")},
    **{f"random{s}-{r}": _case(("random", s), r)
       for s in (0, 1, 2) for r in ("ftdk", "ptdk2")},
    "mixed0-self": _case(("mixed", 0), "self"),
    "synth0-self": _case(("synth", 0), "self"),
    "random0-self": _case(("random", 0), "self"),
    "mixed0-ftdk-alpha": _case(("mixed", 0), "ftdk", alpha_override=0.3),
    "mixed1-ptdk2-alpha": _case(("mixed", 1), "ptdk2", alpha_override=0.3),
    "mixed0-crosstab-alpha": _case(("mixed", 0), "crosstab", alpha_override=0.3,
                                   x_w_override="C1"),
    "mixed0-ftdk-pivot-D1": _case(("mixed", 0), "ftdk", x_w_override="D1"),
    "mixed1-ptdk2-pivot-D1": _case(("mixed", 1), "ptdk2", x_w_override="D1"),
    "mixed0-ftdk-pivot-C2": _case(("mixed", 0), "ftdk", x_w_override="C2"),
    "mixed0-crosstab": _case(("mixed", 0), "crosstab"),
    "mixed1-crosstab-pivot-C1": _case(("mixed", 1), "crosstab", x_w_override="C1"),
    "mixed2-crosstab-no-C2": _case(("mixed", 2), "crosstab-no-C2", x_w_override="C1"),
    # the source never takes D1 = c, so that pivot cell has no source rows
    "nosrc-c-ftdk": _case(("source-without-c", 0), "ftdk", x_w_override="D1"),
    "nosrc-c-ptdk2": _case(("source-without-c", 1), "ptdk2", x_w_override="D1"),
    # the target never takes D1 = c nor C1 < -0.3: subpaths lose all mass
    "notgt-c-ftdk": _case(("target-without-c", 0), "ftdk"),
    "notgt-c-ptdk3": _case(("target-without-c", 1), "ptdk3", x_w_override="D1"),
    "notgt-low-ftdk": _case(("target-c1-floor", 2), "ftdk"),
}


def _pair(kind: str, seed: int):
    if kind == "mixed":
        return _mixed_pair(seed)
    if kind == "synth":
        return _synth_pair(seed)
    if kind == "random":
        return _random_pair(seed)
    if kind == "source-without-c":
        return (_mixed(seed, 160, False, level_p=(0.6, 0.4, 0.0)),
                _mixed(seed, 160, True))
    if kind == "target-without-c":
        return _mixed_pair(seed, level_p=(0.5, 0.5, 0.0))
    if kind == "target-c1-floor":
        return _mixed_pair(seed, c1_floor=-0.3)
    raise KeyError(kind)


@functools.cache
def _grown(case_id: str):
    """The case's source rows, store, config and grown tree."""
    (kind, seed), regime, config = CASES[case_id]
    source, target = _pair(kind, seed)
    ks = _store(source, target, regime)
    config = TreeConfig(**config)
    return source, ks, config, grow(source, ks, config)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def tree_digest(case_id: str) -> str:
    return _digest(tree_to_json(_grown(case_id)[3]))


def structure_digest(case_id: str) -> str:
    """Digest of the case's tree document without its diagnostics."""
    doc = json.loads(tree_to_json(_grown(case_id)[3]))
    del doc["diagnostics"]
    return _digest(json.dumps(doc, indent=2, sort_keys=True))


def print_digests() -> None:
    for name, digest in (("GOLDEN", tree_digest), ("STRUCTURE", structure_digest)):
        print(f"{name} = {{")
        for case_id in CASES:
            print(f'    "{case_id}": "{digest(case_id)}",')
        print("}")


GOLDEN = {
    "mixed0-ntdk": "a3a8a4a9b087a892",
    "mixed0-ftdk": "d85409c6f1e3cc22",
    "mixed0-ptdk2": "462586efa681b8a8",
    "mixed0-ptdk3": "f277a710d051f3a2",
    "mixed1-ntdk": "6cc01072c3f464c9",
    "mixed1-ftdk": "8350aa20eb938a50",
    "mixed1-ptdk2": "565abc26cd6375cc",
    "mixed1-ptdk3": "8fdda242d32d317e",
    "mixed2-ntdk": "1f0536fec0459b76",
    "mixed2-ftdk": "28826aec7a60b90f",
    "mixed2-ptdk2": "adc409f71e8b4d4d",
    "mixed2-ptdk3": "bd837222cdf6f59a",
    "synth0-ntdk": "5d9d034c48e45d87",
    "synth0-ftdk": "7babcf4dfcefad80",
    "synth0-ptdk2": "1a3ab024566d0890",
    "synth0-ptdk3": "17ecdd2733b798b2",
    "synth1-ntdk": "22cd4d24f6402aef",
    "synth1-ftdk": "7a259e213c2c32cb",
    "synth1-ptdk2": "f3cf49dfee829903",
    "synth1-ptdk3": "a8fb3ff1bb18a119",
    "random0-ftdk": "c347c7d64375270c",
    "random0-ptdk2": "fbd1e76941078b6f",
    "random1-ftdk": "ba262bd4688469ab",
    "random1-ptdk2": "7eb741993e7cebf5",
    "random2-ftdk": "8cb55aa64c4e30cf",
    "random2-ptdk2": "ba47d885854f7850",
    "mixed0-self": "f18fe6f492d25e0f",
    "synth0-self": "b7ba41e3129e40e1",
    "random0-self": "42c78aaf8f28a985",
    "mixed0-ftdk-alpha": "7f0bc7df96be44c8",
    "mixed1-ptdk2-alpha": "a976940d40bf9fd3",
    "mixed0-crosstab-alpha": "8e3def1e22e8bffa",
    "mixed0-ftdk-pivot-D1": "7e50dcb69f637899",
    "mixed1-ptdk2-pivot-D1": "00f0ec75b23799cf",
    "mixed0-ftdk-pivot-C2": "9f9edd3e69844484",
    "mixed0-crosstab": "7d5e79bb5c3ef0de",
    "mixed1-crosstab-pivot-C1": "6a294b420e29375d",
    "mixed2-crosstab-no-C2": "01ed37948f73f416",
    "nosrc-c-ftdk": "6c7750556b846acd",
    "nosrc-c-ptdk2": "a1561db348550745",
    "notgt-c-ftdk": "bd6b9d6e4e8a021b",
    "notgt-c-ptdk3": "62c26089fedf78ee",
    "notgt-low-ftdk": "e31270f29888e945",
}

STRUCTURE = {
    "mixed0-ntdk": "38ccbad8de1b745a",
    "mixed0-ftdk": "6f891a4b7fd06f06",
    "mixed0-ptdk2": "19a4ecaf7493b900",
    "mixed0-ptdk3": "fd482fd09ca1d8e3",
    "mixed1-ntdk": "e8561e5ac42c8606",
    "mixed1-ftdk": "8b569f628e5486c0",
    "mixed1-ptdk2": "b5496e93d1dfe424",
    "mixed1-ptdk3": "24dc5375cdf713eb",
    "mixed2-ntdk": "e03991276980c946",
    "mixed2-ftdk": "3d2d1abedadda32b",
    "mixed2-ptdk2": "44698314a1485ea5",
    "mixed2-ptdk3": "3d2d1abedadda32b",
    "synth0-ntdk": "78ee993adc4e184a",
    "synth0-ftdk": "eccb444e984e4ed9",
    "synth0-ptdk2": "dfb3323bf4a570e5",
    "synth0-ptdk3": "e5370cbc38758e6e",
    "synth1-ntdk": "9062b36026fe03d3",
    "synth1-ftdk": "4fcd2deccf2c5812",
    "synth1-ptdk2": "dfa6252d71ceda63",
    "synth1-ptdk3": "b4a746bcd2459927",
    "random0-ftdk": "76796e4fd0d98877",
    "random0-ptdk2": "75e78556868ceb09",
    "random1-ftdk": "f4fce30782788b85",
    "random1-ptdk2": "4b3af41afda429df",
    "random2-ftdk": "952019490ba52a57",
    "random2-ptdk2": "c851b0bdcc140215",
    "mixed0-self": "2f550968c3e9d6c7",
    "synth0-self": "ae034cbd41f1de63",
    "random0-self": "ea9f6fcce5c6a575",
    "mixed0-ftdk-alpha": "445d168b88af2809",
    "mixed1-ptdk2-alpha": "8122c365b03e8a34",
    "mixed0-crosstab-alpha": "2bddbca758a1a0d8",
    "mixed0-ftdk-pivot-D1": "381b8c42e60638b7",
    "mixed1-ptdk2-pivot-D1": "7d6f9410c6858e29",
    "mixed0-ftdk-pivot-C2": "5cca7028566f199a",
    "mixed0-crosstab": "484557ebb54bcc8f",
    "mixed1-crosstab-pivot-C1": "9d4de04e18f33bd0",
    "mixed2-crosstab-no-C2": "8e044ba70c0cc878",
    "nosrc-c-ftdk": "ffe190aa83dc9669",
    "nosrc-c-ptdk2": "d2b28ff5b4241e4e",
    "notgt-c-ftdk": "8a775c2311c4bf00",
    "notgt-c-ptdk3": "841c6cf735b47982",
    "notgt-low-ftdk": "ce5afb0a77857157",
}


@pytest.mark.parametrize("case_id", list(CASES))
def test_tree_digest(case_id):
    assert tree_digest(case_id) == GOLDEN[case_id]


@pytest.mark.parametrize("case_id", list(CASES))
def test_tree_structure_digest(case_id):
    assert structure_digest(case_id) == STRUCTURE[case_id]


@pytest.mark.parametrize("case_id", list(CASES))
def test_leaves_equal_their_paths_estimate(case_id):
    """Each leaf holds the class distribution that `estimate_class_dist`
    gives its path's source rows."""
    source, ks, config, tree = _grown(case_id)
    for leaf in tree.leaves():
        rows = filter_by_path(source, leaf.path)
        assert leaf.n_source_rows == rows.n
        assert leaf.class_dist == estimate_class_dist(rows, leaf.path, tree.x_w, ks, config)
