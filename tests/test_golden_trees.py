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
    "mixed0-ntdk": "2fb0c3e815aa7fe3",
    "mixed0-ftdk": "2f47517535939469",
    "mixed0-ptdk2": "0988648f5ccbb3f4",
    "mixed0-ptdk3": "cf534ec407452ad8",
    "mixed1-ntdk": "4b503cf4c33bbac2",
    "mixed1-ftdk": "75d68d1738170b4a",
    "mixed1-ptdk2": "384716c5f1a780c0",
    "mixed1-ptdk3": "e9633290fac61a6b",
    "mixed2-ntdk": "1d78b8eed59fcb54",
    "mixed2-ftdk": "0450c8aa8a6c68c6",
    "mixed2-ptdk2": "e0a157e580af403d",
    "mixed2-ptdk3": "f2ed09db6bfee5f9",
    "synth0-ntdk": "93c3b2a797875568",
    "synth0-ftdk": "d7b46c4574163e02",
    "synth0-ptdk2": "fdfba9ae13dfb8bd",
    "synth0-ptdk3": "5315cecfe39af8f7",
    "synth1-ntdk": "6c8d21ea7447bea2",
    "synth1-ftdk": "73c1d9f154b76d85",
    "synth1-ptdk2": "d3203af6288562c0",
    "synth1-ptdk3": "ac9c1cb093e272d1",
    "random0-ftdk": "052b587d38581cd3",
    "random0-ptdk2": "bd01b773c798c1aa",
    "random1-ftdk": "901e09ad64027502",
    "random1-ptdk2": "13cd4d6f1b5ae57f",
    "random2-ftdk": "ecdbb552ecf3bd40",
    "random2-ptdk2": "d6fea296c501027c",
    "mixed0-self": "f5e0a2456cd30312",
    "synth0-self": "bf6d61c7e670dda9",
    "random0-self": "a2d2a894adfa1b82",
    "mixed0-ftdk-alpha": "48d83f9db2616ef3",
    "mixed1-ptdk2-alpha": "d7916e85ae423c60",
    "mixed0-crosstab-alpha": "c5d87acc2915b1f1",
    "mixed0-ftdk-pivot-D1": "fd07d05acc950640",
    "mixed1-ptdk2-pivot-D1": "909fc06cc0fdd9eb",
    "mixed0-ftdk-pivot-C2": "c7fb3e1a6dae9002",
    "mixed0-crosstab": "23a3ee7ebd2b265b",
    "mixed1-crosstab-pivot-C1": "0d293fdec5092fdd",
    "mixed2-crosstab-no-C2": "4f7d01f1757bee65",
    "nosrc-c-ftdk": "da93ca566a4664d2",
    "nosrc-c-ptdk2": "379c15a3b7944068",
    "notgt-c-ftdk": "9949e6efe72ce396",
    "notgt-c-ptdk3": "f5f43baae9ea894d",
    "notgt-low-ftdk": "ebcb107041bb6e99",
}

STRUCTURE = {
    "mixed0-ntdk": "15008ddb2d34cd6f",
    "mixed0-ftdk": "d77061dc1c595089",
    "mixed0-ptdk2": "f2c916179cc1eaf2",
    "mixed0-ptdk3": "16d370d75ddbe2a6",
    "mixed1-ntdk": "55c9a33f8cc9660a",
    "mixed1-ftdk": "067a7c9bbf107219",
    "mixed1-ptdk2": "9c172cfb9b5c5b5d",
    "mixed1-ptdk3": "8689c11bb13610db",
    "mixed2-ntdk": "1dee75b60a1a7767",
    "mixed2-ftdk": "de1da6ea2d348373",
    "mixed2-ptdk2": "b47ceedd590205d5",
    "mixed2-ptdk3": "de1da6ea2d348373",
    "synth0-ntdk": "2adde7c5eda1c4ca",
    "synth0-ftdk": "88f92eddb2dfee79",
    "synth0-ptdk2": "0435f1e67130566c",
    "synth0-ptdk3": "1ba18557dce42841",
    "synth1-ntdk": "3ff2f5f5ca12edeb",
    "synth1-ftdk": "3af72e324a1ec7b1",
    "synth1-ptdk2": "4b54e7fbec78390c",
    "synth1-ptdk3": "2061639bf50797b3",
    "random0-ftdk": "86fc79f4a29fd711",
    "random0-ptdk2": "6705ad188c3b1862",
    "random1-ftdk": "146a7890ba2cbb5e",
    "random1-ptdk2": "1a8d7db4784811ca",
    "random2-ftdk": "7deabf9ced90fe27",
    "random2-ptdk2": "0d398bcb023782c6",
    "mixed0-self": "22e2a92c84b28aa8",
    "synth0-self": "4bdea4287ed65cbd",
    "random0-self": "8d52d7f4237127f4",
    "mixed0-ftdk-alpha": "46497d442d95ab9f",
    "mixed1-ptdk2-alpha": "b92b5ad27fcda1f5",
    "mixed0-crosstab-alpha": "0e6ee59af1869298",
    "mixed0-ftdk-pivot-D1": "7f3a90aef14f0dca",
    "mixed1-ptdk2-pivot-D1": "fd8c8975ed180792",
    "mixed0-ftdk-pivot-C2": "fd9fefbfcf8dbaa6",
    "mixed0-crosstab": "1b4ffdb8f133614f",
    "mixed1-crosstab-pivot-C1": "2bb2af3bb0e2fefe",
    "mixed2-crosstab-no-C2": "b609747c79bd0f77",
    "nosrc-c-ftdk": "164dfdf2032a195f",
    "nosrc-c-ptdk2": "4acf2bbd1ed1efdd",
    "notgt-c-ftdk": "33082f306ca29452",
    "notgt-c-ptdk3": "5ba75da56105f34a",
    "notgt-low-ftdk": "4d1e48603675650e",
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
