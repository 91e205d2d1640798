"""Golden digests of grown trees under every knowledge regime.

Each case grows one tree and compares a digest of its full JSON document
(conditions, thresholds, gains, leaf probabilities, row counts, pivot and the
diagnostics counters) with a digest recorded from the straightforward
per-candidate implementation. The self-adaptation identity only covers
target = source; these cases pin the trees where target != source: shifted
samples, partial arities, cross-tables with CDFs, a fixed alpha, discrete and
continuous pivots, pivot cells with no source rows, and subpaths that
truncate because the target has no mass there.

To re-record after an intended change of the trees, run

    PYTHONPATH=src:tests python -c "import test_golden_trees as g; g.print_digests()"
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from dadt.data import Attribute, Dataset, Schema
from dadt.harness import SynthConfig, generate_synthetic
from dadt.knowledge import (
    NAMED_REGIMES,
    KnowledgeRegime,
    KnowledgeStore,
    build_from_target_sample,
    load_from_crosstabs,
)
from dadt.tree import TreeConfig, grow, tree_to_json

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


def tree_digest(case_id: str) -> str:
    (kind, seed), regime, config = CASES[case_id]
    source, target = _pair(kind, seed)
    tree = grow(source, _store(source, target, regime), TreeConfig(**config))
    return hashlib.sha256(tree_to_json(tree).encode("utf-8")).hexdigest()[:16]


def print_digests() -> None:
    for case_id in CASES:
        print(f'    "{case_id}": "{tree_digest(case_id)}",')


GOLDEN = {
    "mixed0-ntdk": "2fb0c3e815aa7fe3",
    "mixed0-ftdk": "cb1a1a85cefaaa2e",
    "mixed0-ptdk2": "0bc2c403c5b41d80",
    "mixed0-ptdk3": "f1b96d03b2383cb9",
    "mixed1-ntdk": "4b503cf4c33bbac2",
    "mixed1-ftdk": "3282447a498901fd",
    "mixed1-ptdk2": "2267b39ff807c8d6",
    "mixed1-ptdk3": "70a512542bb44c34",
    "mixed2-ntdk": "1d78b8eed59fcb54",
    "mixed2-ftdk": "716710ce34b9663c",
    "mixed2-ptdk2": "214283ed51fc7847",
    "mixed2-ptdk3": "3a7d1115820b215e",
    "synth0-ntdk": "93c3b2a797875568",
    "synth0-ftdk": "ba3a347db6d662ad",
    "synth0-ptdk2": "a0e8debfb15a291b",
    "synth0-ptdk3": "85872d7c4ceb51a0",
    "synth1-ntdk": "6c8d21ea7447bea2",
    "synth1-ftdk": "a0283ef0f495bad4",
    "synth1-ptdk2": "c4a63683c0f27cdc",
    "synth1-ptdk3": "4ea9e7515685d7e7",
    "random0-ftdk": "ecaf626b135dd6aa",
    "random0-ptdk2": "4a2c83a603b5897a",
    "random1-ftdk": "b0640f0151969833",
    "random1-ptdk2": "53b5ce37e9339832",
    "random2-ftdk": "5af7e8355aeba63d",
    "random2-ptdk2": "734c3ad8933086ad",
    "mixed0-self": "91e2f31663080cc5",
    "synth0-self": "3d8fc2032d89cdf3",
    "random0-self": "2ddb745e838c3037",
    "mixed0-ftdk-alpha": "fba7c254f9805522",
    "mixed1-ptdk2-alpha": "3e18a19e5188c802",
    "mixed0-crosstab-alpha": "b2a2a64ced68a698",
    "mixed0-ftdk-pivot-D1": "af5d83ba634b0263",
    "mixed1-ptdk2-pivot-D1": "38d8514609587f80",
    "mixed0-ftdk-pivot-C2": "58e63223a7b3205b",
    "mixed0-crosstab": "c00c9b85539313df",
    "mixed1-crosstab-pivot-C1": "7e7f782e4f8af2bd",
    "mixed2-crosstab-no-C2": "9e3f58af8967089c",
    "nosrc-c-ftdk": "b4f623effec247d9",
    "nosrc-c-ptdk2": "62a82721348d1b61",
    "notgt-c-ftdk": "8dac70859322e7ca",
    "notgt-c-ptdk3": "e5ae0c5a92329a40",
    "notgt-low-ftdk": "1eeeaaab44b811d3",
}


@pytest.mark.parametrize("case_id", list(CASES))
def test_tree_digest(case_id):
    assert tree_digest(case_id) == GOLDEN[case_id]
