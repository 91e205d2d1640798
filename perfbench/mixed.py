"""Seeded generator of mixed continuous/discrete source-target pairs.

The pair has covariate shift and nothing else: the target moves the means of
the continuous attributes and the marginals of the ternary ones, while
P(Y | X) is one logistic model shared by both domains. The protected
attribute is binary because the fairness metrics need exactly two groups.
"""

from __future__ import annotations

import numpy as np

from dadt.data import Attribute, Dataset, Schema

CONTINUOUS = ("C1", "C2", "C3")
TERNARY = ("D1", "D2", "D3")
PROTECTED = "S"
LEVELS = ("a", "b", "c")

_SOURCE_MEANS = np.array([0.0, 0.0, 0.0])
_TARGET_MEANS = np.array([0.75, -0.5, 0.5])
_SOURCE_LEVEL_P = (0.5, 0.3, 0.2)
_TARGET_LEVEL_P = (0.2, 0.3, 0.5)
_SOURCE_P_PROTECTED = 0.5
_TARGET_P_PROTECTED = 0.3
_CONTINUOUS_WEIGHTS = np.array([1.5, -1.0, 0.5])
_LEVEL_WEIGHTS = {"D1": (0.8, 0.0, -0.8), "D2": (0.0, 0.7, 0.0), "D3": (-0.4, 0.0, 0.6)}
_PROTECTED_WEIGHT = 0.5
# Continuous values sit on this grid, so the number of split candidates per
# attribute (one per distinct midpoint) barely changes with the seed.
_GRID = 0.05

# Independent streams of one seed; the first two are source-domain draws.
LARGE_SOURCE = 0
SOURCE = 1
TARGET = 2
SCORED = 3
_TARGET_STREAMS = (TARGET, SCORED)


def mixed_schema() -> Schema:
    attrs = tuple(Attribute(name, "continuous") for name in CONTINUOUS)
    attrs += tuple(Attribute(name, "discrete", LEVELS) for name in TERNARY)
    attrs += (Attribute(PROTECTED, "discrete", ("0", "1")),)
    return Schema(predictive=attrs,
                  class_attr=Attribute("Y", "discrete", ("0", "1")),
                  protected_attr=PROTECTED)


def _draw(rng: np.random.Generator, schema: Schema, n: int, target: bool) -> Dataset:
    means = _TARGET_MEANS if target else _SOURCE_MEANS
    level_p = _TARGET_LEVEL_P if target else _SOURCE_LEVEL_P
    p_protected = _TARGET_P_PROTECTED if target else _SOURCE_P_PROTECTED

    raw = rng.normal(means, 1.0, size=(n, len(CONTINUOUS)))
    cont = np.round(np.round(raw / _GRID) * _GRID, 2)
    logit = cont @ _CONTINUOUS_WEIGHTS
    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(CONTINUOUS):
        columns[name] = cont[:, j].copy()
    for name in TERNARY:
        codes = rng.choice(len(LEVELS), size=n, p=level_p)
        columns[name] = np.array(LEVELS, dtype=object)[codes]
        logit = logit + np.array(_LEVEL_WEIGHTS[name])[codes]
    protected = (rng.random(n) < p_protected).astype(int)
    columns[PROTECTED] = np.array(("0", "1"), dtype=object)[protected]
    logit = logit + _PROTECTED_WEIGHT * protected
    y = rng.random(n) < 1.0 / (1.0 + np.exp(-logit))
    columns["Y"] = np.array(("0", "1"), dtype=object)[y.astype(int)]
    return Dataset(schema, columns)


def mixed_sample(seed: int, stream: int, n: int) -> Dataset:
    """n labeled rows of one stream; the same (seed, stream, n) gives the same rows."""
    rng = np.random.default_rng([seed, stream])
    return _draw(rng, mixed_schema(), n, target=stream in _TARGET_STREAMS)
