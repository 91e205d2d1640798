"""Numerical kernel: frequency estimation, entropy, information gain, Wasserstein.

All probabilities are in bits (log base 2) with the 0*log(0)=0 convention.
Internally, frequency counts may be carried as exact fractions so that
pipelines built purely from counting reproduce plain-source results
bit-for-bit; public entry points return floats.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import log2
from numbers import Real

import numpy as np

from .data import Dataset, SplitCondition
from .errors import DomainError, EmptyContext, IncomparableSupports

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Distribution:
    """Discrete distribution over an ordered support."""

    support: tuple
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) != len(self.probs):
            raise DomainError("support and probs must be parallel")
        if len(set(self.support)) != len(self.support):
            raise DomainError("duplicate values in support")
        for p in self.probs:
            if not -_SUM_TOL <= p <= 1 + _SUM_TOL:
                raise DomainError(f"probability {p} outside [0, 1]")
        total = 0.0
        for p in self.probs:
            total += p
        if abs(total - 1.0) > _SUM_TOL:
            raise DomainError(f"probabilities sum to {total}, not 1")

    def prob(self, value) -> float:
        for v, p in zip(self.support, self.probs):
            if v == value:
                return p
        raise DomainError(f"value {value!r} not in support")

    def argmax(self):
        """The most probable value; ties go to the earliest in the support."""
        return self._argmax

    @functools.cached_property
    def _argmax(self):
        best_i = 0
        for i in range(1, len(self.probs)):
            if self.probs[i] > self.probs[best_i]:
                best_i = i
        return self.support[best_i]


def freq_fraction(d: Dataset, cond: SplitCondition) -> Fraction:
    """Exact frequency of rows satisfying cond (`Dataset.mask`), as a
    fraction of d's rows."""
    if d.n == 0:
        raise EmptyContext("cannot estimate a frequency over zero rows")
    return Fraction(int(np.count_nonzero(d.mask(cond))), d.n)


def class_fractions(d: Dataset) -> dict[str, Fraction]:
    """Exact class frequencies over the schema's class support."""
    if d.n == 0:
        raise EmptyContext("cannot estimate class frequencies over zero rows")
    support = d.schema.class_values
    counts = np.bincount(d.class_codes(), minlength=len(support)).tolist()
    return {y: Fraction(c, d.n) for y, c in zip(support, counts)}


def class_distribution(d: Dataset) -> Distribution:
    """Class frequency distribution of a labeled dataset view."""
    fracs = class_fractions(d)
    support = d.schema.class_values
    return Distribution(support, tuple(fracs[y].numerator / fracs[y].denominator
                                       for y in support))


def entropy(p: Distribution) -> float:
    """Shannon entropy in bits."""
    total = 0.0
    for q in p.probs:
        if q > 0.0:
            total -= q * log2(q)
    return total


def information_gain(parent_class: Distribution, p_left, left_class: Distribution,
                     right_class: Distribution) -> float:
    """Entropy reduction of a binary split.

    Takes the left-branch probability and the three class distributions as
    inputs, so source-only and target-embedded estimates share one formula.
    """
    if isinstance(p_left, Fraction):
        p_left = p_left.numerator / p_left.denominator
    if not isinstance(p_left, Real) or not 0.0 <= p_left <= 1.0:
        raise DomainError(f"p_left={p_left} outside [0, 1]")
    if not (parent_class.support == left_class.support == right_class.support):
        raise DomainError("class distributions must share one support")
    return (entropy(parent_class)
            - p_left * entropy(left_class)
            - (1.0 - p_left) * entropy(right_class))


def _positions(support: tuple) -> np.ndarray | None:
    """Numeric axis for a support; None when the support is categorical."""
    if all(isinstance(v, Real) and not isinstance(v, bool) for v in support):
        return np.array([float(v) for v in support])
    return None


def wasserstein(p: Distribution, q: Distribution) -> float:
    """1-Wasserstein distance: integral of |CDF_p - CDF_q| over a common axis.

    Numeric supports use numeric order and true spacing; categorical supports
    use declaration order with unit spacing and must be alignable (one support
    a subsequence of the other, or equal).
    """
    p_pos = _positions(p.support)
    q_pos = _positions(q.support)
    if (p_pos is None) != (q_pos is None):
        raise IncomparableSupports("cannot mix numeric and categorical supports")
    if p_pos is not None:
        merged = np.unique(np.concatenate([p_pos, q_pos]))
        positions = merged
        p_probs = _probs_on_axis(p, merged)
        q_probs = _probs_on_axis(q, merged)
    else:
        merged_support = _merge_categorical(p.support, q.support)
        positions = np.arange(len(merged_support), dtype=float)
        p_probs = np.array([dict(zip(p.support, p.probs)).get(v, 0.0) for v in merged_support])
        q_probs = np.array([dict(zip(q.support, q.probs)).get(v, 0.0) for v in merged_support])
    cdf_p = np.cumsum(p_probs)
    cdf_q = np.cumsum(q_probs)
    if len(positions) < 2:
        return 0.0
    gaps = np.diff(positions)
    return float(np.sum(np.abs(cdf_p[:-1] - cdf_q[:-1]) * gaps))


def _probs_on_axis(p: Distribution, axis: np.ndarray) -> np.ndarray:
    lookup = {float(v): pr for v, pr in zip(p.support, p.probs)}
    return np.array([lookup.get(float(x), 0.0) for x in axis])


def _merge_categorical(a: tuple, b: tuple) -> tuple:
    if _is_subsequence(b, a):
        return a
    if _is_subsequence(a, b):
        return b
    raise IncomparableSupports(f"no common ordering for supports {a} and {b}")


def _is_subsequence(small: tuple, big: tuple) -> bool:
    it = iter(big)
    return all(v in it for v in small)


def wasserstein_empirical(xs: np.ndarray, ys: np.ndarray) -> float:
    """Exact 1-Wasserstein distance between two empirical samples."""
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    if len(xs) == 0 or len(ys) == 0:
        raise DomainError("empirical Wasserstein needs non-empty samples")
    merged = np.unique(np.concatenate([xs, ys]))
    if len(merged) < 2:
        return 0.0
    cdf_x = np.searchsorted(xs, merged, side="right") / len(xs)
    cdf_y = np.searchsorted(ys, merged, side="right") / len(ys)
    gaps = np.diff(merged)
    return float(np.sum(np.abs(cdf_x[:-1] - cdf_y[:-1]) * gaps))
