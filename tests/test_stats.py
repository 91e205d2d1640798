"""Numerical kernel: entropy, information gain, Wasserstein, frequency counting."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dadt.data import EQ, GT, LEQ, NEQ, SplitCondition
from dadt.errors import DomainError, EmptyContext, IncomparableSupports
from dadt.stats import (
    Distribution,
    class_distribution,
    entropy,
    freq_fraction,
    information_gain,
    wasserstein,
    wasserstein_empirical,
)

from conftest import binary_schema, random_dataset, random_mixed_schema, rows_dataset


def bern(p: float) -> Distribution:
    return Distribution(("0", "1"), (1.0 - p, p))


class TestDistribution:
    def test_valid(self):
        d = Distribution(("a", "b"), (0.25, 0.75))
        assert d.prob("a") == 0.25
        assert d.argmax() == "b"

    def test_argmax_first_on_tie(self):
        assert Distribution(("a", "b"), (0.5, 0.5)).argmax() == "a"

    def test_mass_violation(self):
        with pytest.raises(DomainError):
            Distribution(("a", "b"), (0.3, 0.3))

    def test_duplicate_support(self):
        with pytest.raises(DomainError):
            Distribution(("a", "a"), (0.5, 0.5))

    def test_negative_prob(self):
        with pytest.raises(DomainError):
            Distribution(("a", "b"), (-0.5, 1.5))


class TestFrequency:
    def test_half(self):
        d = rows_dataset(binary_schema(), [
            {"X1": "0", "X2": "0", "Y": "0"},
            {"X1": "0", "X2": "1", "Y": "0"},
            {"X1": "1", "X2": "0", "Y": "1"},
            {"X1": "1", "X2": "1", "Y": "1"},
        ])
        assert freq_fraction(d, SplitCondition("X1", EQ, "0")) == Fraction(1, 2)

    @pytest.mark.parametrize("op", [EQ, NEQ, LEQ, GT])
    def test_equals_counting_the_matching_values(self, op):
        rng = np.random.default_rng(4)
        schema = random_mixed_schema(rng, max_attrs=6)
        d = random_dataset(rng, schema, 60)
        view = d.subset(rng.permutation(d.n)[:37])
        for attr in schema.predictive:
            if attr.is_discrete != (op in (EQ, NEQ)):
                continue
            col = view.column(attr.name)
            thresholds = attr.domain + ("never",) if attr.is_discrete else (-0.5, 0.0, 0.7)
            for t in thresholds:
                cond = SplitCondition(attr.name, op, t)
                count = int(np.count_nonzero(cond.matches(col)))
                assert freq_fraction(view, cond) == Fraction(count, view.n)

    def test_empty_context(self):
        d = rows_dataset(binary_schema(), [{"X1": "0", "X2": "0", "Y": "0"}])
        with pytest.raises(EmptyContext):
            freq_fraction(d.subset(np.zeros(1, dtype=bool)),
                          SplitCondition("X1", EQ, "0"))

    def test_ten_row_hand_count(self):
        rows = [{"X1": "0", "X2": "0", "Y": "1"}] * 7 + [{"X1": "0", "X2": "0", "Y": "0"}] * 3
        d = rows_dataset(binary_schema(), rows)
        assert freq_fraction(d, SplitCondition("Y", EQ, "1")) == Fraction(7, 10)
        assert class_distribution(d).probs == (0.3, 0.7)


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(bern(0.5)) == 1.0

    def test_pure(self):
        assert entropy(bern(0.0)) == 0.0

    def test_quarter(self):
        # independent evaluation: -(1/4 log2 1/4 + 3/4 log2 3/4)
        assert entropy(bern(0.75)) == pytest.approx(0.8112781244591328, abs=1e-12)

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
    def test_permutation_invariant_and_uniform_max(self, raw):
        probs = tuple(x / sum(raw) for x in raw)
        support = tuple(range(len(probs)))
        h = entropy(Distribution(support, probs))
        perm = tuple(reversed(probs))
        assert entropy(Distribution(support, perm)) == pytest.approx(h, abs=1e-9)
        uniform = Distribution(support, (1.0 / len(probs),) * len(probs))
        assert h <= entropy(uniform) + 1e-9


class TestInformationGain:
    def test_maximal(self):
        assert information_gain(bern(0.5), 0.5, bern(0.0), bern(1.0)) == 1.0

    def test_independent_split(self):
        p = bern(0.3)
        assert information_gain(p, 0.4, p, p) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        left = Distribution(("0", "1"), (1.0, 0.0))
        right = Distribution(("0", "1"), (1 / 3, 2 / 3))
        ig = information_gain(bern(0.5), 0.25, left, right)
        assert ig == pytest.approx(0.3112781244591328, abs=1e-9)

    def test_fraction_p_left_matches_float(self):
        left, right = bern(0.2), bern(0.9)
        a = information_gain(bern(0.55), Fraction(1, 4), left, right)
        b = information_gain(bern(0.55), 0.25, left, right)
        assert a == b

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            information_gain(bern(0.5), 1.5, bern(0.5), bern(0.5))
        with pytest.raises(DomainError):
            information_gain(bern(0.5), 0.5, bern(0.5),
                             Distribution(("x", "y"), (0.5, 0.5)))

    @given(st.floats(0.01, 0.99), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_nonnegative_on_exact_decomposition(self, p_left, l1, r1):
        # parent reconstructed by total probability => gain cannot be negative
        parent1 = p_left * l1 + (1 - p_left) * r1
        parent = Distribution(("0", "1"), (1 - parent1, parent1))
        ig = information_gain(parent, p_left, bern(l1), bern(r1))
        assert ig >= -1e-9


class TestWasserstein:
    def test_identity(self):
        assert wasserstein(bern(0.3), bern(0.3)) == 0.0

    def test_bernoulli_gap(self):
        assert wasserstein(bern(0.3), bern(0.5)) == pytest.approx(0.2, abs=1e-12)

    def test_example_half(self):
        assert wasserstein(bern(0.5), bern(1.0)) == pytest.approx(0.5, abs=1e-12)

    def test_numeric_spacing(self):
        p = Distribution((0.0, 10.0), (1.0, 0.0))
        q = Distribution((0.0, 10.0), (0.0, 1.0))
        assert wasserstein(p, q) == pytest.approx(10.0, abs=1e-12)

    def test_subsequence_supports(self):
        p = Distribution(("a", "b", "c"), (0.2, 0.5, 0.3))
        q = Distribution(("a", "c"), (0.5, 0.5))
        assert wasserstein(p, q) == pytest.approx(abs(0.2 - 0.5) + abs(0.7 - 0.5))

    def test_incomparable(self):
        with pytest.raises(IncomparableSupports):
            wasserstein(Distribution(("a", "b"), (0.5, 0.5)),
                        Distribution(("b", "a"), (0.5, 0.5)))
        with pytest.raises(IncomparableSupports):
            wasserstein(Distribution(("a", "b"), (0.5, 0.5)),
                        Distribution((0.0, 1.0), (0.5, 0.5)))

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_scipy_on_numeric(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        support = tuple(np.sort(rng.choice(100, size=k, replace=False)).astype(float))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        ours = wasserstein(Distribution(support, tuple(p)),
                           Distribution(support, tuple(q)))
        ref = scipy.stats.wasserstein_distance(support, support, p, q)
        assert ours == pytest.approx(ref, abs=1e-9)

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        support = tuple(float(v) for v in np.sort(rng.choice(50, 4, replace=False)))
        dists = [Distribution(support, tuple(rng.dirichlet(np.ones(4)))) for _ in range(3)]
        a, b, c = dists
        assert wasserstein(a, b) >= 0
        assert wasserstein(a, b) == pytest.approx(wasserstein(b, a), abs=1e-12)
        assert wasserstein(a, c) <= wasserstein(a, b) + wasserstein(b, c) + 1e-9


class TestWassersteinEmpirical:
    def test_identity(self):
        xs = np.array([1.0, 2.0, 5.0])
        assert wasserstein_empirical(xs, xs) == 0.0

    def test_shifted(self):
        xs = np.array([0.0, 1.0])
        ys = np.array([2.0, 3.0])
        assert wasserstein_empirical(xs, ys) == pytest.approx(2.0, abs=1e-12)

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        xs = rng.normal(size=int(rng.integers(2, 40)))
        ys = rng.normal(loc=0.5, size=int(rng.integers(2, 40)))
        ours = wasserstein_empirical(xs, ys)
        ref = scipy.stats.wasserstein_distance(xs, ys)
        assert ours == pytest.approx(ref, abs=1e-9)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            wasserstein_empirical(np.array([]), np.array([1.0]))
