"""Target-knowledge stores: construction, queries, subpath fallback, mixing."""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadt.data import (
    EMPTY_PATH,
    EQ,
    GT,
    LEQ,
    Attribute,
    Path,
    Schema,
    SplitCondition,
    dataset_from_rows,
    filter_by_path,
)
from dadt.errors import (
    ConfigError,
    DomainError,
    EmptyDataset,
    FormatError,
    NormalizationError,
    SubsetViolation,
    UnknownAttribute,
)
from dadt.knowledge import (
    KnowledgeRegime,
    KnowledgeStore,
    affine_estimate,
    build_from_target_sample,
    dynamic_alpha,
    load_from_crosstabs,
    maximal_subpath,
    query_target,
    subpaths,
)

from conftest import binary_schema, random_dataset, random_mixed_schema, rows_dataset


def abc_schema() -> Schema:
    return Schema(
        predictive=(
            Attribute("A", "discrete", ("0", "1")),
            Attribute("B", "discrete", ("0", "1")),
            Attribute("C", "discrete", ("0", "1")),
        ),
        class_attr=Attribute("Y", "discrete", ("0", "1")),
    )


def abc_sample():
    # 8 rows, one per cell of A x B x C
    rows = []
    for a in "01":
        for b in "01":
            for c in "01":
                rows.append({"A": a, "B": b, "C": c, "Y": "0"})
    return dataset_from_rows(abc_schema(), rows)


def eq(attr, v):
    return SplitCondition(attr, EQ, v)


class TestRegime:
    def test_constructors(self):
        assert KnowledgeRegime.none().is_none
        assert KnowledgeRegime.full().variant == "full"
        assert KnowledgeRegime.partial(2).arity == 2

    def test_invalid(self):
        with pytest.raises(ConfigError):
            KnowledgeRegime("bogus")
        with pytest.raises(ConfigError):
            KnowledgeRegime.partial(0)


class TestSampleBackedStore:
    def test_none_regime_is_empty(self):
        ks = build_from_target_sample(abc_sample(), KnowledgeRegime.none())
        assert ks.is_empty
        assert query_target(ks, eq("A", "0"), EMPTY_PATH) is None

    def test_empty_sample_rejected(self):
        d = abc_sample()
        with pytest.raises(EmptyDataset):
            build_from_target_sample(d.subset(np.zeros(d.n, dtype=bool)),
                                     KnowledgeRegime.full())

    def test_marginal_is_exact_fraction(self):
        ks = build_from_target_sample(abc_sample(), KnowledgeRegime.full())
        assert query_target(ks, eq("A", "0"), EMPTY_PATH) == Fraction(1, 2)

    def test_conditional(self):
        ks = build_from_target_sample(abc_sample(), KnowledgeRegime.full())
        path = Path((eq("B", "1"), eq("C", "0")))
        assert query_target(ks, eq("A", "1"), path) == Fraction(1, 2)

    def test_zero_mass_context_unavailable(self):
        d = rows_dataset(binary_schema(), [{"X1": "0", "X2": "0", "Y": "1"}] * 4)
        ks = build_from_target_sample(d, KnowledgeRegime.full())
        assert query_target(ks, eq("X2", "0"), Path((eq("X1", "1"),))) is None

    def test_unknown_attribute(self):
        ks = build_from_target_sample(abc_sample(), KnowledgeRegime.full())
        with pytest.raises(UnknownAttribute):
            query_target(ks, eq("Z", "0"), EMPTY_PATH)

    def test_equals_its_copy_after_queries(self):
        ks = build_from_target_sample(abc_sample(), KnowledgeRegime.full())
        copy = KnowledgeStore(ks.schema, ks.arity_limit, sample=ks.sample,
                              labeled_sample=ks.labeled_sample)
        query_target(ks, eq("A", "1"), Path((eq("B", "1"), eq("C", "0"))))
        assert ks == copy
        query_target(copy, eq("A", "0"), Path((eq("C", "1"),)))
        assert ks == copy

    def test_copy_with_another_sample_answers_from_it(self):
        ks = build_from_target_sample(abc_sample(), KnowledgeRegime.full())
        path = Path((eq("B", "1"),))
        assert query_target(ks, eq("A", "1"), path) == Fraction(1, 2)
        only_a1 = ks.sample.subset(ks.sample.column("A") == "1")
        assert query_target(dataclasses.replace(ks, sample=only_a1), eq("A", "1"), path) == 1


class TestPartialKnowledge:
    def test_arity_cap(self):
        ks = build_from_target_sample(abc_sample(), KnowledgeRegime.partial(2))
        # two distinct attributes involved: answerable
        assert query_target(ks, eq("A", "0"), Path((eq("B", "0"),))) == Fraction(1, 2)
        # three distinct attributes: beyond the cap
        assert query_target(ks, eq("A", "0"), Path((eq("B", "0"), eq("C", "0")))) is None

    def test_precomputed_tables_cover_pairs(self):
        # P(A=0, B=1) = P(A=0) * P(B=1 | A=0) = 1/2 * 1/2, from the retained sample
        ks = build_from_target_sample(abc_sample(), KnowledgeRegime.partial(2))
        p_a = query_target(ks, eq("A", "0"), EMPTY_PATH)
        p_b_given_a = query_target(ks, eq("B", "1"), Path((eq("A", "0"),)))
        assert p_a * p_b_given_a == Fraction(1, 4)

    def test_maximal_subpath_shrinks(self):
        ks = build_from_target_sample(abc_sample(), KnowledgeRegime.partial(2))
        path = Path((eq("B", "0"), eq("C", "0")))
        sub = maximal_subpath(ks, eq("A", "0"), path)
        assert sub is not None
        assert sub.attributes() == ("B",)  # first distinct attribute in root order

    def test_maximal_subpath_full_when_answerable(self):
        ks = build_from_target_sample(abc_sample(), KnowledgeRegime.full())
        path = Path((eq("B", "0"), eq("C", "0")))
        assert maximal_subpath(ks, eq("A", "0"), path) == path

    def test_maximal_subpath_none_for_empty_store(self):
        ks = KnowledgeStore.empty(abc_schema())
        assert maximal_subpath(ks, eq("A", "0"), EMPTY_PATH) is None


CROSSTAB_DOC = {
    "arity_limit": 2,
    "tables": [
        {"vars": ["X1", "X2"], "kind": "joint", "cells": [
            {"key": ["0", "0"], "p": 0.5},
            {"key": ["0", "1"], "p": 0.0},
            {"key": ["1", "0"], "p": 0.0},
            {"key": ["1", "1"], "p": 0.5},
        ]},
    ],
}


class TestCrosstabStore:
    def test_joint_table_conditional(self):
        ks = load_from_crosstabs(CROSSTAB_DOC, binary_schema())
        assert query_target(ks, eq("X2", "0"), Path((eq("X1", "0"),))) == 1.0
        assert query_target(ks, eq("X2", "0"), EMPTY_PATH) == 0.5

    def test_zero_mass_cell_unavailable(self):
        doc = {"tables": [{"vars": ["X1"], "kind": "joint", "cells": [
            {"key": ["0"], "p": 1.0}, {"key": ["1"], "p": 0.0}]}]}
        ks = load_from_crosstabs(doc, binary_schema())
        assert query_target(ks, eq("X1", "0"), Path((eq("X1", "1"),))) is None

    def test_normalization_error(self):
        doc = json.loads(json.dumps(CROSSTAB_DOC))
        doc["tables"][0]["cells"][0]["p"] = 0.48  # sums to 0.98
        with pytest.raises(NormalizationError):
            load_from_crosstabs(doc, binary_schema())

    def test_format_errors(self):
        with pytest.raises(FormatError):
            load_from_crosstabs({"tables": [{"vars": ["X1"]}]}, binary_schema())
        with pytest.raises(FormatError):
            load_from_crosstabs({"tables": [{"vars": ["X1"], "cells": [
                {"key": ["7"], "p": 1.0}]}]}, binary_schema())

    def test_cdf_step_and_interpolation(self):
        schema = Schema(
            predictive=(Attribute("SEX", "discrete", ("female", "male")),
                        Attribute("AGEP", "continuous")),
            class_attr=Attribute("Y", "discrete", ("0", "1")))
        doc = {"cdfs": [
            {"var": "AGEP", "context": [], "knots": [[10, 0.2], [20, 0.7], [30, 1.0]]},
            {"var": "AGEP", "context": [["SEX", "female"]],
             "knots": [[10, 0.5], [30, 1.0]]},
        ]}
        ks = load_from_crosstabs(doc, schema)
        assert query_target(ks, SplitCondition("AGEP", LEQ, 20.0), EMPTY_PATH) == 0.7
        assert query_target(ks, SplitCondition("AGEP", GT, 20.0), EMPTY_PATH) \
            == pytest.approx(0.3)
        # between knots: linear interpolation for loaded quantile tables
        assert query_target(ks, SplitCondition("AGEP", LEQ, 15.0), EMPTY_PATH) \
            == pytest.approx(0.45)
        # exact equality context match
        ctx = Path((SplitCondition("SEX", EQ, "female"),))
        assert query_target(ks, SplitCondition("AGEP", LEQ, 20.0), ctx) \
            == pytest.approx(0.75)
        # context with no stored CDF: unavailable
        other = Path((SplitCondition("SEX", EQ, "male"),))
        assert query_target(ks, SplitCondition("AGEP", LEQ, 20.0), other) is None

    def test_cdf_validation(self):
        schema = Schema(predictive=(Attribute("A", "continuous"),),
                        class_attr=Attribute("Y", "discrete", ("0", "1")))
        with pytest.raises(FormatError):
            load_from_crosstabs({"cdfs": [{"var": "A", "knots": [[1, 0.9], [2, 0.5]]}]},
                                schema)
        with pytest.raises(NormalizationError):
            load_from_crosstabs({"cdfs": [{"var": "A", "knots": [[1, 0.5], [2, 0.9]]}]},
                                schema)

    def test_sample_backed_continuous_is_step(self):
        schema = Schema(predictive=(Attribute("A", "continuous"),),
                        class_attr=Attribute("Y", "discrete", ("0", "1")))
        d = dataset_from_rows(schema, [{"A": v, "Y": "0"} for v in (1.0, 2.0, 3.0, 4.0)])
        ks = build_from_target_sample(d, KnowledgeRegime.full())
        assert query_target(ks, SplitCondition("A", LEQ, 2.5), EMPTY_PATH) \
            == Fraction(1, 2)


class TestMixing:
    def test_dynamic_alpha(self):
        path = Path((eq("A", "0"), eq("B", "0"), eq("C", "1")))
        sub = Path((eq("A", "0"),))
        assert dynamic_alpha(path, sub) == Fraction(2, 3)
        assert dynamic_alpha(path, path) == 0
        assert dynamic_alpha(EMPTY_PATH, EMPTY_PATH) == 0

    def test_subset_violation(self):
        with pytest.raises(SubsetViolation):
            dynamic_alpha(Path((eq("A", "0"),)), Path((eq("B", "0"),)))

    def test_affine_endpoints_exact(self):
        s, t = Fraction(1, 3), Fraction(3, 4)
        assert affine_estimate(s, t, Fraction(1)) == s  # alpha=1 is source-only
        assert affine_estimate(s, t, Fraction(0)) == t
        assert affine_estimate(s, t, Fraction(1, 2)) == Fraction(13, 24)

    def test_affine_domain(self):
        with pytest.raises(DomainError):
            affine_estimate(1.2, 0.5, 0.5)
        with pytest.raises(DomainError):
            affine_estimate(0.5, 0.5, -0.1)

    @settings(max_examples=200)
    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_affine_stays_in_unit_interval(self, s, t, a):
        v = affine_estimate(s, t, a)
        assert 0.0 <= v <= 1.0
        # monotone in alpha toward the source value
        assert (affine_estimate(s, t, 1.0) - s) == 0


class TestCrosstabNaN:
    """NaN fails every mass check of the cross-tab loader."""

    def test_nan_table_cell(self):
        text = ('{"tables": [{"vars": ["X1"], "cells": '
                '[{"key": ["0"], "p": NaN}, {"key": ["1"], "p": 1}]}]}')
        with pytest.raises(FormatError):
            load_from_crosstabs(text, binary_schema())

    @pytest.mark.parametrize("knots", [[[1, 0.5], [2, math.nan]],
                                       [[1, math.nan], [2, 1.0]],
                                       [[math.nan, 0.5], [2, 1.0]]])
    def test_nan_cdf_knot(self, knots):
        schema = Schema(predictive=(Attribute("A", "continuous"),),
                        class_attr=Attribute("Y", "discrete", ("0", "1")))
        with pytest.raises((FormatError, NormalizationError)):
            load_from_crosstabs({"cdfs": [{"var": "A", "knots": knots}]}, schema)

    def test_nan_class_conditional(self):
        doc = {"class_conditionals": [{"var": "X1", "marginal": {"0": 0.5, "1": 0.5},
                                       "y_given_x": {"0": {"0": math.nan, "1": 1.0}}}]}
        with pytest.raises(NormalizationError):
            load_from_crosstabs(doc, binary_schema())


class TestCrosstabNumbers:
    """A probability or a knot is a JSON number: before the check, a bool
    or a numeric string loaded as one, and so did a knot that overflows to
    infinity."""

    @staticmethod
    def document(cell: str = "0.5", marginal: str = "0.5", knots: str = "[1, 0.5], [2, 1.0]",
                 y: str = "0.5") -> str:
        return ('{"tables": [{"vars": ["X1"], "cells": [{"key": ["0"], "p": %s},'
                ' {"key": ["1"], "p": 0.5}]}],'
                ' "cdfs": [{"var": "A", "knots": [%s]}],'
                ' "class_conditionals": [{"var": "X1", "marginal": {"0": %s, "1": 0.5},'
                ' "y_given_x": {"0": {"0": %s, "1": 0.5}}}]}' % (cell, knots, marginal, y))

    @staticmethod
    def schema() -> Schema:
        return Schema(predictive=(Attribute("X1", "discrete", ("0", "1")),
                                  Attribute("A", "continuous")),
                      class_attr=Attribute("Y", "discrete", ("0", "1")))

    def test_numbers_load(self):
        ks = load_from_crosstabs(self.document(), self.schema())
        assert ks.tables[("X1",)] == {("0",): 0.5, ("1",): 0.5}
        assert ks.cdfs[0].knots == ((1.0, 0.5), (2.0, 1.0))

    @pytest.mark.parametrize("field, value", [
        ("cell", '"0.5"'), ("cell", "true"), ("marginal", '"0.5"'), ("marginal", "false"),
        ("knots", '["1", 0.5], [2, 1.0]'), ("knots", "[1, 0.5], [2, true]"),
        ("knots", "[true, 0.5], [2, 1.0]"), ("knots", "[1, 0.5], [1e309, 1.0]"),
        ("knots", "[-1e309, 0.5], [2, 1.0]"),
        pytest.param("knots", "[1, 0.5], [1%s, 1.0]" % ("0" * 400), id="knots-huge-int"),
        ("y", '"0.5"'), ("y", "true")])
    def test_a_bool_a_string_or_an_infinite_knot(self, field, value):
        with pytest.raises(FormatError):
            load_from_crosstabs(self.document(**{field: value}), self.schema())


class TestCrosstabClassConditionalMarginal:
    """A class conditional's marginal and the arity limit are checked on load."""

    @staticmethod
    def conditional(var, marginal):
        return {"var": var, "marginal": marginal,
                "y_given_x": {"0": {"0": 0.5, "1": 0.5}, "1": {"0": 0.2, "1": 0.8}}}

    def test_two_attribute_document(self):
        # before the check this loaded and select_pivot silently skipped X1
        doc = {"class_conditionals": [
            self.conditional("X1", {"0": math.nan, "1": 0.5}),
            self.conditional("X2", {"0": 7, "1": -3})]}
        with pytest.raises(FormatError):
            load_from_crosstabs(doc, binary_schema())

    @pytest.mark.parametrize("marginal", [{"0": math.nan, "1": 0.5},
                                          {"0": 1.5, "1": -0.5},
                                          {"0": 7, "1": -3}])
    def test_nan_or_negative_marginal(self, marginal):
        doc = {"class_conditionals": [self.conditional("X1", marginal)]}
        with pytest.raises(FormatError):
            load_from_crosstabs(doc, binary_schema())

    @pytest.mark.parametrize("marginal", [{"0": 0.7, "1": 0.7}, {"0": 0.2}, {}])
    def test_unnormalised_marginal(self, marginal):
        doc = {"class_conditionals": [self.conditional("X1", marginal)]}
        with pytest.raises(NormalizationError):
            load_from_crosstabs(doc, binary_schema())

    def test_continuous_attribute(self):
        schema = Schema(predictive=(Attribute("A", "continuous"),
                                    Attribute("X1", "discrete", ("0", "1"))),
                        class_attr=Attribute("Y", "discrete", ("0", "1")))
        doc = {"class_conditionals": [self.conditional("A", {"0": 0.5, "1": 0.5})]}
        with pytest.raises(FormatError):
            load_from_crosstabs(doc, schema)

    def test_class_attribute(self):
        doc = {"class_conditionals": [self.conditional("Y", {"0": 0.5, "1": 0.5})]}
        with pytest.raises(FormatError):
            load_from_crosstabs(doc, binary_schema())

    def test_keys_outside_the_domain(self):
        # before the check this loaded, pivot_score gave X2 0.0 and
        # select_pivot picked it
        misspelt = {"var": "X2", "marginal": {"a": 0.5, "b": 0.5},
                    "y_given_x": {"a": {"0": 0.5, "1": 0.5}, "b": {"0": 0.2, "1": 0.8}}}
        with pytest.raises(FormatError):
            load_from_crosstabs({"class_conditionals": [
                self.conditional("X1", {"0": 0.5, "1": 0.5}), misspelt]}, binary_schema())
        in_domain_marginal = self.conditional("X1", {"0": 0.5, "1": 0.5})
        in_domain_marginal["y_given_x"]["a"] = {"0": 0.5, "1": 0.5}
        with pytest.raises(FormatError):
            load_from_crosstabs({"class_conditionals": [in_domain_marginal]},
                                binary_schema())

    @pytest.mark.parametrize("dist", [{"0": 0.5, "1": 0.5, "2": 0.7},
                                      {"0": 0.5, "1": 0.5, "Y": 0.0},
                                      {"0": 1.0, "O": 0.0}])
    def test_class_values_outside_the_class_domain(self, dist):
        # before the check the unknown class was dropped and (0.5, 0.5) loaded
        doc = {"class_conditionals": [self.conditional("X1", {"0": 0.5, "1": 0.5})]}
        doc["class_conditionals"][0]["y_given_x"]["1"] = dist
        with pytest.raises(FormatError, match="outside the class domain"):
            load_from_crosstabs(doc, binary_schema())

    def test_keys_may_omit_values(self):
        doc = {"class_conditionals": [{"var": "X1", "marginal": {"1": 1.0},
                                       "y_given_x": {"1": {"0": 0.2, "1": 0.8}}}]}
        ks = load_from_crosstabs(doc, binary_schema())
        assert set(ks.class_conditionals["X1"]["y_given_x"]) == {"1"}

    def test_normalised_marginal_loads(self):
        doc = {"class_conditionals": [self.conditional("X1", {"0": 0.25, "1": 0.75})]}
        ks = load_from_crosstabs(doc, binary_schema())
        assert ks.class_conditionals["X1"]["marginal"] == {"0": 0.25, "1": 0.75}

    @pytest.mark.parametrize("arity", ["NaN", "-1", "-Infinity"])
    def test_nan_or_negative_arity_limit(self, arity):
        with pytest.raises(FormatError):
            load_from_crosstabs(f'{{"arity_limit": {arity}}}', binary_schema())

    @pytest.mark.parametrize("arity", ['"2"', "true", "false", "1.5"])
    def test_arity_limit_that_is_no_whole_number(self, arity):
        # before the check each of these loaded as a number
        with pytest.raises(FormatError):
            load_from_crosstabs(f'{{"arity_limit": {arity}}}', binary_schema())

    @pytest.mark.parametrize("arity, limit", [("0", 0.0), ("2", 2.0), ("Infinity", math.inf),
                                              ("null", math.inf)])
    def test_arity_limit_loads(self, arity, limit):
        ks = load_from_crosstabs(f'{{"arity_limit": {arity}}}', binary_schema())
        assert ks.arity_limit == limit
