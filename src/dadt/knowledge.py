"""Target-domain probability knowledge and affine source/target mixing.

A store answers conditional queries P_T(cond | path) either from a retained
unlabeled-equivalent target sample (frequency counting, exact fractions) or
from loaded cross-tables / CDF knots. What the store can answer is the
knowledge regime; nothing else records it. When the full path is not
answerable, the caller falls back to the maximal answerable subpath plus
affine mixing with the source estimate.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

from .data import (
    EQ,
    GT,
    LEQ,
    NEQ,
    Dataset,
    Path,
    Schema,
    SplitCondition,
    filter_by_path,
    read_json,
)
from .errors import (
    ConfigError,
    DomainError,
    EmptyDataset,
    FormatError,
    NormalizationError,
    SubsetViolation,
    UnknownAttribute,
)
from .stats import Distribution, freq_fraction

_NORM_TOL = 1e-6


@dataclass(frozen=True)
class KnowledgeRegime:
    variant: str  # "none" | "full" | "partial"
    arity: int | None = None

    def __post_init__(self):
        if self.variant not in ("none", "full", "partial"):
            raise ConfigError(f"unknown regime {self.variant!r}")
        if self.variant == "partial" and (self.arity is None or self.arity < 1):
            raise ConfigError("partial knowledge needs arity >= 1")

    @staticmethod
    def none() -> "KnowledgeRegime":
        return KnowledgeRegime("none")

    @staticmethod
    def full() -> "KnowledgeRegime":
        return KnowledgeRegime("full")

    @staticmethod
    def partial(k: int) -> "KnowledgeRegime":
        return KnowledgeRegime("partial", k)

    @property
    def is_none(self) -> bool:
        return self.variant == "none"


# The regime names used by the CLI and the experiment harness.
NAMED_REGIMES = {
    "ntdk": KnowledgeRegime.none(),
    "ftdk": KnowledgeRegime.full(),
    "ptdk2": KnowledgeRegime.partial(2),
    "ptdk3": KnowledgeRegime.partial(3),
}


@dataclass
class CdfEntry:
    var: str
    context: frozenset  # of (attribute, value) pairs
    knots: tuple[tuple[float, float], ...]  # (value, cumulative prob), sorted

    def evaluate(self, t: float) -> float:
        """Cumulative probability at t, linear between knots, 0 below the first."""
        vals = [v for v, _ in self.knots]
        ps = [p for _, p in self.knots]
        if t < vals[0]:
            return 0.0
        if t >= vals[-1]:
            return ps[-1]
        i = bisect.bisect_right(vals, t) - 1
        if vals[i] == t:
            return ps[i]
        v0, v1 = vals[i], vals[i + 1]
        p0, p1 = ps[i], ps[i + 1]
        return p0 + (p1 - p0) * (t - v0) / (v1 - v0)


@dataclass
class KnowledgeStore:
    schema: Schema
    arity_limit: float  # math.inf for full knowledge, 0 for none
    sample: Dataset | None = None  # the target sample without labels; queries count it
    # the same sample with its labels, if it has them; pivot selection
    # counts the target class conditionals of every attribute on it
    labeled_sample: Dataset | None = None
    tables: dict[tuple[str, ...], dict[tuple, float]] = field(default_factory=dict)
    cdfs: list[CdfEntry] = field(default_factory=list)
    # a cross-tab document's target class conditionals of discrete attributes,
    # {name: {"marginal": {value: p}, "y_given_x": {value: Distribution}}};
    # pivot selection reads them when the store has no labeled sample
    class_conditionals: dict[str, dict] | None = None

    @property
    def is_empty(self) -> bool:
        return (self.sample is None and not self.tables and not self.cdfs)

    @staticmethod
    def empty(schema: Schema) -> "KnowledgeStore":
        return KnowledgeStore(schema=schema, arity_limit=0)


def build_from_target_sample(target: Dataset, regime: KnowledgeRegime) -> KnowledgeStore:
    """Knowledge from a target-domain sample.

    The store retains the sample and answers by counting. Full knowledge
    answers arbitrary paths; partial knowledge of arity k refuses queries
    that involve more than k distinct attributes.
    """
    if regime.is_none:
        return KnowledgeStore.empty(target.schema)
    if target.n == 0:
        raise EmptyDataset("cannot build knowledge from an empty sample")
    arity = math.inf if regime.variant == "full" else float(regime.arity)
    return KnowledgeStore(
        schema=target.schema,
        arity_limit=arity,
        sample=target.without_labels(),
        labeled_sample=target if target.labeled else None,
    )


def load_from_crosstabs(source, schema: Schema) -> KnowledgeStore:
    """Knowledge from a cross-tab/CDF JSON document (official-statistics
    style); `source` is read by `read_json`."""
    doc = read_json(source)
    try:
        tables: dict[tuple[str, ...], dict[tuple, float]] = {}
        for spec in doc.get("tables", []):
            names = tuple(spec["vars"])
            attrs = []
            for name in names:
                attr = schema.attribute(name)
                if not attr.is_discrete:
                    raise FormatError(f"cross-table variable {name!r} must be discrete")
                attrs.append(attr)
            table: dict[tuple, float] = {}
            for cell in spec["cells"]:
                key = tuple(str(v) for v in cell["key"])
                p = _number(cell["p"])
                if len(key) != len(names):
                    raise FormatError(f"cell key {key} has wrong length for {names}")
                for v, attr in zip(key, attrs):
                    if v not in attr.domain:
                        raise FormatError(f"value {v!r} not in domain of {attr.name!r}")
                if not p >= 0:
                    raise FormatError(f"negative or NaN probability in table {names}")
                table[key] = table.get(key, 0.0) + p
            total = sum(table.values())
            if not abs(total - 1.0) <= _NORM_TOL:
                raise NormalizationError(f"table {names} sums to {total}")
            tables[names] = {k: v / total for k, v in table.items()}

        cdfs: list[CdfEntry] = []
        for spec in doc.get("cdfs", []):
            var = spec["var"]
            knots = sorted((_number(v), _number(p)) for v, p in spec["knots"])
            context = frozenset((a, str(v)) for a, v in spec.get("context", []))
            if schema.attribute(var).is_discrete:
                raise FormatError(f"cdf variable {var!r} must be continuous")
            if not knots:
                raise FormatError(f"cdf for {var!r} has no knots")
            if not all(math.isfinite(v) for v, _ in knots):
                raise FormatError(f"cdf for {var!r} has a knot that is not finite")
            ps = [p for _, p in knots]
            if not (ps[0] >= 0 and all(a <= b for a, b in zip(ps, ps[1:]))):
                raise FormatError(f"cdf for {var!r} is not nondecreasing")
            if not abs(ps[-1] - 1.0) <= _NORM_TOL:
                raise NormalizationError(f"cdf for {var!r} ends at {ps[-1]}")
            cdfs.append(CdfEntry(var=var, context=context,
                                 knots=tuple((v, p / ps[-1]) for v, p in knots)))

        class_cond = None
        if doc.get("class_conditionals"):
            class_cond = {}
            for spec in doc["class_conditionals"]:
                var = spec["var"]
                attr = schema.attribute(var)
                if var == schema.class_attr.name or not attr.is_discrete:
                    raise FormatError(
                        f"class conditionals of {var!r} need a discrete predictive attribute")
                for part in ("marginal", "y_given_x"):
                    outside = sorted(set(map(str, spec[part])) - set(attr.domain))
                    if outside:
                        raise FormatError(
                            f"{part} of {var!r} has values {outside} outside its domain")
                y_given_x = {
                    str(x): _class_dist_from_dict(schema, dist)
                    for x, dist in spec["y_given_x"].items()
                }
                marginal = {str(x): _number(p) for x, p in spec["marginal"].items()}
                if not all(p >= 0 for p in marginal.values()):
                    raise FormatError(f"negative or NaN marginal probability for {var!r}")
                total = sum(marginal.values())
                if not abs(total - 1.0) <= _NORM_TOL:
                    raise NormalizationError(f"marginal of {var!r} sums to {total}")
                class_cond[var] = {"marginal": marginal, "y_given_x": y_given_x}

        arity = doc.get("arity_limit")
        # unspecified: stored tables/CDFs already bound what is answerable
        arity = math.inf if arity is None else _number(arity)
        if not (arity >= 0 and (arity == math.inf or arity.is_integer())):
            raise FormatError(f"arity_limit must be a whole number >= 0 or Infinity, not {arity}")
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise FormatError(f"malformed cross-tab document: {exc!r}") from exc
    return KnowledgeStore(
        schema=schema,
        arity_limit=arity,
        tables=tables,
        cdfs=cdfs,
        class_conditionals=class_cond,
    )


def _number(v) -> float:
    """A cross-tab document's number as a float; a bool or a string is none."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise FormatError(f"{v!r} is not a number")
    return float(v)


def _class_dist_from_dict(schema: Schema, d: dict) -> Distribution:
    support = schema.class_values
    probs = [_number(d.get(y, 0.0)) for y in support]
    outside = sorted(map(str, set(d) - set(support)))
    if outside:
        raise FormatError(f"class distribution has values {outside} outside the class domain")
    total = sum(probs)
    if not abs(total - 1.0) <= _NORM_TOL:
        raise NormalizationError(f"class distribution sums to {total}")
    return Distribution(support, tuple(p / total for p in probs))


def _check_attrs(ks: KnowledgeStore, cond: SplitCondition, path: Path) -> set[str]:
    names = set(ks.schema.predictive_names)
    attrs = {cond.attribute} | set(path.attributes())
    for a in attrs:
        if a not in names:
            raise UnknownAttribute(f"{a!r} is not a predictive attribute")
    return attrs


def query_target(ks: KnowledgeStore, cond: SplitCondition, path: Path):
    """P_T(cond | path) if answerable by the store, else None.

    Sample-backed stores count frequencies (exact fractions); cross-tab stores
    marginalize joint cells, and continuous conditions evaluate stored CDFs.
    Zero-mass conditioning contexts are unavailable, never divided by.
    """
    if ks.is_empty:
        return None
    attrs = _check_attrs(ks, cond, path)
    if len(attrs) > ks.arity_limit:
        return None

    if ks.sample is not None:
        sub = filter_by_path(ks.sample, path)
        if sub.n == 0:
            return None
        return freq_fraction(sub, cond)

    attr = ks.schema.attribute(cond.attribute)
    if attr.is_discrete:
        return _query_tables(ks, cond, path)
    return _query_cdfs(ks, cond, path)


def _query_tables(ks: KnowledgeStore, cond: SplitCondition, path: Path):
    for c in path.conditions:
        if not ks.schema.attribute(c.attribute).is_discrete:
            return None  # tables cannot condition on continuous thresholds
    needed = {cond.attribute} | set(path.attributes())
    candidates = [names for names in ks.tables if needed <= set(names)]
    if not candidates:
        return None
    names = min(candidates, key=len)
    table = ks.tables[names]
    num = 0.0
    den = 0.0
    for key, p in table.items():
        assignment = dict(zip(names, key))
        if all(_cell_satisfies(c, assignment) for c in path.conditions):
            den += p
            if _cell_satisfies(cond, assignment):
                num += p
    if den <= 0.0:
        return None
    return num / den


def _cell_satisfies(cond: SplitCondition, assignment: dict) -> bool:
    v = assignment[cond.attribute]
    if cond.op == EQ:
        return v == cond.threshold
    if cond.op == NEQ:
        return v != cond.threshold
    raise DomainError(f"op {cond.op!r} not valid on discrete cells")


def _query_cdfs(ks: KnowledgeStore, cond: SplitCondition, path: Path):
    if cond.op not in (LEQ, GT):
        return None
    context = set()
    for c in path.conditions:
        if c.op != EQ:
            return None  # CDF contexts are equality conditions only
        context.add((c.attribute, c.threshold))
    for entry in ks.cdfs:
        if entry.var == cond.attribute and entry.context == frozenset(context):
            p = entry.evaluate(float(cond.threshold))
            return p if cond.op == LEQ else 1.0 - p
    return None


def subpaths(ks: KnowledgeStore, cond: SplitCondition, path: Path):
    """Subpaths a query on cond may fall back to, longest first.

    Each keeps the path's conditions on a prefix of its distinct attributes
    (root order), from all of them down to none, skipping those that would
    exceed the store's arity limit together with cond's attribute.
    """
    _check_attrs(ks, cond, path)
    order = path.attributes()
    for j in range(len(order), -1, -1):
        allowed = set(order[:j])
        if len({cond.attribute} | allowed) <= ks.arity_limit:
            yield Path(tuple(c for c in path.conditions if c.attribute in allowed))


def maximal_subpath(ks: KnowledgeStore, cond: SplitCondition, path: Path) -> Path | None:
    """Largest answerable prefix of the path's distinct attributes.

    The first of `subpaths` the store can answer (within its tables or CDFs,
    with non-zero conditioning mass). That depends on cond's attribute and
    op and on the path, never on cond's threshold.
    Returns None when not even the marginal is answerable (use source only).
    """
    if ks.is_empty:
        return None
    for sub in subpaths(ks, cond, path):
        if query_target(ks, cond, sub) is not None:
            return sub
    return None


def dynamic_alpha(path: Path, subpath: Path) -> Fraction:
    """Proportion of the path's distinct attributes missing from the subpath."""
    if subpath.conditions == path.conditions:
        return Fraction(0)
    sub_conds = set(subpath.conditions)
    if not sub_conds <= set(path.conditions):
        raise SubsetViolation("subpath conditions must be a subset of the path's")
    attrs = set(path.attributes())
    missing = attrs - set(subpath.attributes())
    return Fraction(len(missing), len(attrs))


def affine_estimate(source_p, target_p, alpha):
    """alpha * source + (1 - alpha) * target; alpha=1 is source-only.

    Rational source and target give the exact Fraction, computed in
    integers, with a float alpha taken at its exact value.
    """
    exact = isinstance(source_p, Rational) and isinstance(target_p, Rational)
    if exact and isinstance(alpha, float) and math.isfinite(alpha):
        alpha = Fraction(alpha)
    values = (("source_p", source_p), ("target_p", target_p), ("alpha", alpha))
    if exact and isinstance(alpha, Rational):
        for name, v in values:
            if not 0 <= v.numerator <= v.denominator:
                raise DomainError(f"{name}={v} outside [0, 1]")
        a, b = alpha.numerator, alpha.denominator
        s, sd = source_p.numerator, source_p.denominator
        t, td = target_p.numerator, target_p.denominator
        return Fraction(a * s * td + (b - a) * t * sd, b * sd * td)
    for name, v in values:
        if not 0 <= v <= 1:
            raise DomainError(f"{name}={v} outside [0, 1]")
    mixed = alpha * source_p + (1 - alpha) * target_p
    if -1e-12 <= mixed < 0.0:
        return 0.0
    if 1.0 < mixed <= 1.0 + 1e-12:
        return 1.0
    return mixed
