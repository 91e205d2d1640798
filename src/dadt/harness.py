"""Experiment orchestration: synthetic shifted populations, regime sweeps, output.

A sweep runs source-target pairs through a set of knowledge regimes (tt,
ntdk, ftdk, ptdk-k), evaluates every model on the same target test fold, and
emits a flat CSV plus a JSON with full diagnostics. Output CSVs are
byte-deterministic for a fixed config; wall-clock timings go to JSON only.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import (
    Attribute,
    Dataset,
    Schema,
    load_dataset,
    read_json,
    schema_from_json,
    source_path,
    split_train_test,
)
from .errors import ConfigError, DadtError
from .knowledge import NAMED_REGIMES, KnowledgeStore, build_from_target_sample
from .metrics import (
    EvalReport,
    RelativeGains,
    evaluate_model,
    postprocess_thresholds,
    relative_gain_acc,
    relative_gain_fairness,
    tree_shift_distance,
)
from .tree import TreeConfig, grow

REGIMES = ("tt",) + tuple(NAMED_REGIMES)
# the regimes every other regime's relative gains are measured between
_BASELINES = ("tt", "ntdk")
_MAX_CELLS = 2**20


@dataclass(frozen=True)
class SynthConfig:
    n_source: int = 1000
    n_target: int = 1000
    n_attrs: int = 2
    target_correlation: float = 1.0  # 1.0 makes X2 equal X1 almost surely
    label_noise: float = 0.0
    covshift_violation: float = 0.0  # per-cell chance of flipping P_T(Y|x)
    seed: int = 0

    def __post_init__(self):
        sizes = (self.n_source, self.n_target, self.n_attrs, self.seed)
        if any(type(v) is not int for v in sizes) or self.seed < 0:
            raise ConfigError("n_source, n_target, n_attrs and seed must be integers, seed >= 0")
        if self.n_source < 1 or self.n_target < 1:
            raise ConfigError("sample sizes must be positive")
        if self.n_attrs < 2:
            raise ConfigError("need at least 2 attributes")
        if 2**self.n_attrs > _MAX_CELLS:
            raise ConfigError("too many attribute cells to tabulate")
        if not 0.0 <= self.target_correlation <= 1.0:
            raise ConfigError("target_correlation must be in [0, 1]")
        if not 0.0 <= self.label_noise < 0.5:
            raise ConfigError("label_noise must be in [0, 0.5)")
        if not 0.0 <= self.covshift_violation <= 1.0:
            raise ConfigError("covshift_violation must be in [0, 1]")


def synth_schema(n_attrs: int) -> Schema:
    attrs = tuple(Attribute(f"X{i+1}", "discrete", ("0", "1")) for i in range(n_attrs))
    class_attr = Attribute("Y", "discrete", ("0", "1"))
    return Schema(predictive=attrs, class_attr=class_attr, protected_attr="X1")


def generate_synthetic(cfg: SynthConfig) -> tuple[Dataset, Dataset, dict]:
    """Shifted binary populations generalizing the equal-pair construction.

    Source attributes are independent fair coins. In the target, X2 copies X1
    with probability `target_correlation`. Labels follow Y = 1[X1 = X2] with
    `label_noise` flips; `covshift_violation` is the per-cell probability that
    the target's class conditional is inverted relative to the source's, so 0
    means the class conditionals agree exactly on every cell.
    """
    rng = np.random.default_rng(cfg.seed)
    n_attrs = cfg.n_attrs
    schema = synth_schema(n_attrs)
    eps = cfg.label_noise

    cells = list(itertools.product(("0", "1"), repeat=n_attrs))
    p_source = {c: (1.0 - eps) if c[0] == c[1] else eps for c in cells}
    flips = rng.random(len(cells)) < cfg.covshift_violation
    p_target = {c: (1.0 - p_source[c]) if f else p_source[c]
                for c, f in zip(cells, flips)}

    # a row's cell is the binary number its attributes spell, X1 first: its
    # position in `cells`
    place = 1 << np.arange(n_attrs - 1, -1, -1)
    binary = np.array(("0", "1"), dtype=object)

    def draw(n: int, correlated: bool, p_table: dict) -> Dataset:
        x = (rng.random((n, n_attrs)) < 0.5).astype(int)
        if correlated:
            copy = rng.random(n) < cfg.target_correlation
            x[copy, 1] = x[copy, 0]
        u = rng.random(n)
        p_y1 = np.array([p_table[c] for c in cells])[x @ place]
        columns = {f"X{j+1}": binary[x[:, j]] for j in range(n_attrs)}
        columns["Y"] = binary[(u < p_y1).astype(int)]
        return Dataset(schema, columns)

    source = draw(cfg.n_source, False, p_source)
    target = draw(cfg.n_target, True, p_target)
    ground_truth = {
        "cells": ["".join(c) for c in cells],
        "p_source_y1": [p_source[c] for c in cells],
        "p_target_y1": [p_target[c] for c in cells],
    }
    return source, target, ground_truth


@dataclass(frozen=True)
class PairSpec:
    pair_id: str
    synth: SynthConfig | None = None
    source_csv: str | None = None
    target_csv: str | None = None
    schema_json: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    pairs: tuple[PairSpec, ...]
    regimes: tuple[str, ...] = ("tt", "ntdk", "ftdk")
    tree: dict = field(default_factory=dict)
    fairness_objective: str | None = None
    train_fraction: float = 0.75
    output_dir: str = "."


def _checked_keys(section: str, settings, cls) -> dict:
    """The settings object of a config section, refusing keys cls does not take."""
    if not isinstance(settings, dict):
        raise ConfigError(f"{section} must be an object")
    unknown = sorted(set(settings) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{section}: unknown key(s) {', '.join(unknown)}")
    return dict(settings)


def parse_experiment_config(source) -> ExperimentConfig:
    """Parse a config document, read by `read_json`; file paths resolve
    relative to the config file (to "." for a document given as content)."""
    doc = read_json(source)
    path = source_path(source)
    base = os.path.dirname(os.path.abspath(path)) if path else "."
    try:
        if "seed" not in doc:
            raise ConfigError("experiment config must declare a seed")
        regimes = tuple(doc.get("regimes", ["tt", "ntdk", "ftdk"]))
        for r in regimes:
            if r not in REGIMES:
                raise ConfigError(f"unknown regime {r!r}; choose from {REGIMES}")
        pairs = []
        for i, p in enumerate(doc.get("pairs", [])):
            pid = str(p.get("id", i))
            if "synth" in p:
                synth = _checked_keys(f"pair {pid}: synth", p["synth"], SynthConfig)
                pairs.append(PairSpec(pair_id=pid, synth=SynthConfig(**synth)))
            else:
                pairs.append(PairSpec(
                    pair_id=pid,
                    source_csv=os.path.join(base, p["source_csv"]),
                    target_csv=os.path.join(base, p["target_csv"]),
                    schema_json=os.path.join(base, p["schema_json"]),
                ))
        if not pairs:
            raise ConfigError("experiment config has no pairs")
        objective = doc.get("fairness_objective")
        if objective is not None and objective not in ("dp", "eop"):
            raise ConfigError("fairness_objective must be 'dp', 'eop', or omitted")
        out_dir = doc.get("output_dir", ".")
        if "\0" in out_dir:
            raise ConfigError("output_dir must not hold a NUL character")
        if not os.path.isabs(out_dir):
            out_dir = os.path.normpath(os.path.join(base, out_dir))
        tree = _checked_keys("tree", doc.get("tree", {}), TreeConfig)
        TreeConfig(**tree)
        seed = doc["seed"]
        if type(seed) is not int or seed < 0:
            raise ConfigError("seed must be an integer >= 0")
        train_fraction = doc.get("train_fraction", 0.75)
        if type(train_fraction) not in (int, float) or not 0.0 < train_fraction < 1.0:
            raise ConfigError("train_fraction must be a number in (0, 1)")
        return ExperimentConfig(
            seed=seed,
            pairs=tuple(pairs),
            regimes=regimes,
            tree=tree,
            fairness_objective=objective,
            train_fraction=train_fraction,
            output_dir=out_dir,
        )
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"malformed experiment config: {exc!r}") from exc


@dataclass
class RegimeOutcome:
    """One regime's result; its fields, in order, are its results.json entry."""
    error: str | None = None
    report: EvalReport | None = None
    gains: RelativeGains | None = None
    w_tree: float | None = None
    x_w: str | None = None
    # the fairness post-processing's per-group thresholds, and whether they
    # make the model predict one class for every row
    thresholds: dict | None = None
    constant_model: bool | None = None


@dataclass
class ExperimentResult:
    pair_id: str
    outcomes: dict  # regime -> RegimeOutcome
    wall_clock: float
    error: str | None = None


def _derived_seed(base: int, pair_idx: int, offset: int) -> int:
    return (base * 1_000_003 + pair_idx * 7919 + offset) % 2**31


def run_pair(cfg: ExperimentConfig, idx: int, spec: PairSpec) -> ExperimentResult:
    start = time.perf_counter()
    outcomes = {r: RegimeOutcome() for r in cfg.regimes}
    try:
        if spec.synth is not None:
            source, target, _ = generate_synthetic(spec.synth)
        else:
            schema = schema_from_json(Path(spec.schema_json))
            source = load_dataset(Path(spec.source_csv), schema)
            target = load_dataset(Path(spec.target_csv), schema)
        src_train, _src_test = split_train_test(
            source, cfg.train_fraction, _derived_seed(cfg.seed, idx, 0))
        tgt_train, tgt_test = split_train_test(
            target, cfg.train_fraction, _derived_seed(cfg.seed, idx, 1))
        protected = source.schema.protected_attr

        for regime in cfg.regimes:
            try:
                outcomes[regime] = _run_regime(cfg, regime, src_train, tgt_train,
                                               tgt_test, protected)
            except DadtError as exc:
                outcomes[regime] = RegimeOutcome(error=f"{type(exc).__name__}: {exc}")

        _attach_gains(outcomes)
    except DadtError as exc:
        return ExperimentResult(pair_id=spec.pair_id, outcomes=outcomes,
                                wall_clock=time.perf_counter() - start,
                                error=f"{type(exc).__name__}: {exc}")
    return ExperimentResult(pair_id=spec.pair_id, outcomes=outcomes,
                            wall_clock=time.perf_counter() - start)


def _run_regime(cfg, regime, src_train, tgt_train, tgt_test, protected) -> RegimeOutcome:
    tree_cfg = TreeConfig(**cfg.tree)
    if regime == "tt":
        tree = grow(tgt_train, KnowledgeStore.empty(src_train.schema), tree_cfg)
    else:
        ks = build_from_target_sample(tgt_train, NAMED_REGIMES[regime])
        tree = grow(src_train, ks, tree_cfg)
    model: object = tree
    thresholds = constant = None
    if cfg.fairness_objective is not None and protected is not None:
        model = postprocess_thresholds(tree, tgt_train, protected, cfg.fairness_objective)
        thresholds = model.thresholds
    report = evaluate_model(model, tgt_test, protected)
    if thresholds is not None and report.confusion:
        # one class: no group has a predicted positive, or every row of
        # every group is one; read off the predictions evaluate_model made
        predicted = [(c["tp"] + c["fp"], sum(c.values())) for c in report.confusion.values()]
        constant = not any(p for p, _ in predicted) or all(p == n for p, n in predicted)
    return RegimeOutcome(report=report, w_tree=tree_shift_distance(tree, tgt_test),
                         x_w=tree.x_w, thresholds=thresholds, constant_model=constant)


def _attach_gains(outcomes: dict) -> None:
    tt, ntdk = (outcomes.get(r) for r in _BASELINES)
    if not (ntdk and tt and ntdk.report and tt.report):
        return
    for regime, out in outcomes.items():
        if regime in _BASELINES or out.report is None:
            continue
        r_acc = relative_gain_acc(tt.report.acc, ntdk.report.acc, out.report.acc)
        r_dp = r_eop = None
        if None not in (tt.report.dp, ntdk.report.dp, out.report.dp):
            r_dp = relative_gain_fairness(tt.report.dp, ntdk.report.dp, out.report.dp)
        if None not in (tt.report.eop, ntdk.report.eop, out.report.eop):
            r_eop = relative_gain_fairness(tt.report.eop, ntdk.report.eop, out.report.eop)
        out.gains = RelativeGains(
            r_acc=r_acc, r_dp=r_dp, r_eop=r_eop,
            components={"acc_tt": tt.report.acc, "acc_ntdk": ntdk.report.acc,
                        "acc_adapted": out.report.acc})


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentResult]:
    """Run every pair; per-pair failures are recorded, never fatal to the sweep."""
    return [run_pair(cfg, i, spec) for i, spec in enumerate(cfg.pairs)]


_CSV_COLUMNS = ("pair_id", "regime", "error", "acc", "dp", "eop",
                "r_acc", "r_acc_degenerate", "r_dp", "r_eop",
                "w_tree", "x_w", "n_test")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def results_csv(results: list[ExperimentResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for res in results:
        for regime in res.outcomes:
            out = res.outcomes[regime]
            rep = out.report
            g = out.gains
            writer.writerow([_fmt(v) for v in (
                res.pair_id, regime,
                out.error or res.error,
                rep.acc if rep else None,
                rep.dp if rep else None,
                rep.eop if rep else None,
                g.r_acc.value if g else None,
                g.r_acc.degenerate if g else None,
                g.r_dp.value if g and g.r_dp else None,
                g.r_eop.value if g and g.r_eop else None,
                out.w_tree, out.x_w,
                rep.n_test if rep else None,
            )])
    return buf.getvalue()


def scatter_csv(results: list[ExperimentResult]) -> str:
    """Shift-vs-recovery table: one row per adapted regime with its gains."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("pair_id", "regime", "w_tree_ntdk", "w_tree", "r_acc"))
    for res in results:
        ntdk = res.outcomes.get("ntdk")
        w_ntdk = ntdk.w_tree if ntdk else None
        for regime, out in res.outcomes.items():
            if regime in _BASELINES or out.gains is None:
                continue
            writer.writerow([_fmt(v) for v in (
                res.pair_id, regime, w_ntdk, out.w_tree, out.gains.r_acc.value)])
    return buf.getvalue()


def results_json(results: list[ExperimentResult]) -> str:
    docs = [{"pair_id": res.pair_id, "wall_clock_s": res.wall_clock, "error": res.error,
             "regimes": {regime: asdict(out) for regime, out in res.outcomes.items()}}
            for res in results]
    return json.dumps(docs, indent=2)


def emit_results(results: list[ExperimentResult], out_dir: str) -> dict[str, str]:
    """Write results.csv / results.json / scatter.csv; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "csv": os.path.join(out_dir, "results.csv"),
        "json": os.path.join(out_dir, "results.json"),
        "scatter": os.path.join(out_dir, "scatter.csv"),
    }
    with open(paths["csv"], "w", encoding="utf-8", newline="") as fh:
        fh.write(results_csv(results))
    with open(paths["json"], "w", encoding="utf-8") as fh:
        fh.write(results_json(results))
    with open(paths["scatter"], "w", encoding="utf-8", newline="") as fh:
        fh.write(scatter_csv(results))
    return paths
