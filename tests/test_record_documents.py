"""Experiment results, evaluation reports and tree documents against
hand-written mappings.

The references below map each record to its document key by key:
`results.json`, `results.csv` and `scatter.csv` from `emit_results`, the
report `dadt evaluate` writes, and a grown tree's JSON must be the bytes
they give, and `tree_from_json` must read the config they read. Wall clocks
are fixed so that `results.json` is deterministic. The sweeps cover every
regime under no fairness objective, dp and eop; a failed regime, a failed
baseline and a pair-level error; and a pair with no protected attribute.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest

import dadt.harness
from dadt.cli import main
from dadt.data import EQ, LEQ, load_dataset, serialize_dataset
from dadt.errors import DomainError, ParseError
from dadt.harness import (
    ExperimentResult,
    RegimeOutcome,
    SynthConfig,
    emit_results,
    generate_synthetic,
    parse_experiment_config,
    run_experiment,
)
from dadt.knowledge import KnowledgeRegime, KnowledgeStore, build_from_target_sample
from dadt.metrics import EvalReport, GainValue, RelativeGains, evaluate_model, tree_shift_distance
from dadt.tree import Leaf, TreeConfig, grow, tree_from_json, tree_to_json

from conftest import random_dataset, random_mixed_schema

WALL_CLOCK = 0.125


# -- references: the hand-written mappings ------------------------------------
def ref_fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def ref_results_csv(results) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("pair_id", "regime", "error", "acc", "dp", "eop",
                     "r_acc", "r_acc_degenerate", "r_dp", "r_eop",
                     "w_tree", "x_w", "n_test"))
    for res in results:
        for regime, out in res.outcomes.items():
            rep = out.report
            g = out.gains
            writer.writerow([ref_fmt(v) for v in (
                res.pair_id, regime, out.error or res.error,
                rep.acc if rep else None, rep.dp if rep else None,
                rep.eop if rep else None,
                g.r_acc.value if g else None, g.r_acc.degenerate if g else None,
                g.r_dp.value if g and g.r_dp else None,
                g.r_eop.value if g and g.r_eop else None,
                out.w_tree, out.x_w, rep.n_test if rep else None)])
    return buf.getvalue()


def ref_scatter_csv(results) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("pair_id", "regime", "w_tree_ntdk", "w_tree", "r_acc"))
    for res in results:
        ntdk = res.outcomes.get("ntdk")
        w_ntdk = ntdk.w_tree if ntdk else None
        for regime, out in res.outcomes.items():
            if regime in ("ntdk", "tt") or out.gains is None:
                continue
            writer.writerow([ref_fmt(v) for v in (
                res.pair_id, regime, w_ntdk, out.w_tree, out.gains.r_acc.value)])
    return buf.getvalue()


def ref_report(rep) -> dict | None:
    if rep is None:
        return None
    return {"acc": rep.acc, "dp": rep.dp, "eop": rep.eop, "confusion": rep.confusion,
            "n_test": rep.n_test, "notes": list(rep.notes)}


def ref_gain(g) -> dict | None:
    return None if g is None else {"value": g.value, "degenerate": g.degenerate}


def ref_results_json(results) -> str:
    docs = []
    for res in results:
        entry = {"pair_id": res.pair_id, "wall_clock_s": res.wall_clock,
                 "error": res.error, "regimes": {}}
        for regime, out in res.outcomes.items():
            entry["regimes"][regime] = {
                "error": out.error,
                "report": ref_report(out.report),
                "gains": None if out.gains is None else {
                    "r_acc": ref_gain(out.gains.r_acc),
                    "r_dp": ref_gain(out.gains.r_dp),
                    "r_eop": ref_gain(out.gains.r_eop),
                    "components": out.gains.components,
                },
                "w_tree": out.w_tree,
                "x_w": out.x_w,
                "thresholds": out.thresholds,
                "constant_model": out.constant_model,
            }
        docs.append(entry)
    return json.dumps(docs, indent=2)


def ref_evaluate_text(tree, data, protected) -> str:
    report = evaluate_model(tree, data, protected)
    doc = {**ref_report(report), "w_tree": tree_shift_distance(tree, data)}
    return json.dumps(doc, indent=2)


def ref_node(node) -> dict:
    if isinstance(node, Leaf):
        return {
            "leaf": True,
            "dist": dict(zip(node.class_dist.support, node.class_dist.probs)),
            "n_source_rows": node.n_source_rows,
            "path": [[c.attribute, c.op, c.threshold] for c in node.path.conditions],
        }
    return {
        "leaf": False,
        "condition": {"attr": node.condition.attribute, "op": node.condition.op,
                      "threshold": node.condition.threshold},
        "ig": node.ig_achieved,
        "left": ref_node(node.left),
        "right": ref_node(node.right),
    }


CONFIG_KEYS = ("max_depth", "min_node_fraction", "purity_stop", "alpha_override",
               "x_w_override", "route_unseen_right")


def ref_tree_json(tree) -> str:
    cfg = tree.config
    doc = {
        "schema": tree.schema.to_json_dict(),
        "config": {
            "max_depth": cfg.max_depth,
            "min_node_fraction": cfg.min_node_fraction,
            "purity_stop": cfg.purity_stop,
            "alpha_override": cfg.alpha_override,
            "x_w_override": cfg.x_w_override,
            "route_unseen_right": cfg.route_unseen_right,
        },
        "x_w": tree.x_w,
        "diagnostics": {key: tree.diagnostics.get(key, 0)
                        for key in ("n_alphas", "truncations", "forced_source")},
        "root": ref_node(tree.root),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def ref_tree_config(c: dict) -> TreeConfig:
    return TreeConfig(
        max_depth=c["max_depth"], min_node_fraction=c["min_node_fraction"],
        purity_stop=c["purity_stop"],
        alpha_override=c["alpha_override"], x_w_override=c["x_w_override"],
        route_unseen_right=c["route_unseen_right"])


# -- experiment results --------------------------------------------------------
def _synth_pair(pid: str, delta: float, seed: int) -> dict:
    return {"id": pid, "synth": {"n_source": 240, "n_target": 240, "n_attrs": 3,
                                 "label_noise": 0.1, "covshift_violation": delta,
                                 "seed": seed}}


@pytest.fixture(scope="module")
def unprotected_pair(tmp_path_factory) -> dict:
    """A CSV pair whose schema declares no protected attribute."""
    out = tmp_path_factory.mktemp("unprotected")
    source, target, _ = generate_synthetic(SynthConfig(
        n_source=240, n_target=240, n_attrs=3, label_noise=0.1, seed=5))
    schema_doc = source.schema.to_json_dict()
    del schema_doc["protected"]
    (out / "schema.json").write_text(json.dumps(schema_doc), encoding="utf-8")
    (out / "source.csv").write_text(serialize_dataset(source), encoding="utf-8")
    (out / "target.csv").write_text(serialize_dataset(target), encoding="utf-8")
    return {"id": "unprotected", "source_csv": str(out / "source.csv"),
            "target_csv": str(out / "target.csv"), "schema_json": str(out / "schema.json")}


def _sweep(pairs: list, objective: str | None, regimes=("tt", "ntdk", "ftdk", "ptdk2", "ptdk3"),
           tree: dict | None = None) -> list[ExperimentResult]:
    doc = {"seed": 11, "pairs": pairs, "regimes": list(regimes), "tree": tree or {}}
    if objective is not None:
        doc["fairness_objective"] = objective
    results = run_experiment(parse_experiment_config(doc))
    for res in results:
        res.wall_clock = WALL_CLOCK
    return results


def _assert_emitted_as_referenced(results, out_dir) -> None:
    paths = emit_results(results, str(out_dir))
    with open(paths["json"], "rb") as fh:
        assert fh.read() == ref_results_json(results).encode("utf-8")
    with open(paths["csv"], "rb") as fh:
        assert fh.read() == ref_results_csv(results).encode("utf-8")
    with open(paths["scatter"], "rb") as fh:
        assert fh.read() == ref_scatter_csv(results).encode("utf-8")


@pytest.mark.parametrize("objective", [None, "dp", "eop"])
def test_sweep_documents(objective, unprotected_pair, tmp_path):
    bad = {"id": "bad", "source_csv": str(tmp_path / "missing.csv"),
           "target_csv": str(tmp_path / "missing.csv"),
           "schema_json": str(tmp_path / "missing.json")}
    pairs = [_synth_pair("p0", 0.0, 1), _synth_pair("p1", 0.25, 2), unprotected_pair, bad]
    results = _sweep(pairs, objective, tree={"x_w_override": "X2", "max_depth": 4})
    assert results[3].error is not None
    assert results[0].outcomes["ftdk"].gains is not None
    assert results[2].outcomes["ftdk"].report.dp is None
    if objective is not None:
        assert results[0].outcomes["ftdk"].thresholds is not None
    _assert_emitted_as_referenced(results, tmp_path / "out")


@pytest.mark.parametrize("failing", ["tt", "ntdk", "ptdk2"])
def test_failed_regime_documents(failing, monkeypatch, tmp_path):
    regimes = ("tt", "ntdk", "ftdk", "ptdk2")
    calls = []
    shift = dadt.harness.tree_shift_distance

    def flaky(tree, test):
        calls.append(tree)
        if (len(calls) - 1) % len(regimes) == regimes.index(failing):
            raise DomainError("injected failure")
        return shift(tree, test)

    monkeypatch.setattr(dadt.harness, "tree_shift_distance", flaky)
    results = _sweep([_synth_pair("p0", 0.1, 3), _synth_pair("p1", 0.5, 4)], "dp",
                     regimes=regimes)
    for res in results:
        assert res.outcomes[failing].error == "DomainError: injected failure"
        assert res.outcomes[failing].report is None
    _assert_emitted_as_referenced(results, tmp_path / "out")


def test_hand_built_outcomes(tmp_path):
    """Degenerate gains, absent fairness gains, notes and mixed thresholds."""
    report = EvalReport(acc=0.75, dp=0.125, eop=None,
                        confusion={"0": {"tp": 3, "fp": 1, "tn": 2, "fn": 0}},
                        n_test=6, notes=("group '1' has no positives",))
    gains = RelativeGains(r_acc=GainValue(0.0, True), r_dp=None,
                          r_eop=GainValue(-12.5, False),
                          components={"acc_tt": 0.5, "acc_ntdk": 0.5, "acc_adapted": 0.75})
    results = [
        ExperimentResult(pair_id="hand", wall_clock=WALL_CLOCK, outcomes={
            "tt": RegimeOutcome(report=report, w_tree=0.0, x_w=None),
            "ntdk": RegimeOutcome(report=report, w_tree=0.25, x_w="X1",
                                  thresholds={"0": 0.5, "1": None}, constant_model=True),
            "ftdk": RegimeOutcome(report=report, gains=gains, w_tree=0.5, x_w="X2",
                                  thresholds={"0": 0.25, "1": 0.75}, constant_model=False),
            "ptdk2": RegimeOutcome(error="ConfigError: no pivot"),
        }),
        ExperimentResult(pair_id="empty", wall_clock=WALL_CLOCK,
                         outcomes={"ntdk": RegimeOutcome()}, error="ParseError: cannot read"),
    ]
    _assert_emitted_as_referenced(results, tmp_path / "out")


# -- the dadt evaluate report --------------------------------------------------
@pytest.fixture(scope="module")
def evaluated_pair(tmp_path_factory):
    out = tmp_path_factory.mktemp("evaluate")
    source, target, _ = generate_synthetic(SynthConfig(
        n_source=300, n_target=300, n_attrs=3, label_noise=0.1,
        covshift_violation=0.25, seed=9))
    ks = build_from_target_sample(target, KnowledgeRegime.full())
    tree = grow(source, ks, TreeConfig(max_depth=4))
    (out / "tree.json").write_text(tree_to_json(tree), encoding="utf-8")
    (out / "target.csv").write_text(serialize_dataset(target), encoding="utf-8")
    # one protected group only: dp and eop become notes
    one_group = target.subset(np.flatnonzero(target.column("X1") == "0"))
    (out / "one-group.csv").write_text(serialize_dataset(one_group), encoding="utf-8")
    doc = json.loads(tree_to_json(tree))
    del doc["schema"]["protected"]
    (out / "unprotected.json").write_text(json.dumps(doc), encoding="utf-8")
    return out


@pytest.mark.parametrize("tree_file, data_file, protected", [
    ("tree.json", "target.csv", None),
    ("tree.json", "target.csv", "X3"),
    ("tree.json", "one-group.csv", None),
    ("unprotected.json", "target.csv", None),
])
def test_evaluate_report(evaluated_pair, tree_file, data_file, protected, tmp_path):
    tree_path, data_path = evaluated_pair / tree_file, evaluated_pair / data_file
    argv = ["evaluate", "--tree", str(tree_path), "--data", str(data_path),
            "--out", str(tmp_path / "report.json")]
    if protected is not None:
        argv += ["--protected", protected]
    assert main(argv) == 0
    tree = tree_from_json(tree_path)
    expected = ref_evaluate_text(tree, load_dataset(data_path, tree.schema),
                                 protected or tree.schema.protected_attr)
    assert (tmp_path / "report.json").read_bytes() == expected.encode("utf-8")


def test_evaluate_report_printed(evaluated_pair, capsys):
    tree_path, data_path = evaluated_pair / "tree.json", evaluated_pair / "one-group.csv"
    capsys.readouterr()
    assert main(["evaluate", "--tree", str(tree_path), "--data", str(data_path)]) == 0
    tree = tree_from_json(tree_path)
    expected = ref_evaluate_text(tree, load_dataset(data_path, tree.schema),
                                 tree.schema.protected_attr)
    assert json.loads(expected)["notes"]
    assert capsys.readouterr().out == expected + "\n"


# -- tree documents -------------------------------------------------------------
def _grown_trees():
    rng = np.random.default_rng(12)
    trees = []
    for cfg_kwargs in ({}, {"max_depth": 3, "alpha_override": 0.25},
                       {"max_depth": 4, "min_node_fraction": 0.1, "purity_stop": 0.9,
                        "route_unseen_right": True}):
        schema = random_mixed_schema(rng)
        source = random_dataset(rng, schema, 200)
        target = random_dataset(rng, schema, 200)
        ks = build_from_target_sample(target, KnowledgeRegime.full())
        trees.append(grow(source, ks, TreeConfig(**cfg_kwargs)))
    source, target, _ = generate_synthetic(SynthConfig(
        n_source=300, n_target=300, n_attrs=4, label_noise=0.1, seed=13))
    trees.append(grow(source, KnowledgeStore.empty(source.schema),
                      TreeConfig(max_depth=3, x_w_override="X2")))
    trees.append(grow(source, build_from_target_sample(target, KnowledgeRegime.partial(2)),
                      TreeConfig(max_depth=5, x_w_override="X2")))
    return trees


TREES = _grown_trees()


@pytest.mark.parametrize("tree", TREES, ids=[f"tree{i}" for i in range(len(TREES))])
def test_tree_document(tree):
    text = tree_to_json(tree)
    assert text == ref_tree_json(tree)
    doc = json.loads(text)
    again = tree_from_json(text)
    assert again.config == ref_tree_config(doc["config"]) == tree.config
    assert tree_to_json(again) == text


def test_grown_trees_cover_the_config_and_both_kinds_of_split():
    configs = [t.config for t in TREES]
    assert any(c.alpha_override is not None for c in configs)
    assert any(c.x_w_override is not None for c in configs)
    assert any(c.route_unseen_right for c in configs)
    ops = {t.root.condition.op for t in TREES if not isinstance(t.root, Leaf)}
    assert {EQ, LEQ} <= ops


def test_older_document_with_an_extra_config_key_loads():
    for tree in TREES:
        doc = json.loads(tree_to_json(tree))
        doc["config"]["knowledge_at_leaves"] = True
        old = tree_from_json(json.dumps(doc))
        assert old.config == ref_tree_config(doc["config"]) == tree.config
        assert tree_to_json(old) == tree_to_json(tree)


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_document_missing_a_config_key_is_a_parse_error(key, tmp_path, capsys):
    doc = json.loads(tree_to_json(TREES[0]))
    del doc["config"][key]
    with pytest.raises(ParseError):
        tree_from_json(json.dumps(doc))
    with pytest.raises(KeyError):
        ref_tree_config(doc["config"])
    (tmp_path / "tree.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "data.csv").write_text(
        ",".join(a.name for a in TREES[0].schema.predictive) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--tree", str(tmp_path / "tree.json"),
                 "--data", str(tmp_path / "data.csv"),
                 "--out", str(tmp_path / "preds.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")

