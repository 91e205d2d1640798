"""Synthetic generator, experiment sweeps, result emission, CLI."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import os

import numpy as np
import pytest

import dadt.data
import dadt.harness
from dadt.cli import main
from dadt.data import Attribute, Dataset, Schema, serialize_dataset
from dadt.errors import ConfigError
from dadt.knowledge import KnowledgeStore
from dadt.metrics import evaluate_model, postprocess_thresholds
from dadt.tree import TreeConfig, grow, predict, tree_to_json
from dadt.harness import (
    ExperimentConfig,
    PairSpec,
    SynthConfig,
    emit_results,
    generate_synthetic,
    parse_experiment_config,
    results_csv,
    results_json,
    run_experiment,
    scatter_csv,
)


class TestSynthConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_attrs=1)
        with pytest.raises(ConfigError):
            SynthConfig(label_noise=0.5)
        with pytest.raises(ConfigError):
            SynthConfig(covshift_violation=1.5)
        with pytest.raises(ConfigError):
            SynthConfig(n_source=0)


class TestGenerator:
    def test_exact_example_construction(self):
        src, tgt, gt = generate_synthetic(SynthConfig(
            n_source=200, n_target=200, n_attrs=2,
            target_correlation=1.0, label_noise=0.0, covshift_violation=0.0, seed=1))
        x1, x2 = tgt.column("X1"), tgt.column("X2")
        assert (x1 == x2).all()
        assert (tgt.class_column() == "1").all()
        # source labels follow the indicator rule exactly at zero noise
        s1, s2, sy = src.column("X1"), src.column("X2"), src.class_column()
        assert all(("1" if a == b else "0") == y for a, b, y in zip(s1, s2, sy))

    def test_ground_truth_equal_when_no_violation(self):
        _, _, gt = generate_synthetic(SynthConfig(
            n_source=10, n_target=10, n_attrs=3, covshift_violation=0.0,
            label_noise=0.2, seed=5))
        assert gt["p_source_y1"] == gt["p_target_y1"]

    def test_all_cells_flip_at_delta_one(self):
        _, _, gt = generate_synthetic(SynthConfig(
            n_source=10, n_target=10, n_attrs=3, covshift_violation=1.0,
            label_noise=0.2, seed=5))
        for ps, pt in zip(gt["p_source_y1"], gt["p_target_y1"]):
            assert pt == pytest.approx(1.0 - ps)

    def test_deterministic(self):
        cfg = SynthConfig(n_source=50, n_target=50, n_attrs=3, label_noise=0.1, seed=9)
        a_src, a_tgt, _ = generate_synthetic(cfg)
        b_src, b_tgt, _ = generate_synthetic(cfg)
        for name in a_src.schema.predictive_names + ("Y",):
            assert list(a_src.column(name)) == list(b_src.column(name))
            assert list(a_tgt.column(name)) == list(b_tgt.column(name))

    @pytest.mark.parametrize("cfg, digest", [
        (SynthConfig(n_source=300, n_target=200, n_attrs=5, target_correlation=0.9,
                     label_noise=0.1, covshift_violation=0.25, seed=3), "3aa4b34858790167"),
        (SynthConfig(n_source=57, n_target=91, n_attrs=2, target_correlation=0.5,
                     label_noise=0.0, covshift_violation=1.0, seed=0), "92def099ac5e9186"),
        (SynthConfig(n_source=1000, n_target=1000, n_attrs=10, target_correlation=1.0,
                     label_noise=0.1, covshift_violation=0.5, seed=7919), "182037e636fa8586"),
    ])
    def test_generated_data_digest(self, cfg, digest):
        """The source and target CSVs and the ground truth, pinned so that a
        rewrite of the generator keeps every draw."""
        src, tgt, gt = generate_synthetic(cfg)
        text = serialize_dataset(src) + serialize_dataset(tgt) + json.dumps(gt, sort_keys=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == digest

    def test_no_shift_limit(self):
        src, tgt, _ = generate_synthetic(SynthConfig(
            n_source=4000, n_target=4000, n_attrs=2,
            target_correlation=0.0, label_noise=0.1, seed=2))
        # same law: marginals agree up to sampling noise
        for name in ("X1", "X2"):
            gap = abs((src.column(name) == "1").mean() - (tgt.column(name) == "1").mean())
            assert gap < 0.05


class TestConfigParsing:
    def test_seed_mandatory(self):
        with pytest.raises(ConfigError):
            parse_experiment_config({"pairs": [{"synth": {}}]})

    def test_unknown_regime(self):
        with pytest.raises(ConfigError):
            parse_experiment_config({"seed": 1, "regimes": ["nope"],
                                     "pairs": [{"synth": {}}]})

    def test_no_pairs(self):
        with pytest.raises(ConfigError):
            parse_experiment_config({"seed": 1, "pairs": []})

    def test_unknown_tree_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_experiment_config({"seed": 1, "pairs": [{"synth": {}}],
                                     "tree": {"bogus": 1}})
        with pytest.raises(ConfigError, match="regime"):  # no longer a tree setting
            parse_experiment_config({"seed": 1, "pairs": [{"synth": {}}],
                                     "tree": {"regime": "full"}})

    def test_unknown_synth_key(self):
        with pytest.raises(ConfigError, match="rho"):
            parse_experiment_config({"seed": 1, "pairs": [{"synth": {"rho": 0.5}}]})

    def test_paths_relative_to_config(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "seed": 3,
            "pairs": [{"id": "p", "source_csv": "s.csv", "target_csv": "t.csv",
                       "schema_json": "schema.json"}],
        }))
        cfg = parse_experiment_config(str(cfg_path))
        assert cfg.pairs[0].source_csv == str(tmp_path / "s.csv")
        assert cfg.output_dir == str(tmp_path / ".")


def small_config(**overrides):
    synth = {"n_source": 300, "n_target": 300, "n_attrs": 3,
             "label_noise": 0.1, "seed": 4}
    doc = {"seed": 17,
           "pairs": [{"id": "p0", "synth": synth}],
           "regimes": ["tt", "ntdk", "ftdk"],
           "tree": {"x_w_override": "X2"}}
    doc.update(overrides)
    return parse_experiment_config(doc)


class TestRunExperiment:
    def test_same_distribution_sanity(self):
        synth = {"n_source": 1500, "n_target": 1500, "n_attrs": 2,
                 "target_correlation": 0.0, "label_noise": 0.1, "seed": 21}
        cfg = parse_experiment_config({
            "seed": 5, "pairs": [{"id": "p", "synth": synth}],
            "regimes": ["tt", "ntdk"]})
        (res,) = run_experiment(cfg)
        acc_tt = res.outcomes["tt"].report.acc
        acc_ntdk = res.outcomes["ntdk"].report.acc
        assert abs(acc_tt - acc_ntdk) < 0.1

    def test_every_regime_reported(self):
        (res,) = run_experiment(small_config())
        assert set(res.outcomes) == {"tt", "ntdk", "ftdk"}
        for out in res.outcomes.values():
            assert out.report is not None or out.error is not None
        assert res.outcomes["ftdk"].gains is not None

    def test_bad_pair_does_not_abort_sweep(self):
        cfg = ExperimentConfig(
            seed=1,
            pairs=(PairSpec(pair_id="bad", source_csv="/nonexistent.csv",
                            target_csv="/nonexistent.csv", schema_json="/nope.json"),
                   small_config().pairs[0]),
            regimes=("ntdk",), tree={"x_w_override": "X2"})
        results = run_experiment(cfg)
        assert results[0].error is not None
        assert results[1].error is None
        assert results[1].outcomes["ntdk"].report is not None


class TestEmission:
    def test_empty_results_header_only(self):
        text = results_csv([])
        assert text.splitlines() == [
            "pair_id,regime,error,acc,dp,eop,r_acc,r_acc_degenerate,"
            "r_dp,r_eop,w_tree,x_w,n_test"]

    def test_row_counts_and_json_roundtrip(self, tmp_path):
        results = run_experiment(small_config())
        text = results_csv(results)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3  # 1 pair x 3 regimes
        parsed = json.loads(results_json(results))
        assert parsed[0]["pair_id"] == "p0"
        assert set(parsed[0]["regimes"]) == {"tt", "ntdk", "ftdk"}
        paths = emit_results(results, str(tmp_path / "out"))
        assert os.path.exists(paths["csv"])
        assert json.load(open(paths["json"])) == parsed

    @pytest.mark.parametrize("tau", [None, 0.9])
    def test_json_records_postprocessing_thresholds(self, monkeypatch, tau):
        """The dp rule picks (0, 0) on these pairs, a constant model; fixed
        thresholds of 0.9 split these trees' leaf scores (0.82 to 0.96)."""
        evaluated = []

        def spy(model, test, protected):
            evaluated.append(len(set(model.predict_dataset(test))) == 1)
            return evaluate_model(model, test, protected)

        def fixed(*args):
            model = postprocess_thresholds(*args)
            return dataclasses.replace(model, thresholds=dict.fromkeys(model.thresholds, tau))

        monkeypatch.setattr(dadt.harness, "evaluate_model", spy)
        if tau is not None:
            monkeypatch.setattr(dadt.harness, "postprocess_thresholds", fixed)
        cfg = small_config(fairness_objective="dp", regimes=["tt", "ntdk", "ftdk", "ptdk2"])
        results = run_experiment(cfg)
        entries = json.loads(results_json(results))[0]["regimes"]
        assert [entries[r]["constant_model"] for r in cfg.regimes] == evaluated
        assert all(evaluated) == (tau is None)
        for regime, entry in entries.items():
            assert set(entry["thresholds"]) == {"0", "1"}
            assert entry["thresholds"] == results[0].outcomes[regime].thresholds
        monkeypatch.undo()
        plain = json.loads(results_json(run_experiment(small_config())))[0]["regimes"]
        assert all(e["thresholds"] is None and e["constant_model"] is None
                   for e in plain.values())

    def test_scatter_rows(self):
        results = run_experiment(small_config())
        rows = list(csv.DictReader(io.StringIO(scatter_csv(results))))
        assert [r["regime"] for r in rows] == ["ftdk"]
        assert rows[0]["w_tree_ntdk"] != ""

    def test_byte_identical_rerun(self):
        a = results_csv(run_experiment(small_config()))
        b = results_csv(run_experiment(small_config()))
        assert a == b


class TestCli:
    def test_end_to_end(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--n-source", "200", "--n-target", "200",
                     "--n-attrs", "3", "--label-noise", "0.1",
                     "--seed", "3", "--out", str(data)]) == 0
        tree_path = tmp_path / "tree.json"
        assert main(["train", "--source", str(data / "source.csv"),
                     "--schema", str(data / "schema.json"),
                     "--regime", "ftdk", "--target", str(data / "target.csv"),
                     "--pivot", "X2", "--out", str(tree_path)]) == 0
        preds = tmp_path / "preds.csv"
        assert main(["predict", "--tree", str(tree_path),
                     "--data", str(data / "target.csv"), "--out", str(preds)]) == 0
        assert len(preds.read_text().splitlines()) == 201
        report = tmp_path / "report.json"
        assert main(["evaluate", "--tree", str(tree_path),
                     "--data", str(data / "target.csv"), "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert 0.0 <= doc["acc"] <= 1.0 and "w_tree" in doc
        shift = tmp_path / "shift.csv"
        assert main(["shift-report", "--source", str(data / "source.csv"),
                     "--target", str(data / "target.csv"),
                     "--schema", str(data / "schema.json"), "--out", str(shift)]) == 0
        assert len(shift.read_text().splitlines()) == 4

    def test_predict_writes_each_rows_leaf_line(self, tmp_path, monkeypatch):
        # class labels that need quoting; rows over several chunks of 3
        monkeypatch.setattr(dadt.data, "_ROW_CHUNK", 3)
        rng = np.random.default_rng(8)
        schema = Schema(predictive=(Attribute("A", "continuous"),
                                    Attribute("B", "discrete", ("x,1", 'q"2', "l\nm"))),
                        class_attr=Attribute("Y", "discrete", ("no,way", 'say "yes"')))
        n = 40
        a = rng.normal(size=n)
        b = np.array(schema.predictive[1].domain, dtype=object)[rng.integers(3, size=n)]
        y = np.array(schema.class_values, dtype=object)[(a > 0).astype(int)]
        d = Dataset(schema, {"A": a, "B": b, "Y": y})
        tree = grow(d, KnowledgeStore.empty(schema), TreeConfig(max_depth=3,
                                                                min_node_fraction=0.1))
        assert len(tree.leaves()) > 1
        (tmp_path / "tree.json").write_text(tree_to_json(tree), encoding="utf-8")
        (tmp_path / "d.csv").write_text(serialize_dataset(d), encoding="utf-8")
        assert main(["predict", "--tree", str(tmp_path / "tree.json"),
                     "--data", str(tmp_path / "d.csv"),
                     "--out", str(tmp_path / "preds.csv")]) == 0
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["predicted_Y", "p_no,way", 'p_say "yes"'])
        for i in range(n):
            label, dist = predict(tree, d.row(i))
            writer.writerow([label] + [repr(p) for p in dist.probs])
        assert (tmp_path / "preds.csv").read_bytes() == expected.getvalue().encode("utf-8")

    def test_experiment_subcommand(self, tmp_path):
        cfg = {"seed": 2,
               "pairs": [{"id": "p", "synth": {"n_source": 200, "n_target": 200,
                                               "n_attrs": 3, "label_noise": 0.1,
                                               "seed": 8}}],
               "regimes": ["tt", "ntdk", "ftdk"],
               "tree": {"x_w_override": "X2"},
               "output_dir": "out"}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"seed": 1, "pairs": [{"synth": {}}],
                                        "tree": {"bogus": 1}}))
        assert main(["experiment", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bogus" in err

    def test_malformed_tree_exit_code(self, tmp_path, capsys):
        data = tmp_path / "d"
        main(["synth", "--n-source", "50", "--n-target", "50", "--out", str(data)])
        tree_path = tmp_path / "t.json"
        main(["train", "--source", str(data / "source.csv"),
              "--schema", str(data / "schema.json"), "--out", str(tree_path)])
        good = json.loads(tree_path.read_text())
        no_config = {k: v for k, v in good.items() if k != "config"}
        docs = [no_config]
        for op in ("lt", "leq"):  # unknown; continuous-only on a discrete attribute
            doc = json.loads(json.dumps(good))
            doc["root"] = {"leaf": False, "ig": 0.1, "left": good["root"],
                           "right": good["root"],
                           "condition": {"attr": "X1", "op": op, "threshold": "0"}}
            docs.append(doc)
        capsys.readouterr()
        for doc in docs:
            tree_path.write_text(json.dumps(doc))
            assert main(["predict", "--tree", str(tree_path),
                         "--data", str(data / "target.csv"),
                         "--out", str(tmp_path / "p.csv")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err

    def test_data_error_exit_code(self, tmp_path, capsys):
        assert main(["train", "--source", str(tmp_path / "missing.csv"),
                     "--schema", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "t.json")]) == 1

    def test_file_arguments_are_paths(self, tmp_path):
        # a comma in a file name must not turn the argument into inline CSV
        data = tmp_path / "a,b"
        assert main(["synth", "--n-source", "60", "--n-target", "60", "--out", str(data)]) == 0
        tree = tmp_path / "t,1.json"
        assert main(["train", "--source", str(data / "source.csv"),
                     "--schema", str(data / "schema.json"), "--regime", "ftdk",
                     "--target", str(data / "target.csv"), "--out", str(tree)]) == 0
        assert main(["evaluate", "--tree", str(tree), "--data", str(data / "target.csv"),
                     "--out", str(tmp_path / "r.json")]) == 0
        cfg = {"seed": 1, "regimes": ["ntdk"],
               "pairs": [{"source_csv": "a,b/source.csv", "target_csv": "a,b/target.csv",
                          "schema_json": "a,b/schema.json"}]}
        (tmp_path / "exp.json").write_text(json.dumps(cfg))
        results = run_experiment(parse_experiment_config(str(tmp_path / "exp.json")))
        assert results[0].error is None

    def test_train_without_target_for_ftdk(self, tmp_path):
        data = tmp_path / "d"
        main(["synth", "--n-source", "50", "--n-target", "50", "--out", str(data)])
        code = main(["train", "--source", str(data / "source.csv"),
                     "--schema", str(data / "schema.json"),
                     "--regime", "ftdk", "--out", str(tmp_path / "t.json")])
        assert code == 1
