"""The benchmark's workloads: inputs made from a seed, one timed op, its checks.

Every workload drives dadt through its in-process CLI entry point
(``dadt.cli.main``) or its public functions, always through the module
attribute, so the tracer in ``spans.py`` can rebind them.

An op is split into named stages; each stage's wall and process CPU time is
recorded. ``op`` returns the digests of the op's outputs, which the runner
compares against the first op of the run and against the references
recorded in ``references.json``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import dadt.baseline
import dadt.cli
import dadt.data
import dadt.metrics
import dadt.tree

from perfbench import mixed


def _digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _cli(argv: list[str]) -> None:
    """One in-process ``dadt`` command; its chatter is swallowed, failures raise."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = dadt.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"dadt {' '.join(argv[:1])} exited with {code}")


@dataclass
class Stage:
    name: str
    wall_s: float
    cpu_s: float


@dataclass
class OpRun:
    """Times the stages of one op; with a tracer, each stage is a traced scope."""

    op_id: int
    tracer: object = None
    stages: list[Stage] = field(default_factory=list)

    @contextlib.contextmanager
    def stage(self, name: str, regime: str):
        scope = (self.tracer.scope(self.op_id, name, regime) if self.tracer is not None
                 else contextlib.nullcontext())
        with scope:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            yield
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
        self.stages.append(Stage(name, wall, cpu))

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.stages)

    @property
    def cpu_s(self) -> float:
        return sum(s.cpu_s for s in self.stages)


def tree_structure(path: str) -> list:
    """Conditions, thresholds, gains, leaf probabilities and leaf row counts.

    Read back through ``tree_from_json`` so that fields the tree JSON may
    drop later (config, diagnostics) do not change the digest.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tree = dadt.tree.tree_from_json(fh)
    return _node_structure(tree.root)


def _node_structure(node) -> list:
    if isinstance(node, dadt.tree.Leaf):
        return ["leaf", [repr(p) for p in node.class_dist.probs], node.n_source_rows]
    c = node.condition
    return ["split", c.attribute, c.op, repr(c.threshold), repr(node.ig_achieved),
            _node_structure(node.left), _node_structure(node.right)]


def _write_dataset(path: str, d) -> None:
    _write(path, dadt.data.serialize_dataset(d))


def _write_schema(path: str) -> None:
    _write(path, json.dumps(mixed.mixed_schema().to_json_dict(), indent=2))


class Workload:
    name = ""
    stage_names: tuple[str, ...] = ()

    def prepare(self, workdir: str, seed: int, warmup: bool) -> dict:
        """Write the inputs (inside the traced set-up scope); return their paths."""
        raise NotImplementedError

    def fit(self, inputs: dict) -> None:
        """Build any model the op scores; part of set-up, never traced."""

    def op(self, inputs: dict, run: OpRun) -> dict[str, str]:
        raise NotImplementedError

    def check(self, inputs: dict) -> list[str]:
        """Invariants of the last op's outputs that need no reference."""
        return []

    def scored_rows(self, inputs: dict) -> int:
        return 0

    def stage_metrics(self, inputs: dict, run: OpRun) -> dict[str, tuple[float, str]]:
        return {s.name: (s.wall_s, "s") for s in run.stages}


class SynthSweep(Workload):
    """``dadt experiment`` on the paper's synthetic regime sweep."""

    name = "synth-sweep"
    stage_names = ("sweep_s",)
    N_ROWS = 1000
    N_ATTRS = 10
    DELTAS = (0.0, 0.1, 0.25, 0.5)
    # Two independent pairs per delta. Trees are full to the depth that
    # min_node_fraction allows, except that a ptdk tree sometimes stops near
    # the root; over eight pairs the number of such trees varies less with
    # the seed than over four.
    PAIRS_PER_DELTA = 2
    REGIMES = ("tt", "ntdk", "ftdk", "ptdk2", "ptdk3")

    def prepare(self, workdir, seed, warmup):
        n = 100 if warmup else self.N_ROWS
        deltas = self.DELTAS[:1] if warmup else self.DELTAS * self.PAIRS_PER_DELTA
        out_dir = os.path.join(workdir, "warmup-out" if warmup else "out")
        doc = {
            "seed": seed,
            "pairs": [{"id": f"delta{d}-{i // len(self.DELTAS)}", "synth": {
                "n_source": n, "n_target": n, "n_attrs": self.N_ATTRS,
                "target_correlation": 1.0, "label_noise": 0.1,
                "covshift_violation": d, "seed": seed * len(deltas) + i}}
                for i, d in enumerate(deltas)],
            "regimes": list(self.REGIMES),
            "fairness_objective": "dp",
            "output_dir": out_dir,
        }
        config = os.path.join(workdir, "warmup.json" if warmup else "experiment.json")
        _write(config, json.dumps(doc, indent=2))
        return {"config": config, "csv": os.path.join(out_dir, "results.csv")}

    def op(self, inputs, run):
        with run.stage("sweep_s", "all"):
            _cli(["experiment", "--config", inputs["config"]])
        return {"results_csv": _digest(_read(inputs["csv"]))}

    def _rows(self, inputs) -> list[dict]:
        with open(inputs["csv"], "r", encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    def check(self, inputs):
        rows = self._rows(inputs)
        problems = []
        if len(rows) != len(self.DELTAS) * self.PAIRS_PER_DELTA * len(self.REGIMES):
            problems.append(f"results.csv has {len(rows)} rows")
        problems += [f"{r['pair_id']}/{r['regime']}: {r['error']}" for r in rows if r["error"]]
        return problems

    def scored_rows(self, inputs):
        return sum(int(r["n_test"]) for r in self._rows(inputs))


class MixedTrain(Workload):
    """Three ``dadt train`` calls on mixed continuous/discrete data."""

    name = "mixed-train"
    stage_names = ("train_s.ntdk", "train_s.ftdk", "train_s.ptdk2")
    N_LARGE = 4000
    N_SMALL = 500

    def prepare(self, workdir, seed, warmup):
        n_large, n_small = (60, 40) if warmup else (self.N_LARGE, self.N_SMALL)
        prefix = "warmup-" if warmup else ""
        paths = {k: os.path.join(workdir, prefix + k) for k in
                 ("large.csv", "source.csv", "target.csv", "schema.json",
                  "ntdk.json", "ftdk.json", "ptdk2.json")}
        _write_dataset(paths["large.csv"], mixed.mixed_sample(seed, mixed.LARGE_SOURCE, n_large))
        _write_dataset(paths["source.csv"], mixed.mixed_sample(seed, mixed.SOURCE, n_small))
        _write_dataset(paths["target.csv"], mixed.mixed_sample(seed, mixed.TARGET, n_small))
        _write_schema(paths["schema.json"])
        return paths

    def op(self, inputs, run):
        schema = ["--schema", inputs["schema.json"]]
        with run.stage("train_s.ntdk", "ntdk"):
            _cli(["train", "--source", inputs["large.csv"], *schema, "--regime", "ntdk",
                  "--out", inputs["ntdk.json"]])
        for regime in ("ftdk", "ptdk2"):
            with run.stage(f"train_s.{regime}", regime):
                _cli(["train", "--source", inputs["source.csv"], *schema,
                      "--regime", regime, "--target", inputs["target.csv"],
                      "--out", inputs[f"{regime}.json"]])
        return {r: _digest(tree_structure(inputs[f"{r}.json"]))
                for r in ("ntdk", "ftdk", "ptdk2")}

    def check(self, inputs):
        """The no-knowledge tree must equal the independent baseline oracle."""
        with open(inputs["ntdk.json"], "r", encoding="utf-8") as fh:
            config = dadt.tree.tree_from_json(fh).config
        source = dadt.data.load_dataset(inputs["large.csv"], inputs["schema.json"])
        oracle = dadt.baseline.grow_baseline(source, config)
        if _node_structure(oracle.root) != tree_structure(inputs["ntdk.json"]):
            return ["ntdk tree differs from the baseline oracle"]
        return []


class Score(Workload):
    """``dadt predict`` and ``dadt evaluate`` on a large labeled target CSV,
    then threshold post-processing for dp and eop on the same rows."""

    name = "score"
    stage_names = ("predict_s", "evaluate_s", "postprocess_s")
    N_SMALL = MixedTrain.N_SMALL
    N_SCORED = 50000

    def prepare(self, workdir, seed, warmup):
        prefix = "warmup-" if warmup else ""
        paths = {k: os.path.join(workdir, prefix + k) for k in
                 ("source.csv", "target.csv", "scored.csv", "schema.json", "tree.json",
                  "preds.csv", "report.json")}
        n_small = 40 if warmup else self.N_SMALL
        n_scored = 200 if warmup else self.N_SCORED
        _write_dataset(paths["source.csv"], mixed.mixed_sample(seed, mixed.SOURCE, n_small))
        _write_dataset(paths["target.csv"], mixed.mixed_sample(seed, mixed.TARGET, n_small))
        _write_dataset(paths["scored.csv"], mixed.mixed_sample(seed, mixed.SCORED, n_scored))
        _write_schema(paths["schema.json"])
        return paths

    def fit(self, inputs):
        _cli(["train", "--source", inputs["source.csv"], "--schema", inputs["schema.json"],
              "--regime", "ftdk", "--target", inputs["target.csv"], "--out", inputs["tree.json"]])
        with open(inputs["tree.json"], "r", encoding="utf-8") as fh:
            inputs["tree"] = dadt.tree.tree_from_json(fh)
        inputs["scored"] = dadt.data.load_dataset(inputs["scored.csv"], inputs["schema.json"])

    def op(self, inputs, run):
        data = ["--tree", inputs["tree.json"], "--data", inputs["scored.csv"]]
        with run.stage("predict_s", "ftdk"):
            _cli(["predict", *data, "--out", inputs["preds.csv"]])
        with run.stage("evaluate_s", "ftdk"):
            _cli(["evaluate", *data, "--out", inputs["report.json"]])
        with run.stage("postprocess_s", "ftdk"):
            thresholds = {
                objective: dadt.metrics.postprocess_thresholds(
                    inputs["tree"], inputs["scored"], mixed.PROTECTED, objective).thresholds
                for objective in ("dp", "eop")}
        report = json.loads(_read(inputs["report.json"]))
        return {
            "preds": _digest(_read(inputs["preds.csv"])),
            "report": _digest({k: report[k] for k in ("acc", "dp", "eop", "confusion",
                                                      "w_tree")}),
            "thresholds": _digest({o: {g: repr(t) for g, t in taus.items()}
                                   for o, taus in thresholds.items()}),
        }

    def check(self, inputs):
        """Accuracy recomputed from preds.csv must match the evaluate report."""
        with open(inputs["preds.csv"], "r", encoding="utf-8", newline="") as fh:
            preds = [row[0] for row in list(csv.reader(fh))[1:]]
        truth = list(inputs["scored"].class_column())
        if len(preds) != len(truth):
            return [f"preds.csv has {len(preds)} rows for {len(truth)} scored rows"]
        acc = sum(p == t for p, t in zip(preds, truth)) / len(truth)
        reported = json.loads(_read(inputs["report.json"]))["acc"]
        if acc != reported:
            return [f"evaluate reports acc={reported!r}, preds.csv gives {acc!r}"]
        return []

    def scored_rows(self, inputs):
        return inputs["scored"].n

    def stage_metrics(self, inputs, run):
        out = super().stage_metrics(inputs, run)
        wall, _ = out.pop("predict_s")
        out["predict_rows_per_s"] = (self.scored_rows(inputs) / wall, "rows/s")
        return out


WORKLOADS = {w.name: w for w in (SynthSweep(), MixedTrain(), Score())}
