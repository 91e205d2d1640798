"""Command-line interface: synth, train, predict, evaluate, experiment, shift-report."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .data import load_dataset, schema_from_json, serialize_dataset
from .errors import ConfigError, DadtError, InternalError
from .harness import (
    SynthConfig,
    emit_results,
    generate_synthetic,
    parse_experiment_config,
    run_experiment,
)
from .knowledge import NAMED_REGIMES, KnowledgeRegime, KnowledgeStore, build_from_target_sample
from .metrics import evaluate_model, tree_shift_distance, attribute_shift_report
from .tree import TreeConfig, grow, route_dataset, tree_from_json, tree_to_json


def _add_tree_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-depth", type=int, default=8)
    p.add_argument("--min-node-fraction", type=float, default=0.05)
    p.add_argument("--purity-stop", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=None,
                   help="fixed source weight in [0,1], taken exactly over a target sample; "
                        "omit for the dynamic rule")
    p.add_argument("--pivot", default=None,
                   help="attribute used to reconstruct class probabilities")


def _tree_config(args) -> TreeConfig:
    return TreeConfig(max_depth=args.max_depth,
                      min_node_fraction=args.min_node_fraction,
                      purity_stop=args.purity_stop,
                      alpha_override=args.alpha,
                      x_w_override=args.pivot)


def _csv_line(cells) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def _cmd_synth(args) -> int:
    cfg = SynthConfig(n_source=args.n_source, n_target=args.n_target,
                      n_attrs=args.n_attrs, target_correlation=args.rho,
                      label_noise=args.label_noise,
                      covshift_violation=args.delta, seed=args.seed)
    source, target, ground_truth = generate_synthetic(cfg)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "source.csv"), "w", encoding="utf-8") as fh:
        fh.write(serialize_dataset(source))
    with open(os.path.join(args.out, "target.csv"), "w", encoding="utf-8") as fh:
        fh.write(serialize_dataset(target))
    with open(os.path.join(args.out, "schema.json"), "w", encoding="utf-8") as fh:
        json.dump(source.schema.to_json_dict(), fh, indent=2)
    with open(os.path.join(args.out, "ground_truth.json"), "w", encoding="utf-8") as fh:
        json.dump(ground_truth, fh, indent=2)
    print(f"wrote source.csv, target.csv, schema.json, ground_truth.json to {args.out}")
    return 0


def _cmd_train(args) -> int:
    schema = schema_from_json(args.schema)
    source = load_dataset(args.source, schema)
    regime = NAMED_REGIMES[args.regime]
    if regime.is_none:
        ks = KnowledgeStore.empty(schema)
    else:
        if args.target is None:
            raise ConfigError(f"regime {args.regime} needs --target for knowledge")
        target = load_dataset(args.target, schema)
        ks = build_from_target_sample(target, regime)
    tree = grow(source, ks, _tree_config(args))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(tree_to_json(tree))
    print(f"wrote tree to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    tree = tree_from_json(args.tree)
    data = load_dataset(args.data, tree.schema)
    class_name = tree.schema.class_attr.name
    # a row's line is its leaf's, each formatted once and indexed by leaf id
    lines = [_csv_line([leaf.class_dist.argmax()] + [repr(p) for p in leaf.class_dist.probs])
             for leaf in tree.leaves()]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line([f"predicted_{class_name}"]
                           + [f"p_{y}" for y in tree.schema.class_values]))
        for chunk in data.chunks():
            fh.write("".join([lines[i] for i in route_dataset(tree, chunk).tolist()]))
    print(f"wrote predictions to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    tree = tree_from_json(args.tree)
    data = load_dataset(args.data, tree.schema)
    protected = args.protected or tree.schema.protected_attr
    report = evaluate_model(tree, data, protected)
    doc = {**asdict(report), "w_tree": tree_shift_distance(tree, data)}
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


def _cmd_experiment(args) -> int:
    cfg = parse_experiment_config(args.config)
    if args.out is not None:
        cfg = type(cfg)(**{**cfg.__dict__, "output_dir": args.out})
    results = run_experiment(cfg)
    paths = emit_results(results, cfg.output_dir)
    print(f"wrote {paths['csv']}, {paths['json']}, {paths['scatter']}")
    return 0


def _cmd_shift_report(args) -> int:
    schema = schema_from_json(args.schema)
    source = load_dataset(args.source, schema)
    target = load_dataset(args.target, schema)
    ks = build_from_target_sample(target, KnowledgeRegime.full()) if target.labeled else None
    rows = attribute_shift_report(source, target, ks)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("attribute", "w_marginal", "w_conditional"))
        for r in rows:
            writer.writerow((r["attribute"], repr(r["w_marginal"]),
                             "" if r["w_conditional"] is None else repr(r["w_conditional"])))
    print(f"wrote shift report to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dadt",
        description="Domain-adaptive decision trees for tabular covariate shift")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a shifted synthetic source/target pair")
    p.add_argument("--n-source", type=int, default=1000)
    p.add_argument("--n-target", type=int, default=1000)
    p.add_argument("--n-attrs", type=int, default=2)
    p.add_argument("--rho", type=float, default=1.0,
                   help="probability that X2 copies X1 in the target")
    p.add_argument("--label-noise", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.0,
                   help="per-cell chance of flipping the target class conditional")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="grow one tree under one knowledge regime")
    p.add_argument("--source", type=Path, required=True, help="labeled source CSV")
    p.add_argument("--schema", type=Path, required=True, help="schema JSON")
    p.add_argument("--regime", choices=sorted(NAMED_REGIMES), default="ntdk")
    p.add_argument("--target", type=Path, default=None,
                   help="target CSV supplying knowledge (labels optional)")
    p.add_argument("--out", type=Path, required=True, help="tree JSON output path")
    _add_tree_args(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="apply a tree to a CSV")
    p.add_argument("--tree", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="accuracy/fairness report on labeled data")
    p.add_argument("--tree", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--protected", default=None)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("experiment", help="run a config-driven regime sweep")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None, help="override the config's output dir")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("shift-report", help="per-attribute shift distances")
    p.add_argument("--source", type=Path, required=True)
    p.add_argument("--target", type=Path, required=True)
    p.add_argument("--schema", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_shift_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InternalError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (DadtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
