"""Outside-in span tracer for dadt's public functions.

The tracer rebinds each listed function in every ``dadt.*`` module namespace
that holds it, so calls made from inside the package are recorded as well as
calls made by the benchmark. ``Dataset.column`` and ``Dataset.subset`` are
wrapped on the class. Nothing in ``src/`` knows about it.

Every call records a span: name, start, end, parent span, and the scope it
ran in (set-up or a timed op, with the op's stage and regime). Spans are kept
in flat arrays in memory and written out when the run ends. A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (defining module, function name); the span name drops the "dadt." prefix.
TRACED_FUNCTIONS = (
    ("dadt.data", "filter_by_path"),
    ("dadt.data", "load_dataset"),
    ("dadt.data", "serialize_dataset"),
    ("dadt.data", "split_train_test"),
    ("dadt.stats", "freq_fraction"),
    ("dadt.stats", "class_fractions"),
    ("dadt.stats", "information_gain"),
    ("dadt.stats", "wasserstein"),
    ("dadt.knowledge", "maximal_subpath"),
    ("dadt.knowledge", "query_target"),
    ("dadt.knowledge", "affine_estimate"),
    ("dadt.knowledge", "dynamic_alpha"),
    ("dadt.knowledge", "build_from_target_sample"),
    ("dadt.tree", "best_split"),
    ("dadt.tree", "estimate_class_dist"),
    ("dadt.tree", "grow"),
    ("dadt.tree", "select_pivot"),
    ("dadt.tree", "predict"),
    ("dadt.tree", "predict_dataset"),
    ("dadt.tree", "positive_scores"),
    ("dadt.tree", "tree_from_json"),
    ("dadt.tree", "tree_to_json"),
    ("dadt.metrics", "evaluate_model"),
    ("dadt.metrics", "tree_shift_distance"),
    ("dadt.metrics", "postprocess_thresholds"),
    ("dadt.harness", "generate_synthetic"),
    ("dadt.harness", "run_pair"),
    ("dadt.harness", "emit_results"),
    ("dadt.cli", "main"),
)
# (defining module, class name, method name)
TRACED_METHODS = (
    ("dadt.data", "Dataset", "column"),
    ("dadt.data", "Dataset", "subset"),
)

# Outcome codes stored with a span, for the ratio metrics.
ANSWERED = 1
TRUNCATED = 2
UNANSWERED = 3


def _outcome_maximal_subpath(args, result) -> float:
    if result is None:
        return UNANSWERED
    return TRUNCATED if len(result) < len(args[2]) else ANSWERED


def _outcome_query_target(args, result) -> float:
    return UNANSWERED if result is None else ANSWERED


def _outcome_column(args, result) -> float:
    return float(result.nbytes)


_OUTCOMES = {
    "knowledge.maximal_subpath": _outcome_maximal_subpath,
    "knowledge.query_target": _outcome_query_target,
    "data.Dataset.column": _outcome_column,
}


def _span_name(module: str, *parts: str) -> str:
    return ".".join((module.removeprefix("dadt."),) + parts)


class Tracer:
    """Span recorder plus the rebinding that feeds it.

    ``scope(...)`` installs the wrappers for the duration of a block and tags
    every span opened inside it; outside any scope the package runs unwrapped.
    """

    def __init__(self):
        self.names: list[str] = []
        self.scopes: list[tuple[int, str, str]] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.scope_id = array("i")
        self.value = array("d")
        self._stack: list[int] = []
        self._current = -1
        self._originals: dict[object, object] = {}   # original -> wrapper
        self._method_originals: list[tuple[type, str, object]] = []
        self._installed = False

    # -- recording -----------------------------------------------------------
    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        outcome = _OUTCOMES.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.scope_id.append(self._current)
            self.value.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if outcome is not None:
                self.value[idx] = outcome(args, result)
            return result

        return traced

    @contextmanager
    def scope(self, op_id: int, stage: str, regime: str):
        """Trace the block; spans carry (op_id, stage, regime). op_id 0 is set-up."""
        self.scopes.append((op_id, stage, regime))
        self._current = len(self.scopes) - 1
        try:
            self.install()
            yield
        finally:
            self.uninstall()
            self._current = -1

    # -- rebinding -----------------------------------------------------------
    def install(self) -> None:
        if self._installed:
            return
        if not self._originals:
            for module, attr in TRACED_FUNCTIONS:
                fn = getattr(sys.modules[module], attr)
                self._originals[fn] = self._wrap(_span_name(module, attr), fn)
        for mod in _dadt_modules():
            for key, val in list(vars(mod).items()):
                wrapper = _lookup(self._originals, val)
                if wrapper is not None:
                    setattr(mod, key, wrapper)
        for module, cls_name, meth in TRACED_METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[meth]
            self._method_originals.append((cls, meth, original))
            setattr(cls, meth, self._wrap(_span_name(module, cls_name, meth), original))
        self._installed = True
        check_rebinding(self._originals)

    def uninstall(self) -> None:
        if not self._installed:
            return
        restore = {w: o for o, w in self._originals.items()}
        for mod in _dadt_modules():
            for key, val in list(vars(mod).items()):
                original = _lookup(restore, val)
                if original is not None:
                    setattr(mod, key, original)
        for cls, meth, original in self._method_originals:
            setattr(cls, meth, original)
        self._method_originals.clear()
        self._installed = False

    # -- output --------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {"name": np.array(self.name, dtype=np.int32), "start": start,
                "end": end, "parent": parent,
                "scope": np.array(self.scope_id, dtype=np.int32),
                "value": np.array(self.value, dtype=np.float64),
                "self": dur - child}

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), scopes=np.array(
                [f"{op}|{stage}|{regime}" for op, stage, regime in self.scopes]),
            **{k: v for k, v in a.items() if k != "self"})


def _lookup(table: dict, val):
    try:
        return table.get(val)
    except TypeError:  # unhashable module attribute
        return None


def _dadt_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dadt" or name.startswith("dadt."))]


def check_rebinding(originals: dict) -> None:
    """Fail when any dadt module (or the benchmark) still holds an unwrapped original."""
    modules = _dadt_modules() + [m for name, m in list(sys.modules.items())
                                 if m is not None and name.startswith("perfbench")]
    for mod in modules:
        for key, val in vars(mod).items():
            if _lookup(originals, val) is not None:
                raise RuntimeError(
                    f"{mod.__name__}.{key} still holds the untraced original; "
                    "call it through its module so the tracer can rebind it")


# -- per-layer metrics ---------------------------------------------------------
def _counted(name: str, *fields: str) -> list[tuple[str, str]]:
    units = {"calls": "count", "self_s": "s"}
    return [(f"{name}.{f}", units[f]) for f in fields]


PER_LAYER_METRICS: list[tuple[str, str]] = (
    _counted("tree.best_split", "calls", "self_s")
    + _counted("tree.estimate_class_dist", "calls", "self_s")
    + [("tree.estimate_class_dist.per_best_split", "ratio")]
    + _counted("tree.grow", "calls", "self_s")
    + _counted("tree.select_pivot", "self_s")
    + _counted("stats.freq_fraction", "calls", "self_s")
    + _counted("stats.freq_fraction.source", "calls", "self_s")
    + _counted("stats.freq_fraction.target", "calls", "self_s")
    + _counted("stats.class_fractions", "calls", "self_s")
    + _counted("stats.information_gain", "calls", "self_s")
    + _counted("stats.wasserstein", "calls", "self_s")
    + _counted("knowledge.maximal_subpath", "calls", "self_s")
    + [("knowledge.maximal_subpath.truncated_ratio", "ratio"),
       ("knowledge.maximal_subpath.unanswered_ratio", "ratio")]
    + _counted("knowledge.query_target", "calls", "self_s")
    + [("knowledge.query_target.answered_ratio", "ratio")]
    + _counted("knowledge.affine_estimate", "calls", "self_s")
    + _counted("knowledge.dynamic_alpha", "calls", "self_s")
    + _counted("knowledge.build_from_target_sample", "calls", "self_s")
    + _counted("data.Dataset.column", "calls")
    + [("data.Dataset.column.bytes", "B_computed")]
    + _counted("data.Dataset.subset", "calls")
    + _counted("data.filter_by_path", "calls", "self_s")
    + _counted("data.load_dataset", "calls", "self_s")
    + _counted("data.serialize_dataset", "self_s")
    + _counted("data.split_train_test", "self_s")
    + _counted("tree.predict", "calls", "self_s")
    + [("tree.predict.per_scored_row", "ratio")]
    + _counted("tree.predict_dataset", "self_s")
    + _counted("tree.positive_scores", "self_s")
    + _counted("tree.tree_from_json", "self_s")
    + _counted("tree.tree_to_json", "self_s")
    + _counted("metrics.evaluate_model", "self_s")
    + _counted("metrics.tree_shift_distance", "self_s")
    + _counted("metrics.postprocess_thresholds", "self_s")
    + _counted("harness.generate_synthetic", "self_s")
    + _counted("harness.run_pair", "self_s")
    + _counted("harness.emit_results", "self_s")
    + _counted("cli.main", "self_s")
    + [("trace.overhead_ratio", "ratio")]
)


def _scope_totals(tracer: Tracer, a: dict, scope_ids: list[int]) -> dict[str, float]:
    """Counts, self times and outcome tallies over the spans of some scopes."""
    n_names = len(tracer.names)
    sel = np.isin(a["scope"], scope_ids)
    names = a["name"][sel]
    out: dict[str, float] = {}
    calls = np.bincount(names, minlength=n_names)
    self_s = np.bincount(names, weights=a["self"][sel], minlength=n_names)
    value = np.bincount(names, weights=a["value"][sel], minlength=n_names)
    for i, name in enumerate(tracer.names):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_s"] = float(self_s[i])
        out[f"{name}.value"] = float(value[i])
    for name in ("knowledge.maximal_subpath", "knowledge.query_target"):
        if name in tracer._name_ids:
            hit = names == tracer._name_ids[name]
            codes = a["value"][sel][hit]
            for code, key in ((ANSWERED, "answered"), (TRUNCATED, "truncated"),
                              (UNANSWERED, "unanswered")):
                out[f"{name}.{key}"] = int(np.count_nonzero(codes == code))
    if "stats.freq_fraction" in tracer._name_ids:
        target = _under(a, sel, tracer._name_ids["stats.freq_fraction"],
                        tracer._name_ids.get("knowledge.query_target"))
        ff = names == tracer._name_ids["stats.freq_fraction"]
        out["stats.freq_fraction.target.calls"] = int(np.count_nonzero(target))
        out["stats.freq_fraction.target.self_s"] = float(a["self"][sel][target].sum())
        out["stats.freq_fraction.source.calls"] = int(np.count_nonzero(ff & ~target))
        out["stats.freq_fraction.source.self_s"] = float(a["self"][sel][ff & ~target].sum())
    return out


def _under(a: dict, sel: np.ndarray, name_id: int, ancestor_id: int | None) -> np.ndarray:
    """Mask (over selected spans) of spans named name_id with an ancestor named ancestor_id."""
    names = a["name"]
    selected = names[sel]
    result = np.zeros(len(selected), dtype=bool)
    if ancestor_id is None:
        return result
    parent = a["parent"]
    for j, i in zip(np.flatnonzero(selected == name_id),
                    np.flatnonzero(sel & (names == name_id))):
        p = parent[i]
        while p >= 0 and names[p] != ancestor_id:
            p = parent[p]
        result[j] = p >= 0
    return result


def _count_keys(totals: dict) -> dict:
    """The deterministic part of a scope's totals: every call count and tally."""
    return {k: v for k, v in totals.items() if not k.endswith((".self_s", ".value"))}


def layer_metrics(tracer: Tracer, setup_scopes: list[int], op_scopes: list[list[int]],
                  scored_rows: int, overhead_ratio: float) -> tuple[dict, dict, bool]:
    """Per-layer metrics of one traced set-up plus one traced op.

    Counts come from the first traced op and must repeat exactly in every
    other traced op; self times are the median over traced ops. Returns the
    metrics, the call count of every traced function, and whether the counts
    repeated.
    """
    a = tracer.arrays()
    setup = _scope_totals(tracer, a, setup_scopes)
    ops = [_scope_totals(tracer, a, ids) for ids in op_scopes]
    repeatable = all(_count_keys(o) == _count_keys(ops[0]) for o in ops[1:])

    def get(key: str) -> float:
        base = setup.get(key, 0)
        if key.endswith(".self_s"):
            return base + statistics.median(o.get(key, 0.0) for o in ops)
        return base + ops[0].get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name, _unit in PER_LAYER_METRICS:
        if name.endswith((".calls", ".self_s")):
            out[name] = get(name)
    out["data.Dataset.column.bytes"] = get("data.Dataset.column.value")
    out["tree.estimate_class_dist.per_best_split"] = ratio(
        get("tree.estimate_class_dist.calls"), get("tree.best_split.calls"))
    msp = get("knowledge.maximal_subpath.calls")
    out["knowledge.maximal_subpath.truncated_ratio"] = ratio(
        get("knowledge.maximal_subpath.truncated"), msp)
    out["knowledge.maximal_subpath.unanswered_ratio"] = ratio(
        get("knowledge.maximal_subpath.unanswered"), msp)
    out["knowledge.query_target.answered_ratio"] = ratio(
        get("knowledge.query_target.answered"), get("knowledge.query_target.calls"))
    out["tree.predict.per_scored_row"] = ratio(get("tree.predict.calls"), scored_rows)
    out["trace.overhead_ratio"] = overhead_ratio
    calls = {name: int(get(f"{name}.calls")) for name in tracer.names}
    return out, calls, repeatable


def layer_spans_in(tracer: Tracer, prefix: str, scope_pred) -> int:
    """Number of spans whose name starts with prefix, in scopes matching scope_pred."""
    a = tracer.arrays()
    wanted = [i for i, s in enumerate(tracer.scopes) if scope_pred(s)]
    ids = [i for i, n in enumerate(tracer.names) if n.startswith(prefix)]
    return int(np.count_nonzero(np.isin(a["scope"], wanted) & np.isin(a["name"], ids)))
