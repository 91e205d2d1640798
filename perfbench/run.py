"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout. With ``--trace 0`` the run sets up its inputs several times
(``setup_s`` is the median), then repeats the workload's op for ``--seconds``
and reports the median op time and the peak RSS. Both times are rescaled to
a reference host speed measured while they ran (see ``HostClock``). With
``--trace 1`` it sets up once, alternates untraced and traced ops, and
reports per-layer metrics.

Every op's outputs are checked: against the first op of the run, against the
references recorded in ``references.json`` for this seed when there are
any, and against reference-free invariants of the workload. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCES = os.path.join(ROOT, "perfbench", "references.json")
SETUP_REPEATS = 3
# The warm-up only has to touch every code path once; fixed inputs keep its
# cost the same for every seed.
WARMUP_SEED = 0


def _import_package():
    """Import dadt from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "dadt", "__init__.py")):
        raise SystemExit(f"perfbench: no dadt package under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import dadt
    if os.path.dirname(os.path.abspath(dadt.__file__)) != os.path.join(SRC, "dadt"):
        raise SystemExit(f"perfbench: imported dadt from {dadt.__file__}, not {SRC}")


def _probe_s() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs Python now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(5_000):
        total += i * i
    return time.perf_counter() - t0


class HostClock:
    """Times a stretch of work and the host's speed while it ran.

    The host runs Python at two or more speeds that switch every few seconds,
    which moves an op's wall time by 1.3-1.6x whatever the program does. So
    while a window is open, a SIGALRM handler runs the fixed loop of
    ``_probe_s`` every ``INTERVAL_S`` seconds in the main thread (no thread or
    process is started). A window's ``norm_s`` is its wall time less the
    probes' own time, rescaled to a host on which the loop takes
    ``REF_PROBE_S``: seconds at a fixed reference speed. The loop is the
    benchmark's own code, so a change to the program moves ``norm_s`` as
    much as it moves the wall time, while a change of host speed mostly
    cancels out.
    """

    INTERVAL_S = 0.02
    # The loop's median time on a 2-vCPU Xeon VM at 2.1 GHz; any fixed value
    # would do, this one keeps norm_s near that host's wall time.
    REF_PROBE_S = 0.0004

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.samples: list[float] = []
        self._busy = False
        if sample:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        self.samples.append(_probe_s())
        self._busy = False

    @contextlib.contextmanager
    def window(self):
        """Yields a dict that holds ``wall_s``, ``probe_s`` and ``norm_s`` on exit."""
        result: dict = {}
        self.samples.clear()
        t0 = time.perf_counter()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield result
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = time.perf_counter() - t0
            samples = self.samples or [_probe_s()]
            result["wall_s"] = wall
            result["probe_s"] = statistics.median(samples)
            result["norm_s"] = ((wall - sum(self.samples)) * self.REF_PROBE_S
                                / result["probe_s"])


def _median_stats(values: list[float]) -> str:
    return (f"median of {len(values)}, min {min(values):.4g}, max {max(values):.4g}")


class Run:
    """One process's run of one workload."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        from perfbench import spans
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = spans.Tracer() if trace else None
        # A traced run reports counts and self times, so no probe interrupts it.
        self.clock = HostClock(sample=not trace)
        self.workdir = os.path.join(OUT_DIR, f"work-{workload.name}-{seed}-{os.getpid()}")
        self.references = _load_references().get(workload.name, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests: dict | None = None
        self.first_ok = True
        self.untraced: list = []
        self.traced: list = []
        self.setups: list[dict] = []

    # -- set-up --------------------------------------------------------------
    def set_up(self) -> dict:
        """Inputs, any model, and one warm-up op on small inputs; returns the inputs."""
        from perfbench.workloads import OpRun
        with self.clock.window() as window:
            os.makedirs(self.workdir, exist_ok=True)
            if self.tracer is not None and not self.setups:
                with self.tracer.scope(0, "setup", "-"):
                    inputs = self.workload.prepare(self.workdir, self.seed, warmup=False)
            else:
                inputs = self.workload.prepare(self.workdir, self.seed, warmup=False)
            self.workload.fit(inputs)
            warm = self.workload.prepare(self.workdir, WARMUP_SEED, warmup=True)
            self.workload.fit(warm)
            self.workload.op(warm, OpRun(op_id=-1))
        self.setups.append(window)
        return inputs

    # -- ops -----------------------------------------------------------------
    def one_op(self, inputs: dict, op_id: int, traced: bool):
        from perfbench.workloads import OpRun
        run = OpRun(op_id=op_id, tracer=self.tracer if traced else None)
        self.attempted += 1
        try:
            digests = self.workload.op(inputs, run)
        except Exception:
            self.failed += 1
            self.problems.append(f"op {op_id} raised:\n{traceback.format_exc()}")
            return None
        if self.first_digests is None:
            self.first_digests = digests
            problems = self.workload.check(inputs)
            if self.references is not None and digests != self.references:
                bad = sorted(k for k in digests if digests[k] != self.references.get(k))
                problems.append(f"outputs differ from the reference for seed {self.seed}: {bad}")
            self.problems += problems
            self.first_ok = not problems
        if digests != self.first_digests:
            self.problems.append(f"op {op_id} outputs differ from the run's first op")
            self.failed += 1
        elif not self.first_ok:
            self.failed += 1
        return run

    def measure(self, inputs: dict) -> None:
        """Run ops until the next one would end past the deadline.

        A traced run needs at least one untraced and one traced op; a run
        whose ops keep failing stops after four attempts past the deadline.
        """
        t_end = time.perf_counter() + self.seconds
        op_id = 0
        while True:
            op_id += 1
            traced = self.tracer is not None and op_id % 2 == 0
            # Each op starts from a collected heap, as one CLI command in a fresh
            # process would; cyclic garbage of earlier ops would otherwise raise
            # the peak RSS with the number of ops run.
            gc.collect()
            t0 = time.perf_counter()
            with self.clock.window() as window:
                run = self.one_op(inputs, op_id, traced)
            now = time.perf_counter()
            if run is not None:
                run.host = window
                (self.traced if traced else self.untraced).append(run)
            enough = bool(self.untraced) and (self.tracer is None or bool(self.traced))
            if now + (now - t0) > t_end and (enough or (now > t_end and op_id >= 4)):
                break

    # -- results -------------------------------------------------------------
    def report_stages(self, inputs: dict) -> None:
        """Human-readable per-stage medians, with CPU time next to wall time."""
        per_metric: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for run in self.untraced:
            for name, (value, unit) in self.workload.stage_metrics(inputs, run).items():
                per_metric.setdefault(name, []).append(value)
                units[name] = unit
        for name, values in per_metric.items():
            print(f"  {name:<20} {statistics.median(values):.6g} {units[name]:<7}"
                  f" ({_median_stats(values)})")
        walls = [r.wall_s for r in self.untraced]
        cpus = [r.cpu_s for r in self.untraced]
        if walls:
            print(f"  {'op_s':<20} {statistics.median(walls):.6g} s       ({_median_stats(walls)})")
            print(f"  {'op_cpu_s':<20} {statistics.median(cpus):.6g} s       "
                  f"(process CPU time; {_median_stats(cpus)})")
        if self.clock.sample:
            probes = [r.host["probe_s"] * 1000.0 for r in self.untraced]
            print(f"  {'host_probe_ms':<20} {statistics.median(probes):.6g} ms      "
                  f"(fixed loop during each op, host speed; {_median_stats(probes)})")

    def end_to_end(self, import_s: float) -> dict:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Import time is rescaled by the host speed seen in each set-up.
        setups = [s["norm_s"] + import_s * HostClock.REF_PROBE_S / s["probe_s"]
                  for s in self.setups]
        return {
            "op_norm_s": {"value": statistics.median(r.host["norm_s"] for r in self.untraced),
                          "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }

    def per_layer(self, inputs: dict) -> dict:
        from perfbench import spans
        tracer = self.tracer
        setup_scopes = [i for i, s in enumerate(tracer.scopes) if s[0] == 0]
        op_scopes = [[i for i, s in enumerate(tracer.scopes) if s[0] == run.op_id]
                     for run in self.traced]
        overhead = (statistics.median(r.wall_s for r in self.traced)
                    / statistics.median(r.wall_s for r in self.untraced))
        values, self.calls, repeatable = spans.layer_metrics(
            tracer, setup_scopes, op_scopes, self.workload.scored_rows(inputs), overhead)
        if not repeatable:
            self.problems.append("call counts differ between traced ops")
            self.failed = self.attempted
        self.knowledge_spans = {
            stage: spans.layer_spans_in(tracer, "knowledge.", lambda s, st=stage: s[1] == st)
            for stage in self.workload.stage_names}
        for stage, n in self.knowledge_spans.items():
            print(f"  knowledge spans in stage {stage}: {n}")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{self.workload.name}-{self.seed}.npz")
        tracer.save(path)
        print(f"  {len(tracer.start)} spans written to {os.path.relpath(path, ROOT)}")
        units = dict(spans.PER_LAYER_METRICS)
        return {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    def execute(self, import_s: float = 0.0) -> dict | None:
        """Set up, measure and check; the result object, or None when no op succeeded."""
        try:
            inputs = self.set_up()
            for _ in range(SETUP_REPEATS - 1 if self.tracer is None else 0):
                inputs = self.set_up()
            self.measure(inputs)
            if not self.untraced or (self.tracer is not None and not self.traced):
                return None
            print(f"perfbench {self.workload.name} seed={self.seed} "
                  f"trace={int(self.tracer is not None)}: "
                  f"{self.attempted} ops, {self.failed} failed"
                  + ("" if self.references is not None
                     else " (no recorded reference for this seed)"))
            self.report_stages(inputs)
            if self.tracer is not None:
                metrics = self.per_layer(inputs)
            else:
                metrics = self.end_to_end(import_s)
                for name in ("op_norm_s", "setup_s", "peak_rss_mb"):
                    print(f"  {name:<20} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
            print(f"  failed_ratio         {self.failed / self.attempted:.6g} "
                  f"({self.failed} of {self.attempted} ops)")
            return {"correct": self.failed == 0, "attempted": self.attempted,
                    "failed": self.failed, "metrics": metrics}
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
            shutil.rmtree(self.workdir, ignore_errors=True)
            for problem in self.problems:
                print(f"perfbench: {problem}", file=sys.stderr)


def _load_references() -> dict:
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    import_s = time.perf_counter() - _T_START

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    result = run.execute(import_s)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
