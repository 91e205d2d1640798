"""Record the reference output digests that ``run.py`` checks every op against.

    python3 perfbench/record_references.py --seeds 0-39,7919 [--workload NAME]

For each workload and seed it sets up once, runs one op, checks the
workload's reference-free invariants, and stores the op's output digests in
``perfbench/references.json``. Record only from a commit whose outputs are
known to be right; a later commit is then checked against them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402


def _seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-15,101")
    parser.add_argument("--workload", action="append",
                        help="record only this workload (repeatable); default all")
    args = parser.parse_args(argv)

    bench._import_package()
    from perfbench.workloads import WORKLOADS
    refs = bench._load_references()
    for name in sorted(args.workload or WORKLOADS):
        for seed in _seeds(args.seeds):
            run = bench.Run(WORKLOADS[name], seed, 0.0, trace=False)
            run.references = None
            try:
                inputs = run.set_up()
                run.one_op(inputs, 1, traced=False)
            finally:
                shutil.rmtree(run.workdir, ignore_errors=True)
            if run.failed or run.problems:
                print("\n".join(run.problems), file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(seed)] = run.first_digests
            print(f"{name} seed {seed}: {run.first_digests}", flush=True)
            with open(bench.REFERENCES, "w", encoding="utf-8") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
