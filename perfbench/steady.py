"""Steadiness self-check for the benchmark.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs ``run.py`` once per seed on each workload (untraced), then reports for
every end-to-end metric the median, the quartiles and the spread, taken as
(q3 - q1) / median with ``statistics.quantiles(values, n=4)``, next to the
bound that BENCHMARK.json fixes.  A spread is "steady" below a third of its
bound and "ok" up to the bound; every metric, setup_s included, is checked.
Raw results go to perfbench/_out/steady-<workload>.json.
Exits 1 if a run fails, reports incorrect output, or a spread exceeds its
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def one_run(spec, workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d: %s"
                           % (workload, seed, proc.returncode, proc.stderr[-1000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", help="default: all of %s" % names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    unknown = set(args.workloads) - set(names)
    if unknown:
        ap.error("unknown workload(s): %s" % ", ".join(sorted(unknown)))
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    status = 0
    for workload in args.workloads or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = one_run(spec, workload, seed)
            runs.append(r)
            if not r["correct"] or r["failed"]:
                status = 1
                print("%s seed %d: incorrect (%d failed)" % (workload, seed, r["failed"]))
        with open(os.path.join(out_dir, "steady-%s.json" % workload), "w") as fh:
            json.dump(runs, fh, indent=1)
        print("%s: %d runs, seeds %d..%d" % (workload, len(runs), args.first_seed,
                                             args.first_seed + args.runs - 1))
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, s = spread(values)
            if s < m["bound"] / 3:
                verdict = "steady"
            elif s <= m["bound"]:
                verdict = "ok"
            else:
                verdict = "TOO WIDE"
                status = 1
            print("  %-12s median %-11.5g q1 %-11.5g q3 %-11.5g spread %.3f bound %.2f %s"
                  % (m["name"], med, q1, q3, s, m["bound"], verdict))
    return status


if __name__ == "__main__":
    sys.exit(main())
