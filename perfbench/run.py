"""End-to-end benchmark of the commoncover CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in a fresh single-threaded child process that drives
``commoncover.cli.main`` in-process on the workload's fixed JSON inputs,
checks every artifact, and prints a report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
span self times and counts of a traced pass (see README.md).

Set-up time is measured in the measuring child and in SETUP_PROBES extra
child processes that start, import the program, write the inputs and exit;
the measuring child starts them one at a time, spread over its passes, so
that they sample the machine over the whole run.  The median is reported.  The inputs are the same on every seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("star-saturate", "regular-3reg", "glue-objects")
SETUP_PROBES = 10
DEADLINE_S = 170.0

# The end-to-end metrics of BENCHMARK.json.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("build_s", "s"),
              ("verify_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's artifact digests in reference.json")
    return ap.parse_args(argv)


class ChildError(RuntimeError):
    pass


def run_child(args, workdir, deadline, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, *extra]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError("child exceeded the %.0f s deadline" % DEADLINE_S)
    if proc.returncode != 0:
        raise ChildError("child exited %d:\n%s" % (proc.returncode, err.strip()[-2000:]))
    return json.loads(out.strip().splitlines()[-1])


def measure(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "commoncover", "cli.py")):
        raise ChildError("no program to measure: %s is missing"
                         % os.path.join("src", "commoncover"))
    deadline = time.monotonic() + DEADLINE_S
    base = os.path.join(HERE, "_work")
    os.makedirs(base, exist_ok=True)
    workdir = os.path.join(base, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        out_dir = os.path.join(HERE, "_out")
        os.makedirs(out_dir, exist_ok=True)
        kind = "spans" if args.trace else "times"
        extra = ["--%s-out" % kind, os.path.join(
            out_dir, "%s-%s-%d.json" % (kind, args.workload, args.seed)),
                 "--setup-probes", str(SETUP_PROBES)]
        if args.record_reference:
            extra.append("--record-reference")
        result = run_child(args, workdir, deadline, extra)
    finally:
        for name in os.listdir(base):
            if name.startswith(os.path.basename(workdir)):
                shutil.rmtree(os.path.join(base, name), ignore_errors=True)
    setups = [result["setup_s"], *result["setup_probes"]]
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = len(setups)
    return result


def report(args, r):
    """Human-readable lines; the JSON line follows them."""
    if args.trace:
        print("workload %s seed %d: one untraced and one traced pass"
              % (args.workload, args.seed))
        for name, value in r["layers"].items():
            print("  %-44s %.6g" % (name, value))
        print("  spans reconcile with traced wall: %s" % r["reconciled"])
    else:
        print("workload %s seed %d: %d of %d passes in %.1f s"
              % (args.workload, args.seed, r["passes"], r["planned_passes"], r["timed_s"]))
        for name, unit in END_TO_END:
            note = ""
            if name == "setup_s":
                note = " (median of %d processes)" % r["setup_samples"]
            print("  %-12s %.6g %s%s" % (name, r[name], unit, note))
    print("  fail_ratio   %.4f (%d failed / %d attempted; %d of %d builds compared"
          " with the reference)" % (r["failed"] / r["attempted"], r["failed"],
                                   r["attempted"], r["reference_checked"], r["built"]))
    for e in r["errors"]:
        print("  error: %s" % e.replace("\n", " | "), file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        r = measure(args)
    except ChildError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    report(args, r)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in r["layers"].items()}
    else:
        metrics = {name: {"value": r[name], "unit": unit}
                   for name, unit in END_TO_END}
    correct = r["failed"] == 0 and r.get("reconciled", True)
    print(json.dumps({"correct": correct, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


def unit_of(layer_metric):
    if layer_metric.endswith("_s"):
        return "s"
    if layer_metric == "cli.bytes_written":
        return "bytes"
    if layer_metric.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
