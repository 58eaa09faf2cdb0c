"""Run one workload in this (fresh, single-threaded) process.

Started by ``run.py``; prints one JSON object with the raw measurements as
its only line on standard output.  The program is imported from the
checkout's ``src`` directory and driven through ``commoncover.cli.main``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Commands whose time counts as the write side (build_s) or the read side
# (verify_s).
BUILD_COMMANDS = ("build", "regular", "build-objects")
VERIFY_COMMANDS = ("verify",)
MIN_PASSES = 3
# A run on a machine or program slower than the reference stops making
# passes once it has taken this many times --seconds, so that the time of a
# run stays bounded.
OVERRUN = 1.2
# The traced run is accepted if the CLI commands, as timed around each call,
# took longer than their top-level spans by at most this share of its wall time.
RECONCILE_TOLERANCE = 0.05


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="accepted for the record; the inputs do not depend on it")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() in the parent just before spawning")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--setup-probes", type=int, default=0,
                    help="set-up-only processes to start during the run")
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--times-out", default=None,
                    help="write every run's time of every command here")
    ap.add_argument("--record-reference", action="store_true")
    return ap.parse_args(argv)


def import_program():
    sys.path.insert(0, SRC)
    import commoncover
    from commoncover import cli
    here = os.path.realpath(os.path.dirname(commoncover.__file__))
    if not here.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit("commoncover imported from %s, not from %s" % (here, SRC))
    return cli


# -- digests -----------------------------------------------------------------


def _relative(workdir, argv):
    return [a[len(workdir) + 1:] if a.startswith(workdir + os.sep) else a
            for a in argv]


def input_key(workdir, command) -> str:
    """Digest of a command line (workdir stripped) and of its input files,
    so that a reference applies to exactly the inputs it was recorded on."""
    h = hashlib.sha256()
    h.update(json.dumps(_relative(workdir, command.argv)).encode())
    for arg in command.argv:
        if arg.endswith(".json") and os.path.isfile(arg):
            with open(arg, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def artifact_digest(out) -> str:
    """SHA-256 over the names and SHA-256 digests of every file in ``out``."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            h.update(("%s %s\n" % (name, hashlib.sha256(fh.read()).hexdigest())).encode())
    return h.hexdigest()


def load_reference(workload) -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {})
    except FileNotFoundError:
        return {}


def save_reference(workload, observed):
    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            data = json.load(fh)
    data[workload] = observed
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


# -- running commands ----------------------------------------------------------


def run_command(main, argv):
    """Run one CLI command in-process; returns (seconds, exit code or error)."""
    sink = io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # an operation that raises is counted as failed
        rc = traceback.format_exc(limit=3)
    return time.perf_counter() - t, rc


class Checker:
    """Correctness gate: exit codes, certificate mismatches, artifact
    digests against the recorded reference and against earlier passes."""

    def __init__(self, workload, workdir, recording=False):
        self.workdir = workdir
        self.reference = {} if recording else load_reference(workload)
        self.recording = recording
        self.first = {}          # input key -> artifact digest of the first pass
        self.built = 0           # builds whose artifacts were digested
        self.checked = 0         # builds compared with the reference
        self.errors = []

    def command_ok(self, command, rc) -> bool:
        if rc != 0:
            self.errors.append("%s exited %r" % (" ".join(
                _relative(self.workdir, command.argv)), rc))
            return False
        if command.out is None:
            return True
        self.built += 1
        key = input_key(self.workdir, command)
        digest = artifact_digest(command.out)
        where = os.path.relpath(command.out, self.workdir)
        ok = True
        if command.certificate:
            with open(os.path.join(command.out, "certificate.json"), encoding="utf-8") as fh:
                mismatches = json.load(fh)["mismatches"]
            if mismatches != 0:
                self.errors.append("%s: certificate has %d mismatches" % (where, mismatches))
                ok = False
        seen = self.first.setdefault(key, digest)
        if seen != digest:
            self.errors.append("%s: artifacts differ between passes" % where)
            ok = False
        ref = self.reference.get(key)
        if ref is not None:
            self.checked += 1
            if ref != digest:
                self.errors.append("%s: artifacts differ from the reference" % where)
                ok = False
        elif not self.recording:
            # Every workload has fixed inputs, so every build has a reference;
            # a missing one means the inputs or the command line changed.
            self.errors.append("%s: no reference digest for these inputs" % where)
            ok = False
        return ok


def clear_outputs(commands):
    for command in commands:
        if command.out is not None and os.path.isdir(command.out):
            shutil.rmtree(command.out)


def run_pass(main, commands, checker, times, repeat=True):
    """Run ``commands`` back to back, each ``command.repeats`` times when
    ``repeat`` (else once), appending every run's time to
    ``times[index]``; check the outputs afterwards.  Returns the clock time
    of the pass and the operation counts."""
    clear_outputs(commands)
    results = []
    t_start = time.perf_counter()
    for i, command in enumerate(commands):
        for _ in range(command.repeats if repeat else 1):
            dt, rc = run_command(main, command.argv)
            times.setdefault(i, []).append(dt)
            results.append((command, rc))
            if rc != 0:
                break
    elapsed = time.perf_counter() - t_start
    failed = sum(not checker.command_ok(command, rc) for command, rc in results)
    return {"elapsed": elapsed, "attempted": len(results), "failed": failed}


def summarize(commands, times) -> dict:
    """End-to-end times from per-command times.

    The commands are deterministic, so the spread between runs of one
    command is machine noise, and on a shared machine noise only adds time:
    each command's time is its fastest run in this run, over a number of
    runs that does not depend on the program's speed.  wall_s is one pass
    at those times; build_s and verify_s are its parts."""
    def part(kinds=None):
        return sum(min(times[i]) for i, c in enumerate(commands)
                   if kinds is None or c.argv[0] in kinds)

    return {"wall_s": part(), "build_s": part(BUILD_COMMANDS),
            "verify_s": part(VERIFY_COMMANDS)}


def run_probe(args, i) -> float:
    """Start a process that only sets up (as this one did) and wait for it;
    returns its set-up time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", "%s-probe%d" % (args.workdir, i), "--setup-only"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit("set-up probe exited %d:\n%s" % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- per-layer metrics from the trace ------------------------------------------


def layer_metrics(tracer, traced_wall, untraced_wall) -> dict:
    st = tracer.self_times()
    counts, sizes = tracer.counts, tracer.sizes

    def self_of(*names):
        return sum(st.get(n, 0.0) for n in names)

    def retries(retrying, attempt):
        return sum(max(n - 1, 0) for n in tracer.child_counts(retrying, attempt))

    compose_calls = counts.get(("compose", "groupoids.saturate"), 0)
    arrows = sizes.get("groupoids.arrows", 0)
    n_counted = sum(counts.values())
    return {
        "groupoids.saturate_s": self_of("groupoids.saturate"),
        "groupoids.generators": sizes.get("groupoids.generators", 0),
        "groupoids.arrows": arrows,
        "groupoids.compose_calls": compose_calls,
        "groupoids.saturate_yield": arrows / compose_calls if compose_calls else 0.0,
        "cover_builder.check_axioms_s": self_of("cover_builder.check_axioms"),
        "cover_builder.act_calls": counts.get(("act", "cover_builder.check_axioms"), 0),
        "cover_builder.build_cover_self_s": self_of("cover_builder.build_cover"),
        "cover_builder.extract_certificate_self_s": self_of("cover_builder.extract_certificate"),
        "cover_builder.cover_vertices": sizes.get("cover_builder.cover_vertices", 0),
        "cover_builder.n_multiple": sizes.get("cover_builder.n_multiple", 0),
        "ball_system.discover_atoms_s": self_of("ball_system.discover_atoms"),
        "ball_system.build_ball_system_self_s": self_of("ball_system.build_ball_system"),
        "ball_system.verify_witness_s": self_of("ball_system.verify_witness"),
        "ball_system.retries": retries("ball_system.build_ball_system_retrying",
                                       "ball_system.build_ball_system"),
        "star_system.build_star_system_self_s": self_of("star_system.build_star_system"),
        "star_system.retries": retries("star_system.build_star_system_retrying",
                                       "star_system.build_star_system"),
        "universal_cover.build_alignment_s": self_of("universal_cover.build_alignment"),
        "universal_cover.ensure_radius_s": self_of("universal_cover.ensure_radius"),
        "refinement.joint_refinement_s": self_of("refinement.joint_refinement"),
        "refinement.calls": sum(1 for s in tracer.spans if s[0] == "refinement.joint_refinement"),
        "graphs.is_covering_s": self_of("graphs.is_covering"),
        "graphs.is_covering_calls": sum(1 for s in tracer.spans if s[0] == "graphs.is_covering"),
        "graphs.fiber_product_s": self_of("graphs.fiber_product"),
        "graphs.components_s": self_of("graphs.components"),
        "graphs.restrict_s": self_of("graphs.restrict"),
        "regular.factorize_regular_s": self_of("regular.factorize_regular"),
        "regular.regular_common_cover_self_s": self_of("regular.regular_common_cover"),
        "gluing.enumerate_pairs_s": self_of("gluing.enumerate_pairs"),
        "gluing.gluing_weights_s": self_of("gluing.gluing_weights"),
        "gluing.assemble_self_s": self_of("gluing.assemble"),
        "gluing.subdivide_contract_s": self_of("gluing.subdivide_graph",
                                               "gluing.contract_subdivided"),
        "gluing.faces": sizes.get("gluing.faces", 0),
        "object_graphs.close_star_maps_self_s": self_of("object_graphs.close_star_maps"),
        "object_graphs.build_object_cover_self_s": self_of("object_graphs.build_object_cover"),
        "cli.main_self_s": self_of("cli.main"),
        "cli.load_s": self_of("cli.load_graph", "cli.load_morphism",
                              "cli.load_object_graph", "cli.load_seeds"),
        "cli.write_s": self_of("cli.write_json"),
        "cli.bytes_written": sizes.get("cli.bytes_written", 0),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall - 1.0,
        "trace.spans": len(tracer.spans),
        "trace.counted_calls": n_counted,
    }


def reconcile(tracer, command_times, traced_wall):
    """Check the spans against the command times that ``run_command``
    measured without them: there is one top-level span per command, each a
    ``cli.main`` span, and the commands' times exceed the top-level spans'
    by a small, non-negative remainder (argument and output redirection).
    Returns the remainder and a list of problems."""
    top = [s for s in tracer.spans if s[3] < 0]
    problems = []
    if len(top) != len(command_times):
        problems.append("%d top-level spans for %d commands" % (len(top), len(command_times)))
    names = sorted({s[0] for s in top} - {"cli.main"})
    if names:
        problems.append("top-level spans other than cli.main: %s" % ", ".join(names))
    remainder = sum(command_times) - tracer.top_level_time()
    if not 0.0 <= remainder <= RECONCILE_TOLERANCE * traced_wall:
        problems.append("commands took %.6f s more than their spans (traced wall %.3f s)"
                        % (remainder, traced_wall))
    return remainder, problems


def run_traced(cli, commands, checker, spans_out):
    """A warm-up pass and an untraced pass, then one traced pass over the
    same inputs, each running every command once."""
    from tracing import Tracer, calibrate

    warmup = run_pass(cli.main, commands, checker, {}, repeat=False)
    untraced = run_pass(cli.main, commands, checker, {}, repeat=False)
    tracer = Tracer()
    tracer.install()
    times = {}
    try:
        wrapped_main = cli.main
        ops = itertools.count(1)

        def main_with_op(argv):
            tracer.op = next(ops)
            return wrapped_main(argv)

        traced = run_pass(main_with_op, commands, checker, times, repeat=False)
    finally:
        tracer.remove()
    cost = calibrate()
    metrics = layer_metrics(tracer, traced["elapsed"], untraced["elapsed"])
    metrics["trace.span_cost_s"] = cost["span"] * len(tracer.spans)
    metrics["trace.counter_cost_s"] = cost["counter"] * metrics["trace.counted_calls"]
    remainder, problems = reconcile(tracer, [t for ts in times.values() for t in ts],
                                    traced["elapsed"])
    metrics["trace.remainder_s"] = remainder
    checker.errors.extend("trace: " + p for p in problems)
    if spans_out:
        tracer.dump(spans_out)
    return [warmup, untraced, traced], metrics, not problems


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads as wl

    os.makedirs(args.workdir)
    workload = wl.WORKLOADS[args.workload]
    commands = workload.make(args.workdir)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        shutil.rmtree(args.workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checker = Checker(args.workload, args.workdir, args.record_reference)
    out = {"setup_s": setup_s, "setup_probes": []}
    if args.trace:
        out["setup_probes"] = [run_probe(args, i) for i in range(args.setup_probes)]
        iterations, metrics, reconciled = run_traced(cli, commands, checker, args.spans_out)
        out["layers"] = metrics
        out["reconciled"] = reconciled
    else:
        # A fixed number of passes for the given --seconds: about --seconds
        # of work at the seed commit on the reference machine.
        passes = max(MIN_PASSES, int(args.seconds / workload.nominal_pass_s))
        # Set-up probes run between passes, spread evenly over the run.
        probe_after = [k * passes // args.setup_probes for k in range(args.setup_probes)]
        iterations, times, timed = [], {}, 0.0
        while len(iterations) < passes:
            iterations.append(run_pass(cli.main, commands, checker, times))
            timed += iterations[-1]["elapsed"]
            while probe_after and probe_after[0] < len(iterations):
                probe_after.pop(0)
                out["setup_probes"].append(run_probe(args, len(out["setup_probes"])))
            if len(iterations) >= MIN_PASSES and timed > OVERRUN * args.seconds:
                break
        while len(out["setup_probes"]) < args.setup_probes:
            out["setup_probes"].append(run_probe(args, len(out["setup_probes"])))
        out["timed_s"] = timed
        out["passes"] = len(iterations)
        out["planned_passes"] = passes
        out.update(summarize(commands, times))
        if args.times_out:
            with open(args.times_out, "w", encoding="utf-8") as fh:
                json.dump([{"argv": _relative(args.workdir, c.argv), "times": times[i]}
                           for i, c in enumerate(commands)], fh)
    if args.record_reference:
        save_reference(args.workload, checker.first)
    out.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": sum(it["attempted"] for it in iterations),
        "failed": sum(it["failed"] for it in iterations),
        "built": checker.built,
        "reference_checked": checker.checked,
        "errors": checker.errors[:20],
    })
    shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
