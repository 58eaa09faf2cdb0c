"""Fixed inputs and command lists for the benchmark workloads.

Each workload is a function ``make(workdir)`` that writes its JSON inputs
into ``workdir`` and returns the commands of one pass: ``Command`` objects
that run one after another through ``commoncover.cli.main``.  The program
only ever sees the JSON files written here.

The inputs are the same on every seed, so the reference digests in
``reference.json`` apply to every run and the figures of two runs differ by
machine noise only.  The random 3-regular graphs come from a generator with
a fixed seed.  Graph files are built and serialised by this module
(``write_input``), not by the program, so that a change to the program's own
JSON writer leaves the inputs, and with them the reference keys, unchanged.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from commoncover.cli import dump_object_graph
from commoncover.object_graphs import rotation_pair

# Workload parameters.  They are fixed here and recorded in README.md, so
# that a change to them is a change of the benchmark.
REGULAR_SIZES = (40, 30)
REGULAR_GRAPH_SEED = 1
ROTATION_ORDER = 6
# Re-runs of each verify per pass: one re-verification of a small cover
# takes milliseconds, so it is timed over many runs.
VERIFY_REPEATS = 30


@dataclass
class Command:
    argv: list
    # Output directory whose files are artifacts to digest, or None.
    out: str = None
    # Ball builds also write certificate.json; its mismatch count is checked.
    certificate: bool = False
    # Runs of the command per pass; its time is the fastest of all its runs.
    repeats: int = 1


@dataclass
class Workload:
    make: object
    # Typical time of one pass at the seed commit on the reference machine
    # (README.md).  A run makes seconds / nominal_pass_s passes, a count
    # that does not depend on how fast the program under test is.
    nominal_pass_s: float


def write_input(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def graph_payload(n_vertices, edges) -> dict:
    """A graph in the format ``commoncover.cli.load_graph`` reads, from
    (u, w) vertex-index pairs; u == w is a loop."""
    vertices = ["v%03d" % i for i in range(n_vertices)]
    darts = []
    for k, (u, w) in enumerate(edges):
        a, b = "e%03d.a" % k, "e%03d.b" % k
        darts.append({"id": a, "reverse": b, "from": vertices[u]})
        darts.append({"id": b, "reverse": a, "from": vertices[w]})
    return {"vertices": [{"id": v} for v in vertices], "darts": darts}


def complete(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def complete_bipartite(m, n):
    return m + n, [(i, m + j) for i in range(m) for j in range(n)]


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def theta(d):
    """Two vertices joined by d parallel edges."""
    return 2, [(0, 1)] * d


def rose(d):
    """One vertex with d loops."""
    return 1, [(0, 0)] * d


def doubled(graph):
    """``graph`` with every edge doubled."""
    n, edges = graph
    return n, [e for e in edges for _ in range(2)]


def looped(graph):
    """``graph`` with one loop added at every vertex."""
    n, edges = graph
    return n, edges + [(i, i) for i in range(n)]


def _connected(n, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    seen, todo = {0}, [0]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def random_cubic(rng: random.Random, n: int):
    """Simple connected 3-regular graph on ``n`` vertices (``n`` even) from
    the pairing model, redrawn until simple and connected."""
    while True:
        points = [i // 3 for i in range(3 * n)]
        rng.shuffle(points)
        edges = set()
        for k in range(0, len(points), 2):
            u, w = sorted((points[k], points[k + 1]))
            if u == w or (u, w) in edges:
                break
            edges.add((u, w))
        else:
            if _connected(n, edges):
                return n, sorted(edges)


def _write_graph(workdir, name, graph) -> str:
    path = os.path.join(workdir, name + ".json")
    write_input(path, graph_payload(*graph))
    return path


def _build_and_verify(workdir, tag, p1, p2, build_args, certificate=False):
    out = os.path.join(workdir, "out", tag)
    return [Command(["build", p1, p2, *build_args, "-o", out], out, certificate),
            Command(["verify", out, p1, p2], repeats=VERIFY_REPEATS)]


def make_saturate(workdir):
    """The star backend with the aligned strategy on three small pairs of
    regular graphs, whose builds spend about a third of their time in
    groupoid saturation (192 to 216 arrows each) and most of the rest in the
    action check; the dr strategy on one of them; and the ball backend at
    R=1 on rose(2) vs Theta2 with a loop at each vertex, a small instance
    that runs atom discovery, the witness and the certificate."""
    th3 = _write_graph(workdir, "theta3", theta(3))
    k4 = _write_graph(workdir, "k4", complete(4))
    k33 = _write_graph(workdir, "k33", complete_bipartite(3, 3))
    r2 = _write_graph(workdir, "rose2", rose(2))
    tri2 = _write_graph(workdir, "tri2", doubled(cycle(3)))
    th2l = _write_graph(workdir, "theta2-loops", looped(theta(2)))
    aligned = ["--backend", "star", "--strategy", "aligned"]
    return [*_build_and_verify(workdir, "theta3-k4", th3, k4, aligned),
            *_build_and_verify(workdir, "rose2-tri2", r2, tri2, aligned),
            *_build_and_verify(workdir, "theta3-k33", th3, k33, aligned),
            *_build_and_verify(workdir, "theta3-k33-dr", th3, k33,
                               ["--backend", "star", "--strategy", "dr"]),
            *_build_and_verify(workdir, "rose2-theta2l", r2, th2l,
                               ["--backend", "ball", "-R", "1"], certificate=True)]


def make_regular(workdir):
    """Two random connected simple 3-regular graphs, regular path."""
    rng = random.Random(REGULAR_GRAPH_SEED)
    n1, n2 = REGULAR_SIZES
    p1 = _write_graph(workdir, "cubic%d" % n1, random_cubic(rng, n1))
    p2 = _write_graph(workdir, "cubic%d" % n2, random_cubic(rng, n2))
    out = os.path.join(workdir, "out", "regular")
    return [Command(["regular", p1, p2, "-o", out], out),
            Command(["verify", out, p1, p2])]


def _dump_seeds(seeds) -> dict:
    """Seed star maps in the format ``commoncover.cli.load_seeds`` reads."""
    def tables(m):
        return {"vmap": dict(m.vmap), "emap": dict(m.emap)}

    return {"seeds": [{"from": s.src, "to": s.dst, "dart_map": dict(s.dart_map),
                       "edge_maps": {d: tables(m) for d, m in s.edge_maps.items()},
                       "vertex_map": (tables(s.vertex_map)
                                      if s.vertex_map is not None else None)}
                      for s in seeds]}


def make_glue_objects(workdir):
    """Glue backend on rose(2) vs Theta4 (takes the subdivision fallback)
    and on C6 vs Theta2 (glues directly), then graphs of objects on
    rotation_pair."""
    r2 = _write_graph(workdir, "rose2", rose(2))
    th4 = _write_graph(workdir, "theta4", theta(4))
    c6 = _write_graph(workdir, "c6", cycle(6))
    th2 = _write_graph(workdir, "theta2", theta(2))
    glue = ["--backend", "glue", "-R", "1"]
    x1, x2, seeds = rotation_pair(ROTATION_ORDER)
    o1 = os.path.join(workdir, "rot1.json")
    o2 = os.path.join(workdir, "rot2.json")
    sp = os.path.join(workdir, "rot-seeds.json")
    write_input(o1, dump_object_graph(x1))
    write_input(o2, dump_object_graph(x2))
    write_input(sp, _dump_seeds(seeds))
    out = os.path.join(workdir, "out", "rotation")
    return [*_build_and_verify(workdir, "rose2-theta4", r2, th4, glue),
            *_build_and_verify(workdir, "c6-theta2", c6, th2, glue),
            Command(["build-objects", o1, o2, "--seeds", sp, "-o", out], out)]


WORKLOADS = {
    "star-saturate": Workload(make_saturate, 1.5),
    "regular-3reg": Workload(make_regular, 0.36),
    "glue-objects": Workload(make_glue_objects, 0.67),
}
