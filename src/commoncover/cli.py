"""Command-line interface and on-disk formats.

Graph files are JSON objects with a "vertices" list and a "darts" list;
the head of a dart is always derived from reversal and origin, never
stored.  Morphism files store plain id-to-id tables.  Object-graph files
add named object tables and element-level edge morphisms.  All output is
written with sorted keys and no timestamps, so identical inputs and flags
produce byte-identical artifacts.

Exit codes: 0 success or a true answer, 1 a false or negative answer,
2 input errors, budgets and axiom failures, 3 verification failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys as _sys
from collections import deque
from itertools import chain
from operator import itemgetter

from .ball_system import build_ball_system_retrying, discover_atoms
from .bounds import bound_report
from .cover_builder import AxiomError, build_cover, extract_certificate
from .gluing import build_glued_cover
from .graphs import (BudgetExceeded, Graph, GraphError, GraphMorphism,
                     VerificationError, is_covering, validate_graph)
from .object_graphs import (ObjectCover, ObjectGraph, SeedSpec,
                            build_object_cover, close_star_maps, make_object,
                            obj_morphism, validate_object_graph)
from .oracle import brute_common_cover
from .refinement import common_cover_exists
from .regular import regular_common_cover
from .star_system import (STRATEGY_ALIGNED, STRATEGY_DR_FULL,
                          build_star_system, build_star_system_retrying)


class SchemaError(GraphError):
    """Malformed input data or parameters (exit 2)."""


_quote = json.encoder.encode_basestring_ascii
_SCALARS = {str, int, float, bool, type(None)}


@functools.cache
def _encoder(inner: str):
    """An encoder with sorted keys for the entries of a container written at
    indentation ``inner``, called as ``enc(x, 0)``; it returns the text in a
    few chunks (a list, or a tuple on CPython 3.12 and later).  CPython's C
    encoder where ``_json`` has one, else the pure-Python ``iterencode``."""
    if json.encoder.c_make_encoder is None:
        return json.JSONEncoder(sort_keys=True, separators=("," + inner, ": ")).iterencode
    return json.encoder.c_make_encoder(None, json.JSONEncoder().default, _quote,
                                       None, ": ", "," + inner, True, False, True)


def _record_keys(rows):
    """The sorted keys of ``rows`` if it is a list of records: non-empty
    dicts with one set of str keys and only str values; else None."""
    if set(map(type, rows)) != {dict}:
        return None
    keys = rows[0].keys()
    if (set(map(type, keys)) != {str} or not all(map(keys.__eq__, map(dict.keys, rows)))
            or set(map(type, chain.from_iterable(map(dict.values, rows)))) != {str}):
        return None
    return sorted(keys)


def _write(write, x, nl: str, head: str = "") -> None:
    """Write ``head`` and x as ``json.dump(x, sort_keys=True, indent=2)``
    does at indentation ``nl``.  A container of plain scalars is one call of
    the C encoder, a list of records one ``%`` template filled a record per
    piece; any other container is written one piece per entry.
    ``json.dumps({k: 0})`` names a non-str key."""
    if isinstance(x, dict):
        brackets, values = "{}", x.values()
    elif isinstance(x, (list, tuple)):
        brackets, values = "[]", x
    else:
        return write(head + "".join(_encoder(nl)(x, 0)))
    inner = nl + "  "
    if not x:
        write(head + brackets)
    elif set(map(type, values)) <= _SCALARS:
        chunks = list(_encoder(inner)(x, 0))
        chunks[0] = head + brackets[0] + inner + chunks[0][1:]
        chunks[-1] = chunks[-1][:-1] + nl + brackets[1]
        for chunk in chunks:
            write(chunk)
    elif brackets == "[]" and (keys := _record_keys(x)):
        record = "{%s%s}" % (",".join(inner + "  " + _quote(k).replace("%", "%%") + ": %s"
                                      for k in keys), inner)
        rows = zip(*[map(_quote, map(itemgetter(k), x)) for k in keys])
        write(head + "[" + inner + record % next(rows))
        deque(map(write, map(("," + inner + record).__mod__, rows)), maxlen=0)
        write(nl + "]")
    else:
        if brackets == "{}":
            entries = [((_quote(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4])
                        + ": ", v) for k, v in sorted(x.items())]
        else:
            entries = [("", v) for v in x]
        lead = head + brackets[0] + inner
        for prefix, v in entries:
            _write(write, v, inner, lead + prefix)
            lead = "," + inner
        write(nl + brackets[1])


def _open_output(path: str):
    """Open an output file for writing, creating its directory.  An output
    path that cannot be written is an input error."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise SchemaError("cannot write %s: %s" % (path, exc.strerror))


def write_json(path: str, payload) -> None:
    """The bytes of ``json.dump(payload, fh, sort_keys=True, indent=2)``
    and a newline, streamed in pieces, without the pure-Python encoder."""
    with _open_output(path) as fh:
        _write(fh.write, payload, "\n")
        fh.write("\n")


def _expect(cond, where, message):
    if not cond:
        raise SchemaError("%s: %s" % (where, message))


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SchemaError("%s: %s" % (path, exc))


def load_graph(path: str) -> Graph:
    return _graph_from_data(_read_json(path), path)


def _graph_from_data(data, where) -> Graph:
    """Parse a graph payload; every malformed input raises SchemaError.

    The tables are built by comprehensions; only when that fails are the
    entries scanned one by one to name the bad one.
    """
    _expect(isinstance(data, dict), where, "top level must be an object")
    vs, ds = data.get("vertices"), data.get("darts")
    _expect(isinstance(vs, list), where, "missing vertices list")
    _expect(isinstance(ds, list), where, "missing darts list")
    _expect(vs, where, "vertices: a graph needs at least one vertex")
    try:
        vertices = [e["id"] for e in vs]
        vcol = {e["id"]: e["colour"] for e in vs if e.get("colour") is not None}
        darts = [e["id"] for e in ds]
        origin = {e["id"]: e["from"] for e in ds}
        reverse = {e["id"]: e["reverse"] for e in ds}
        dcol = {e["id"]: e["colour"] for e in ds if e.get("colour") is not None}
        if not set(map(type, vertices)).union(
                map(type, darts), map(type, vcol.values()), map(type, dcol.values())) <= {str}:
            # to the handler below: a SchemaError here would be re-wrapped
            raise TypeError
        g = Graph(vertices, darts, origin, reverse, vcol, dcol)
        report = validate_graph(g)
    except (KeyError, TypeError, AttributeError):
        _raise_bad_entry(vs, ds, where)
    except GraphError as exc:
        raise SchemaError("%s: %s" % (where, exc))
    _expect(report.ok, where, "; ".join(report.violations[:3]) or "invalid graph")
    return g


def _raise_bad_entry(vs, ds, where):
    for table, entries, keys in (("vertices", vs, ("id",)),
                                 ("darts", ds, ("id", "reverse", "from"))):
        for i, entry in enumerate(entries):
            at = "%s: %s[%d]" % (where, table, i)
            for key in keys:
                _expect(isinstance(entry, dict) and isinstance(entry.get(key), str),
                        at, "needs a string %r" % key)
            _expect(isinstance(entry.get("colour", ""), (str, type(None))),
                    at, "'colour' must be a string")
    raise SchemaError("%s: malformed vertex or dart entries" % where)


def dump_graph(g: Graph) -> dict:
    def vertex(v):
        out = {"id": v}
        if v in g.vertex_colour:
            out["colour"] = g.vertex_colour[v]
        return out

    def dart(d):
        out = {"id": d, "reverse": g.reverse[d], "from": g.origin[d]}
        if d in g.dart_colour:
            out["colour"] = g.dart_colour[d]
        return out

    return {"vertices": [vertex(v) for v in g.vertices],
            "darts": [dart(d) for d in g.darts]}


def dump_morphism(m: GraphMorphism) -> dict:
    return {"vmap": dict(m.vmap), "dmap": dict(m.dmap)}


def _is_id_table(table) -> bool:
    """A JSON object mapping identifiers to identifiers (keys always are)."""
    return (isinstance(table, dict)
            and all(isinstance(v, str) for v in table.values()))


def load_morphism(path: str, source: Graph, target: Graph) -> GraphMorphism:
    data = _read_json(path)
    _expect(isinstance(data, dict) and _is_id_table(data.get("vmap"))
            and _is_id_table(data.get("dmap")), path,
            "needs vmap and dmap objects of string ids")
    return GraphMorphism(source, target, data["vmap"], data["dmap"])


# -- object graphs on disk -------------------------------------------------------


def _load_morphism_tables(entry, where):
    _expect(isinstance(entry, dict) and _is_id_table(entry.get("vmap"))
            and _is_id_table(entry.get("emap")), where,
            "needs vmap and emap objects of string ids")
    return obj_morphism(entry["vmap"], entry["emap"])


def load_object_graph(path: str) -> ObjectGraph:
    data = _read_json(path)
    g = _graph_from_data(data, path)
    objects = {}
    _expect(isinstance(data.get("objects"), dict), path, "missing objects table")
    for name, spec in data["objects"].items():
        where = "%s: objects[%s]" % (path, name)
        _expect(isinstance(spec, dict), where, "must be an object")
        vs, es = spec.get("vertices", []), spec.get("edges", [])
        for table, entries, keys in (("vertices", vs, ("id",)),
                                     ("edges", es, ("id", "from", "to"))):
            _expect(isinstance(entries, list), where, "%s must be a list" % table)
            for i, e in enumerate(entries):
                _expect(isinstance(e, dict) and all(isinstance(e.get(k), str) for k in keys)
                        and isinstance(e.get("label", ""), (str, type(None))),
                        "%s.%s[%d]" % (where, table, i), "needs string %s; a "
                        "'label' must be a string" % ", ".join(map(repr, keys)))
        objects[name] = make_object(
            [e["id"] for e in vs], [(e["id"], e["from"], e["to"], e.get("label")) for e in es],
            [(e["id"], e["label"]) for e in vs if e.get("label") is not None])
    for key in ("vertex_objects", "edge_objects", "edge_morphisms"):
        _expect(isinstance(data.get(key), dict), path, "missing %s table" % key)
    vobj, eobj, emor = {}, {}, {}
    for v in g.vertices:
        name = data["vertex_objects"].get(v)
        _expect(isinstance(name, str) and name in objects, path,
                "vertex %r has no object" % v)
        vobj[v] = objects[name]
    for d in g.darts:
        name = data["edge_objects"].get(d)
        _expect(isinstance(name, str) and name in objects, path,
                "dart %r has no object" % d)
        _expect(data["edge_objects"].get(g.reverse[d]) == name, path,
                "dart %r and its reverse name different objects" % d)
        eobj[d] = objects[name]
        entry = data["edge_morphisms"].get(d)
        _expect(entry is not None, path, "dart %r has no edge morphism" % d)
        emor[d] = _load_morphism_tables(entry, "%s: edge_morphisms[%s]" % (path, d))
    x = ObjectGraph(g, vobj, eobj, emor)
    report = validate_object_graph(x)
    _expect(report.ok, path, "; ".join(report.violations[:3]) or "invalid")
    return x


def dump_object(obj) -> dict:
    return {"vertices": [{"id": v, **({"label": obj.vlabel[v]} if v in obj.vlabel else {})}
                         for v in obj.vertices],
            "edges": [{"id": e, "from": s, "to": d,
                       **({"label": lab} if lab is not None else {})}
                      for e, s, d, lab in obj.edges]}


def dump_object_graph(x: ObjectGraph) -> dict:
    names = {}
    table = {}
    def name_of(obj):
        key = (obj.vertices, obj.edges, obj.vertex_labels)
        if key not in names:
            names[key] = "ob%03d" % len(names)
            table[names[key]] = dump_object(obj)
        return names[key]

    out = dump_graph(x.graph)
    out["vertex_objects"] = {v: name_of(o) for v, o in sorted(x.vertex_objects.items())}
    out["edge_objects"] = {d: name_of(o) for d, o in sorted(x.edge_objects.items())}
    out["edge_morphisms"] = {d: {"vmap": dict(m.vmap), "emap": dict(m.emap)}
                             for d, m in sorted(x.edge_morphisms.items())}
    out["objects"] = table
    return out


def load_seeds(path: str) -> list:
    data = _read_json(path)
    _expect(isinstance(data, dict) and isinstance(data.get("seeds"), list),
            path, "needs a seeds list")
    out = []
    for i, entry in enumerate(data["seeds"]):
        where = "%s: seeds[%d]" % (path, i)
        _expect(isinstance(entry, dict), where, "must be an object")
        for key, kind in (("from", str), ("to", str), ("dart_map", dict),
                          ("edge_maps", dict)):
            _expect(isinstance(entry.get(key), kind), where, "needs %r as a JSON %s"
                    % (key, "string" if kind is str else "object"))
        _expect(_is_id_table(entry["dart_map"]), where,
                "dart_map values must be string ids")
        edge_maps = {d: _load_morphism_tables(m, where)
                     for d, m in entry["edge_maps"].items()}
        vm = None
        if entry.get("vertex_map") is not None:
            vm = _load_morphism_tables(entry["vertex_map"], where)
        out.append(SeedSpec(entry["from"], entry["to"], dict(entry["dart_map"]),
                            edge_maps, vm))
    return out


def dump_object_morphism(m) -> dict:
    return {"graph": dump_morphism(m.graph),
            "vertex_morphisms": {v: {"vmap": dict(t.vmap), "emap": dict(t.emap)}
                                 for v, t in sorted(m.vertex_morphisms.items())},
            "edge_morphisms": {d: {"vmap": dict(t.vmap), "emap": dict(t.emap)}
                               for d, t in sorted(m.edge_morphisms.items())}}


# -- commands ---------------------------------------------------------------------


def cmd_check(args) -> int:
    g1, g2 = load_graph(args.first), load_graph(args.second)
    ok, joint = common_cover_exists(g1, g2)
    if ok:
        print("common cover exists (%d joint blocks)" % joint.partition.n_blocks())
        return 0
    print("no common cover")
    return 1


def _write_cover(outdir, cover, fields) -> None:
    """Write cover.json (the cover graph plus ``fields``), mu1.json and
    mu2.json for a ``Cover`` or an ``ObjectCover``."""
    if isinstance(cover, ObjectCover):
        graph, dump_mu = dump_object_graph(cover.cover), dump_object_morphism
    else:
        graph, dump_mu = {"graph": dump_graph(cover.graph)}, dump_morphism
    write_json(os.path.join(outdir, "cover.json"), {**graph, **fields})
    write_json(os.path.join(outdir, "mu1.json"), dump_mu(cover.mu1))
    write_json(os.path.join(outdir, "mu2.json"), dump_mu(cover.mu2))


def cmd_build(args) -> int:
    g1, g2 = load_graph(args.first), load_graph(args.second)
    ok, _ = common_cover_exists(g1, g2)
    if not ok:
        print("no common cover", file=_sys.stderr)
        return 1
    cert = None
    fields = {"backend": args.backend}
    if args.backend == "star":
        strategy = STRATEGY_DR_FULL if args.strategy == "dr" else STRATEGY_ALIGNED
        system = build_star_system_retrying(g1, g2, strategy, args.explore)
        cover = build_cover(system, component=args.component)
        fields["strategy"] = args.strategy
    elif args.backend == "ball":
        system = build_ball_system_retrying(g1, g2, args.radius, args.explore)
        based_arrow = None
        if args.based:
            based_arrow = discover_atoms(g1, g2, system.alignment,
                                         args.radius, 0).vertex_arrows[0]
        cover = build_cover(system, component=args.component,
                            based_at=based_arrow)
        cert = extract_certificate(cover, system, args.certificate_radius,
                                   check_fixed_ball=args.based)
        fields["radius"] = args.radius
    else:
        cover = build_glued_cover(g1, g2, args.radius, args.explore,
                                  component=args.component)
        weights = cover.extra["weights"]
        fields.update(radius=args.radius, subdivided=cover.extra["subdivided"],
                      weights={"scale": weights.scale,
                               "integral": {str(k): v for k, v
                                            in weights.integral.items()}})
    if args.backend != "glue":
        fields.update(degrees=list(cover.degrees), n_multiple=cover.n_multiple,
                      provenance={"vertices": cover.vertex_label,
                                  "darts": cover.dart_label})
    fields["component_sizes"] = list(cover.component_sizes)
    _write_cover(args.out, cover, fields)
    if cert is not None:
        write_json(os.path.join(args.out, "certificate.json"), {
            "radius": cert.radius, "test_radius": cert.test_radius,
            "mismatches": cert.mismatches,
            "fixes_base_ball": cert.fixes_base_ball,
            "entries": [{"tree_vertex": list(e.tree_vertex),
                         "arrow": e.arrow_serial,
                         "matches_label": e.matches_label,
                         "witness_ok": e.witness_ok} for e in cert.entries]})
        if not cert.ok:
            raise VerificationError("certificate has mismatches")
    print("wrote %s" % args.out)
    return 0


def cmd_build_objects(args) -> int:
    x1 = load_object_graph(args.first)
    x2 = load_object_graph(args.second)
    seeds = load_seeds(args.seeds)
    system = close_star_maps(x1, x2, seeds)
    result = build_object_cover(system, component=args.component)
    _write_cover(args.out, result, {"degrees": list(result.built.degrees),
                                    "n_multiple": result.built.n_multiple})
    print("wrote %s" % args.out)
    return 0


def cmd_verify(args) -> int:
    cover_path = args.cover
    if os.path.isdir(cover_path):
        cover_dir = cover_path
        cover_path = os.path.join(cover_path, "cover.json")
    else:
        cover_dir = os.path.dirname(cover_path)
    payload = _read_json(cover_path)
    _expect(isinstance(payload, dict), cover_path, "top level must be an object")
    cover = _graph_from_data(payload.get("graph", payload), cover_path)
    g1, g2 = load_graph(args.first), load_graph(args.second)
    mu1 = load_morphism(os.path.join(cover_dir, "mu1.json"), cover, g1)
    mu2 = load_morphism(os.path.join(cover_dir, "mu2.json"), cover, g2)
    for name, mu in (("mu1", mu1), ("mu2", mu2)):
        rep = is_covering(mu)
        if not rep.ok:
            print("%s fails: %s at %r" % (name, rep.reason, rep.witness))
            return 1
    print("cover verifies onto both inputs")
    return 0


def cmd_bounds(args) -> int:
    params = {}
    for key, value in (("edges", args.edges), ("v_prime", args.v_prime),
                       ("d", args.d), ("radius", args.radius), ("v", args.v),
                       ("isotropy_lcm", args.iso_lcm), ("v1", args.v1),
                       ("v2", args.v2)):
        if value is not None:
            params[key] = value
    if args.kind == "regular":
        params["odd"] = bool(args.odd)
    try:
        report = bound_report(args.kind, actual=args.actual, **params)
    except ValueError as exc:
        raise SchemaError(str(exc))
    if report.bound.denominator == 1 or report.bound > _sys.float_info.max:
        print(math.ceil(report.bound))
    else:
        print("%.6g" % report.bound_float)
    if report.actual is not None:
        print("actual=%d satisfied=%s" % (report.actual, report.satisfied))
    return 0


def cmd_regular(args) -> int:
    g1, g2 = load_graph(args.first), load_graph(args.second)
    cover = regular_common_cover(g1, g2, component=args.component)
    _write_cover(args.out, cover, {
        "backend": "regular", "degrees": list(cover.degrees),
        "bound": cover.extra["bound"], "total_vertices": cover.total_vertices})
    print("wrote %s" % args.out)
    return 0


def _dot_id(s: str) -> str:
    """A quoted DOT ID: backslashes and double quotes escaped."""
    return '"%s"' % s.replace("\\", "\\\\").replace('"', '\\"')


def cmd_export_dot(args) -> int:
    g = load_graph(args.file)
    lines = ["graph G {"]
    for v in g.vertices:
        attrs = ""
        if v in g.vertex_colour:
            attrs = " [color=%s]" % _dot_id(g.vertex_colour[v])
        lines.append("  %s%s;" % (_dot_id(v), attrs))
    for d in g.edge_reps():
        rd = g.reverse[d]
        attrs = []
        if d in g.dart_colour:
            attrs.append("taillabel=%s" % _dot_id(g.dart_colour[d]))
        if rd in g.dart_colour:
            attrs.append("headlabel=%s" % _dot_id(g.dart_colour[rd]))
        suffix = " [%s]" % ", ".join(attrs) if attrs else ""
        lines.append("  %s -- %s%s;" % (_dot_id(g.origin[d]), _dot_id(g.head(d)), suffix))
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with _open_output(args.out) as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)
    return 0


def cmd_oracle(args) -> int:
    g1, g2 = load_graph(args.first), load_graph(args.second)
    result = brute_common_cover(g1, g2, args.max)
    if result.budget_exceeded:
        raise BudgetExceeded("oracle search at degree %d" % result.searched_up_to)
    if result.found:
        print("common cover with %d vertices (degree %d over the first input)"
              % (len(result.cover.vertices), result.degree))
        return 0
    print("none up to degree %d" % args.max)
    return 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later ``main`` in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="commoncover",
        description="Construct and certify common finite covers of graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether a common cover exists")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("build", help="build and verify a common finite cover")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--backend", choices=["star", "ball", "glue"], default="star")
    p.add_argument("--strategy", choices=["dr", "aligned"], default="dr")
    p.add_argument("-R", "--radius", type=int, default=1)
    p.add_argument("--explore", type=int, default=None)
    p.add_argument("--component", choices=["least", "all"], default="least")
    p.add_argument("--based", action="store_true",
                   help="ball backend: pin the cover to the basepoint arrow "
                        "and certify that the base ball is fixed")
    p.add_argument("--certificate-radius", type=int, default=2)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("build-objects", help="common cover of graphs of objects")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--seeds", required=True)
    p.add_argument("--component", choices=["least", "all"], default="least")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_build_objects)

    p = sub.add_parser("verify", help="re-verify a stored cover")
    p.add_argument("cover")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="closed-form cover size bounds")
    p.add_argument("--kind", choices=["general", "ball", "objects", "regular"],
                   required=True)
    p.add_argument("--edges", type=int)
    p.add_argument("--v-prime", dest="v_prime", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--radius", type=int)
    p.add_argument("--v", type=int)
    p.add_argument("--iso-lcm", dest="iso_lcm", type=int)
    p.add_argument("--v1", type=int)
    p.add_argument("--v2", type=int)
    p.add_argument("--odd", action="store_true")
    p.add_argument("--actual", type=int)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("regular", help="fast common cover of regular graphs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--component", choices=["least", "all"], default="least")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_regular)

    p = sub.add_parser("export-dot", help="dot rendering of a graph file")
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("oracle", help="brute-force least common cover")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--max", type=int, default=4)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print("input error: %s" % exc, file=_sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print("budget exceeded: %s" % exc, file=_sys.stderr)
        return 2
    except AxiomError as exc:
        print("axiom failure: %s" % exc, file=_sys.stderr)
        return 2
    except VerificationError as exc:
        print("verification failure: %s" % exc, file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
