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
from itertools import chain, count, islice, repeat
from operator import add, itemgetter, mod

from .ball_system import build_ball_system_retrying
from .bounds import bound_report
from .cover_builder import AxiomError, Labels, build_cover, extract_certificate
from .gluing import build_glued_cover
from .graphs import (BudgetExceeded, Cover, Graph, GraphError, GraphMorphism,
                     VerificationError, graph_from_ids, is_covering, size_fact_failure,
                     validate_graph)
from .object_graphs import (ObjectGraph, ObjectGraphMorphism, SeedSpec, build_object_cover,
                            check_seed_stars, close_star_maps, make_object, obj_morphism,
                            validate_object_graph, verify_object_covering)
from .oracle import brute_common_cover
from .refinement import common_cover_exists
from .regular import regular_common_cover
from .star_system import STRATEGY_ALIGNED, STRATEGY_DR_FULL, build_star_system_retrying


class SchemaError(GraphError):
    """Malformed input data or parameters (exit 2)."""


_quote = json.encoder.encode_basestring_ascii
_SCALARS = {str, int, float, bool, type(None)}
_BATCH_ROWS = 64


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


class _Table:
    """Columns of quoted JSON strings, one row per entry, that ``_write``
    writes as a list of records with the sorted str ``keys``, or, with
    ``keys`` None, as an object whose sorted keys and values are the two
    columns.  The columns are read once."""

    __slots__ = ("keys", "columns")

    def __init__(self, keys, columns):
        self.keys, self.columns = keys, list(columns)


def _records(columns: dict) -> _Table:
    """The records of ``columns`` (str key -> quoted values)."""
    keys = sorted(columns)
    return _Table(keys, map(columns.__getitem__, keys))


def _write_rows(write, table: _Table, nl: str, head: str) -> None:
    """Write ``head`` and a ``_Table``: the rows' separators and quoted
    values interleaved and joined a batch of rows per piece."""
    inner = nl + "  "
    if table.keys is None:
        brackets, seps = "{}", ["," + inner, ": "]
    else:
        brackets = "[]"
        seps = ["," + inner + "  " + _quote(k) + ": " for k in table.keys]
        seps[0] = "," + inner + "{" + seps[0][1:]
    parts = list(chain.from_iterable(zip(map(repeat, seps), table.columns)))
    if table.keys is not None:
        parts.append(repeat(inner + "}"))
    _write_batches(write, chain.from_iterable(zip(*parts)), _BATCH_ROWS * len(parts),
                   nl, head, brackets)


def _write_batches(write, pieces, batch: int, nl: str, head: str, brackets: str) -> None:
    """Write ``head`` and the rows' ``pieces`` in ``brackets``, ``batch``
    pieces joined per write.  Every row starts with "," and a newline; the
    first row drops the comma."""
    chunk = "".join(islice(pieces, batch))
    if not chunk:
        return write(head + brackets)
    write(head + brackets[0] + chunk[1:])
    while chunk := "".join(islice(pieces, batch)):
        write(chunk)
    write(nl + brackets[1])


def _blank(x):
    """x with every scalar replaced by a NUL character."""
    if isinstance(x, dict):
        return dict(zip(x, map(_blank, x.values())))
    return list(map(_blank, x)) if isinstance(x, (list, tuple)) else "\0"


@functools.lru_cache(maxsize=1024)
def _template(blank: str, inner: str, lead: str) -> str:
    """``lead`` and the JSON value ``blank`` as ``_write`` writes it at
    ``inner``, with a %s slot for each of its scalars, all NUL characters:
    the template of the rows of its shape."""
    pieces = []
    _write(pieces.append, json.loads(blank), inner)
    return lead + "".join(pieces).replace("%", "%%").replace(_quote("\0"), "%s")


def _write_labels(write, labels: Labels, nl: str, head: str) -> None:
    """Write ``head`` and a ``Labels`` table: each row fills the template of
    its shape, made from one row's value, after its id."""
    inner, by_id = nl + "  ", labels.ids is not None
    used = sorted(set(labels.of))         # a component cut leaves sources unused
    keys, texts = labels.shapes(list(map(labels.sources.__getitem__, used)), _quote)
    number = {}
    shape = [number.setdefault(k, len(number)) for k in keys]
    # the value of one source of each shape, in the order of the shape numbers
    values = [labels.value(labels.sources[i]) for i in dict(zip(shape, used)).values()]
    templates = [_template(json.dumps(_blank((v, 1) if by_id else v)), inner,
                           "," + inner + ("%s: " if by_id else "")) for v in values]
    rows = list(map(dict(zip(used, count())).__getitem__, labels.of))
    args = map(texts.__getitem__, rows)
    if by_id:
        args = map(add, zip(map(_quote, labels.ids)), map(add, args, zip(labels.copies)))
    _write_batches(write, map(mod, map(templates.__getitem__, map(shape.__getitem__, rows)), args),
                   _BATCH_ROWS, nl, head, "{}" if by_id else "[]")


def _write(write, x, nl: str, head: str = "") -> None:
    """Write ``head`` and x as ``json.dump(x, sort_keys=True, indent=2)``
    does at indentation ``nl``.  A container of plain scalars is one call of
    the C encoder, a ``_Table`` or ``Labels`` a batch of rows per piece; any
    other container is written one piece per entry.
    ``json.dumps({k: 0})`` names a non-str key."""
    if isinstance(x, _Table):
        return _write_rows(write, x, nl, head)
    if isinstance(x, Labels):
        return _write_labels(write, x, nl, head)
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
    path that cannot be written is an input error.  The 64 KB buffer takes
    many pieces per system call and stays below glibc's 128 KB mmap
    threshold: a larger one, once freed, raises that threshold, and later
    buffers then stay resident on the heap."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        return open(path, "w", encoding="utf-8", buffering=1 << 16)
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
    except (OSError, ValueError, RecursionError) as exc:   # deep nesting recurses
        raise SchemaError("%s: %s" % (path, exc))


def load_graph(path: str) -> Graph:
    return _graph_from_data(_read_json(path), path)


_ID, _FROM, _REVERSE = itemgetter("id"), itemgetter("from"), itemgetter("reverse")


def _colours(entries: list):
    """The colour of each entry (None where it has none), or None where no
    entry has one; a colour that is not a str raises TypeError."""
    column = list(map(dict.get, entries, repeat("colour")))
    kinds = set(map(type, column))
    if not kinds <= {str, type(None)}:
        raise TypeError
    return column if str in kinds else None


def _graph_from_data(data, where) -> Graph:
    """Parse a graph payload; every malformed input raises SchemaError.

    The id, endpoint and colour columns go to ``graph_from_ids`` and so to
    ``sort_graph``, the one builder of graphs given by ids; only when an
    entry is malformed are the entries scanned one by one to name it.
    """
    _expect(isinstance(data, dict), where, "top level must be an object")
    vs, ds = data.get("vertices"), data.get("darts")
    _expect(isinstance(vs, list), where, "missing vertices list")
    _expect(isinstance(ds, list), where, "missing darts list")
    _expect(vs, where, "vertices: a graph needs at least one vertex")
    try:
        vertices, darts = list(map(_ID, vs)), list(map(_ID, ds))
        if not set(map(type, vertices)).union(map(type, darts)) <= {str}:
            # to the handler below: a SchemaError here would be re-wrapped
            raise TypeError
        g = graph_from_ids(vertices, darts, list(map(_FROM, ds)), list(map(_REVERSE, ds)),
                           _colours(vs), _colours(ds))
        report = validate_graph(g)
    except (KeyError, TypeError):
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
    vertices = [{"id": v} for v in g.vertices]
    darts = [{"id": d, "reverse": g.darts[r], "from": g.vertices[o]}
             for d, r, o in zip(g.darts, g.rev, g.org)]
    for records, column in ((vertices, g.vcol), (darts, g.dcol)):
        for record, colour in zip(records, column or ()):
            if colour is not None:
                record["colour"] = colour
    return {"vertices": vertices, "darts": darts}


def _colour_column(column):
    """The quoted colours of a colour column; [] for no column, None when
    only some entries have a colour or a colour is not a str."""
    if column is None:
        return []
    return list(map(_quote, column)) if set(map(type, column)) == {str} else None


def _graph_tables(g: Graph, quoted_v: list, quoted_d: list) -> dict:
    """``dump_graph(g)`` for the writer, read from g's index tables and its
    quoted ids: no record dicts.  Partly coloured vertices or darts take
    ``dump_graph``'s records, whose keys differ between entries."""
    vcol, dcol = _colour_column(g.vcol), _colour_column(g.dcol)
    if vcol is None or dcol is None:
        return dump_graph(g)
    vertices = {"id": quoted_v}
    darts = {"id": quoted_d, "from": map(quoted_v.__getitem__, g.org),
             "reverse": map(quoted_d.__getitem__, g.rev)}
    for columns, colour in ((vertices, vcol), (darts, dcol)):
        if colour:
            columns["colour"] = colour
    return {"vertices": _records(vertices), "darts": _records(darts)}


def _morphism_tables(m: GraphMorphism, quoted_v: list, quoted_d: list) -> dict:
    """The vmap and dmap tables of a morphism file, read from m's index
    tables and the quoted ids of its source."""
    images_v = list(map(_quote, m.target.vertices))
    images_d = list(map(_quote, m.target.darts))
    return {"vmap": _Table(None, (quoted_v, map(images_v.__getitem__, m.vm))),
            "dmap": _Table(None, (quoted_d, map(images_d.__getitem__, m.dm)))}


def _is_id_table(table) -> bool:
    """A JSON object mapping identifiers to identifiers (keys always are)."""
    return isinstance(table, dict) and set(map(type, table.values())) <= {str}


def load_morphism(path: str, source: Graph, target: Graph) -> GraphMorphism:
    return _morphism_from_data(_read_json(path), path, source, target)


def _morphism_from_data(data, path: str, source: Graph, target: Graph) -> GraphMorphism:
    """The map of a morphism payload, converted into index tables by the
    ``GraphMorphism`` constructor; the decoded tables are not kept.  A key
    that is not a source id is an input error.  An image that is missing or
    not a target id is -1 in the tables, and the violations name it."""
    _expect(isinstance(data, dict) and _is_id_table(data.get("vmap"))
            and _is_id_table(data.get("dmap")), path,
            "needs vmap and dmap objects of string ids")
    m = GraphMorphism(source, target, data["vmap"], data["dmap"])
    for name, ids, images in (("vmap", source.vertices, m.vm), ("dmap", source.darts, m.dm)):
        # where every image is valid, every id is a key
        table = data[name]
        keyed = len(ids) if -1 not in images else sum(map(table.__contains__, ids))
        if keyed < len(table):
            raise SchemaError("%s: %s key %r is not an id of the cover graph"
                              % (path, name, min(table.keys() - set(ids))))
    return m


# -- object graphs on disk -------------------------------------------------------


def _object_map(entry, where, source, target):
    """The map of a vmap/emap entry from source to target; stray keys exit 2."""
    _expect(isinstance(entry, dict) and _is_id_table(entry.get("vmap"))
            and _is_id_table(entry.get("emap")), where,
            "needs vmap and emap objects of string ids")
    _expect_ids(entry["vmap"], source.vertices, where, "vmap", "a vertex of the source object")
    _expect_ids(entry["emap"], source.edges, where, "emap", "an edge of the source object")
    return obj_morphism(source, target, entry["vmap"], entry["emap"])


def _expect_ids(table: dict, ids, where, name, what):
    """Refuse a key of ``table`` that is not in ``ids``, naming the least."""
    unknown = table.keys() - set(ids)
    _expect(not unknown, where, "%s key %r is not %s" % (name, min(unknown, default=None), what))


def load_object_graph(path: str) -> ObjectGraph:
    return _object_graph_from_data(_read_json(path), path)


def _object_graph_from_data(data, path: str) -> ObjectGraph:
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
        try:
            objects[name] = make_object(
                [e["id"] for e in vs], [(e["id"], e["from"], e["to"], e.get("label")) for e in es],
                [(e["id"], e["label"]) for e in vs if e.get("label") is not None])
        except GraphError as exc:
            raise SchemaError("%s: %s" % (where, exc))
    for key, ids in (("vertex_objects", g.vertices), ("edge_objects", g.darts),
                     ("edge_morphisms", g.darts)):
        _expect(isinstance(data.get(key), dict), path, "missing %s table" % key)
        _expect_ids(data[key], ids, path, key, "an id of the graph")
    vobj, eobj, emor = [], [], []
    for v in g.vertices:
        name = data["vertex_objects"].get(v)
        _expect(isinstance(name, str) and name in objects, path,
                "vertex %r has no object" % v)
        vobj.append(objects[name])
    for d, r, o in zip(g.darts, g.rev, g.org):
        name = data["edge_objects"].get(d)
        _expect(isinstance(name, str) and name in objects, path,
                "dart %r has no object" % d)
        _expect(data["edge_objects"].get(g.darts[r]) == name, path,
                "dart %r and its reverse name different objects" % d)
        eobj.append(objects[name])
        entry = data["edge_morphisms"].get(d)
        _expect(entry is not None, path, "dart %r has no edge morphism" % d)
        emor.append(_object_map(entry, "%s: edge_morphisms[%s]" % (path, d), eobj[-1], vobj[o]))
    x = ObjectGraph(g, tuple(vobj), tuple(eobj), tuple(emor))
    report = validate_object_graph(x)
    _expect(report.ok, path, "; ".join(report.violations[:3]) or "invalid")
    return x


def load_object_morphism(path: str, source: ObjectGraph,
                         target: ObjectGraph) -> ObjectGraphMorphism:
    """A map file of an object cover: the graph map under "graph", beside
    the vertex and edge morphism tables, keyed by cover vertex and dart.
    Each object map goes into the object of its element's image."""
    data = _read_json(path)
    _expect(isinstance(data, dict), path, "top level must be an object")
    m = _morphism_from_data(data.get("graph"), path, source.graph, target.graph)
    columns = []
    for key, ids, objects, images, targets in zip(
            ("vertex_morphisms", "edge_morphisms"), (source.graph.vertices, source.graph.darts),
            (source.vertex_objects, source.edge_objects), (m.vm, m.dm),
            (target.vertex_objects, target.edge_objects)):
        _expect(isinstance(data.get(key), dict), path, "missing %s table" % key)
        table, targets = data[key], (*targets, make_object(()))     # -1: the empty object
        _expect_ids(table, ids, path, key, "an id of the cover graph")
        columns.append(tuple(
            _object_map(table[k], "%s: %s[%s]" % (path, key, k), obj, targets[i])
            if k in table else None for k, obj, i in zip(ids, objects, images)))
    return ObjectGraphMorphism(source, target, m, *columns)


def dump_object(obj) -> dict:
    return {"vertices": [{"id": v, **({"label": lab} if lab is not None else {})}
                         for v, lab in zip(obj.vertices, obj.vertex_labels)],
            "edges": [{"id": e, "from": obj.vertices[s], "to": obj.vertices[d],
                       **({"label": lab} if lab is not None else {})}
                      for e, s, d, lab in zip(obj.edges, obj.src, obj.dst, obj.edge_labels)]}


def dump_object_graph(x: ObjectGraph) -> dict:
    return {**dump_graph(x.graph), **_object_tables(x)}


def _object_tables(x: ObjectGraph) -> dict:
    """The object tables of ``dump_object_graph(x)``, without the graph."""
    # the objects are named in the order the tables below meet them
    g, names = x.graph, {}

    def name_of(obj):
        return names.setdefault(obj, "ob%03d" % len(names))

    return {"vertex_objects": dict(zip(g.vertices, map(name_of, x.vertex_objects))),
            "edge_objects": dict(zip(g.darts, map(name_of, x.edge_objects))),
            "edge_morphisms": _object_maps(g.darts, x.edge_morphisms),
            "objects": {name: dump_object(obj) for obj, name in names.items()}}


def _object_maps(ids, maps) -> dict:
    """id -> the vmap and emap tables of its map, for maps by id index."""
    return {k: {"vmap": dict(m.vmap), "emap": dict(m.emap)} for k, m in zip(ids, maps)}


def load_seeds(path: str, x1: ObjectGraph, x2: ObjectGraph) -> list:
    """The seed star maps of a seeds file, their maps between x1's and x2's objects."""
    data = _read_json(path)
    _expect(isinstance(data, dict) and isinstance(data.get("seeds"), list),
            path, "needs a seeds list")
    (v1, d1), (v2, d2) = x1.graph.index(), x2.graph.index()
    out = []
    for i, entry in enumerate(data["seeds"]):
        where = "%s: seeds[%d]" % (path, i)
        _expect(isinstance(entry, dict), where, "must be an object")
        for key, kind in (("from", str), ("to", str), ("dart_map", dict),
                          ("edge_maps", dict)):
            _expect(isinstance(entry.get(key), kind), where, "needs %r as a JSON %s"
                    % (key, "string" if kind is str else "object"))
        for key, index in (("from", v1), ("to", v2)):
            _expect(entry[key] in index, where, "%s %r is not a vertex of its graph"
                    % (key, entry[key]))
        _expect(_is_id_table(entry["dart_map"]), where,
                "dart_map values must be string ids")
        seed = SeedSpec(entry["from"], entry["to"], dict(entry["dart_map"]), {})
        # first, as close_star_maps reports it again; it makes the lookups below safe
        check_seed_stars(x1.graph, x2.graph, seed)
        _expect_ids(entry["edge_maps"], seed.dart_map, where, "edge_maps", "a key of dart_map")
        seed.edge_maps = {
            e: _object_map(m, "%s: edge_maps[%s]" % (where, e), x1.edge_objects[d1[e]],
                           x2.edge_objects[d2[seed.dart_map[e]]])
            for e, m in entry["edge_maps"].items()}
        if entry.get("vertex_map") is not None:
            seed.vertex_map = _object_map(entry["vertex_map"], where + ": vertex_map",
                                          x1.vertex_objects[v1[seed.src]],
                                          x2.vertex_objects[v2[seed.dst]])
        out.append(seed)
    return out


# -- commands ---------------------------------------------------------------------


def cmd_check(args) -> int:
    g1, g2 = load_graph(args.first), load_graph(args.second)
    ok, joint = common_cover_exists(g1, g2)
    if ok:
        print("common cover exists (%d joint blocks)" % joint.partition.n_blocks())
        return 0
    print("no common cover")
    return 1


def _write_cover(outdir, cover: Cover, fields) -> None:
    """Write cover.json (the cover graph plus ``fields``), mu1.json and
    mu2.json.  The graph and the maps are written from the index tables,
    each cover id quoted once.  An object cover's graph sits at the top
    level beside its object tables, and each of its maps as "graph" beside
    the vertex and edge morphism tables of ``extra["objects"]``."""
    g, objects = cover.graph, cover.extra.get("objects")
    quoted_v, quoted_d = list(map(_quote, g.vertices)), list(map(_quote, g.darts))
    graph = {"graph": _graph_tables(g, quoted_v, quoted_d)}
    maps = [_morphism_tables(mu, quoted_v, quoted_d) for mu in (cover.mu1, cover.mu2)]
    if objects:
        graph = {**graph["graph"], **_object_tables(objects[0].source)}
        maps = [{"graph": m, "vertex_morphisms": _object_maps(g.vertices, mu.vertex_morphisms),
                 "edge_morphisms": _object_maps(g.darts, mu.edge_morphisms)}
                for m, mu in zip(maps, objects)]
    write_json(os.path.join(outdir, "cover.json"), {**graph, **fields})
    for name, payload in zip(("mu1.json", "mu2.json"), maps):
        write_json(os.path.join(outdir, name), payload)


def cmd_build(args) -> int:
    if args.based and args.backend != "ball":
        raise GraphError("--based needs --backend ball")
    g1, g2 = load_graph(args.first), load_graph(args.second)
    ok, joint = common_cover_exists(g1, g2)
    if not ok:
        print("no common cover", file=_sys.stderr)
        return 1
    cert = None
    fields = {"backend": args.backend}
    if args.backend == "star":
        strategy = STRATEGY_DR_FULL if args.strategy == "dr" else STRATEGY_ALIGNED
        system = build_star_system_retrying(g1, g2, strategy, args.explore, joint)
        cover = build_cover(system, component=args.component)
        fields["strategy"] = args.strategy
    elif args.backend == "ball":
        system = build_ball_system_retrying(g1, g2, args.radius, args.explore, joint)
        cover = build_cover(system, component=args.component,
                            based_at=system.discovered.root if args.based else None)
        cert = extract_certificate(cover, system, args.certificate_radius,
                                   check_fixed_ball=args.based)
        fields["radius"] = args.radius
    else:
        system = build_ball_system_retrying(g1, g2, args.radius, args.explore, joint)
        cover = build_glued_cover(g1, g2, args.radius, args.explore, args.component, system)
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
            "fixes_base_ball": cert.fixes_base_ball, "entries": cert.table})
        if not cert.ok:
            raise VerificationError("certificate has mismatches")
    print("wrote %s" % args.out)
    return 0


def cmd_build_objects(args) -> int:
    x1, x2 = load_object_graph(args.first), load_object_graph(args.second)
    seeds = load_seeds(args.seeds, x1, x2)
    system = close_star_maps(x1, x2, seeds)
    cover = build_object_cover(system, component=args.component)
    _write_cover(args.out, cover, {"degrees": list(cover.degrees),
                                   "n_multiple": cover.n_multiple})
    print("wrote %s" % args.out)
    return 0


def _covering_check(mu: GraphMorphism) -> tuple:
    rep = is_covering(mu)
    return rep.ok, "%s at %r" % (rep.reason, rep.witness)


def cmd_verify(args) -> int:
    """Re-verify a stored cover onto both inputs: each map as a covering
    and the recorded size facts.  A cover.json with object tables is an
    object cover: the cover and the inputs load as object graphs, and each
    map with its vertex and edge morphism tables."""
    cover_path = args.cover
    if os.path.isdir(cover_path):
        cover_dir = cover_path
        cover_path = os.path.join(cover_path, "cover.json")
    else:
        cover_dir = os.path.dirname(cover_path)
    payload = _read_json(cover_path)
    _expect(isinstance(payload, dict), cover_path, "top level must be an object")
    facts = list(map(payload.get, ("degrees", "component_sizes", "bound", "total_vertices",
                                   "n_multiple")))
    paths = [os.path.join(cover_dir, name) for name in ("mu1.json", "mu2.json")]
    if "objects" in payload:
        x = _object_graph_from_data(payload, cover_path)
        inputs = load_object_graph(args.first), load_object_graph(args.second)
        checks = map(verify_object_covering, [load_object_morphism(path, x, y)
                                              for path, y in zip(paths, inputs)])
        cover, g1, g2 = x.graph, inputs[0].graph, inputs[1].graph
    else:
        cover = _graph_from_data(payload.get("graph", payload), cover_path)
        del payload         # the largest structure of a verify, not needed further
        g1, g2 = load_graph(args.first), load_graph(args.second)
        checks = map(_covering_check, [load_morphism(path, cover, g)
                                       for path, g in zip(paths, (g1, g2))])
    for name, (ok, failure) in zip(("mu1", "mu2"), checks):
        if not ok:
            print("%s fails: %s" % (name, failure))
            return 1
    failure = size_fact_failure(len(cover.vertices), len(g1.vertices), len(g2.vertices),
                                *facts)
    if failure:
        print("%s fails: %r is not %s" % failure)
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
    origin, reverse = g.origin, g.reverse
    vertex_colour, dart_colour = g.vertex_colour, g.dart_colour
    lines = ["graph G {"]
    for v in g.vertices:
        attrs = ""
        if v in vertex_colour:
            attrs = " [color=%s]" % _dot_id(vertex_colour[v])
        lines.append("  %s%s;" % (_dot_id(v), attrs))
    for d in g.edge_reps():
        rd = reverse[d]
        attrs = []
        if d in dart_colour:
            attrs.append("taillabel=%s" % _dot_id(dart_colour[d]))
        if rd in dart_colour:
            attrs.append("headlabel=%s" % _dot_id(dart_colour[rd]))
        suffix = " [%s]" % ", ".join(attrs) if attrs else ""
        lines.append("  %s -- %s%s;" % (_dot_id(origin[d]), _dot_id(origin[rd]), suffix))
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
