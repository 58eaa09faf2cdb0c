import copy
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commoncover import families
from commoncover.cli import (SchemaError, _encoder, _graph_from_data, _write, build_parser,
                             dump_graph, dump_object_graph, load_graph, load_object_graph,
                             main, write_json)
from commoncover.graphs import Graph, GraphError, VerificationError, validate_graph
from commoncover.object_graphs import rotation_pair

from conftest import random_cubic_graph


def _write_graph(tmp_path, name, g):
    path = str(tmp_path / name)
    write_json(path, dump_graph(g))
    return path


def test_graph_round_trip(tmp_path):
    for name, g in (("c3", families.cycle(3)),
                    ("k4", families.complete(4)),
                    ("red", families.with_vertex_colour(families.cycle(4),
                                                        {"v00": "red"}))):
        path = _write_graph(tmp_path, name + ".json", g)
        assert load_graph(path) == g


def test_check_exit_codes(tmp_path):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    c4 = _write_graph(tmp_path, "c4.json", families.cycle(4))
    k4 = _write_graph(tmp_path, "k4.json", families.complete(4))
    assert main(["check", c3, c4]) == 0
    assert main(["check", c3, k4]) == 1


def test_build_star_and_verify(tmp_path):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    c4 = _write_graph(tmp_path, "c4.json", families.cycle(4))
    out = str(tmp_path / "out")
    assert main(["build", c3, c4, "--backend", "star", "--strategy", "dr",
                 "-o", out]) == 0
    with open(os.path.join(out, "cover.json")) as fh:
        payload = json.load(fh)
    assert len(payload["graph"]["vertices"]) == 12
    assert main(["verify", out, c3, c4]) == 0


def test_verify_detects_corruption(tmp_path):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    out = str(tmp_path / "out")
    assert main(["build", c3, c3, "--backend", "star", "-o", out]) == 0
    mu1 = os.path.join(out, "mu1.json")
    with open(mu1) as fh:
        data = json.load(fh)
    k = sorted(data["vmap"])[0]
    others = sorted(set(data["vmap"].values()) - {data["vmap"][k]})
    data["vmap"][k] = others[0]
    with open(mu1, "w") as fh:
        json.dump(data, fh)
    assert main(["verify", out, c3, c3]) in (1, 2)


def test_build_ball_writes_certificate(tmp_path):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    out = str(tmp_path / "ball")
    assert main(["build", c3, c3, "--backend", "ball", "-R", "1", "--based",
                 "--certificate-radius", "2", "-o", out]) == 0
    with open(os.path.join(out, "certificate.json")) as fh:
        cert = json.load(fh)
    assert cert["mismatches"] == 0
    assert cert["fixes_base_ball"] is True


@pytest.mark.parametrize("radius", ["-1", "-5"])
def test_negative_certificate_radius_exits_two(tmp_path, capsys, radius):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    c4 = _write_graph(tmp_path, "c4.json", families.cycle(4))
    out = tmp_path / "ball"
    assert main(["build", c3, c4, "--backend", "ball", "-R", "1",
                 "--certificate-radius", radius, "-o", str(out)]) == 2
    assert "certificate radius must be non-negative" in capsys.readouterr().err
    assert not (out / "certificate.json").exists()


def test_build_glue_backend(tmp_path):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    c4 = _write_graph(tmp_path, "c4.json", families.cycle(4))
    out = str(tmp_path / "glue")
    assert main(["build", c3, c4, "--backend", "glue", "-o", out]) == 0
    assert main(["verify", out, c3, c4]) == 0


def test_regular_command(tmp_path):
    k4 = _write_graph(tmp_path, "k4.json", families.complete(4))
    k33 = _write_graph(tmp_path, "k33.json", families.complete_bipartite(3, 3))
    out = str(tmp_path / "reg")
    assert main(["regular", k4, k33, "-o", out]) == 0
    assert main(["verify", out, k4, k33]) == 0


def test_regular_refuses_two_coloured_inputs(tmp_path, capsys):
    # the factorizations ignore colours and the cover takes the first
    # input's, so two coloured inputs ended in a verification failure
    k4, k33 = families.complete(4), families.complete_bipartite(3, 3)
    k4_mixed = _write_graph(tmp_path, "k4rb.json", families.with_vertex_colour(
        k4, {"v00": "red", "v01": "red", "v02": "blue", "v03": "blue"}))
    k4_red = _write_graph(tmp_path, "k4r.json", families.with_vertex_colour(
        k4, {v: "red" for v in k4.vertices}))
    k33_mixed = _write_graph(tmp_path, "k33rb.json", families.with_vertex_colour(
        k33, {v: "red" if v < "v03" else "blue" for v in k33.vertices}))
    out = str(tmp_path / "out")
    for first, second in ((k4_mixed, k4_mixed), (k4_red, k33_mixed)):
        assert main(["regular", first, second, "-o", out]) == 2
        assert ("input error: the regular path ignores colours: both inputs carry "
                "vertex colours" in capsys.readouterr().err)
    assert main(["build", k4_mixed, k4_mixed, "--backend", "star", "-o", out]) == 0
    assert main(["check", k4_red, k33_mixed]) == 1
    # one coloured side: the cover is built and verifies
    k33_plain = _write_graph(tmp_path, "k33.json", k33)
    assert main(["regular", k4_mixed, k33_plain, "-o", out]) == 0
    assert main(["verify", out, k4_mixed, k33_plain]) == 0


def test_bounds_command(capsys):
    assert main(["bounds", "--kind", "regular", "--v1", "4", "--v2", "6",
                 "--odd"]) == 0
    assert capsys.readouterr().out.strip() == "48"


def test_oracle_command(tmp_path, capsys):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    c4 = _write_graph(tmp_path, "c4.json", families.cycle(4))
    k4 = _write_graph(tmp_path, "k4.json", families.complete(4))
    assert main(["oracle", c3, c4, "--max", "4"]) == 0
    assert "12 vertices" in capsys.readouterr().out
    assert main(["oracle", c3, k4, "--max", "3"]) == 1


def test_export_dot(tmp_path, capsys):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    assert main(["export-dot", c3]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph G {")
    assert out.count(" -- ") == 3


_DOT_ID = r'"(?:[^"\\]|\\.)*"'
_DOT_LINE = re.compile(r"  ({0})(?: -- ({0}))?(?: \[\w+={0}(?:, \w+={0})*\])?;".format(_DOT_ID))


def _dot_unquote(token):
    return re.sub(r"\\(.)", r"\1", token[1:-1])


def test_export_dot_escapes_ids_and_attributes(tmp_path, capsys):
    path = str(tmp_path / "quotes.json")
    write_json(path, {"vertices": [{"id": 'a"b', "colour": 'r"ed'}, {"id": "c\\"}],
                      "darts": [{"id": "d0", "reverse": "d1", "from": 'a"b',
                                 "colour": 'x\\"'},
                                {"id": "d1", "reverse": "d0", "from": "c\\"}]})
    assert main(["export-dot", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "graph G {" and lines[-1] == "}"
    matches = [_DOT_LINE.fullmatch(line) for line in lines[1:-1]]
    assert all(matches), lines
    assert [_dot_unquote(m[1]) for m in matches] == ['a"b', "c\\", 'a"b']
    assert _dot_unquote(matches[2][2]) == "c\\"
    assert 'color="r\\"ed"' in lines[1] and "colour" not in "".join(lines)
    assert 'taillabel="x\\\\\\""' in lines[3]


def test_schema_errors_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["check", str(bad), str(bad)]) == 2
    worse = tmp_path / "worse.json"
    worse.write_text('{"vertices": [{"id": "v"}], "darts": [{"id": "e"}]}')
    assert main(["check", str(worse), str(worse)]) == 2


def test_build_objects_round_trip(tmp_path):
    x1, x2, seeds = rotation_pair(3)
    p1 = str(tmp_path / "x1.json")
    p2 = str(tmp_path / "x2.json")
    write_json(p1, dump_object_graph(x1))
    write_json(p2, dump_object_graph(x2))
    assert load_object_graph(p1).graph == x1.graph
    seeds_path = str(tmp_path / "seeds.json")
    write_json(seeds_path, {"seeds": [
        {"from": s.src, "to": s.dst, "dart_map": s.dart_map,
         "edge_maps": {d: {"vmap": dict(m.vmap), "emap": dict(m.emap)}
                       for d, m in s.edge_maps.items()},
         "vertex_map": {"vmap": dict(s.vertex_map.vmap),
                        "emap": dict(s.vertex_map.emap)}}
        for s in seeds]})
    out = str(tmp_path / "objcover")
    assert main(["build-objects", p1, p2, "--seeds", seeds_path,
                 "-o", out]) == 0
    with open(os.path.join(out, "cover.json")) as fh:
        payload = json.load(fh)
    assert len(payload["vertices"]) % 3 == 0


def _dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("argv_tail", [
    ["--backend", "star", "--strategy", "dr"],
    ["--backend", "star", "--strategy", "aligned"],
    ["--backend", "ball", "-R", "1", "--based"],
    ["--backend", "glue", "-R", "1"],
])
def test_build_is_deterministic(tmp_path, argv_tail):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    c4 = _write_graph(tmp_path, "c4.json", families.cycle(4))
    out1, out2 = str(tmp_path / "one"), str(tmp_path / "two")
    assert main(["build", c3, c4, *argv_tail, "-o", out1]) == 0
    assert main(["build", c3, c4, *argv_tail, "-o", out2]) == 0
    left, right = _dir_bytes(out1), _dir_bytes(out2)
    assert left.keys() == right.keys()
    for name in left:
        assert left[name] == right[name], name


def test_parser_is_built_once_and_keeps_no_state(tmp_path):
    # main reuses one parser per process; a default build after a ball
    # build must still get every default, as in a fresh process
    assert build_parser() is build_parser()
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    c4 = _write_graph(tmp_path, "c4.json", families.cycle(4))
    ball, star, fresh = (str(tmp_path / name) for name in ("ball", "star", "fresh"))
    assert main(["build", c3, c4, "--backend", "ball", "-R", "1", "-o", ball]) == 0
    assert main(["build", c3, c4, "-o", star]) == 0
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    subprocess.run([sys.executable, "-m", "commoncover.cli", "build", c3, c4,
                    "-o", fresh], env=dict(os.environ, PYTHONPATH=src), check=True)
    assert _dir_bytes(star) == _dir_bytes(fresh)
    assert _dir_bytes(star) != _dir_bytes(ball)


def test_build_objects_is_deterministic(tmp_path):
    x1, x2, seeds = rotation_pair(3)
    p1, p2 = str(tmp_path / "x1.json"), str(tmp_path / "x2.json")
    write_json(p1, dump_object_graph(x1))
    write_json(p2, dump_object_graph(x2))
    seeds_path = str(tmp_path / "seeds.json")
    write_json(seeds_path, {"seeds": [
        {"from": s.src, "to": s.dst, "dart_map": s.dart_map,
         "edge_maps": {d: {"vmap": dict(m.vmap), "emap": dict(m.emap)}
                       for d, m in s.edge_maps.items()},
         "vertex_map": {"vmap": dict(s.vertex_map.vmap),
                        "emap": dict(s.vertex_map.emap)}}
        for s in seeds]})
    one, two = str(tmp_path / "one"), str(tmp_path / "two")
    assert main(["build-objects", p1, p2, "--seeds", seeds_path, "-o", one]) == 0
    assert main(["build-objects", p1, p2, "--seeds", seeds_path, "-o", two]) == 0
    left, right = _dir_bytes(one), _dir_bytes(two)
    assert left.keys() == right.keys()
    for name in left:
        assert left[name] == right[name]


def _built_star_cover(tmp_path):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    out = str(tmp_path / "out")
    assert main(["build", c3, c3, "--backend", "star", "-o", out]) == 0
    return c3, out


def test_verify_dart_without_origin_exits_two(tmp_path, capsys):
    c3, out = _built_star_cover(tmp_path)
    path = os.path.join(out, "cover.json")
    with open(path) as fh:
        payload = json.load(fh)
    del payload["graph"]["darts"][0]["from"]
    write_json(path, payload)
    assert main(["verify", out, c3, c3]) == 2
    assert "darts[0]: needs a string 'from'" in capsys.readouterr().err


@pytest.mark.parametrize("command, field, stored, edited", [
    ("star", "degrees", [12, 6], [999, 1]),
    ("star", "component_sizes", [24, 24], [1]),
    ("regular", "total_vertices", 48, 999),
    ("regular", "bound", 48, 1),
], ids=["degrees", "component_sizes", "total_vertices", "bound"])
def test_verify_checks_the_degrees(tmp_path, capsys, command, field, stored, edited):
    if command == "star":
        g1 = _write_graph(tmp_path, "th3.json", families.theta(3))
        g2 = _write_graph(tmp_path, "k4.json", families.complete(4))
        argv = ["build", g1, g2, "--backend", "star", "--strategy", "aligned"]
    else:
        g1 = _write_graph(tmp_path, "k4.json", families.complete(4))
        g2 = _write_graph(tmp_path, "k33.json", families.complete_bipartite(3, 3))
        argv = ["regular", g1, g2]
    out = str(tmp_path / "out")
    assert main(argv + ["-o", out]) == 0
    path = os.path.join(out, "cover.json")
    with open(path) as fh:
        payload = json.load(fh)
    assert payload[field] == stored
    assert main(["verify", out, g1, g2]) == 0
    payload[field] = edited
    write_json(path, payload)
    assert main(["verify", out, g1, g2]) == 1
    assert "%s fails" % field in capsys.readouterr().out


def test_verify_missing_cover_directory_exits_two(tmp_path):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    assert main(["verify", str(tmp_path / "absent"), c3, c3]) == 2


def test_verify_unparsable_cover_exits_two(tmp_path):
    c3, out = _built_star_cover(tmp_path)
    with open(os.path.join(out, "cover.json"), "w") as fh:
        fh.write('{"graph": ')
    assert main(["verify", out, c3, c3]) == 2


def test_build_objects_entry_without_id_exits_two(tmp_path, capsys):
    x1, x2, seeds = rotation_pair(3)
    p1, p2 = str(tmp_path / "x1.json"), str(tmp_path / "x2.json")
    payload = dump_object_graph(x1)
    name = sorted(payload["objects"])[0]
    del payload["objects"][name]["vertices"][0]["id"]
    write_json(p1, payload)
    write_json(p2, dump_object_graph(x2))
    seeds_path = str(tmp_path / "seeds.json")
    write_json(seeds_path, {"seeds": []})
    assert main(["build-objects", p1, p2, "--seeds", seeds_path,
                 "-o", str(tmp_path / "out")]) == 2
    assert "objects[%s]" % name in capsys.readouterr().err


@pytest.mark.parametrize("backend", [
    ["--backend", "ball"],
    ["--backend", "star", "--strategy", "aligned"],
])
def test_alignment_budget_exits_two(tmp_path, capsys, backend):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    c4 = _write_graph(tmp_path, "c4.json", families.cycle(4))
    assert main(["build", c3, c4, *backend, "--explore", "600",
                 "-o", str(tmp_path / "out")]) == 2
    assert "budget exceeded: alignment radius cap" in capsys.readouterr().err


def test_verify_non_string_vmap_value_exits_two(tmp_path, capsys):
    c3, out = _built_star_cover(tmp_path)
    path = os.path.join(out, "mu1.json")
    with open(path) as fh:
        data = json.load(fh)
    data["vmap"][sorted(data["vmap"])[0]] = [1]
    write_json(path, data)
    assert main(["verify", out, c3, c3]) == 2
    assert "mu1.json: needs vmap and dmap" in capsys.readouterr().err


@pytest.mark.parametrize("table", ["vmap", "dmap"])
def test_verify_key_not_in_the_cover_exits_two(tmp_path, capsys, table):
    th3 = _write_graph(tmp_path, "theta3.json", families.theta(3))
    k4 = _write_graph(tmp_path, "k4.json", families.complete(4))
    out = str(tmp_path / "out")
    assert main(["build", th3, k4, "--backend", "star", "--strategy", "aligned",
                 "-o", out]) == 0
    path = os.path.join(out, "mu1.json")
    with open(path) as fh:
        data = json.load(fh)
    # the extra key maps onto a valid image, so the map is still a covering
    data[table]["zzz"] = data[table][sorted(data[table])[0]]
    write_json(path, data)
    assert main(["verify", out, th3, k4]) == 2
    assert ("mu1.json: %s key 'zzz' is not an id of the cover graph" % table
            in capsys.readouterr().err)


def _records(g: Graph) -> dict:
    """``dump_graph(g)`` with every record a fresh dict."""
    return json.loads(json.dumps(dump_graph(g)))


def _constructor_result(payload, where):
    """``Graph(...)`` of the records, or the SchemaError text that the
    constructor or ``validate_graph`` gives for them."""
    vs, ds = payload["vertices"], payload["darts"]
    try:
        g = Graph([e["id"] for e in vs], [e["id"] for e in ds],
                  {e["id"]: e["from"] for e in ds}, {e["id"]: e["reverse"] for e in ds},
                  {e["id"]: e["colour"] for e in vs if "colour" in e},
                  {e["id"]: e["colour"] for e in ds if "colour" in e})
    except GraphError as exc:
        return "%s: %s" % (where, exc)
    report = validate_graph(g)
    return g if report.ok else "%s: %s" % (where, "; ".join(report.violations[:3]))


def _loader_result(payload, where):
    try:
        return _graph_from_data(payload, where)
    except SchemaError as exc:
        return str(exc)


def _shuffled(payload):
    rng = random.Random(5)
    for records in payload.values():
        rng.shuffle(records)
    return payload


def _edited(payload, table, i, **fields):
    payload[table][i].update(fields)
    return payload


def _loader_cases():
    k4, th3 = families.complete(4), families.theta(3)
    coloured = families.with_vertex_colour(k4, {v: "red" for v in k4.vertices})
    coloured = Graph(coloured.vertices, coloured.darts, coloured.origin, coloured.reverse,
                     coloured.vertex_colour, {d: d[-1] for d in k4.darts})
    partly = Graph(th3.vertices, th3.darts, th3.origin, th3.reverse,
                   {"v00": "red"}, {"e00.a": "blue"})
    first = _records(th3)["darts"][0]["id"]
    return {
        "in order": _records(k4),
        "shuffled": _shuffled(_records(k4)),
        "shuffled coloured": _shuffled(_records(coloured)),
        "partly coloured": _records(partly),
        "missing origin": _edited(_records(th3), "darts", 0, **{"from": None}),
        "origin not a vertex": _edited(_records(th3), "darts", 1, **{"from": "nope"}),
        "unknown reversal": _edited(_records(th3), "darts", 1, reverse="nope"),
        "duplicate dart id": _edited(_records(th3), "darts", 1, id=first),
        "duplicate vertex id": _edited(_records(th3), "vertices", 1, id="v00"),
        "fixed point": _edited(_records(th3), "darts", 0, reverse=first),
    }


@pytest.mark.parametrize("case", sorted(_loader_cases()))
def test_loader_agrees_with_the_constructor(case):
    payload = _loader_cases()[case]
    expected = _constructor_result(copy.deepcopy(payload), "g.json")
    got = _loader_result(payload, "g.json")
    if isinstance(expected, str):
        assert got == expected
    else:
        # plain records are read into the tables alone, coloured ones by
        # the constructor; comparing the graphs renders the views
        assert isinstance(got, Graph)
        assert (got._origin is None) == ("coloured" not in case)
        assert got == expected
        assert (got.org, got.rev) == (expected.org, expected.rev)
        assert (got.vertex_colour, got.dart_colour) == (expected.vertex_colour,
                                                        expected.dart_colour)


def test_verify_renders_no_id_views(tmp_path, monkeypatch):
    p1 = _write_graph(tmp_path, "cubic40.json", random_cubic_graph(random.Random(1), 40))
    p2 = _write_graph(tmp_path, "cubic30.json", random_cubic_graph(random.Random(1), 30))
    out = str(tmp_path / "out")
    assert main(["regular", p1, p2, "-o", out]) == 0
    rendered = []
    for name in ("origin", "reverse"):
        def spy(g, view=Graph.__dict__[name], name=name):
            if getattr(g, "_" + name) is None:
                rendered.append((name, len(g.darts)))
            return view.fget(g)
        monkeypatch.setattr(Graph, name, property(spy))
    assert main(["verify", out, p1, p2]) == 0
    assert rendered == []


@pytest.mark.parametrize("key, value", [("dart_map", 5), ("edge_maps", [1]),
                                        ("from", [1])])
def test_build_objects_malformed_seed_tables_exit_two(tmp_path, capsys, key, value):
    x1, x2, seeds = rotation_pair(3)
    p1, p2 = str(tmp_path / "x1.json"), str(tmp_path / "x2.json")
    write_json(p1, dump_object_graph(x1))
    write_json(p2, dump_object_graph(x2))
    entries = [{"from": s.src, "to": s.dst, "dart_map": s.dart_map,
                "edge_maps": {d: {"vmap": dict(m.vmap), "emap": dict(m.emap)}
                              for d, m in s.edge_maps.items()}}
               for s in seeds]
    entries[0][key] = value
    seeds_path = str(tmp_path / "seeds.json")
    write_json(seeds_path, {"seeds": entries})
    assert main(["build-objects", p1, p2, "--seeds", seeds_path,
                 "-o", str(tmp_path / "out")]) == 2
    assert "seeds[0]: needs %r" % key in capsys.readouterr().err


@pytest.mark.parametrize("table", ["vertex_objects", "edge_objects"])
def test_build_objects_non_string_object_name_exits_two(tmp_path, capsys, table):
    x1, x2, seeds = rotation_pair(3)
    p1, p2 = str(tmp_path / "x1.json"), str(tmp_path / "x2.json")
    payload = dump_object_graph(x1)
    payload[table][sorted(payload[table])[0]] = [1]
    write_json(p1, payload)
    write_json(p2, dump_object_graph(x2))
    seeds_path = str(tmp_path / "seeds.json")
    write_json(seeds_path, {"seeds": []})
    assert main(["build-objects", p1, p2, "--seeds", seeds_path,
                 "-o", str(tmp_path / "out")]) == 2
    assert "has no object" in capsys.readouterr().err


def _seed_entries(seeds):
    return [{"from": s.src, "to": s.dst, "dart_map": dict(s.dart_map),
             "edge_maps": {d: {"vmap": dict(m.vmap), "emap": dict(m.emap)}
                           for d, m in s.edge_maps.items()},
             "vertex_map": {"vmap": dict(s.vertex_map.vmap),
                            "emap": dict(s.vertex_map.emap)}}
            for s in seeds]


def _drop_source_dart(dart_map):
    del dart_map["e00.b"]


def _swap_images(dart_map):
    dart_map["e00.a"], dart_map["e00.b"] = dart_map["e00.b"], dart_map["e00.a"]


@pytest.mark.parametrize("corrupt, message", [
    (_drop_source_dart, "seed dart map must cover the source star exactly"),
    (_swap_images, "decoration square fails"),
])
def test_build_objects_invalid_seed_exits_two(tmp_path, capsys, corrupt, message):
    x1, x2, seeds = rotation_pair(3)
    p1, p2 = str(tmp_path / "x1.json"), str(tmp_path / "x2.json")
    write_json(p1, dump_object_graph(x1))
    write_json(p2, dump_object_graph(x2))
    entries = _seed_entries(seeds)
    corrupt(entries[0]["dart_map"])
    seeds_path = str(tmp_path / "seeds.json")
    write_json(seeds_path, {"seeds": entries})
    assert main(["build-objects", p1, p2, "--seeds", seeds_path,
                 "-o", str(tmp_path / "out")]) == 2
    assert "input error: " + message in capsys.readouterr().err


def test_only_verification_errors_exit_three(tmp_path, capsys, monkeypatch):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    argv = ["regular", c3, c3, "-o", str(tmp_path / "out")]

    def fails(error):
        def regular_common_cover(*args, **kwargs):
            raise error
        return regular_common_cover

    monkeypatch.setattr("commoncover.cli.regular_common_cover",
                        fails(VerificationError("size bound violated")))
    assert main(argv) == 3
    assert "verification failure: size bound violated" in capsys.readouterr().err
    monkeypatch.setattr("commoncover.cli.regular_common_cover",
                        fails(RuntimeError("a bug")))
    with pytest.raises(RuntimeError, match="a bug"):
        main(argv)


def test_oracle_long_cycle_without_recursion(tmp_path, capsys):
    c1200 = _write_graph(tmp_path, "c1200.json", families.cycle(1200))
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    assert main(["oracle", c1200, c3, "--max", "1"]) == 0
    assert "1200 vertices (degree 1" in capsys.readouterr().out


def test_dr_full_budget_exits_two(tmp_path, capsys):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    c2500 = _write_graph(tmp_path, "c2500.json", families.cycle(2500))
    assert main(["build", c3, c2500, "--backend", "star", "--strategy", "dr",
                 "-o", str(tmp_path / "out")]) == 2
    assert "budget exceeded: dr_full needs 12530018 arrows" in capsys.readouterr().err


_TEXT = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\\\"\n\r\t\b\f", "\x00\x1f\x7f", "é ü", "  ", "𝄞 ☃"])
_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | _TEXT


def _near_miss(rows, kind):
    """``rows``, a list of records, changed so that it is no longer one."""
    first = rows[0]
    if kind == "missing key":
        del first[min(first)]
    elif kind == "extra key":
        first["extra%"] = "x"
    elif kind in ("int value", "bool value", "None value"):
        first[min(first)] = {"int value": 7, "bool value": True, "None value": None}[kind]
    elif kind == "int keys":
        rows[:] = [dict(enumerate(r.values())) for r in rows]
    elif kind == "empty dicts":
        rows[:] = [{} for _ in rows]
    return rows


# lists of dicts sharing one key set of str keys, with str values; some are
# changed to just miss that shape
_RECORDS = st.lists(_TEXT | st.sampled_from(["%s", "%", "id"]), min_size=1, max_size=3,
                    unique=True).flatmap(
    lambda keys: st.builds(
        _near_miss,
        st.lists(st.fixed_dictionaries({k: _TEXT for k in keys}), min_size=1, max_size=4),
        st.sampled_from([None, None, None, "missing key", "extra key", "int value",
                         "bool value", "None value", "int keys", "empty dicts"])))
_PAYLOADS = st.recursive(
    _LEAVES | _RECORDS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=30)


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("json") / "out.json")


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(payload=_PAYLOADS)
def test_write_json_writes_the_bytes_of_json_dump(json_path, payload):
    write_json(json_path, payload)
    ref = io.StringIO()
    json.dump(payload, ref, sort_keys=True, indent=2)
    ref.write("\n")
    with open(json_path, "rb") as fh:
        assert fh.read() == ref.getvalue().encode("utf-8")


@pytest.mark.parametrize("payload", [{"a": {1, 2}}, [object()], {(1, 2): "pair"},
                                     {"a": [1, {"b": b"bytes"}]},
                                     [{"a": "x"}, {"a": {1}}]])
def test_write_json_rejects_values_json_cannot_hold(tmp_path, payload):
    with pytest.raises(TypeError):
        write_json(str(tmp_path / "out.json"), payload)
    with pytest.raises(TypeError):
        json.dumps(payload, sort_keys=True, indent=2)


_C_MAKE_ENCODER = json.encoder.c_make_encoder


def _tuple_encoder(*args):
    """The C encoder as CPython 3.12 and later build it: a call returns the
    whole text as a one-element tuple."""
    encode = _C_MAKE_ENCODER(*args)
    return lambda x, level: ("".join(encode(x, level)),)


@pytest.mark.parametrize("make_encoder", [_tuple_encoder, None],
                         ids=["tuple result", "no C encoder"])
def test_write_does_not_depend_on_the_c_encoder(monkeypatch, make_encoder):
    monkeypatch.setattr(json.encoder, "c_make_encoder", make_encoder)
    _encoder.cache_clear()
    try:
        for payload in [1.5, "é\n", None, [], [1, "a", None, float("nan")],
                        {"b": 1, "a": True}, {3: None, 1: "x"}, {"x": [{"a": "1"}, {"a": "2"}]},
                        [{"a": "x", "b": "%s"}, {"a": "y", "b": "z"}],
                        {"k": [[1, 2], {"c": []}, [{"d": 0.25}]]}]:
            pieces = []
            _write(pieces.append, payload, "\n")
            assert "".join(pieces) == json.dumps(payload, sort_keys=True, indent=2)
    finally:
        _encoder.cache_clear()


def test_write_streams_a_record_list():
    darts = [{"id": "d%04d" % i, "reverse": "d%04d" % (i ^ 1), "from": "v%03d" % (i // 3)}
             for i in range(1000)]
    payload = {"graph": {"darts": darts, "vertices": ["v%03d" % i for i in range(333)]}}
    pieces = []
    _write(pieces.append, payload, "\n")
    text = "".join(pieces)
    assert text == json.dumps(payload, sort_keys=True, indent=2)
    assert max(map(len, pieces)) <= len(text) / 10


def _write_red_cycle(tmp_path, name, n, red_edges):
    """The n-cycle with both darts of the named edges coloured red and the
    other darts uncoloured."""
    payload = dump_graph(families.cycle(n))
    for entry in payload["darts"]:
        if entry["id"].split(".")[0] in red_edges:
            entry["colour"] = "red"
    path = str(tmp_path / name)
    write_json(path, payload)
    return path


def test_partly_dart_coloured_graphs(tmp_path):
    c3 = _write_red_cycle(tmp_path, "c3.json", 3, {"e00"})
    c6 = _write_red_cycle(tmp_path, "c6.json", 6, {"e00", "e03"})
    assert main(["check", c3, c6]) == 0
    for i, backend in enumerate((["--backend", "star", "--strategy", "dr"],
                                 ["--backend", "star", "--strategy", "aligned"],
                                 ["--backend", "ball"], ["--backend", "glue"])):
        out = str(tmp_path / ("out%d" % i))
        assert main(["build", c3, c6, *backend, "-o", out]) == 0
        assert main(["verify", out, c3, c6]) == 0
    assert main(["oracle", c3, c6, "--max", "2"]) == 0


def _graph_with_vertex_colour_list(payload):
    payload["vertices"][1]["colour"] = [1]
    return "vertices[1]: 'colour' must be a string"


def _graph_without_vertices(payload):
    payload["vertices"], payload["darts"] = [], []
    return "vertices: a graph needs at least one vertex"


@pytest.mark.parametrize("corrupt", [_graph_with_vertex_colour_list,
                                     _graph_without_vertices])
@pytest.mark.parametrize("argv", [["check"], ["build", "-o", "out"],
                                  ["build", "--backend", "glue", "-o", "out"]])
def test_malformed_graph_files_exit_two(tmp_path, capsys, corrupt, argv):
    payload = dump_graph(families.cycle(3))
    message = corrupt(payload)
    path = str(tmp_path / "bad.json")
    write_json(path, payload)
    argv = [argv[0], path, path, *[str(tmp_path / a) if a == "out" else a
                                   for a in argv[1:]]]
    assert main(argv) == 2
    assert "%s: %s" % (path, message) in capsys.readouterr().err


def test_build_objects_non_string_edge_endpoint_exits_two(tmp_path, capsys):
    x1, x2, _ = rotation_pair(3)
    p1, p2 = str(tmp_path / "x1.json"), str(tmp_path / "x2.json")
    payload = dump_object_graph(x1)
    name = sorted(payload["objects"])[0]
    payload["objects"][name]["edges"][0]["from"] = [1]
    write_json(p1, payload)
    write_json(p2, dump_object_graph(x2))
    seeds_path = str(tmp_path / "seeds.json")
    write_json(seeds_path, {"seeds": []})
    assert main(["build-objects", p1, p2, "--seeds", seeds_path,
                 "-o", str(tmp_path / "out")]) == 2
    assert "%s: objects[%s].edges[0]: needs string" % (p1, name) in capsys.readouterr().err


def test_oracle_disconnected_input_exits_two(tmp_path, capsys):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    two = _write_graph(tmp_path, "two.json", families._from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))
    for argv in (["oracle", c3, two], ["oracle", two, c3]):
        assert main(argv) == 2
        assert "input error: connected graph required" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--kind", "ball", "--d", "6", "--radius", "4", "--v", "3"],
     "budget exceeded: the ball bound has 4300 digits or more"),
    (["--kind", "regular", "--v1", "-3", "--v2", "2"], "v1 must be positive"),
    (["--kind", "general", "--edges", "-1", "--v-prime", "2"],
     "edges must not be negative"),
    (["--kind", "objects", "--d", "2", "--iso-lcm", "0", "--v", "2"],
     "isotropy_lcm must be positive"),
])
def test_bounds_out_of_range_exit_two(capsys, argv, message):
    assert main(["bounds", *argv]) == 2
    assert message in capsys.readouterr().err


def test_unwritable_output_paths_exit_two(tmp_path, capsys):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    afile = tmp_path / "afile"
    afile.write_text("")
    for argv, path in ((["build", c3, c3, "-o", str(afile)], afile / "cover.json"),
                       (["regular", c3, c3, "-o", str(afile / "sub")],
                        afile / "sub" / "cover.json"),
                       (["export-dot", c3, "-o", str(tmp_path)], tmp_path)):
        assert main(argv) == 2
        assert "input error: cannot write %s" % path in capsys.readouterr().err
