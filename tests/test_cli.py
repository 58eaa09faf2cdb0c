import copy
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commoncover import ball_system, cli, families, object_graphs
from commoncover.ball_system import BallKind
from commoncover.cli import (SchemaError, _encoder, _graph_from_data, _write, build_parser,
                             dump_graph, dump_object_graph, load_graph, load_object_graph,
                             main, write_json)
from commoncover.cover_builder import Kind
from commoncover.gluing import subdivide_graph
from commoncover.graphs import Graph, GraphError, GraphMorphism, VerificationError, validate_graph
from commoncover.object_graphs import rotation_pair

from conftest import mislabel_base_vertex, random_cubic_graph
from test_golden_artifacts import GRAPHS, _rotation_inputs, _write_object_inputs


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


def test_a_certificate_mismatch_exits_three(tmp_path, capsys, monkeypatch):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    c4 = _write_graph(tmp_path, "c4.json", families.cycle(4))
    build = cli.build_cover

    def mislabelled(sys, **kwargs):
        cover = build(sys, **kwargs)
        mislabel_base_vertex(cover, sys)
        return cover

    monkeypatch.setattr(cli, "build_cover", mislabelled)
    out = tmp_path / "ball"
    assert main(["build", c3, c4, "--backend", "ball", "-R", "1",
                 "--certificate-radius", "2", "-o", str(out)]) == 3
    assert ("verification failure: certificate has mismatches"
            in capsys.readouterr().err)
    with open(out / "certificate.json") as fh:
        cert = json.load(fh)
    failed = [e for e in cert["entries"] if not (e["matches_label"] and e["witness_ok"])]
    assert cert["mismatches"] == len(failed) >= 1
    assert cert["entries"][0]["tree_vertex"] == [] and not cert["entries"][0]["matches_label"]


@pytest.mark.parametrize("radius", ["-1", "-5"])
def test_negative_certificate_radius_exits_two(tmp_path, capsys, radius):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    c4 = _write_graph(tmp_path, "c4.json", families.cycle(4))
    out = tmp_path / "ball"
    assert main(["build", c3, c4, "--backend", "ball", "-R", "1",
                 "--certificate-radius", radius, "-o", str(out)]) == 2
    assert "certificate radius must be non-negative" in capsys.readouterr().err
    assert not (out / "certificate.json").exists()


def test_a_ball_radius_below_one_exits_two(tmp_path, capsys):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    out = tmp_path / "ball"
    assert main(["build", c3, c3, "--backend", "ball", "-R", "0", "-o", str(out)]) == 2
    assert "ball radius must be at least 1" in capsys.readouterr().err
    assert not out.exists()


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


def test_objects_bound_prints_its_closed_form(capsys):
    d, iso_lcm, v = 3, 2, 10
    assert main(["bounds", "--kind", "objects", "--d", str(d), "--iso-lcm", str(iso_lcm),
                 "--v", str(v), "--actual", "100"]) == 0
    out = capsys.readouterr().out
    assert out == "3.39179e+09\nactual=100 satisfied=True\n"
    plain = (math.factorial(d) ** 2 * iso_lcm ** (2 * d) * v * v
             * math.exp(2 * math.sqrt(v * math.log(v))))
    assert out.splitlines()[0] == "%.6g" % plain


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


def test_export_dot_to_a_file_labels_a_coloured_reverse_dart(tmp_path, capsys):
    g = families.cycle(3)
    path = _write_graph(tmp_path, "c3.json", Graph(g.vertices, g.darts, g.origin, g.reverse,
                                                   None, {"e00.b": "red"}))
    dot = tmp_path / "c3.dot"
    assert main(["export-dot", path, "-o", str(dot)]) == 0
    assert capsys.readouterr().out == ""
    assert dot.read_bytes() == (b'graph G {\n  "v00";\n  "v01";\n  "v02";\n'
                                b'  "v00" -- "v01" [headlabel="red"];\n'
                                b'  "v01" -- "v02";\n  "v02" -- "v00";\n}\n')


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


@pytest.mark.parametrize("kind", ["graph", "cover", "mu1", "object graph", "seeds"])
def test_deeply_nested_input_exits_two(tmp_path, kind):
    c3, out = _built_star_cover(tmp_path)
    x1, x2, _ = rotation_pair(3)
    p1, p2, seeds = (str(tmp_path / name) for name in ("x1.json", "x2.json", "seeds.json"))
    write_json(p1, dump_object_graph(x1))
    write_json(p2, dump_object_graph(x2))
    write_json(seeds, {"seeds": []})
    objects = ["build-objects", p1, p2, "--seeds", seeds, "-o", str(tmp_path / "objects")]
    argv, path = {"graph": (["check", c3, c3], c3),
                  "cover": (["verify", out, c3, c3], os.path.join(out, "cover.json")),
                  "mu1": (["verify", out, c3, c3], os.path.join(out, "mu1.json")),
                  "object graph": (objects, p1),
                  "seeds": (objects, seeds)}[kind]
    with open(path, "w") as fh:
        fh.write("[" * 100000 + "]" * 100000)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run([sys.executable, "-m", "commoncover.cli", *argv], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 2
    assert "input error: %s" % path in run.stderr
    assert "Traceback" not in run.stderr


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


@pytest.mark.parametrize("kind, edited", [
    ("star", -5), ("star", 0), ("star", 11), ("star", "36"),
    ("objects", -5), ("objects", 0), ("objects", 2),
])
def test_verify_checks_n_multiple(tmp_path, capsys, kind, edited):
    # n_multiple bounds both degrees (12 and 6 on Theta3/K4, 3 on the
    # rotation_pair(3) object cover)
    if kind == "star":
        g1 = _write_graph(tmp_path, "th3.json", families.theta(3))
        g2 = _write_graph(tmp_path, "k4.json", families.complete(4))
        out = str(tmp_path / "out")
        assert main(["build", g1, g2, "--backend", "star", "--strategy", "aligned",
                     "-o", out]) == 0
    else:
        paths, out = _built_object_cover(tmp_path)
        g1, g2 = paths["x1"], paths["x2"]
    path = os.path.join(out, "cover.json")
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["n_multiple"] == (36 if kind == "star" else 6)
    for value, code in ((12 if kind == "star" else 3, 0), (edited, 1)):
        payload["n_multiple"] = value
        write_json(path, payload)
        capsys.readouterr()
        assert main(["verify", out, g1, g2]) == code
    assert ("n_multiple fails: %r is not a positive int no smaller than either degree"
            % (edited,)) in capsys.readouterr().out


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
        "vertex colours only": _records(families.with_vertex_colour(
            k4, {v: "red" for v in k4.vertices})),
        "dart colours only": _records(Graph(k4.vertices, k4.darts, k4.origin, k4.reverse,
                                            None, {d: d[-1] for d in k4.darts})),
        "endpoint not a string": _edited(_records(th3), "darts", 1, **{"from": 5}),
        "missing origin": _edited(_records(th3), "darts", 0, **{"from": None}),
        "origin not a vertex": _edited(_records(th3), "darts", 1, **{"from": "nope"}),
        "unknown reversal": _edited(_records(th3), "darts", 1, reverse="nope"),
        "duplicate dart id": _edited(_records(th3), "darts", 1, id=first),
        "duplicate vertex id": _edited(_records(th3), "vertices", 1, id="v00"),
        "fixed point": _edited(_records(th3), "darts", 0, reverse=first),
    }


def test_an_endpoint_that_is_not_a_string_is_named_with_its_value():
    got = _loader_result(_loader_cases()["endpoint not a string"], "g.json")
    assert got.endswith("is not a vertex: 5")


@pytest.mark.parametrize("case", sorted(_loader_cases()))
def test_loader_agrees_with_the_constructor(case):
    payload = _loader_cases()[case]
    expected = _constructor_result(copy.deepcopy(payload), "g.json")
    got = _loader_result(payload, "g.json")
    if isinstance(expected, str):
        assert got == expected
    else:
        # plain records are read into the tables alone, coloured ones by
        # the constructor, and a valid graph keeps no given entry either way
        assert isinstance(got, Graph)
        assert got._given is None
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


def _built_object_cover(tmp_path):
    paths = _write_object_inputs(str(tmp_path))
    out = str(tmp_path / "out")
    assert main(["build-objects", paths["x1"], paths["x2"], "--seeds", paths["seeds"],
                 "-o", out]) == 0
    return paths, out


def test_verify_an_object_cover(tmp_path, capsys):
    paths, out = _built_object_cover(tmp_path)
    assert main(["verify", out, paths["x1"], paths["x2"]]) == 0
    assert "cover verifies onto both inputs" in capsys.readouterr().out


def test_verify_an_object_cover_with_an_edited_edge_morphism_exits_one(tmp_path, capsys):
    paths, out = _built_object_cover(tmp_path)
    path = os.path.join(out, "mu2.json")
    with open(path) as fh:
        data = json.load(fh)
    entry = data["edge_morphisms"][sorted(data["edge_morphisms"])[0]]
    first = sorted(entry["vmap"].values())[0]
    entry["vmap"] = dict.fromkeys(entry["vmap"], first)     # no longer invertible
    write_json(path, data)
    assert main(["verify", out, paths["x1"], paths["x2"]]) == 1
    assert "mu2 fails: " in capsys.readouterr().out


@pytest.mark.parametrize("table", ["vertex_morphisms", "edge_morphisms"])
def test_verify_an_object_cover_with_an_unknown_morphism_key_exits_two(tmp_path, capsys, table):
    paths, out = _built_object_cover(tmp_path)
    path = os.path.join(out, "mu1.json")
    with open(path) as fh:
        data = json.load(fh)
    # the extra key holds a valid entry, so every check but the keys passes
    data[table]["zzz"] = data[table][sorted(data[table])[0]]
    write_json(path, data)
    assert main(["verify", out, paths["x1"], paths["x2"]]) == 2
    assert ("mu1.json: %s key 'zzz' is not an id of the cover graph" % table
            in capsys.readouterr().err)


def test_verify_an_object_cover_onto_plain_graphs_exits_two(tmp_path, capsys):
    _, out = _built_object_cover(tmp_path)
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    assert main(["verify", out, c3, c3]) == 2
    assert "c3.json: missing objects table" in capsys.readouterr().err


def _edited_object_run(tmp_path, name, edit):
    """Build an object cover of rotation_pair(3), then run ``build-objects``
    with ``edit`` applied to the payload of input ``name`` ("x1" or
    "seeds"), or ``verify`` with it applied to that of output ``name``
    ("mu2.json"); returns the exit code."""
    paths, out = _built_object_cover(tmp_path)
    path = paths.get(name) or os.path.join(out, name)
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    write_json(path, data)
    if name in paths:
        return main(["build-objects", paths["x1"], paths["x2"], "--seeds", paths["seeds"],
                     "-o", str(tmp_path / "again")])
    return main(["verify", out, paths["x1"], paths["x2"]])


@pytest.mark.parametrize("name, edit, message", [
    ("x1", lambda x: x["edge_morphisms"]["e00.a"]["emap"].update(zz="r0"),
     "x1.json: edge_morphisms[e00.a]: emap key 'zz' is not an edge of the source object"),
    ("x1", lambda x: x["edge_morphisms"]["e00.b"]["vmap"].update(zz="o0"),
     "x1.json: edge_morphisms[e00.b]: vmap key 'zz' is not a vertex of the source object"),
    ("seeds", lambda s: s["seeds"][0]["edge_maps"]["e00.a"]["vmap"].update(zz="o0"),
     "seeds[0]: edge_maps[e00.a]: vmap key 'zz' is not a vertex of the source object"),
    ("seeds", lambda s: s["seeds"][1]["vertex_map"]["emap"].update(zz="r0"),
     "seeds[1]: vertex_map: emap key 'zz' is not an edge of the source object"),
    ("mu2.json", lambda m: m["edge_morphisms"]["d000000"]["emap"].update(zz="r0"),
     "mu2.json: edge_morphisms[d000000]: emap key 'zz' is not an edge of the source object"),
    ("mu2.json", lambda m: m["vertex_morphisms"]["v000001"]["vmap"].update(zz="o0"),
     "mu2.json: vertex_morphisms[v000001]: vmap key 'zz' is not a vertex of the source object"),
], ids=["graph edge map emap", "graph edge map vmap", "seed edge map", "seed vertex map",
        "map file edge morphism", "map file vertex morphism"])
def test_a_stray_object_map_key_exits_two(tmp_path, capsys, name, edit, message):
    # an object map key that is no element of its source object
    assert _edited_object_run(tmp_path, name, edit) == 2
    assert message in capsys.readouterr().err


def _repeat_first(table):
    def edit(x):
        records = x["objects"]["ob000"][table]
        records.append(dict(records[0]))
    return edit


@pytest.mark.parametrize("name, edit, message", [
    ("x1", lambda x: x["vertex_objects"].update(zzz="ob000"),
     "x1.json: vertex_objects key 'zzz' is not an id of the graph"),
    ("x1", lambda x: x["edge_objects"].update(zzz="ob000"),
     "x1.json: edge_objects key 'zzz' is not an id of the graph"),
    ("x1", lambda x: x["edge_morphisms"].update(zzz=x["edge_morphisms"]["e00.a"]),
     "x1.json: edge_morphisms key 'zzz' is not an id of the graph"),
    ("seeds", lambda s: s["seeds"][0]["edge_maps"].update(zzz=s["seeds"][0]["edge_maps"]["e00.a"]),
     "seeds.json: seeds[0]: edge_maps key 'zzz' is not a key of dart_map"),
    ("x1", _repeat_first("vertices"), "x1.json: objects[ob000]: duplicate vertex id 'o0'"),
    ("x1", _repeat_first("edges"), "x1.json: objects[ob000]: duplicate edge id 'r0'"),
], ids=["vertex_objects", "edge_objects", "edge_morphisms", "seed edge_maps",
        "duplicate vertex", "duplicate edge"])
def test_an_unknown_or_repeated_id_in_an_object_file_exits_two(tmp_path, capsys, name, edit,
                                                                message):
    assert _edited_object_run(tmp_path, name, edit) == 2
    assert message in capsys.readouterr().err


def _map_mutations(entries, groups):
    """(label, entries) with the object maps at the ids of one group in
    ``groups`` changed together in ``entries`` (id -> vmap/emap tables):
    each replaced by the map at each other id where that differs, each image
    set to the next image of its table, and the first image of each table
    set to "zzz" and dropped."""
    def changed(group, change):
        out = copy.deepcopy(entries)
        for key in group:
            change(out[key])
        return out

    for group in groups:
        for other in sorted(entries):
            if other not in group and entries[other] != entries[group[0]]:
                yield "%s as %s" % ("+".join(group), other), changed(
                    group, lambda m: m.update(copy.deepcopy(entries[other])))
        for table in ("vmap", "emap"):
            images = sorted(set(entries[group[0]][table].values()))
            for i, (k, w) in enumerate(sorted(entries[group[0]][table].items())):
                nxt = images[(images.index(w) + 1) % len(images)]
                for image in [nxt, "zzz", None] if i == 0 else [nxt]:
                    yield "%s %s %s %s" % ("+".join(group), table, k, image), changed(
                        group, lambda m: m[table].pop(k) if image is None
                        else m[table].__setitem__(k, image))


def _object_cover_mutations(cover, maps):
    """(file name, label, payload) for each mutation of an object cover's
    files: the vertex maps, the edge maps (a dart with its reverse, and a
    dart alone) and the dart images of both map files, and the edge maps of
    cover.json."""
    reverse = {d["id"]: d["reverse"] for d in cover["darts"]}
    pairs = [(d, r) for d, r in sorted(reverse.items()) if d < r]
    singles = [(d,) for d in sorted(reverse)]
    for name, data in maps:
        for label, table in _map_mutations(data["vertex_morphisms"],
                                           [(v,) for v in sorted(data["vertex_morphisms"])]):
            yield name, "vertex_morphisms " + label, {**data, "vertex_morphisms": table}
        for groups in (pairs, singles):
            for label, table in _map_mutations(data["edge_morphisms"], groups):
                yield name, "edge_morphisms " + label, {**data, "edge_morphisms": table}
        images = sorted(set(data["graph"]["dmap"].values()))
        for d, f in sorted(data["graph"]["dmap"].items()):
            for other in images:
                if other != f:
                    graph = {**data["graph"], "dmap": {**data["graph"]["dmap"], d: other}}
                    yield name, "dmap %s %s" % (d, other), {**data, "graph": graph}
    for groups in (pairs, singles):
        for label, table in _map_mutations(cover["edge_morphisms"], groups):
            yield "cover.json", "edge_morphisms " + label, {**cover, "edge_morphisms": table}


def test_mutated_object_maps_keep_their_verdicts(tmp_path, capsys):
    """1,942 mutations of the object maps of the covers of rotation_pair(3),
    (4) and (5), each file changed alone and ``verify`` run on it: the exit
    codes and messages, pinned by count and by one digest of them all."""
    records = []
    for order in (3, 4, 5):
        work = tmp_path / str(order)
        work.mkdir()
        paths = {key: str(work / (key + ".json")) for key in ("x1", "x2", "seeds")}
        for key, payload in zip(("x1", "x2", "seeds"), _rotation_inputs(order)):
            write_json(paths[key], payload)
        out = str(work / "out")
        assert main(["build-objects", paths["x1"], paths["x2"], "--seeds", paths["seeds"],
                     "-o", out]) == 0
        capsys.readouterr()
        files = {}
        for name in ("cover.json", "mu1.json", "mu2.json"):
            with open(os.path.join(out, name)) as fh:
                files[name] = json.load(fh)
        for name, label, payload in _object_cover_mutations(
                files["cover.json"], [(m, files[m]) for m in ("mu1.json", "mu2.json")]):
            with open(os.path.join(out, name), "w") as fh:
                json.dump(payload, fh)
            code = main(["verify", out, paths["x1"], paths["x2"]])
            said = capsys.readouterr()
            message = (said.out + said.err).strip().replace(str(work), "<dir>")
            records.append("%d %s %s\t%d\t%s" % (order, name, label, code, message))
            with open(os.path.join(out, name), "w") as fh:
                json.dump(files[name], fh)
    counts = {}
    for record in records:
        code, message = record.split("\t")[1:]
        kind = "%s %s" % (code, re.sub(r"'[^']*'", "_", message))
        counts[kind] = counts.get(kind, 0) + 1
    assert counts == MUTATION_COUNTS
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == MUTATION_DIGEST


# exit code and message, with each quoted id as "_" -> mutations
MUTATION_COUNTS = {
    '1 mu1 fails: edge morphism at _ is not invertible': 148,
    '1 mu1 fails: edge morphisms differ across the reversal at _': 296,
    '1 mu1 fails: vertex morphism at _ is not invertible': 148,
    '1 mu2 fails: decoration square fails at dart _': 114,
    '1 mu2 fails: edge morphism at _ is not invertible': 148,
    '1 mu2 fails: edge morphisms differ across the reversal at _': 448,
    '1 mu2 fails: vertex morphism at _ is not invertible': 148,
    '2 input error: <dir>/out/cover.json: edge morphism not structure-preserving at '
    '_: edge _ has no valid image': 48,
    '2 input error: <dir>/out/cover.json: edge morphism not structure-preserving at '
    '_: edge _ has no valid image; edge morphism not structure-preserving at _: edge '
    '_ has no valid image': 24,
    '2 input error: <dir>/out/cover.json: edge morphism not structure-preserving at '
    '_: incidence not preserved at edge _': 200,
    '2 input error: <dir>/out/cover.json: edge morphism not structure-preserving at '
    '_: incidence not preserved at edge _; edge morphism not structure-preserving at '
    '_: incidence not preserved at edge _': 100,
    '2 input error: <dir>/out/cover.json: edge morphism not structure-preserving at '
    '_: vertex _ has no valid image': 48,
    '2 input error: <dir>/out/cover.json: edge morphism not structure-preserving at '
    '_: vertex _ has no valid image; edge morphism not structure-preserving at _: '
    'vertex _ has no valid image': 24,
    '2 input error: not a graph morphism: reversal not preserved at dart _; reversal '
    'not preserved at dart _': 48,
}
MUTATION_DIGEST = "564a779eecacc66b39b65c2e0aa6883baadb1ce1e00758f6f585794b92d22405"


def test_an_alignment_past_its_size_budget_exits_two(tmp_path, capsys):
    def looped_cycle(n):
        return families._from_edges(n, [(i, (i + 1) % n) for i in range(n)], loops=range(n))

    c16 = _write_graph(tmp_path, "c16.json", looped_cycle(16))
    c8 = _write_graph(tmp_path, "c8.json", looped_cycle(8))
    start = time.perf_counter()
    assert main(["build", c16, c8, "--backend", "ball", "-R", "1",
                 "-o", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 2
    assert "budget exceeded" in capsys.readouterr().err


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


def _write_rotation_run(tmp_path, order, edit):
    """Write rotation_pair(order) object graphs and its seeds with ``edit``
    applied to the seed entries; returns the argv of their ``build-objects``
    and the seeds path."""
    x1, x2, seeds = rotation_pair(order)
    p1, p2 = str(tmp_path / "x1.json"), str(tmp_path / "x2.json")
    write_json(p1, dump_object_graph(x1))
    write_json(p2, dump_object_graph(x2))
    entries = _seed_entries(seeds)
    edit(entries)
    seeds_path = str(tmp_path / "seeds.json")
    write_json(seeds_path, {"seeds": entries})
    return (["build-objects", p1, p2, "--seeds", seeds_path, "-o", str(tmp_path / "out")],
            seeds_path)


@pytest.mark.parametrize("key", ["from", "to"])
def test_a_seed_end_that_is_no_vertex_names_its_entry(tmp_path, capsys, key):
    argv, seeds_path = _write_rotation_run(tmp_path, 3,
                                           lambda entries: entries[1].update({key: "nope"}))
    assert main(argv) == 2
    assert ("input error: %s: seeds[1]: %s 'nope' is not a vertex of its graph"
            % (seeds_path, key)) in capsys.readouterr().err


def test_a_seed_without_a_vertex_map_over_a_large_object_exits_two(tmp_path, capsys,
                                                                   monkeypatch):
    # nine vertices: the search would try 9! vertex permutations
    def searched(x, y):
        raise AssertionError("the vertex map search ran")

    monkeypatch.setattr(object_graphs, "all_object_isos", searched)
    argv, _ = _write_rotation_run(tmp_path, 9, lambda entries: entries[0].pop("vertex_map"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: the seed at 'v00' has no vertex_map")
    assert "give a vertex_map" in err


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


@pytest.mark.parametrize("backend", [
    ["--backend", "star", "--strategy", "aligned"],
    ["--backend", "ball", "-R", "1"],
    ["--backend", "ball", "-R", "1", "--based"],
    ["--backend", "glue", "-R", "1"],
], ids=["aligned", "ball", "ball-based", "glue"])
def test_build_when_the_vertex_zeros_lie_in_different_blocks(tmp_path, capsys, backend):
    # K_{2,3} and the subdivided K_4 have two joint blocks; the first vertex
    # of the subdivision is a midpoint, so the second cover is based elsewhere
    k23 = _write_graph(tmp_path, "k23.json", families.complete_bipartite(2, 3))
    sk4 = _write_graph(tmp_path, "sk4.json",
                       subdivide_graph(families.complete(4)).graph)
    assert main(["check", k23, sk4]) == 0
    assert "(2 joint blocks)" in capsys.readouterr().out
    out = str(tmp_path / "out")
    assert main(["build", k23, sk4, *backend, "-o", out]) == 0
    assert main(["verify", out, k23, sk4]) == 0


@pytest.mark.parametrize("backend", [
    ["--backend", "star", "--strategy", "aligned"],
    ["--backend", "ball", "-R", "1"],
], ids=["aligned", "ball"])
def test_an_exploration_radius_of_zero_grows(tmp_path, backend):
    th3 = _write_graph(tmp_path, "th3.json", families.theta(3))
    k4 = _write_graph(tmp_path, "k4.json", families.complete(4))
    assert main(["build", th3, k4, *backend, "--explore", "0",
                 "-o", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("pair,backend,final", [
    (("theta3", "k4"), ["--backend", "star", "--strategy", "aligned"], "2"),
    (("theta3", "k4"), ["--backend", "ball", "-R", "1"], "2"),
    (("theta3", "k4"), ["--backend", "ball", "-R", "1", "--based"], "2"),
    (("theta3", "k4"), ["--backend", "glue", "-R", "1"], "2"),
    (("rose2", "theta4"), ["--backend", "ball", "-R", "1"], "1"),
], ids=["aligned", "ball", "ball-based", "glue", "ball-rose2-theta4"])
def test_a_retried_build_writes_the_bytes_of_its_final_radius(tmp_path, pair, backend,
                                                              final):
    # --explore 0 fails its axioms and is retried (0 -> 1 -> 2 on Theta3/K4):
    # the retried build must leave no trace of the attempts that failed
    graphs = {"theta3": families.theta(3), "k4": families.complete(4),
              "rose2": families.rose(2), "theta4": families.theta(4)}
    paths = [_write_graph(tmp_path, name + ".json", graphs[name]) for name in pair]
    outs = {}
    for explore in ("0", final):
        outs[explore] = str(tmp_path / ("explore" + explore))
        assert main(["build", *paths, *backend, "--explore", explore,
                     "-o", outs[explore]]) == 0
    assert _dir_bytes(outs["0"]) == _dir_bytes(outs[final])


@pytest.mark.parametrize("backend", [
    ["--backend", "star", "--strategy", "aligned"],
    ["--backend", "ball", "-R", "1"],
    ["--backend", "glue", "-R", "1"],
], ids=["aligned", "ball", "glue"])
def test_a_negative_exploration_radius_exits_two(tmp_path, capsys, backend):
    th3 = _write_graph(tmp_path, "th3.json", families.theta(3))
    k4 = _write_graph(tmp_path, "k4.json", families.complete(4))
    assert main(["build", th3, k4, *backend, "--explore", "-1",
                 "-o", str(tmp_path / "out")]) == 2
    assert "input error: exploration radius must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("backend", [["--backend", "star"], ["--backend", "glue"]],
                         ids=["star", "glue"])
def test_based_needs_the_ball_backend(tmp_path, capsys, backend):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    c4 = _write_graph(tmp_path, "c4.json", families.cycle(4))
    out = str(tmp_path / "out")
    assert main(["build", c3, c4, *backend, "--based", "-o", out]) == 2
    assert "input error: --based needs --backend ball" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("pair", [("theta3", "k4"), ("c3", "c4")])
def test_a_ball_build_of_every_component_exits_two_before_building(tmp_path, capsys,
                                                                   monkeypatch, pair):
    # on theta3/k4 the whole cover has two components, on c3/c4 one: the
    # verdict does not wait for the build, so it does not depend on the ids
    graphs = {"theta3": families.theta(3), "k4": families.complete(4),
              "c3": families.cycle(3), "c4": families.cycle(4)}
    paths = [_write_graph(tmp_path, name + ".json", graphs[name]) for name in pair]
    monkeypatch.setattr(cli, "build_ball_system_retrying", None)
    out = str(tmp_path / "out")
    assert main(["build", *paths, "--backend", "ball", "--component", "all", "-o", out]) == 2
    assert ("input error: --backend ball needs --component least"
            in capsys.readouterr().err)
    assert not os.path.exists(out)


def test_a_based_build_walks_once(tmp_path, monkeypatch):
    # the basepoint arrow is the one the build's walk met at the root
    k4 = _write_graph(tmp_path, "k4.json", families.complete(4))
    th3 = _write_graph(tmp_path, "th3.json", families.theta(3))
    calls = []
    for owner, name in ((Kind, "within"), (BallKind, "arrow_at"),
                        (ball_system, "ball_numbering")):
        def spy(*args, fn=getattr(owner, name), name=name):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(owner, name, spy)
    assert main(["build", k4, th3, "--backend", "ball", "-R", "1", "--based",
                 "-o", str(tmp_path / "out")]) == 0
    # one numbering, one walk at the default radius 3: 1 + 3 + 6 + 12 tree vertices
    assert calls == ["ball_numbering", "within"] + ["arrow_at"] * 22


@pytest.mark.parametrize("maximum", ["0", "-1"])
def test_oracle_maximum_degree_below_one_exits_two(tmp_path, capsys, maximum):
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    c4 = _write_graph(tmp_path, "c4.json", families.cycle(4))
    assert main(["oracle", c3, c4, "--max", maximum]) == 2
    assert "maximum degree must be at least 1" in capsys.readouterr().err


def test_builds_render_no_id_views(tmp_path, monkeypatch):
    th3 = _write_graph(tmp_path, "th3.json", families.theta(3))
    k4 = _write_graph(tmp_path, "k4.json", families.complete(4))
    c6 = _write_graph(tmp_path, "c6.json", families.cycle(6))
    th2 = _write_graph(tmp_path, "th2.json", families.theta(2))
    k33 = _write_graph(tmp_path, "k33.json", families.complete_bipartite(3, 3))
    k5 = _write_graph(tmp_path, "k5.json", families.complete(5))
    k44 = _write_graph(tmp_path, "k44.json", families.complete_bipartite(4, 4))
    c3 = _write_graph(tmp_path, "c3.json", families.cycle(3))
    rose2 = _write_graph(tmp_path, "rose2.json", families.rose(2))
    th4 = _write_graph(tmp_path, "th4.json", families.theta(4))
    c3red, c6red, c6v, rose2red, th4red = [
        _write_graph(tmp_path, name + ".json", GRAPHS[name]())
        for name in ("c3red", "c6red", "c6v", "rose2red", "theta4red")]
    objects = _write_object_inputs(str(tmp_path))
    # the views are rendered on every use, so every use is recorded
    rendered = []
    for cls, names in ((Graph, ("origin", "reverse", "vertex_colour", "dart_colour")),
                       (GraphMorphism, ("vmap", "dmap"))):
        for name in names:
            def spy(x, view=cls.__dict__[name], name=name):
                rendered.append(name)
                return view.fget(x)
            monkeypatch.setattr(cls, name, property(spy))
    out = str(tmp_path / "out")
    for argv, subdivided in (
            (["check", th3, k4], None),
            (["build", th3, k4, "--strategy", "dr", "-o", out], None),
            (["build", th3, k4, "--strategy", "aligned", "-o", out], None),
            (["build", k4, th3, "--backend", "ball", "-R", "1", "-o", out], None),
            (["build", k4, th3, "--backend", "ball", "-R", "1", "--based", "-o", out], None),
            (["build", c6, th2, "--backend", "glue", "-R", "1", "-o", out], False),
            (["build", rose2, th4, "--backend", "glue", "-R", "1", "-o", out], True),
            (["regular", k4, k33, "-o", out], None),
            (["regular", k5, k44, "-o", out], None),
            (["oracle", c3, c6, "--max", "2"], None),
            (["build-objects", objects["x1"], objects["x2"], "--seeds", objects["seeds"],
              "-o", out], None),
            # coloured inputs: partly dart-coloured, and vertex-coloured
            (["check", c3red, c6red], None),
            (["build", c3red, c6red, "--strategy", "dr", "-o", out], None),
            (["build", c3red, c6red, "--strategy", "aligned", "-o", out], None),
            (["build", c6v, c6v, "--backend", "ball", "-R", "1", "-o", out], None),
            (["build", c3red, c6red, "--backend", "glue", "-R", "1", "-o", out], False),
            (["build", rose2red, th4red, "--backend", "glue", "-R", "1", "-o", out], True),
            (["regular", c3red, c6red, "-o", out], None),
            (["regular", c6v, c6v, "-o", out], None),
            (["oracle", c3red, c6red, "--max", "2"], None),
            (["oracle", c6v, c6v, "--max", "2"], None)):
        assert main(argv) == 0
        assert rendered == [], argv
        if subdivided is not None:
            with open(os.path.join(out, "cover.json")) as fh:
                assert json.load(fh)["subdivided"] is subdivided, argv


def _awkward(g: Graph) -> Graph:
    """g with every vertex and dart id given a prefix that holds "%", "%s",
    a double quote, a backslash and a non-ASCII character."""
    def name(x):
        return '%s"\\é%' + x
    return Graph([name(v) for v in g.vertices], [name(d) for d in g.darts],
                 {name(d): name(v) for d, v in g.origin.items()},
                 {name(d): name(r) for d, r in g.reverse.items()})


@pytest.mark.parametrize("argv_tail", [
    ["--backend", "star", "--strategy", "aligned"],
    ["--backend", "star", "--strategy", "dr"],
    ["--backend", "ball", "-R", "1", "--based"],
], ids=["aligned", "dr", "ball-based"])
def test_awkward_ids_are_written_as_json_dump_writes_them(tmp_path, argv_tail):
    th3 = _write_graph(tmp_path, "th3.json", _awkward(families.theta(3)))
    k4 = _write_graph(tmp_path, "k4.json", _awkward(families.complete(4)))
    out = str(tmp_path / "out")
    assert main(["build", k4, th3, *argv_tail, "-o", out]) == 0
    names = sorted(os.listdir(out))
    assert names == sorted(["cover.json", "mu1.json", "mu2.json"]
                           + ["certificate.json"] * ("ball" in argv_tail))
    for name in names:
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            text = fh.read()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", name
    with open(os.path.join(out, "cover.json"), encoding="utf-8") as fh:
        serial, copy = next(iter(json.load(fh)["provenance"]["vertices"].values()))
    assert serial[1].startswith('1:%s"\\é%') and copy == 1
