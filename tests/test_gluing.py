import json

import pytest

from commoncover import families
from commoncover.ball_system import build_ball_system_retrying
from commoncover.cli import dump_graph, main, write_json
from commoncover.cover_builder import build_cover
from commoncover.gluing import (OrientationError, WeightFn, assemble,
                                build_glued_cover, enumerate_pairs,
                                gluing_weights, orient_darts, subdivide_graph)
from commoncover.graphs import Graph, finish_cover, is_covering
from commoncover.oracle import find_covering
from commoncover.star_system import build_star_system

from conftest import n_edges


def test_every_face_two_sided_on_aligned_cycles():
    sys = build_ball_system_retrying(families.cycle(3), families.cycle(3), 1)
    data = enumerate_pairs(sys)
    for face in data.faces.values():
        assert len(face.left) >= 1 and len(face.right) >= 1
        assert len(face.left) == len(face.right)


def test_identity_system_single_loop_classes():
    sys = build_ball_system_retrying(families.rose(1), families.rose(1), 1)
    data = enumerate_pairs(sys)
    assert len(data.pairs) == 1            # one class per vertex pair
    assert len(data.faces) == 1            # one face class per geometric edge
    weights = gluing_weights(sys, data)
    assert set(weights.integral.values()) == {1}
    glued = assemble(sys, data, weights)
    assert len(glued.graph.vertices) == 1
    assert find_covering(glued.graph, families.rose(1)) is not None


def test_flip_symmetric_star_system_needs_subdivision():
    sys = build_star_system(families.rose(1), families.rose(1))
    with pytest.raises(OrientationError, match="subdivide"):
        orient_darts(sys)


def test_weights_balance_exactly_on_c3_c4():
    sys = build_ball_system_retrying(families.cycle(3), families.cycle(4), 1)
    data = enumerate_pairs(sys)
    weights = gluing_weights(sys, data)
    n = weights.scale
    for face in data.faces.values():
        anchor = sys.atom_anchor(face.atom)
        left = sum(weights.integral[a.serial] for a in face.left)
        right = sum(weights.integral[a.serial] for a in face.right)
        assert left == right == n // sys.orbit_size(anchor)
        # coset correspondence: |left side| = out-count / orbit size
        x = sys.union.org[anchor]
        assert len(face.left) == sys.out_count(x) // sys.orbit_size(anchor)


def test_weight_scaling_multiplies_sizes():
    sys = build_ball_system_retrying(families.cycle(3), families.cycle(4), 1)
    data = enumerate_pairs(sys)
    weights = gluing_weights(sys, data)
    scaled = WeightFn(weights.scale * 3,
                      {k: 3 * v for k, v in weights.integral.items()})
    base_out = assemble(sys, data, weights)
    scaled_out = assemble(sys, data, scaled)
    assert len(scaled_out.graph.vertices) == 3 * len(base_out.graph.vertices)
    assert len(scaled_out.graph.darts) == 3 * len(base_out.graph.darts)


def test_glued_cover_verifies_and_matches_builder_on_same_system():
    sys = build_ball_system_retrying(families.cycle(3), families.cycle(4), 1)
    built = build_cover(sys)
    glued = build_glued_cover(families.cycle(3), families.cycle(4), 1, sys=sys)
    assert is_covering(glued.mu1).ok and is_covering(glued.mu2).ok
    assert len(glued.graph.vertices) == len(built.graph.vertices)
    assert find_covering(glued.graph, built.graph) is not None


def test_all_components_cover_both():
    sys = build_ball_system_retrying(families.cycle(3), families.cycle(4), 1)
    data = enumerate_pairs(sys)
    weights = gluing_weights(sys, data)
    glued = assemble(sys, data, weights, component="all")
    comps = glued.graph.components()
    for comp in comps:
        # finish_cover raises unless both restrictions are coverings
        cut = finish_cover(glued.mu1, glued.mu2, seed=comp[0])
        assert cut.graph.vertices == comp


def test_subdivision_roundtrip_on_k4_theta3():
    g1, g2 = families.complete(4), families.theta(3)
    glued = build_glued_cover(g1, g2, 1)
    assert glued.extra["subdivided"]
    assert is_covering(glued.mu1).ok and is_covering(glued.mu2).ok
    assert len(glued.graph.vertices) % len(g1.vertices) == 0
    assert len(glued.graph.vertices) % len(g2.vertices) == 0


def test_subdivide_graph_structure():
    g = families.complete(4)
    info = subdivide_graph(g)
    sub = info.graph
    assert len(sub.vertices) == len(g.vertices) + n_edges(g)
    assert len(sub.darts) == 2 * len(g.darts)
    for m in info.midpoints:
        assert sub.degree(m) == 2
    from commoncover.graphs import validate_graph
    assert validate_graph(sub).ok


def test_a_midpoint_id_taken_by_a_vertex_is_renamed(tmp_path):
    # rose(2) whose vertex has the id of its first edge's midpoint
    darts = ["e000.a", "e000.b", "e001.a", "e001.b"]
    g = Graph(["m.e000.a"], darts, dict.fromkeys(darts, "m.e000.a"),
              dict(zip(darts, ["e000.b", "e000.a", "e001.b", "e001.a"])))
    assert subdivide_graph(g).midpoints == {"m.e000.a'", "m.e001.a"}
    # the other midpoint keeps its name, and so does every midpoint of an
    # input without the clash
    assert subdivide_graph(families.rose(2)).midpoints == {"m.e00.a", "m.e01.a"}
    paths = []
    for name, graph in (("rose2.json", g), ("theta4.json", families.theta(4))):
        paths.append(str(tmp_path / name))
        write_json(paths[-1], dump_graph(graph))
    for backend in ("glue", "ball"):
        out = str(tmp_path / backend)
        assert main(["build", *paths, "--backend", backend, "-R", "1", "-o", out]) == 0
    with open(str(tmp_path / "glue" / "cover.json")) as fh:
        assert json.load(fh)["subdivided"] is True
