"""Refusals that an input reaches through the API or the CLI, one row each:
the call, the exception it raises and the words of its message."""

from dataclasses import replace

import pytest

from commoncover import bounds, cli, families
from commoncover.ball_system import build_ball_system_retrying
from commoncover.cli import dump_graph, main, write_json
from commoncover.cover_builder import build_cover, extract_certificate
from commoncover.graphs import (BudgetExceeded, Graph, GraphError, GraphMorphism,
                                VerificationError, compose_morphisms, fiber_product,
                                finish_cover, numbered_ids)
from commoncover.object_graphs import (SeedSpec, build_object_cover, close_star_maps,
                                       make_object, obj_identity, object_map_violation,
                                       rotation_map, rotation_pair, verify_object_covering)
from commoncover.refinement import joint_refinement
from commoncover.regular import factorize_regular, max_bipartite_matching
from commoncover.universal_cover import TreeAlignment, UniversalCover

from conftest import edge_list_graph

C3 = families.cycle(3)


def _two_points() -> Graph:
    """Two vertices and no dart: a graph of two components."""
    return Graph(["a", "b"], [], {}, {})


def _covering_onto_rose(vertices) -> GraphMorphism:
    """The 2-cycle on ``vertices`` wrapped around the one-loop rose."""
    g = edge_list_graph(vertices, [(vertices[0], vertices[1]), (vertices[1], vertices[0])])
    loop = {"e00.a": "e00.a", "e00.b": "e00.b", "e01.a": "e00.a", "e01.b": "e00.b"}
    return GraphMorphism(g, families.rose(1), dict.fromkeys(vertices, "v00"), loop)


def _seed(**change) -> list:
    """The two seeds of ``rotation_pair(3)``, the first with ``change``."""
    first, second = rotation_pair(3)[2]
    fields = {"src": first.src, "dst": first.dst, "dart_map": first.dart_map,
              "edge_maps": first.edge_maps, "vertex_map": first.vertex_map, **change}
    return [SeedSpec(**fields), second]


def _labelled(label):
    return make_object(["p", "q"], [("r", "p", "q", label)])


def _flipped(m: GraphMorphism) -> GraphMorphism:
    """m, onto a one-vertex graph, with the images of dart 0 and its reverse
    swapped: still a graph morphism, but both darts at the origin of dart 0
    now share an image."""
    dm, rev = list(m.dm), m.target.rev
    for d in (0, m.source.rev[0]):
        dm[d] = rev[dm[d]]
    return GraphMorphism.from_tables(m.source, m.target, m.vm, dm)


def _unbased_cover_at_another_vertex():
    sys = build_ball_system_retrying(families.cycle(3), families.cycle(4), 1)
    other = next(a for a in sys.cross_arrows() if a.src != sys.cover1.basepoint)
    return build_cover(sys, based_at=other), sys


def _underlying_map_fails():
    x1, x2, seeds = rotation_pair(3)
    mu = build_object_cover(close_star_maps(x1, x2, seeds)).extra["objects"][0]
    mu.graph = _flipped(mu.graph)
    return verify_object_covering(mu)


ROWS = {
    # universal covers and alignments
    "cover-disconnected": (lambda: UniversalCover(_two_points()),
                           GraphError, "connected graph required"),
    "cover-basepoint": (lambda: UniversalCover(C3, 3), GraphError, "vertex not in graph: 3"),
    "cover-ball-radius": (lambda: UniversalCover(C3).ball((), -1),
                          GraphError, "radius must be non-negative"),
    "cover-layers-radius": (lambda: UniversalCover(C3).layers(-1),
                            GraphError, "radius must be non-negative"),
    "cover-lift": (lambda: UniversalCover(C3).canonical_lift(7),
                   GraphError, "vertex not in graph: 7"),
    "cover-not-adjacent": (lambda: UniversalCover(C3).dart_between((), (0, 2)),
                           GraphError, "tree vertices are not adjacent"),
    "cover-fibres": (lambda: UniversalCover(C3).deck_loop((), (0,)),
                     GraphError, "deck transports preserve fibres"),
    "cover-step": (lambda: UniversalCover(C3).step((), 2),
                   GraphError, "'e01.a' does not start at the path endpoint"),
    "alignment-blocks": (lambda: TreeAlignment(
        UniversalCover(families.path(3)), UniversalCover(families.path(3), 1),
        joint_refinement(families.path(3), families.path(3))),
        GraphError, "the basepoints lie in different joint blocks"),
    "alignment-no-common-cover": (lambda: build_ball_system_retrying(C3, families.complete(4), 1),
                                  GraphError, "no common universal cover"),
    "refinement-disconnected": (lambda: joint_refinement(_two_points(), C3),
                                GraphError, "connected graph required"),
    # bounds
    "bound-kind": (lambda: bounds.bound_report("nope"), ValueError, "unknown bound kind"),
    "landau-mode": (lambda: bounds.landau(5, "nope"), ValueError, "mode must be"),
    "landau-n": (lambda: bounds.landau(0), ValueError, "n must be positive"),
    "landau-exact-n": (lambda: bounds.landau_exact(0), ValueError, "n must be positive"),
    # graphs and covers
    "restrict-unknown": (lambda: C3.restrict(["zz"]), GraphError, "vertex not in graph: 'zz'"),
    "compose-mismatch": (lambda: compose_morphisms(_covering_onto_rose(["a", "b"]),
                                                   _covering_onto_rose(["a", "b"])),
                         GraphError, "cannot compose"),
    "fiber-product-bases": (lambda: fiber_product(
        _covering_onto_rose(["a", "b"]),
        GraphMorphism(C3, C3, {v: v for v in C3.vertices}, {d: d for d in C3.darts})),
        GraphError, "onto the same graph"),
    "pair-ids-collide": (lambda: fiber_product(_covering_onto_rose(["a", "a|b"]),
                                               _covering_onto_rose(["b|c", "c"])),
                         GraphError, "pair identifiers collide: '(a|b|c)'"),
    "numbered-ids-budget": (lambda: numbered_ids(("v%06d",), range(10 ** 6, 10 ** 6 + 1)),
                            BudgetExceeded, "more than a million"),
    "finish-component": (lambda: finish_cover(*[_covering_onto_rose(["a", "b"])] * 2, "some"),
                         GraphError, "unknown component option: 'some'"),
    "finish-size": (lambda: finish_cover(*[GraphMorphism(
        Graph(["x", "y", "z"], [], {}, {}), _two_points(), {"x": "a", "y": "b", "z": "b"},
        {})] * 2), VerificationError, "cover size is not a multiple of a base size"),
    "certificate-seed": (lambda: extract_certificate(*_unbased_cover_at_another_vertex(), 2),
                         GraphError, "seed vertex does not sit over the basepoint"),
    # the regular path
    "regular-disconnected": (lambda: factorize_regular(
        edge_list_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])),
        GraphError, "connected graph required"),
    # object graphs and seeds
    "seed-dart-map": (lambda: close_star_maps(*rotation_pair(3)[:2], _seed(
        dart_map={"e00.a": "e00.a", "e00.b": "e00.a"})),
        GraphError, "seed dart map must hit the target star exactly"),
    "seed-edge-map": (lambda: close_star_maps(*rotation_pair(3)[:2], _seed(
        edge_maps={"e00.b": rotation_map(3, -1)})),
        GraphError, "edge map at 'e00.a' is not an object isomorphism"),
    "seed-vertex-map": (lambda: close_star_maps(*rotation_pair(3)[:2], _seed(
        vertex_map=rotation_map(4))),
        GraphError, "seed vertex map is not an object isomorphism"),
    "object-graph-invalid": (lambda: close_star_maps(
        replace(rotation_pair(3)[0], vertex_objects=(None,)), rotation_pair(3)[1], []),
        GraphError, "invalid object graph: missing vertex object at 'v00'"),
}


@pytest.mark.parametrize("call,error,words", ROWS.values(), ids=ROWS.keys())
def test_a_reachable_refusal(call, error, words):
    with pytest.raises(error) as caught:
        call()
    assert words in str(caught.value)


def test_object_maps_between_other_objects_or_labels_are_refused():
    cyc = rotation_map(3).source
    assert object_map_violation(cyc, cyc, rotation_map(4)) == "map is not between these objects"
    x, y = _labelled("red"), _labelled("blue")
    assert object_map_violation(x, y, obj_identity(x)._replace(
        source=x, target=y)) == "edge label not preserved at 'r'"


def test_an_object_map_over_no_covering_is_refused():
    ok, failure = _underlying_map_fails()
    assert not ok and failure.startswith("underlying map: star map not bijective at ")


def test_a_left_node_with_no_free_partner_stays_unmatched():
    # both left nodes reach only "r": the second finds no augmenting path
    assert max_bipartite_matching({0: [(0, "r")], 1: [(1, "r")]}) == {0: 0}


def test_the_oracle_command_exits_two_on_its_budget(tmp_path, capsys, monkeypatch):
    search = cli.brute_common_cover
    monkeypatch.setattr(cli, "brute_common_cover",
                        lambda g1, g2, most: search(g1, g2, most, budget=5))
    paths = []
    for name, g in (("theta3", families.theta(3)), ("k4", families.complete(4))):
        paths.append(str(tmp_path / (name + ".json")))
        write_json(paths[-1], dump_graph(g))
    assert main(["oracle", *paths]) == 2
    assert "budget exceeded: oracle search at degree 3" in capsys.readouterr().err


def test_a_graph_file_with_an_id_that_is_no_string_exits_two(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    write_json(path, {"vertices": [{"id": 5}], "darts": []})
    assert main(["check", path, path]) == 2
    assert "vertices[0]: needs a string 'id'" in capsys.readouterr().err
