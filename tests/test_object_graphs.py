import pytest

from commoncover import families, object_graphs
from commoncover.cover_builder import AxiomError, build_cover
from commoncover.graphs import GraphError
from commoncover.object_graphs import (ObjectGraph, ObjectGraphMorphism, SeedSpec,
                                       SeedError, all_object_isos, build_object_cover,
                                       close_star_maps, is_object_iso, make_object,
                                       obj_compose, obj_identity, obj_invert, obj_morphism,
                                       rotation_pair, validate_object_graph,
                                       verify_object_covering)
from commoncover.oracle import find_covering
from commoncover.star_system import STRATEGY_ALIGNED, build_star_system_retrying

from conftest import bfs_atoms, hom, isotropy, isotropy_lcm, object_graph, verify_groupoid


def _singleton_object():
    return make_object(["o"])


def _trivial_object_graph(g):
    obj = _singleton_object()
    darts = len(g.darts)
    return ObjectGraph(g, (obj,) * len(g.vertices), (obj,) * darts,
                       (obj_identity(obj),) * darts)


def test_validate_single_loop_identities_ok():
    x = _trivial_object_graph(families.rose(1))
    assert validate_object_graph(x).ok


def test_validate_mismatched_edge_objects():
    g = families.rose(1)
    a = make_object(["o"])
    b = make_object(["p"])
    x = object_graph(g, {"v00": a},
                     {"e00.a": a, "e00.b": b},
                     {"e00.a": obj_identity(a),
                      "e00.b": obj_morphism(b, a, {"p": "o"}, {})})
    report = validate_object_graph(x)
    assert not report.ok
    assert any("differ across the reversal" in v for v in report.violations)


def test_validate_non_preserving_edge_morphism():
    g = families.rose(1)
    obj = make_object(["o", "p"], vertex_labels=[("o", "A"), ("p", "B")])
    bad = obj_morphism(obj, obj, {"o": "p", "p": "o"}, {})
    x = object_graph(g, {"v00": obj}, {d: obj for d in g.darts},
                     {"e00.a": obj_identity(obj), "e00.b": bad})
    report = validate_object_graph(x)
    assert not report.ok
    assert any("not structure-preserving" in v for v in report.violations)


def _identity_system():
    """The identity seeds on C3 with trivial objects, closed."""
    x = _trivial_object_graph(families.cycle(3))
    g = x.graph
    seeds = [SeedSpec(v, v, {d: d for d in g.star(v)},
                      {d: obj_identity(_singleton_object()) for d in g.star(v)})
             for v in g.vertices]
    return close_star_maps(x, x, seeds)


def _trivial_star_systems():
    """The aligned star system of C3 and C4, and the trivial-object system
    closed from its seed arrows."""
    g1, g2 = families.cycle(3), families.cycle(4)
    star_sys = build_star_system_retrying(g1, g2, STRATEGY_ALIGNED)
    x1, x2 = _trivial_object_graph(g1), _trivial_object_graph(g2)
    obj = _singleton_object()
    seeds = []
    for arrow in star_sys.atom_arrows:
        dart_map = {e[2:]: f[2:] for e, f in arrow.bij}
        seeds.append(SeedSpec(g1.vertices[arrow.src], g2.vertices[arrow.dst - len(g1.vertices)],
                              dart_map,
                              {e: obj_identity(obj) for e in dart_map}))
    return star_sys, close_star_maps(x1, x2, seeds)


def test_identity_seeds_give_identity_groupoid():
    sys = _identity_system()
    # every atom is an identity-decorated pair
    for dart in range(len(sys.union.darts)):
        for atom in sys.atoms_by_anchor[dart]:
            assert sys.atom_morph(atom) == obj_identity(_singleton_object())
            assert abs(sys.atom_anchor(atom) - sys.atom_image(atom)) in (0, sys.m1)
    res = build_object_cover(sys)
    assert res.degrees == (1, 1)


def test_rotation_example_closure_and_isotropy():
    x1, x2, seeds = rotation_pair(3)
    sys = close_star_maps(x1, x2, seeds)
    for dart in range(len(sys.union.darts)):
        iso = isotropy(sys, dart)
        assert 3 % len(iso) == 0
        # isotropy really is a group: closed under composition
        serials = {m.serial for m in iso}
        for m in iso:
            for m2 in iso:
                assert obj_compose(m, m2).serial in serials
    assert isotropy_lcm(sys) == 3


def test_isotropy_cap_refuses_a_larger_group(monkeypatch):
    monkeypatch.setattr(object_graphs, "ISOTROPY_CAP", 2)
    with pytest.raises(AxiomError, match="isotropy group exceeds the configured cap"):
        close_star_maps(*rotation_pair(3))


def test_isotropy_cap_counts_the_isotropy_group():
    # the cap counts the atoms at a dart whose image is that dart
    systems = [close_star_maps(*rotation_pair(order)) for order in range(2, 7)]
    for sys in [*systems, _identity_system(), _trivial_star_systems()[1]]:
        for e in range(len(sys.union.darts)):
            assert list(sys.atoms_by_anchor[e].values()).count(e) == len(isotropy(sys, e))


def test_rotation_example_single_seed_insufficient():
    x1, x2, seeds = rotation_pair(3)
    with pytest.raises(AxiomError, match="insufficient seeds"):
        close_star_maps(x1, x2, seeds[:1])


def test_rotation_cover_circuits_divisible_by_order():
    for order in (2, 3):
        x1, x2, seeds = rotation_pair(order)
        sys = close_star_maps(x1, x2, seeds)
        res = build_object_cover(sys, component="all")
        comps = res.graph.components()
        for comp in comps:
            assert len(comp) % order == 0


def test_seed_rejected_without_compatible_vertex_map():
    g = families.rose(1)
    obj = make_object(["o", "p"])
    swap = obj_morphism(obj, obj, {"o": "p", "p": "o"}, {})
    ident = obj_identity(obj)
    x1 = object_graph(g, {"v00": obj}, {d: obj for d in g.darts},
                      {d: ident for d in g.darts})
    x2 = object_graph(g, {"v00": obj}, {d: obj for d in g.darts},
                      {"e00.a": ident, "e00.b": swap})
    seed = SeedSpec("v00", "v00", {"e00.a": "e00.a", "e00.b": "e00.b"},
                    {"e00.a": ident, "e00.b": ident})
    with pytest.raises(SeedError, match="no compatible vertex map"):
        close_star_maps(x1, x2, [seed])


def test_star_map_category_laws():
    x1, x2, seeds = rotation_pair(3)
    sys = close_star_maps(x1, x2, seeds)
    arrows = sys.groupoid.arrows
    assert not verify_groupoid(sys.groupoid)
    for a in arrows:
        inv = a.inverse()
        assert inv.compose(a) == sys.groupoid.identities[a.src]


def test_vertex_group_bounded_by_star_and_isotropy():
    x1, x2, seeds = rotation_pair(3)
    sys = close_star_maps(x1, x2, seeds)
    import math
    for x in range(len(sys.union.vertices)):
        group = len(hom(sys.groupoid, x, x))
        star = sys.stars[x]
        iso_product = 1
        for e in star:
            iso_product *= len(isotropy(sys, e))
        assert group <= math.factorial(len(star)) * iso_product


def test_counting_identity_and_orbit_law():
    x1, x2, seeds = rotation_pair(3)
    sys = close_star_maps(x1, x2, seeds)
    built = build_cover(sys, component="all")
    n = built.n_multiple
    out = {x: sys.out_count(x) for x in range(len(sys.union.vertices))}
    counts = {}
    for a in sys.cross_arrows():
        for e in sys.stars[a.src]:
            key = sys.atom_serial(sys.act_identity(a, e))
            counts[key] = counts.get(key, 0) + n // out[a.src]
    darts = range(len(sys.union.darts))
    for dart in darts:
        for atom in sys.atoms_by_anchor[dart]:
            if sys.atom_anchor(atom) < sys.m1 <= sys.atom_image(atom):
                assert counts[sys.atom_serial(atom)] == n // sys.orbit_size(dart)
    # orbit law: acting on the identity atom reaches the whole anchored set
    for dart in darts:
        assert bfs_atoms(sys, dart) == set(sys.atoms_by_anchor[dart])


def test_trivial_objects_match_star_backend_graph():
    star_sys, sys = _trivial_star_systems()
    obj_built = build_object_cover(sys)
    star_built = build_cover(star_sys)
    assert len(obj_built.graph.vertices) == len(star_built.graph.vertices)
    assert len(obj_built.graph.darts) == len(star_built.graph.darts)
    assert find_covering(obj_built.graph, star_built.graph) is not None


def test_verify_object_covering_detects_mutation():
    x1, x2, seeds = rotation_pair(3)
    sys = close_star_maps(x1, x2, seeds)
    _, mu2 = build_object_cover(sys).extra["objects"]
    ok, failure = verify_object_covering(mu2)
    assert ok and failure is None
    dart = 0
    partner = mu2.source.graph.rev[dart]
    image = mu2.graph.dm[dart]
    candidates = [m for m in all_object_isos(mu2.source.edge_objects[dart],
                                             x2.edge_objects[image])
                  if m != mu2.edge_morphisms[dart]]
    mutated = list(mu2.edge_morphisms)
    mutated[dart] = candidates[0]
    mutated[partner] = candidates[0]
    bad = ObjectGraphMorphism(mu2.source, x2, mu2.graph,
                              mu2.vertex_morphisms, tuple(mutated))
    ok, failure = verify_object_covering(bad)
    assert not ok


def test_identity_morphism_verifies():
    x = _trivial_object_graph(families.cycle(3))
    from commoncover.graphs import identity_morphism
    ident = ObjectGraphMorphism(
        x, x, identity_morphism(x.graph),
        tuple(map(obj_identity, x.vertex_objects)),
        tuple(map(obj_identity, x.edge_objects)))
    ok, failure = verify_object_covering(ident)
    assert ok and failure is None


def test_the_object_layer_holds_no_dict(tmp_path):
    from commoncover.cli import dump_object_graph, load_object_graph, write_json

    x1, x2, seeds = rotation_pair(3)
    path = str(tmp_path / "x2.json")
    write_json(path, dump_object_graph(x2))
    loaded = load_object_graph(path)
    cover = build_object_cover(close_star_maps(x1, loaded, seeds))
    mu1, mu2 = cover.extra["objects"]
    records = [loaded, mu1.source, mu1, mu2]
    objects = [*loaded.vertex_objects, *loaded.edge_objects, *mu1.source.edge_objects]
    maps = [*loaded.edge_morphisms, *mu2.vertex_morphisms, *mu2.edge_morphisms,
            *[m for s in seeds for m in (*s.edge_maps.values(), s.vertex_map)]]
    kept = [*(value for r in records for value in vars(r).values()),
            *(value for item in objects + maps for value in item)]
    assert not any(isinstance(value, dict) for value in kept)
    # columns by index: an object, a map and a decoration per element
    assert len(mu1.source.vertex_objects) == len(mu2.vertex_morphisms) == len(cover.graph.vertices)
    assert len(mu1.source.edge_morphisms) == len(mu2.edge_morphisms) == len(cover.graph.darts)
    assert all(isinstance(c, tuple) for m in maps for c in (m.vm, m.em))
    # the id views are rendered on use, in the order of the sorted ids
    m = mu2.edge_morphisms[0]
    assert m.vmap == tuple(zip(m.source.vertices, map(m.target.vertices.__getitem__, m.vm)))
    assert m.serial == (m.vmap, m.emap) and m.vmap is not m.vmap


def test_compose_and_invert_on_columns():
    obj = make_object(["a", "b", "c"], [("x", "a", "b", None), ("y", "b", "c", None),
                                        ("z", "c", "a", None)])
    turn = obj_morphism(obj, obj, {"a": "b", "b": "c", "c": "a"}, {"x": "y", "y": "z", "z": "x"})
    back = obj_invert(turn)
    assert (back.vm, back.em) == ((2, 0, 1), (2, 0, 1))
    assert obj_compose(back, turn) == obj_compose(turn, back) == obj_identity(obj)
    assert obj_compose(turn, turn) == obj_invert(turn)
    # an image that is no id of the target is -1, rendered as None
    partial = obj_morphism(obj, obj, {"a": "a", "b": "q"}, {})
    assert (partial.vm, partial.em) == ((0, -1, -1), (-1, -1, -1))
    assert partial.vmap == (("a", "a"), ("b", None), ("c", None))
    assert not is_object_iso(obj, obj, partial)
    # composing keeps -1 at the length of the source, on one element too
    assert obj_compose(turn, partial).vm == (1, -1, -1)
    assert obj_compose(partial, turn).vm == (-1, -1, 0)
    one = make_object(["a"], [("x", "a", "a", None)])
    lone = obj_morphism(one, one, {"a": "q"}, {})
    assert (lone.vmap, lone.emap) == ((("a", None),), (("x", None),))
    assert obj_compose(obj_identity(one), lone) == obj_compose(lone, lone) == lone


def test_isomorphisms_of_an_object_with_labelled_and_unlabelled_edges():
    # two loops at one vertex, one labelled: edge classes of mixed labels
    obj = make_object(["v"], [("a", "v", "v", None), ("b", "v", "v", "red")])
    assert all_object_isos(obj, obj) == [obj_identity(obj)]


@pytest.mark.parametrize("vertices, edges, message", [
    (["a", "a"], [], "duplicate vertex id 'a'"),
    (["a"], [("x", "a", "a", None), ("x", "a", "a", None)], "duplicate edge id 'x'"),
    (["a"], [("x", "a", "b", None)], "edge 'x': an end is not a vertex of the object"),
])
def test_an_object_refuses_what_its_columns_cannot_hold(vertices, edges, message):
    with pytest.raises(GraphError, match=message):
        make_object(vertices, edges)
