import pytest

from commoncover import families, object_graphs
from commoncover.cover_builder import AxiomError, build_cover
from commoncover.object_graphs import (ObjectGraph, SeedSpec, SeedError,
                                       all_object_isos, build_object_cover,
                                       close_star_maps, make_object,
                                       obj_compose, obj_identity, obj_morphism,
                                       rotation_pair, validate_object_graph,
                                       verify_object_covering)
from commoncover.oracle import find_covering
from commoncover.star_system import STRATEGY_ALIGNED, build_star_system_retrying

from conftest import bfs_atoms, hom, verify_groupoid


def _singleton_object():
    return make_object(["o"])


def _trivial_object_graph(g):
    obj = _singleton_object()
    ident = obj_identity(obj)
    return ObjectGraph(g, {v: obj for v in g.vertices},
                       {d: obj for d in g.darts},
                       {d: ident for d in g.darts})


def test_validate_single_loop_identities_ok():
    x = _trivial_object_graph(families.rose(1))
    assert validate_object_graph(x).ok


def test_validate_mismatched_edge_objects():
    g = families.rose(1)
    a = make_object(["o"])
    b = make_object(["p"])
    x = ObjectGraph(g, {"v00": a},
                    {"e00.a": a, "e00.b": b},
                    {"e00.a": obj_identity(a),
                     "e00.b": obj_morphism({"p": "o"}, {})})
    report = validate_object_graph(x)
    assert not report.ok
    assert any("differ across the reversal" in v for v in report.violations)


def test_validate_non_preserving_edge_morphism():
    g = families.rose(1)
    obj = make_object(["o", "p"], vertex_labels=[("o", "A"), ("p", "B")])
    bad = obj_morphism({"o": "p", "p": "o"}, {})
    x = ObjectGraph(g, {"v00": obj}, {d: obj for d in g.darts},
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
        iso = sys.isotropy(dart)
        assert 3 % len(iso) == 0
        # isotropy really is a group: closed under composition
        serials = {m.serial for m in iso}
        for m in iso:
            for m2 in iso:
                assert obj_compose(m, m2).serial in serials
    assert sys.isotropy_lcm() == 3


def test_isotropy_cap_refuses_a_larger_group(monkeypatch):
    monkeypatch.setattr(object_graphs, "ISOTROPY_CAP", 2)
    with pytest.raises(AxiomError, match="isotropy group exceeds the configured cap"):
        close_star_maps(*rotation_pair(3))


def test_isotropy_cap_counts_the_isotropy_group():
    # the cap counts the atoms at a dart whose image is that dart
    systems = [close_star_maps(*rotation_pair(order)) for order in range(2, 7)]
    for sys in [*systems, _identity_system(), _trivial_star_systems()[1]]:
        for e in range(len(sys.union.darts)):
            assert list(sys.atoms_by_anchor[e].values()).count(e) == len(sys.isotropy(e))


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
    swap = obj_morphism({"o": "p", "p": "o"}, {})
    ident = obj_identity(obj)
    x1 = ObjectGraph(g, {"v00": obj}, {d: obj for d in g.darts},
                     {d: ident for d in g.darts})
    x2 = ObjectGraph(g, {"v00": obj}, {d: obj for d in g.darts},
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
            iso_product *= len(sys.isotropy(e))
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
    dart = mu2.source.graph.darts[0]
    partner = mu2.source.graph.reverse[dart]
    image = mu2.graph.dmap[dart]
    candidates = [m for m in all_object_isos(mu2.source.edge_objects[dart],
                                             x2.edge_objects[image])
                  if m != mu2.edge_morphisms[dart]]
    mutated = dict(mu2.edge_morphisms)
    mutated[dart] = candidates[0]
    mutated[partner] = candidates[0]
    from commoncover.object_graphs import ObjectGraphMorphism
    bad = ObjectGraphMorphism(mu2.source, x2, mu2.graph,
                              mu2.vertex_morphisms, mutated)
    ok, failure = verify_object_covering(bad)
    assert not ok


def test_identity_morphism_verifies():
    x = _trivial_object_graph(families.cycle(3))
    from commoncover.graphs import identity_morphism
    from commoncover.object_graphs import ObjectGraphMorphism
    ident = ObjectGraphMorphism(
        x, x, identity_morphism(x.graph),
        {v: obj_identity(x.vertex_objects[v]) for v in x.graph.vertices},
        {d: obj_identity(x.edge_objects[d]) for d in x.graph.darts})
    ok, failure = verify_object_covering(ident)
    assert ok and failure is None
