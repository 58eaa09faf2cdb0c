import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commoncover import families
from commoncover.cover_builder import Labels
from commoncover.graphs import (Graph, GraphError, GraphMorphism,
                                VerificationError, compose_morphisms,
                                fiber_product, finish_cover, identity_morphism,
                                is_covering, pullback, validate_graph)
from commoncover.oracle import find_covering
from commoncover.regular import factorize_regular

from conftest import (fiber_pairs, is_valid_morphism, random_cubic_graph, reference_is_covering,
                      reference_pullback, reference_validate_graph, reference_violations)
from test_golden_artifacts import _relabelled


def test_validate_well_formed_fixtures():
    for g in (families.cycle(3), families.complete(4), families.rose(2),
              families.theta(3), families.path(3), families.complete_bipartite(3, 3)):
        assert validate_graph(g).ok


def test_validate_fixed_point_of_reversal():
    g = Graph(["v"], ["e"], {"e": "v"}, {"e": "e"})
    report = validate_graph(g)
    assert not report.ok
    assert any("fixed point" in v for v in report.violations)


def test_validate_non_involutive_reversal():
    g = Graph(["v"], ["a", "b", "c"],
              {"a": "v", "b": "v", "c": "v"},
              {"a": "b", "b": "c", "c": "a"})
    report = validate_graph(g)
    assert not report.ok
    assert any("not involutive" in v for v in report.violations)


def test_a_graph_keeps_no_dict_it_was_given():
    origin, reverse = {"a": "v", "b": "w"}, {"a": "b", "b": "a"}
    vertex_colour, dart_colour = {"w": "red"}, {"a": "blue", "b": "blue"}
    g = Graph(["v", "w"], ["a", "b"], origin, reverse, vertex_colour, dart_colour)
    vmap, dmap = {"v": "v00", "w": "v00"}, {"a": "e00.a", "b": "e00.b"}
    m = GraphMorphism(g, families.rose(1), vmap, dmap)
    kept = [getattr(x, name) for x in (g, m) for name in type(x).__slots__]
    assert not any(isinstance(value, dict) for value in kept)
    origin["a"], reverse["a"], vmap["v"], dmap["a"] = "w", "a", "x", "e00.b"
    vertex_colour["v"], dart_colour["a"] = "green", "green"
    assert (g.org, g.rev, m.vm, m.dm) == ([0, 1], [1, 0], [0, 0], [0, 1])
    # colours are columns by index, None where an element has none
    assert (g.vcol, g.dcol) == ([None, "red"], ["blue", "blue"])
    # the views are rendered from the tables on each use
    assert g.origin == {"a": "v", "b": "w"} and g.origin is not g.origin
    assert g.vertex_colour == {"w": "red"} and g.vertex_colour is not g.vertex_colour
    assert g.dart_colour == {"a": "blue", "b": "blue"} and g.dart_colour is not g.dart_colour
    assert m.dmap == {"a": "e00.a", "b": "e00.b"} and m.vmap is not m.vmap
    # single-id queries read the tables
    assert (g.star("v"), g.degree("w"), g.head("a")) == (("a",), 1, "w")
    with pytest.raises(GraphError, match="vertex not in graph"):
        g.star("x")


def _broken_graphs():
    """Graphs that break each dart-model invariant, one at a time and
    several at once on several darts."""
    return [
        Graph(["v"], ["a", "b"], {"a": "v"}, {"a": "b", "b": "a"}),
        Graph(["v"], ["a", "b"], {"a": "v", "b": "w"}, {"a": "b", "b": "a"}),
        Graph(["v"], ["a", "b"], {"a": "v", "b": "v"}, {"a": "b"}),
        Graph(["v"], ["a", "b"], {"a": "v", "b": "v"}, {"a": "b", "b": "x"}),
        Graph(["v"], ["e"], {"e": "v"}, {"e": "e"}),
        Graph(["v"], ["a", "b", "c"], {"a": "v", "b": "v", "c": "v"},
              {"a": "b", "b": "c", "c": "a"}),
        Graph(["u", "v"], ["a", "b", "c", "d", "e", "f", "g"],
              {"a": "u", "b": "w", "c": 5, "e": "v", "f": "v", "g": "u"},
              {"a": "a", "b": "c", "c": "d", "d": "b", "e": "zz", "g": "f"}),
    ]


def test_validate_graph_agrees_with_the_reference():
    for g in _broken_graphs() + [families.cycle(3), families.rose(2),
                                 families.complete_bipartite(3, 3)]:
        report, expected = validate_graph(g), reference_validate_graph(g)
        assert (report.ok, report.violations) == (expected.ok, expected.violations)
    kinds = {message.split(" ")[0] + " " + message.split(" ")[1]
             for g in _broken_graphs() for message in validate_graph(g).violations}
    assert kinds == {"missing origin", "origin of", "missing reversal", "reversal of",
                     "fixed point", "reversal not"}


def test_star_sizes():
    k4 = families.complete(4)
    assert all(len(k4.star(v)) == 3 for v in k4.vertices)
    r2 = families.rose(2)
    assert len(r2.star("v00")) == 4
    p3 = families.path(3)
    assert len(p3.star("v01")) == 2


def test_star_unknown_vertex():
    with pytest.raises(GraphError, match="vertex not in graph"):
        families.cycle(3).star("nope")


def test_star_sizes_sum_to_dart_count():
    for g in (families.cycle(5), families.complete(4), families.rose(3),
              families.complete_bipartite(2, 3)):
        assert sum(len(g.star(v)) for v in g.vertices) == len(g.darts)


def _wrap_cycle(n: int, k: int) -> GraphMorphism:
    big, small = families.cycle(n), families.cycle(k)
    vmap = {"v%02d" % i: "v%02d" % (i % k) for i in range(n)}
    dmap = {}
    for i in range(n):
        dmap["e%02d.a" % i] = "e%02d.a" % (i % k)
        dmap["e%02d.b" % i] = "e%02d.b" % (i % k)
    return GraphMorphism(big, small, vmap, dmap)


def test_wrap_covering_c12_over_c3():
    assert is_covering(_wrap_cycle(12, 3)).ok


def test_identity_is_covering():
    assert is_covering(identity_morphism(families.complete(4))).ok


def test_collapse_path_onto_loop_fails_star_injectivity():
    p3, r1 = families.path(3), families.rose(1)
    # middle-vertex star collapses: both darts at v01 hit the same loop side
    m = GraphMorphism(p3, r1,
                      {v: "v00" for v in p3.vertices},
                      {"e00.a": "e00.a", "e00.b": "e00.b",
                       "e01.a": "e00.b", "e01.b": "e00.a"})
    assert is_valid_morphism(m)
    report = is_covering(m)
    assert not report.ok
    images = [m.dmap[d] for d in p3.star("v01")]
    assert len(set(images)) < len(images)


def test_not_a_graph_morphism_raises():
    p3, r1 = families.path(3), families.rose(1)
    bad = GraphMorphism(p3, r1, {v: "v00" for v in p3.vertices},
                        {d: "e00.a" for d in p3.darts})
    with pytest.raises(GraphError, match="not a graph morphism"):
        is_covering(bad)


def test_finish_cover_rejects_a_morphism_that_is_not_a_covering():
    p2, c3 = families.path(2), families.cycle(3)
    # a valid morphism onto one edge of C3: the third vertex is not covered
    m = GraphMorphism(p2, c3, {"v00": "v00", "v01": "v01"},
                      {"e00.a": "e00.a", "e00.b": "e00.b"})
    assert is_valid_morphism(m)
    with pytest.raises(VerificationError, match="mu1 is not a covering"):
        finish_cover(m, m)


def test_finish_cover_rejects_a_map_that_is_not_a_morphism():
    c3 = families.cycle(3)
    good = identity_morphism(c3)
    bad = GraphMorphism(c3, c3, dict(good.vmap),
                        {**good.dmap, "e00.a": "e01.a"})
    with pytest.raises(VerificationError, match="mu2: not a graph morphism"):
        finish_cover(good, bad)


def _cycle_cover_of_rose(n: int) -> GraphMorphism:
    cn, r1 = families.cycle(n), families.rose(1)
    dmap = {}
    for i in range(n):
        dmap["e%02d.a" % i] = "e00.a"
        dmap["e%02d.b" % i] = "e00.b"
    return GraphMorphism(cn, r1, {v: "v00" for v in cn.vertices}, dmap)


def test_fiber_product_c3_c4_is_c12():
    fp = fiber_product(_cycle_cover_of_rose(3), _cycle_cover_of_rose(4))
    g = fp.graph
    assert len(g.vertices) == 12
    assert g.is_connected()
    assert all(g.degree(v) == 2 for v in g.vertices)
    # a connected 2-regular graph on 12 vertices is the 12-cycle
    assert find_covering(g, families.cycle(12)) is not None
    assert is_covering(fp.proj1).ok and is_covering(fp.proj2).ok


def test_fiber_product_identity_diagonal():
    q = families.complete(4)
    fp = fiber_product(identity_morphism(q), identity_morphism(q))
    diag = [v for v, pair in fiber_pairs(fp)[0].items() if pair[0] == pair[1]]
    comps = fp.graph.components()
    assert sorted(len(c) for c in comps)[0] == len(q.vertices)
    assert any(set(diag) == set(c) for c in comps)


def test_fiber_product_self_cover_components():
    m = _cycle_cover_of_rose(3)
    fp = fiber_product(m, m)
    comps = fp.graph.components()
    assert [len(c) for c in comps] == [3, 3, 3]
    for comp in comps:
        sub = fp.graph.restrict(comp)
        assert all(sub.degree(v) == 2 for v in sub.vertices)


def test_fiber_product_projections_commute():
    m1, m2 = _cycle_cover_of_rose(3), _cycle_cover_of_rose(4)
    fp = fiber_product(m1, m2)
    left = compose_morphisms(m1, fp.proj1)
    right = compose_morphisms(m2, fp.proj2)
    assert left.dmap == right.dmap and left.vmap == right.vmap


def test_fiber_product_requires_coverings():
    p3, r1 = families.path(3), families.rose(1)
    not_cover = GraphMorphism(p3, r1, {v: "v00" for v in p3.vertices},
                              {"e00.a": "e00.a", "e00.b": "e00.b",
                               "e01.a": "e00.a", "e01.b": "e00.b"})
    with pytest.raises(GraphError, match="requires coverings"):
        fiber_product(not_cover, _cycle_cover_of_rose(3))


# connected regular graphs of ``families``, by degree
_REGULAR = {2: [*(partial(families.cycle, n) for n in range(1, 7)),
                partial(families.rose, 1), partial(families.theta, 2)],
            3: [partial(families.complete, 4), partial(families.theta, 3),
                partial(families.complete_bipartite, 3, 3)],
            4: [partial(families.complete, 5), partial(families.complete_bipartite, 4, 4),
                partial(families.rose, 2), partial(families.theta, 4)]}


def _prefix_ids(rng, n: int) -> list:
    """n distinct ids, each an earlier one or the empty string followed by
    one character of an alphabet that holds the pair ids' own punctuation:
    many are proper prefixes of others, and some pairs of them render one
    pair id."""
    ids = []
    while len(ids) < n:
        new = rng.choice(ids + [""]) + rng.choice("a|()#")
        if new not in ids:
            ids.append(new)
    return ids


def _relabelled_at_random(rng, g):
    """g with ids from ``_prefix_ids`` and random colours on about half of
    its vertices and darts."""
    ids = _prefix_ids(rng, len(g.vertices)), _prefix_ids(rng, len(g.darts))
    return _relabelled(g, *ids, *({x: rng.choice("rg") for x in kind if rng.random() < 0.5}
                                  for kind in ids))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_pullback_equals_the_reference_on_relabelled_regular_pairs(seed):
    rng = random.Random(seed)
    k = rng.choice(sorted(_REGULAR))

    def one():
        if k == 3 and rng.random() < 0.5:
            return random_cubic_graph(rng, rng.choice((4, 6, 8)))
        return rng.choice(_REGULAR[k])()

    m1, m2 = (factorize_regular(_relabelled_at_random(rng, one())).covering for _ in range(2))
    try:
        want = reference_pullback(m1, m2)
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            pullback(m1, m2)
        assert str(got.value) == str(exc)
        return
    fp = pullback(m1, m2)
    assert fp.graph.canonical() == want.graph.canonical()
    for got, expected in ((fp.proj1, want.proj1), (fp.proj2, want.proj2)):
        assert (got.vm, got.dm) == (expected.vm, expected.dm)


def test_restrict_rejects_broken_components():
    c4 = families.cycle(4)
    with pytest.raises(GraphError):
        c4.restrict(["v00", "v01"])


def test_diameter_and_components():
    assert families.cycle(6).diameter() == 3
    assert families.path(4).diameter() == 3
    two = Graph(["a", "b"], [], {}, {})
    assert len(two.components()) == 2
    with pytest.raises(GraphError):
        two.diameter()


def _coloured(g: Graph, vertex_colour, dart_colour) -> Graph:
    return Graph(g.vertices, g.darts, g.origin, g.reverse, vertex_colour, dart_colour)


def _morphism_fixtures():
    """The morphisms of this file, coverings or not, plus coloured and
    uncoloured sources and targets."""
    p2, p3, r1 = families.path(2), families.path(3), families.rose(1)
    c3, theta2, theta3 = families.cycle(3), families.theta(2), families.theta(3)
    collapse = GraphMorphism(p3, r1, {v: "v00" for v in p3.vertices},
                             {"e00.a": "e00.a", "e00.b": "e00.b",
                              "e01.a": "e00.b", "e01.b": "e00.a"})
    not_cover = GraphMorphism(p3, r1, {v: "v00" for v in p3.vertices},
                              {"e00.a": "e00.a", "e00.b": "e00.b",
                               "e01.a": "e00.a", "e01.b": "e00.b"})
    wrap = _wrap_cycle(12, 3)
    paint12 = _coloured(wrap.source, {v: "red" for v in wrap.source.vertices},
                        {d: d[-1] for d in wrap.source.darts})
    paint3 = _coloured(c3, {"v00": "red", "v01": "red", "v02": "blue"},
                       {d: "a" for d in c3.darts})
    fp = fiber_product(_cycle_cover_of_rose(3), _cycle_cover_of_rose(4))
    # fails every check, on several darts: a vertex and darts without an
    # image, origins, reversals and dart and vertex colours not preserved
    c4 = families.cycle(4)
    red4 = _coloured(c4, {v: "red" for v in c4.vertices}, {d: "a" for d in c4.darts})
    mixed3 = _coloured(c3, {"v00": "red", "v01": "blue", "v02": "red"},
                       {**{d: "a" for d in c3.darts}, "e01.b": "b"})
    broken = GraphMorphism(red4, mixed3, {"v00": "v00", "v01": "v01", "v02": "v02", "v03": "v09"},
                           {"e00.a": "e00.a", "e00.b": "nope", "e01.a": "e00.a",
                            "e01.b": "e01.b", "e02.a": "e02.a", "e02.b": "e01.b"})
    return [
        wrap, identity_morphism(families.complete(4)), collapse, not_cover, broken,
        GraphMorphism(p3, r1, {v: "v00" for v in p3.vertices},
                      {d: "e00.a" for d in p3.darts}),
        GraphMorphism(p2, c3, {"v00": "v00", "v01": "v01"},
                      {"e00.a": "e00.a", "e00.b": "e00.b"}),
        GraphMorphism(c3, c3, {v: v for v in c3.vertices},
                      {**{d: d for d in c3.darts}, "e00.a": "e01.a"}),
        GraphMorphism(c3, c3, {"v00": "v09"}, {"e00.a": "nope"}),
        GraphMorphism(theta2, theta3, {v: v for v in theta2.vertices},
                      {d: d for d in theta2.darts}),
        _cycle_cover_of_rose(5), fp.proj1, fp.proj2,
        # coloured onto uncoloured, uncoloured onto coloured, both coloured
        GraphMorphism(paint12, c3, wrap.vmap, wrap.dmap),
        GraphMorphism(wrap.source, paint3, wrap.vmap, wrap.dmap),
        GraphMorphism(paint12, paint3, wrap.vmap, wrap.dmap),
    ]


def test_covering_checks_agree_with_the_reference():
    for m in _morphism_fixtures():
        assert m.violations() == reference_violations(m)
        if m.violations():
            with pytest.raises(GraphError) as got:
                is_covering(m)
            with pytest.raises(GraphError) as want:
                reference_is_covering(m)
            assert str(got.value) == str(want.value)
            continue
        report = is_covering(m)
        expected = reference_is_covering(m)
        assert report.ok == (expected is None)
        if expected is not None:
            assert (report.reason, report.witness) == expected


def test_covering_check_fixtures_reach_every_verdict():
    reasons = set()
    for m in _morphism_fixtures():
        if m.violations():
            reasons.add("not a morphism")
        else:
            reasons.add(is_covering(m).reason)
    assert reasons == {None, "not a morphism", "vertex not covered",
                       "dart not covered", "star map not bijective"}


def _labelled(fp):
    """Provenance tables over the fiber pairs, each pair its own source:
    vertex -> (pair, 0) and dart -> (pair, 1)."""
    def table(pairs, copy):
        return Labels(list(pairs), range(len(pairs)), [copy] * len(pairs),
                      list(pairs.values()), lambda pair: pair, None)
    vertex_pairs, dart_pairs = fiber_pairs(fp)
    return dict(vertex_label=table(vertex_pairs, 0), dart_label=table(dart_pairs, 1))


def test_finish_cover_keeps_a_one_component_cover_as_it_is():
    fp = fiber_product(_cycle_cover_of_rose(3), _cycle_cover_of_rose(4))
    g = fp.graph
    assert len(g.components()) == 1
    labels = _labelled(fp)
    for kwargs in ({}, {"seed": g.vertices[5]}, {"component": "all"}):
        cover = finish_cover(fp.proj1, fp.proj2, **kwargs, **labels)
        assert cover.graph == g.restrict(g.vertices) == g
        assert cover.mu1 is fp.proj1 and cover.mu2 is fp.proj2
        assert (cover.vertex_label, cover.dart_label) == (labels["vertex_label"],
                                                          labels["dart_label"])
        assert cover.component_sizes == (12,)
    with pytest.raises(StopIteration):
        finish_cover(fp.proj1, fp.proj2, seed="not a vertex")


def test_finish_cover_cuts_a_cover_of_several_components():
    m = _cycle_cover_of_rose(3)
    fp = fiber_product(m, m)
    comps = fp.graph.components()
    labels = _labelled(fp)
    for seed, chosen in ((None, comps[0]), (comps[1][0], comps[1])):
        cover = finish_cover(fp.proj1, fp.proj2, seed=seed, **labels)
        assert cover.graph == fp.graph.restrict(chosen)
        assert cover.mu1.vmap == {v: fp.proj1.vmap[v] for v in chosen}
        assert set(cover.mu2.dmap) == set(cover.graph.darts)
        assert set(cover.vertex_label) == set(chosen)
        assert set(cover.dart_label) == set(cover.graph.darts)
        assert cover.vertex_label == {v: labels["vertex_label"][v] for v in chosen}
        assert cover.dart_label == {d: labels["dart_label"][d] for d in cover.graph.darts}
        assert cover.component_sizes == (3, 3, 3)
        assert is_covering(cover.mu1).ok and is_covering(cover.mu2).ok
    with pytest.raises(StopIteration):
        finish_cover(fp.proj1, fp.proj2, seed="not a vertex")
