import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commoncover import families
from commoncover.graphs import GraphError
from commoncover.refinement import joint_refinement
from commoncover.universal_cover import (AlignmentBudgetError, UniversalCover,
                                         build_alignment)

from conftest import deck_transport, map_is_ball_isomorphism, map_vertices, reduce_path


def test_ball_of_cycle_is_line_segment():
    cov = UniversalCover(families.cycle(3))
    ball = cov.ball((), 2)
    assert len(ball.vertices) == 5
    degrees = sorted(sum(1 for _ in cov.star_darts(z) if _[1] in ball.dist)
                     for z in ball.vertices)
    assert degrees == [1, 1, 2, 2, 2]


def test_ball_of_k4_radius_one():
    cov = UniversalCover(families.complete(4))
    ball = cov.ball((), 1)
    assert len(ball.vertices) == 4
    assert sorted(ball.dist.values()) == [0, 1, 1, 1]


def test_ball_radius_zero():
    for g in (families.cycle(3), families.rose(2)):
        cov = UniversalCover(g)
        assert cov.ball((), 0).vertices == ((),)


def test_ball_rejects_non_reduced_path():
    g = families.cycle(3)
    cov = UniversalCover(g)
    d = g.stars()[cov.basepoint][0]
    with pytest.raises(GraphError, match="non-reduced"):
        cov.ball((d, g.rev[d]), 1)


def test_canonical_lift_basepoint_empty():
    cov = UniversalCover(families.complete(4))
    assert cov.canonical_lift(cov.basepoint) == ()


def test_canonical_lift_path_endpoint():
    p3 = families.path(3)
    v00, v02 = p3.index()[0]["v00"], p3.index()[0]["v02"]
    cov = UniversalCover(p3, v00)
    lift = cov.canonical_lift(v02)
    assert len(lift) == 2
    assert cov.project(lift) == v02


def test_canonical_lift_follows_breadth_first_tree():
    c3 = families.cycle(3)
    cov = UniversalCover(c3, c3.index()[0]["v00"])
    # both non-base vertices are discovered at depth one from v00
    for v in map(c3.index()[0].__getitem__, ("v01", "v02")):
        lift = cov.canonical_lift(v)
        assert len(lift) == 1
        assert cov.project(lift) == v


def test_canonical_lift_of_long_cycle_without_recursion():
    # lifting in sorted order walks up ever longer uncached tree paths
    g = families.cycle(5000)
    cov = UniversalCover(g, g.index()[0]["v00"])
    for v in range(len(g.vertices)):
        lift = cov.canonical_lift(v)
        assert cov.project(lift) == v
    assert max(len(cov.canonical_lift(v)) for v in range(len(g.vertices))) == 2500


def test_deck_transport_identity_and_cancellation():
    cov = UniversalCover(families.rose(1))
    z = cov.canonical_lift(cov.basepoint)
    assert deck_transport(cov, (), z) == z
    assert len(cov.generators) == 1
    moved = deck_transport(cov, ((0, 1),), ())
    assert len(moved) == 1
    assert deck_transport(cov, ((0, 1), (0, -1)), ()) == ()


def test_deck_transport_generator_out_of_range():
    cov = UniversalCover(families.rose(1))
    with pytest.raises(GraphError, match="out of range"):
        deck_transport(cov, ((5, 1),), ())


def _random_reduced_word(cov, rng, length):
    word = []
    for _ in range(length):
        i = rng.randrange(len(cov.generators))
        e = rng.choice((1, -1))
        if word and word[-1] == (i, -e):
            e = -e
        word.append((i, e))
    return tuple(word)


def test_deck_action_is_free():
    rng = random.Random(7)
    for g in (families.rose(2), families.theta(3), families.complete(4)):
        cov = UniversalCover(g)
        for _ in range(25):
            word = _random_reduced_word(cov, rng, rng.randint(1, 6))
            if not cov.word_to_loop(word):
                continue        # the word reduced to the identity
            for z in cov.ball((), 2).vertices:
                assert deck_transport(cov, word, z) != z


def test_loop_word_roundtrip():
    rng = random.Random(11)
    cov = UniversalCover(families.rose(2))
    for _ in range(30):
        word = _random_reduced_word(cov, rng, rng.randint(1, 5))
        loop = cov.word_to_loop(word)
        assert cov.word_to_loop(cov.loop_to_word(loop)) == loop


def test_reduced_paths_are_unique_geodesics():
    g = families.complete(4)
    cov = UniversalCover(g)
    ball = cov.ball((), 2)
    for p in ball.vertices:
        for q in ball.vertices:
            between = reduce_path(g, cov.invert(p) + q)
            assert (between == ()) == (p == q)
            assert len(between) <= 4


def test_projection_is_covering_on_balls():
    for g in (families.cycle(4), families.complete(4), families.rose(2)):
        cov = UniversalCover(g)
        ball = cov.ball((), 2)
        for z in ball.vertices:
            if ball.dist[z] >= 2:
                continue
            projected = [g.darts[d] for d, _ in cov.star_darts(z)]
            assert sorted(projected) == list(g.star(g.vertices[cov.project(z)]))


def test_alignment_identity_for_equal_graphs():
    g = families.cycle(3)
    joint = joint_refinement(g, g)
    theta = build_alignment(UniversalCover(g), UniversalCover(g), joint, radius=3)
    for z in UniversalCover(g).ball((), 3).vertices:
        assert theta.apply(z) == z


def test_alignment_between_cycles_preserves_blocks():
    g1, g2 = families.cycle(3), families.cycle(4)
    joint = joint_refinement(g1, g2)
    c1, c2 = UniversalCover(g1), UniversalCover(g2)
    theta = build_alignment(c1, c2, joint, radius=4)
    block = joint.partition.block_of
    for z in c1.ball((), 4).vertices:
        w = theta.apply(z)
        assert (block["1:" + g1.vertices[c1.project(z)]]
                == block["2:" + g2.vertices[c2.project(w)]])
        assert theta.apply_inverse(w) == z


def test_alignment_is_ball_isomorphism():
    g1, g2 = families.complete(4), families.theta(3)
    joint = joint_refinement(g1, g2)
    c1, c2 = UniversalCover(g1), UniversalCover(g2)
    theta = build_alignment(c1, c2, joint, radius=2)
    b1 = c1.ball((), 2)
    b2 = c2.ball((), 2)
    mapping = map_vertices(theta, b1.vertices)
    assert map_is_ball_isomorphism(b1, b2, mapping)


def test_alignment_blocks_mismatch_rejected():
    g1, g2 = families.cycle(3), families.complete(4)
    joint = joint_refinement(g1, g2)
    with pytest.raises(GraphError, match="no common universal cover"):
        build_alignment(UniversalCover(g1), UniversalCover(g2), joint)


def test_alignment_radius_cap():
    g = families.cycle(3)
    joint = joint_refinement(g, g)
    theta = build_alignment(UniversalCover(g), UniversalCover(g), joint,
                            max_radius=2)
    with pytest.raises(AlignmentBudgetError):
        theta.ensure_radius(5)


# -- the seam rule and the index paths ------------------------------------

SEAM_GRAPHS = {"C3": families.cycle(3), "rose2": families.rose(2),
               "K4": families.complete(4), "Theta3": families.theta(3)}


def _reduced_walk(g, picks, start):
    """A reduced path of dart indices from vertex ``start``, read from the
    graph's tables: each step takes a dart other than the way back."""
    stars, path, at = g.stars(), (), start
    for pick in picks:
        options = [d for d in stars[at] if not path or d != g.rev[path[-1]]]
        d = options[pick % len(options)]
        path += (d,)
        at = g.org[g.rev[d]]
    return path


def _loop(cov, g, picks):
    """A reduced basepoint loop: a walk closed through the canonical lift of
    its end, reduced by the reference."""
    walk = _reduced_walk(g, picks, cov.basepoint)
    end = g.org[g.rev[walk[-1]]] if walk else cov.basepoint
    return reduce_path(g, walk + cov.invert(cov.canonical_lift(end)))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(st.sampled_from(sorted(SEAM_GRAPHS)), st.lists(st.integers(0, 99), max_size=9),
       st.lists(st.integers(0, 99), max_size=9), st.lists(st.integers(0, 99), max_size=9))
def test_seam_rule_equals_free_reduction(name, a, b, c):
    g = SEAM_GRAPHS[name]
    cov = UniversalCover(g)
    loop, path = _loop(cov, g, a), _reduced_walk(g, b, cov.basepoint)
    assert cov.transport(loop, path) == reduce_path(g, loop + path)
    # deck_loop carries src to dst for any two paths over one base vertex
    end = cov.project(path)
    src = reduce_path(g, _loop(cov, g, c) + cov.canonical_lift(end))
    deck = cov.deck_loop(src, path)
    cov.check_path(deck)
    assert cov.project(deck) == cov.basepoint
    assert cov.transport(deck, src) == path
    assert cov.word_to_loop(cov.loop_to_word(loop)) == loop


@pytest.mark.parametrize("g1, g2", [(families.theta(3), families.complete(4)),
                                    (families.theta(3), families.complete_bipartite(3, 3))],
                         ids=["Theta3-K4", "Theta3-K33"])
def test_tree_layer_holds_no_ids(g1, g2):
    def int_path(p):
        return type(p) is tuple and all(type(d) is int for d in p)

    c1, c2 = UniversalCover(g1), UniversalCover(g2)
    theta = build_alignment(c1, c2, joint_refinement(g1, g2), radius=3)
    paths = c1.layers(3) + list(c2.ball(c2.canonical_lift(1), 2).vertices)
    paths += [w for z in c1.layers(2) for _, w in c1.star_darts(z)]
    for v in range(len(g1.vertices)):
        lift = c1.canonical_lift(v)
        paths += [lift, c1.transport(c1.deck_loop(lift, lift), lift)]
        paths += [c1.transport(c1.generator_loop(i), lift) for i in range(len(c1.generators))]
    paths += [theta.apply(z) for z in c1.layers(3)]
    assert paths and all(map(int_path, paths))
