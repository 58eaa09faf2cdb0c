import random

import pytest

from commoncover import families
from commoncover.graphs import GraphError
from commoncover.refinement import joint_refinement
from commoncover.universal_cover import (AlignmentBudgetError, UniversalCover,
                                         build_alignment, reduce_path)

from conftest import deck_transport, map_is_ball_isomorphism, map_vertices


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
    d = g.star(cov.basepoint)[0]
    with pytest.raises(GraphError, match="non-reduced"):
        cov.ball((d, g.reverse[d]), 1)


def test_canonical_lift_basepoint_empty():
    cov = UniversalCover(families.complete(4))
    assert cov.canonical_lift(cov.basepoint) == ()


def test_canonical_lift_path_endpoint():
    p3 = families.path(3)
    cov = UniversalCover(p3, "v00")
    lift = cov.canonical_lift("v02")
    assert len(lift) == 2
    assert cov.project(lift) == "v02"


def test_canonical_lift_follows_breadth_first_tree():
    c3 = families.cycle(3)
    cov = UniversalCover(c3, "v00")
    # both non-base vertices are discovered at depth one from v00
    for v in ("v01", "v02"):
        lift = cov.canonical_lift(v)
        assert len(lift) == 1
        assert cov.project(lift) == v


def test_canonical_lift_of_long_cycle_without_recursion():
    # lifting in sorted order walks up ever longer uncached tree paths
    g = families.cycle(5000)
    cov = UniversalCover(g, "v00")
    for v in sorted(g.vertices):
        lift = cov.canonical_lift(v)
        assert cov.project(lift) == v
    assert max(len(cov.canonical_lift(v)) for v in g.vertices) == 2500


def test_deck_transport_identity_and_cancellation():
    cov = UniversalCover(families.rose(1))
    z = cov.canonical_lift("v00")
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
    from commoncover.universal_cover import invert_path
    for p in ball.vertices:
        for q in ball.vertices:
            between = reduce_path(g, invert_path(g, p) + q)
            assert (between == ()) == (p == q)
            assert len(between) <= 4


def test_projection_is_covering_on_balls():
    for g in (families.cycle(4), families.complete(4), families.rose(2)):
        cov = UniversalCover(g)
        ball = cov.ball((), 2)
        for z in ball.vertices:
            if ball.dist[z] >= 2:
                continue
            projected = [d for d, _ in cov.star_darts(z)]
            assert sorted(projected) == list(g.star(cov.project(z)))


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
        assert block["1:" + c1.project(z)] == block["2:" + c2.project(w)]
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
