from collections import Counter

import pytest

from commoncover import families
from commoncover.graphs import GraphError
from commoncover.refinement import (common_cover_exists, degree_refinement,
                                    joint_refinement, refine_partition)

from conftest import is_equitable


def test_path3_two_blocks():
    part = degree_refinement(families.path(3))
    assert part.n_blocks() == 2
    assert {frozenset(b) for b in part.blocks} == {frozenset({0, 2}), frozenset({1})}


def test_k4_single_block():
    assert degree_refinement(families.complete(4)).n_blocks() == 1


def test_coloured_c6_blocks_by_distance():
    g = families.with_vertex_colour(families.cycle(6), {"v00": "red"})
    part = degree_refinement(g)
    dist = g.distances_from(0)
    by_dist = {}
    for v in range(len(g.vertices)):
        by_dist.setdefault(dist[v], set()).add(v)
    assert {frozenset(b) for b in part.blocks} == \
        {frozenset(s) for s in by_dist.values()}
    assert sorted(len(b) for b in part.blocks) == [1, 1, 2, 2]


def test_disconnected_rejected():
    from commoncover.graphs import Graph
    g = Graph(["a", "b"], [], {}, {})
    with pytest.raises(GraphError, match="connected"):
        degree_refinement(g)


def test_refinement_idempotent():
    for g in (families.path(4), families.complete(4), families.cycle(5)):
        part = degree_refinement(g)
        again = refine_partition(g, part.block_of)
        assert again.blocks == part.blocks
        assert again.types == part.types
        assert is_equitable(part)


def test_common_cover_k4_theta3():
    ok, joint = common_cover_exists(families.complete(4), families.theta(3))
    assert ok
    assert joint.partition.n_blocks() == 1


def test_common_cover_degree_mismatch():
    ok, _ = common_cover_exists(families.cycle(3), families.complete(4))
    assert not ok


def test_common_cover_cycles():
    ok, joint = common_cover_exists(families.cycle(3), families.cycle(4))
    assert ok
    (block,) = joint.partition.blocks
    # the union holds the 3-cycle's vertices first
    assert block == tuple(range(7))


def test_joint_blocks_respect_colours():
    red3 = families.with_vertex_colour(families.cycle(3), {"v00": "red"})
    red4 = families.with_vertex_colour(families.cycle(4), {"v00": "red"})
    ok, joint = common_cover_exists(red3, red4)
    # one red vertex on a 3-cycle versus a 4-cycle: distance profiles differ
    assert not ok
    plain = joint_refinement(families.cycle(3), families.cycle(4))
    assert plain.ok


def test_signature_matrix_row_sums_are_degrees():
    g = families.complete_bipartite(2, 3)
    part = degree_refinement(g)
    for block in part.blocks:
        # darts from each vertex of a block into each block, by head block
        rows = {tuple(sorted(Counter(part.types[d][2] for d in g.stars()[v]).items()))
                for v in block}
        assert len(rows) == 1
        assert sum(n for _, n in rows.pop()) == g.degree(g.vertices[block[0]])
