"""The shared walks: ``Graph.bfs`` and ``UniversalCover.layers``.

Every traversal that calls one of them is compared with the loop it
replaced (the ``reference_*`` functions of ``conftest``) on random
multigraphs, random cubic graphs, their bipartite doubles and disjoint
unions of the two, which are disconnected.
"""

import ast
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import commoncover
from commoncover import families, regular
from commoncover.graphs import GraphError, disjoint_union
from commoncover.oracle import _non_tree_reps
from commoncover.regular import bipartite_double, two_colouring, two_factorization
from commoncover.universal_cover import UniversalCover

from conftest import (random_base_graph, random_cubic_graph, reference_components,
                      reference_distances_from, reference_frontier_walk,
                      reference_non_tree_reps, reference_spanning_tree,
                      reference_split_two_factor, reference_two_colouring)

SRC = pathlib.Path(commoncover.__file__).parent


def _graphs(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        g = random_base_graph(rng)
    else:
        g = random_cubic_graph(rng, 2 * rng.randint(2, 6))
    double = bipartite_double(g)[0]
    return [g, double, disjoint_union(g, double)]


def _lift(g, parent_dart, basepoint, v):
    """The spanning-tree path to v, as dart indices."""
    path = ()
    while v != basepoint:
        d = parent_dart[v]
        path = (g.index()[1][d],) + path
        v = g.origin[d]
    return path


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_walks_agree_with_the_loops_they_replaced(seed):
    for g in _graphs(seed):
        comps = reference_components(g)
        assert g.components() == comps
        assert g.is_connected() == (len(comps) == 1)
        for v in g.vertices:
            assert g.distances_from(v) == reference_distances_from(g, v)
        assert two_colouring(g) == reference_two_colouring(g)
        assert _non_tree_reps(g) == reference_non_tree_reps(g)
        if len(comps) != 1:
            continue
        cover = UniversalCover(g)
        basepoint = g.vertices[cover.basepoint]
        parent_dart, generators = reference_spanning_tree(g, basepoint)
        assert cover.parent_dart == [g.index()[1][parent_dart[v]] if v in parent_dart else -1
                                     for v in g.vertices]
        assert cover.ids(cover.generators) == generators
        for i, v in enumerate(g.vertices):
            assert cover.canonical_lift(i) == _lift(g, parent_dart, basepoint, v)
        for r in range(5):
            assert cover.layers(r) == reference_frontier_walk(cover, r)


@pytest.mark.parametrize("g", [families.complete(5),
                               families.complete_bipartite(4, 4),
                               families.cycle(6), families.rose(2)],
                         ids=["K5", "K4,4", "C6", "rose2"])
def test_two_factorization_agrees_with_the_depth_first_split(g):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regular, "_split_two_factor", reference_split_two_factor)
        expected = two_factorization(g)
    assert two_factorization(g) == expected


def test_bfs_records_parent_darts_in_visiting_order():
    g = families.cycle(4)
    tree = g.bfs("v00")
    assert list(tree) == ["v00", "v01", "v03", "v02"]
    assert tree["v00"] is None
    assert all(g.head(d) == v for v, d in tree.items() if d is not None)
    # restricted to one edge, the walk stays on its two ends
    d = g.star("v00")[0]
    assert g.bfs("v00", {d, g.reverse[d]}) == {"v00": None, g.head(d): d}


def test_bfs_and_distances_reject_an_unknown_root():
    g = families.cycle(3)
    with pytest.raises(GraphError, match="vertex not in graph"):
        g.bfs("nope")
    with pytest.raises(GraphError, match="vertex not in graph"):
        g.distances_from("nope")


def _pop_zero_calls(path):
    """Line of every ``x.pop(0)`` call in the file."""
    return [node.lineno
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "pop"
            and len(node.args) == 1 and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == 0]


def test_no_list_is_used_as_a_queue():
    # list.pop(0) costs time linear in the list; queues are deques
    offenders = {path.name: found for path in sorted(SRC.glob("*.py"))
                 if (found := _pop_zero_calls(path))}
    assert offenders == {}
