"""The shared walks: ``Graph.bfs``, ``UniversalCover.layers`` and
``regular.euler_circuit``.

Every traversal that calls one of them is compared with the loop it
replaced (the ``reference_*`` functions of ``conftest``) on random
multigraphs, random cubic graphs, their bipartite doubles and disjoint
unions of the two, which are disconnected; the Euler walk on random
regular multigraphs with loops and parallel edges.
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
from commoncover.regular import (bipartite_double, euler_circuit, factorize_regular,
                                 two_colouring)
from commoncover.universal_cover import UniversalCover

from conftest import (factors_of, random_base_graph, random_cubic_graph,
                      random_regular_multigraph, reference_components,
                      reference_distances_from, reference_frontier_walk,
                      reference_non_tree_reps, reference_orient_factor,
                      reference_spanning_tree, reference_split_two_factor,
                      reference_two_colouring)

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
    """The spanning-tree path to vertex index v, as dart indices."""
    path = ()
    while v != basepoint:
        d = parent_dart[v]
        path = (d,) + path
        v = g.org[d]
    return path


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_walks_agree_with_the_loops_they_replaced(seed):
    for g in _graphs(seed):
        comps = reference_components(g)
        assert g.components() == comps
        assert g.is_connected() == (len(comps) == 1)
        for v in range(len(g.vertices)):
            assert g.distances_from(v) == reference_distances_from(g, v)
        assert two_colouring(g) == reference_two_colouring(g)
        assert _non_tree_reps(g) == reference_non_tree_reps(g)
        if len(comps) != 1:
            continue
        cover = UniversalCover(g)
        parent_dart, generators = reference_spanning_tree(g, cover.basepoint)
        assert cover.parent_dart == parent_dart
        assert cover.generators == generators
        for v in range(len(g.vertices)):
            assert cover.canonical_lift(v) == _lift(g, parent_dart, cover.basepoint, v)
        for r in range(5):
            assert cover.layers(r) == reference_frontier_walk(cover, r)


@pytest.mark.parametrize("g", [families.complete(5),
                               families.complete_bipartite(4, 4),
                               families.cycle(6), families.rose(2)],
                         ids=["K5", "K4,4", "C6", "rose2"])
def test_two_factorization_agrees_with_the_depth_first_split(g):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regular, "_split_two_factor", reference_split_two_factor)
        expected = factorize_regular(g).covering.dm
    assert factorize_regular(g).covering.dm == expected


def _pieces(g, darts) -> list:
    """The dart sets of the connected pieces of a reversal-closed set of
    dart indices, by least vertex."""
    left, pieces, stars = set(darts), [], g.stars()
    while left:
        piece, stack = set(), [min(g.org[d] for d in left)]
        while stack:
            for d in stars[stack.pop()]:
                if d in left and d not in piece:
                    piece.update((d, g.rev[d]))
                    stack.append(g.org[g.rev[d]])
        pieces.append(piece)
        left -= piece
    return pieces


def _walks_piece_by_piece(g, darts) -> bool:
    pieces = _pieces(g, darts)
    return euler_circuit(g, darts) == [d for piece in pieces for d in euler_circuit(g, piece)]


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_one_euler_walk_splits_and_orients_as_the_references(seed):
    rng = random.Random(seed)
    if rng.random() < 0.6:
        k, n = 2 * rng.randint(1, 4), rng.randint(1, 14)
    else:
        k = rng.choice((1, 3, 5))
        n = 2 if k == 1 else 2 * rng.randint(1, 7)
    g = random_regular_multigraph(rng, n, k)
    fact = factorize_regular(g)
    if k % 2:
        double = fact.double_proj.source
        matchings = regular._matchings(double, k, list(two_colouring(double).values()))
        assert factors_of(fact.covering) == [set(map(double.darts.__getitem__, m))
                                             for m in matchings]
        # two perfect matchings of the double make a 2-factor of even cycles
        for m1, m2 in zip(matchings, matchings[1:]):
            assert set(euler_circuit(double, m1 | m2)) == reference_orient_factor(double, m1 | m2)
            assert _walks_piece_by_piece(double, m1 | m2)
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regular, "_split_two_factor", reference_split_two_factor)
        factors = regular._two_factors(g, k)
    assert regular._two_factors(g, k) == factors
    remaining = set(range(len(g.darts)))
    for factor in factors:
        assert _walks_piece_by_piece(g, remaining) and _walks_piece_by_piece(g, factor)
        remaining -= factor
    forward = [reference_orient_factor(g, factor) for factor in factors]
    assert [set(euler_circuit(g, factor)) for factor in factors] == forward
    expected = regular._factor_covering(g, families.rose(k // 2), [0] * n, factors,
                                        lambda i, d: d not in forward[i])
    assert (fact.covering.vm, fact.covering.dm) == (expected.vm, expected.dm)
    assert factors_of(fact.covering) == [set(map(g.darts.__getitem__, f)) for f in factors]


def test_bfs_records_parent_darts_in_visiting_order():
    g = families.cycle(4)
    tree = g.bfs(0)
    assert list(tree) == [0, 1, 3, 2]
    assert tree[0] == -1
    assert all(g.org[g.rev[d]] == v for v, d in tree.items() if d >= 0)


def test_bfs_and_distances_reject_an_unknown_root():
    g = families.cycle(3)
    for root in (3, -1):
        with pytest.raises(GraphError, match="vertex not in graph"):
            g.bfs(root)
        with pytest.raises(GraphError, match="vertex not in graph"):
            g.distances_from(root)


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
