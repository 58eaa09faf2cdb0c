import json
import os
import random

import pytest

from commoncover import families
from commoncover.cli import _graph_from_data, dump_graph, main, write_json
from commoncover.graphs import Graph, GraphError, is_covering
from commoncover.oracle import find_covering
from commoncover.regular import (bipartite_double, factorize_regular, regular_common_cover,
                                 two_colouring)

from conftest import factors_of, random_cubic_graph
from test_golden_artifacts import CASES, GRAPHS


def _check_two_factor(g, factor):
    assert {g.reverse[d] for d in factor} == set(factor)
    degree = {v: 0 for v in g.vertices}
    for d in factor:
        degree[g.origin[d]] += 1
    assert all(c == 2 for c in degree.values())


def test_k5_two_factorization():
    g = families.complete(5)
    result = factorize_regular(g)
    factors = factors_of(result.covering)
    assert len(factors) == 2
    for factor in factors:
        _check_two_factor(g, factor)
    assert set().union(*factors) == set(g.darts)
    assert is_covering(result.covering).ok
    assert result.covering.target == families.rose(2)


def test_c6_single_factor_is_itself():
    g = families.cycle(6)
    result = factorize_regular(g)
    assert result.kind == "even"
    assert factors_of(result.covering) == [set(g.darts)]
    assert result.covering.target == families.rose(1)
    assert is_covering(result.covering).ok


def test_k4_odd_factorization_via_double_cover():
    g = families.complete(4)
    result = factorize_regular(g)
    assert result.kind == "odd"
    double = result.double_proj.source
    assert len(double.vertices) == 8
    colour = two_colouring(double)
    assert colour is not None                    # only even cycles
    factors = factors_of(result.covering)
    assert len(factors) == 3
    for factor in factors:
        assert {double.reverse[d] for d in factor} == set(factor)
        matched = {double.origin[d] for d in factor}
        assert matched == set(double.vertices)   # perfect matching
    assert result.covering.target == families.theta(3)
    assert is_covering(result.covering).ok
    assert is_covering(result.double_proj).ok


def test_loops_handled_in_factorization():
    g = families.rose(2)
    factors = factors_of(factorize_regular(g).covering)
    assert len(factors) == 2
    for factor in factors:
        _check_two_factor(g, factor)


def test_regular_common_cover_cycles():
    out = regular_common_cover(families.cycle(3), families.cycle(4))
    assert len(out.graph.vertices) <= 12
    assert is_covering(out.mu1).ok and is_covering(out.mu2).ok
    assert find_covering(out.graph, families.cycle(12)) is not None


def test_regular_common_cover_k4_k33():
    out = regular_common_cover(families.complete(4),
                               families.complete_bipartite(3, 3))
    assert out.extra["bound"] == 48
    assert out.total_vertices <= 48
    assert len(out.graph.vertices) <= 48
    assert is_covering(out.mu1).ok and is_covering(out.mu2).ok


def test_even_regular_self_pair_diagonal():
    g = families.complete(5)
    out = regular_common_cover(g, g)
    assert len(out.graph.vertices) == len(g.vertices)
    assert out.total_vertices <= 25


def test_degree_mismatch_rejected():
    with pytest.raises(GraphError, match="degree mismatch"):
        regular_common_cover(families.cycle(3), families.complete(4))


def test_non_regular_rejected():
    with pytest.raises(GraphError, match="regular graph required"):
        factorize_regular(families.path(3))


def test_bipartite_double_of_bipartite_graph_disconnects():
    g = families.complete_bipartite(3, 3)
    double, proj = bipartite_double(g)
    assert is_covering(proj).ok
    assert len(double.components()) == 2


def test_factorize_large_cubic_graph_without_recursion():
    # the matching search once recursed once per augmenting step and hit
    # the recursion limit on graphs of this size
    g = random_cubic_graph(random.Random(1), 2000)
    result = factorize_regular(g)
    assert result.kind == "odd"
    assert len(factors_of(result.covering)) == 3
    assert is_covering(result.covering).ok


@pytest.mark.parametrize("case", sorted(c for c in CASES if CASES[c][0] == "regular"))
def test_id_views_match_the_constructor(tmp_path, case):
    # the cover is a pullback, or a restriction of one where a cut drops
    # components (regular-c4-c6, regular-k4-k33); both and the cover loaded
    # from disk are built from tables and keep no given entries, and their
    # views must give the dicts of Graph(...) on the written records, the
    # colours of the coloured cases included
    _, first, second, extra = CASES[case]
    g1, g2 = GRAPHS[first](), GRAPHS[second]()
    built = regular_common_cover(g1, g2, "all" if "all" in extra else "least")
    paths = [str(tmp_path / (name + ".json")) for name in (first, second)]
    for path, g in zip(paths, (g1, g2)):
        write_json(path, dump_graph(g))
    out = str(tmp_path / "out")
    assert main(["regular", *paths, *extra, "-o", out]) == 0
    with open(os.path.join(out, "cover.json")) as fh:
        records = json.load(fh)["graph"]
    vs, ds = records["vertices"], records["darts"]
    reference = Graph([e["id"] for e in vs], [e["id"] for e in ds],
                      {e["id"]: e["from"] for e in ds}, {e["id"]: e["reverse"] for e in ds},
                      *[{e["id"]: e["colour"] for e in es if "colour" in e} for es in (vs, ds)])
    loaded = _graph_from_data(records, "cover.json")
    for g in (built.graph, loaded):
        assert g._given is None
        assert g == reference and g.canonical() == reference.canonical()
        assert g.origin == reference.origin and g.reverse == reference.reverse
