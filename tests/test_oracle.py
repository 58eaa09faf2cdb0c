import random

import pytest

from commoncover import families, oracle
from commoncover.graphs import BudgetExceeded, Graph, is_covering
from commoncover.oracle import (brute_common_cover, brute_landau,
                                find_covering, permutation_cover)
from conftest import (edge_list_graph, lollipop, random_base_graph,
                      recursive_find_covering)


def test_c3_c4_minimum_is_twelve():
    result = brute_common_cover(families.cycle(3), families.cycle(4), 6)
    assert result.found
    assert result.degree == 4
    assert len(result.cover.vertices) == 12
    assert is_covering(result.to_first).ok
    assert is_covering(result.to_second).ok


def test_self_pair_found_at_degree_one():
    for g in (families.cycle(3), families.theta(3)):
        result = brute_common_cover(g, g, 3)
        assert result.found and result.degree == 1
        assert len(result.cover.vertices) == len(g.vertices)


def test_no_common_cover_detected():
    result = brute_common_cover(families.cycle(3), families.complete(4), 4)
    assert not result.found
    assert not result.budget_exceeded


def test_voltage_covers_are_coverings():
    rng = random.Random(3)
    g = families.theta(2)
    reps = g.edge_reps()
    for _ in range(10):
        degree = rng.randint(1, 4)
        voltages = {}
        for rep in reps:
            perm = list(range(degree))
            rng.shuffle(perm)
            voltages[rep] = tuple(perm)
        cover, proj = permutation_cover(g, degree, voltages)
        assert is_covering(proj).ok


def test_budget_exceeded_reported():
    result = brute_common_cover(families.cycle(3), families.cycle(4), 6,
                                budget=3)
    assert result.budget_exceeded and not result.found


def _cycle12(colour):
    """C12 with vertex i coloured ``colour(i)``."""
    return families.with_vertex_colour(
        families.cycle(12), {("v%02d" % i): colour(i) for i in range(12)})


def test_find_covering_respects_colours():
    # a missing colour is a colour: an uncoloured vertex maps only onto an
    # uncoloured one
    full3 = families.with_vertex_colour(
        families.cycle(3), {"v00": "red", "v01": "blue", "v02": "blue"})
    plain12 = families.cycle(12)
    assert find_covering(plain12, families.cycle(3)) is not None
    assert find_covering(plain12, full3) is None
    assert find_covering(full3, families.cycle(3)) is None
    good12 = _cycle12(lambda i: "red" if i % 3 == 0 else "blue")
    assert find_covering(good12, full3) is not None
    bad12 = _cycle12(lambda i: "red" if i < 2 else "blue")
    assert find_covering(bad12, full3) is None


def test_brute_landau_values():
    assert brute_landau(1) == 1
    assert brute_landau(7) == 12
    assert brute_landau(10) == 30
    with pytest.raises(ValueError):
        brute_landau(31)


def _nodes_visited(search, h, target):
    """The least budget the search completes within: its node count."""
    lo, hi = 0, 200000
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            search(h, target, budget=mid)
            hi = mid
        except BudgetExceeded:
            lo = mid + 1
    return lo


def _search_pairs():
    """(h, target, whether h is known to cover target) for the direct
    searches of the tier-1 tests, random connected permutation covers of
    random base graphs, and random unrelated pairs."""
    full3 = families.with_vertex_colour(
        families.cycle(3), {"v00": "red", "v01": "blue", "v02": "blue"})
    good12 = _cycle12(lambda i: "red" if i % 3 == 0 else "blue")
    bad12 = _cycle12(lambda i: "red" if i < 2 else "blue")
    pairs = [(families.cycle(12), families.cycle(3), True),
             (families.cycle(12), full3, False), (good12, full3, True), (bad12, full3, False),
             (families.cycle(3), families.complete(4), False),
             (lollipop(), families.rose(1), False)]
    rng = random.Random(11)
    for _ in range(50):
        target = random_base_graph(rng, max_vertices=5)
        degree = rng.randint(1, 3)
        voltages = {rep: tuple(rng.sample(range(degree), degree))
                    for rep in target.edge_reps()}
        cover = permutation_cover(target, degree, voltages)[0]
        pairs.append((cover, target, cover.is_connected() or None))
        pairs.append((random_base_graph(rng, max_vertices=6), target, None))
    return pairs


def test_find_covering_matches_recursive_search():
    for h, target, covers in _search_pairs():
        new = find_covering(h, target)
        old = recursive_find_covering(h, target)
        assert (new is None) == (old is None)
        if covers is not None:
            assert (new is not None) == covers
        if new is not None:
            assert (new.vmap, new.dmap) == (old.vmap, old.dmap)
        assert (_nodes_visited(find_covering, h, target)
                == _nodes_visited(recursive_find_covering, h, target))


@pytest.mark.parametrize("g1, g2, max_degree", [
    (families.cycle(3), families.cycle(4), 6),
    (families.theta(3), families.theta(3), 3),
    (families.cycle(3), families.complete(4), 4),
    (families.rose(1), families.theta(2), 6),
    (lollipop(), lollipop(), 6),
])
def test_brute_common_cover_matches_recursive_search(monkeypatch, g1, g2,
                                                     max_degree):
    new = brute_common_cover(g1, g2, max_degree)
    monkeypatch.setattr(oracle, "find_covering", recursive_find_covering)
    old = brute_common_cover(g1, g2, max_degree)
    assert (new.found, new.degree, new.searched_up_to, new.budget_exceeded) \
        == (old.found, old.degree, old.searched_up_to, old.budget_exceeded)
    if new.found:
        assert (new.to_second.vmap, new.to_second.dmap) \
            == (old.to_second.vmap, old.to_second.dmap)


def test_find_covering_long_cycle_without_recursion():
    out = find_covering(families.cycle(1200), families.cycle(3))
    assert out is not None and is_covering(out).ok


def _vertices(n):
    return ["v%02d" % i for i in range(n)]


# (h, target) pairs of the 3,000 drawn from random.Random(1) as
# random_base_graph(rng, 4) then random_base_graph(rng, 8) on which the
# search once mapped two darts of a star to one image dart, through the
# reverse of the pending dart, and raised VerificationError
REVERSE_CLASH_PAIRS = [
    (edge_list_graph(_vertices(3), [("v01", "v00"), ("v02", "v00"),
                                    ("v02", "v01"), ("v02", "v00")]),
     edge_list_graph(_vertices(4), [("v01", "v00"), ("v02", "v01"),
                                    ("v03", "v00"), ("v03", "v03")])),
    (edge_list_graph(_vertices(5), [("v01", "v00"), ("v02", "v00"),
                                    ("v03", "v00"), ("v04", "v01"),
                                    ("v02", "v02"), ("v03", "v00"),
                                    ("v02", "v01"), ("v04", "v03"),
                                    ("v04", "v04")]),
     edge_list_graph(_vertices(3), [("v01", "v00"), ("v02", "v01"),
                                    ("v00", "v01"), ("v00", "v00")])),
    (edge_list_graph(_vertices(3), [("v01", "v00"), ("v02", "v00"),
                                    ("v01", "v02"), ("v01", "v00")]),
     edge_list_graph(_vertices(4), [("v01", "v00"), ("v02", "v00"),
                                    ("v03", "v01"), ("v03", "v03")])),
]


@pytest.mark.parametrize("h, target", REVERSE_CLASH_PAIRS)
def test_search_checks_the_reverse_image_at_the_head(h, target):
    # no covering exists: a covering of connected graphs multiplies the
    # vertex count, and here the target's count does not divide h's
    assert len(h.vertices) % len(target.vertices) != 0
    assert find_covering(h, target) is None
    assert recursive_find_covering(h, target) is None
    assert not brute_common_cover(h, target, 1).found


def test_search_checks_the_colour_of_the_reverse_dart():
    # every dart of h is "a", but each edge of the target has an "a" dart
    # and a "b" reverse, so no map preserves dart colours; the search once
    # checked only the pending dart's colour and raised GraphError
    c6, c3 = families.cycle(6), families.cycle(3)
    h = Graph(c6.vertices, c6.darts, c6.origin, c6.reverse, None,
              {d: "a" for d in c6.darts})
    target = Graph(c3.vertices, c3.darts, c3.origin, c3.reverse, None,
                   {d: "a" if d in c3.edge_reps() else "b" for d in c3.darts})
    assert find_covering(h, target) is None
    assert recursive_find_covering(h, target) is None
