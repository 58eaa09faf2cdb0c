"""Property tests over randomly generated graphs and words."""

from hypothesis import given, settings, strategies as st

from commoncover import families
from commoncover.graphs import Graph, validate_graph
from commoncover.universal_cover import UniversalCover

from conftest import reduce_path


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    vertices = ["v%02d" % i for i in range(n)]
    edges = []
    for i in range(1, n):
        edges.append((i, draw(st.integers(min_value=0, max_value=i - 1))))
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    edges.extend(extra)
    darts, origin, reverse = [], {}, {}
    for k, (u, w) in enumerate(edges):
        a, b = "e%02d.a" % k, "e%02d.b" % k
        darts += [a, b]
        origin[a], origin[b] = vertices[u], vertices[w]
        reverse[a], reverse[b] = b, a
    return Graph(vertices, darts, origin, reverse)


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_star_sizes_sum_to_dart_count(g):
    assert validate_graph(g).ok
    assert sum(g.degree(v) for v in g.vertices) == len(g.darts)


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_loops_count_twice_in_degrees(g):
    loops = sum(1 for d in g.darts if g.origin[d] == g.head(d))
    assert loops % 2 == 0


@given(connected_graphs(), st.lists(st.integers(0, 100), max_size=8))
@settings(max_examples=40, deadline=None)
def test_free_reduction_is_idempotent_and_invertible(g, picks):
    if not g.is_connected() or not g.darts:
        return
    cov = UniversalCover(g)
    # random walk of dart indices from the basepoint, then reduce
    path = []
    at = cov.basepoint
    for pick in picks:
        star = g.stars()[at]
        if not star:
            break
        d = star[pick % len(star)]
        path.append(d)
        at = g.org[g.rev[d]]
    reduced = reduce_path(g, path)
    assert reduce_path(g, reduced) == reduced
    assert reduce_path(g, reduced + cov.invert(reduced)) == ()


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_ball_sizes_of_regular_trees(d, radius):
    g = families.rose(d) if d % 2 == 0 else families.theta(d)
    cov = UniversalCover(g)
    ball = cov.ball((), radius)
    deg = 2 * d if d % 2 == 0 else d
    expected = 1
    layer = deg
    for _ in range(radius):
        expected += layer
        layer *= deg - 1
    assert len(ball.vertices) == expected
