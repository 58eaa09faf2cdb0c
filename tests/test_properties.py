"""Property tests over randomly generated graphs and words."""

from hypothesis import given, settings, strategies as st

from commoncover import families
from commoncover.cli import _graph_from_data
from commoncover.gluing import subdivide_graph
from commoncover.graphs import Graph, disjoint_union, pullback, validate_graph
from commoncover.oracle import permutation_cover
from commoncover.regular import bipartite_double
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


# ids with none of the characters that the constructions add ("1:", "#",
# "@", "(|)", ".o"), so each made id names the element it comes from
NAMES = st.text(alphabet="abc", min_size=1, max_size=3)


@st.composite
def coloured_records(draw):
    """The vertex and dart records of a connected graph file, each coloured
    red, blue or not at all, with ids in no order and the records shuffled."""
    n = draw(st.integers(min_value=1, max_value=5))
    vertices = draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
    edges = [(i, draw(st.integers(min_value=0, max_value=i - 1))) for i in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    darts = draw(st.lists(NAMES, min_size=2 * len(edges), max_size=2 * len(edges), unique=True))
    vs = [{"id": v} for v in vertices]
    ds = [{"id": d, "from": vertices[edges[k >> 1][k & 1]], "reverse": darts[k ^ 1]}
          for k, d in enumerate(darts)]
    for record in vs + ds:
        colour = draw(st.sampled_from([None, "red", "blue"]))
        if colour is not None:
            record["colour"] = colour
    return draw(st.permutations(vs)), draw(st.permutations(ds))


def _given_colours(records) -> dict:
    return {r["id"]: r["colour"] for r in records if "colour" in r}


def _follows(made: Graph, source: Graph, vertex_of, dart_of=None):
    """Each vertex and dart of ``made`` has the colour of the element of
    ``source`` that ``vertex_of`` (``dart_of``, by default the same) names
    by id, and none where it names none."""
    for ids, colour, of, source_colour in (
            (made.vertices, made.vertex_colour, vertex_of, source.vertex_colour),
            (made.darts, made.dart_colour, dart_of or vertex_of, source.dart_colour)):
        for x in ids:
            assert colour.get(x) == source_colour.get(of(x)), x


def _before(mark: str):
    """The id a made id names, the part before its last ``mark``."""
    return lambda x: x.rsplit(mark, 1)[0]


@given(coloured_records(), coloured_records(), st.data())
@settings(max_examples=60, deadline=None)
def test_colours_follow_their_ids(records, other, data):
    vs, ds = records
    given_v, given_d = _given_colours(vs), _given_colours(ds)
    loaded = _graph_from_data({"vertices": vs, "darts": ds}, "g.json")
    built = Graph([r["id"] for r in vs], [r["id"] for r in ds],
                  {r["id"]: r["from"] for r in ds}, {r["id"]: r["reverse"] for r in ds},
                  given_v, given_d)
    for g in (loaded, built):
        assert (g.vertex_colour, g.dart_colour) == (given_v, given_d)
    g, h = loaded, _graph_from_data({"vertices": other[0], "darts": other[1]}, "h.json")
    union = disjoint_union(g, h)
    for prefix, part in (("1:", g), ("2:", h)):
        # each side is a union of components, which restrict keeps whole
        sub = union.restrict([v for v in union.vertices if v.startswith(prefix)])
        _follows(sub, union, lambda x: x)
        _follows(sub, part, lambda x: x[len(prefix):])
    _follows(bipartite_double(g)[0], g, _before("#"))
    m = data.draw(st.integers(min_value=1, max_value=3))
    voltages = {d: tuple(data.draw(st.permutations(range(m)))) for d in g.edge_reps()}
    cover, onto_g = permutation_cover(g, m, voltages)
    _follows(cover, g, _before("@"))
    # a pair (a|b) takes the colour of a, its element of the first map's source
    _follows(pullback(onto_g, bipartite_double(g)[1]).graph, cover, lambda x: x[1:x.index("|")])
    info = subdivide_graph(g)
    _follows(info.graph, g, lambda x: x if x in g.vertices else None,
             lambda x: x[:-2] if x.endswith(".o") else None)
