"""Standard small graphs used in tests, demos and documentation."""

from __future__ import annotations

from .graphs import Graph, sort_graph


def _from_edges(n_vertices, edges, loops=()):
    """Build a graph from (u, v) index pairs; loops is a list of vertex
    indices.  Edge k has the darts e<k>.a from u and e<k>.b from v."""
    ends = [x for edge in [*edges, *((w, w) for w in loops)] for x in edge]
    return sort_graph(["v%02d" % i for i in range(n_vertices)],
                      ["e%02d.%s" % (k >> 1, "ab"[k & 1]) for k in range(len(ends))],
                      ends, [k ^ 1 for k in range(len(ends))])[0]


def cycle(n: int) -> Graph:
    """C_n: the cycle on n vertices (n = 1 is a single loop)."""
    if n == 1:
        return _from_edges(1, [], loops=[0])
    return _from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    """P-type path graph on n vertices."""
    return _from_edges(n, [(i, i + 1) for i in range(n - 1)])


def rose(d: int) -> Graph:
    """One vertex with d loops (2d darts)."""
    return _from_edges(1, [], loops=[0] * d)


def theta(d: int) -> Graph:
    """Two vertices joined by d parallel geometric edges."""
    return _from_edges(2, [(0, 1)] * d)


def complete(n: int) -> Graph:
    return _from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m: int, n: int) -> Graph:
    return _from_edges(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def with_vertex_colour(g: Graph, colours: dict) -> Graph:
    return Graph.from_tables(g.vertices, g.darts, g.org, g.rev,
                             list(map({**g.vertex_colour, **colours}.get, g.vertices)), g.dcol)
