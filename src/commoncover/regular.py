"""Fast common covers of regular graphs via factorizations.

Even degree 2d: splitting off spanning 2-regular subgraphs one at a time
(orient an Euler circuit, then take a perfect matching of the resulting
d-regular bipartite out/in incidence graph) partitions the edges into d
2-factors, which is exactly a covering onto the rose with d petals.  The
fiber product of the two rose coverings is then a common cover with at
most |V1|*|V2| vertices.

Odd degree d: the bipartite double cover has only even cycles, so it
1-factorizes into d perfect matchings, which is a covering onto the graph
with two vertices and d parallel edges; fiber products over that graph
give a common cover with at most 2*|V1|*|V2| vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq
from typing import Optional

from . import families
from .graphs import (Cover, Graph, GraphError, GraphMorphism, VerificationError,
                     compose_morphisms, finish_cover, is_covering, pullback)


def regularity(g: Graph) -> int:
    degs = {g.degree(v) for v in g.vertices}
    if len(degs) != 1:
        raise GraphError("regular graph required")
    return degs.pop()


def euler_circuit(g: Graph, darts) -> list:
    """Hierholzer circuit over the geometric edges spanned by the darts.

    The dart set must be reversal-closed and induce even degree everywhere;
    the circuit is returned as a dart sequence and covers each geometric
    edge exactly once.  Runs per connected piece caller-side.
    """
    at, origin, reverse = {}, g.origin, g.reverse
    for d in sorted(darts):
        at.setdefault(origin[d], []).append(d)
    used = set()
    start = min(at)
    stack = [start]
    circuit = []
    take = {v: 0 for v in at}
    path = []
    while stack:
        v = stack[-1]
        found = None
        while take[v] < len(at[v]):
            d = at[v][take[v]]
            take[v] += 1
            if d not in used:
                found = d
                break
        if found is None:
            stack.pop()
            if path:
                circuit.append(path.pop())
        else:
            used.add(found)
            used.add(reverse[found])
            path.append(found)
            stack.append(origin[reverse[found]])
    circuit.reverse()
    return circuit


def max_bipartite_matching(adjacency: dict) -> dict:
    """Kuhn's augmenting-path matching; keys are left nodes, values lists of
    (edge id, right node).  Returns {left: edge id} for the matching.

    The depth-first search for an augmenting path keeps its own stack and
    visits nodes in the order of the recursive formulation."""
    match_right = {}
    match_left = {}

    def augment(root) -> bool:
        seen = set()
        stack = [iter(adjacency[root])]
        path = []                       # (left, edge id, right) along the stack
        u = root
        while stack:
            for eid, w in stack[-1]:
                if w in seen:
                    continue
                seen.add(w)
                path.append((u, eid, w))
                if w not in match_right:
                    for left, e, right in reversed(path):
                        match_right[right] = (left, e)
                        match_left[left] = e
                    return True
                u = match_right[w][0]
                stack.append(iter(adjacency[u]))
                break
            else:
                stack.pop()
                if path:
                    u = path.pop()[0]
        return False

    for u in sorted(adjacency):
        augment(u)
    return match_left


def _split_two_factor(g: Graph, darts) -> set:
    """One spanning 2-regular reversal-closed subset of an even-regular
    reversal-closed dart set."""
    remaining = set(map(g.index()[1].__getitem__, darts))
    stars, oriented, seen = g.stars(), [], set()
    for v in sorted(set(map(g.org.__getitem__, remaining))):
        if v not in seen:
            comp = g.bfs(v, remaining)
            seen.update(comp)
            oriented.extend(euler_circuit(g, {g.darts[d] for u in comp for d in stars[u]
                                              if d in remaining}))
    origin, reverse = g.origin, g.reverse
    adjacency = {}
    for d in oriented:
        adjacency.setdefault(origin[d], []).append((d, origin[reverse[d]]))
    for v in adjacency:
        adjacency[v].sort()
    matched = max_bipartite_matching(adjacency)
    if len(matched) != len(adjacency):
        raise GraphError("no perfect matching in the circuit orientation")
    factor = set()
    for d in matched.values():
        factor.add(d)
        factor.add(reverse[d])
    return factor


def two_factorization(g: Graph) -> list:
    k = regularity(g)
    if k % 2:
        raise GraphError("even-regular graph required")
    remaining = set(g.darts)
    factors = []
    for step in range(k // 2):
        if len(remaining) == 2 * len(g.vertices):
            factor = set(remaining)
        else:
            factor = _split_two_factor(g, remaining)
        factors.append(factor)
        remaining -= factor
    return factors


def two_colouring(g: Graph) -> Optional[dict]:
    """Breadth-first parity colouring of every component, or None when
    some dart joins two vertices of one colour."""
    org, colour = g.org, [-1] * len(g.vertices)
    for v0 in range(len(colour)):
        if colour[v0] < 0:
            for v, d in g.bfs(v0).items():
                colour[v] = 0 if d < 0 else 1 - colour[org[d]]
    ends = list(map(colour.__getitem__, org))
    if any(map(eq, ends, map(ends.__getitem__, g.rev))):
        return None
    return dict(zip(g.vertices, colour))


def bipartite_double(g: Graph):
    """Double cover whose cycles are all even (bipartite by parity)."""
    vid = {(v, i): "%s#%d" % (v, i) for v in g.vertices for i in (0, 1)}
    did = {(d, i): "%s#%d" % (d, i) for d in g.darts for i in (0, 1)}
    g_origin, g_reverse = g.origin, g.reverse
    origin = {did[(d, i)]: vid[(g_origin[d], i)] for d, i in did}
    reverse = {did[(d, i)]: did[(g_reverse[d], 1 - i)] for d, i in did}
    vcol = {vid[(v, i)]: g.vertex_colour[v] for v, i in vid if v in g.vertex_colour}
    dcol = {did[(d, i)]: g.dart_colour[d] for d, i in did if d in g.dart_colour}
    double = Graph(vid.values(), did.values(), origin, reverse, vcol, dcol)
    proj = GraphMorphism(double, g,
                         {vid[k]: k[0] for k in vid},
                         {did[k]: k[0] for k in did})
    return double, proj


def one_factorization(g: Graph) -> list:
    """Perfect matchings partitioning the edges of a regular bipartite graph."""
    k = regularity(g)
    colour = two_colouring(g)
    if colour is None:
        raise GraphError("bipartite graph required")
    return _matchings(g, k, colour)


def _matchings(g: Graph, k: int, colour: dict) -> list:
    """``one_factorization`` of a k-regular graph with the two-colouring
    ``colour``."""
    origin, reverse = g.origin, g.reverse
    remaining = set(g.darts)
    factors = []
    for step in range(k):
        adjacency = {}
        for v in g.vertices:
            if colour[v] == 0:
                adjacency[v] = sorted((d, origin[reverse[d]])
                                      for d in g.star(v) if d in remaining)
        matched = max_bipartite_matching(adjacency)
        if len(matched) != len(adjacency):
            raise GraphError("no perfect matching in a regular bipartite graph")
        factor = set()
        for d in matched.values():
            factor.add(d)
            factor.add(reverse[d])
        factors.append(factor)
        remaining -= factor
    return factors


def _orient_factor(g: Graph, factor) -> set:
    """Forward darts of a 2-factor: one dart per geometric edge, following
    each cycle from its least vertex."""
    forward = set()
    visited = set()
    at, origin, reverse = {}, g.origin, g.reverse
    for d in sorted(factor):
        at.setdefault(origin[d], []).append(d)
    for v0 in sorted(at):
        starts = [d for d in at[v0] if d not in visited]
        if not starts:
            continue
        d = starts[0]
        while d not in visited:
            visited.add(d)
            visited.add(reverse[d])
            forward.add(d)
            w = origin[reverse[d]]
            nxt = [x for x in at.get(w, ()) if x not in visited]
            if not nxt:
                break
            d = nxt[0]
    return forward


def rose_covering(g: Graph, factors) -> GraphMorphism:
    d = len(factors)
    rose = families.rose(d)
    dmap = {}
    for i, factor in enumerate(factors):
        forward = _orient_factor(g, factor)
        for dart in factor:
            dmap[dart] = "e%02d.%s" % (i, "a" if dart in forward else "b")
    return GraphMorphism(g, rose, {v: "v00" for v in g.vertices}, dmap)


def path_covering(g: Graph, factors, colour) -> GraphMorphism:
    """Covering of the two-vertex multigraph from a 1-factorization of a
    bipartite regular graph (colour = the 2-colouring)."""
    target = families.theta(len(factors))
    vmap = {v: "v%02d" % colour[v] for v in g.vertices}
    dmap, origin = {}, g.origin
    for i, factor in enumerate(factors):
        for dart in factor:
            dmap[dart] = "e%02d.%s" % (i, "a" if colour[origin[dart]] == 0 else "b")
    return GraphMorphism(g, target, vmap, dmap)


@dataclass
class Factorization:
    kind: str                       # "even" or "odd"
    factors: list                   # dart sets (2-factors or matchings)
    covering: GraphMorphism         # onto the rose or the two-vertex graph
    double: Optional[Graph] = None
    double_proj: Optional[GraphMorphism] = None


def factorize_regular(g: Graph) -> Factorization:
    if not g.is_connected():
        raise GraphError("connected graph required")
    k = regularity(g)
    if k % 2 == 0:
        factors = two_factorization(g)
        cov = rose_covering(g, factors)
        if not is_covering(cov).ok:
            raise VerificationError("rose map is not a covering")
        return Factorization("even", factors, cov)
    double, proj = bipartite_double(g)
    # the double has only even cycles, so it is two-coloured
    colour = two_colouring(double)
    factors = _matchings(double, k, colour)
    cov = path_covering(double, factors, colour)
    if not is_covering(cov).ok:
        raise VerificationError("path map is not a covering")
    return Factorization("odd", factors, cov, double, proj)


def regular_common_cover(g1: Graph, g2: Graph, component: str = "least") -> Cover:
    """A common cover of two connected graphs of one degree, the pullback
    of their factorizations.  The factorizations ignore colours and the
    cover takes g1's, so two inputs that both carry vertex colours, or
    both dart colours, are refused when more than one colour occurs
    between them."""
    for kind, c1, c2 in (("vertex", g1.vertex_colour, g2.vertex_colour),
                         ("dart", g1.dart_colour, g2.dart_colour)):
        if c1 and c2 and len({*c1.values(), *c2.values()}) > 1:
            raise GraphError("the regular path ignores colours: both inputs carry %s "
                             "colours, more than one between them; use build" % kind)
    k1, k2 = regularity(g1), regularity(g2)
    if k1 != k2:
        raise GraphError("degree mismatch: %d vs %d" % (k1, k2))
    f1 = factorize_regular(g1)
    f2 = factorize_regular(g2)
    # factorize_regular has verified both coverings
    fp = pullback(f1.covering, f2.covering)
    if f1.kind == "even":
        mu1, mu2 = fp.proj1, fp.proj2
        bound = len(g1.vertices) * len(g2.vertices)
    else:
        mu1 = compose_morphisms(f1.double_proj, fp.proj1)
        mu2 = compose_morphisms(f2.double_proj, fp.proj2)
        bound = 2 * len(g1.vertices) * len(g2.vertices)
    if len(fp.graph.vertices) > bound:
        raise VerificationError("size bound violated")
    return finish_cover(mu1, mu2, component, bound=bound)
