"""Fast common covers of regular graphs via factorizations.

Even degree 2d: splitting off spanning 2-regular subgraphs one at a time
(orient an Euler circuit, then take a perfect matching of the resulting
d-regular bipartite out/in incidence graph) partitions the edges into d
2-factors, which is exactly a covering onto the rose with d petals.  One
walk, ``euler_circuit`` over every connected piece, orients both the darts
each split matches and the cycles of each 2-factor.  The fiber product of
the two rose coverings is then a common cover with at most |V1|*|V2|
vertices.

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
from .graphs import (Cover, Graph, GraphError, GraphMorphism, VerificationError, clashes,
                     colours_at, compose_morphisms, finish_cover, is_covering, pullback,
                     restrict_maps, sort_graph)


def regularity(g: Graph) -> int:
    degs = set(map(len, g.stars()))
    if len(degs) != 1:
        raise GraphError("regular graph required")
    return degs.pop()


def euler_circuit(g: Graph, darts) -> list:
    """Hierholzer circuits over the geometric edges spanned by the darts.

    The dart index set must be reversal-closed and induce even degree
    everywhere; the circuits are returned as one sequence of dart indices
    that covers each geometric edge exactly once: one circuit per connected
    piece, each from the piece's least vertex, least piece first.  Each
    vertex offers its darts in order, so a piece gets the circuit it gets
    alone.
    """
    at, org, rev = {}, g.org, g.rev
    for d in sorted(darts, reverse=True):       # popped from the end, least first
        at.setdefault(org[d], []).append(d)
    used, circuit = set(), []
    for v in sorted(at):                        # a walked piece's vertices add nothing
        stack, path, piece = [v], [], []
        while stack:
            left = at[stack[-1]]
            while left and left[-1] in used:
                left.pop()
            if left:
                d = left.pop()
                used.update((d, rev[d]))
                path.append(d)
                stack.append(org[rev[d]])
            else:
                stack.pop()
                if path:
                    piece.append(path.pop())
        circuit.extend(reversed(piece))
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


def _matched_factor(g: Graph, adjacency: dict, failure: str) -> set:
    """The darts of a perfect matching of ``adjacency`` (vertex index -> its
    (dart, head) pairs in order) and their reversals."""
    matched = max_bipartite_matching(adjacency)
    if len(matched) != len(adjacency):
        raise GraphError(failure)
    return {*matched.values(), *map(g.rev.__getitem__, matched.values())}


def _split_two_factor(g: Graph, darts) -> set:
    """One spanning 2-regular reversal-closed subset of an even-regular
    reversal-closed set of dart indices, matched along its circuits."""
    org, rev, adjacency = g.org, g.rev, {}
    for d in euler_circuit(g, darts):
        adjacency.setdefault(org[d], []).append((d, org[rev[d]]))
    return _matched_factor(g, {v: sorted(a) for v, a in adjacency.items()},
                           "no perfect matching in the circuit orientation")


def _two_factors(g: Graph, k: int) -> list:
    """The k/2 2-factors of a k-regular graph, k even."""
    remaining = set(range(len(g.darts)))
    factors = []
    for step in range(k // 2):
        factor = (set(remaining) if len(remaining) == 2 * len(g.vertices)
                  else _split_two_factor(g, remaining))
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
    """Double cover whose cycles are all even (bipartite by parity): vertex
    v#i and dart d#i for i in 0, 1, the reversal of d#i being rev(d)#(1 - i)."""
    two = (0, 1)
    vids = ["%s#%d" % (v, i) for v in g.vertices for i in two]
    dids = ["%s#%d" % (d, i) for d in g.darts for i in two]
    double, vorder, dorder = sort_graph(vids, dids, [2 * v + i for v in g.org for i in two],
                                        [2 * r + 1 - i for r in g.rev for i in two],
                                        colours_at(g.vcol, [k >> 1 for k in range(len(vids))]),
                                        colours_at(g.dcol, [k >> 1 for k in range(len(dids))]))
    return double, GraphMorphism.from_tables(double, g, [k >> 1 for k in vorder],
                                             [k >> 1 for k in dorder])


def _matchings(g: Graph, k: int, colour: list) -> list:
    """Perfect matchings partitioning the edges of a k-regular graph with
    the two-colouring ``colour``, as dart index sets."""
    org, rev, stars = g.org, g.rev, g.stars()
    left = [v for v, c in enumerate(colour) if c == 0]
    remaining = set(range(len(g.darts)))
    factors = []
    for step in range(k):
        # stars are in dart order, so each list is sorted
        adjacency = {v: [(d, org[rev[d]]) for d in stars[v] if d in remaining] for v in left}
        factor = _matched_factor(g, adjacency,
                                 "no perfect matching in a regular bipartite graph")
        factors.append(factor)
        remaining -= factor
    return factors


def _factor_covering(g: Graph, target: Graph, vm: list, factors: list, side) -> GraphMorphism:
    """The map onto the rose or the theta graph ``target`` with vertex table
    ``vm`` that sends dart d of factor i to e<i>.b if ``side(i, d)``, else e<i>.a."""
    dindex, dm = target.index()[1], [-1] * len(g.darts)
    for i, factor in enumerate(factors):
        ends = dindex["e%02d.a" % i], dindex["e%02d.b" % i]
        for d in factor:
            dm[d] = ends[side(i, d)]
    return GraphMorphism.from_tables(g, target, vm, dm)


@dataclass
class Factorization:
    kind: str                       # "even" or "odd"
    covering: GraphMorphism         # onto the rose or the two-vertex graph
    double_proj: Optional[GraphMorphism] = None     # the double onto g (odd)


def factorize_regular(g: Graph) -> Factorization:
    """A covering of a colour-free copy of g onto the rose with k/2 petals
    (k even: the 2-factors, each oriented along its cycles) or onto the
    theta graph with k edges (k odd: the matchings of the bipartite double)."""
    if not g.is_connected():
        raise GraphError("connected graph required")
    k = regularity(g)
    g = Graph.from_tables(g.vertices, g.darts, g.org, g.rev)
    if k % 2 == 0:
        factors = _two_factors(g, k)
        # each cycle forward from its least vertex, along its least dart
        forward = [set(euler_circuit(g, factor)) for factor in factors]
        fact = Factorization("even", _factor_covering(
            g, families.rose(k // 2), [0] * len(g.vertices), factors,
            lambda i, d: d not in forward[i]))
    else:
        double, proj = bipartite_double(g)
        # the double has only even cycles, so it is two-coloured
        colour, org = list(two_colouring(double).values()), double.org
        factors = _matchings(double, k, colour)
        # theta's vertices v00 and v01 are the colours' indices
        fact = Factorization("odd", _factor_covering(
            double, families.theta(k), colour, factors, lambda i, d: colour[org[d]]), proj)
    if not is_covering(fact.covering).ok:
        raise VerificationError("%s map is not a covering"
                                % ("rose" if fact.kind == "even" else "path"))
    return fact


def regular_common_cover(g1: Graph, g2: Graph, component: str = "least") -> Cover:
    """A common cover of two connected graphs of one degree, the pullback
    of their factorizations.  The factorizations ignore colours: the
    pullback takes g1's, and keeps the components on which g2's agree."""
    k1, k2 = regularity(g1), regularity(g2)
    if k1 != k2:
        raise GraphError("degree mismatch: %d vs %d" % (k1, k2))
    f1 = factorize_regular(g1)
    f2 = factorize_regular(g2)
    # factorize_regular has verified both coverings; their pullback over the
    # rose has |V1||V2| vertices, over theta (2|V1|)(2|V2|)/2: the bound exactly
    fp = pullback(f1.covering, f2.covering)
    if f1.kind == "even":
        mu1, mu2 = fp.proj1, fp.proj2
        bound = len(g1.vertices) * len(g2.vertices)
    else:
        mu1 = compose_morphisms(f1.double_proj, fp.proj1)
        mu2 = compose_morphisms(f2.double_proj, fp.proj2)
        bound = 2 * len(g1.vertices) * len(g2.vertices)
    g = Graph.from_tables(fp.graph.vertices, fp.graph.darts, fp.graph.org, fp.graph.rev,
                          colours_at(g1.vcol, mu1.vm), colours_at(g1.dcol, mu1.dm))
    mu1, mu2 = [GraphMorphism.from_tables(g, h, mu.vm, mu.dm) for h, mu in ((g1, mu1), (g2, mu2))]
    bad = {*clashes(g.vcol, g2.vcol, mu2.vm),
           *map(g.org.__getitem__, clashes(g.dcol, g2.dcol, mu2.dm))}
    if not bad:
        return finish_cover(mu1, mu2, component, bound=bound)
    comps, vindex = g.components(), g.index()[0]
    kept = [v for c in comps if bad.isdisjoint(map(vindex.__getitem__, c)) for v in c]
    if not kept:
        raise GraphError("no pullback component keeps both inputs' colours; use build")
    cover = finish_cover(*restrict_maps(mu1, mu2, kept)[:2], component, bound=bound)
    cover.component_sizes = tuple(map(len, comps))  # the whole pullback, which the bound bounds
    return cover
