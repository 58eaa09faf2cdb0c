"""Half-edge (dart) multigraphs, morphisms, covering checks and covers.

A graph is a finite set of vertices together with a finite set of darts
(half-edges).  Every dart knows its origin vertex and its reversal partner;
the reversal map is required to be a fixed-point-free involution, so a
geometric edge is an unordered pair ``{e, reverse(e)}`` and loops and
parallel edges are unambiguous.  Vertices and darts may carry optional
colour labels.

Conventions used throughout the package:

* identifiers are strings, and every iteration runs in sorted identifier
  order, so all derived constructions are deterministic;
* the head of a dart is ``origin(reverse(e))`` and is never stored;
* a morphism maps vertices to vertices and darts to darts, preserving
  origins and reversal; a covering is a surjective morphism restricting to
  a bijection on every star.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional


class GraphError(ValueError):
    """Raised for structurally invalid graphs, morphisms or arguments (exit 2)."""


class BudgetExceeded(Exception):
    """A search or construction outgrew its configured budget (exit 2)."""


class VerificationError(RuntimeError):
    """An artifact failed the program's own check (exit 3)."""


def _sorted_unique(items: Iterable[str], what: str) -> tuple:
    out = tuple(sorted(items))
    if len(set(out)) != len(out):
        raise GraphError("duplicate %s identifiers" % what)
    return out


class Graph:
    """A finite multigraph in the dart model.

    The constructor is permissive: it accepts structurally broken data
    (non-involutive reversal, missing origins) so that ``validate_graph``
    can report violations instead of crashing.  All operations other than
    validation assume a valid graph.
    """

    __slots__ = ("vertices", "darts", "origin", "reverse",
                 "vertex_colour", "dart_colour", "_star")

    def __init__(self, vertices, darts, origin, reverse,
                 vertex_colour=None, dart_colour=None):
        self.vertices = _sorted_unique(vertices, "vertex")
        self.darts = _sorted_unique(darts, "dart")
        self.origin = dict(origin)
        self.reverse = dict(reverse)
        self.vertex_colour = dict(vertex_colour or {})
        self.dart_colour = dict(dart_colour or {})
        star = {v: [] for v in self.vertices}
        for d in self.darts:
            v = self.origin.get(d)
            if v in star:
                star[v].append(d)
        self._star = {v: tuple(sorted(ds)) for v, ds in star.items()}

    # -- basic queries ----------------------------------------------------

    def star(self, v: str) -> tuple:
        """Sorted darts with origin ``v``."""
        if v not in self._star:
            raise GraphError("vertex not in graph: %r" % (v,))
        return self._star[v]

    def degree(self, v: str) -> int:
        return len(self.star(v))

    def head(self, d: str) -> str:
        """Terminal vertex of a dart: origin of its reversal."""
        return self.origin[self.reverse[d]]

    def edge_reps(self) -> tuple:
        """One canonical dart (the smaller identifier) per geometric edge."""
        return tuple(d for d in self.darts if d <= self.reverse[d])

    def n_edges(self) -> int:
        return len(self.darts) // 2

    def canonical(self) -> tuple:
        """Canonical nested-tuple form, used for equality and serialization."""
        return (
            self.vertices,
            tuple((d, self.reverse.get(d), self.origin.get(d),
                   self.dart_colour.get(d)) for d in self.darts),
            tuple((v, self.vertex_colour.get(v)) for v in self.vertices),
        )

    def __eq__(self, other):
        return isinstance(other, Graph) and self.canonical() == other.canonical()

    def __repr__(self):
        return "Graph(%d vertices, %d darts)" % (len(self.vertices), len(self.darts))

    # -- connectivity ------------------------------------------------------

    def bfs(self, root: str, darts=None) -> dict:
        """Breadth-first spanning tree from ``root``: vertex -> the dart from
        its parent (None at the root), in visiting order.  Stars are walked
        in sorted order; given ``darts``, only the darts in it are followed."""
        self.star(root)
        star, origin, reverse = self._star, self.origin, self.reverse
        parent = {root: None}
        queue = deque([root])
        while queue:
            for d in star[queue.popleft()]:
                if darts is None or d in darts:
                    w = origin[reverse[d]]
                    if w not in parent:
                        parent[w] = d
                        queue.append(w)
        return parent

    def components(self) -> list:
        """Vertex sets of connected components, each sorted, smallest first."""
        seen = set()
        comps = []
        for v in self.vertices:
            if v not in seen:
                comp = self.bfs(v)
                seen.update(comp)
                comps.append(tuple(sorted(comp)))
        # each component starts at its least vertex, so comps is sorted
        return comps

    def is_connected(self) -> bool:
        return (len(self.vertices) <= 1
                or len(self.bfs(self.vertices[0])) == len(self.vertices))

    def restrict(self, vertices) -> "Graph":
        """Induced subgraph on a union of components.

        Darts with exactly one endpoint inside would break the reversal
        involution, so the vertex set must be component-closed.
        """
        vs = set(vertices)
        ds = {d for d in self.darts
              if self.origin[d] in vs and self.head(d) in vs}
        for d in self.darts:
            if self.origin[d] in vs and self.head(d) not in vs:
                raise GraphError("restriction is not component-closed at %r" % d)
        return Graph(
            sorted(vs), ds,
            {d: self.origin[d] for d in ds},
            {d: self.reverse[d] for d in ds},
            {v: c for v, c in self.vertex_colour.items() if v in vs},
            {d: c for d, c in self.dart_colour.items() if d in ds},
        )

    def distances_from(self, v0: str) -> dict:
        dist = {}
        for v, d in self.bfs(v0).items():
            dist[v] = 0 if d is None else dist[self.origin[d]] + 1
        return dist

    def diameter(self) -> int:
        if not self.is_connected():
            raise GraphError("connected graph required")
        best = 0
        for v in self.vertices:
            best = max(best, max(self.distances_from(v).values(), default=0))
        return best


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)


def validate_graph(g: Graph) -> ValidationReport:
    """Check the dart-model invariants; violations are data, not failures."""
    bad = []
    vs, ds = set(g.vertices), set(g.darts)
    for d in g.darts:
        v = g.origin.get(d)
        if v is None:
            bad.append("missing origin for dart %r" % d)
        elif v not in vs:
            bad.append("origin of dart %r is not a vertex: %r" % (d, v))
        r = g.reverse.get(d)
        if r is None:
            bad.append("missing reversal for dart %r" % d)
            continue
        if r not in ds:
            bad.append("reversal of dart %r is not a dart: %r" % (d, r))
            continue
        if r == d:
            bad.append("fixed point of reversal: %r" % d)
        elif g.reverse.get(r) != d:
            bad.append("reversal not involutive on pair (%r, %r)" % (d, r))
    return ValidationReport(not bad, bad)


# -- morphisms --------------------------------------------------------------


class GraphMorphism:
    """A map of graphs given by vertex and dart tables."""

    __slots__ = ("source", "target", "vmap", "dmap")

    def __init__(self, source: Graph, target: Graph, vmap: dict, dmap: dict):
        self.source = source
        self.target = target
        self.vmap = dict(vmap)
        self.dmap = dict(dmap)

    def violations(self) -> list:
        bad = []
        src, tgt, vmap, dmap = self.source, self.target, self.vmap, self.dmap
        target_vertices, target_darts = set(tgt.vertices), set(tgt.darts)
        for v in src.vertices:
            if vmap.get(v) not in target_vertices:
                bad.append("vertex %r has no valid image" % (v,))
        s_origin, s_reverse, t_origin, t_reverse = (src.origin, src.reverse,
                                                    tgt.origin, tgt.reverse)
        # colours are compared only where both graphs carry them
        s_colour, t_colour = src.dart_colour, tgt.dart_colour
        for d in src.darts:
            e = dmap.get(d)
            if e not in target_darts:
                bad.append("dart %r has no valid image" % (d,))
                continue
            if vmap.get(s_origin[d]) != t_origin[e]:
                bad.append("origin not preserved at dart %r" % (d,))
            if dmap.get(s_reverse[d]) != t_reverse[e]:
                bad.append("reversal not preserved at dart %r" % (d,))
            if s_colour and t_colour:
                sc, tc = s_colour.get(d), t_colour.get(e)
                if sc is not None and tc is not None and sc != tc:
                    bad.append("dart colour not preserved at %r" % (d,))
        s_colour, t_colour = src.vertex_colour, tgt.vertex_colour
        for v in (src.vertices if s_colour and t_colour else ()):
            sc, tc = s_colour.get(v), t_colour.get(vmap.get(v))
            if sc is not None and tc is not None and sc != tc:
                bad.append("vertex colour not preserved at %r" % (v,))
        return bad

    def is_valid(self) -> bool:
        return not self.violations()

    def __repr__(self):
        return "GraphMorphism(%r -> %r)" % (self.source, self.target)


def identity_morphism(g: Graph) -> GraphMorphism:
    return GraphMorphism(g, g, {v: v for v in g.vertices}, {d: d for d in g.darts})


def compose_morphisms(outer: GraphMorphism, inner: GraphMorphism) -> GraphMorphism:
    """outer after inner."""
    return GraphMorphism(
        inner.source, outer.target,
        {v: outer.vmap[w] for v, w in inner.vmap.items()},
        {d: outer.dmap[e] for d, e in inner.dmap.items()},
    )


@dataclass
class CoveringReport:
    ok: bool
    reason: Optional[str] = None
    witness: Optional[str] = None


def is_covering(m: GraphMorphism) -> CoveringReport:
    """Decide whether ``m`` is a covering; on failure return a witness.

    Raises ``GraphError`` if ``m`` is not even a graph morphism.
    """
    bad = m.violations()
    if bad:
        raise GraphError("not a graph morphism: " + "; ".join(bad[:3]))
    covered_v = set(m.vmap.values())
    for v in m.target.vertices:
        if v not in covered_v:
            return CoveringReport(False, "vertex not covered", v)
    covered_d = set(m.dmap.values())
    for d in m.target.darts:
        if d not in covered_d:
            return CoveringReport(False, "dart not covered", d)
    vmap, dmap, target_star = m.vmap, m.dmap, m.target._star
    for v, star in m.source._star.items():
        # violations() put the image of every dart of the star into the star
        # of vmap[v], so the star map is a bijection exactly when the images
        # are distinct and as many as the darts of that star
        if not len({dmap[d] for d in star}) == len(star) == len(target_star[vmap[v]]):
            return CoveringReport(False, "star map not bijective", v)
    return CoveringReport(True)


@dataclass
class Cover:
    """A finite graph with two coverings onto the inputs: every backend's
    result.  The groupoid backends add ``n_multiple``, the provenance labels
    (id -> (arrow or atom serial, copy)) and the ``based_vertex`` of a
    pinned cut; ``extra`` holds one backend's facts (gluing ``weights`` and
    ``subdivided``, the regular ``bound``)."""

    graph: Graph
    mu1: GraphMorphism
    mu2: GraphMorphism
    component_sizes: tuple
    n_multiple: Optional[int] = None
    vertex_label: Optional[dict] = None
    dart_label: Optional[dict] = None
    based_vertex: Optional[str] = None
    extra: dict = field(default_factory=dict)

    @property
    def degrees(self) -> tuple:
        n = len(self.graph.vertices)
        return (n // len(self.mu1.target.vertices),
                n // len(self.mu2.target.vertices))

    @property
    def total_vertices(self) -> int:
        return sum(self.component_sizes)


def _verify_cover(mu1: GraphMorphism, mu2: GraphMorphism, what: str) -> None:
    for name, mu in (("mu1", mu1), ("mu2", mu2)):
        try:
            rep = is_covering(mu)
        except GraphError as exc:
            raise VerificationError("%s%s: %s" % (what, name, exc)) from exc
        if not rep.ok:
            raise VerificationError("%s%s is not a covering: %s at %r"
                                    % (what, name, rep.reason, rep.witness))
        if len(mu.source.vertices) % len(mu.target.vertices):
            raise VerificationError("%s%s: cover size is not a multiple of a "
                                    "base size" % (what, name))


def finish_cover(mu1: GraphMorphism, mu2: GraphMorphism,
                 component: str = "least", seed: Optional[str] = None,
                 n_multiple: Optional[int] = None,
                 vertex_label: Optional[dict] = None,
                 dart_label: Optional[dict] = None, **extra) -> Cover:
    """The one exit of every backend: verify, cut to a component, record.

    ``mu1`` and ``mu2`` share the assembled cover graph as source.  The
    graph is validated, both maps are verified as coverings and the
    component sizes are recorded.  A cover of several components is cut to
    the ``seed`` vertex's component or, unless ``component`` is "all", to
    the least one (smallest, ties broken by the sorted vertex ids).  A cut
    is verified again and the provenance labels are restricted with it.
    """
    if component not in ("least", "all"):
        raise GraphError("unknown component option: %r" % (component,))
    check = validate_graph(mu1.source)
    if not check.ok:
        raise VerificationError("assembled graph invalid: " + check.violations[0])
    _verify_cover(mu1, mu2, "")
    comps = mu1.source.components()
    if seed is not None or component == "least":
        if seed is None:
            chosen = min(comps, key=lambda c: (len(c), c))
        else:
            chosen = next(c for c in comps if seed in c)
        if len(comps) > 1:
            sub = mu1.source.restrict(chosen)
            mu1, mu2 = [GraphMorphism(sub, mu.target,
                                      {v: mu.vmap[v] for v in sub.vertices},
                                      {d: mu.dmap[d] for d in sub.darts})
                        for mu in (mu1, mu2)]
            _verify_cover(mu1, mu2, "component ")
            if vertex_label is not None:
                vertex_label = {v: vertex_label[v] for v in sub.vertices}
                dart_label = {d: dart_label[d] for d in sub.darts}
    return Cover(mu1.source, mu1, mu2, tuple(len(c) for c in comps), n_multiple,
                 vertex_label, dart_label, seed, extra)


# -- constructions -----------------------------------------------------------


def pair_id(a: str, b: str) -> str:
    return "(%s|%s)" % (a, b)


@dataclass
class FiberProduct:
    graph: Graph
    proj1: GraphMorphism
    proj2: GraphMorphism
    vertex_pairs: dict
    dart_pairs: dict


def fiber_product(m1: GraphMorphism, m2: GraphMorphism) -> FiberProduct:
    """Pullback of two coverings onto the same finite graph.

    Vertices are pairs with equal images, darts likewise; both projections
    are again coverings.
    """
    if m1.target != m2.target:
        raise GraphError("fiber product requires coverings onto the same graph")
    for m in (m1, m2):
        if not is_covering(m).ok:
            raise GraphError("fiber product requires coverings")
    g1, g2 = m1.source, m2.source
    over_v, over_d = {}, {}
    for v in g2.vertices:
        over_v.setdefault(m2.vmap[v], []).append(v)
    for e in g2.darts:
        over_d.setdefault(m2.dmap[e], []).append(e)
    vpairs = [(u, v) for u in g1.vertices for v in over_v.get(m1.vmap[u], ())]
    dpairs = [(d, e) for d in g1.darts for e in over_d.get(m1.dmap[d], ())]
    vertex_pairs = {pair_id(*p): p for p in vpairs}
    dart_pairs = {pair_id(*p): p for p in dpairs}
    origin = {i: pair_id(g1.origin[d], g2.origin[e]) for i, (d, e) in dart_pairs.items()}
    reverse = {i: pair_id(g1.reverse[d], g2.reverse[e])
               for i, (d, e) in dart_pairs.items()}
    vcol = {i: g1.vertex_colour[u] for i, (u, _) in vertex_pairs.items()
            if u in g1.vertex_colour}
    dcol = {i: g1.dart_colour[d] for i, (d, _) in dart_pairs.items()
            if d in g1.dart_colour}
    graph = Graph(vertex_pairs, dart_pairs, origin, reverse, vcol, dcol)
    proj1, proj2 = [GraphMorphism(graph, g, {i: p[k] for i, p in vertex_pairs.items()},
                                  {i: p[k] for i, p in dart_pairs.items()})
                    for k, g in enumerate((g1, g2))]
    return FiberProduct(graph, proj1, proj2, vertex_pairs, dart_pairs)


def disjoint_union(g1: Graph, g2: Graph, prefix1: str = "1:", prefix2: str = "2:") -> Graph:
    """Disjoint union with prefixed identifiers (used for joint refinement)."""

    def tag(prefix, g):
        return (
            [prefix + v for v in g.vertices],
            [prefix + d for d in g.darts],
            {prefix + d: prefix + v for d, v in g.origin.items()},
            {prefix + d: prefix + e for d, e in g.reverse.items()},
            {prefix + v: c for v, c in g.vertex_colour.items()},
            {prefix + d: c for d, c in g.dart_colour.items()},
        )

    a = tag(prefix1, g1)
    b = tag(prefix2, g2)
    return Graph(a[0] + b[0], a[1] + b[1],
                 {**a[2], **b[2]}, {**a[3], **b[3]},
                 {**a[4], **b[4]}, {**a[5], **b[5]})


def side_of(prefixed: str) -> int:
    """Which input graph a prefixed identifier belongs to (1 or 2)."""
    if prefixed.startswith("1:"):
        return 1
    if prefixed.startswith("2:"):
        return 2
    raise GraphError("identifier %r carries no side prefix" % (prefixed,))


def strip_side(prefixed: str) -> str:
    return prefixed[2:]
