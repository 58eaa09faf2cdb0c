"""Half-edge (dart) multigraphs, morphisms, covering checks and covers.

A graph is a finite set of vertices together with a finite set of darts
(half-edges).  Every dart knows its origin vertex and its reversal partner;
the reversal map is required to be a fixed-point-free involution, so a
geometric edge is an unordered pair ``{e, reverse(e)}`` and loops and
parallel edges are unambiguous.  Vertices and darts may carry optional
colour labels, held as one column per kind (colour per index, None where
an element has none).

Conventions used throughout the package:

* identifiers are strings, and every iteration runs in sorted identifier
  order, so all derived constructions are deterministic;
* the head of a dart is ``origin(reverse(e))`` and is never stored;
* a morphism maps vertices to vertices and darts to darts, preserving
  origins and reversal; a covering is a surjective morphism restricting to
  a bijection on every star.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, filterfalse, islice, repeat
from operator import add, eq, gt, le, mul, ne, sub
from typing import Mapping, Optional


class GraphError(ValueError):
    """Raised for structurally invalid graphs, morphisms or arguments (exit 2)."""


class BudgetExceeded(Exception):
    """A search or construction outgrew its configured budget (exit 2)."""


class VerificationError(RuntimeError):
    """An artifact failed the program's own check (exit 3)."""


def _positions(ids) -> dict:
    """id -> its index."""
    return dict(zip(ids, count()))


def _where(flags) -> list:
    """The indices of the true flags, in order."""
    return list(compress(count(), flags))


def _equal_to(values: list, x) -> list:
    """The indices of the entries equal to ``x``."""
    return _where(map(eq, values, repeat(x))) if x in values else []


def _differ(a: list, b: list) -> list:
    """The indices where two lists of one length differ."""
    return [] if a == b else _where(map(ne, a, b))


def _clashes(s_col: Optional[list], t_col: Optional[list], images: list) -> set:
    """The indices whose colour and whose image's colour are both set and
    differ; none unless both graphs carry colours."""
    if s_col is None or t_col is None:
        return set()
    tc = list(map(t_col.__getitem__, images))
    return {i for i in _differ(s_col, tc) if s_col[i] is not None and tc[i] is not None}


def colours_at(column: Optional[list], indices) -> Optional[list]:
    """The entries of a colour column at ``indices``; no column gives none."""
    return None if column is None else list(map(column.__getitem__, indices))


def _rendered(ids, table: list, names: tuple) -> dict:
    """id -> the name at its index in ``table``, where that is not -1."""
    if -1 in table:
        return {i: names[t] for i, t in zip(ids, table) if t >= 0}
    return dict(zip(ids, map(names.__getitem__, table)))


def _inverse(perm: list) -> list:
    """The inverse of a permutation of ``range(len(perm))``."""
    inv = [0] * len(perm)
    deque(map(inv.__setitem__, perm, count()), maxlen=0)
    return inv


def _buckets(images: list, n: int):
    """The indices grouped by image in ``range(n)``: (order, first), with the
    indices of image b at ``order[first[b]:first[b + 1]]`` in increasing
    order.  Indices whose image is -1 come first and are in no group."""
    order = sorted(range(len(images)), key=images.__getitem__)
    return order, list(map(bisect_left, repeat(list(map(images.__getitem__, order))),
                           range(n + 1)))


def _sizes(first: list) -> list:
    """The group sizes of the offsets ``first`` of ``_buckets``."""
    return list(map(sub, islice(first, 1, None), first))


class Graph:
    """A finite multigraph in the dart model.

    A graph is its index tables: vertex and dart i are the i-th identifiers
    in sorted order, ``org[i]`` and ``rev[i]`` are the indices of the origin
    and the reversal of dart i (-1 where that is missing or not a vertex or
    dart), ``vcol[i]`` and ``dcol[i]`` are the colours of vertex and dart i
    (None where it has none; a column is None where no element has one),
    and ``stars()`` is built on first use.  The whole-table checks below run
    on the index tables, with no Python step per dart.  ``origin``,
    ``reverse`` (dart id -> id), ``vertex_colour`` and ``dart_colour`` (id ->
    colour) are views rendered from the tables on each use, for output and
    messages.

    The constructor takes id dicts through ``graph_from_ids``, as the
    graph file reader takes its columns.  It is permissive: it accepts
    structurally broken data (non-involutive reversal, missing origins) so
    that ``validate_graph`` can report violations instead of crashing, and
    keeps the given entries of the darts whose tables hold -1 for those
    messages.  All operations other than validation assume a valid graph.
    """

    __slots__ = ("vertices", "darts", "org", "rev", "vcol", "dcol",
                 "_given", "_index", "_stars")

    def __init__(self, vertices, darts, origin, reverse,
                 vertex_colour=None, dart_colour=None):
        vertices, darts = list(vertices), list(darts)
        vcol, dcol = [list(map(colours.get, ids)) if colours else None
                      for colours, ids in ((vertex_colour, vertices), (dart_colour, darts))]
        g = graph_from_ids(vertices, darts, list(map(origin.get, darts)),
                           list(map(reverse.get, darts)), vcol, dcol)
        self._set(g.vertices, g.darts, g.org, g.rev, g.vcol, g.dcol, g._given)

    @classmethod
    def from_tables(cls, vertices, darts, org, rev, vcol=None, dcol=None) -> "Graph":
        """The graph on sorted, distinct ``vertices`` and ``darts`` whose
        dart i has origin ``vertices[org[i]]`` and reversal ``darts[rev[i]]``,
        where those are not -1, and the colours ``vcol[i]`` and ``dcol[i]``."""
        g = cls.__new__(cls)
        g._set(tuple(vertices), tuple(darts), org, rev, vcol, dcol, None)
        return g

    def _set(self, vertices, darts, org, rev, vcol, dcol, given):
        self.vertices, self.darts, self.org, self.rev = vertices, darts, org, rev
        # a column with no colour in it is no column
        self.vcol, self.dcol = [None if c is None or c.count(None) == len(c) else c
                                for c in (vcol, dcol)]
        self._given, self._index, self._stars = given, None, None

    def _view(self, table: list, names: tuple, given: int) -> dict:
        """dart id -> the name at its index in ``table``; where that is -1,
        the entry the constructor was given, if any."""
        view = _rendered(self.darts, table, names)
        view.update((self.darts[i], self._given[i][given]) for i in _equal_to(table, -1)
                    if self._given[i][given] is not None)
        return view

    @property
    def origin(self) -> dict:
        """dart id -> the id of its origin."""
        return self._view(self.org, self.vertices, 0)

    @property
    def reverse(self) -> dict:
        """dart id -> the id of its reversal."""
        return self._view(self.rev, self.darts, 1)

    @property
    def vertex_colour(self) -> dict:
        """vertex id -> its colour, where it has one."""
        return {v: c for v, c in zip(self.vertices, self.vcol or ()) if c is not None}

    @property
    def dart_colour(self) -> dict:
        """dart id -> its colour, where it has one."""
        return {d: c for d, c in zip(self.darts, self.dcol or ()) if c is not None}

    def index(self) -> tuple:
        """(vertex id -> index, dart id -> index), built on first use."""
        if self._index is None:
            self._index = _positions(self.vertices), _positions(self.darts)
        return self._index

    def stars(self) -> list:
        """Per vertex index, the indices of its darts in order; built on
        first use and shared by every caller, which must not change it.  A
        dart whose origin is -1 is in no star."""
        if self._stars is None:
            stars = [[] for _ in range(len(self.vertices) + 1)]
            for d, v in enumerate(self.org):
                stars[v].append(d)
            stars.pop()                 # the darts at -1
            self._stars = list(map(tuple, stars))
        return self._stars

    # -- basic queries ----------------------------------------------------

    def star(self, v: str) -> tuple:
        """Sorted darts with origin ``v``."""
        i = self.index()[0].get(v)
        if i is None:
            raise GraphError("vertex not in graph: %r" % (v,))
        return tuple(map(self.darts.__getitem__, self.stars()[i]))

    def degree(self, v: str) -> int:
        return len(self.star(v))

    def head(self, d: str) -> str:
        """Terminal vertex of a dart: origin of its reversal."""
        return self.vertices[self.org[self.rev[self.index()[1][d]]]]

    def edge_reps(self) -> tuple:
        """One canonical dart (the smaller identifier) per geometric edge."""
        # darts are numbered in id order, so d <= reverse d is i <= rev[i]
        return tuple(compress(self.darts, map(le, count(), self.rev)))

    def canonical(self) -> tuple:
        """Canonical form, used for equality: the tables, the entries kept
        of a broken graph and the colour columns."""
        return self.vertices, self.darts, self.org, self.rev, self._given, self.vcol, self.dcol

    def __eq__(self, other):
        return isinstance(other, Graph) and self.canonical() == other.canonical()

    def __repr__(self):
        return "Graph(%d vertices, %d darts)" % (len(self.vertices), len(self.darts))

    # -- connectivity ------------------------------------------------------

    def bfs(self, root: int, darts=None) -> dict:
        """Breadth-first spanning tree from vertex index ``root``: vertex
        index -> the index of the dart from its parent (-1 at the root), in
        visiting order.  Stars are walked in dart order; given ``darts``, a
        set of dart indices, only the darts in it are followed."""
        if not 0 <= root < len(self.vertices):
            raise GraphError("vertex not in graph: %r" % (root,))
        stars, org, rev = self.stars(), self.org, self.rev
        parent, queue = {root: -1}, [root]
        for v in queue:
            for d in stars[v]:
                w = org[rev[d]]
                if w not in parent and (darts is None or d in darts):
                    parent[w] = d
                    queue.append(w)
        return parent

    def components(self) -> list:
        """Vertex sets of connected components, each sorted, smallest first.

        Each component grows a whole breadth-first layer per step, as a set
        of vertex indices."""
        stars, heads = self.stars(), list(map(self.org.__getitem__, self.rev))
        n, done, comps, root = len(self.vertices), set(), [], 0
        while (root := next(filterfalse(done.__contains__, range(root, n)), None)) is not None:
            comp, layer = {root}, (root,)
            while layer:
                layer = set(map(heads.__getitem__,
                                chain.from_iterable(map(stars.__getitem__, layer))))
                layer -= comp
                comp |= layer
            done |= comp
            comps.append(tuple(map(self.vertices.__getitem__, sorted(comp))))
        # each component starts at its least vertex, so comps is sorted
        return comps

    def is_connected(self) -> bool:
        return len(self.vertices) <= 1 or len(self.bfs(0)) == len(self.vertices)

    def restrict(self, vertices) -> "Graph":
        """Induced subgraph on a union of components.

        Darts with exactly one endpoint inside would break the reversal
        involution, so the vertex set must be component-closed.
        """
        vertices = tuple(vertices)
        picked = list(map(self.index()[0].get, vertices, repeat(-1)))
        if -1 in picked:
            raise GraphError("vertex not in graph: %r" % (vertices[picked.index(-1)],))
        kept = [False] * len(self.vertices)
        deque(map(kept.__setitem__, picked, repeat(True)), maxlen=0)
        org, rev = self.org, self.rev
        inside = list(map(kept.__getitem__, org))
        head_inside = list(map(inside.__getitem__, rev))
        if inside != head_inside:
            d = next(compress(self.darts, map(gt, inside, head_inside)))
            raise GraphError("restriction is not component-closed at %r" % d)
        kv, kd = _where(kept), _where(inside)
        vnew, dnew = [-1] * len(kept), [-1] * len(inside)
        deque(map(vnew.__setitem__, kv, count()), maxlen=0)
        deque(map(dnew.__setitem__, kd, count()), maxlen=0)
        return Graph.from_tables(
            list(map(self.vertices.__getitem__, kv)), list(map(self.darts.__getitem__, kd)),
            list(map(vnew.__getitem__, map(org.__getitem__, kd))),
            list(map(dnew.__getitem__, map(rev.__getitem__, kd))),
            colours_at(self.vcol, kv), colours_at(self.dcol, kd))

    def distances_from(self, v0: int) -> dict:
        """Vertex index -> its distance from vertex index ``v0``, for the
        vertices reachable from it, in visiting order."""
        dist, org = {}, self.org
        for v, d in self.bfs(v0).items():
            dist[v] = 0 if d < 0 else dist[org[d]] + 1
        return dist

    def diameter(self) -> int:
        if not self.is_connected():
            raise GraphError("connected graph required")
        return max((max(self.distances_from(v).values()) for v in range(len(self.vertices))),
                   default=0)


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)


def validate_graph(g: Graph) -> ValidationReport:
    """Check the dart-model invariants; violations are data, not failures.

    The failing darts are found by whole-table passes and their messages
    rendered in dart order."""
    org, rev = g.org, g.rev
    index = list(range(len(rev)))
    failing = set(_equal_to(org, -1))
    failing.update(_equal_to(rev, -1))
    failing.update(_where(map(eq, rev, index)))
    # rev[-1] stands in where a reversal is missing; that dart fails above
    failing.update(_differ(list(map(rev.__getitem__, rev)), index))
    bad, given = [], g._given or {}
    for i in sorted(failing):
        d, r = g.darts[i], rev[i]
        v, w = given.get(i, (None, None))
        if org[i] < 0:
            bad.append("missing origin for dart %r" % d if v is None else
                       "origin of dart %r is not a vertex: %r" % (d, v))
        if r < 0:
            bad.append("missing reversal for dart %r" % d if w is None else
                       "reversal of dart %r is not a dart: %r" % (d, w))
        elif r == i:
            bad.append("fixed point of reversal: %r" % d)
        elif rev[r] != i:
            bad.append("reversal not involutive on pair (%r, %r)" % (d, g.darts[r]))
    return ValidationReport(not bad, bad)


# -- morphisms --------------------------------------------------------------


class GraphMorphism:
    """A map of graphs given by index tables: ``vm`` and ``dm`` (-1 where an
    image is missing or not in the target).  The constructor converts id
    dicts; ``vmap`` and ``dmap`` are views of the valid images by
    identifier, rendered from the tables on each use."""

    __slots__ = ("source", "target", "vm", "dm")

    def __init__(self, source: Graph, target: Graph, vmap: dict, dmap: dict):
        vindex, dindex = target.index()
        self.source, self.target = source, target
        self.vm = list(map(vindex.get, map(vmap.get, source.vertices), repeat(-1)))
        self.dm = list(map(dindex.get, map(dmap.get, source.darts), repeat(-1)))

    @classmethod
    def from_tables(cls, source: Graph, target: Graph, vm: list, dm: list) -> "GraphMorphism":
        """The morphism with the index tables ``vm`` and ``dm``."""
        m = cls.__new__(cls)
        m.source, m.target, m.vm, m.dm = source, target, vm, dm
        return m

    @property
    def vmap(self) -> dict:
        return _rendered(self.source.vertices, self.vm, self.target.vertices)

    @property
    def dmap(self) -> dict:
        return _rendered(self.source.darts, self.dm, self.target.darts)

    def violations(self) -> list:
        """Every failure to be a graph morphism, in the order: vertex images,
        then per dart its image, origin, reversal and colour, then vertex
        colours.  Colours are compared only where both graphs carry them."""
        src, tgt, vm, dm = self.source, self.target, self.vm, self.dm
        missing_v, missing = _equal_to(vm, -1), _equal_to(dm, -1)
        bad = ["vertex %r has no valid image" % (src.vertices[i],) for i in missing_v]
        failing, clash = missing, set()
        # dm[i] = -1 reads the last entry of a target table: such a dart is
        # reported as having no image and checked no further
        if len(missing) < len(dm):
            clash = _clashes(src.dcol, tgt.dcol, dm)
            failing = [*missing, *clash,
                       *_differ(list(map(vm.__getitem__, src.org)),
                                list(map(tgt.org.__getitem__, dm))),
                       *_differ(list(map(dm.__getitem__, src.rev)),
                                list(map(tgt.rev.__getitem__, dm)))]
        for i in sorted(set(failing)):
            d, e = src.darts[i], dm[i]
            if e < 0:
                bad.append("dart %r has no valid image" % (d,))
                continue
            if vm[src.org[i]] != tgt.org[e]:
                bad.append("origin not preserved at dart %r" % (d,))
            if dm[src.rev[i]] != tgt.rev[e]:
                bad.append("reversal not preserved at dart %r" % (d,))
            if i in clash:
                bad.append("dart colour not preserved at %r" % (d,))
        if len(missing_v) < len(vm):
            clash = _clashes(src.vcol, tgt.vcol, vm)
            bad += ["vertex colour not preserved at %r" % (src.vertices[i],)
                    for i in sorted(clash.difference(missing_v))]
        return bad

    def __repr__(self):
        return "GraphMorphism(%r -> %r)" % (self.source, self.target)


def identity_morphism(g: Graph) -> GraphMorphism:
    return GraphMorphism.from_tables(g, g, list(range(len(g.vertices))),
                                     list(range(len(g.darts))))


def compose_morphisms(outer: GraphMorphism, inner: GraphMorphism) -> GraphMorphism:
    """outer after inner: two maps with every image valid, inner into the
    source of outer."""
    if ((inner.target.vertices, inner.target.darts) != (outer.source.vertices, outer.source.darts)
            or -1 in inner.vm or -1 in inner.dm or -1 in outer.vm or -1 in outer.dm):
        raise GraphError("cannot compose: inner must map into the source of outer")
    return GraphMorphism.from_tables(inner.source, outer.target,
                                     list(map(outer.vm.__getitem__, inner.vm)),
                                     list(map(outer.dm.__getitem__, inner.dm)))


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
    src, tgt, vm, dm = m.source, m.target, m.vm, m.dm
    for reason, ids, images in (("vertex not covered", tgt.vertices, vm),
                                ("dart not covered", tgt.darts, dm)):
        covered = set(images)
        if len(covered) < len(ids):
            return CoveringReport(False, reason, ids[next(
                filterfalse(covered.__contains__, count()))])
    # violations() put the images of the darts of each star into the star
    # of the image vertex.  So every star map is a bijection exactly when
    # no two darts of one star share an image and the target stars of the
    # source vertices hold as many darts as the source: maps into them,
    # each injective, fill them all only when the sizes add up.
    t_degree = list(map(len, tgt.stars()))
    if (sum(map(t_degree.__getitem__, vm)) != len(dm)
            or len(set(map(add, map(mul, src.org, repeat(len(tgt.darts))), dm))) < len(dm)):
        for v, star in enumerate(src.stars()):
            if not len(set(map(dm.__getitem__, star))) == len(star) == t_degree[vm[v]]:
                return CoveringReport(False, "star map not bijective", src.vertices[v])
    return CoveringReport(True)


@dataclass
class Cover:
    """A finite graph with two coverings onto the inputs: every build's
    result.  The groupoid backends add ``n_multiple``, the provenance labels
    (id -> (arrow or atom serial, copy)) and a pinned cut's ``based_vertex``;
    ``extra`` holds one backend's facts: gluing ``weights`` and ``subdivided``,
    the regular ``bound``, an object cover's two ``ObjectGraphMorphism`` as ``objects``."""

    graph: Graph
    mu1: GraphMorphism
    mu2: GraphMorphism
    component_sizes: tuple
    n_multiple: Optional[int] = None
    vertex_label: Optional[Mapping] = None
    dart_label: Optional[Mapping] = None
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


def size_fact_failure(n: int, n1: int, n2: int, degrees, sizes, bound, total, multiple):
    """The first size fact recorded with a cover of n vertices onto graphs of
    n1 and n2 vertices (None where not recorded) that fails, as (fact,
    value, what it should be), or None; each check is constant time.  The
    n_multiple of a local system bounds both degrees: over a vertex x the
    cover has cross(x) n_multiple / out(x) vertices, and cross(x) <= out(x)."""
    most = 2 * n1 * n2
    for fact, value, ok, claim in (
            ("degrees", degrees, degrees in (None, [n / n1, n / n2]),
             "|V(C)|/|V(g_i)| on each side"),
            ("component_sizes", sizes, sizes is None or isinstance(sizes, list) and all(
                type(s) is int for s in sizes) and (n in sizes or n == sum(sizes)),
             "a list with |V(C)| as an entry or as its sum"),
            ("bound", bound, bound is None or type(bound) is int and n <= bound <= most,
             "between |V(C)| and 2|V(g1)||V(g2)|"),
            ("total_vertices", total, total is None or type(total) is int
             and n <= total <= (most if bound is None else bound),
             "between |V(C)| and the bound"),
            ("n_multiple", multiple, multiple is None or type(multiple) is int
             and 0 < multiple and n <= multiple * min(n1, n2),
             "a positive int no smaller than either degree")):
        if not ok:
            return fact, value, claim
    return None


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


def numbered_ids(formats: tuple, numbers: range) -> list:
    """The ids ``f % k`` for k in ``numbers`` and each format f, in that
    order, which is their sorted order below a million only."""
    if numbers and numbers[-1] >= 10 ** 6:
        raise BudgetExceeded("a cover of more than a million vertices or darts")
    return [f % k for k in numbers for f in formats]


def finish_cover(mu1: GraphMorphism, mu2: GraphMorphism,
                 component: str = "least", seed: Optional[str] = None,
                 n_multiple: Optional[int] = None,
                 vertex_label: Optional[Mapping] = None,
                 dart_label: Optional[Mapping] = None, **extra) -> Cover:
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
            vindex, dindex = mu1.source.index()
            kv = list(map(vindex.__getitem__, sub.vertices))
            kd = list(map(dindex.__getitem__, sub.darts))
            mu1, mu2 = [GraphMorphism.from_tables(sub, mu.target,
                                                  list(map(mu.vm.__getitem__, kv)),
                                                  list(map(mu.dm.__getitem__, kd)))
                        for mu in (mu1, mu2)]
            _verify_cover(mu1, mu2, "component ")
            if vertex_label is not None:            # ``cover_builder.Labels``
                vertex_label, dart_label = vertex_label.take(kv), dart_label.take(kd)
    return Cover(mu1.source, mu1, mu2, tuple(len(c) for c in comps), n_multiple,
                 vertex_label, dart_label, seed, extra)


# -- constructions -----------------------------------------------------------


@dataclass
class FiberProduct:
    graph: Graph
    proj1: GraphMorphism
    proj2: GraphMorphism


def fiber_product(m1: GraphMorphism, m2: GraphMorphism) -> FiberProduct:
    """Pullback of two coverings onto the same finite graph.

    Vertices are pairs with equal images, darts likewise; both projections
    are again coverings.  Both maps are checked first; ``pullback`` is the
    pairing alone.
    """
    if m1.target != m2.target:
        raise GraphError("fiber product requires coverings onto the same graph")
    for m in (m1, m2):
        if not is_covering(m).ok:
            raise GraphError("fiber product requires coverings")
    return pullback(m1, m2)


def _pairs(images1: list, images2: list, n: int) -> tuple:
    """The pairs (i, j) with ``images1[i] == images2[j]`` in ``range(n)``,
    grouped by image and in (i, j) order within a group: (left, right, at1,
    at2), the pair at position p being (left[p], right[p]) and the pair
    (i, j) at position ``at1[i] + at2[j]``."""
    order1, first1 = _buckets(images1, n)
    order2, first2 = _buckets(images2, n)
    size1, size2 = _sizes(first1), _sizes(first2)
    start = [0, *accumulate(map(mul, size1, size2))]
    left, right = [], []
    for b in range(n):
        ones, twos = order1[first1[b]:first1[b + 1]], order2[first2[b]:first2[b + 1]]
        left += chain.from_iterable(map(repeat, ones, repeat(len(twos))))
        right += twos * len(ones)
    # the rank of i within its group, times the size of the other group
    rank1 = map(sub, _inverse(order1), map(first1.__getitem__, images1))
    at1 = list(map(add, map(start.__getitem__, images1),
                   map(mul, rank1, map(size2.__getitem__, images1))))
    at2 = list(map(sub, _inverse(order2), map(first2.__getitem__, images2)))
    return left, right, at1, at2


def _pair_ids(names1: tuple, names2: tuple, left: list, right: list) -> tuple:
    """The ids ``(a|b)`` of the pairs, sorted, and the sort permutation."""
    heads = ["(" + a + "|" for a in names1]
    tails = [b + ")" for b in names2]
    ids = list(map(add, map(heads.__getitem__, left), map(tails.__getitem__, right)))
    order = sorted(range(len(ids)), key=ids.__getitem__)
    ids = list(map(ids.__getitem__, order))
    if any(map(eq, ids, islice(ids, 1, None))):
        raise GraphError("pair identifiers collide: %r" % next(
            compress(ids, map(eq, ids, islice(ids, 1, None)))))
    return ids, order


def pullback(m1: GraphMorphism, m2: GraphMorphism) -> FiberProduct:
    """``fiber_product`` without its input checks, for callers that have
    already verified both maps as coverings onto one graph (the regular
    path, whose factor coverings ``factorize_regular`` verifies).  Of other
    morphisms onto one graph it is still the pullback, but its projections
    need not be coverings.

    Pairs are index arithmetic within image buckets; each pair id is
    rendered once, and the cover takes g1's colours."""
    g1, g2, base = m1.source, m2.source, m1.target
    vleft, vright, vat1, vat2 = _pairs(m1.vm, m2.vm, len(base.vertices))
    dleft, dright, dat1, dat2 = _pairs(m1.dm, m2.dm, len(base.darts))
    vertices, vorder = _pair_ids(g1.vertices, g2.vertices, vleft, vright)
    darts, dorder = _pair_ids(g1.darts, g2.darts, dleft, dright)
    # cover vertex k is the pair (vm1[k], vm2[k]), cover dart k (dm1[k], dm2[k])
    vm1, vm2 = list(map(vleft.__getitem__, vorder)), list(map(vright.__getitem__, vorder))
    dm1, dm2 = list(map(dleft.__getitem__, dorder)), list(map(dright.__getitem__, dorder))
    vpos, dpos = _inverse(vorder), _inverse(dorder)
    org = list(map(vpos.__getitem__, map(add, map(vat1.__getitem__, map(g1.org.__getitem__, dm1)),
                                         map(vat2.__getitem__, map(g2.org.__getitem__, dm2)))))
    rev = list(map(dpos.__getitem__, map(add, map(dat1.__getitem__, map(g1.rev.__getitem__, dm1)),
                                         map(dat2.__getitem__, map(g2.rev.__getitem__, dm2)))))
    graph = Graph.from_tables(vertices, darts, org, rev,
                              colours_at(g1.vcol, vm1), colours_at(g1.dcol, dm1))
    return FiberProduct(graph, GraphMorphism.from_tables(graph, g1, vm1, dm1),
                        GraphMorphism.from_tables(graph, g2, vm2, dm2))


def sort_graph(vertices: list, darts: list, org: list, rev: list,
               vcol: Optional[list] = None, dcol: Optional[list] = None) -> tuple:
    """The graph on distinct ids given in any order, with tables ``org`` and
    ``rev`` of positions in those lists (-1 kept as -1) and colour columns
    in the order of the ids, as (graph, vorder, dorder): vertex k of the
    graph is ``vertices[vorder[k]]`` and dart k is ``darts[dorder[k]]``.
    This is the one builder of graphs given by ids; ids that come sorted are
    taken as they are, with no permutation."""
    vorder, dorder = [None if sorted(ids) == ids else sorted(range(len(ids)), key=ids.__getitem__)
                      for ids in (vertices, darts)]
    if dorder is not None:
        darts, org, rev = [list(map(t.__getitem__, dorder)) for t in (darts, org, rev)]
        rev = list(map((_inverse(dorder) + [-1]).__getitem__, rev))
        dcol = colours_at(dcol, dorder)
    if vorder is not None:
        vertices = list(map(vertices.__getitem__, vorder))
        org = list(map((_inverse(vorder) + [-1]).__getitem__, org))
        vcol = colours_at(vcol, vorder)
    return (Graph.from_tables(vertices, darts, org, rev, vcol, dcol),
            vorder or range(len(vertices)), dorder or range(len(darts)))


def graph_from_ids(vertices: list, darts: list, froms: list, tos: list,
                   vcol: Optional[list] = None, dcol: Optional[list] = None) -> Graph:
    """The graph on ids given in any order whose dart ``darts[i]`` has the
    origin ``froms[i]``, the reversal ``tos[i]`` and the colour ``dcol[i]``
    (vertex ``vertices[i]`` the colour ``vcol[i]``), built by ``sort_graph``.
    Duplicate ids raise.  An endpoint that is no id of its kind (None, 5, an
    unknown str) is -1 in the tables, and its dart keeps the given endpoints
    for the messages of ``validate_graph``; an unhashable one raises."""
    vindex, dindex = _positions(vertices), _positions(darts)
    if len(vindex) != len(vertices):
        raise GraphError("duplicate vertex identifiers")
    if len(dindex) != len(darts):
        raise GraphError("duplicate dart identifiers")
    g, _, dorder = sort_graph(vertices, darts, list(map(vindex.get, froms, repeat(-1))),
                              list(map(dindex.get, tos, repeat(-1))), vcol, dcol)
    broken = {*_equal_to(g.org, -1), *_equal_to(g.rev, -1)}
    if broken:
        g._given = {k: (froms[dorder[k]], tos[dorder[k]]) for k in broken}
    return g


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """The disjoint union, built from the two graphs' tables at an offset:
    vertex (dart) i is g1's vertex (dart) i below the number of g1's
    vertices (darts), and g2's at that offset above it.  Its ids, the one
    place where the side prefixes are spelled, are g1's after "1:" and g2's
    after "2:", which sort in that same order."""
    n1, m1 = len(g1.vertices), len(g1.darts)
    return Graph.from_tables(
        ["1:" + v for v in g1.vertices] + ["2:" + v for v in g2.vertices],
        ["1:" + d for d in g1.darts] + ["2:" + d for d in g2.darts],
        g1.org + [v + n1 for v in g2.org], g1.rev + [d + m1 for d in g2.rev],
        (g1.vcol or [None] * n1) + (g2.vcol or [None] * len(g2.vertices)),
        (g1.dcol or [None] * m1) + (g2.dcol or [None] * len(g2.darts)))
