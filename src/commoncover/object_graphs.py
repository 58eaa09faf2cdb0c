"""Graphs of finite objects: star maps, their closure, and object covers.

The concrete category here is finite directed multigraphs with optional
vertex and edge labels.  Structure-preserving maps (label and incidence
preserving, possibly non-bijective) decorate graph edges; bijective ones
play the role of isomorphisms in star maps and coverings.  Composites of
bijective and plain maps stay plain, so the two classes interact the way
the constructions require.

A star map from u to v consists of a bijection of stars plus a bijective
object map per dart, such that some single vertex object map makes every
decoration square commute; that vertex map rides along as the arrow's
witness word and is not part of a star map's identity.  Star maps are
permutations of numbered decorated stars, arrows of the one kernel the star
and ball systems use; the closure of a seed set is a finite groupoid, and
the induced local system feeds the generic cover assembly, after which the
cover is decorated with the first graph's objects along the covering map.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter, ne
from typing import NamedTuple, Optional

from .cover_builder import AxiomError, LocalSystem, Numbering, build_cover
from .graphs import (BudgetExceeded, Cover, Graph, GraphError, GraphMorphism,
                     VerificationError, disjoint_union, is_covering, validate_graph)
from .groupoids import PermArrow, gather, saturate

# the most atoms fixing a dart (the order of its isotropy group) that
# ``close_star_maps`` admits
ISOTROPY_CAP = 512
# the most vertices of a vertex object whose isomorphisms are searched for a
# seed given without a vertex_map (``all_object_isos`` tries each of their n!
# permutations; 8! = 40,320)
VERTEX_MAP_SEARCH_CAP = 8


# -- finite labelled multigraph objects and their maps -----------------------


class FiniteObject(NamedTuple):
    """A finite directed multigraph as index columns: vertex and edge i are
    the i-th sorted ids, ``src``/``dst`` give each edge's end vertices, and
    the label columns hold None where an element has no label.  Objects,
    their maps and object graphs are all columns; ids are rendered only for
    serials and files."""

    vertices: tuple
    edges: tuple
    src: tuple
    dst: tuple
    vertex_labels: tuple
    edge_labels: tuple


def make_object(vertices, edges=(), vertex_labels=()) -> FiniteObject:
    """The object of these vertex ids, (id, source, target, label) edges and
    (vertex, label) pairs.  A repeated id, or an edge end that is no vertex,
    raises GraphError."""
    vs, es = sorted(vertices), sorted(edges, key=itemgetter(0))
    ids = [e[0] for e in es]
    for kind, names in (("vertex", vs), ("edge", ids)):
        repeated = [a for a, b in zip(names, names[1:]) if a == b]
        if repeated:
            raise GraphError("duplicate %s id %r" % (kind, repeated[0]))
    at, n = dict(zip(vs, range(len(vs)))), len(es)
    ends = [at.get(e[k], -1) for k in (1, 2) for e in es]
    if -1 in ends:
        raise GraphError("edge %r: an end is not a vertex of the object"
                         % (ids[ends.index(-1) % n],))
    return FiniteObject(tuple(vs), tuple(ids), tuple(ends[:n]), tuple(ends[n:]),
                        tuple(map(dict(vertex_labels).get, vs)), tuple(e[3] for e in es))


class ObjMorphism(NamedTuple):
    """A map of objects as two index columns: ``vm[i]`` is the image of
    source vertex i and ``em[i]`` that of edge i, -1 for none; ``vmap`` and
    ``emap`` are (id, id) views rendered on use, ``serial`` their pair."""

    source: FiniteObject
    target: FiniteObject
    vm: tuple
    em: tuple

    @property
    def vmap(self) -> tuple:
        return tuple(zip(self.source.vertices, gather(self.vm)((*self.target.vertices, None))))

    @property
    def emap(self) -> tuple:
        return tuple(zip(self.source.edges, gather(self.em)((*self.target.edges, None))))

    @property
    def serial(self):
        return (self.vmap, self.emap)


def obj_morphism(source: FiniteObject, target: FiniteObject, vmap: dict,
                 emap: dict) -> ObjMorphism:
    """The map from ``source`` to ``target`` with the id tables vmap and
    emap, read at the ids of source (other keys are not read); an image
    that is missing or no id of target is -1."""
    columns = []
    for table, ids, images in ((vmap, source.vertices, target.vertices),
                               (emap, source.edges, target.edges)):
        at = dict(zip(images, range(len(images))))
        columns.append(tuple(at.get(table.get(i), -1) for i in ids))
    return ObjMorphism(source, target, *columns)


def obj_identity(x: FiniteObject) -> ObjMorphism:
    return ObjMorphism(x, x, tuple(range(len(x.vertices))), tuple(range(len(x.edges))))


def obj_compose(outer: ObjMorphism, inner: ObjMorphism) -> ObjMorphism:
    """outer after inner: one C-level gather per column; -1 (no image) stays -1."""
    return ObjMorphism(inner.source, outer.target, gather(inner.vm)(outer.vm + (-1,)),
                       gather(inner.em)(outer.em + (-1,)))


def obj_invert(m: ObjMorphism) -> ObjMorphism:
    """The inverse of an isomorphism: each column's indices sorted by image."""
    return ObjMorphism(m.target, m.source, *(tuple(sorted(range(len(c)), key=c.__getitem__))
                                             for c in (m.vm, m.em)))


def object_map_violation(x: FiniteObject, y: FiniteObject, m: ObjMorphism) -> Optional[str]:
    """The first element, vertices first, at which m is no structure-preserving
    map from x to y, or None; only a failing map is read element by element."""
    if m.source != x or m.target != y:
        return "map is not between these objects"
    vm, em = m.vm, m.em
    at_v, at_e = gather(vm), gather(em)
    if -1 not in vm and -1 not in em and (
            at_v(y.vertex_labels), at_e(y.edge_labels), at_e(y.src), at_e(y.dst)) == (
            x.vertex_labels, x.edge_labels, gather(x.src)(vm), gather(x.dst)(vm)):
        return None
    for v, w, label in zip(x.vertices, vm, x.vertex_labels):
        if w < 0:
            return "vertex %r has no valid image" % (v,)
        if label != y.vertex_labels[w]:
            return "vertex label not preserved at %r" % (v,)
    for e, f, s, d, label in zip(x.edges, em, x.src, x.dst, x.edge_labels):
        if f < 0:
            return "edge %r has no valid image" % (e,)
        if (vm[s], vm[d]) != (y.src[f], y.dst[f]):
            return "incidence not preserved at edge %r" % (e,)
        if label != y.edge_labels[f]:
            return "edge label not preserved at %r" % (e,)
    return None


def is_object_iso(x: FiniteObject, y: FiniteObject, m: Optional[ObjMorphism]) -> bool:
    return (m is not None and object_map_violation(x, y, m) is None
            and len(x.vertices) == len(y.vertices) == len(set(m.vm))
            and len(x.edges) == len(y.edges) == len(set(m.em)))


def all_object_isos(x: FiniteObject, y: FiniteObject) -> list:
    """All isomorphisms (tiny objects only): per vertex permutation in order,
    each product of bijections between edges of equal ends and label."""
    def edge_classes(*columns):        # (source, target, label) -> edge indices
        classes = {}
        for e, key in enumerate(zip(*columns)):
            classes.setdefault(key, []).append(e)
        return classes

    if len(x.vertices) != len(y.vertices) or len(x.edges) != len(y.edges):
        return []
    out, classes_y = [], edge_classes(y.src, y.dst, y.edge_labels)
    for perm in itertools.permutations(range(len(y.vertices))):
        classes = edge_classes(gather(x.src)(perm), gather(x.dst)(perm), x.edge_labels)
        if (gather(perm)(y.vertex_labels) != x.vertex_labels or classes.keys() != classes_y.keys()
                or any(len(classes[k]) != len(classes_y[k]) for k in classes)):
            continue
        keys = sorted(classes, key=lambda k: (k[:2], k[2] is not None, k[2] or ""))
        for combo in itertools.product(*(itertools.permutations(classes_y[k]) for k in keys)):
            pairs = sorted(p for k, images in zip(keys, combo) for p in zip(classes[k], images))
            out.append(ObjMorphism(x, y, perm, tuple(f for _, f in pairs)))
    return out


# -- graphs of objects ---------------------------------------------------------


@dataclass
class ObjectGraph:
    """Columns by vertex and dart index: an object per vertex and per dart
    (shared with its reverse), and per dart a map into its origin's."""

    graph: Graph
    vertex_objects: tuple
    edge_objects: tuple
    edge_morphisms: tuple


def validate_object_graph(x: ObjectGraph):
    g = x.graph
    report = validate_graph(g)
    bad = report.violations
    vobj, eobj = x.vertex_objects, x.edge_objects
    bad += ["missing vertex object at %r" % (v,) for v, obj in zip(g.vertices, vobj)
            if obj is None]
    for d, obj, m, o, r in zip(g.darts, eobj, x.edge_morphisms, g.org, g.rev):
        if obj is None:
            bad.append("missing edge object at %r" % (d,))
            continue
        if r < 0 or obj != eobj[r]:
            bad.append("edge objects differ across the reversal at %r" % (d,))
        if m is None:
            bad.append("missing edge morphism at %r" % (d,))
            continue
        if o >= 0 and vobj[o] is not None:
            err = object_map_violation(obj, vobj[o], m)
            if err:
                bad.append("edge morphism not structure-preserving at %r: %s" % (d, err))
    report.ok = not bad
    return report


# -- star maps -----------------------------------------------------------------


class SeedError(GraphError):
    """A seed star map is not a valid, decorated star isomorphism."""


class StarMapArrow(PermArrow):
    """A star map: a permutation of the numbered decorated stars of
    ``object_numbering``, so one arrow moves the darts and, per dart, the
    vertices and edges of its edge object.

    Its serial is ("smap", src, dst, bij, edge maps): ``bij`` the sorted
    (dart, image) pairs, and per source dart, in order, its edge map's
    (vmap, emap) serial.  The vertex map that makes the decoration squares
    commute takes no part in identity: it rides as the witness word, the
    seed vertex maps in application order (``vertex_map`` evaluates it).
    """

    __slots__ = ()
    tag = "smap"

    @property
    def serial(self) -> tuple:
        if self._serial is None:
            bij, maps = [], {}
            for p, q in self.pairs:          # darts first, then their blocks
                if p[0] == 0:
                    bij.append((p[1], q[1]))
                    maps[p[1]] = ([], [])
                else:
                    maps[p[1]][p[2]].append((p[3], q[3]))
            self._serial = (self.tag, self.names[self.src], self.names[self.dst],
                            tuple(bij), tuple((d, (tuple(vm), tuple(em)))
                                  for d, (vm, em) in maps.items()))
        return self._serial

    @staticmethod
    def invert_word(word: tuple) -> tuple:
        return tuple(obj_invert(m) for m in reversed(word))


def object_numbering(union: Graph, edge_objects: list) -> Numbering:
    """Decorated stars as domains.  The block of a dart d (with id i) is the
    point (0, i), then the vertices (1, i, 0, v) and the edges (1, i, 1, e)
    of its edge object ``edge_objects[d]``; the domain of a vertex is the
    sorted union of the blocks of its star.  Perms then sort as the serials
    do: dart images first, then each dart's vertex and edge images.  An
    atom at d restricts an arrow to the block of d, and bar moves the block
    onto that of reverse d, which shares its edge object."""
    darts, rev = union.darts, union.rev

    def block(d):
        obj, i = edge_objects[d], darts[d]
        return ((0, i), *[(1, i, 0, v) for v in obj.vertices],
                *[(1, i, 1, e) for e in obj.edges])

    domains = [tuple(sorted(p for d in star for p in block(d))) for star in union.stars()]
    return Numbering(union, domains, block, lambda d: (0, darts[d]),
                     lambda d, nb: [(p[0], darts[rev[d]], *p[2:]) for p in nb])


class ObjectLocalSystem(LocalSystem):
    """Star maps over ``object_numbering``; an atom at a dart carries the
    edge-object map of its arrow at that dart (``atom_morph``)."""

    kind = "object"

    def __init__(self, x1: ObjectGraph, x2: ObjectGraph, groupoid, numbering: Numbering):
        super().__init__(x1.graph, x2.graph, groupoid, numbering)
        self.x1 = x1
        self.x2 = x2
        self.edge_objects = (*x1.edge_objects, *x2.edge_objects)

    def atom_morph(self, atom) -> ObjMorphism:
        """The map from the anchor's edge object onto the image's: the atom's
        positions as offsets into the image block's runs of consecutive
        vertex and edge positions in the sorted domain."""
        e, _, r = atom
        f = self.atom_image(atom)
        source, block = self.edge_objects[e], self.numbering.dom[f]
        n = len(source.vertices) + 1
        return ObjMorphism(source, self.edge_objects[f], tuple(p - block[1] for p in r[1:n]),
                           tuple(p - block[n] for p in r[n:]))

    def atom_serial(self, atom):
        """("oatom", anchor dart, image dart, edge-object map serial)."""
        darts = self.union.darts
        return ("oatom", darts[atom[0]], darts[self.atom_image(atom)],
                self.atom_morph(atom).serial)

    def vertex_map(self, arrow: StarMapArrow) -> ObjMorphism:
        """The vertex-object map of an arrow: its witness word evaluated
        from the identity of its source object."""
        xg, v = (self.x1, arrow.src) if arrow.src < self.n1 else (self.x2, arrow.src - self.n1)
        return functools.reduce(lambda m, letter: obj_compose(letter, m), arrow.witness,
                                obj_identity(xg.vertex_objects[v]))


@dataclass
class SeedSpec:
    """A seed star map between a vertex of the first object graph and one of
    the second, in raw (unprefixed) identifiers."""

    src: str
    dst: str
    dart_map: dict
    edge_maps: dict
    vertex_map: Optional[ObjMorphism] = None


def check_seed_stars(g1: Graph, g2: Graph, seed: SeedSpec) -> None:
    """Refuse a seed whose dart map is no bijection between the stars."""
    if sorted(seed.dart_map) != list(g1.star(seed.src)):
        raise SeedError("seed dart map must cover the source star exactly")
    if sorted(seed.dart_map.values()) != list(g2.star(seed.dst)):
        raise SeedError("seed dart map must hit the target star exactly")


def _check_star_map(x1: ObjectGraph, x2: ObjectGraph, seed: SeedSpec,
                    numbering: Numbering) -> StarMapArrow:
    check_seed_stars(x1.graph, x2.graph, seed)
    (v1, d1), (v2, d2) = x1.graph.index(), x2.graph.index()
    darts = [(e, f, d1[e], d2[f]) for e, f in seed.dart_map.items()]
    for e, _, a, b in darts:
        if not is_object_iso(x1.edge_objects[a], x2.edge_objects[b], seed.edge_maps.get(e)):
            raise SeedError("edge map at %r is not an object isomorphism" % (e,))
    xu = x1.vertex_objects[v1[seed.src]]
    yv = x2.vertex_objects[v2[seed.dst]]
    given = seed.vertex_map

    def failed_square(su):
        return next(((e, f) for e, f, a, b in darts
                     if obj_compose(su, x1.edge_morphisms[a])
                     != obj_compose(x2.edge_morphisms[b], seed.edge_maps[e])), None)

    if given is not None and not is_object_iso(xu, yv, given):
        raise SeedError("seed vertex map is not an object isomorphism")
    if given is None and len(xu.vertices) > VERTEX_MAP_SEARCH_CAP:
        raise BudgetExceeded("the seed at %r has no vertex_map, and its vertex object has %d "
                             "vertices (the search for one is capped at %d): give a vertex_map"
                             % (seed.src, len(xu.vertices), VERTEX_MAP_SEARCH_CAP))
    square = None
    for vm in [given] if given is not None else all_object_isos(xu, yv):
        square = failed_square(vm)
        if square is None:
            break
    else:
        raise SeedError("decoration square fails at darts %r -> %r" % square if given is not None
                        else "no compatible vertex map for the seed at %r (square %r)"
                        % (seed.src, square))

    # in the union (g1 first, then g2) each block moves onto the image
    # dart's block: the dart, then its vertices and edges by their images
    src, dst = v1[seed.src], len(v1) + v2[seed.dst]
    dom, n = numbering.dom, len(d1)
    perm = [0] * len(numbering.domains[src])
    for e, _, a, b in darts:
        m, block = seed.edge_maps[e], dom[n + b]
        k = len(m.vm) + 1
        for p, q in zip(dom[a], (block[0], *gather(m.vm)(block[1:k]), *gather(m.em)(block[k:]))):
            perm[p] = q
    return StarMapArrow(src, dst, perm, numbering.domains[src], numbering.domains[dst],
                        numbering.union.vertices, (vm,))


def close_star_maps(x1: ObjectGraph, x2: ObjectGraph, seeds) -> ObjectLocalSystem:
    """Saturate seed star maps into an object local system, with axiom and
    isotropy checks."""
    for x in (x1, x2):
        report = validate_object_graph(x)
        if not report.ok:
            raise GraphError("invalid object graph: " + report.violations[0])
    union = disjoint_union(x1.graph, x2.graph)
    numbering = object_numbering(union, (*x1.edge_objects, *x2.edge_objects))
    arrows = [_check_star_map(x1, x2, s, numbering) if isinstance(s, SeedSpec) else s
              for s in seeds]
    groupoid = saturate(arrows, range(len(union.vertices)), lambda x: StarMapArrow.identity(
        x, numbering.domains[x], union.vertices))
    sys = ObjectLocalSystem(x1, x2, groupoid, numbering)
    for dart, name in enumerate(union.darts):
        if list(sys.atoms_by_anchor[dart].values()).count(dart) > ISOTROPY_CAP:
            raise AxiomError("isotropy group exceeds the configured cap at %r"
                             % (name,))
    return sys.require_axioms(prefix="insufficient seeds: ")


# -- object covers --------------------------------------------------------------


@dataclass
class ObjectGraphMorphism:
    """A graph map and columns of object maps by source vertex and dart."""

    source: ObjectGraph
    target: ObjectGraph
    graph: GraphMorphism
    vertex_morphisms: tuple
    edge_morphisms: tuple


def verify_object_covering(f: ObjectGraphMorphism):
    """Exhaustive check of the covering conditions; returns (ok, failure).

    The maps, the objects and the two sides of the decoration squares are
    columns by index, compared whole; every square is checked."""
    rep = is_covering(f.graph)
    if not rep.ok:
        return False, "underlying map: %s at %r" % (rep.reason, rep.witness)
    x, y, vm, dm = f.source, f.target, f.graph.vm, f.graph.dm
    g = x.graph
    vmor, emor = f.vertex_morphisms, f.edge_morphisms
    differ = list(map(ne, emor, map(emor.__getitem__, g.rev)))
    if True in differ:
        return False, ("edge morphisms differ across the reversal at %r"
                       % (g.darts[differ.index(True)],))
    iso = list(map(is_object_iso, x.vertex_objects, map(y.vertex_objects.__getitem__, vm), vmor))
    if False in iso:
        return False, "vertex morphism at %r is not invertible" % (g.vertices[iso.index(False)],)
    iso = list(map(is_object_iso, x.edge_objects, map(y.edge_objects.__getitem__, dm), emor))
    # the squares of the darts before the first edge morphism that fails
    n = iso.index(False) if False in iso else len(iso)
    differ = list(map(ne, map(obj_compose, map(vmor.__getitem__, g.org[:n]),
                              x.edge_morphisms[:n]),
                      map(obj_compose, map(y.edge_morphisms.__getitem__, dm[:n]), emor[:n])))
    if True in differ:
        return False, "decoration square fails at dart %r" % (g.darts[differ.index(True)],)
    if n < len(iso):
        return False, "edge morphism at %r is not invertible" % (g.darts[n],)
    return True, None


def build_object_cover(sys: ObjectLocalSystem, component: str = "least") -> Cover:
    """Run the generic assembly and decorate its cover by index: a vertex
    takes the object of its image in the first graph and the vertex map of
    its source arrow, a dart the edge map of its source atom.  The two
    ``ObjectGraphMorphism`` out of the decorated cover go in ``extra["objects"]``."""
    cover = build_cover(sys, component=component)
    x1, g, vl, dl = sys.x1, cover.graph, cover.vertex_label, cover.dart_label
    vm, dm = cover.mu1.vm, cover.mu1.dm
    vobj, eobj = x1.vertex_objects, x1.edge_objects
    decorated = ObjectGraph(g, tuple(map(vobj.__getitem__, vm)), tuple(map(eobj.__getitem__, dm)),
                            tuple(map(x1.edge_morphisms.__getitem__, dm)))
    report = validate_object_graph(decorated)
    if not report.ok:
        raise VerificationError("object cover invalid: " + report.violations[0])
    columns = [(vm, list(map(obj_identity, vobj))), (dm, list(map(obj_identity, eobj))),
               (vl.of, list(map(sys.vertex_map, vl.sources))),
               (dl.of, list(map(sys.atom_morph, dl.sources)))]
    vi, ei, vs, es = (tuple(map(maps.__getitem__, rows)) for rows, maps in columns)
    cover.extra["objects"] = (ObjectGraphMorphism(decorated, x1, cover.mu1, vi, ei),
                              ObjectGraphMorphism(decorated, sys.x2, cover.mu2, vs, es))
    for name, mu in zip(("mu1", "mu2"), cover.extra["objects"]):
        ok, failure = verify_object_covering(mu)
        if not ok:
            raise VerificationError("%s: %s" % (name, failure))
    return cover


# -- demo fixture ----------------------------------------------------------------


@functools.cache
def rotation_cycle_object(order: int) -> FiniteObject:
    vs = ["o%d" % i for i in range(order)]
    edges = [("r%d" % i, "o%d" % i, "o%d" % ((i + 1) % order), None)
             for i in range(order)]
    return make_object(vs, edges)


def rotation_map(order: int, steps: int = 1) -> ObjMorphism:
    cyc = rotation_cycle_object(order)
    return obj_morphism(
        cyc, cyc, {"o%d" % i: "o%d" % ((i + steps) % order) for i in range(order)},
        {"r%d" % i: "r%d" % ((i + steps) % order) for i in range(order)})


def rotation_pair(order: int):
    """Two single-loop object graphs over a cyclic object: the first glues
    the loop with identities, the second twists one side by a rotation.

    Returns (x1, x2, seeds).  The seeds are the star maps induced at two
    adjacent vertices of the common chain cover; one alone does not
    generate a bar-closed system (its closure misses the shifted maps),
    which exercises the insufficient-seed error path.
    """
    from .families import rose

    g = rose(1)                            # darts "e00.a", "e00.b"
    cyc = rotation_cycle_object(order)
    ident = obj_identity(cyc)
    x1 = ObjectGraph(g, (cyc,), (cyc, cyc), (ident, ident))
    x2 = ObjectGraph(g, (cyc,), (cyc, cyc), (ident, rotation_map(order)))
    return x1, x2, [SeedSpec("v00", "v00", {"e00.a": "e00.a", "e00.b": "e00.b"},
                             {"e00.a": rotation_map(order, i),
                              "e00.b": rotation_map(order, i - 1)},
                             vertex_map=rotation_map(order, i)) for i in (0, 1)]
