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
cover is decorated with objects pulled back from the first graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from operator import ne
from typing import Optional

from .cover_builder import AxiomError, LocalSystem, Numbering, build_cover
from .graphs import (Cover, Graph, GraphError, GraphMorphism, VerificationError,
                     disjoint_union, is_covering, validate_graph)
from .groupoids import PermArrow, saturate

# the most atoms fixing a dart (the order of its isotropy group) that
# ``close_star_maps`` admits
ISOTROPY_CAP = 512


# -- finite labelled multigraph objects and their maps -----------------------


@dataclass(frozen=True)
class FiniteObject:
    vertices: tuple
    edges: tuple                       # (edge id, src, dst, label)
    vertex_labels: tuple = ()          # (vertex, label)

    @cached_property
    def vlabel(self) -> dict:
        return dict(self.vertex_labels)

    @cached_property
    def edge_by_id(self) -> dict:
        return {e[0]: e for e in self.edges}


def make_object(vertices, edges=(), vertex_labels=()) -> FiniteObject:
    return FiniteObject(tuple(sorted(vertices)),
                        tuple(sorted(edges)),
                        tuple(sorted(vertex_labels)))


@dataclass(frozen=True)
class ObjMorphism:
    vmap: tuple
    emap: tuple

    @cached_property
    def vdict(self) -> dict:
        return dict(self.vmap)

    @cached_property
    def edict(self) -> dict:
        return dict(self.emap)

    @property
    def serial(self):
        return (self.vmap, self.emap)


def obj_morphism(vmap: dict, emap: dict) -> ObjMorphism:
    return ObjMorphism(tuple(sorted(vmap.items())), tuple(sorted(emap.items())))


def obj_identity(x: FiniteObject) -> ObjMorphism:
    return obj_morphism({v: v for v in x.vertices}, {e[0]: e[0] for e in x.edges})


def obj_compose(outer: ObjMorphism, inner: ObjMorphism) -> ObjMorphism:
    return obj_morphism({v: outer.vdict[w] for v, w in inner.vmap},
                        {e: outer.edict[f] for e, f in inner.emap})


def obj_invert(m: ObjMorphism) -> ObjMorphism:
    return obj_morphism({w: v for v, w in m.vmap}, {f: e for e, f in m.emap})


def object_map_violations(x: FiniteObject, y: FiniteObject, m: ObjMorphism) -> list:
    bad = []
    yv = set(y.vertices)
    for v in x.vertices:
        w = m.vdict.get(v)
        if w not in yv:
            bad.append("vertex %r has no valid image" % (v,))
        elif x.vlabel.get(v) != y.vlabel.get(w):
            bad.append("vertex label not preserved at %r" % (v,))
    for eid, src, dst, lab in x.edges:
        fid = m.edict.get(eid)
        if fid not in y.edge_by_id:
            bad.append("edge %r has no valid image" % (eid,))
            continue
        _, fsrc, fdst, flab = y.edge_by_id[fid]
        if (m.vdict.get(src), m.vdict.get(dst)) != (fsrc, fdst):
            bad.append("incidence not preserved at edge %r" % (eid,))
        if lab != flab:
            bad.append("edge label not preserved at %r" % (eid,))
    return bad


def is_object_iso(x: FiniteObject, y: FiniteObject, m: ObjMorphism) -> bool:
    if object_map_violations(x, y, m):
        return False
    return (sorted(m.vdict.values()) == sorted(y.vertices)
            and len(set(m.vdict.values())) == len(x.vertices)
            and sorted(m.edict.values()) == sorted(e[0] for e in y.edges)
            and len(set(m.edict.values())) == len(x.edges))


def all_object_isos(x: FiniteObject, y: FiniteObject) -> list:
    """All bijective structure-preserving maps (tiny objects only)."""
    if len(x.vertices) != len(y.vertices) or len(x.edges) != len(y.edges):
        return []
    out = []
    for perm in itertools.permutations(y.vertices):
        vmap = dict(zip(x.vertices, perm))
        if any(x.vlabel.get(v) != y.vlabel.get(w) for v, w in vmap.items()):
            continue
        groups_x = {}
        for eid, s, d, lab in x.edges:
            groups_x.setdefault((vmap[s], vmap[d], lab), []).append(eid)
        groups_y = {}
        for fid, s, d, lab in y.edges:
            groups_y.setdefault((s, d, lab), []).append(fid)
        if sorted(groups_x) != sorted(groups_y):
            continue
        if any(len(groups_x[k]) != len(groups_y[k]) for k in groups_x):
            continue
        keys = sorted(groups_x)
        pools = [itertools.permutations(groups_y[k]) for k in keys]
        for combo in itertools.product(*pools):
            emap = {}
            for k, perm_e in zip(keys, combo):
                emap.update(zip(groups_x[k], perm_e))
            out.append(obj_morphism(vmap, emap))
    return out


# -- graphs of objects ---------------------------------------------------------


@dataclass
class ObjectGraph:
    graph: Graph
    vertex_objects: dict
    edge_objects: dict                 # per dart; shared between a dart and its reverse
    edge_morphisms: dict               # dart -> map from its edge object into the origin's object


def validate_object_graph(x: ObjectGraph):
    g = x.graph
    report = validate_graph(g)
    bad = report.violations
    bad += ["missing vertex object at %r" % (v,) for v in g.vertices
            if v not in x.vertex_objects]
    vobj = list(map(x.vertex_objects.get, g.vertices))
    eobj = list(map(x.edge_objects.get, g.darts))
    for d, obj, o, r in zip(g.darts, eobj, g.org, g.rev):
        if obj is None:
            bad.append("missing edge object at %r" % (d,))
            continue
        if r < 0 or obj != eobj[r]:
            bad.append("edge objects differ across the reversal at %r" % (d,))
        m = x.edge_morphisms.get(d)
        if m is None:
            bad.append("missing edge morphism at %r" % (d,))
            continue
        if o >= 0 and vobj[o] is not None:
            errs = object_map_violations(obj, vobj[o], m)
            if errs:
                bad.append("edge morphism not structure-preserving at %r: %s"
                           % (d, errs[0]))
    report.ok = not bad
    return report


# -- star maps -----------------------------------------------------------------


class SeedError(GraphError):
    """A seed star map is not a valid, decorated star isomorphism."""

    def __init__(self, message, square=None):
        super().__init__(message)
        self.square = square


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
                *[(1, i, 1, e[0]) for e in obj.edges])

    domains = [tuple(sorted(p for d in star for p in block(d))) for star in union.stars()]
    return Numbering(union, domains, block, lambda d: (0, darts[d]),
                     lambda d, nb: [(p[0], darts[rev[d]], *p[2:]) for p in nb])


class ObjectLocalSystem(LocalSystem):
    """Star maps over ``object_numbering``; an atom at a dart carries the
    edge-object map of its arrow at that dart (``atom_morph``)."""

    kind = "object"

    def __init__(self, x1: ObjectGraph, x2: ObjectGraph, union, groupoid,
                 numbering: Numbering):
        super().__init__(x1.graph, x2.graph, union, groupoid, numbering)
        self.x1 = x1
        self.x2 = x2

    def atom_morph(self, atom) -> ObjMorphism:
        """The map from the anchor's edge object onto the image's."""
        e, y, r = atom
        domains = self.numbering.domains
        source, target = domains[self._org[e]], domains[y]
        vmap, emap = {}, {}
        for i, j in zip(self.numbering.dom[e], r):
            p, q = source[i], target[j]
            if p[0] == 1:
                (emap if p[2] else vmap)[p[3]] = q[3]
        return obj_morphism(vmap, emap)

    def atom_serial(self, atom):
        """("oatom", anchor dart, image dart, edge-object map serial)."""
        darts = self.union.darts
        return ("oatom", darts[atom[0]], darts[self.atom_image(atom)],
                self.atom_morph(atom).serial)

    def vertex_map(self, arrow: StarMapArrow) -> ObjMorphism:
        """The vertex-object map of an arrow: its witness word evaluated
        from the identity of its source object."""
        xg, v = (self.x1, arrow.src) if arrow.src < self.n1 else (self.x2, arrow.src - self.n1)
        m = obj_identity(xg.vertex_objects[xg.graph.vertices[v]])
        for letter in arrow.witness:
            m = obj_compose(letter, m)
        return m

    def isotropy(self, dart) -> list:
        """Invertible self-maps of the dart's edge object induced by star
        maps fixing the dart."""
        return sorted((self.atom_morph(a) for a in self.atoms_by_anchor[dart]
                       if self.atom_image(a) == dart), key=lambda m: m.serial)

    def isotropy_lcm(self) -> int:
        out = 1
        for dart in range(len(self.union.darts)):
            out = lcm(out, len(self.isotropy(dart)))
        return out


@dataclass
class SeedSpec:
    """A seed star map between a vertex of the first object graph and one of
    the second, in raw (unprefixed) identifiers."""

    src: str
    dst: str
    dart_map: dict
    edge_maps: dict
    vertex_map: Optional[ObjMorphism] = None


def _check_star_map(x1: ObjectGraph, x2: ObjectGraph, seed: SeedSpec,
                    numbering: Numbering) -> StarMapArrow:
    g1, g2 = x1.graph, x2.graph
    if sorted(seed.dart_map) != list(g1.star(seed.src)):
        raise SeedError("seed dart map must cover the source star exactly")
    if sorted(seed.dart_map.values()) != list(g2.star(seed.dst)):
        raise SeedError("seed dart map must hit the target star exactly")
    for e, f in seed.dart_map.items():
        m = seed.edge_maps.get(e)
        if m is None or not is_object_iso(x1.edge_objects[e], x2.edge_objects[f], m):
            raise SeedError("edge map at %r is not an object isomorphism" % (e,))
    xu = x1.vertex_objects[seed.src]
    yv = x2.vertex_objects[seed.dst]

    def squares_ok(su):
        for e, f in seed.dart_map.items():
            left = obj_compose(su, x1.edge_morphisms[e])
            right = obj_compose(x2.edge_morphisms[f], seed.edge_maps[e])
            if left != right:
                return (e, f)
        return None

    if seed.vertex_map is not None:
        if not is_object_iso(xu, yv, seed.vertex_map):
            raise SeedError("seed vertex map is not an object isomorphism")
        square = squares_ok(seed.vertex_map)
        if square is not None:
            raise SeedError("decoration square fails at darts %r -> %r" % square,
                            square=square)
        vm = seed.vertex_map
    else:
        vm = None
        last = None
        for cand in all_object_isos(xu, yv):
            square = squares_ok(cand)
            if square is None:
                vm = cand
                break
            last = square
        if vm is None:
            raise SeedError("no compatible vertex map for the seed at %r (square %r)"
                            % (seed.src, last), square=last)

    # the union holds g1's vertices and darts first, then g2's
    (v1, d1), (v2, d2) = g1.index(), g2.index()
    src, dst = v1[seed.src], len(g1.vertices) + v2[seed.dst]
    ids = numbering.union.darts
    image = {}                           # (0, d) or (1, d, kind, id) -> its image
    for e, f in seed.dart_map.items():
        a, b, m = ids[d1[e]], ids[len(g1.darts) + d2[f]], seed.edge_maps[e]
        image[0, a] = (0, b)
        image.update(((1, a, 0, v), (1, b, 0, w)) for v, w in m.vmap)
        image.update(((1, a, 1, v), (1, b, 1, w)) for v, w in m.emap)
    at = numbering.positions[dst]
    return StarMapArrow(src, dst, [at[image[p]] for p in numbering.domains[src]],
                        numbering.domains[src], numbering.domains[dst], numbering.union.vertices,
                        (vm,))


def close_star_maps(x1: ObjectGraph, x2: ObjectGraph, seeds) -> ObjectLocalSystem:
    """Saturate seed star maps into an object local system, with axiom and
    isotropy checks."""
    for x in (x1, x2):
        report = validate_object_graph(x)
        if not report.ok:
            raise GraphError("invalid object graph: " + report.violations[0])
    union = disjoint_union(x1.graph, x2.graph)
    numbering = object_numbering(union, [
        *map(x1.edge_objects.__getitem__, x1.graph.darts),
        *map(x2.edge_objects.__getitem__, x2.graph.darts)])
    arrows = [_check_star_map(x1, x2, s, numbering) if isinstance(s, SeedSpec) else s
              for s in seeds]
    groupoid = saturate(arrows, range(len(union.vertices)), lambda x: StarMapArrow.identity(
        x, numbering.domains[x], union.vertices))
    sys = ObjectLocalSystem(x1, x2, union, groupoid, numbering)
    for dart, name in enumerate(union.darts):
        if list(sys.atoms_by_anchor[dart].values()).count(dart) > ISOTROPY_CAP:
            raise AxiomError("isotropy group exceeds the configured cap at %r"
                             % (name,))
    report = sys.check_axioms()
    if not report.ok:
        raise AxiomError("insufficient seeds: closure axioms unmet at %r"
                         % (report.detail,), witness=report.detail)
    return sys


# -- object covers --------------------------------------------------------------


@dataclass
class ObjectGraphMorphism:
    source: ObjectGraph
    target: ObjectGraph
    graph: GraphMorphism
    vertex_morphisms: dict
    edge_morphisms: dict


def verify_object_covering(f: ObjectGraphMorphism):
    """Exhaustive check of the covering conditions; returns (ok, failure).

    The maps, the objects and the two sides of the decoration squares are
    rows by index, compared whole; every square is checked."""
    rep = is_covering(f.graph)
    if not rep.ok:
        return False, "underlying map: %s at %r" % (rep.reason, rep.witness)
    x, y, vm, dm = f.source, f.target, f.graph.vm, f.graph.dm
    g, h = x.graph, y.graph
    vmor = list(map(f.vertex_morphisms.get, g.vertices))
    emor = list(map(f.edge_morphisms.get, g.darts))
    differ = list(map(ne, emor, map(emor.__getitem__, g.rev)))
    if True in differ:
        return False, ("edge morphisms differ across the reversal at %r"
                       % (g.darts[differ.index(True)],))
    objects = list(map(y.vertex_objects.__getitem__, h.vertices))
    iso = [m is not None and is_object_iso(obj, objects[w], m)
           for obj, w, m in zip(map(x.vertex_objects.__getitem__, g.vertices), vm, vmor)]
    if False in iso:
        return False, "vertex morphism at %r is not invertible" % (g.vertices[iso.index(False)],)
    objects = list(map(y.edge_objects.__getitem__, h.darts))
    iso = [m is not None and is_object_iso(obj, objects[e], m)
           for obj, e, m in zip(map(x.edge_objects.__getitem__, g.darts), dm, emor)]
    # the squares of the darts before the first edge morphism that fails
    n = iso.index(False) if False in iso else len(iso)
    ymor = list(map(y.edge_morphisms.__getitem__, h.darts))
    differ = list(map(ne, map(obj_compose, map(vmor.__getitem__, g.org[:n]),
                              map(x.edge_morphisms.__getitem__, g.darts[:n])),
                      map(obj_compose, map(ymor.__getitem__, dm[:n]), emor[:n])))
    if True in differ:
        return False, "decoration square fails at dart %r" % (g.darts[differ.index(True)],)
    if n < len(iso):
        return False, "edge morphism at %r is not invertible" % (g.darts[n],)
    return True, None


def build_object_cover(sys: ObjectLocalSystem, component: str = "least") -> Cover:
    """Run the generic assembly and decorate its cover row by row: a vertex
    takes the object of its image in the first graph and the vertex map of
    its source arrow, a dart the edge map of its source atom.  The two
    ``ObjectGraphMorphism`` out of the decorated cover go in ``extra["objects"]``."""
    cover = build_cover(sys, component=component)
    x1, g, vl, dl = sys.x1, cover.graph, cover.vertex_label, cover.dart_label
    vm, dm = cover.mu1.vm, cover.mu1.dm

    def pulled(ids, rows, table):       # id -> the table entry of its row
        return dict(zip(ids, map(table.__getitem__, rows)))

    vobj = list(map(x1.vertex_objects.__getitem__, x1.graph.vertices))
    eobj = list(map(x1.edge_objects.__getitem__, x1.graph.darts))
    emor = list(map(x1.edge_morphisms.__getitem__, x1.graph.darts))
    decorated = ObjectGraph(g, pulled(g.vertices, vm, vobj), pulled(g.darts, dm, eobj),
                            pulled(g.darts, dm, emor))
    report = validate_object_graph(decorated)
    if not report.ok:
        raise VerificationError("object cover invalid: " + report.violations[0])
    cover.extra["objects"] = (
        ObjectGraphMorphism(decorated, x1, cover.mu1,
                            pulled(g.vertices, vm, list(map(obj_identity, vobj))),
                            pulled(g.darts, dm, list(map(obj_identity, eobj)))),
        ObjectGraphMorphism(decorated, sys.x2, cover.mu2,
                            pulled(g.vertices, vl.of, list(map(sys.vertex_map, vl.sources))),
                            pulled(g.darts, dl.of, list(map(sys.atom_morph, dl.sources)))))
    for name, mu in zip(("mu1", "mu2"), cover.extra["objects"]):
        ok, failure = verify_object_covering(mu)
        if not ok:
            raise VerificationError("%s: %s" % (name, failure))
    return cover


# -- demo fixture ----------------------------------------------------------------


def rotation_cycle_object(order: int) -> FiniteObject:
    vs = ["o%d" % i for i in range(order)]
    edges = [("r%d" % i, "o%d" % i, "o%d" % ((i + 1) % order), None)
             for i in range(order)]
    return make_object(vs, edges)


def rotation_map(order: int, steps: int = 1) -> ObjMorphism:
    return obj_morphism(
        {"o%d" % i: "o%d" % ((i + steps) % order) for i in range(order)},
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

    g = rose(1)
    cyc = rotation_cycle_object(order)
    ident = obj_identity(cyc)
    darts = list(g.darts)                  # ["e00.a", "e00.b"]
    x1 = ObjectGraph(g, {"v00": cyc},
                     {d: cyc for d in darts},
                     {d: ident for d in darts})
    x2 = ObjectGraph(g, {"v00": cyc},
                     {d: cyc for d in darts},
                     {"e00.a": ident, "e00.b": rotation_map(order)})
    seeds = []
    for i in (0, 1):
        seeds.append(SeedSpec(
            "v00", "v00",
            {"e00.a": "e00.a", "e00.b": "e00.b"},
            {"e00.a": rotation_map(order, i),
             "e00.b": rotation_map(order, i - 1)},
            vertex_map=rotation_map(order, i)))
    return x1, x2, seeds
