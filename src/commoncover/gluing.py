"""Weighted-gluing assembly: an independent second backend.

Cross arrows of a ball local system play the role of polyhedron classes
(each is a normalised identification between a ball around a vertex of the
first graph and one of the second); cross atoms, grouped with their bar
partners, play the role of face classes.  An orientation of the darts
splits the two sides of every face class; the weight of a polyhedron class
is the replication count the generic builder would give it, and the
orbit-stabilizer law makes the per-face balance equations hold exactly in
integer arithmetic: both sides of a face get scale / orbit size slots.
Taking that many copies of each polyhedron and gluing matched face slots in
canonical order yields a graph all of whose components cover both inputs.

Systems whose atoms identify a dart with a reversed dart admit no
orientation; the pipeline entry point subdivides both inputs once (which
always removes the obstruction for alignment-generated systems, because
subdivision midpoints are preserved), reruns, and contracts the result
back to covers of the original graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count

from .ball_system import build_ball_system_retrying
from .cover_builder import LocalSystem
from .graphs import (Cover, Graph, GraphMorphism, VerificationError,
                     colours_at, finish_cover, numbered_ids, sort_graph)
from .groupoids import lcm_all


class OrientationError(VerificationError):
    """No consistent dart orientation: subdivide the inputs (exit 3 if still none)."""


def orient_darts(sys: LocalSystem) -> dict:
    """Two-colour the darts so that atoms join like signs and reversal flips
    the sign; raises ``OrientationError`` when impossible."""
    rev = sys.union.rev
    same = [[] for _ in rev]
    for e in range(len(rev)):
        for f in sys.orbit_darts(e):
            same[e].append(f)
            same[f].append(e)
    sign = {}
    for d0 in range(len(rev)):
        if d0 in sign:
            continue
        sign[d0] = 1
        queue = deque([d0])
        while queue:
            d = queue.popleft()
            rd = rev[d]
            for f, s in [(x, sign[d]) for x in same[d]] + [(rd, -sign[d])]:
                if f not in sign:
                    sign[f] = s
                    queue.append(f)
                elif sign[f] != s:
                    raise OrientationError("orientation required: subdivide")
    return sign


@dataclass
class FaceClass:
    atom: object                   # the representative with positive anchor
    serial: tuple
    left: list                     # arrows whose action on the anchor identity gives the atom
    right: list


@dataclass
class PairsAndFaces:
    pairs: tuple                   # cross arrows, sorted
    faces: dict                    # serial -> FaceClass


def enumerate_pairs(sys: LocalSystem) -> PairsAndFaces:
    """Cross arrows and the face classes of their atoms, keyed by the atom
    serial of the face representative."""
    orientation = orient_darts(sys)
    pairs = sys.cross_arrows()
    sides = {}                     # atom -> (left, right)
    for arrow in pairs:
        for e in sys.stars[arrow.src]:
            atom = sys.act_identity(arrow, e)
            if orientation[e] == 1:
                side = 0
            else:
                atom, side = sys.bar(atom), 1
            sides.setdefault(atom, ([], []))[side].append(arrow)
    # bar closure (AX2) puts arrows on both sides of every face
    faces = {}
    for atom, (left, right) in sides.items():
        left.sort(key=lambda a: a.key)
        right.sort(key=lambda a: a.key)
        serial = sys.atom_serial(atom)
        faces[serial] = FaceClass(atom, serial, left, right)
    return PairsAndFaces(pairs, faces)


@dataclass
class WeightFn:
    scale: int
    integral: dict                 # arrow serial -> positive integer

    def weight(self, arrow) -> int:
        return self.integral[arrow.serial]


def gluing_weights(sys: LocalSystem, data: PairsAndFaces) -> WeightFn:
    """Stabilizer-index weights: scale / out-count of its source per arrow,
    the scale the least common multiple of the out-counts.  By the
    orbit-stabilizer law, both sides of a face sum to scale / orbit size;
    ``assemble`` checks that their slot counts agree."""
    out = list(map(sys.out_count, range(len(sys.union.vertices))))
    scale = lcm_all(out)
    return WeightFn(scale, {a.serial: scale // out[a.src] for a in data.pairs})


def assemble(sys: LocalSystem, data: PairsAndFaces, weights: WeightFn,
             component: str = "all") -> Cover:
    """Glue weighted polyhedron copies along matched face slots."""
    n1, m1, rev = sys.n1, sys.m1, sys.union.rev
    first, vm1, vm2 = {}, [], []            # instance first[a.key] + c - 1 is copy c of a
    for arrow in data.pairs:
        c = weights.weight(arrow)
        first[arrow.key] = len(vm1)
        vm1 += [arrow.src] * c
        vm2 += [arrow.dst - n1] * c
    org, dm1, dm2 = [], [], []              # darts 2k and 2k + 1 are glued
    for key in sorted(data.faces):
        face = data.faces[key]
        anchor = sys.atom_anchor(face.atom)
        image = sys.atom_image(face.atom)
        left_slots = [first[a.key] + c for a in face.left for c in range(weights.weight(a))]
        right_slots = [first[a.key] + c for a in face.right for c in range(weights.weight(a))]
        if len(left_slots) != len(right_slots):
            raise VerificationError("slot imbalance")
        for left, right in zip(left_slots, right_slots):
            org += [left, right]
            dm1 += [anchor, rev[anchor]]
            dm2 += [image - m1, rev[image] - m1]
    g1 = sys.g1
    vertex_ids = numbered_ids(("p%06d",), range(len(vm1)))
    dart_ids = numbered_ids(("d%06dL", "d%06dR"), range(0, len(org), 2))
    graph = Graph.from_tables(vertex_ids, dart_ids, org, [d ^ 1 for d in range(len(org))],
                              colours_at(g1.vcol, vm1), colours_at(g1.dcol, dm1))
    return finish_cover(GraphMorphism.from_tables(graph, g1, vm1, dm1),
                        GraphMorphism.from_tables(graph, sys.g2, vm2, dm2), component,
                        weights=weights, subdivided=False)


# -- subdivision fallback -------------------------------------------------------


@dataclass
class SubdivisionInfo:
    graph: Graph                    # the subdivided graph
    vertex_of: list                 # vertex -> its original vertex, -1 at a midpoint
    dart_of: list                   # outward dart -> its original dart, -1 on the others

    @property
    def midpoints(self) -> set:
        return {v for v, x in zip(self.graph.vertices, self.vertex_of) if x < 0}


def subdivide_graph(g: Graph) -> SubdivisionInfo:
    """Insert a midpoint on every geometric edge.

    Each original dart e from u yields an outward dart e.o from u to the
    midpoint and its reversal e.i back; darts keep their colours on the
    outward half.  The midpoint of the edge of least dart e is m.e, or,
    where that is a vertex id, the first of m.e', m.e'', ... that is no id.
    """
    n, org, rev = len(g.vertices), g.org, g.rev
    reps = [d for d, r in enumerate(rev) if d < r]
    midpoints = ["m." + g.darts[d] for d in reps]
    vertex_ids = set(g.vertices)
    taken = vertex_ids.union(midpoints)
    mid = [-1] * len(rev)
    for k, d in enumerate(reps):
        if midpoints[k] in vertex_ids:
            while midpoints[k] in taken:
                midpoints[k] += "'"
            taken.add(midpoints[k])
        mid[d] = mid[rev[d]] = n + k
    darts = [d + half for d in g.darts for half in (".o", ".i")]
    sub, vorder, dorder = sort_graph(
        [*g.vertices, *midpoints], darts, [v for d, u in enumerate(org) for v in (u, mid[d])],
        [k ^ 1 for k in range(len(darts))],
        None if g.vcol is None else g.vcol + [None] * len(midpoints),
        None if g.dcol is None else [c for colour in g.dcol for c in (colour, None)])
    return SubdivisionInfo(sub, [k if k < n else -1 for k in vorder],
                           [-1 if k & 1 else k >> 1 for k in dorder])


def contract_subdivided(glued: Cover, info1: SubdivisionInfo,
                        info2: SubdivisionInfo, g1: Graph, g2: Graph,
                        component: str = "least") -> Cover:
    """Contract the midpoint fibres of a cover of two subdivided graphs,
    producing coverings of the original graphs: the vertices over original
    vertices and the darts over outward darts stay, and the two darts into
    a midpoint of the cover become each other's reversal."""
    cover, mu1, mu2 = glued.graph, glued.mu1, glued.mu2
    over1, over2 = ([info.vertex_of[x] for x in mu.vm] for info, mu in ((info1, mu1), (info2, mu2)))
    for v, x1, x2 in zip(cover.vertices, over1, over2):
        if (x1 < 0) != (x2 < 0):
            raise VerificationError("midpoint fibres disagree at %r" % (v,))
    rev, stars, new_rev = cover.rev, cover.stars(), [-1] * len(cover.darts)
    for w, x in enumerate(over1):
        if x < 0:
            if len(stars[w]) != 2:
                raise VerificationError("midpoint degree")
            a, b = rev[stars[w][0]], rev[stars[w][1]]
            new_rev[a], new_rev[b] = b, a
    kv = [k for k, x in enumerate(over1) if x >= 0]
    kd = [k for k, x in enumerate(mu1.dm) if info1.dart_of[x] >= 0]
    vnew, dnew = dict(zip(kv, count())), dict(zip(kd, count()))
    # only vertices over original vertices and darts over outward darts
    # have colours, and they stay
    graph = Graph.from_tables([cover.vertices[k] for k in kv], [cover.darts[k] for k in kd],
                              [vnew[cover.org[k]] for k in kd], [dnew[new_rev[k]] for k in kd],
                              colours_at(cover.vcol, kv), colours_at(cover.dcol, kd))
    out1, out2 = (GraphMorphism.from_tables(graph, g, [over[k] for k in kv],
                                            [info.dart_of[mu.dm[k]] for k in kd])
                  for g, over, info, mu in ((g1, over1, info1, mu1), (g2, over2, info2, mu2)))
    return finish_cover(out1, out2, component, weights=glued.extra["weights"],
                        subdivided=True)


def build_glued_cover(g1: Graph, g2: Graph, radius: int = 1,
                      explore_radius=None, component: str = "least",
                      sys=None) -> Cover:
    """Full pipeline: ball system, orientation, weights, assembly; falls
    back to subdividing both inputs once when orientation is impossible.  A
    given ``sys`` must meet its closure axioms, which the gluing relies on."""
    sys = (build_ball_system_retrying(g1, g2, radius, explore_radius) if sys is None
           else sys.require_axioms())
    try:
        data = enumerate_pairs(sys)
    except OrientationError:
        info1 = subdivide_graph(g1)
        info2 = subdivide_graph(g2)
        inner_sys = build_ball_system_retrying(info1.graph, info2.graph, radius,
                                               explore_radius)
        data = enumerate_pairs(inner_sys)
        glued = assemble(inner_sys, data, gluing_weights(inner_sys, data))
        return contract_subdivided(glued, info1, info2, g1, g2, component)
    weights = gluing_weights(sys, data)
    return assemble(sys, data, weights, component=component)
