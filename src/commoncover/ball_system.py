"""Local systems of normalised ball isomorphisms between universal covers.

Arrows are isomorphisms between the radius-R balls around the canonical
lifts of two base vertices; because deck transformations act freely, every
class of ball isomorphisms modulo deck composition on either side contains
exactly one representative anchored at canonical lifts, so arrows compose
as plain maps and structural equality decides class equality.

Atoms play the same role one dimension down: isomorphisms between the
(R-1)-neighbourhoods of the canonical lifts of two darts, normalised the
same way.  The atoms anchored at a dart are the orbit of its identity atom
under the arrow action, computed by the shared one-step rule of
``LocalSystem.atoms_by_anchor``; every discovered edge atom must lie in
that set, and coverage, bar closure and the action laws are runtime checks.

Every discovered arrow carries a witness word over the free generators of
the two deck groups and alignment markers; evaluating the word from
scratch and comparing with the stored map certifies that the arrow is the
restriction of a product of deck transformations and the alignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover_builder import AxiomError, LocalSystem, retry_doubling
from .graphs import Graph, GraphError, disjoint_union, side_of, strip_side
from .groupoids import Value, saturate
from .refinement import JointBlocks, joint_refinement
from .universal_cover import TreeAlignment, UniversalCover, build_alignment


def _invert_letter(letter):
    kind, payload = letter
    if kind == "th":
        return ("th", -payload)
    return (kind, tuple((i, -e) for i, e in reversed(payload)))


class BallArrow(Value):
    """Root-to-root isomorphism between two canonical balls.

    The deck-word witness is carried along but is not part of identity."""

    __slots__ = ("src", "dst", "mapping", "witness", "serial", "_map")
    _compare = ("src", "dst", "mapping")

    def __init__(self, src: str, dst: str, mapping: tuple, witness: tuple = ()):
        self.src = src
        self.dst = dst
        self.mapping = mapping                      # sorted (path, path) pairs
        self.witness = witness
        self.serial = ("ball", src, dst, mapping)
        self._map = None

    @property
    def as_dict(self) -> dict:
        if self._map is None:
            self._map = dict(self.mapping)
        return self._map

    def compose(self, other: "BallArrow"):
        # mapping pairs stay sorted by source path under composition
        if other.dst != self.src:
            return None
        m = self.as_dict
        out = tuple([(p, m[q]) for p, q in other.mapping])
        return BallArrow(other.src, self.dst, out, other.witness + self.witness)

    def inverse(self) -> "BallArrow":
        return BallArrow(self.dst, self.src,
                         tuple(sorted((q, p) for p, q in self.mapping)),
                         tuple(_invert_letter(l) for l in reversed(self.witness)))


class EdgeAtom(Value):
    """Centered isomorphism between the canonical neighbourhoods of two darts."""

    __slots__ = ("anchor", "image", "mapping", "serial")
    _compare = ("anchor", "image", "mapping")

    def __init__(self, anchor: str, image: str, mapping: tuple):
        self.anchor = anchor
        self.image = image
        self.mapping = mapping
        self.serial = ("atom", anchor, image, mapping)


def edge_neighbourhood(cover: UniversalCover, root, dart, radius: int):
    """Vertices within radius-1 of either endpoint of the tree dart (root, dart)."""
    head = cover.step(root, dart)
    vs = set(cover.ball(root, radius - 1).vertices)
    vs |= set(cover.ball(head, radius - 1).vertices)
    return tuple(sorted(vs))


@dataclass
class DiscoveredAtoms:
    vertex_arrows: list
    edge_atoms: list
    radius: int
    explore_radius: int


def discover_atoms(g1: Graph, g2: Graph, alignment: TreeAlignment,
                   radius: int, explore_radius: int) -> DiscoveredAtoms:
    """Normalised restrictions of the alignment to balls and edge
    neighbourhoods centred within the exploration radius."""
    if explore_radius < 0:
        raise GraphError("exploration radius must be non-negative")
    if radius < 1:
        raise GraphError("ball radius must be at least 1")
    c1, c2 = alignment.c1, alignment.c2
    alignment.ensure_radius(explore_radius + radius)
    vertex_arrows = {}
    edge_atoms = {}
    for z in c1.layers(explore_radius):
        x = c1.project(z)
        z2 = alignment.apply(z)
        y = c2.project(z2)
        zx = c1.canonical_lift(x)
        zy = c2.canonical_lift(y)
        w1 = c1.deck_loop(zx, z)
        w2 = c2.deck_loop(z2, zy)
        mapping = {}
        for p in c1.ball(zx, radius).vertices:
            a = c1.transport(w1, p)
            mapping[p] = c2.transport(w2, alignment.apply(a))
        arrow = BallArrow(
            "1:" + x, "2:" + y, tuple(sorted(mapping.items())),
            witness=(("p1", c1.loop_to_word(w1)), ("th", 1),
                     ("p2", c2.loop_to_word(w2))))
        vertex_arrows.setdefault(arrow.serial, arrow)
        # the edge atoms at this vertex are restrictions of the same map
        for d, w in c1.star_darts(z):
            f = c2.dart_between(z2, alignment.apply(w))
            nb = edge_neighbourhood(c1, zx, d, radius)
            atom = EdgeAtom("1:" + d, "2:" + f,
                            tuple(sorted((p, mapping[p]) for p in nb)))
            edge_atoms.setdefault(atom.serial, atom)
    return DiscoveredAtoms([vertex_arrows[s] for s in sorted(vertex_arrows)],
                           [edge_atoms[s] for s in sorted(edge_atoms)],
                           radius, explore_radius)


class BallLocalSystem(LocalSystem):
    kind = "ball"

    def __init__(self, g1, g2, union, groupoid, joint, alignment,
                 radius, explore_radius, discovered):
        super().__init__(g1, g2, union, groupoid)
        self.joint = joint
        self.alignment = alignment
        self.cover1 = alignment.c1
        self.cover2 = alignment.c2
        self.radius = radius
        self.explore_radius = explore_radius
        self.discovered = discovered
        self._lift_cache = {}

    def _cover_of(self, prefixed):
        return self.cover1 if side_of(prefixed) == 1 else self.cover2

    def _dart_lift(self, prefixed):
        """Canonical lift of a dart: (root path, head path) in its cover."""
        out = self._lift_cache.get(prefixed)
        if out is None:
            cover = self._cover_of(prefixed)
            raw = strip_side(prefixed)
            root = cover.canonical_lift(cover.graph.origin[raw])
            out = (root, cover.step(root, raw))
            self._lift_cache[prefixed] = out
        return out

    def identity_atom(self, dart):
        cover = self._cover_of(dart)
        raw = strip_side(dart)
        root = cover.canonical_lift(cover.graph.origin[raw])
        nb = edge_neighbourhood(cover, root, raw, self.radius)
        return EdgeAtom(dart, dart, tuple((p, p) for p in nb))

    def act(self, arrow, atom):
        root, head = self._dart_lift(atom.image)
        m = arrow.as_dict
        new_mapping = tuple((p, m[q]) for p, q in atom.mapping)
        target_cover = self._cover_of(arrow.dst)
        new_dart = target_cover.dart_between(m[root], m[head])
        return EdgeAtom(atom.anchor, "%d:%s" % (side_of(arrow.dst), new_dart),
                        new_mapping)

    def bar(self, atom):
        csrc = self._cover_of(atom.anchor)
        ctgt = self._cover_of(atom.image)
        e = strip_side(atom.anchor)
        f = strip_side(atom.image)
        e_rev = csrc.graph.reverse[e]
        f_rev = ctgt.graph.reverse[f]
        zx = csrc.canonical_lift(csrc.graph.origin[e])
        zy = ctgt.canonical_lift(ctgt.graph.origin[f])
        w1 = csrc.deck_loop(csrc.canonical_lift(csrc.graph.origin[e_rev]),
                            csrc.step(zx, e))
        w2 = ctgt.deck_loop(ctgt.step(zy, f),
                            ctgt.canonical_lift(ctgt.graph.origin[f_rev]))
        m = dict(atom.mapping)
        root = csrc.canonical_lift(csrc.graph.origin[e_rev])
        nb = edge_neighbourhood(csrc, root, e_rev, self.radius)
        mapping = tuple(sorted(
            (p, ctgt.transport(w2, m[csrc.transport(w1, p)])) for p in nb))
        rev = self.union.reverse
        return EdgeAtom(rev[atom.anchor], rev[atom.image], mapping)


def build_ball_system(g1: Graph, g2: Graph, radius: int,
                      explore_radius=None, joint: JointBlocks = None,
                      alignment: TreeAlignment = None,
                      discovered: DiscoveredAtoms = None) -> BallLocalSystem:
    """Saturate discovered ball atoms into a local system, checking axioms.

    Raises ``AxiomError`` when the closure axioms fail at this exploration
    radius or when a discovered edge atom is not reachable from the
    identity atoms; callers retry with a larger radius.
    """
    if joint is None:
        joint = joint_refinement(g1, g2)
    if not joint.ok:
        raise GraphError("no common universal cover")
    if alignment is None:
        alignment = build_alignment(UniversalCover(g1), UniversalCover(g2), joint)
    if explore_radius is None:
        explore_radius = radius + g1.diameter() + g2.diameter()
    if discovered is None:
        discovered = discover_atoms(g1, g2, alignment, radius, explore_radius)
    union = disjoint_union(g1, g2)

    def identity_factory(x):
        cover = alignment.c1 if side_of(x) == 1 else alignment.c2
        root = cover.canonical_lift(strip_side(x))
        vs = cover.ball(root, radius).vertices
        return BallArrow(x, x, tuple((p, p) for p in vs))

    groupoid = saturate(discovered.vertex_arrows, union.vertices, identity_factory)
    sys = BallLocalSystem(g1, g2, union, groupoid, joint, alignment,
                          radius, explore_radius, discovered)
    for atom in discovered.edge_atoms:
        if atom.serial not in sys.atoms_by_anchor[atom.anchor]:
            raise AxiomError(
                "closure axioms unmet at radius %d (edge atom %r unreachable)"
                % (explore_radius, atom.anchor),
                radius=explore_radius, witness=atom.serial)
    report = sys.check_axioms()
    if not report.ok:
        raise AxiomError("closure axioms unmet at radius %d (failing item %r)"
                         % (explore_radius, report.detail),
                         radius=explore_radius, witness=report.detail)
    return sys


def build_ball_system_retrying(g1, g2, radius,
                               explore_radius=None) -> BallLocalSystem:
    if explore_radius is None:
        explore_radius = radius + g1.diameter() + g2.diameter()
    return retry_doubling(lambda rho: build_ball_system(
        g1, g2, radius, explore_radius=rho), explore_radius)


def verify_witness(arrow: BallArrow, sys: BallLocalSystem) -> bool:
    """Re-evaluate an arrow's witness word and compare with its stored map.

    Letters are applied left to right: deck words act on the current side,
    alignment markers switch sides.  The evaluation starts from the
    identity on the canonical source ball.
    """
    side = side_of(arrow.src)
    cover = sys.cover1 if side == 1 else sys.cover2
    root = cover.canonical_lift(strip_side(arrow.src))
    current = {p: p for p in cover.ball(root, sys.radius).vertices}
    for kind, payload in arrow.witness:
        if kind == "th":
            if payload == 1:
                if side != 1:
                    return False
                current = {p: sys.alignment.apply(q) for p, q in current.items()}
                side = 2
            else:
                if side != 2:
                    return False
                current = {p: sys.alignment.apply_inverse(q)
                           for p, q in current.items()}
                side = 1
        elif kind == "p1":
            if side != 1:
                return False
            loop = sys.cover1.word_to_loop(payload)
            current = {p: sys.cover1.transport(loop, q)
                       for p, q in current.items()}
        elif kind == "p2":
            if side != 2:
                return False
            loop = sys.cover2.word_to_loop(payload)
            current = {p: sys.cover2.transport(loop, q)
                       for p, q in current.items()}
        else:
            return False
    if side != side_of(arrow.dst):
        return False
    return tuple(sorted(current.items())) == arrow.mapping


def saturation_horizon(g1: Graph, g2: Graph, radius: int,
                       explore_max: int) -> int:
    """Smallest tested exploration radius after which one more step adds no
    new vertex arrows; this is an empirical stability report, not a
    completeness proof."""
    joint = joint_refinement(g1, g2)
    alignment = build_alignment(UniversalCover(g1), UniversalCover(g2), joint)
    prev = None
    for rho in range(explore_max + 1):
        found = discover_atoms(g1, g2, alignment, radius, rho)
        serials = {a.serial for a in found.vertex_arrows}
        if prev is not None and serials == prev:
            return rho - 1
        prev = serials
    return explore_max
