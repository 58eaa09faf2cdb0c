"""Local systems of normalised ball isomorphisms between universal covers.

Arrows are isomorphisms between the radius-R balls around the canonical
lifts of two base vertices; because deck transformations act freely, every
class of ball isomorphisms modulo deck composition on either side contains
exactly one representative anchored at canonical lifts, so arrows compose
as plain maps and structural equality decides class equality.

Atoms play the same role one dimension down: isomorphisms between the
(R-1)-neighbourhoods of the canonical lifts of two darts, normalised the
same way.  Each is the restriction of an arrow to the neighbourhood of its
anchor dart, held as positions in the numbered canonical balls
(``cover_builder.LocalSystem``).  The atoms anchored at a dart are the
orbit of its identity atom under the arrow action, computed by the shared
one-step rule of ``LocalSystem.atoms_by_anchor``; every discovered edge
atom must lie in that set, and coverage, bar closure and the action laws
are runtime checks.

Every discovered arrow carries a witness word over the free generators of
the two deck groups and alignment markers; evaluating the word from
scratch and comparing with the stored map certifies that the arrow is the
restriction of a product of deck transformations and the alignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover_builder import AxiomError, Numbering, LocalSystem, retry_doubling
from .graphs import Graph, GraphError
from .groupoids import PermArrow, gather, saturate
from .refinement import JointBlocks, joint_refinement
from .universal_cover import TreeAlignment, UniversalCover, build_alignment


def _invert_letter(letter):
    kind, payload = letter
    if kind == "th":
        return ("th", -payload)
    return (kind, tuple((i, -e) for i, e in reversed(payload)))


class BallArrow(PermArrow):
    """Root-to-root isomorphism between two canonical balls: ``perm`` over
    the sorted vertex paths of the canonical balls of ``src`` and ``dst``;
    its serial is ("ball", src, dst, mapping) with ``mapping`` the sorted
    (path, path) pairs, the paths rendered as dart identifiers (the
    numbering's ``shown`` domains).  The deck-word witness is carried along
    but is not part of identity."""

    __slots__ = ()
    tag = "ball"
    mapping = PermArrow.pairs

    @staticmethod
    def invert_word(word: tuple) -> tuple:
        return tuple(_invert_letter(l) for l in reversed(word))


def edge_neighbourhood(cover: UniversalCover, root, dart, radius: int):
    """Vertices within radius-1 of either endpoint of the tree dart (root, dart)."""
    head = cover.step(root, dart)
    vs = set(cover.ball(root, radius - 1).vertices)
    vs |= set(cover.ball(head, radius - 1).vertices)
    return tuple(sorted(vs))


def ball_numbering(union: Graph, c1: UniversalCover, c2: UniversalCover,
                   radius: int) -> Numbering:
    """Canonical balls as domains, numbered once per base vertex of the
    union.  An atom at a dart e restricts an arrow to the edge
    neighbourhood of the canonical lift of e, and bar transports it by the
    deck transformation that takes the head of that lift to the canonical
    lift of head(e).  The serials read ``shown``: per base vertex, its
    domain's paths as dart identifiers, rendered once."""
    # per union vertex and dart: its side's cover and its index in that side
    vside = [(c, i) for c in (c1, c2) for i in range(len(c.graph.vertices))]
    dside = [(c, i) for c in (c1, c2) for i in range(len(c.graph.darts))]
    lift = [c.canonical_lift(v) for c, v in vside]
    domains = [c.ball(z, radius).vertices for (c, _), z in zip(vside, lift)]
    org, rev = union.org, union.rev

    def neighbourhood(e):
        c, d = dside[e]
        return edge_neighbourhood(c, lift[org[e]], d, radius)

    def head(e):
        c, d = dside[e]
        return c.step(lift[org[e]], d)

    def across(e, nb):
        c = dside[e][0]
        loop = c.deck_loop(head(e), lift[org[rev[e]]])
        return [c.transport(loop, p) for p in nb]

    numbering = Numbering(union, domains, neighbourhood, head, across)
    numbering.shown = [tuple(map(c.ids, dom)) for (c, _), dom in zip(vside, domains)]
    return numbering


@dataclass
class DiscoveredAtoms:
    vertex_arrows: list
    edge_atoms: list               # atoms (anchor, target, positions), by key
    radius: int
    explore_radius: int
    numbering: Numbering = None


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
    union = alignment.joint.union
    numbering = ball_numbering(union, c1, c2, radius)
    domains, shown = numbering.domains, numbering.shown
    positions, dom, n1 = numbering.positions, numbering.dom, len(g1.vertices)
    vertex_arrows, tables = {}, {}
    edge_atoms = set()
    for z in c1.layers(explore_radius):
        x = c1.project(z)
        z2 = alignment.apply(z)
        y = c2.project(z2)
        dst = n1 + y
        w1 = c1.deck_loop(c1.canonical_lift(x), z)
        w2 = c2.deck_loop(z2, c2.canonical_lift(y))
        at = positions[dst]
        perm = [at[c2.transport(w2, alignment.apply(c1.transport(w1, p)))]
                for p in domains[x]]
        arrow = BallArrow(
            x, dst, perm, shown[x], shown[dst], union.vertices,
            witness=(("p1", c1.loop_to_word(w1)), ("th", 1),
                     ("p2", c2.loop_to_word(w2))), tables=tables)
        vertex_arrows.setdefault(arrow.key, arrow)
        # the edge atoms at this vertex are restrictions of the same map
        for e in numbering.stars[x]:
            edge_atoms.add((e, dst, gather(dom[e])(arrow.table)))
    return DiscoveredAtoms([vertex_arrows[k] for k in sorted(vertex_arrows)],
                           sorted(edge_atoms), radius, explore_radius, numbering)


class BallLocalSystem(LocalSystem):
    kind = "ball"

    def __init__(self, g1, g2, union, groupoid, joint, alignment,
                 radius, explore_radius, discovered, numbering: Numbering):
        super().__init__(g1, g2, union, groupoid, numbering)
        self.joint = joint
        self.alignment = alignment
        self.cover1 = alignment.c1
        self.cover2 = alignment.c2
        self.radius = radius
        self.explore_radius = explore_radius
        self.discovered = discovered

    def atom_serial(self, atom):
        """("atom", anchor dart, image dart, sorted (path, path) pairs)."""
        e, y, r = atom
        domains, darts = self.numbering.shown, self.union.darts
        source, target = domains[self._org[e]], domains[y]
        return ("atom", darts[e], darts[self.atom_image(atom)],
                tuple([(source[i], target[j])
                       for i, j in zip(self.numbering.dom[e], r)]))


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
    union = joint.union
    numbering = discovered.numbering
    if numbering is None:
        numbering = ball_numbering(union, alignment.c1, alignment.c2, radius)
    shown = numbering.shown

    def identity_factory(x):
        return BallArrow(x, x, range(len(shown[x])), shown[x], shown[x], union.vertices)

    groupoid = saturate(discovered.vertex_arrows, range(len(union.vertices)), identity_factory)
    sys = BallLocalSystem(g1, g2, union, groupoid, joint, alignment,
                          radius, explore_radius, discovered, numbering)
    unreachable = [a for a in discovered.edge_atoms
                   if a not in sys.atoms_by_anchor[a[0]]]
    if unreachable:
        serial = min(map(sys.atom_serial, unreachable))
        raise AxiomError(
            "closure axioms unmet at radius %d (edge atom %r unreachable)"
            % (explore_radius, serial[1]),
            radius=explore_radius, witness=serial)
    report = sys.check_axioms()
    if not report.ok:
        raise AxiomError("closure axioms unmet at radius %d (failing item %r)"
                         % (explore_radius, report.detail),
                         radius=explore_radius, witness=report.detail)
    return sys


def build_ball_system_retrying(g1, g2, radius, explore_radius=None,
                               joint: JointBlocks = None) -> BallLocalSystem:
    """``build_ball_system`` with doubling retries on axiom failure; the
    retries share one joint refinement (computed unless given) and one
    alignment, which each grows."""
    if explore_radius is None:
        explore_radius = radius + g1.diameter() + g2.diameter()
    joint = joint or joint_refinement(g1, g2)
    alignment = build_alignment(UniversalCover(g1), UniversalCover(g2), joint)
    return retry_doubling(lambda rho: build_ball_system(
        g1, g2, radius, rho, joint, alignment), explore_radius)


def verify_witness(arrow: BallArrow, sys: BallLocalSystem) -> bool:
    """Re-evaluate an arrow's witness word and compare with its stored map.

    Letters are applied left to right: deck words act on the current side,
    alignment markers switch sides.  The evaluation starts from the
    identity on the canonical source ball.
    """
    n1, numbering = sys.n1, sys.numbering
    first = arrow.src < n1              # the evaluation is on the first side
    current = numbering.domains[arrow.src]      # the images, in domain order
    for kind, payload in arrow.witness:
        if kind == "th" and (payload == 1) == first:
            step = sys.alignment.apply if first else sys.alignment.apply_inverse
            current = list(map(step, current))
            first = not first
        elif kind in ("p1", "p2") and (kind == "p1") == first:
            cover = sys.cover1 if first else sys.cover2
            loop = cover.word_to_loop(payload)
            current = [cover.transport(loop, q) for q in current]
        else:
            return False
    return (first == (arrow.dst < n1) and
            list(map(numbering.positions[arrow.dst].get, current)) == list(arrow.perm))


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
        keys = {a.key for a in found.vertex_arrows}
        if prev is not None and keys == prev:
            return rho - 1
        prev = keys
    return explore_max
