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
one-step rule of ``LocalSystem.atoms_by_anchor``, and coverage, bar
closure and the action laws are runtime checks.

Every discovered arrow carries a witness word over the free generators of
the two deck groups and alignment markers; evaluating the word from
scratch and comparing with the stored map certifies that the arrow is the
restriction of a product of deck transformations and the alignment.
"""

from __future__ import annotations

from .cover_builder import (DiscoveredAtoms, Kind, LocalSystem, Numbering, aligned_inputs,
                            build_aligned, retry_doubling)
from .graphs import Graph, GraphError
from .groupoids import PermArrow
from .refinement import JointBlocks
from .universal_cover import TreeAlignment, UniversalCover


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


class BallKind(Kind):
    """The normalised restrictions of the alignment to the canonical balls
    of radius R (``ball_numbering``)."""

    def __init__(self, alignment, radius: int):
        if radius < 1:
            raise GraphError("ball radius must be at least 1")
        super().__init__(alignment, radius)
        self.numbering = ball_numbering(alignment.joint.union, alignment.c1, alignment.c2, radius)

    def arrow_at(self, alignment, z) -> BallArrow:
        numbering = self.numbering
        c1, c2, shown = alignment.c1, alignment.c2, numbering.shown
        x = c1.project(z)
        z2 = alignment.apply(z)
        y = c2.project(z2)
        dst = len(c1.graph.vertices) + y
        w1 = c1.deck_loop(c1.canonical_lift(x), z)
        w2 = c2.deck_loop(z2, c2.canonical_lift(y))
        at = numbering.positions[dst]
        perm = [at[c2.transport(w2, alignment.apply(c1.transport(w1, p)))]
                for p in numbering.domains[x]]
        return BallArrow(
            x, dst, perm, shown[x], shown[dst], numbering.union.vertices,
            witness=(("p1", c1.loop_to_word(w1)), ("th", 1),
                     ("p2", c2.loop_to_word(w2))))

    def identity(self, x) -> BallArrow:
        return BallArrow.identity(x, self.numbering.shown[x], self.numbering.union.vertices)

    def system(self, g1, g2, alignment, groupoid, explore_radius, found) -> BallLocalSystem:
        return BallLocalSystem(g1, g2, alignment, groupoid, self, explore_radius, found)


class BallLocalSystem(LocalSystem):
    kind = "ball"

    def __init__(self, g1, g2, alignment, groupoid, walk: BallKind, explore_radius,
                 discovered):
        super().__init__(g1, g2, groupoid, walk.numbering)
        self.alignment, self.radius = alignment, walk.radius
        self.cover1, self.cover2 = alignment.c1, alignment.c2
        self.explore_radius, self.discovered = explore_radius, discovered

    def atom_serial(self, atom):
        """("atom", anchor dart, image dart, sorted (path, path) pairs)."""
        e, y, r = atom
        domains, darts = self.numbering.shown, self.union.darts
        source, target = domains[self._org[e]], domains[y]
        return ("atom", darts[e], darts[self.atom_image(atom)],
                tuple([(source[i], target[j])
                       for i, j in zip(self.numbering.dom[e], r)]))

    def atom_shapes(self, atoms, quote):
        darts, org, dom = list(map(quote, self.union.darts)), self._org, self.numbering.dom
        return self.serial_shapes(
            [('"atom"', darts[a[0]], darts[self.atom_image(a)]) for a in atoms],
            [(org[e], dom[e], y, r) for e, y, r in atoms], quote)


def discover_atoms(g1: Graph, g2: Graph, alignment: TreeAlignment,
                   radius: int, explore_radius: int) -> DiscoveredAtoms:
    """Normalised restrictions of the alignment to balls and edge
    neighbourhoods centred within the exploration radius: the ball kind's
    walk on the alignment."""
    return BallKind(alignment, radius).within(alignment, explore_radius)


def build_ball_system(g1: Graph, g2: Graph, radius: int,
                      explore_radius=None, joint: JointBlocks = None,
                      alignment: TreeAlignment = None) -> BallLocalSystem:
    """The ball kind of ``build_aligned``; an ``AxiomError`` asks the caller
    to retry at a larger radius."""
    return build_aligned(BallKind, radius, g1, g2, explore_radius, joint, alignment)


def build_ball_system_retrying(g1, g2, radius, explore_radius=None,
                               joint: JointBlocks = None) -> BallLocalSystem:
    """``build_ball_system`` with doubling retries on axiom failure
    (``retry_doubling``): the joint blocks, the alignment and the default
    radius are prepared once, and each attempt is one ``build_ball_system``."""
    joint, alignment, explore_radius = aligned_inputs(g1, g2, radius, explore_radius, joint)
    # the name is looked up at each attempt, as in build_star_system_retrying
    return retry_doubling(lambda rho: build_ball_system(g1, g2, radius, rho, joint, alignment),
                          explore_radius)


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
