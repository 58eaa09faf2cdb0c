"""Local systems of star bijections over the vertices of two graphs.

Two construction strategies sit behind one interface:

* ``dr_full``: every bijection between stars of same-block vertices that
  preserves the type (dart colour, reverse colour, head block) of each
  dart.  This system is a groupoid by construction and always satisfies
  the closure axioms.
* ``aligned``: only the star maps induced by an alignment of the two
  universal covers, evaluated at tree vertices within an exploration
  radius, then saturated into a groupoid.  Completeness at a finite radius
  is not guaranteed, so the closure axioms are checked and a failure
  raises ``AxiomError``; callers retry with a larger radius.
"""

from __future__ import annotations

import itertools
from math import factorial, prod

from .cover_builder import (AxiomError, Kind, LocalSystem, Numbering, aligned_inputs,
                            build_aligned, retry_doubling)
from .graphs import BudgetExceeded, Graph, GraphError
from .groupoids import FiniteGroupoid, PermArrow
from .refinement import JointBlocks, joint_refinement
from .universal_cover import TreeAlignment

STRATEGY_DR_FULL = "dr_full"
STRATEGY_ALIGNED = "aligned"
DR_FULL_ARROW_BUDGET = 200000


class StarArrow(PermArrow):
    """A bijection between the stars of two vertex indices: ``perm`` over
    their sorted darts; its serial is ("star", src, dst, bij) with the
    vertex ids and ``bij`` the sorted (dart, image) pairs."""

    __slots__ = ()
    tag = "star"
    bij = PermArrow.pairs


def star_numbering(union: Graph) -> Numbering:
    """Stars as domains: an atom at e restricts an arrow to e alone, and bar
    moves each dart to its reverse.  The serials read the ids, ``shown``."""
    rev = union.rev
    numbering = Numbering(union, union.stars(), lambda e: (e,), lambda e: e,
                          lambda e, nb: (rev[e],))
    numbering.shown = [tuple(map(union.darts.__getitem__, star)) for star in numbering.stars]
    return numbering


class StarLocalSystem(LocalSystem):
    kind = "star"

    def __init__(self, g1, g2, union, groupoid, joint: JointBlocks,
                 strategy: str, explore_radius=None, atom_arrows=(), numbering=None):
        super().__init__(g1, g2, union, groupoid, numbering or star_numbering(union))
        self.joint = joint
        self.strategy = strategy
        self.explore_radius = explore_radius
        self.atom_arrows = tuple(atom_arrows)

    def atom_serial(self, atom):
        """(anchor dart, image dart)."""
        darts = self.union.darts
        return (darts[atom[0]], darts[self.atom_image(atom)])

    def atom_shapes(self, atoms, quote):
        darts = list(map(quote, self.union.darts))
        return [0] * len(atoms), [(darts[a[0]], darts[self.atom_image(a)]) for a in atoms]


def _grouped_star(types: list, star) -> dict:
    """type -> the positions in the star of the darts of that type."""
    groups = {}
    for i, d in enumerate(star):
        groups.setdefault(types[d], []).append(i)
    return groups


def _dr_full_arrows(union: Graph, joint: JointBlocks, shown: list) -> list:
    """Every type-preserving star bijection within a block, on the stars as
    ids ``shown``; their number, sum over blocks B of |B|^2 prod_t k_t!, is
    checked before allocating."""
    part = joint.partition
    grouped = [_grouped_star(part.types, star) for star in union.stars()]
    count = sum(len(block) ** 2 * prod(factorial(len(ds))
                                        for ds in grouped[block[0]].values())
                for block in part.blocks)
    if count > DR_FULL_ARROW_BUDGET:
        raise BudgetExceeded("dr_full needs %d arrows (budget %d)"
                             % (count, DR_FULL_ARROW_BUDGET))
    arrows, tables, names = [], {}, union.vertices
    for block in part.blocks:
        for u in block:
            gu = grouped[u]
            types = sorted(gu)
            domain = shown[u]
            slots = list(itertools.chain.from_iterable(map(gu.__getitem__, types)))
            for v in block:
                gv = grouped[v]
                if sorted(gv) != types or any(len(gu[t]) != len(gv[t]) for t in types):
                    raise AxiomError("joint partition is not equitable at %r" % (names[v],))
                codomain = shown[v]
                pools = [itertools.permutations(gv[t]) for t in types]
                for combo in itertools.product(*pools):
                    perm = [0] * len(domain)
                    for i, j in zip(slots, itertools.chain.from_iterable(combo)):
                        perm[i] = j
                    arrows.append(StarArrow(u, v, perm, domain, codomain, names,
                                            tables=tables))
    return arrows


def induced_star_map(alignment: TreeAlignment, z, numbering: Numbering) -> StarArrow:
    """Star bijection induced at a tree vertex: lift to the first cover's
    tree, push through the alignment, project to the second graph.  Its
    domains are the stars of the disjoint union of the two graphs, which
    keep each side's dart order, as ids (``star_numbering``'s ``shown``)."""
    c1, c2 = alignment.c1, alignment.c2
    z2 = alignment.apply(z)
    x, y = c1.project(z), c2.project(z2)
    star = c2.stars[y]
    perm = [star.index(c2.dart_between(z2, alignment.apply(w))) for _, w in c1.star_darts(z)]
    dst, shown = len(c1.graph.vertices) + y, numbering.shown
    return StarArrow(x, dst, perm, shown[x], shown[dst], numbering.union.vertices)


class StarKind(Kind):
    """The star maps the alignment induces (``induced_star_map``)."""

    def __init__(self, alignment, radius: int):
        super().__init__(alignment, radius)
        self.numbering = star_numbering(self.union)

    def arrow_at(self, alignment, z) -> StarArrow:
        return induced_star_map(alignment, z, self.numbering)

    def identity(self, x) -> StarArrow:
        return StarArrow.identity(x, self.numbering.shown[x], self.union.vertices)

    def system(self, g1, g2, alignment, groupoid, explore_radius, found) -> StarLocalSystem:
        return StarLocalSystem(g1, g2, self.union, groupoid, alignment.joint,
                               STRATEGY_ALIGNED, explore_radius, found.vertex_arrows,
                               self.numbering)


def build_star_system(g1: Graph, g2: Graph, strategy: str = STRATEGY_DR_FULL,
                      explore_radius=None, joint: JointBlocks = None,
                      alignment: TreeAlignment = None) -> StarLocalSystem:
    """Build the star-bijection local system for two connected graphs; the
    aligned strategy is the star kind of ``build_aligned``."""
    if strategy == STRATEGY_ALIGNED:
        return build_aligned(StarKind, 1, g1, g2, explore_radius, joint, alignment)
    if strategy != STRATEGY_DR_FULL:
        raise GraphError("unknown strategy: %r" % (strategy,))
    joint = joint or joint_refinement(g1, g2)
    if not joint.ok:
        raise GraphError("no common universal cover")
    union = joint.union
    numbering = star_numbering(union)
    objects = range(len(union.vertices))
    arrows = _dr_full_arrows(union, joint, numbering.shown)
    identities = {x: StarArrow.identity(x, numbering.shown[x], union.vertices)
                  for x in objects}
    groupoid = FiniteGroupoid(tuple(objects),
                              tuple(sorted(set(arrows), key=lambda a: a.key)),
                              identities)
    return StarLocalSystem(g1, g2, union, groupoid, joint, strategy,
                           numbering=numbering).require_axioms()


def build_star_system_retrying(g1, g2, strategy=STRATEGY_ALIGNED,
                               explore_radius=None, joint: JointBlocks = None):
    """Aligned-strategy builder with doubling retries on axiom failure
    (``retry_doubling``): the joint blocks, the alignment and the default
    radius are prepared once, and each attempt is one ``build_star_system``."""
    if strategy == STRATEGY_DR_FULL:
        return build_star_system(g1, g2, strategy, joint=joint)
    joint, alignment, explore_radius = aligned_inputs(g1, g2, 1, explore_radius, joint)
    # the name is looked up at each attempt, so a wrapper installed on the
    # module (perfbench's tracer) sees every attempt
    return retry_doubling(lambda rho: build_star_system(g1, g2, strategy, rho, joint, alignment),
                          explore_radius)
