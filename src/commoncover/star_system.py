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

from .cover_builder import AxiomError, Numbering, LocalSystem, retry_doubling
from .graphs import BudgetExceeded, Graph, GraphError
from .groupoids import FiniteGroupoid, PermArrow, saturate
from .refinement import JointBlocks, _dart_type, joint_refinement
from .universal_cover import TreeAlignment, UniversalCover, build_alignment

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


def _identity_arrow(union: Graph):
    def factory(x):
        star = union.star(union.vertices[x])
        return StarArrow(x, x, range(len(star)), star, star, union.vertices)
    return factory


def star_numbering(union: Graph) -> Numbering:
    """Stars as domains: an atom at e restricts an arrow to e alone, and bar
    moves each dart to its reverse."""
    darts, rev = union.darts, union.rev
    return Numbering(union, list(map(union.star, union.vertices)), lambda e: (darts[e],),
                     darts.__getitem__, lambda e, nb: (darts[rev[e]],))


class StarLocalSystem(LocalSystem):
    kind = "star"

    def __init__(self, g1, g2, union, groupoid, joint: JointBlocks,
                 strategy: str, explore_radius=None, atom_arrows=()):
        super().__init__(g1, g2, union, groupoid, star_numbering(union))
        self.joint = joint
        self.strategy = strategy
        self.explore_radius = explore_radius
        self.atom_arrows = tuple(atom_arrows)

    def atom_serial(self, atom):
        """(anchor dart, image dart)."""
        darts = self.union.darts
        return (darts[atom[0]], darts[self.atom_image(atom)])


def _grouped_star(union, dart_type, v):
    groups = {}
    for d in union.star(v):
        groups.setdefault(dart_type(d), []).append(d)
    return groups


def _dr_full_arrows(union: Graph, joint: JointBlocks) -> list:
    """Every type-preserving star bijection within a block; their number,
    sum over blocks B of |B|^2 prod_t k_t!, is checked before allocating."""
    block_of = joint.partition.block_of
    dart_type = _dart_type(union, block_of)
    grouped = {v: _grouped_star(union, dart_type, v) for v in union.vertices}
    at = union.index()[0]
    count = sum(len(block) ** 2 * prod(factorial(len(ds))
                                        for ds in grouped[block[0]].values())
                for block in joint.partition.blocks)
    if count > DR_FULL_ARROW_BUDGET:
        raise BudgetExceeded("dr_full needs %d arrows (budget %d)"
                             % (count, DR_FULL_ARROW_BUDGET))
    arrows, tables = [], {}
    for block in joint.partition.blocks:
        for u in block:
            gu = grouped[u]
            types = sorted(gu)
            domain = union.star(u)
            slots = [i for t in types for i in (domain.index(d) for d in gu[t])]
            for v in block:
                gv = grouped[v]
                if sorted(gv) != types or any(len(gu[t]) != len(gv[t]) for t in types):
                    raise AxiomError("joint partition is not equitable at %r" % (v,))
                codomain = union.star(v)
                pools = [itertools.permutations([codomain.index(f) for f in gv[t]])
                         for t in types]
                for combo in itertools.product(*pools):
                    perm = [0] * len(domain)
                    for i, j in zip(slots, itertools.chain.from_iterable(combo)):
                        perm[i] = j
                    arrows.append(StarArrow(at[u], at[v], perm, domain, codomain,
                                            union.vertices, tables=tables))
    return arrows


def induced_star_map(alignment: TreeAlignment, z, union: Graph) -> StarArrow:
    """Star bijection induced at a tree vertex: lift to the first cover's
    tree, push through the alignment, project to the second graph.  Its
    domains are the stars of ``union``, the disjoint union of the two
    graphs, which keep each side's dart order."""
    c1, c2 = alignment.c1, alignment.c2
    z2 = alignment.apply(z)
    x, y = c1.project(z), c2.project(z2)
    star = c2.stars[y]
    perm = [star.index(c2.dart_between(z2, alignment.apply(w))) for _, w in c1.star_darts(z)]
    dst, names = len(c1.graph.vertices) + y, union.vertices
    return StarArrow(x, dst, perm, union.star(names[x]), union.star(names[dst]), names)


def _aligned_atoms(alignment: TreeAlignment, explore_radius: int,
                   union: Graph) -> list:
    alignment.ensure_radius(explore_radius + 1)
    seen = {}
    for z in alignment.c1.layers(explore_radius):
        arrow = induced_star_map(alignment, z, union)
        seen.setdefault(arrow.key, arrow)
    return [seen[k] for k in sorted(seen)]


def build_star_system(g1: Graph, g2: Graph, strategy: str = STRATEGY_DR_FULL,
                      explore_radius=None, joint: JointBlocks = None,
                      alignment: TreeAlignment = None) -> StarLocalSystem:
    """Build the star-bijection local system for two connected graphs."""
    if joint is None:
        joint = joint_refinement(g1, g2)
    if not joint.ok:
        raise GraphError("no common universal cover")
    union = joint.union
    objects = range(len(union.vertices))
    if strategy == STRATEGY_DR_FULL:
        arrows = _dr_full_arrows(union, joint)
        identities = {x: _identity_arrow(union)(x) for x in objects}
        groupoid = FiniteGroupoid(tuple(objects),
                                  tuple(sorted(set(arrows), key=lambda a: a.key)),
                                  identities)
        sys = StarLocalSystem(g1, g2, union, groupoid, joint, strategy)
        report = sys.check_axioms()
        if not report.ok:
            raise AxiomError("complete star system failed its axioms at %r"
                             % (report.detail,))
        return sys
    if strategy != STRATEGY_ALIGNED:
        raise GraphError("unknown strategy: %r" % (strategy,))
    if explore_radius is None:
        explore_radius = 1 + g1.diameter() + g2.diameter()
    if alignment is None:
        alignment = build_alignment(UniversalCover(g1), UniversalCover(g2), joint)
    atoms = _aligned_atoms(alignment, explore_radius, union)
    groupoid = saturate(atoms, objects, _identity_arrow(union))
    sys = StarLocalSystem(g1, g2, union, groupoid, joint, strategy,
                          explore_radius, atoms)
    sys.alignment = alignment
    report = sys.check_axioms()
    if not report.ok:
        raise AxiomError("closure axioms unmet at radius %d (failing item %r)"
                         % (explore_radius, report.detail),
                         radius=explore_radius, witness=report.detail)
    return sys


def build_star_system_retrying(g1, g2, strategy=STRATEGY_ALIGNED,
                               explore_radius=None, joint: JointBlocks = None):
    """Aligned-strategy builder with doubling retries on axiom failure; the
    retries share one joint refinement (computed unless given) and one
    alignment, which each grows."""
    if strategy == STRATEGY_DR_FULL:
        return build_star_system(g1, g2, strategy, joint=joint)
    if explore_radius is None:
        explore_radius = 1 + g1.diameter() + g2.diameter()
    joint = joint or joint_refinement(g1, g2)
    alignment = build_alignment(UniversalCover(g1), UniversalCover(g2), joint)
    return retry_doubling(lambda rho: build_star_system(
        g1, g2, strategy, rho, joint, alignment), explore_radius)
