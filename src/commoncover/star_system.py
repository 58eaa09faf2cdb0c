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

from .cover_builder import AxiomError, LocalSystem, retry_doubling
from .graphs import BudgetExceeded, Graph, GraphError, disjoint_union
from .groupoids import FiniteGroupoid, Value, saturate
from .refinement import JointBlocks, _dart_type, joint_refinement
from .universal_cover import TreeAlignment, UniversalCover, build_alignment

STRATEGY_DR_FULL = "dr_full"
STRATEGY_ALIGNED = "aligned"
DR_FULL_ARROW_BUDGET = 200000


class StarArrow(Value):
    """A bijection between two stars, as sorted (dart, image) pairs."""

    __slots__ = ("src", "dst", "bij", "serial", "_map")
    _compare = ("src", "dst", "bij")

    def __init__(self, src: str, dst: str, bij: tuple):
        self.src = src
        self.dst = dst
        self.bij = bij
        self.serial = ("star", src, dst, bij)
        self._map = None

    @property
    def as_dict(self) -> dict:
        if self._map is None:
            self._map = dict(self.bij)
        return self._map

    def compose(self, other: "StarArrow"):
        # bij pairs are kept sorted by source dart, and composition does not
        # touch the source darts, so no re-sort is needed
        if other.dst != self.src:
            return None
        m = self.as_dict
        return StarArrow(other.src, self.dst,
                         tuple([(e, m[f]) for e, f in other.bij]))

    def inverse(self) -> "StarArrow":
        return StarArrow(self.dst, self.src,
                         tuple(sorted((f, e) for e, f in self.bij)))


def _identity_arrow(union: Graph):
    def factory(x):
        return StarArrow(x, x, tuple((d, d) for d in union.star(x)))
    return factory


class StarLocalSystem(LocalSystem):
    kind = "star"

    def __init__(self, g1, g2, union, groupoid, joint: JointBlocks,
                 strategy: str, explore_radius=None, atom_arrows=()):
        super().__init__(g1, g2, union, groupoid)
        self.joint = joint
        self.strategy = strategy
        self.explore_radius = explore_radius
        self.atom_arrows = tuple(atom_arrows)

    # atoms are (anchor dart, image dart) pairs over prefixed identifiers
    def identity_atom(self, dart):
        return (dart, dart)

    def act(self, arrow, atom):
        return (atom[0], arrow.as_dict[atom[1]])

    def bar(self, atom):
        rev = self.union.reverse
        return (rev[atom[0]], rev[atom[1]])

    def atom_anchor(self, atom):
        return atom[0]

    def atom_image(self, atom):
        return atom[1]

    def atom_serial(self, atom):
        return atom


def _grouped_star(union, block_of, v):
    groups = {}
    for d in union.star(v):
        groups.setdefault(_dart_type(union, d, block_of), []).append(d)
    return groups


def _dr_full_arrows(union: Graph, joint: JointBlocks) -> list:
    """Every type-preserving star bijection within a block; their number,
    sum over blocks B of |B|^2 prod_t k_t!, is checked before allocating."""
    block_of = joint.partition.block_of
    grouped = {v: _grouped_star(union, block_of, v) for v in union.vertices}
    count = sum(len(block) ** 2 * prod(factorial(len(ds))
                                        for ds in grouped[block[0]].values())
                for block in joint.partition.blocks)
    if count > DR_FULL_ARROW_BUDGET:
        raise BudgetExceeded("dr_full needs %d arrows (budget %d)"
                             % (count, DR_FULL_ARROW_BUDGET))
    arrows = []
    for block in joint.partition.blocks:
        for u in block:
            gu = grouped[u]
            types = sorted(gu)
            for v in block:
                gv = grouped[v]
                if sorted(gv) != types or any(len(gu[t]) != len(gv[t]) for t in types):
                    raise AxiomError("joint partition is not equitable at %r" % (v,))
                pools = [itertools.permutations(gv[t]) for t in types]
                for combo in itertools.product(*pools):
                    pairs = []
                    for t, perm in zip(types, combo):
                        pairs.extend(zip(gu[t], perm))
                    arrows.append(StarArrow(u, v, tuple(sorted(pairs))))
    return arrows


def induced_star_map(alignment: TreeAlignment, z) -> StarArrow:
    """Star bijection induced at a tree vertex: lift to the first cover's
    tree, push through the alignment, project to the second graph."""
    c1, c2 = alignment.c1, alignment.c2
    x = c1.project(z)
    z2 = alignment.apply(z)
    y = c2.project(z2)
    pairs = []
    for d, w in c1.star_darts(z):
        f = c2.dart_between(z2, alignment.apply(w))
        pairs.append(("1:" + d, "2:" + f))
    return StarArrow("1:" + x, "2:" + y, tuple(sorted(pairs)))


def _aligned_atoms(alignment: TreeAlignment, explore_radius: int) -> list:
    alignment.ensure_radius(explore_radius + 1)
    seen = {}
    for z in alignment.c1.layers(explore_radius):
        arrow = induced_star_map(alignment, z)
        seen.setdefault(arrow.serial, arrow)
    return [seen[s] for s in sorted(seen)]


def build_star_system(g1: Graph, g2: Graph, strategy: str = STRATEGY_DR_FULL,
                      explore_radius=None, joint: JointBlocks = None,
                      alignment: TreeAlignment = None) -> StarLocalSystem:
    """Build the star-bijection local system for two connected graphs."""
    if joint is None:
        joint = joint_refinement(g1, g2)
    if not joint.ok:
        raise GraphError("no common universal cover")
    union = disjoint_union(g1, g2)
    if strategy == STRATEGY_DR_FULL:
        arrows = _dr_full_arrows(union, joint)
        identities = {x: _identity_arrow(union)(x) for x in union.vertices}
        groupoid = FiniteGroupoid(tuple(union.vertices),
                                  tuple(sorted(set(arrows), key=lambda a: a.serial)),
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
    atoms = _aligned_atoms(alignment, explore_radius)
    groupoid = saturate(atoms, union.vertices, _identity_arrow(union))
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
                               explore_radius=None):
    """Aligned-strategy builder with doubling retries on axiom failure."""
    if strategy == STRATEGY_DR_FULL:
        return build_star_system(g1, g2, strategy)
    if explore_radius is None:
        explore_radius = 1 + g1.diameter() + g2.diameter()
    return retry_doubling(lambda rho: build_star_system(
        g1, g2, strategy, explore_radius=rho), explore_radius)
