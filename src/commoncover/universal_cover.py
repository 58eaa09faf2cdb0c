"""Lazy universal covers of based graphs, balls, deck words and alignments.

The universal cover of a connected based graph is realised as the tree of
reduced dart paths from the basepoint; it is never materialised.  A tree
vertex IS its path, a tuple of dart indices of the graph (dart i is the
i-th sorted identifier, so paths sort as the paths of identifiers do); the
projection to the base graph is the endpoint of the path, and adjacency
appends or removes a single dart.  Identifiers are rendered (``ids``) only
for artifacts and failure messages.

Deck transformations correspond to reduced loops at the basepoint: the
transformation of a loop L sends the vertex with path P to the reduction of
L + P.  Both are reduced, so only the seam can cancel (Lyndon and Schupp,
*Combinatorial Group Theory*, I.1): ``transport`` drops the common prefix of
the inverse of L and P.  Free generators are indexed by the geometric edges
outside a breadth-first spanning tree, which also fixes a canonical lift of
every base vertex (its spanning-tree path).

An alignment between two universal covers is a partial tree isomorphism
grown layer by layer from basepoint to basepoint; extension always picks
the lexicographically least block-compatible dart matching, so the map is
canonical given the joint refinement blocks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Tuple

from .graphs import BudgetExceeded, Graph, GraphError
from .refinement import JointBlocks

Path = Tuple[int, ...]


# The most tree vertices an alignment holds per side.  It admits every build
# of the tests and the benchmark (at most 10,247) and a ball build of random
# cubic graphs of 60 and 40 vertices (196,606 at radius 16); C12 against C8,
# each with a loop at every vertex, would need 1,062,881 at radius 12.
MAX_ALIGNED = 262_144


class AlignmentBudgetError(BudgetExceeded):
    """Alignment extension exceeded its radius cap or its size budget."""


class UniversalCover:
    """Lazy universal cover of a connected graph, based at a vertex index."""

    def __init__(self, graph: Graph, basepoint: int = 0):
        if not graph.is_connected():
            raise GraphError("connected graph required")
        if not 0 <= basepoint < len(graph.vertices):
            raise GraphError("vertex not in graph: %r" % (basepoint,))
        self.graph = graph
        self.basepoint = basepoint
        self.org, self.rev, self.stars = graph.org, graph.rev, graph.stars()
        self._build_spanning_tree()

    def _build_spanning_tree(self):
        rev = self.rev
        # vertex -> dart from its tree parent, -1 at the basepoint
        self.parent_dart = parent = [-1] * len(self.stars)
        for v, d in self.graph.bfs(self.basepoint).items():
            parent[v] = d
        tree_darts = set(parent)
        tree_darts.discard(-1)
        tree_darts |= set(map(rev.__getitem__, tree_darts))
        # one free generator per geometric edge outside the tree; dart d
        # reads as the letter (generator index, exponent) or None
        self.generators = tuple(d for d, r in enumerate(rev)
                                if d < r and d not in tree_darts)
        self._letter = [None] * len(rev)
        for i, d in enumerate(self.generators):
            self._letter[d], self._letter[rev[d]] = (i, 1), (i, -1)
        self._lift_cache: Dict[int, Path] = {self.basepoint: ()}

    # -- paths and projection ----------------------------------------------

    def ids(self, path: Path) -> tuple:
        """The path as dart identifiers, for artifacts and messages."""
        return tuple(map(self.graph.darts.__getitem__, path))

    def check_path(self, path: Path) -> None:
        org, rev = self.org, self.rev
        at, prev = self.basepoint, None
        for d in path:
            if not 0 <= d < len(org) or org[d] != at or prev == rev[d]:
                raise GraphError("non-reduced path")
            prev, at = d, org[rev[d]]

    def project(self, path: Path) -> int:
        """Base vertex under the covering projection."""
        return self.org[self.rev[path[-1]]] if path else self.basepoint

    def step(self, path: Path, dart: int) -> Path:
        """Neighbouring tree vertex in the direction of a base dart."""
        if self.org[dart] != self.project(path):
            raise GraphError("dart %r does not start at the path endpoint"
                             % (self.graph.darts[dart],))
        if path and self.rev[path[-1]] == dart:
            return path[:-1]
        return path + (dart,)

    def star_darts(self, path: Path):
        """Pairs (base dart, neighbouring path), sorted by the base dart."""
        back = self.rev[path[-1]] if path else -1
        return [(d, path[:-1] if d == back else path + (d,))
                for d in self.stars[self.project(path)]]

    def children(self, path: Path) -> list:
        """The darts d, sorted, for which path + (d,) is a child of path."""
        if not path:
            return self.stars[self.basepoint]
        back = self.rev[path[-1]]
        return [d for d in self.stars[self.org[back]] if d != back]

    def dart_between(self, a: Path, b: Path) -> int:
        """Base dart labelling the tree edge from a to b (must be adjacent)."""
        if len(b) == len(a) + 1 and b[:len(a)] == a:
            return b[-1]
        if len(a) == len(b) + 1 and a[:len(b)] == b:
            return self.rev[a[-1]]
        raise GraphError("tree vertices are not adjacent")

    def tree_size(self, radius: int) -> int:
        """The number of tree vertices within ``radius`` of the basepoint:
        the non-backtracking walks from it, counted one pass over the darts
        per step (Hashimoto's edge matrix).  ``walks[d]`` is the number of
        walks of the current length that end with dart d; one that goes on
        with dart e came into the origin of e by any dart but rev(e)."""
        org, rev = self.org, self.rev
        walks = [0] * len(org)
        for d in self.stars[self.basepoint]:
            walks[d] = 1
        total = 1
        for _ in range(radius):
            into = [0] * len(self.stars)
            for d, w in enumerate(walks):
                into[org[rev[d]]] += w
            total += sum(walks)
            walks = [into[o] - walks[r] for o, r in zip(org, rev)]
        return total

    # -- canonical lifts ----------------------------------------------------

    def canonical_lift(self, v: int) -> Path:
        """Spanning-tree path from the basepoint to a lift of vertex v."""
        cache = self._lift_cache
        if v not in cache:
            if not 0 <= v < len(self.parent_dart):
                raise GraphError("vertex not in graph: %r" % (v,))
            chain = []                  # (vertex, parent dart) up to a cached lift
            u = v
            while u not in cache:
                d = self.parent_dart[u]
                chain.append((u, d))
                u = self.org[d]
            path = cache[u]
            for u, d in reversed(chain):
                path = cache[u] = path + (d,)
        return cache[v]

    # -- deck transformations ------------------------------------------------

    def invert(self, path: Path) -> Path:
        """The reversed path, each dart replaced by its reversal."""
        return tuple(map(self.rev.__getitem__, reversed(path)))

    def transport(self, loop: Path, path: Path) -> Path:
        """Apply the deck transformation of a reduced basepoint loop to a
        reduced path: the reduction of loop + path, which cancels only the
        common prefix of the inverted loop and the path."""
        rev, k, n = self.rev, 0, min(len(loop), len(path))
        while k < n and rev[loop[-1 - k]] == path[k]:
            k += 1
        return loop[:len(loop) - k] + path[k:]

    def deck_loop(self, src: Path, dst: Path) -> Path:
        """Loop of the unique deck transformation taking src to dst."""
        if self.project(src) != self.project(dst):
            raise GraphError("deck transports preserve fibres")
        return self.transport(dst, self.invert(src))

    def generator_loop(self, i: int) -> Path:
        """Basepoint loop of the i-th free generator."""
        if not 0 <= i < len(self.generators):
            raise GraphError("generator index out of range: %d" % i)
        d = self.generators[i]
        out = self.canonical_lift(self.org[d]) + (d,)
        return self.transport(out, self.invert(self.canonical_lift(self.org[self.rev[d]])))

    def word_to_loop(self, word) -> Path:
        """Evaluate a word over (generator index, exponent) pairs to a loop."""
        loop: Path = ()
        for i, exp in word:
            piece = self.generator_loop(i)
            loop = self.transport(loop, piece if exp > 0 else self.invert(piece))
        return loop

    def loop_to_word(self, loop: Path) -> tuple:
        """Express a reduced basepoint loop as a word in the free generators."""
        return tuple(filter(None, map(self._letter.__getitem__, loop)))

    # -- balls ----------------------------------------------------------------

    def ball(self, root: Path, radius: int) -> "Ball":
        if radius < 0:
            raise GraphError("radius must be non-negative")
        self.check_path(root)
        dist = {root: 0}
        queue = deque([root])
        while queue:
            z = queue.popleft()
            if dist[z] == radius:
                continue
            for _, w in self.star_darts(z):
                if w not in dist:
                    dist[w] = dist[z] + 1
                    queue.append(w)
        return Ball(self, root, radius, tuple(sorted(dist)), dist)

    def layers(self, radius: int) -> list:
        """Tree vertices within ``radius`` of the basepoint, layer by layer,
        each layer in sorted order: a parent always comes before its
        children.  Expanding a sorted layer child by child keeps the next
        one sorted."""
        if radius < 0:
            raise GraphError("radius must be non-negative")
        out, layer = [], [()]
        for _ in range(radius):
            out += layer
            layer = [z + (d,) for z in layer for d in self.children(z)]
        return out + layer


@dataclass
class Ball:
    """A radius-R ball in a universal cover, with tree distances from its root."""

    cover: UniversalCover
    root: Path
    radius: int
    vertices: tuple
    dist: dict = field(repr=False)


class TreeAlignment:
    """A basepoint-preserving partial isomorphism between two universal covers.

    The map is grown in breadth-first layers; inside a layer, the darts at a
    frontier vertex are matched to image darts greedily in sorted order,
    subject to equality of (dart colour, reverse colour, head block).  The
    result is canonical relative to this policy, and request order never
    changes it because extension always proceeds by whole layers.
    """

    def __init__(self, c1: UniversalCover, c2: UniversalCover,
                 joint: JointBlocks, max_radius: int = 512):
        self.c1, self.c2 = c1, c2
        self.joint = joint
        self.max_radius = max_radius
        # per side, each dart's type: the union holds g1's vertices and darts first
        types, block = joint.partition.types, joint.partition.block_of
        self._types = types[:len(c1.graph.darts)], types[len(c1.graph.darts):]
        if block[c1.basepoint] != block[len(c1.graph.vertices) + c2.basepoint]:
            raise GraphError("the basepoints lie in different joint blocks")
        self.fwd: Dict[Path, Path] = {(): ()}
        self.bwd: Dict[Path, Path] = {(): ()}
        self.radius_built = 0
        self._frontier = [((), ())]

    def ensure_radius(self, r: int) -> None:
        if r > self.max_radius:
            raise AlignmentBudgetError("alignment radius cap exceeded (%d)" % r)
        if r > self.radius_built and (n := self.c1.tree_size(r)) > MAX_ALIGNED:
            raise AlignmentBudgetError("an alignment to radius %d holds %d tree vertices per "
                                       "side, more than %d" % (r, n, MAX_ALIGNED))
        (type1, type2), fwd, bwd = self._types, self.fwd, self.bwd
        while self.radius_built < r:
            nxt = []
            for z1, z2 in self._frontier:
                # per type, the free image darts, least last
                free = {}
                for e in reversed(self.c2.children(z2)):
                    free.setdefault(type2[e], []).append(e)
                for d in self.c1.children(z1):
                    pool = free.get(type1[d])
                    if not pool:
                        raise GraphError("no common universal cover")
                    w, u = z1 + (d,), z2 + (pool.pop(),)
                    fwd[w] = u
                    bwd[u] = w
                    nxt.append((w, u))
                if any(free.values()):
                    raise GraphError("no common universal cover")
            self._frontier = nxt
            self.radius_built += 1

    def apply(self, z: Path) -> Path:
        if z not in self.fwd:
            self.ensure_radius(len(z))
        return self.fwd[z]

    def apply_inverse(self, z: Path) -> Path:
        if z not in self.bwd:
            self.ensure_radius(len(z))
        return self.bwd[z]


def build_alignment(c1: UniversalCover, c2: UniversalCover, joint: JointBlocks,
                    radius: int = 0, max_radius: int = 512) -> TreeAlignment:
    """Block-preserving alignment, eagerly built out to the given radius."""
    if not joint.ok:
        raise GraphError("no common universal cover")
    theta = TreeAlignment(c1, c2, joint, max_radius=max_radius)
    theta.ensure_radius(radius)
    return theta


def align(g1: Graph, g2: Graph, joint: JointBlocks) -> TreeAlignment:
    """``build_alignment`` of the universal covers of g1 at vertex 0 and of
    g2 at its least vertex in the joint block of g1's vertex 0."""
    n1, part = len(g1.vertices), joint.partition
    basepoint = next((v - n1 for v in part.blocks[part.block_of[0]] if v >= n1), 0)
    return build_alignment(UniversalCover(g1), UniversalCover(g2, basepoint), joint)
