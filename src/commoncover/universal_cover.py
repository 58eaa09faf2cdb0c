"""Lazy universal covers of based graphs, balls, deck words and alignments.

The universal cover of a connected based graph is realised as the tree of
reduced dart paths from the basepoint; it is never materialised.  A tree
vertex IS its path (a tuple of dart identifiers), the projection to the
base graph is the endpoint of the path, and adjacency appends or removes a
single dart.

Deck transformations correspond to reduced loops at the basepoint: the
transformation of a loop L sends the vertex with path P to reduce(L + P).
Free generators are indexed by the geometric edges outside a breadth-first
spanning tree, which also fixes a canonical lift of every base vertex (its
spanning-tree path).

An alignment between two universal covers is a partial tree isomorphism
grown layer by layer from basepoint to basepoint; extension always picks
the lexicographically least block-compatible dart matching, so the map is
canonical given the joint refinement blocks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .graphs import BudgetExceeded, Graph, GraphError
from .refinement import JointBlocks

Path = Tuple[str, ...]


class AlignmentBudgetError(BudgetExceeded):
    """Alignment extension exceeded its radius cap."""


def reduce_path(g: Graph, darts) -> Path:
    """Free reduction: cancel adjacent mutually-reverse darts."""
    out, reverse = [], g.reverse
    for d in darts:
        if out and reverse[out[-1]] == d:
            out.pop()
        else:
            out.append(d)
    return tuple(out)


def invert_path(g: Graph, path: Path) -> Path:
    return tuple(map(g.reverse.__getitem__, reversed(path)))


class UniversalCover:
    """Lazy universal cover of a connected based graph."""

    def __init__(self, graph: Graph, basepoint: Optional[str] = None):
        if not graph.is_connected():
            raise GraphError("connected graph required")
        self.graph = graph
        self._origin, self._reverse = graph.origin, graph.reverse
        self.basepoint = basepoint if basepoint is not None else graph.vertices[0]
        if self.basepoint not in graph.vertices:
            raise GraphError("vertex not in graph: %r" % (self.basepoint,))
        self._build_spanning_tree()

    def _build_spanning_tree(self):
        g = self.graph
        # vertex -> dart from its tree parent
        parent_dart = g.bfs(self.basepoint)
        del parent_dart[self.basepoint]
        self.parent_dart = parent_dart
        tree_darts = set()
        for d in parent_dart.values():
            tree_darts.add(d)
            tree_darts.add(g.reverse[d])
        # one free generator per geometric edge outside the tree
        self.generators = tuple(d for d in g.edge_reps() if d not in tree_darts)
        self._gen_index = {d: i for i, d in enumerate(self.generators)}
        self._lift_cache: Dict[str, Path] = {self.basepoint: ()}

    # -- paths and projection ----------------------------------------------

    def check_path(self, path: Path) -> None:
        origin, reverse = self._origin, self._reverse
        at = self.basepoint
        prev = None
        for d in path:
            if d not in origin or origin[d] != at:
                raise GraphError("non-reduced path")
            if prev is not None and reverse[prev] == d:
                raise GraphError("non-reduced path")
            prev = d
            at = origin[reverse[d]]

    def project(self, path: Path) -> str:
        """Base vertex under the covering projection."""
        return self._origin[self._reverse[path[-1]]] if path else self.basepoint

    def step(self, path: Path, dart: str) -> Path:
        """Neighbouring tree vertex in the direction of a base dart."""
        if self._origin[dart] != self.project(path):
            raise GraphError("dart %r does not start at the path endpoint" % (dart,))
        if path and self._reverse[path[-1]] == dart:
            return path[:-1]
        return path + (dart,)

    def star_darts(self, path: Path):
        """Pairs (base dart, neighbouring path), sorted by the base dart."""
        return [(d, self.step(path, d)) for d in self.graph.star(self.project(path))]

    def dart_between(self, a: Path, b: Path) -> str:
        """Base dart labelling the tree edge from a to b (must be adjacent)."""
        if len(b) == len(a) + 1 and b[:len(a)] == a:
            return b[-1]
        if len(a) == len(b) + 1 and a[:len(b)] == b:
            return self._reverse[a[-1]]
        raise GraphError("tree vertices are not adjacent")

    # -- canonical lifts ----------------------------------------------------

    def canonical_lift(self, v: str) -> Path:
        """Spanning-tree path from the basepoint to a lift of v."""
        cache = self._lift_cache
        if v not in cache:
            self.graph.star(v)          # GraphError for a vertex not in the graph
            chain = []                  # (vertex, parent dart) up to a cached lift
            u = v
            while u not in cache:
                d = self.parent_dart[u]
                chain.append((u, d))
                u = self._origin[d]
            path = cache[u]
            for u, d in reversed(chain):
                path = cache[u] = path + (d,)
        return cache[v]

    # -- deck transformations ------------------------------------------------

    def transport(self, loop: Path, path: Path) -> Path:
        """Apply the deck transformation of a reduced basepoint loop."""
        return reduce_path(self.graph, loop + path)

    def deck_loop(self, src: Path, dst: Path) -> Path:
        """Loop of the unique deck transformation taking src to dst."""
        if self.project(src) != self.project(dst):
            raise GraphError("deck transports preserve fibres")
        return reduce_path(self.graph, dst + invert_path(self.graph, src))

    def generator_loop(self, i: int) -> Path:
        """Basepoint loop of the i-th free generator."""
        if not 0 <= i < len(self.generators):
            raise GraphError("generator index out of range: %d" % i)
        d = self.generators[i]
        g = self.graph
        out = self.canonical_lift(g.origin[d]) + (d,)
        back = invert_path(g, self.canonical_lift(g.head(d)))
        return reduce_path(g, out + back)

    def word_to_loop(self, word) -> Path:
        """Evaluate a word over (generator index, exponent) pairs to a loop."""
        g = self.graph
        loop: Path = ()
        for i, exp in word:
            piece = self.generator_loop(i)
            if exp < 0:
                piece = invert_path(g, piece)
            loop = reduce_path(g, loop + piece)
        return loop

    def loop_to_word(self, loop: Path) -> tuple:
        """Express a reduced basepoint loop as a word in the free generators."""
        word, gen_index, reverse = [], self._gen_index, self._reverse
        for d in loop:
            if d in gen_index:
                word.append((gen_index[d], 1))
            else:
                rd = reverse[d]
                if rd in gen_index:
                    word.append((gen_index[rd], -1))
        return tuple(word)

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
        children."""
        return sorted(self.ball((), radius).vertices, key=lambda z: (len(z), z))


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
        # vertex id -> joint block, per side: the union holds g1's vertices first
        blocks = list(map(joint.partition.block_of.__getitem__, joint.union.vertices))
        self._block = (dict(zip(c1.graph.vertices, blocks)),
                       dict(zip(c2.graph.vertices, blocks[len(c1.graph.vertices):])))
        if self._block[0][c1.project(())] != self._block[1][c2.project(())]:
            raise GraphError("no common universal cover")
        self.fwd: Dict[Path, Path] = {(): ()}
        self.bwd: Dict[Path, Path] = {(): ()}
        self.radius_built = 0
        self._frontier = [((), ())]

    def _dart_type(self, g: Graph, block: dict):
        """The function: dart of g -> (colour, reverse colour, head block)."""
        colour, origin, reverse = g.dart_colour, g.origin, g.reverse
        return lambda d: (colour.get(d), colour.get(reverse[d]), block[origin[reverse[d]]])

    def ensure_radius(self, r: int) -> None:
        if r > self.max_radius:
            raise AlignmentBudgetError("alignment radius cap exceeded (%d)" % r)
        type1 = self._dart_type(self.c1.graph, self._block[0])
        type2 = self._dart_type(self.c2.graph, self._block[1])
        while self.radius_built < r:
            nxt = []
            for z1, z2 in self._frontier:
                pend1 = [(d, w) for d, w in self.c1.star_darts(z1) if w not in self.fwd]
                pend2 = [(d, w) for d, w in self.c2.star_darts(z2) if w not in self.bwd]
                used = set()
                for d, w in pend1:
                    t = type1(d)
                    pick = None
                    for j, (e, u) in enumerate(pend2):
                        if j in used:
                            continue
                        if type2(e) == t:
                            pick = j
                            break
                    if pick is None:
                        raise GraphError("no common universal cover")
                    used.add(pick)
                    u = pend2[pick][1]
                    self.fwd[w] = u
                    self.bwd[u] = w
                    nxt.append((w, u))
                if len(used) != len(pend2):
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
