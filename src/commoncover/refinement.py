"""Coarsest equitable vertex partitions and the common-cover decision.

Two connected finite graphs admit a common (infinite tree) cover exactly
when the coarsest equitable partition of their disjoint union pairs every
block across both graphs.  The refinement here is colour-aware: the initial
partition splits by vertex colour, and a refinement round separates
vertices whose stars differ in the multiset of (dart colour, reverse dart
colour, head block) triples. Block numbering is canonicalised so equal
inputs always produce identical partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError, disjoint_union


@dataclass
class Partition:
    graph: Graph
    block_of: dict              # vertex -> block index
    blocks: tuple               # tuple of sorted vertex tuples
    signature: tuple            # signature[i][j] = darts from a block-i vertex into block j

    def n_blocks(self) -> int:
        return len(self.blocks)


def _colour_key(colour):
    """Sort key of an optional colour: uncoloured first, then by colour."""
    return (colour is not None, colour)


def _dart_type(g: Graph, block_of: dict):
    """The function: dart -> (colour, reverse colour, head block), with the
    colours as ``_colour_key``s so that a star with coloured and uncoloured
    darts sorts."""
    colour, origin, reverse = g.dart_colour, g.origin, g.reverse
    return lambda d: (_colour_key(colour.get(d)), _colour_key(colour.get(reverse[d])),
                      block_of[origin[reverse[d]]])


def _refine_once(g: Graph, block_of: dict) -> dict:
    keys = {}
    dart_type = _dart_type(g, block_of)
    for v in g.vertices:
        sig = tuple(sorted(map(dart_type, g.star(v))))
        keys[v] = (block_of[v], sig)
    order = sorted(set(keys.values()))
    index = {k: i for i, k in enumerate(order)}
    return {v: index[keys[v]] for v in g.vertices}


def _canonical_numbering(g: Graph, block_of: dict) -> Partition:
    # provisional order by least contained vertex, then sort blocks by
    # (size, signature row, least vertex) for a reproducible numbering
    groups = {}
    for v in g.vertices:
        groups.setdefault(block_of[v], []).append(v)
    blocks = sorted((sorted(vs) for vs in groups.values()), key=lambda b: b[0])
    prov = {v: i for i, b in enumerate(blocks) for v in b}
    n = len(blocks)

    def row(block):
        counts = [0] * n
        v = block[0]
        for d in g.star(v):
            counts[prov[g.head(d)]] += 1
        return tuple(counts)

    keyed = sorted(range(n), key=lambda i: (len(blocks[i]), row(blocks[i]), blocks[i][0]))
    final_blocks = tuple(tuple(blocks[i]) for i in keyed)
    final_of = {v: i for i, b in enumerate(final_blocks) for v in b}
    signature = []
    for b in final_blocks:
        counts = [0] * n
        for d in g.star(b[0]):
            counts[final_of[g.head(d)]] += 1
        signature.append(tuple(counts))
    return Partition(g, final_of, final_blocks, tuple(signature))


def refine_partition(g: Graph, block_of: dict) -> Partition:
    """Coarsest equitable partition refining the given one."""
    current = dict(block_of)
    while True:
        refined = _refine_once(g, current)
        if len(set(refined.values())) == len(set(current.values())):
            return _canonical_numbering(g, refined)
        current = refined


def degree_refinement(g: Graph) -> Partition:
    """Coarsest equitable partition of a connected graph, refining colours."""
    if not g.is_connected():
        raise GraphError("connected graph required")
    order = sorted({g.vertex_colour.get(v) for v in g.vertices}, key=_colour_key)
    initial = {v: order.index(g.vertex_colour.get(v)) for v in g.vertices}
    return refine_partition(g, initial)


@dataclass
class JointBlocks:
    ok: bool
    union: Graph
    partition: Partition
    correspondence: tuple    # per block: (vertices from g1, vertices from g2), prefixed


def joint_refinement(g1: Graph, g2: Graph) -> JointBlocks:
    for g in (g1, g2):
        if not g.is_connected():
            raise GraphError("connected graph required")
    union = disjoint_union(g1, g2)
    colours = sorted({union.vertex_colour.get(v) for v in union.vertices},
                     key=_colour_key)
    part = refine_partition(
        union, {v: colours.index(union.vertex_colour.get(v)) for v in union.vertices})
    corr = []
    ok = True
    index, n1 = union.index()[0], len(g1.vertices)
    for block in part.blocks:
        left = tuple(v for v in block if index[v] < n1)
        right = block[len(left):]          # blocks are sorted, side 1 first
        corr.append((left, right))
        if not left or not right:
            ok = False
    return JointBlocks(ok, union, part, tuple(corr))


def common_cover_exists(g1: Graph, g2: Graph):
    """True (with the matched block correspondence) when a common cover exists."""
    joint = joint_refinement(g1, g2)
    return joint.ok, joint
