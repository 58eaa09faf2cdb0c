"""Coarsest equitable vertex partitions and the common-cover decision.

Two connected finite graphs admit a common (infinite tree) cover exactly
when the coarsest equitable partition of their disjoint union puts vertices
of both graphs in every block (Leighton, 1982).  The refinement here is
colour-aware and runs on the index tables: the initial partition splits by
vertex colour, and a refinement round separates vertices whose stars differ
in the multiset of dart types (dart colour, reverse colour, head block).  A
round numbers the keys (block, sorted star types) in sorted order, so equal
inputs always produce identical partitions.  The partition is unique; which
block gets which number decides no output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .graphs import Graph, GraphError, disjoint_union


@dataclass
class Partition:
    graph: Graph
    block_of: list              # vertex index -> block number
    blocks: tuple               # per block number, its sorted vertex indices
    types: list                 # dart index -> (colour, reverse colour, head block)

    def n_blocks(self) -> int:
        return len(self.blocks)


def _colour_keys(column, n: int) -> list:
    """Per index below n, the sort key of its colour in ``column``: uncoloured
    first, then by colour, so that coloured and uncoloured keys sort together."""
    return [(c is not None, c) for c in column or repeat(None, n)]


def _number(keys: list) -> list:
    """Each key's position among the distinct keys in sorted order."""
    number = {k: i for i, k in enumerate(sorted(set(keys)))}
    return list(map(number.__getitem__, keys))


def refine_partition(g: Graph, labels: list) -> Partition:
    """Coarsest equitable partition refining the one given by sortable
    labels (vertex index -> label), with the dart types of its blocks."""
    block_of, stars, rev = _number(labels), g.stars(), g.rev
    heads = list(map(g.org.__getitem__, rev))
    colours = _colour_keys(g.dcol, len(g.darts))
    back = list(map(colours.__getitem__, rev))
    while True:
        types = list(zip(colours, back, map(block_of.__getitem__, heads)))
        refined = _number(list(zip(block_of, (tuple(sorted(map(types.__getitem__, star)))
                                              for star in stars))))
        if len(set(refined)) == len(set(block_of)):
            break
        block_of = refined
    blocks = [[] for _ in range(len(set(block_of)))]
    for v, b in enumerate(block_of):
        blocks[b].append(v)
    return Partition(g, block_of, tuple(map(tuple, blocks)), types)


def degree_refinement(g: Graph) -> Partition:
    """Coarsest equitable partition of a connected graph, refining colours."""
    if not g.is_connected():
        raise GraphError("connected graph required")
    return refine_partition(g, _colour_keys(g.vcol, len(g.vertices)))


@dataclass
class JointBlocks:
    ok: bool                    # every block holds vertices of both graphs
    union: Graph                # g1's vertices and darts first, then g2's
    partition: Partition        # of the union, with its dart types


def joint_refinement(g1: Graph, g2: Graph) -> JointBlocks:
    for g in (g1, g2):
        if not g.is_connected():
            raise GraphError("connected graph required")
    union = disjoint_union(g1, g2)
    part = refine_partition(union, _colour_keys(union.vcol, len(union.vertices)))
    n1 = len(g1.vertices)
    return JointBlocks(all(b[0] < n1 <= b[-1] for b in part.blocks), union, part)


def common_cover_exists(g1: Graph, g2: Graph):
    """True (with the joint blocks) when a common cover exists."""
    joint = joint_refinement(g1, g2)
    return joint.ok, joint
