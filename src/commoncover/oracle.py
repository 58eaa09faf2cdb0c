"""Brute-force ground truth: exhaustive small common covers and exhaustive
maximal-lcm values.  Deliberately independent of the main constructions so
cross-validation is meaningful; only the graph model is shared."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from math import lcm
from typing import Optional

from .graphs import (BudgetExceeded, Graph, GraphError, GraphMorphism, VerificationError,
                     colours_at, is_covering, sort_graph)


def permutation_cover(g: Graph, degree: int, voltages: dict):
    """Degree-m cover, on the vertices v@i and darts d@i, from a permutation
    sigma per geometric edge representative d (by id): d@i reverses to rev(d)@sigma(i)."""
    m, rev = degree, g.rev
    perms = [None] * len(rev)
    for d, r in enumerate(rev):
        if d < r:
            sigma = voltages.get(g.darts[d], tuple(range(m)))
            perms[d], perms[r] = sigma, sorted(range(m), key=sigma.__getitem__)
    copies = range(m)
    vids = ["%s@%d" % (v, i) for v in g.vertices for i in copies]
    dids = ["%s@%d" % (d, i) for d in g.darts for i in copies]
    cover, vorder, dorder = sort_graph(
        vids, dids, [v * m + i for v in g.org for i in copies],
        [r * m + perms[d][i] for d, r in enumerate(rev) for i in copies],
        colours_at(g.vcol, [k // m for k in range(len(vids))]),
        colours_at(g.dcol, [k // m for k in range(len(dids))]))
    return cover, GraphMorphism.from_tables(cover, g, [k // m for k in vorder],
                                            [k // m for k in dorder])


def _non_tree_reps(g: Graph):
    rev = g.rev
    tree = set(g.bfs(0).values())
    tree.discard(-1)
    tree |= set(map(rev.__getitem__, tree))
    return [g.darts[d] for d, r in enumerate(rev) if d < r and d not in tree]


def find_covering(h: Graph, target: Graph, budget: int = 200000) -> Optional[GraphMorphism]:
    """Backtracking search for a covering morphism h -> target: depth first
    over an explicit stack, one budget unit per node, undone on backtracking.

    Each node maps the first unmapped dart (index) of h whose origin is
    mapped, taken from a heap of dart indices rather than a scan of the
    darts, so a search that never backtracks costs O(n log n)."""
    if not h.vertices:
        return None
    counter = budget
    h_org, h_rev, h_stars = h.org, h.rev, h.stars()
    t_org, t_rev, t_stars = target.org, target.rev, target.stars()
    h_vc, t_vc, h_dc, t_dc = [column or [None] * len(ids) for column, ids in (
        (h.vcol, h.vertices), (target.vcol, target.vertices),
        (h.dcol, h.darts), (target.dcol, target.darts))]

    def compatible(v, w):
        return len(h_stars[v]) == len(t_stars[w]) and h_vc[v] == t_vc[w]

    def images(pending, vmap, dmap):
        # lazily, so each image is tested against the maps as they stand;
        # e must be unused in the star of v, and its reverse in that of w
        v = h_org[pending]
        w = h_org[h_rev[pending]]
        used = {dmap[x] for x in h_stars[v] if x in dmap}
        used_at_w = {dmap[x] for x in h_stars[w] if x in dmap} if w in vmap else ()
        hc = h_dc[pending]
        hrc = h_dc[h_rev[pending]]
        for e in t_stars[vmap[v]]:
            if e in used:
                continue
            if hc != t_dc[e] or hrc != t_dc[t_rev[e]]:
                continue
            tw = t_org[t_rev[e]]
            if w in vmap:
                if vmap[w] != tw or t_rev[e] in used_at_w:
                    continue
            elif not compatible(w, tw):
                continue
            yield e

    def pending_dart(frontier, vmap, dmap):
        # the first unmapped dart of h whose origin is mapped: the frontier
        # heap holds every such dart, plus stale entries that are dropped here
        while frontier:
            d = frontier[0]
            if d not in dmap and h_org[d] in vmap:
                return d
            heapq.heappop(frontier)
        return None

    def push_star(frontier, v):
        for d in h_stars[v]:
            heapq.heappush(frontier, d)

    for w0 in range(len(target.vertices)):
        if not compatible(0, w0):
            continue
        vmap, dmap, stack, frontier = {0: w0}, {}, [], []
        push_star(frontier, 0)
        while True:
            counter -= 1
            if counter < 0:
                raise BudgetExceeded("oracle search budget exceeded")
            pending = pending_dart(frontier, vmap, dmap)
            if pending is not None:
                stack.append((pending, images(pending, vmap, dmap),
                              h_org[h_rev[pending]] not in vmap))
            elif len(vmap) == len(h.vertices):
                out = GraphMorphism.from_tables(h, target, [vmap[v] for v in range(len(vmap))],
                                                [dmap[d] for d in range(len(dmap))])
                if not is_covering(out).ok:
                    raise VerificationError("oracle produced a non-covering morphism")
                return out
            # undo the top frame's last image (none on a new frame) and
            # apply its next untried one, popping exhausted frames
            while stack:
                pending, untried, fresh = stack[-1]
                head = h_org[h_rev[pending]]
                if pending in dmap:
                    for d in (pending, h_rev[pending]):
                        del dmap[d]
                        heapq.heappush(frontier, d)
                if fresh:
                    vmap.pop(head, None)
                e = next(untried, None)
                if e is not None:
                    vmap[head] = t_org[t_rev[e]]
                    dmap[pending] = e
                    dmap[h_rev[pending]] = t_rev[e]
                    if fresh:
                        push_star(frontier, head)
                    break
                stack.pop()
            else:
                break
    return None


@dataclass
class OracleResult:
    found: bool
    cover: Optional[Graph] = None
    to_first: Optional[GraphMorphism] = None
    to_second: Optional[GraphMorphism] = None
    degree: Optional[int] = None
    searched_up_to: int = 0
    budget_exceeded: bool = False


def brute_common_cover(g1: Graph, g2: Graph, max_degree: int,
                       budget: int = 400000) -> OracleResult:
    """Least connected common cover by exhaustive voltage enumeration.

    Enumerates connected degree-m covers of g1 (spanning-tree voltages
    trivial, all permutations on the remaining edges) for m = 1..max_degree
    and tests each for a covering onto g2.  Cover sizes grow with m, so the
    first hit has the least vertex count.
    """
    if max_degree < 1:
        raise GraphError("maximum degree must be at least 1, not %d" % max_degree)
    for g in (g1, g2):
        if not g.is_connected():
            raise GraphError("connected graph required")
    reps = _non_tree_reps(g1)
    counter = budget
    for m in range(1, max_degree + 1):
        perms = list(itertools.permutations(range(m)))
        for combo in itertools.product(perms, repeat=len(reps)):
            counter -= 1
            if counter < 0:
                return OracleResult(False, searched_up_to=m, budget_exceeded=True)
            cover, proj = permutation_cover(g1, m, dict(zip(reps, combo)))
            if not cover.is_connected():
                continue
            rep1 = is_covering(proj)
            if not rep1.ok:
                raise VerificationError("voltage cover is not a covering")
            try:
                onto2 = find_covering(cover, g2, budget=max(1000, counter))
            except BudgetExceeded:
                return OracleResult(False, searched_up_to=m, budget_exceeded=True)
            if onto2 is not None:
                return OracleResult(True, cover, proj, onto2, m, m)
    return OracleResult(False, searched_up_to=max_degree)


def _partitions(n: int, cap: Optional[int] = None):
    if n == 0:
        yield ()
        return
    if cap is None:
        cap = n
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def brute_landau(n: int) -> int:
    """Maximal lcm over all integer partitions of n, by full enumeration."""
    if not 1 <= n <= 30:
        raise ValueError("exhaustive enumeration is limited to 1 <= n <= 30")
    best = 1
    for part in _partitions(n):
        val = 1
        for p in part:
            val = lcm(val, p)
        best = max(best, val)
    return best
