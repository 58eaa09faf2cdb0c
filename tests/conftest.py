import random
from collections import Counter, deque
from itertools import accumulate, chain

import pytest

from commoncover import families
from commoncover.cover_builder import _first_difference
from commoncover.graphs import (BudgetExceeded, Graph, GraphError, GraphMorphism,
                                ValidationReport)
from commoncover.object_graphs import ObjMorphism, obj_compose, obj_identity, obj_invert
from commoncover.regular import euler_circuit, max_bipartite_matching


@pytest.fixture
def c3():
    return families.cycle(3)


@pytest.fixture
def c4():
    return families.cycle(4)


@pytest.fixture
def k4():
    return families.complete(4)


@pytest.fixture
def theta3():
    return families.theta(3)


def lollipop() -> Graph:
    """One loop plus one pendant edge (degrees 3 and 1)."""
    return Graph(
        ["v00", "v01"],
        ["l.a", "l.b", "p.a", "p.b"],
        {"l.a": "v00", "l.b": "v00", "p.a": "v00", "p.b": "v01"},
        {"l.a": "l.b", "l.b": "l.a", "p.a": "p.b", "p.b": "p.a"},
    )


def bfs_atoms(sys, dart) -> set:
    """The atoms reached from the identity atom at the dart by
    breadth-first search under the arrow action.

    This computes the orbit without the one-step rule of
    ``LocalSystem.atoms_by_anchor`` and serves as its reference.
    """
    start = sys.identity_atom(dart)
    seen = {start}
    frontier = [start]
    while frontier:
        atom = frontier.pop()
        for arrow in sys.groupoid.by_source.get(sys.eps(atom), ()):
            nxt = sys.act(arrow, atom)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def all_pairs_closure(atoms, objects, identity_factory) -> list:
    """Sorted serials of the groupoid generated by the atoms, closed by
    composing each new arrow with every arrow already found, on both sides.

    This is the quadratic closure that ``groupoids.saturate`` replaced and
    serves as its reference.
    """
    arrows = {}
    queue = []

    def add(arrow):
        if arrow.serial not in arrows:
            arrows[arrow.serial] = arrow
            queue.append(arrow)

    for x in sorted(set(objects)):
        add(identity_factory(x))
    for a in atoms:
        add(a)
        add(a.inverse())
    while queue:
        b = queue.pop()
        for a in list(arrows.values()):
            if a.src == b.dst:
                add(a.compose(b))
            if b.src == a.dst:
                add(b.compose(a))
    return sorted(arrows)


def reference_check_action(self):
    """``LocalSystem._check_action`` as it was before arrows were numbered:
    one dart at a time, every pair composed afresh and arrows compared by
    serial.  It serves as the reference for the action-law verdict, and
    takes the local system as ``self``."""
    groupoid = self.groupoid
    for e in self.union.darts:
        ident = self.identity_atom(e)
        id_key = self.atom_serial(ident)
        x = self.union.origin[e]
        unit = groupoid.identities.get(x)
        if unit is None or self.atom_serial(self.act(unit, ident)) != id_key:
            return "identity action fails over %r" % (x,)
        out = groupoid.by_source.get(x, ())
        image, rep = {}, {}
        for g in out:
            ga = self.act(g, ident)
            if self.eps(ga) != g.dst:
                return "action target mismatch at %r" % (g.serial,)
            if self.atom_anchor(ga) != e:
                return "action moved an atom anchor at %r" % (g.serial,)
            image[g.serial] = key = self.atom_serial(ga)
            rep.setdefault(key, (g, ga))
        stab = [g for g in out if image[g.serial] == id_key]
        for f in out:
            for t in stab:
                ft = f.compose(t)
                if ft is None or image.get(ft.serial) != image[f.serial]:
                    return "stabilizer moves the image of %r" % (f.serial,)
        if any(n != len(stab) for n in Counter(image.values()).values()):
            return "orbit-stabilizer count fails at %r" % (e,)
        for r, a in rep.values():
            for h in groupoid.by_source.get(r.dst, ()):
                hr = h.compose(r)
                if hr is None or image.get(hr.serial) != self.atom_serial(self.act(h, a)):
                    return "action compatibility fails at %r" % (h.serial,)
    return None


def reference_row_check(self):
    """The per-dart form of ``LocalSystem._check_action``: one dart at a
    time, each needed row composed once per origin (memoized), and every
    check walked element by element over the atoms of that dart.  It
    serves as the reference for the verdict and the detail string, and
    takes the local system as ``self``."""
    groupoid = self.groupoid
    arrows, number, by_source = groupoid.arrows, groupoid.number, groupoid.by_source
    act_row = self.act_row
    eps, anchor = self.eps, self.atom_anchor
    for x in self.union.vertices:
        unit = groupoid.identities.get(x)
        out = by_source.get(x, ())
        out_numbers = [number[g.key] for g in out]
        rows = {}

        def row(j):
            found = rows.get(j)
            if found is None:
                b = arrows[j]
                found = rows[j] = [number.get(k, -1) for k in
                                   b.composite_keys(by_source.get(b.dst, ()))]
            return found

        for e in self.union.star(x):
            ident = self.identity_atom(e)
            if unit is None or self.act(unit, ident) != ident:
                return "identity action fails over %r" % (x,)
            moved = act_row(out, ident)
            got = list(zip(map(eps, moved), map(anchor, moved)))
            want = [(g.dst, e) for g in out]
            if got != want:
                i = _first_difference(got, want)
                if got[i][0] != want[i][0]:
                    return "action target mismatch at %r" % (out[i].serial,)
                return "action moved an atom anchor at %r" % (out[i].serial,)
            image = dict(zip(out_numbers, moved))
            rep = {}
            for n, ga in zip(out_numbers, moved):
                rep.setdefault(ga, n)
            stab_images = [list(map(image.get, row(n)))
                           for n, ga in zip(out_numbers, moved) if ga == ident]
            bad = [_first_difference(ft, moved) for ft in stab_images if ft != moved]
            if bad:
                return "stabilizer moves the image of %r" % (out[min(bad)].serial,)
            if any(c != len(stab_images) for c in Counter(moved).values()):
                return "orbit-stabilizer count fails at %r" % (e,)
            for a, r in rep.items():
                hs = by_source.get(arrows[r].dst, ())
                expected = act_row(hs, a)
                got = list(map(image.get, row(r)))
                if got != expected:
                    return "action compatibility fails at %r" % (
                        hs[_first_difference(got, expected)].serial,)
    return None


def corrupt_act(sys, corrupt):
    """Replace the system's action so that it corrupts the atom produced by
    one cross arrow, and drop the cached atom rows and sets.  The replaced
    method is ``act_row``, the one definition of the action: ``act`` is its
    one-element case.  ``corrupt`` sees the positions of an atom as a
    tuple, and its result is put back in the system's encoding; a bundle
    (several atoms with a tuple of anchors and their positions
    concatenated) is corrupted atom by atom."""
    victim = sys.cross_arrows()[0].serial
    act_row, dom = sys.act_row, sys.numbering.dom

    def spoil(atom):
        e, y, r = atom
        if isinstance(e, tuple):
            cuts = list(accumulate((len(dom[d]) for d in e), initial=0))
            parts = [spoil((d, y, r[i:j]))[2] for d, i, j in zip(e, cuts, cuts[1:])]
            return (e, y, type(r)(chain.from_iterable(parts)))
        e, y, moved = corrupt((e, y, tuple(r)))
        return (e, y, type(r)(moved))

    def mutant(arrows, atom):
        return [spoil(out) if h.serial == victim else out
                for h, out in zip(arrows, act_row(arrows, atom))]

    sys.act_row = mutant
    sys.__dict__.pop("identity_rows", None)
    sys.__dict__.pop("atoms_by_anchor", None)


def corrupt_compose(sys, monkeypatch):
    """Make composition give a wrong arrow for one pair (h, r) that check
    (d) of ``check_axioms`` tests.  r is the first arrow out of an object x,
    so it represents its atom at every dart of x; the wrong arrow has the
    composite's source and target but moves some identity atom at x
    elsewhere.  The patched method is the row kernel ``composite_keys``,
    the one definition of composition, whose entry for h becomes the wrong
    key.  Returns False, patching nothing, when no such pair exists."""
    def moved(arrow, x):
        return {sys.atom_serial(sys.act_identity(arrow, e)) for e in sys.union.star(x)}

    def pairs():
        for x in sys.union.vertices:
            r = sys.groupoid.by_source[x][0]
            for h in sys.groupoid.by_source[r.dst]:
                right = moved(h.compose(r), x)
                for w in sys.groupoid.hom(x, h.dst):
                    if moved(w, x) != right:
                        yield h, r, w

    h, r, wrong = next(pairs(), (None, None, None))
    if h is None:
        return False
    cls = type(h)
    composite_keys = cls.composite_keys

    def corrupted_row(self, lefts):
        out = composite_keys(self, lefts)
        if self.serial == r.serial:
            out = [wrong.key if left.serial == h.serial else k
                   for left, k in zip(lefts, out)]
        return out

    monkeypatch.setattr(cls, "composite_keys", corrupted_row)
    return True


def deck_transport(cover, word, path):
    """Apply to a tree vertex of ``cover`` the deck transformation of a word
    over (generator index, exponent) pairs."""
    cover.check_path(path)
    return cover.transport(cover.word_to_loop(word), path)


def map_vertices(alignment, vertices) -> dict:
    """The alignment's image of each tree vertex."""
    return {z: alignment.apply(z) for z in vertices}


def fiber_pairs(fp) -> tuple:
    """(cover vertex -> (its image under proj1, under proj2), the same per
    cover dart) of a fiber product."""
    p1, p2 = fp.proj1, fp.proj2
    return ({v: (p1.vmap[v], p2.vmap[v]) for v in fp.graph.vertices},
            {d: (p1.dmap[d], p2.dmap[d]) for d in fp.graph.darts})


def map_is_ball_isomorphism(bsrc, btgt, mapping: dict) -> bool:
    """Root-preserving label-compatible tree isomorphism check of two balls
    of universal covers."""
    if set(mapping) != set(bsrc.vertices):
        return False
    if sorted(mapping.values()) != sorted(btgt.vertices):
        return False
    if mapping[bsrc.root] != btgt.root:
        return False
    for z in bsrc.vertices:
        for _, w in bsrc.cover.star_darts(z):
            if w in bsrc.dist and bsrc.dist[w] == bsrc.dist[z] + 1:
                try:
                    btgt.cover.dart_between(mapping[z], mapping[w])
                except GraphError:
                    return False
    return True


def reference_validate_graph(g: Graph) -> ValidationReport:
    """``graphs.validate_graph`` as a loop over the darts, as it was before
    its whole-table passes; the reference for its verdict and the list of
    violations in order."""
    bad = []
    vs, ds = set(g.vertices), set(g.darts)
    for d in g.darts:
        v = g.origin.get(d)
        if v is None:
            bad.append("missing origin for dart %r" % d)
        elif v not in vs:
            bad.append("origin of dart %r is not a vertex: %r" % (d, v))
        r = g.reverse.get(d)
        if r is None:
            bad.append("missing reversal for dart %r" % d)
            continue
        if r not in ds:
            bad.append("reversal of dart %r is not a dart: %r" % (d, r))
            continue
        if r == d:
            bad.append("fixed point of reversal: %r" % d)
        elif g.reverse.get(r) != d:
            bad.append("reversal not involutive on pair (%r, %r)" % (d, r))
    return ValidationReport(not bad, bad)


def reference_violations(m: GraphMorphism) -> list:
    """``GraphMorphism.violations`` as it was before its tables were bound
    to locals and its colour checks skipped for uncoloured graphs; the
    reference for the list of violations and its order."""
    bad = []
    target_vertices = set(m.target.vertices)
    target_darts = set(m.target.darts)
    for v in m.source.vertices:
        if m.vmap.get(v) not in target_vertices:
            bad.append("vertex %r has no valid image" % (v,))
    for d in m.source.darts:
        e = m.dmap.get(d)
        if e not in target_darts:
            bad.append("dart %r has no valid image" % (d,))
            continue
        if m.vmap.get(m.source.origin[d]) != m.target.origin[e]:
            bad.append("origin not preserved at dart %r" % (d,))
        if m.dmap.get(m.source.reverse[d]) != m.target.reverse[e]:
            bad.append("reversal not preserved at dart %r" % (d,))
        sc = m.source.dart_colour.get(d)
        tc = m.target.dart_colour.get(e)
        if sc is not None and tc is not None and sc != tc:
            bad.append("dart colour not preserved at %r" % (d,))
    for v in m.source.vertices:
        sc = m.source.vertex_colour.get(v)
        tc = m.target.vertex_colour.get(m.vmap.get(v))
        if sc is not None and tc is not None and sc != tc:
            bad.append("vertex colour not preserved at %r" % (v,))
    return bad


def reference_is_covering(m: GraphMorphism):
    """``graphs.is_covering`` as it was before its star test counted images:
    (reason, witness) of the first failure, None for a covering, and
    GraphError when ``reference_violations`` finds any."""
    bad = reference_violations(m)
    if bad:
        raise GraphError("not a graph morphism: " + "; ".join(bad[:3]))
    covered_v = set(m.vmap.values())
    for v in m.target.vertices:
        if v not in covered_v:
            return "vertex not covered", v
    covered_d = set(m.dmap.values())
    for d in m.target.darts:
        if d not in covered_d:
            return "dart not covered", d
    for v in m.source.vertices:
        image = [m.dmap[d] for d in m.source.star(v)]
        target_star = m.target.star(m.vmap[v])
        if len(set(image)) != len(image) or sorted(image) != list(target_star):
            return "star map not bijective", v
    return None


def recursive_find_covering(h: Graph, target: Graph, budget: int = 200000):
    """The recursive backtracking search that ``oracle.find_covering``
    replaced: one recursion level per search node, both maps copied at
    every level, the pending dart found by a scan of ``h.darts``.  It
    serves as the reference for the visit order, the budget accounting and
    the first morphism found.  An image dart must be unused in the star of
    the pending dart's origin, and its reverse unused in the star of the
    head; the colours of both darts and both reverses must agree where
    both are set."""
    if not h.vertices:
        return None
    counter = [budget]
    v0 = h.vertices[0]

    def compatible(v, w):
        if h.degree(v) != target.degree(w):
            return False
        cv = h.vertex_colour.get(v)
        cw = target.vertex_colour.get(w)
        return cv is None or cw is None or cv == cw

    def extend(vmap, dmap):
        counter[0] -= 1
        if counter[0] < 0:
            raise BudgetExceeded("oracle search budget exceeded")
        pending = None
        for d in h.darts:
            if d not in dmap and h.origin[d] in vmap:
                pending = d
                break
        if pending is None:
            if len(vmap) < len(h.vertices):
                return None
            return GraphMorphism(h, target, vmap, dmap)
        v = h.origin[pending]
        used = {dmap[x] for x in h.star(v) if x in dmap}
        for e in target.star(vmap[v]):
            if e in used:
                continue
            hc = h.dart_colour.get(pending)
            tc = target.dart_colour.get(e)
            if hc is not None and tc is not None and hc != tc:
                continue
            hc = h.dart_colour.get(h.reverse[pending])
            tc = target.dart_colour.get(target.reverse[e])
            if hc is not None and tc is not None and hc != tc:
                continue
            w = h.head(pending)
            tw = target.head(e)
            if w in vmap:
                if vmap[w] != tw or target.reverse[e] in {
                        dmap[x] for x in h.star(w) if x in dmap}:
                    continue
            elif not compatible(w, tw):
                continue
            new_vmap = dict(vmap)
            new_vmap[w] = tw
            new_dmap = dict(dmap)
            new_dmap[pending] = e
            new_dmap[h.reverse[pending]] = target.reverse[e]
            out = extend(new_vmap, new_dmap)
            if out is not None:
                return out
        return None

    for w0 in target.vertices:
        if compatible(v0, w0):
            out = extend({v0: w0}, {})
            if out is not None:
                return out
    return None


def random_cubic_graph(rng: random.Random, n: int) -> Graph:
    """Simple connected 3-regular graph on n vertices (n even) from the
    pairing model, redrawn until simple and connected."""
    while True:
        points = [i // 3 for i in range(3 * n)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[k:k + 2])) for k in range(0, 3 * n, 2)}
        if len(edges) < 3 * n // 2 or any(u == w for u, w in edges):
            continue
        g = families._from_edges(n, sorted(edges))
        if g.is_connected():
            return g


def random_base_graph(rng: random.Random, max_vertices: int = 8,
                      max_degree: int = 4) -> Graph:
    """Connected multigraph with bounded degree (loops and parallels allowed)."""
    n = rng.randint(2, max_vertices)
    vertices = ["v%02d" % i for i in range(n)]
    edges = []
    degree = {v: 0 for v in vertices}
    for i in range(1, n):
        mate = rng.randrange(i)
        edges.append((vertices[i], vertices[mate]))
        degree[vertices[i]] += 1
        degree[vertices[mate]] += 1
    extra = rng.randint(0, n)
    for _ in range(extra):
        pool = [v for v in vertices if degree[v] <= max_degree - 1]
        if not pool:
            break
        u = rng.choice(pool)
        if degree[u] <= max_degree - 2 and rng.random() < 0.2:
            edges.append((u, u))
            degree[u] += 2
            continue
        pool2 = [v for v in pool if v != u]
        if not pool2:
            continue
        w = rng.choice(pool2)
        edges.append((u, w))
        degree[u] += 1
        degree[w] += 1
    return edge_list_graph(vertices, edges)


def edge_list_graph(vertices, edges) -> Graph:
    """Graph with one edge per (u, w) pair, its darts named as
    ``random_base_graph`` names them: "eKK.a" from u and "eKK.b" from w."""
    darts, origin, reverse = [], {}, {}
    for k, (u, w) in enumerate(edges):
        a, b = "e%02d.a" % k, "e%02d.b" % k
        darts += [a, b]
        origin[a], origin[b] = u, w
        reverse[a], reverse[b] = b, a
    return Graph(vertices, darts, origin, reverse)


# -- the breadth-first walks as they were before ``Graph.bfs`` and
# ``UniversalCover.layers``; each serves as the reference for the walk that
# replaced it


def reference_components(g: Graph) -> list:
    """``Graph.components``, visiting a sorted set of neighbours per vertex."""
    def neighbours(v):
        return tuple(sorted({g.head(d) for d in g.star(v)}))

    seen = set()
    comps = []
    for v0 in g.vertices:
        if v0 in seen:
            continue
        comp = {v0}
        queue = deque([v0])
        while queue:
            v = queue.popleft()
            for w in neighbours(v):
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


def reference_distances_from(g: Graph, v0: str) -> dict:
    """``Graph.distances_from``, over sorted neighbour sets."""
    dist = {v0: 0}
    queue = deque([v0])
    while queue:
        v = queue.popleft()
        for w in sorted({g.head(d) for d in g.star(v)}):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def reference_two_colouring(g: Graph):
    """``regular.two_colouring``: a list-as-queue walk per component that
    stops at the first dart joining two vertices of one colour."""
    colour = {}
    for v0 in g.vertices:
        if v0 in colour:
            continue
        colour[v0] = 0
        queue = [v0]
        while queue:
            v = queue.pop(0)
            for d in g.star(v):
                w = g.head(d)
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    queue.append(w)
                elif colour[w] == colour[v]:
                    return None
    return colour


def reference_non_tree_reps(g: Graph) -> list:
    """``oracle._non_tree_reps``: edge representatives outside a
    list-as-queue spanning tree from the first vertex."""
    root = g.vertices[0]
    seen = {root}
    tree = set()
    queue = [root]
    while queue:
        v = queue.pop(0)
        for d in g.star(v):
            w = g.head(d)
            if w not in seen:
                seen.add(w)
                tree.add(d)
                tree.add(g.reverse[d])
                queue.append(w)
    return [d for d in g.edge_reps() if d not in tree]


def reference_spanning_tree(g: Graph, basepoint: str):
    """``UniversalCover._build_spanning_tree``: (parent_dart, generators)."""
    parent_dart = {}
    seen = {basepoint}
    queue = deque([basepoint])
    while queue:
        v = queue.popleft()
        for d in g.star(v):
            w = g.head(d)
            if w not in seen:
                seen.add(w)
                parent_dart[w] = d
                queue.append(w)
    tree_darts = set(parent_dart.values())
    tree_darts |= {g.reverse[d] for d in tree_darts}
    return parent_dart, tuple(d for d in g.edge_reps() if d not in tree_darts)


def reference_frontier_walk(cover, radius: int) -> list:
    """The frontier loop of ``star_system._aligned_atoms`` and
    ``ball_system.discover_atoms``: tree vertices in visiting order."""
    order = []
    frontier = [()]
    layer = 0
    while frontier and layer <= radius:
        nxt = []
        for z in sorted(frontier):
            order.append(z)
            for _, w in cover.star_darts(z):
                if len(w) == len(z) + 1:
                    nxt.append(w)
        frontier = nxt
        layer += 1
    return order


def reference_split_two_factor(g: Graph, darts) -> set:
    """``regular._split_two_factor``, finding each component by a
    depth-first stack."""
    remaining = set(darts)
    oriented = []
    seen_v = set()
    for v in sorted({g.origin[d] for d in remaining}):
        if v in seen_v:
            continue
        comp_darts = set()
        stack = [v]
        comp_vs = set()
        while stack:
            u = stack.pop()
            if u in comp_vs:
                continue
            comp_vs.add(u)
            for d in g.star(u):
                if d in remaining:
                    comp_darts.add(d)
                    stack.append(g.head(d))
        seen_v |= comp_vs
        oriented.extend(euler_circuit(g, comp_darts))
    adjacency = {}
    for d in oriented:
        adjacency.setdefault(g.origin[d], []).append((d, g.head(d)))
    for v in adjacency:
        adjacency[v].sort()
    matched = max_bipartite_matching(adjacency)
    if len(matched) != len(adjacency):
        raise GraphError("no perfect matching in the circuit orientation")
    factor = set()
    for d in matched.values():
        factor.add(d)
        factor.add(g.reverse[d])
    return factor


# -- the star and ball kernels as they were before arrows became permutations
# of numbered domains: arrows and atoms as sorted pair tuples, acting through
# dicts and tree paths.  Each serves as the reference for the serials that
# the integer kernel renders.


def _invert_letter(letter):
    kind, payload = letter
    if kind == "th":
        return ("th", -payload)
    return (kind, tuple((i, -e) for i, e in reversed(payload)))


class ReferenceStarArrow:
    """A bijection between two stars, as sorted (dart, image) pairs."""

    def __init__(self, src, dst, bij):
        self.src = src
        self.dst = dst
        self.bij = bij
        self.serial = ("star", src, dst, bij)

    def compose(self, other):
        if other.dst != self.src:
            return None
        m = dict(self.bij)
        return ReferenceStarArrow(other.src, self.dst,
                                  tuple([(e, m[f]) for e, f in other.bij]))

    def inverse(self):
        return ReferenceStarArrow(self.dst, self.src,
                                  tuple(sorted((f, e) for e, f in self.bij)))


class ReferenceBallArrow:
    """Root-to-root isomorphism between two canonical balls, as sorted
    (path, path) pairs, with its deck-word witness."""

    def __init__(self, src, dst, mapping, witness=()):
        self.src = src
        self.dst = dst
        self.mapping = mapping
        self.witness = witness
        self.serial = ("ball", src, dst, mapping)

    def compose(self, other):
        if other.dst != self.src:
            return None
        m = dict(self.mapping)
        out = tuple([(p, m[q]) for p, q in other.mapping])
        return ReferenceBallArrow(other.src, self.dst, out, other.witness + self.witness)

    def inverse(self):
        return ReferenceBallArrow(self.dst, self.src,
                                  tuple(sorted((q, p) for p, q in self.mapping)),
                                  tuple(_invert_letter(l) for l in reversed(self.witness)))


class ReferenceEdgeAtom:
    """Centered isomorphism between the canonical neighbourhoods of two darts."""

    def __init__(self, anchor, image, mapping):
        self.anchor = anchor
        self.image = image
        self.mapping = mapping
        self.serial = ("atom", anchor, image, mapping)


class ReferenceStarKernel:
    """Star atoms as (anchor dart, image dart) pairs of a star system."""

    def __init__(self, sys):
        self.union = sys.union

    def arrow(self, a):
        return ReferenceStarArrow(a.src, a.dst, a.bij)

    def atom(self, serial):
        return serial

    def identity(self, x):
        return ReferenceStarArrow(x, x, tuple((d, d) for d in self.union.star(x)))

    def identity_atom(self, dart):
        return (dart, dart)

    def serial(self, atom):
        return atom

    def act(self, arrow, atom):
        return (atom[0], dict(arrow.bij)[atom[1]])

    def bar(self, atom):
        rev = self.union.reverse
        return (rev[atom[0]], rev[atom[1]])


class ReferenceBallKernel:
    """Ball atoms as ``ReferenceEdgeAtom`` records of a ball system, acting
    through the tree paths of its two universal covers."""

    def __init__(self, sys):
        self.union = sys.union
        self.cover1, self.cover2 = sys.cover1, sys.cover2
        self.radius = sys.radius

    def _cover_of(self, prefixed):
        return self.cover1 if prefixed.startswith("1:") else self.cover2

    def _neighbourhood(self, cover, root, dart):
        head = cover.step(root, dart)
        vs = set(cover.ball(root, self.radius - 1).vertices)
        vs |= set(cover.ball(head, self.radius - 1).vertices)
        return tuple(sorted(vs))

    def arrow(self, a):
        return ReferenceBallArrow(a.src, a.dst, a.mapping, a.witness)

    def atom(self, serial):
        return ReferenceEdgeAtom(*serial[1:])

    def identity(self, x):
        cover = self._cover_of(x)
        vs = cover.ball(cover.canonical_lift(x[2:]), self.radius).vertices
        return ReferenceBallArrow(x, x, tuple((p, p) for p in vs))

    def identity_atom(self, dart):
        cover = self._cover_of(dart)
        raw = dart[2:]
        root = cover.canonical_lift(cover.graph.origin[raw])
        nb = self._neighbourhood(cover, root, raw)
        return ReferenceEdgeAtom(dart, dart, tuple((p, p) for p in nb))

    def serial(self, atom):
        return atom.serial

    def act(self, arrow, atom):
        cover = self._cover_of(atom.image)
        raw = atom.image[2:]
        root = cover.canonical_lift(cover.graph.origin[raw])
        head = cover.step(root, raw)
        m = dict(arrow.mapping)
        new_mapping = tuple((p, m[q]) for p, q in atom.mapping)
        target = self._cover_of(arrow.dst)
        new_dart = target.dart_between(m[root], m[head])
        return ReferenceEdgeAtom(atom.anchor, arrow.dst[:2] + new_dart, new_mapping)

    def bar(self, atom):
        csrc = self._cover_of(atom.anchor)
        ctgt = self._cover_of(atom.image)
        e, f = atom.anchor[2:], atom.image[2:]
        e_rev = csrc.graph.reverse[e]
        f_rev = ctgt.graph.reverse[f]
        zx = csrc.canonical_lift(csrc.graph.origin[e])
        zy = ctgt.canonical_lift(ctgt.graph.origin[f])
        w1 = csrc.deck_loop(csrc.canonical_lift(csrc.graph.origin[e_rev]),
                            csrc.step(zx, e))
        w2 = ctgt.deck_loop(ctgt.step(zy, f),
                            ctgt.canonical_lift(ctgt.graph.origin[f_rev]))
        m = dict(atom.mapping)
        root = csrc.canonical_lift(csrc.graph.origin[e_rev])
        nb = self._neighbourhood(csrc, root, e_rev)
        mapping = tuple(sorted(
            (p, ctgt.transport(w2, m[csrc.transport(w1, p)])) for p in nb))
        rev = self.union.reverse
        return ReferenceEdgeAtom(rev[atom.anchor], rev[atom.image], mapping)


# -- the object kernel as it was before star maps became permutations of
# numbered decorated stars: dart pairs and per-dart edge-object maps, with
# the vertex map carried along, and atoms as (anchor, image, edge map)
# records.  It serves as the reference for the object system's serials and
# for the vertex maps its witness words evaluate to.


class ReferenceStarMapArrow:
    """Star bijection decorated with invertible edge-object maps; the
    vertex map is carried along but is not part of the serial."""

    def __init__(self, src, dst, bij, edge_maps, vertex_map=None):
        self.src = src
        self.dst = dst
        self.bij = bij                                 # prefixed dart pairs
        self.edge_maps = edge_maps                     # (prefixed dart, ObjMorphism)
        self.vertex_map = vertex_map
        self.serial = ("smap", src, dst, bij,
                       tuple((d, m.serial) for d, m in edge_maps))

    def compose(self, other):
        # dart pairs stay sorted by source dart under composition
        if other.dst != self.src:
            return None
        bij, inner, emap = dict(self.bij), dict(other.bij), dict(self.edge_maps)
        pairs = tuple((e, bij[f]) for e, f in other.bij)
        emaps = tuple(sorted(((e, obj_compose(emap[inner[e]], m))
                              for e, m in other.edge_maps), key=lambda t: t[0]))
        vm = None
        if self.vertex_map is not None and other.vertex_map is not None:
            vm = obj_compose(self.vertex_map, other.vertex_map)
        return ReferenceStarMapArrow(other.src, self.dst, pairs, emaps, vm)

    def inverse(self):
        bij = tuple(sorted((f, e) for e, f in self.bij))
        fwd = dict(self.bij)
        emaps = tuple(sorted(((fwd[e], obj_invert(m)) for e, m in self.edge_maps),
                             key=lambda t: t[0]))
        vm = obj_invert(self.vertex_map) if self.vertex_map is not None else None
        return ReferenceStarMapArrow(self.dst, self.src, bij, emaps, vm)


class ReferenceObjectAtom:
    def __init__(self, anchor, image, morph):
        self.anchor = anchor
        self.image = image
        self.morph = morph
        self.serial = ("oatom", anchor, image, morph.serial)


class ReferenceObjectKernel:
    """Object atoms as ``ReferenceObjectAtom`` records of an object system.
    An arrow's reference carries the vertex map its witness word evaluates
    to."""

    def __init__(self, sys):
        self.sys = sys
        self.union = sys.union

    def _object_graph(self, prefixed):
        return self.sys.x1 if prefixed.startswith("1:") else self.sys.x2

    def _edge_object(self, dart):
        return self._object_graph(dart).edge_objects[dart[2:]]

    def arrow(self, a):
        _, src, dst, bij, maps = a.serial
        return ReferenceStarMapArrow(src, dst, bij,
                                     tuple((d, ObjMorphism(*m)) for d, m in maps),
                                     self.sys.vertex_map(a))

    def atom(self, serial):
        _, anchor, image, morph = serial
        return ReferenceObjectAtom(anchor, image, ObjMorphism(*morph))

    def identity(self, x):
        xg, star = self._object_graph(x), self.union.star(x)
        return ReferenceStarMapArrow(
            x, x, tuple((d, d) for d in star),
            tuple((d, obj_identity(self._edge_object(d))) for d in star),
            obj_identity(xg.vertex_objects[x[2:]]))

    def identity_atom(self, dart):
        return ReferenceObjectAtom(dart, dart, obj_identity(self._edge_object(dart)))

    def serial(self, atom):
        return atom.serial

    def act(self, arrow, atom):
        return ReferenceObjectAtom(atom.anchor, dict(arrow.bij)[atom.image],
                                   obj_compose(dict(arrow.edge_maps)[atom.image],
                                               atom.morph))

    def bar(self, atom):
        rev = self.union.reverse
        return ReferenceObjectAtom(rev[atom.anchor], rev[atom.image], atom.morph)


def reference_kernel(sys):
    """The pair-tuple reference for the arrows and atoms of a star, ball or
    object system."""
    return {"star": ReferenceStarKernel, "ball": ReferenceBallKernel,
            "object": ReferenceObjectKernel}[sys.kind](sys)
