import json
import math
import random
from collections import Counter, deque
from functools import partial
from itertools import accumulate, chain

import pytest

from commoncover import cli, families
from commoncover.ball_system import discover_atoms
from commoncover.cover_builder import _first_difference, build_cover
from commoncover.graphs import (BudgetExceeded, Graph, GraphError, GraphMorphism,
                                ValidationReport)
from commoncover.groupoids import keyed, lcm_all
from commoncover.object_graphs import (ObjectGraph, obj_compose, obj_identity, obj_invert,
                                       obj_morphism)
from commoncover.refinement import joint_refinement
from commoncover.regular import euler_circuit, max_bipartite_matching
from commoncover.star_system import StarArrow
from commoncover.universal_cover import align


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


def hom(gpd, x, y) -> list:
    """The arrows of the groupoid from object x to object y."""
    return [a for a in gpd.by_source.get(x, ()) if a.dst == y]


def eps(sys, atom):
    """The origin of the atom's image dart, or None when it has none."""
    f = sys.atom_image(atom)
    return None if f is None else sys.union.org[f]


def saturation_horizon(g1: Graph, g2: Graph, radius: int, explore_max: int) -> int:
    """Smallest tested exploration radius after which one more step adds no
    new vertex arrows; this is an empirical stability report, not a
    completeness proof."""
    alignment = align(g1, g2, joint_refinement(g1, g2))
    prev = None
    for rho in range(explore_max + 1):
        keys = {a.key for a in discover_atoms(g1, g2, alignment, radius, rho).vertex_arrows}
        if prev is not None and keys == prev:
            return rho - 1
        prev = keys
    return explore_max


def ball_group_divisor(d: int, radius: int) -> int:
    """Order of the root-fixing automorphism group of the radius-R ball in
    the d-regular tree: d! * ((d-1)!)^(number of interior non-root vertices).

    Every group of root-fixing ball isomorphisms embeds in it, so sizes of
    vertex isotropy groups in a ball system divide this number.
    """
    if d < 1 or radius < 1:
        raise ValueError("degree and radius must be positive")
    interior = sum(d * (d - 1) ** i for i in range(radius - 1))
    return math.factorial(d) * math.factorial(max(d - 1, 0)) ** interior


def object_group_divisor(d: int, isotropy_lcm: int) -> int:
    """Vertex-group divisor for object systems: d! * (lcm of isotropy orders)^d."""
    return math.factorial(d) * isotropy_lcm ** d


def isotropy(sys, dart) -> list:
    """The invertible self-maps of a dart's edge object that the star maps
    of an object system fixing the dart induce, sorted by serial."""
    return sorted((sys.atom_morph(a) for a in sys.atoms_by_anchor[dart]
                   if sys.atom_image(a) == dart), key=lambda m: m.serial)


def isotropy_lcm(sys) -> int:
    """The lcm of the orders of the isotropy groups of an object system."""
    return math.lcm(*(len(isotropy(sys, dart)) for dart in range(len(sys.union.darts))))


def object_graph(g, vertex_objects: dict, edge_objects: dict, edge_morphisms: dict):
    """The ObjectGraph of id-keyed tables: their entries as columns by
    index, None where an id has none."""
    return ObjectGraph(g, tuple(map(vertex_objects.get, g.vertices)),
                       tuple(map(edge_objects.get, g.darts)),
                       tuple(map(edge_morphisms.get, g.darts)))


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
        for arrow in sys.groupoid.by_source.get(eps(sys, atom), ()):
            nxt = sys.act(arrow, atom)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def generator_words(generators, identities) -> dict:
    """Per arrow key of the groupoid the generators saturate to, a word over
    them: ("g", i) for the i-th generator and ("g~", i) for its inverse, in
    application order.  The search is ``groupoids.saturate``'s own
    breadth-first order (the identities, then each letter, then each arrow
    found left-composed with the letters at its target), so each word
    evaluates to the arrow ``saturate`` kept, witness included."""
    letters = []
    for i, g in enumerate(generators):
        letters += [(("g", i), g), (("g~", i), g.inverse())]
    words, queue = {}, deque()

    def add(arrow, word):
        if arrow.key not in words:
            words[arrow.key] = word
            queue.append(arrow)

    for x in sorted(identities):
        add(identities[x], ())
    for letter, s in letters:
        add(s, (letter,))
    while queue:
        b = queue.popleft()
        for letter, s in letters:
            if s.src == b.dst:
                add(s.compose(b), words[b.key] + (letter,))
    return words


def star_arrow(graph: Graph, src: str, dst: str, image: dict) -> StarArrow:
    """The star bijection of ``graph`` from vertex src to vertex dst sending
    each dart d to image[d]."""
    domain, codomain = graph.star(src), graph.star(dst)
    at = {f: i for i, f in enumerate(codomain)}
    index = graph.index()[0]
    return StarArrow(index[src], index[dst], [at[image[d]] for d in domain], domain,
                     codomain, graph.vertices)


def verify_groupoid(gpd) -> list:
    """Check the groupoid axioms of a ``FiniteGroupoid``, completely.

    Identities, inverses and the identity law are checked per arrow.
    Every composable pair is composed once, which checks closure and
    fills a table of composites; associativity c(ab) = (ca)b is then
    checked on every composable triple by table lookups.  Returns a
    list of violation strings (empty when the axioms hold).
    """
    bad = []
    number = gpd.number
    for x in gpd.objects:
        if x not in gpd.identities:
            bad.append("missing identity at %r" % (x,))
    for a in gpd.arrows:
        inv = a.inverse()
        if inv.key not in number:
            bad.append("inverse missing for %r" % (a.serial,))
            continue
        left = inv.compose(a)
        if left is None or left.key != gpd.identities[a.src].key:
            bad.append("inverse law fails for %r" % (a.serial,))
        ii = gpd.identities[a.dst].compose(a)
        if ii is None or ii.key != a.key:
            bad.append("identity law fails for %r" % (a.serial,))
    table = {}                   # (i, j) -> index of arrow i after arrow j
    for j, b in enumerate(gpd.arrows):
        for a in gpd.by_source.get(b.dst, ()):
            ab = a.compose(b)
            k = number.get(ab.key) if ab is not None else None
            if k is None:
                bad.append("not closed under composition at (%r, %r)"
                           % (a.serial, b.serial))
            else:
                table[number[a.key], j] = k
    if bad:
        return bad
    out = [[number[a.key] for a in gpd.by_source.get(b.dst, ())]
           for b in gpd.arrows]
    for j in range(len(gpd.arrows)):
        for i in out[j]:
            ij = table[i, j]
            for c in out[i]:
                if table[c, ij] != table[table[c, i], j]:
                    bad.append("associativity fails on a triple at %r"
                               % (gpd.arrows[c].serial,))
                    return bad
    return bad


def _vertex_group_divisors(sys, divisor: int) -> list:
    """(object id, group order, divisor, ok) for every vertex group."""
    orders = [len(hom(sys.groupoid, x, x)) for x in range(len(sys.union.vertices))]
    return [(name, n, divisor, divisor % n == 0)
            for name, n in zip(sys.union.vertices, orders)]


def _max_degree(sys) -> int:
    return max(max((sys.g1.degree(v) for v in sys.g1.vertices), default=1),
               max((sys.g2.degree(v) for v in sys.g2.vertices), default=1))


def check_ball_divisors(sys) -> list:
    """(object, group order, divisor, ok) for every vertex isotropy group of
    a ball local system."""
    return _vertex_group_divisors(sys, ball_group_divisor(_max_degree(sys), sys.radius))


def check_object_divisors(sys) -> list:
    """(object, group order, divisor, ok) for object-system vertex groups."""
    return _vertex_group_divisors(
        sys, object_group_divisor(_max_degree(sys), isotropy_lcm(sys)))


def is_equitable(p) -> bool:
    """Every vertex of a block sees the same multiset of (dart colour,
    reverse colour, head block) along its star."""
    g, colour = p.graph, p.graph.dart_colour

    def profile(v):
        return frozenset(Counter((colour.get(g.darts[d]), colour.get(g.darts[g.rev[d]]),
                                  p.block_of[g.org[g.rev[d]]]) for d in g.stars()[v]).items())

    return all(len(set(map(profile, block))) == 1 for block in p.blocks)


def is_valid_morphism(m: GraphMorphism) -> bool:
    return not m.violations()


def n_edges(g: Graph) -> int:
    return len(g.darts) // 2


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
    for e, name in enumerate(self.union.darts):
        ident = self.identity_atom(e)
        id_key = self.atom_serial(ident)
        x = self.union.org[e]
        unit = groupoid.identities.get(x)
        if unit is None or self.atom_serial(self.act(unit, ident)) != id_key:
            return "identity action fails over %r" % (self.union.vertices[x],)
        out = groupoid.by_source.get(x, ())
        image, rep = {}, {}
        for g in out:
            ga = self.act(g, ident)
            if eps(self, ga) != g.dst:
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
            return "orbit-stabilizer count fails at %r" % (name,)
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
    origin, anchor = partial(eps, self), self.atom_anchor
    for x, star in enumerate(self.stars):
        unit = groupoid.identities.get(x)
        out = by_source.get(x, ())
        out_numbers = [number[g.key] for g in out]
        number_of = {keyed(g.dst, g.perm): n for g, n in zip(out, out_numbers)}
        rows = {}

        def row(j):
            found = rows.get(j)
            if found is None:
                b = arrows[j]
                hs = by_source.get(b.dst, ())
                found = rows[j] = [number_of.get(k, -1) for k in
                                   b.compose_row([h.table for h in hs])]
            return found

        for e in star:
            ident = self.identity_atom(e)
            if unit is None or self.act(unit, ident) != ident:
                return "identity action fails over %r" % (self.union.vertices[x],)
            moved = act_row(out, ident)
            got = list(zip(map(origin, moved), map(anchor, moved)))
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
                return "orbit-stabilizer count fails at %r" % (self.union.darts[e],)
            for a, r in rep.items():
                hs = by_source.get(arrows[r].dst, ())
                expected = act_row(hs, a)
                got = list(map(image.get, row(r)))
                if got != expected:
                    return "action compatibility fails at %r" % (
                        hs[_first_difference(got, expected)].serial,)
    return None


def reference_labels(sys) -> tuple:
    """The provenance labels of ``build_cover(sys, component="all")`` as the
    builder nested them before they were a table: cover vertex i ("v%06d")
    -> (arrow serial, copy) over the cross arrows in key order, and cover
    dart i ("d%06d") -> (atom serial, copy) over the cross atoms in serial
    order."""
    out = [sys.out_count(x) for x in range(len(sys.union.vertices))]
    n_mult = lcm_all(out)
    vertex_label, atoms, dart_label = [], set(), []
    for a in sys.cross_arrows():
        vertex_label += [(a.serial, j) for j in range(1, n_mult // out[a.src] + 1)]
        atoms.update(sys.act_identity(a, e) for e in sys.stars[a.src])
    for atom in sorted(atoms, key=sys.atom_serial):
        dart_label += [(sys.atom_serial(atom), k)
                       for k in range(1, n_mult // sys.orbit_size(atom[0]) + 1)]
    return ({"v%06d" % i: label for i, label in enumerate(vertex_label)},
            {"d%06d" % i: label for i, label in enumerate(dart_label)})


def spied_builds(monkeypatch) -> list:
    """Record (function name, result, arguments) of each ``build_cover``,
    ``build_object_cover`` and ``extract_certificate`` that ``cli`` calls."""
    calls = []
    for name in ("build_cover", "build_object_cover", "extract_certificate"):
        def spy(*args, fn=getattr(cli, name), name=name, **kwargs):
            calls.append((name, fn(*args, **kwargs), args))
            return calls[-1][1]
        monkeypatch.setattr(cli, name, spy)
    return calls


def _assert_written(path, payload, want):
    cli.write_json(path, payload)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == json.dumps(want, sort_keys=True, indent=2) + "\n"


def check_label_tables(calls, path) -> None:
    """For the build of ``spied_builds`` calls: its label tables, and those
    of the same system's uncut cover, equal ``reference_labels`` as mappings
    (on the cover's ids) and write as ``json.dumps`` writes those; a
    certificate's entry table writes as its entries do."""
    (name, built, args), *rest = calls
    vertices, darts = reference_labels(args[0])
    for cover in (build_cover(args[0], component="all"), built):
        want = {"darts": {d: darts[d] for d in cover.graph.darts},
                "vertices": {v: vertices[v] for v in cover.graph.vertices}}
        assert (cover.vertex_label, cover.dart_label) == (want["vertices"], want["darts"])
        if name == "build_cover":          # object covers write no provenance
            _assert_written(path, {"darts": cover.dart_label,
                                   "vertices": cover.vertex_label}, want)
    for _, cert, _ in rest:
        _assert_written(path, cert.table, [
            {"tree_vertex": list(e.tree_vertex), "arrow": e.arrow.serial,
             "matches_label": e.matches_label, "witness_ok": e.witness_ok}
            for e in cert.entries])


def corrupt_act(sys, corrupt):
    """Replace the system's action so that it corrupts the atom produced by
    one cross arrow, and drop the cached atom rows and sets.  The replaced
    methods are the two places where arrows act on atoms: ``act_row``
    (``act`` is its one-element case) and the action half of each key of a
    ``law_row``, which is put back from the replaced ``act_row``.
    ``corrupt`` sees the positions of an atom as a tuple, and its result is
    put back in the system's encoding; a bundle (several atoms with a tuple
    of anchors and their positions concatenated) is corrupted atom by
    atom."""
    victim = sys.cross_arrows()[0].serial
    act_row, law_row, dom = sys.act_row, sys.law_row, sys.numbering.dom

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

    def mutant_law_row(r, tables, bundle):
        # the row's tables are those of the arrows out of dst r, in order
        hs = sys.groupoid.by_source[r.dst]
        out = list(law_row(r, tables, bundle))
        for k, (h, key) in enumerate(zip(hs, out)):
            if h.serial == victim:
                _, y, moved = mutant((h,), (sys.stars[r.src], r.dst, bundle))[0]
                out[k] = key[:len(keyed(y, r.perm))] + keyed(y, moved)
        return out

    sys.act_row = mutant
    sys.law_row = mutant_law_row
    sys.__dict__.pop("identity_rows", None)
    sys.__dict__.pop("atoms_by_anchor", None)


def corrupt_compose(sys, monkeypatch):
    """Make composition give a wrong arrow for one pair (h, r) that check
    (d) of ``check_axioms`` tests.  r is the first arrow out of an object x,
    so it represents its atom at every dart of x; the wrong arrow has the
    composite's source and target but moves some identity atom at x
    elsewhere.  The patched method is the row kernel ``compose_row``, the
    one definition of composition, whose entry for h becomes the wrong
    key, and a law row's key for h keeps its action half.  Returns False,
    patching nothing, when no such pair exists."""
    def moved(arrow, x):
        return {sys.atom_serial(sys.act_identity(arrow, e)) for e in sys.stars[x]}

    def pairs():
        for x in range(len(sys.union.vertices)):
            r = sys.groupoid.by_source[x][0]
            for h in sys.groupoid.by_source[r.dst]:
                right = moved(h.compose(r), x)
                for w in hom(sys.groupoid, x, h.dst):
                    if moved(w, x) != right:
                        yield h, r, w

    h, r, wrong = next(pairs(), (None, None, None))
    if h is None:
        return False
    substitute_composite(monkeypatch, h, r, wrong)
    return True


def substitute_composite(monkeypatch, h, r, wrong):
    """Patch the row kernel ``compose_row`` so that the key of h after r
    is the key of ``wrong``; a key that goes on with an action half keeps
    it."""
    cls = type(h)
    compose_row = cls.compose_row
    wrong_key = keyed(wrong.dst, wrong.perm)

    def corrupted_row(self, tables, tail=None):
        out = list(compose_row(self, tables, tail))
        if self.serial == r.serial:
            out = [wrong_key + k[len(wrong_key):] if t == h.table else k
                   for t, k in zip(tables, out)]
        return out

    monkeypatch.setattr(cls, "compose_row", corrupted_row)


def deck_transport(cover, word, path):
    """Apply to a tree vertex of ``cover``, a path of dart indices, the deck
    transformation of a word over (generator index, exponent) pairs."""
    cover.check_path(path)
    return cover.transport(cover.word_to_loop(word), path)


def map_vertices(alignment, vertices) -> dict:
    """The alignment's image of each tree vertex (a path of dart indices)."""
    return {z: alignment.apply(z) for z in vertices}


def fiber_pairs(fp) -> tuple:
    """(cover vertex -> (its image under proj1, under proj2), the same per
    cover dart) of a fiber product."""
    p1, p2 = fp.proj1, fp.proj2
    return ({v: (p1.vmap[v], p2.vmap[v]) for v in fp.graph.vertices},
            {d: (p1.dmap[d], p2.dmap[d]) for d in fp.graph.darts})


def map_is_ball_isomorphism(bsrc, btgt, mapping: dict) -> bool:
    """Root-preserving label-compatible tree isomorphism check of two balls
    of universal covers, given as a map between paths of dart indices."""
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


def reference_distances_from(g: Graph, v0: int) -> dict:
    """``Graph.distances_from``, over sorted neighbour sets of vertex indices."""
    stars, org, rev = g.stars(), g.org, g.rev
    dist = {v0: 0}
    queue = deque([v0])
    while queue:
        v = queue.popleft()
        for w in sorted({org[rev[d]] for d in stars[v]}):
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


def reference_spanning_tree(g: Graph, basepoint: int):
    """``UniversalCover._build_spanning_tree``: (parent_dart, generators),
    the parent dart per vertex index (-1 at the basepoint) and the
    generators as dart indices."""
    stars, org, rev = g.stars(), g.org, g.rev
    parent_dart = [-1] * len(g.vertices)
    seen = {basepoint}
    queue = deque([basepoint])
    while queue:
        v = queue.popleft()
        for d in stars[v]:
            w = org[rev[d]]
            if w not in seen:
                seen.add(w)
                parent_dart[w] = d
                queue.append(w)
    tree_darts = {d for d in parent_dart if d >= 0}
    tree_darts |= {rev[d] for d in tree_darts}
    return parent_dart, tuple(d for d, r in enumerate(rev) if d < r and d not in tree_darts)


def reference_frontier_walk(cover, radius: int) -> list:
    """The frontier loop of the discovery walk (``cover_builder.Kind.within``)
    of the star and ball builds: tree vertices in visiting order."""
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
    depth-first stack; darts are indices."""
    remaining = set(darts)
    org, rev, stars = g.org, g.rev, g.stars()
    oriented = []
    seen_v = set()
    for v in sorted({org[d] for d in remaining}):
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
            for d in stars[u]:
                if d in remaining:
                    comp_darts.add(d)
                    stack.append(org[rev[d]])
        seen_v |= comp_vs
        oriented.extend(euler_circuit(g, comp_darts))
    adjacency = {}
    for d in oriented:
        adjacency.setdefault(org[d], []).append((d, org[rev[d]]))
    for v in adjacency:
        adjacency[v].sort()
    matched = max_bipartite_matching(adjacency)
    if len(matched) != len(adjacency):
        raise GraphError("no perfect matching in the circuit orientation")
    factor = set()
    for d in matched.values():
        factor.add(d)
        factor.add(rev[d])
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


def _sides(sys) -> dict:
    """Vertex or dart id of the union -> the side (1 or 2) its index lies
    on; a vertex and a dart never share an id in the fixtures."""
    vindex, dindex = sys.union.index()
    return {**{v: 1 if i < sys.n1 else 2 for v, i in vindex.items()},
            **{d: 1 if i < sys.m1 else 2 for d, i in dindex.items()}}


class ReferenceStarKernel:
    """Star atoms as (anchor dart, image dart) pairs of a star system."""

    def __init__(self, sys):
        self.union = sys.union

    def arrow(self, a):
        return ReferenceStarArrow(a.names[a.src], a.names[a.dst], a.bij)

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
    through the tree paths of its two universal covers.  The records hold
    paths of dart ids, as the serials do; the covers' paths of dart indices
    are read through ``_path`` and rendered by ``cover.ids``."""

    def __init__(self, sys):
        self.union = sys.union
        self.cover1, self.cover2 = sys.cover1, sys.cover2
        self.radius = sys.radius
        self._side = _sides(sys)

    def _cover_of(self, prefixed):
        return self.cover1 if self._side[prefixed] == 1 else self.cover2

    @staticmethod
    def _path(cover, ids):
        return tuple(map(cover.graph.index()[1].__getitem__, ids))

    def _lift_of_origin(self, cover, raw_dart):
        """The canonical lift of the origin of a dart id, and the dart's index."""
        d = cover.graph.index()[1][raw_dart]
        return cover.canonical_lift(cover.graph.org[d]), d

    def _neighbourhood(self, cover, root, dart):
        head = cover.step(root, dart)
        vs = set(cover.ball(root, self.radius - 1).vertices)
        vs |= set(cover.ball(head, self.radius - 1).vertices)
        return tuple(map(cover.ids, sorted(vs)))

    def arrow(self, a):
        return ReferenceBallArrow(a.names[a.src], a.names[a.dst], a.mapping, a.witness)

    def atom(self, serial):
        return ReferenceEdgeAtom(*serial[1:])

    def identity(self, x):
        cover = self._cover_of(x)
        root = cover.canonical_lift(cover.graph.index()[0][x[2:]])
        vs = cover.ball(root, self.radius).vertices
        return ReferenceBallArrow(x, x, tuple((p, p) for p in map(cover.ids, vs)))

    def identity_atom(self, dart):
        cover = self._cover_of(dart)
        nb = self._neighbourhood(cover, *self._lift_of_origin(cover, dart[2:]))
        return ReferenceEdgeAtom(dart, dart, tuple((p, p) for p in nb))

    def serial(self, atom):
        return atom.serial

    def act(self, arrow, atom):
        cover = self._cover_of(atom.image)
        root, raw = self._lift_of_origin(cover, atom.image[2:])
        head = cover.step(root, raw)
        m = dict(arrow.mapping)
        new_mapping = tuple((p, m[q]) for p, q in atom.mapping)
        target = self._cover_of(arrow.dst)
        new_dart = target.dart_between(self._path(target, m[cover.ids(root)]),
                                       self._path(target, m[cover.ids(head)]))
        return ReferenceEdgeAtom(atom.anchor, arrow.dst[:2] + target.graph.darts[new_dart],
                                 new_mapping)

    def bar(self, atom):
        csrc = self._cover_of(atom.anchor)
        ctgt = self._cover_of(atom.image)
        zx, e = self._lift_of_origin(csrc, atom.anchor[2:])
        zy, f = self._lift_of_origin(ctgt, atom.image[2:])
        e_rev, f_rev = csrc.graph.rev[e], ctgt.graph.rev[f]
        w1 = csrc.deck_loop(csrc.canonical_lift(csrc.graph.org[e_rev]),
                            csrc.step(zx, e))
        w2 = ctgt.deck_loop(ctgt.step(zy, f),
                            ctgt.canonical_lift(ctgt.graph.org[f_rev]))
        m = {self._path(csrc, p): self._path(ctgt, q) for p, q in atom.mapping}
        root = csrc.canonical_lift(csrc.graph.org[e_rev])
        nb = self._neighbourhood(csrc, root, e_rev)
        mapping = tuple(sorted(
            (p, ctgt.ids(ctgt.transport(w2, m[csrc.transport(w1, self._path(csrc, p))])))
            for p in nb))
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
        self._side = _sides(sys)

    def _object_graph(self, prefixed):
        return self.sys.x1 if self._side[prefixed] == 1 else self.sys.x2

    def _edge_object(self, dart):
        x = self._object_graph(dart)
        return x.edge_objects[x.graph.index()[1][dart[2:]]]

    def _map(self, dart, image, serial):
        return obj_morphism(self._edge_object(dart), self._edge_object(image),
                            dict(serial[0]), dict(serial[1]))

    def arrow(self, a):
        _, src, dst, bij, maps = a.serial
        images = dict(bij)
        return ReferenceStarMapArrow(src, dst, bij,
                                     tuple((d, self._map(d, images[d], m)) for d, m in maps),
                                     self.sys.vertex_map(a))

    def atom(self, serial):
        _, anchor, image, morph = serial
        return ReferenceObjectAtom(anchor, image, self._map(anchor, image, morph))

    def identity(self, x):
        xg, star = self._object_graph(x), self.union.star(x)
        return ReferenceStarMapArrow(
            x, x, tuple((d, d) for d in star),
            tuple((d, obj_identity(self._edge_object(d))) for d in star),
            obj_identity(xg.vertex_objects[xg.graph.index()[0][x[2:]]]))

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


def reduce_path(g: Graph, darts) -> tuple:
    """Free reduction of a walk of dart indices: cancel adjacent mutually
    reverse darts.  The reference for ``UniversalCover.transport``, which
    cancels at the seam of two reduced paths only."""
    out = []
    for d in darts:
        if out and g.rev[out[-1]] == d:
            out.pop()
        else:
            out.append(d)
    return tuple(out)
