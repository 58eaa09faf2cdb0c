"""Generic assembly of a finite common cover from a local system.

A local system packages a finite groupoid of local symmetries over the
vertices of two graphs together with an action on edge atoms, a bar
involution, and two closure axioms:

* AX1 (coverage): every vertex of either graph is the endpoint of a cross
  arrow, and every dart is hit by a cross atom;
* AX2 (bar closure): the atom set anchored at the reverse of a dart is the
  bar image of the atom set anchored at the dart;
* AX3: the groupoid and action axioms themselves.

``LocalSystem`` is the one kernel of the star, ball and object systems:
its arrows are ``PermArrow`` permutations of the domains of a
``Numbering``, and an atom is an arrow restricted to the numbered
neighbourhood of a dart, held as (anchor dart, target object, positions).
Objects and darts are indices of the disjoint union of the two graphs, so
a side is a comparison with the number of the first graph's vertices or
darts; only the serials render ids.
An atom is its own key.  The checks and the orbit engine act on a whole
row of arrows at once through ``act_row``, one C call per arrow, and the
assembly reads the orbit engine's rows; ``act`` is the row of one arrow.
A bundle, several atoms at one target with a tuple of anchors and their
positions concatenated, moves part by part in the same one call per arrow.
The action-law check reads a composite and an action in one gather per
pair (``law_row``) and decides a whole row by one set test.  The atom sets
are computed once, here:
the atoms anchored at a dart e are {g.id_e : g in out(origin e)}, the orbit
of the identity atom.  Subclasses render ``atom_serial``, the tuple the
artifacts record; it is computed only for artifacts and failure messages.

Given such a system, the cover has one vertex per (cross arrow, copy
index) and one dart per (cross atom, copy index).  The origin of a dart
(a, k) must be some (arrow, j) whose action on the identity atom of a's
anchor yields a; the orbit-stabilizer law makes the counts on the two
sides of this matching agree exactly, and the pairing itself is done in
canonical sorted order so builds are reproducible.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, filterfalse, repeat
from operator import add, attrgetter, itemgetter
from typing import Iterable, Optional

from .graphs import (Cover, Graph, GraphError, GraphMorphism, VerificationError,
                     colours_at, finish_cover, numbered_ids)
from .groupoids import (FiniteGroupoid, encoding, gather, keyed, lcm_all, marked, points,
                        saturate)
from .refinement import joint_refinement
from .universal_cover import align


class AxiomError(Exception):
    """A local system failed its closure axioms: retry larger (exit 2)."""

    def __init__(self, message, radius=None, witness=None):
        super().__init__(message)
        self.radius = radius
        self.witness = witness


# exploration radius doublings the retrying system builders allow
RETRY_DOUBLINGS = 4


def retry_doubling(build, radius: int):
    """``build(radius)``, retried with the radius doubled (0 grows to 1)
    after each ``AxiomError``, at most ``RETRY_DOUBLINGS`` times; the last
    error propagates."""
    for _ in range(RETRY_DOUBLINGS):
        try:
            return build(radius)
        except AxiomError:
            radius = 2 * radius or 1
    return build(radius)


@dataclass
class DiscoveredAtoms:
    vertex_arrows: list            # the first arrow met per key, by key
    root: object = None            # the arrow met at the root


class Kind:
    """A kind of local system of ``build_aligned`` and its walk on one
    alignment.  A kind gives the arrow an alignment induces at a tree vertex
    (``arrow_at``), ``identity`` and its ``system``.  ``within(alignment,
    rho)`` walks ``c1.layers(rho)`` and keeps the first arrow met per key."""

    def __init__(self, alignment, radius: int):
        self.radius = radius

    def within(self, alignment, explore_radius: int) -> DiscoveredAtoms:
        alignment.ensure_radius(explore_radius + self.radius)
        first = {}                 # key -> the first arrow met with that key
        for z in alignment.c1.layers(explore_radius):
            arrow = self.arrow_at(alignment, z)
            first.setdefault(arrow.key, arrow)
        return DiscoveredAtoms(list(map(first.__getitem__, sorted(first))),
                               next(iter(first.values())))


def aligned_inputs(g1: Graph, g2: Graph, radius: int, explore_radius=None, joint=None,
                   alignment=None) -> tuple:
    """The joint blocks, the alignment and the exploration radius of an
    aligned build, each computed unless given: the radius defaults to
    ``radius + diam g1 + diam g2``.  Two graphs with no common universal
    cover (refused by ``TreeAlignment``), or a negative radius, raise
    GraphError."""
    alignment = alignment or align(g1, g2, joint or joint_refinement(g1, g2))
    if explore_radius is None:
        explore_radius = radius + g1.diameter() + g2.diameter()
    if explore_radius < 0:
        raise GraphError("exploration radius must be non-negative")
    return alignment.joint, alignment, explore_radius


def build_aligned(kind, radius: int, g1: Graph, g2: Graph, explore_radius=None,
                  joint=None, alignment=None) -> LocalSystem:
    """A local system of a ``kind`` and ``radius``, by stages: the inputs
    (``aligned_inputs``), the kind's walk, saturation, the system, and its
    axioms (``LocalSystem.require_axioms``), which raise ``AxiomError``."""
    joint, alignment, explore_radius = aligned_inputs(g1, g2, radius, explore_radius, joint,
                                                      alignment)
    walk = kind(alignment, radius)
    found = walk.within(alignment, explore_radius)
    groupoid = saturate(found.vertex_arrows, range(len(joint.union.vertices)), walk.identity)
    return walk.system(g1, g2, alignment, groupoid, explore_radius, found).require_axioms()


@dataclass
class AxiomReport:
    coverage_ok: bool
    bar_ok: bool
    action_ok: bool
    detail: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.coverage_ok and self.bar_ok and self.action_ok


class LocalSystem:
    """Base class for the star, ball and object-graph local systems:
    ``PermArrow`` arrows over the domains of a ``Numbering``, and atoms
    (anchor dart, target object, positions).

    Vertices and darts are indices of the numbering's ``union``, which
    holds the first graph's ``n1`` vertices and ``m1`` darts first;
    ``stars[x]`` are the darts at vertex x.  The identity atom at e is
    (e, origin e, dom[e]); an arrow h acts by (e, y, r) -> (e, dst h, h.perm
    restricted to r); the image dart is read from ``dart_at``; and bar moves
    the positions across the reversed dart.  Subclasses render
    ``atom_serial`` and give its shapes (``atom_shapes``).  The atom sets,
    orbit sizes, axiom checks and cover assembly are shared.
    """

    kind = "abstract"
    explore_radius = None

    def __init__(self, g1: Graph, g2: Graph, groupoid: FiniteGroupoid, numbering: Numbering):
        self.g1 = g1
        self.g2 = g2
        self.union = union = numbering.union
        self.groupoid = groupoid
        self.numbering = numbering
        self.axioms: Optional[AxiomReport] = None
        self.n1, self.m1 = len(g1.vertices), len(g1.darts)
        self.stars = numbering.stars
        self._org, self._rev = org, rev = union.org, union.rev
        self._identity = list(zip(range(len(org)), org, numbering.dom))
        self._dart_at, self._head_slot = numbering.dart_at, numbering.head_slot
        self._head_vertex = list(map(org.__getitem__, rev))

    # -- atoms ----------------------------------------------------------------

    def identity_atom(self, dart):
        return self._identity[dart]

    def act_row(self, arrows, atom) -> list:
        """The atoms (or bundles) h.atom for every h in arrows, in order."""
        e, _, r = atom
        get = gather(r)
        return [(e, h.dst, get(h.table)) for h in arrows]

    def act(self, arrow, atom):
        return self.act_row((arrow,), atom)[0]

    def act_identity(self, arrow, dart):
        return self.act(arrow, self.identity_atom(dart))

    def law_row(self, r, tables, bundle) -> Iterable:
        """Per h in the arrows out of dst r, given by their ``tables``: the
        key of h after r, then h's target and h.bundle (positions in the
        codomain of r), as one key; one gather per h through
        ``r.compose_row``, which the action check tests against the keys of
        the arrows out of src r and their bundles."""
        return r.compose_row(tables, bundle)

    def bar(self, atom):
        """The atom across the reversed anchor; the atom must have an image
        dart (``atom_image``)."""
        return self.bar_row((atom,), (self.atom_image(atom),))[0]

    def bar_row(self, atoms, images) -> list:
        """The bars of atoms whose image darts are ``images``: per atom
        (e, y, r), the positions r moved by the deck transformation across
        the image dart, in the order of the neighbourhood of the reverse of
        e, at the head of the image dart."""
        rev, bar_slots, heads = self._rev, self.numbering.bar_slots, self._head_vertex
        moves = self.numbering.move
        # -1 (255 in a translate table) marks a position outside the
        # neighbourhood, so the result is no atom's bar
        return [(rev[e], heads[f], bar_slots[e].translate(r.translate(moves[f]).ljust(256, b"\xff")))
                if r.__class__ is moves[f].__class__ is bytes else
                (rev[e], heads[f], self._moved_wide(r, moves[f], bar_slots[e], heads[f]))
                for (e, _, r), f in zip(atoms, images)]

    def _moved_wide(self, r, move, slots, head):
        """``bar_row`` for positions or a move that are not bytes."""
        moved = [move[r[j]] for j in slots]
        return tuple(moved) if -1 in moved else points(moved, len(self.numbering.domains[head]))

    def atom_anchor(self, atom) -> int:
        return atom[0]

    def atom_image(self, atom) -> Optional[int]:
        """The dart whose head the atom's head position is, or None."""
        return self._dart_at[atom[1]][atom[2][self._head_slot[atom[0]]]]

    def atom_serial(self, atom) -> tuple:
        raise NotImplementedError

    def atom_shapes(self, atoms, quote) -> tuple:
        raise NotImplementedError       # object covers write no provenance

    def arrow_shapes(self, arrows, quote) -> tuple:
        """``Labels.shapes`` of arrows whose serial is ``PermArrow.serial``."""
        names = list(map(quote, self.union.vertices))
        return self.serial_shapes([(quote(a.tag), names[a.src], names[a.dst]) for a in arrows],
                                  [(a.src, range(len(a.perm)), a.dst, a.perm) for a in arrows],
                                  quote)

    def serial_shapes(self, heads, pairs, quote) -> tuple:
        """Shape keys and JSON texts of serials made of ``heads`` (JSON
        texts), then (element, image) pairs given as (x, positions, y,
        positions) in the domains of ``numbering.shown``, whose elements are
        strs or tuples of strs.  The key is the elements' sizes (-1 for a
        str).  Elements are quoted once per object, and each serial's key
        and texts are C-level maps."""
        shown = self.numbering.shown
        texts = [[(quote(p),) if p.__class__ is str else tuple(map(quote, p)) for p in dom]
                 for dom in shown]
        sizes = [[-1 if p.__class__ is str else len(p) for p in dom] for dom in shown]
        return ([(tuple(map(sizes[x].__getitem__, p)), tuple(map(sizes[y].__getitem__, q)))
                 for x, p, y, q in pairs],
                [(*head, *chain.from_iterable(chain.from_iterable(
                    zip(map(texts[x].__getitem__, p), map(texts[y].__getitem__, q)))))
                 for head, (x, p, y, q) in zip(heads, pairs)])

    # -- the orbit engine ---------------------------------------------------

    @cached_property
    def identity_rows(self) -> list:
        """Per dart e, the atoms g.id_e for g in out(origin e), in
        ``by_source`` order: one ``act_row`` per dart, which
        ``atoms_by_anchor``, the action check and ``build_cover`` read."""
        by_source = self.groupoid.by_source
        return [self.act_row(by_source.get(x, ()), ident)
                for x, ident in zip(self._org, self._identity)]

    @cached_property
    def atoms_by_anchor(self) -> list:
        """Per dart, the atoms anchored at the dart, as the keys of a dict in
        the order first reached, each mapped to its image dart, or None
        where its head position is no dart's head.

        These are the orbit of the identity atom id_e, reached in one step:
        {g.id_e : g in out(origin e)}.  The step is exact because the
        groupoid is closed: g.(k.id_e) = (gk).id_e and gk is again an arrow
        out of origin(e).  By the orbit-stabilizer law the set has
        out(origin e) / |{g : g.id_e = id_e}| elements.

        The same pass numbers each dart's row, the one place its atoms are
        hashed: ``_fibres[e][i]`` is the first index in the row of the atom
        at index i, which the action check reads.
        """
        dart_at, slot = self._dart_at, self._head_slot
        atoms, self._fibres = [], []
        for row in self.identity_rows:
            first = {}
            self._fibres.append(list(map(first.setdefault, row, count())))
            # ``atom_image`` of each atom
            atoms.append(dict(zip(first, [dart_at[y][r[slot[e]]] for e, y, r in first])))
        return atoms

    def orbit_size(self, dart) -> int:
        return len(self.atoms_by_anchor[dart])

    def orbit_darts(self, dart) -> tuple:
        """Image darts of the atoms anchored at the dart, sorted."""
        return tuple(sorted(set(self.atoms_by_anchor[dart].values())))

    # -- shared helpers -------------------------------------------------------

    def out_count(self, obj) -> int:
        return self.groupoid.out_count(obj)

    @cached_property
    def _cross(self) -> tuple:
        n1 = self.n1
        return tuple(a for a in self.groupoid.arrows if a.src < n1 <= a.dst)

    def cross_arrows(self) -> tuple:
        """The arrows from side 1 to side 2, in key order."""
        return self._cross

    def check_axioms(self) -> AxiomReport:
        """Check coverage (AX1), bar closure (AX2) and the action laws (AX3).

        Coverage and bar closure run over every atom: each atom's bar is an
        atom anchored at the reversed anchor, with the reversed image, and
        its bar again is the atom itself: one bar per atom, and each dart's
        row of bars compared whole with the reversed dart's.  An atom whose
        head position is no dart's head fails all three checks, each naming
        its anchor dart.

        The action laws are checked on identity atoms, and the check is
        complete.  Fix a dart e at x, write F(g) = g.id_e for g in out(x)
        and Stab for the arrows with F(g) = id_e.  The checks are:
        (a) F(1) = id_e, eps F(g) = dst g and F(g) is anchored at e;
        (b) for f in out(x) and t in Stab, ft is an arrow and F(ft) = F(f);
        (c) every fibre of F has |Stab| arrows (the orbit-stabilizer law);
        (d) for one arrow r with F(r) = a per atom a, and every h out of
            dst r, hr is an arrow and F(hr) = h.a.
        By (b) the coset r.Stab lies in the fibre of a, and by (c) and left
        cancellation it is the whole fibre.  So any g with F(g) = a is rt
        with t in Stab, and by (b) and (d)
            (hg).id_e = F((hr)t) = F(hr) = h.a = h.(g.id_e).
        For any atom a = k.id_e it follows, by associativity of map
        composition, that
            h.(g.a) = h.((gk).id_e) = (h(gk)).id_e = ((hg)k).id_e = (hg).a,
        and likewise 1.a = a, eps(g.a) = dst g, and g.a = (gk).id_e keeps
        the anchor e and lies in the one-step atom set of e.

        Cost: the darts are walked by origin, and while the origin x stays
        fixed each arrow r out of x has at most one row, h.r for every h
        out of dst r; no composite arrow is built.  That is at most the sum
        over r in out(x) of |out(dst r)| composed pairs per x, so no more
        than the groupoid's composable pairs in total.  One row decides (b)
        and (d) for r at every dart of x at once, with one gather per pair
        and one set test per row (``_check_action``).  Each dart e takes one
        ``act`` for the identity and its row of ``identity_rows``.
        """
        cover_fail, bar_fail, action_fail = (
            self._check_coverage(), self._check_bar(), self._check_action())
        report = AxiomReport(
            cover_fail is None, bar_fail is None, action_fail is None,
            detail=cover_fail or bar_fail or action_fail)
        self.axioms = report
        return report

    def require_axioms(self, prefix: str = "") -> "LocalSystem":
        """The system, when the closure axioms hold (checked once); else the
        one ``AxiomError`` of a failed system, "closure axioms unmet", with
        the exploration radius where the system has one and the failing
        item as its witness."""
        report = self.axioms or self.check_axioms()
        if report.ok:
            return self
        radius = self.explore_radius
        where = "" if radius is None else "at radius %d " % radius
        raise AxiomError("%sclosure axioms unmet %s(failing item %r)"
                         % (prefix, where, report.detail), radius=radius, witness=report.detail)

    def _check_coverage(self) -> Optional[str]:
        """AX1: the last vertex that no cross arrow reaches, else the first
        dart with no atom whose image is on the other side or with an atom
        that has no image; None when coverage holds."""
        union, m1, atoms = self.union, self.m1, self.atoms_by_anchor
        cross = self.cross_arrows()
        # cross arrows start on side 1 and end on side 2
        bare = set(range(len(union.vertices))).difference(
            [a.src for a in cross], [a.dst for a in cross])
        if bare:
            return union.vertices[max(bare)]

        def crosses(e):
            images = atoms[e].values()
            if None in images:
                return False
            # atoms follow their arrows' keys, so those into side 2 come last
            if e < m1:
                return any(map(m1.__le__, reversed(images)))
            return any(map(m1.__gt__, images))

        e = next(filterfalse(crosses, range(len(atoms))), None)
        return None if e is None else union.darts[e]

    def _check_bar(self) -> Optional[str]:
        """AX2, dart pair by dart pair; the first failure found."""
        atoms, rev, image = self.atoms_by_anchor, self._rev, self.atom_image
        pending = {}                 # {atom: its bar} at both darts of a pair checked one way
        for e in range(len(rev)):
            f = rev[e]
            if e in pending:
                row, back = pending.pop(e), pending.pop(f)
            else:
                headless = [d for d in (e, f) if None in atoms[d].values()]
                if headless:
                    return _NO_IMAGE % (self.union.darts[headless[0]],)
                row, back = pending[e], pending[f] = [
                    dict(zip(atoms[d], self.bar_row(atoms[d], atoms[d].values())))
                    for d in (e, f)]
            bars = list(row.values())
            if (list(map(back.get, bars)) != list(row)
                    or list(map(_anchor, bars)).count(f) != len(bars)
                    or list(map(atoms[f].get, bars))
                    != list(map(rev.__getitem__, atoms[e].values()))):
                return next(self.atom_serial(atom) for atom, b in row.items()
                            if (b[0], image(b)) != (f, rev[image(atom)])
                            or back.get(b) != atom)
        return None

    def _check_action(self) -> Optional[str]:
        """Checks (a) to (d) of ``check_axioms``; the first failure found.

        At an origin x the identity atoms of all its darts form one bundle
        B, and ``bundles[i]`` is out[i].B.  Each arrow g out of x has one
        key, ``keyed(g.dst, g.perm)`` followed by ``keyed`` of the target
        and positions of its bundle; ``known`` holds them.  ``held(i)``
        takes the ``law_row`` of out[i]: per h out of dst out[i], the key of
        h.out[i] followed by h's target and h.bundles[i].  The fields have
        fixed lengths, so such a key is in ``known`` exactly when h.out[i] is
        an arrow whose bundle has h's target and h's positions, and one set
        test decides F(h.out[i]) = h.F(out[i]) at every dart of x.  For t in
        Stab, F(t) = id_e, so this is (b) at e; for a representative r it is
        (d).  A row t in Stab runs over out(x), since dst t = eps(id_e) = x
        by (a).  Only a row that fails is walked element by element at each
        dart, so the failure reported is the one the element-wise order
        meets first.
        """
        groupoid, identity_rows, atoms = self.groupoid, self.identity_rows, self.atoms_by_anchor
        fibres = self._fibres
        by_source, act_row, law_row = groupoid.by_source, self.act_row, self.law_row
        tables = {x: [h.table for h in out] for x, out in by_source.items()}
        for x, star in enumerate(self.stars):
            if not star:
                continue
            unit = groupoid.identities.get(x)
            if unit is None:
                return "identity action fails over %r" % (self.union.vertices[x],)
            out = by_source.get(x, ())
            targets = [g.dst for g in out]
            ids = [self.identity_atom(e) for e in star]
            parts = [r for _, _, r in ids]
            bundles = act_row(out, (star, x, type(parts[0])(chain.from_iterable(parts))))
            # ``keyed(g.dst, g.perm)``, read from each table in one gather
            size = len(unit.perm)
            keys = list(map(gather(marked(points(range(size), size), size)), tables[x]))
            known = set(map(add, keys, [keyed(y, r) for _, y, r in bundles]))
            holds = {}                  # i -> whether row i holds

            def held(i):
                if i not in holds:
                    r = out[i]
                    holds[i] = known.issuperset(law_row(r, tables[r.dst], bundles[i][2]))
                return holds[i]

            def composites(i):
                # the keys of h.out[i] for every h out of dst out[i]
                return out[i].compose_row(tables[out[i].dst])

            for e, ident in zip(star, ids):
                if self.act(unit, ident) != ident:
                    return "identity action fails over %r" % (self.union.vertices[x],)
                moved = identity_rows[e]
                if (list(map(_target, moved)) != targets
                        or list(map(_anchor, moved)).count(e) != len(out)
                        or None in atoms[e].values()):
                    for g, atom in zip(out, moved):
                        if self.atom_image(atom) is None:
                            return _NO_IMAGE % (self.union.darts[e],)
                        if atom[1] != g.dst:
                            return "action target mismatch at %r" % (g.serial,)
                        if atom[0] != e:
                            return "action moved an atom anchor at %r" % (g.serial,)
                # per arrow, the first arrow that reaches its atom; Stab is
                # the fibre of id_e
                fibre = fibres[e]
                unit_at = next(compress(fibre, map(ident.__eq__, moved)), -1)
                stab = list(compress(range(len(out)), map(unit_at.__eq__, fibre)))
                if not all(list(map(held, stab))):
                    image = dict(zip(keys, moved)).get
                    bad = [_first_difference(ft, moved) for ft in
                           (list(map(image, composites(t))) for t in stab if not holds[t])
                           if ft != moved]
                    if bad:
                        return "stabilizer moves the image of %r" % (out[min(bad)].serial,)
                sizes = Counter(fibre)
                if set(sizes.values()) != {len(stab)}:
                    return "orbit-stabilizer count fails at %r" % (self.union.darts[e],)
                if all(map(held, sizes)):
                    continue
                for r in sizes:
                    if held(r):
                        continue
                    image = dict(zip(keys, moved)).get
                    hs = by_source.get(out[r].dst, ())
                    expected = act_row(hs, moved[r])
                    got = list(map(image, composites(r)))
                    if got != expected:
                        return "action compatibility fails at %r" % (
                            hs[_first_difference(got, expected)].serial,)
        return None


_NO_IMAGE = "no dart has the head of an atom anchored at %r"
_anchor, _target = itemgetter(0), itemgetter(1)


def _first_difference(got: list, want: list) -> int:
    """The first index where two unequal rows differ: where their elements
    differ, or else the length of the shorter row."""
    return next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                min(len(got), len(want)))


class Numbering:
    """Index tables of a permutation local system, built once per dart.

    Objects and darts are the vertex and dart indices of ``union``, and
    ``stars[x]`` are the darts at x.  ``domains[x]`` is the sorted domain
    an arrow out of object x permutes, numbered by ``positions[x]``.  The
    system supplies, per dart e, the sorted elements of its
    ``neighbourhood``, the element at its ``head``, and the transports
    ``across(e, nb)`` of that neighbourhood, in order, into the domain of
    head(e) by the deck transformation that takes e onto its reverse.  The
    tables, lists indexed by dart or object, are:

    * ``dom[e]``: the positions of the neighbourhood in the domain;
    * ``head_slot[e]``: the index in ``dom[e]`` of the head element;
    * ``dart_at[x][i]``: the dart whose head element is at position i, and
      None elsewhere, up to position 255 in a bytes domain;
    * ``move[f]``: each position of the neighbourhood of f to the position
      of its transport, and -1 elsewhere; when both ends of f have bytes
      domains, a 256-byte translate table with 255 for -1;
    * ``bar_slots[e]``: for each index of ``dom[reverse e]``, the index of
      ``dom[e]`` that transports to it;
    * ``shown[x]``: the domain as the serials write it; the domain itself
      unless the system renders it (``ball_numbering``, ``star_numbering``).
    """

    def __init__(self, union: Graph, domains: list, neighbourhood, head, across):
        self.union, self.stars, self.domains = union, union.stars(), domains
        self.shown = domains
        self.positions = at = [{p: i for i, p in enumerate(dom)} for dom in domains]
        narrow = [encoding(len(dom)) is bytes for dom in domains]
        self.dart_at = [[None] * (256 if n else len(dom)) for n, dom in zip(narrow, domains)]
        self.dom, self.head_slot, self.move, nbhd, images = [], [], [], [], []
        org, rev = union.org, union.rev
        for e, x in enumerate(org):
            px, y = at[x], org[rev[e]]
            nb = tuple(neighbourhood(e))
            h = head(e)
            self.dom.append(points([px[p] for p in nb], len(px)))
            self.head_slot.append(nb.index(h))
            self.dart_at[x][px[h]] = e
            moved = tuple(across(e, nb))
            py = at[y]
            move = [-1] * len(domains[x])
            for p, q in zip(nb, moved):
                move[px[p]] = py[q]
            self.move.append(bytes([m % 256 for m in move]).ljust(256, b"\xff")
                             if narrow[x] and narrow[y] else move)
            nbhd.append(nb)
            images.append(moved)
        self.bar_slots = [
            points(list(map({q: j for j, q in enumerate(images[e])}.__getitem__, nbhd[f])),
                   len(domains[org[e]]))
            for e, f in enumerate(rev)]


# -- the cover ----------------------------------------------------------------


class Labels(Mapping):
    """Provenance rows: row k is copy ``copies[k]`` of ``sources[of[k]]``,
    an arrow or an atom, with the id ``ids[k]``; as a mapping, id ->
    (serial, copy), the serial rendered by ``value`` when read.
    ``cli._write`` writes them by shape: ``shapes(sources, quote)`` gives
    per source a shape key and the JSON texts of its value's scalars, in
    written order, and values of one key differ in those alone.  Rows
    without ids (certificate entries) are a list of their values alone."""

    __slots__ = ("ids", "of", "copies", "sources", "value", "shapes", "_at")

    def __init__(self, ids, of, copies, sources, value, shapes):
        self.ids, self.of, self.copies = ids, of, copies
        self.sources, self.value, self.shapes = sources, value, shapes
        self._at = None

    def __getitem__(self, key):
        if self._at is None:
            self._at = dict(zip(self.ids, range(len(self.ids))))
        k = self._at[key]
        return self.value(self.sources[self.of[k]]), self.copies[k]

    def __iter__(self):
        return iter(self.ids)

    def __len__(self):
        return len(self.ids)

    def take(self, rows) -> "Labels":
        """The labels of ``rows``, in that order."""
        return Labels(*[list(map(column.__getitem__, rows))
                        for column in (self.ids, self.of, self.copies)],
                      self.sources, self.value, self.shapes)


def build_cover(sys: LocalSystem, component: str = "least",
                based_at=None) -> Cover:
    """Assemble, verify and return a finite common cover of sys.g1 and sys.g2.

    ``component`` is "least" (default) or "all"; ``based_at`` selects the
    component containing copy 1 of the given seed arrow instead.  Cover
    vertices are numbered in arrow-key order, cover darts in atom-serial
    order, and the provenance labels are ``Labels`` over the cross arrows
    and the cross atoms.
    """
    sys.require_axioms()
    union, g1, g2, n1, m1 = sys.union, sys.g1, sys.g2, sys.n1, sys.m1
    out = list(map(sys.out_count, range(len(union.vertices))))
    n_mult = lcm_all(out)

    # cover vertex first[a.key] + j - 1 is copy j of cross arrow a
    first, vertex_of, vertex_copy, vm1, vm2, runs = {}, [], [], [], [], {}
    cross = sys.cross_arrows()
    for i, a in enumerate(cross):
        reps = n_mult // out[a.src]
        first[a.key] = len(vm1)
        vertex_of += [i] * reps
        vertex_copy += range(1, reps + 1)
        vm1 += [a.src] * reps
        vm2 += [a.dst - n1] * reps
        runs.setdefault(a.src, []).append(a)

    # group cover vertices by the atom their action produces at each star
    # dart: the cross arrows out of x end on side 2, so they are the tail of
    # by_source[x], and their atoms the tail of the dart's identity row
    groups, rows = {}, sys.identity_rows
    for x, run in runs.items():
        reps = n_mult // out[x]
        for e in sys.stars[x]:
            for a, atom in zip(run, rows[e][-len(run):]):
                groups.setdefault(atom, []).extend(range(first[a.key], first[a.key] + reps))

    # the groupoid is closed, so any atom anchored on side 1 with image on
    # side 2 arises from some cross arrow; by the orbit-stabilizer law (check
    # (c) of the axioms) an atom at e has n_mult / orbit_size(e) vertices,
    # and by bar closure (AX2) its bar as many; cover dart dart_first[atom]
    # + k - 1 is copy k of the atom
    serial_of = {atom: sys.atom_serial(atom) for atom in groups}
    order = sorted(groups, key=serial_of.__getitem__)
    dart_first, dart_of, dart_copy, org, dm1, dm2 = {}, [], [], [], [], []
    images = list(map(sys.atom_image, order))
    for k, (atom, image) in enumerate(zip(order, images)):
        members = groups[atom]
        n = len(members)
        dart_first[atom] = len(org)
        dart_of += [k] * n
        dart_copy += range(1, n + 1)
        org += members
        dm1 += [sys.atom_anchor(atom)] * n
        dm2 += [image - m1] * n
    rev = [0] * len(org)
    for atom, bar in zip(order, sys.bar_row(order, images)):
        a, b, n = dart_first[atom], dart_first[bar], len(groups[atom])
        rev[a:a + n] = range(b, b + n)

    vertex_ids, dart_ids = (numbered_ids(("v%06d",), range(len(vm1))),
                            numbered_ids(("d%06d",), range(len(org))))
    # the cover takes the first graph's colours when it has any
    g, vm, dm = (g1, vm1, dm1) if g1.vcol or g1.dcol else (g2, vm2, dm2)
    graph = Graph.from_tables(vertex_ids, dart_ids, org, rev,
                              colours_at(g.vcol, vm), colours_at(g.dcol, dm))
    based_vertex = None
    if based_at is not None:
        if based_at.key not in first:
            raise GraphError("seed arrow is not a cross arrow of the system")
        based_vertex = vertex_ids[first[based_at.key]]
    return finish_cover(GraphMorphism.from_tables(graph, g1, vm1, dm1),
                        GraphMorphism.from_tables(graph, g2, vm2, dm2), component,
                        based_vertex, n_mult,
                        Labels(vertex_ids, vertex_of, vertex_copy, cross, attrgetter("serial"),
                               sys.arrow_shapes),
                        Labels(dart_ids, dart_of, dart_copy, order, serial_of.__getitem__,
                               sys.atom_shapes))


# -- certificates for the ball backend ---------------------------------------


@dataclass
class CertificateEntry:
    tree_vertex: tuple
    arrow: object                   # a ``BallArrow``
    matches_label: bool
    witness_ok: bool

    def written(self) -> dict:
        return {"tree_vertex": list(self.tree_vertex), "arrow": self.arrow.serial,
                "matches_label": self.matches_label, "witness_ok": self.witness_ok}


@dataclass
class RestrictionCertificate:
    """Per-ball witnesses that the induced tree automorphism is locally
    a restriction of a product of deck transformations; ``table`` holds
    the entries for the writer."""

    radius: int
    test_radius: int
    entries: list
    fixes_base_ball: Optional[bool] = None
    table: Optional[Labels] = None

    @property
    def mismatches(self) -> int:
        return sum(1 for e in self.entries
                   if not (e.matches_label and e.witness_ok))

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def extract_certificate(built: Cover, sys, test_radius: int,
                        check_fixed_ball: bool = False) -> RestrictionCertificate:
    """Certify the ball restrictions of the tree automorphism induced by a
    connected built cover.

    Lifts the first covering through the cover by path lifting, reads off
    the comparison map between the two universal covers, normalises its
    restriction to every R-ball within the test radius to canonical lifts,
    and matches the result against the arrow labelling the lifted vertex.
    Every matched arrow's witness word is re-evaluated from scratch.
    """
    if sys.kind != "ball":
        raise GraphError("certificates require a ball-system cover")
    if test_radius < 0:
        raise GraphError("certificate radius must be non-negative")
    if not built.graph.is_connected():
        raise GraphError("certificate extraction needs a connected cover")
    c1, c2, alignment, radius = sys.cover1, sys.cover2, sys.alignment, sys.radius
    graph, vm1, dm1, dm2 = built.graph, built.mu1.vm, built.mu1.dm, built.mu2.dm
    if built.based_vertex is not None:
        g0 = graph.vertices.index(built.based_vertex)
        if vm1[g0] != c1.basepoint:
            raise GraphError("seed vertex does not sit over the basepoint")
        z0_image = alignment.apply(())
    else:
        g0 = vm1.index(c1.basepoint)
        z0_image = c2.canonical_lift(built.mu2.vm[g0])

    # dart lookup: (cover vertex, base dart) -> cover dart
    lift_dart = {k: d for d, k in enumerate(zip(graph.org, dm1))}
    nu1 = {(): g0}
    psi = {(): z0_image}
    layers = c1.layers(test_radius + radius)
    # a tree vertex is its path: w extends its parent w[:-1] by the dart w[-1]
    for w in layers[1:]:
        z = w[:-1]
        cover_dart = lift_dart[(nu1[z], w[-1])]
        nu1[w] = graph.org[graph.rev[cover_dart]]
        psi[w] = c2.step(psi[z], dm2[cover_dart])

    from .ball_system import verify_witness

    numbering = sys.numbering
    domains, positions, shown = numbering.domains, numbering.positions, numbering.shown
    sources, of = built.vertex_label.sources, built.vertex_label.of   # row k: vertex k
    entries = []
    for z in layers:
        if len(z) > test_radius:
            break
        x = c1.project(z)
        y = c2.project(psi[z])
        w1 = c1.deck_loop(c1.canonical_lift(x), z)
        w2 = c2.deck_loop(psi[z], c2.canonical_lift(y))
        images = [c2.transport(w2, psi[c1.transport(w1, p)]) for p in domains[x]]
        dst = sys.n1 + y
        perm = list(map(positions[dst].get, images, repeat(-1)))
        arrow = None if -1 in perm else sys.groupoid.by_key((x, dst, points(perm, len(perm))))
        if arrow is None:
            raise VerificationError(
                "ball restriction escaped the discovered groupoid at %r (%r)"
                % (c1.ids(z), ("ball", sys.union.vertices[x], sys.union.vertices[dst],
                               tuple(zip(shown[x], map(c2.ids, images))))))
        matches = sources[of[nu1[z]]].key == arrow.key
        entries.append(CertificateEntry(c1.ids(z), arrow, matches, verify_witness(arrow, sys)))

    def shapes(rows, quote):
        # the sorted keys: "arrow", "matches_label", "tree_vertex", "witness_ok"
        keys, texts = sys.arrow_shapes([e.arrow for e in rows], quote)
        return ([(k, len(e.tree_vertex)) for k, e in zip(keys, rows)],
                [(*t, ("false", "true")[e.matches_label], *map(quote, e.tree_vertex),
                  ("false", "true")[e.witness_ok]) for t, e in zip(texts, rows)])

    fixed = None
    if check_fixed_ball:
        fixed = all(psi[p] == alignment.apply(p)
                    for p in c1.ball((), radius).vertices)
    return RestrictionCertificate(radius, test_radius, entries, fixed, Labels(
        None, range(len(entries)), None, entries, CertificateEntry.written, shapes))
