"""Finite groupoids and their saturation from generating arrows.

Arrows are hashable objects exposing ``src``, ``dst``, ``serial`` (a
sortable canonical key), ``compose(other)`` (self after other, or None when
incompatible) and ``inverse()``.  Saturation closes a generating set S under
composition and inversion inside a finite ambient universe by breadth-first
search over the Cayley graph: each arrow found is left-composed with the
letters of S and S^-1 that start at its target, and nothing else.  Every
word over those letters is reached this way, so the result is exactly the
closure, and each arrow's witness word is a shortest one (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 2005, section 4.1).
Actions on edge atoms, their orbits and the orbit-stabilizer counts live in
``cover_builder.LocalSystem``.

``Value`` is the base of the arrow and atom classes: plain ``__slots__``
records whose equality and hashing cover a fixed field tuple, as a frozen
dataclass's would, without ``cached_property`` and its lock.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable


class Value:
    """Slotted record compared and hashed on the fields named in
    ``_compare``, in order; other slots (caches, stored witnesses) take
    no part in identity."""

    __slots__ = ()
    _compare = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compare])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._compare))


@dataclass
class FiniteGroupoid:
    objects: tuple
    arrows: tuple                    # sorted by serial
    identities: dict                 # object -> identity arrow
    witness: dict = field(default_factory=dict)   # serial -> word over generators

    def __post_init__(self):
        self.by_source = {}
        self.by_pair = {}
        self.by_serial = {}
        self.number = {}             # serial -> position in ``arrows``
        for i, a in enumerate(self.arrows):
            self.by_source.setdefault(a.src, []).append(a)
            self.by_pair.setdefault((a.src, a.dst), []).append(a)
            self.by_serial[a.serial] = a
            self.number[a.serial] = i

    def out_count(self, obj) -> int:
        return len(self.by_source.get(obj, ()))

    def hom(self, x, y) -> list:
        return self.by_pair.get((x, y), [])

    def verify(self) -> list:
        """Check the groupoid axioms, completely.

        Identities, inverses and the identity law are checked per arrow.
        Every composable pair is composed once, which checks closure and
        fills a table of composites; associativity c(ab) = (ca)b is then
        checked on every composable triple by table lookups.  Returns a
        list of violation strings (empty when the axioms hold).
        """
        bad = []
        number = self.number
        for x in self.objects:
            if x not in self.identities:
                bad.append("missing identity at %r" % (x,))
        for a in self.arrows:
            inv = a.inverse()
            if inv.serial not in number:
                bad.append("inverse missing for %r" % (a.serial,))
                continue
            left = inv.compose(a)
            if left is None or left.serial != self.identities[a.src].serial:
                bad.append("inverse law fails for %r" % (a.serial,))
            ii = self.identities[a.dst].compose(a)
            if ii is None or ii.serial != a.serial:
                bad.append("identity law fails for %r" % (a.serial,))
        table = {}                   # (i, j) -> index of arrow i after arrow j
        for j, b in enumerate(self.arrows):
            for a in self.by_source.get(b.dst, ()):
                ab = a.compose(b)
                k = number.get(ab.serial) if ab is not None else None
                if k is None:
                    bad.append("not closed under composition at (%r, %r)"
                               % (a.serial, b.serial))
                else:
                    table[number[a.serial], j] = k
        if bad:
            return bad
        out = [[number[a.serial] for a in self.by_source.get(b.dst, ())]
               for b in self.arrows]
        for j in range(len(self.arrows)):
            for i in out[j]:
                ij = table[i, j]
                for c in out[i]:
                    if table[c, ij] != table[table[c, i], j]:
                        bad.append("associativity fails on a triple at %r"
                                   % (self.arrows[c].serial,))
                        return bad
        return bad


def saturate(atoms: Iterable, objects: Iterable,
             identity_factory: Callable) -> FiniteGroupoid:
    """Smallest groupoid containing the atoms, with generation witnesses.

    Breadth-first search over the Cayley graph from the identities: each
    dequeued arrow b is left-composed only with the generators and their
    inverses whose source is dst b, and s.b gets the witness of b followed
    by the letter of s.  Witness letters are ("g", i) for the i-th atom and
    ("g~", i) for its inverse; words compose left-to-right in application
    order, and every witness is a shortest word for its arrow.
    """
    atoms = list(atoms)
    objs = sorted(set(objects))
    identities = {x: identity_factory(x) for x in objs}
    gens = []                        # (letter, arrow) for S and S^-1
    for i, a in enumerate(atoms):
        gens += [(("g", i), a), (("g~", i), a.inverse())]
    letters = {}                     # source object -> [(letter, arrow)]
    for letter, s in gens:
        letters.setdefault(s.src, []).append((letter, s))
    arrows = {}
    witness = {}
    queue = deque()

    def add(arrow, word):
        if arrow.serial not in arrows:
            arrows[arrow.serial] = arrow
            witness[arrow.serial] = word
            queue.append(arrow)

    for x in objs:
        add(identities[x], ())
    for letter, s in gens:
        add(s, (letter,))
    while queue:
        b = queue.popleft()
        word = witness[b.serial]
        for letter, s in letters.get(b.dst, ()):
            add(s.compose(b), word + (letter,))
    ordered = tuple(sorted(arrows.values(), key=lambda a: a.serial))
    return FiniteGroupoid(tuple(objs), ordered, identities, witness)


def lcm_all(sizes: Iterable[int]) -> int:
    """Exact least common multiple; 1 for an empty list."""
    out = 1
    for s in sizes:
        if s < 1:
            raise ValueError("sizes must be positive")
        out = math.lcm(out, s)
    return out
