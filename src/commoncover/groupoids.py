"""Finite groupoids and their saturation from generating arrows.

Arrows are hashable objects exposing ``src``, ``dst``, ``serial`` (a
sortable canonical key), ``compose(other)`` (self after other, or None when
incompatible) and ``inverse()``.  Saturation closes a generating set under
composition and inversion inside a finite ambient universe, recording for
every produced arrow a witness word over the generators.  Actions on edge
atoms, their orbits and the orbit-stabilizer counts live in
``cover_builder.LocalSystem``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional


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
        for a in self.arrows:
            self.by_source.setdefault(a.src, []).append(a)
            self.by_pair.setdefault((a.src, a.dst), []).append(a)
            self.by_serial[a.serial] = a

    def out_count(self, obj) -> int:
        return len(self.by_source.get(obj, ()))

    def hom(self, x, y) -> list:
        return self.by_pair.get((x, y), [])

    def verify(self, cap: Optional[int] = 200000) -> list:
        """Check the groupoid axioms; with a cap, associativity is sampled.

        Returns a list of violation strings (empty when the axioms hold).
        """
        bad = []
        serials = set(self.by_serial)
        for x in self.objects:
            if x not in self.identities:
                bad.append("missing identity at %r" % (x,))
        for a in self.arrows:
            inv = a.inverse()
            if inv.serial not in serials:
                bad.append("inverse missing for %r" % (a.serial,))
                continue
            left = inv.compose(a)
            if left is None or left.serial != self.identities[a.src].serial:
                bad.append("inverse law fails for %r" % (a.serial,))
            ii = self.identities[a.dst].compose(a)
            if ii is None or ii.serial != a.serial:
                bad.append("identity law fails for %r" % (a.serial,))
        # closure and associativity on composable pairs/triples
        checked = 0
        for b in self.arrows:
            for a in self.by_source.get(b.dst, ()):
                ab = a.compose(b)
                if ab is None or ab.serial not in serials:
                    bad.append("not closed under composition at (%r, %r)"
                               % (a.serial, b.serial))
                    continue
                for c in self.by_source.get(a.dst, ()):
                    checked += 1
                    if cap is not None and checked > cap:
                        return bad
                    left = c.compose(ab)
                    bc = c.compose(a)
                    right = bc.compose(b) if bc is not None else None
                    if left is None or right is None or left.serial != right.serial:
                        bad.append("associativity fails on a triple at %r" % (c.serial,))
                        return bad
        return bad


def saturate(atoms: Iterable, objects: Iterable,
             identity_factory: Callable) -> FiniteGroupoid:
    """Smallest groupoid containing the atoms, with generation witnesses.

    Witness letters are ("g", i) for the i-th atom and ("g~", i) for its
    inverse; words compose left-to-right in application order.
    """
    atoms = list(atoms)
    arrows = {}
    witness = {}
    queue = deque()
    objs = sorted(set(objects))

    def add(arrow, word):
        if arrow.serial not in arrows:
            arrows[arrow.serial] = arrow
            witness[arrow.serial] = word
            queue.append(arrow)

    identities = {}
    for x in objs:
        e = identity_factory(x)
        identities[x] = e
        add(e, ())
    for i, a in enumerate(atoms):
        add(a, (("g", i),))
        add(a.inverse(), (("g~", i),))
    while queue:
        b = queue.popleft()
        # compose with every arrow already present, on both sides
        for a in list(arrows.values()):
            if a.src == b.dst:
                ab = a.compose(b)
                if ab is not None:
                    add(ab, witness[b.serial] + witness[a.serial])
            if b.src == a.dst:
                ba = b.compose(a)
                if ba is not None:
                    add(ba, witness[a.serial] + witness[b.serial])
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
