"""Finite groupoids and their saturation from generating arrows.

Arrows are ``PermArrow`` records exposing ``src``, ``dst`` (object
indices), ``key`` (their identity, sortable), ``serial`` (the canonical
tuple written to artifacts and failure messages, with the objects' ids,
sorting as ``key`` does), ``compose_row(tables)`` (the keys of h after
self for a whole row of arrows h out of its target, given by their tables),
``compose(other)`` (self after other, or None when incompatible) and
``inverse()``.
Saturation closes a generating set S under composition and inversion inside
a finite ambient universe by breadth-first search over the Cayley graph:
each arrow found is left-composed with the letters of S and S^-1 that start
at its target, and nothing else.  Every word over those letters is reached
this way, so the result is exactly the closure (Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, 2005, section 4.1).  Actions on
edge atoms, their orbits and the orbit-stabilizer counts live in
``cover_builder.LocalSystem``.

``PermArrow`` is the one arrow class: a permutation between two numbered
domains (the darts of a star, the vertices of a canonical ball, the points
of a decorated star), so that composition is indexing, and a whole row of
composites is one C call per arrow of the row (Holt, Eick and O'Brien,
chapters 3 and 4: points as ints, permutations as arrays).  Perms and
positions in a domain of at most ``BYTES_POINTS`` points are ``bytes``,
gathered by one ``bytes.translate``, and tuples in wider domains; bytes
sort as the tuples of the same ints, so the artifacts do not depend on
the encoding.  An arrow's table holds its target beside its perm, so one
gather through it yields a composite's target and perm together: the key
of the composite among the arrows of its source, in one object.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable

from .graphs import BudgetExceeded


# Domains of at most this many points are bytes.  In a bytes table the
# positions 253 and 254 hold the arrow's target, big-endian, and the byte
# 255 marks a position outside a neighbourhood in ``bar``'s tables.
BYTES_POINTS = 253
TARGET = bytes((253, 254))
# object indices that the two target bytes can hold
BYTES_OBJECTS = 1 << 16


def encoding(size: int) -> type:
    """bytes for a domain of at most ``BYTES_POINTS`` points, else tuple."""
    return bytes if size <= BYTES_POINTS else tuple


def points(values, size: int):
    """Positions in a domain of ``size`` points, in the domain's encoding."""
    return encoding(size)(values)


@lru_cache(maxsize=1024)
def table(perm, dst: int):
    """The table ``gather`` reads for an arrow with this perm and target:
    bytes ``perm`` padded to 256 bytes with ``dst`` at ``TARGET``, or tuple
    ``perm`` followed by ``dst``, whose slot is ``len(perm)``.  The arrows
    of a system share tables through its dict (``PermArrow``); this cache
    keeps the latest tables for the next system, so that repeated builds
    in one process do not reallocate them."""
    if perm.__class__ is not bytes:
        return perm + (dst,)
    if dst >= BYTES_OBJECTS:
        raise BudgetExceeded("object %d of a local system: bytes tables hold %d objects"
                             % (dst, BYTES_OBJECTS))
    return perm.ljust(TARGET[0], b"\0") + dst.to_bytes(2, "big") + b"\0"


def marked(positions, size: int):
    """The target slot of a table, then ``positions`` in a domain of
    ``size`` points: gathered from an arrow's table, they give the arrow's
    target followed by its images of the positions, as ``keyed`` spells
    them."""
    if positions.__class__ is bytes:
        return TARGET + positions
    return (size,) + tuple(positions)


def keyed(dst: int, positions):
    """An object index followed by positions, in the positions' encoding:
    ``keyed(a.dst, a.perm)`` is the key of arrow a among the arrows of its
    source, and ``compose_row`` gives the keys of composites so."""
    if positions.__class__ is bytes:
        return dst.to_bytes(2, "big") + positions
    return (dst,) + tuple(positions)


def gather(positions):
    """The function table -> the table's entries at ``positions``, in their
    encoding: one C call on each arrow ``table``.  An itemgetter returns a
    tuple only for two or more positions; for one (-1 too) or none, a slice."""
    if positions.__class__ is bytes:
        return positions.translate
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1 or None) if positions else slice(0))


class PermArrow:
    """A bijection from the domain of ``src`` onto the domain of ``dst``.

    ``src`` and ``dst`` index the objects, whose ids are ``names``;
    ``domain`` and ``codomain`` are sorted tuples shared by every arrow at
    those objects; ``perm[i]`` is the codomain position of the image of
    ``domain[i]``, encoded by ``points``; ``table``, which ``gather`` reads,
    is ``perm`` with ``dst`` beside it (``table``), one object for the
    arrows of one target and perm built with one dict ``tables`` (one per
    system: ``saturate`` and the builders pass theirs).
    Identity is ``key = (src, dst, perm)``: for equal ends, comparing perms
    compares the images in sorted codomain order, and objects are indexed
    in id order, so keys sort as the rendered ``serial`` tuples do.  Among
    the arrows of one source, ``keyed(dst, perm)`` is a key that sorts the
    same way.  ``witness`` is a word carried along by composition and
    inversion; it takes no part in identity.  Subclasses name the ``tag``
    of their serial.  Arrows are slotted records, compared and hashed on
    ``key`` within one class.
    """

    __slots__ = ("src", "dst", "perm", "table", "domain", "codomain", "names",
                 "witness", "key", "_serial")

    def __init__(self, src: int, dst: int, perm, domain: tuple, codomain: tuple,
                 names: tuple, witness: tuple = (), tables: dict = None):
        self.src = src
        self.dst = dst
        self.perm = perm = points(perm, len(perm))
        if tables is None:
            self.table = table(perm, dst)
        else:
            key = keyed(dst, perm)
            self.table = tables.get(key) or tables.setdefault(key, table(perm, dst))
        self.domain = domain
        self.codomain = codomain
        self.names = names
        self.witness = witness
        self.key = (src, dst, perm)
        self._serial = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.key == other.key
        return NotImplemented

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "%s%r" % (type(self).__name__, self.key)

    @classmethod
    def identity(cls, x: int, domain: tuple, names: tuple) -> "PermArrow":
        return cls(x, x, range(len(domain)), domain, domain, names)

    @property
    def pairs(self) -> tuple:
        """(element, image) pairs in domain order."""
        return tuple(zip(self.domain, map(self.codomain.__getitem__, self.perm)))

    @property
    def serial(self) -> tuple:
        if self._serial is None:
            names = self.names
            self._serial = (self.tag, names[self.src], names[self.dst], self.pairs)
        return self._serial

    def compose_row(self, tables, tail=None):
        """For the table of each h in a row of arrows out of ``dst``, the
        key ``keyed`` gives h after self; with ``tail``, positions in the
        codomain, each key goes on with ``keyed(h.dst, h's images of the
        tail)``.  One gather per h, returned as an iterator."""
        # the perm of h after self is h.perm[self.perm[i]] for every i
        perm = self.perm
        if perm.__class__ is bytes:
            where = TARGET + perm if tail is None else b"".join((TARGET, perm, TARGET, tail))
            return map(where.translate, tables)
        where = marked(perm, len(perm))
        if tail is not None:
            where += marked(tail, len(perm))
        return map(gather(where), tables)

    def compose(self, other: "PermArrow", tables: dict = None):
        if other.dst != self.src:
            return None
        key, = other.compose_row((self.table,))
        return self.__class__(other.src, self.dst, key[2:] if key.__class__ is bytes else key[1:],
                              other.domain, self.codomain, self.names,
                              other.witness + self.witness, tables)

    def inverse(self, tables: dict = None) -> "PermArrow":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return self.__class__(self.dst, self.src, inv, self.codomain,
                              self.domain, self.names, self.invert_word(self.witness), tables)

    @staticmethod
    def invert_word(word: tuple) -> tuple:
        """The witness of the inverse; star arrows carry empty words."""
        return word


@dataclass
class FiniteGroupoid:
    objects: tuple
    arrows: tuple                    # sorted by key
    identities: dict                 # object -> identity arrow

    def __post_init__(self):
        self.by_source = {}
        self.number = {}             # key -> position in ``arrows``
        for i, a in enumerate(self.arrows):
            self.by_source.setdefault(a.src, []).append(a)
            self.number[a.key] = i

    def by_key(self, key):
        """The arrow with this key, or None."""
        i = self.number.get(key)
        return None if i is None else self.arrows[i]

    def out_count(self, obj) -> int:
        return len(self.by_source.get(obj, ()))


def saturate(atoms: Iterable, objects: Iterable,
             identity_factory: Callable) -> FiniteGroupoid:
    """Smallest groupoid containing the atoms.

    Breadth-first search over the Cayley graph from the identities: each
    dequeued arrow b is left-composed only with the generators and their
    inverses whose source is dst b.  The keys of those products are one
    ``compose_row``, looked up among the keys found at the source of b, and
    only an arrow whose key is new is built.  Arrows with one target and
    perm share one table.
    """
    objs = sorted(set(objects))
    identities = {x: identity_factory(x) for x in objs}
    tables = {}                      # keyed(dst, perm) -> the shared table
    gens = list(chain.from_iterable((a, a.inverse(tables)) for a in atoms))
    found = {x: {} for x in objs}    # source -> {keyed(dst, perm): arrow}
    queue = deque()

    def add(arrow, key=None):
        if key is None:
            key = keyed(arrow.dst, arrow.perm)
        arrow.table = tables.setdefault(key, arrow.table)
        at = found.setdefault(arrow.src, {})
        if key not in at:
            at[key] = arrow
            queue.append(arrow)

    for arrow in chain(map(identities.__getitem__, objs), gens):
        add(arrow)
    letters = {}                     # source object -> ([arrow], [table])
    for s in gens:
        row, row_tables = letters.setdefault(s.src, ([], []))
        row.append(s)
        row_tables.append(s.table)
    while queue:
        b = queue.popleft()
        row, row_tables = letters.get(b.dst, ((), ()))
        at = found[b.src]
        for s, key in zip(row, b.compose_row(row_tables)):
            if key not in at:
                add(s.compose(b, tables), key)
    ordered = tuple(chain.from_iterable(map(at.__getitem__, sorted(at))
                                        for _, at in sorted(found.items())))
    return FiniteGroupoid(tuple(objs), ordered, identities)


def lcm_all(sizes: Iterable[int]) -> int:
    """Exact least common multiple; 1 for an empty list."""
    out = 1
    for s in sizes:
        if s < 1:
            raise ValueError("sizes must be positive")
        out = math.lcm(out, s)
    return out
