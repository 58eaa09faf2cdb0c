"""The integer arrow kernel against the pair-tuple kernel it replaced.

Star and ball arrows are permutations of numbered stars and balls, and an
atom is an arrow restricted to the positions of a dart's neighbourhood.
Their serials, which every artifact records, must be the tuples that the
pair-tuple arrows and atoms of ``conftest.reference_kernel`` give.  On
``related_pair`` seeds, for star dr, star aligned and ball R=1 systems:

* the arrow serials, in groupoid order, are the sorted serials of the
  reference closure of the same generators;
* every composable pair and every inverse renders the reference's serial;
* the identity atoms, ``atoms_by_anchor`` (in order), ``act`` on every
  atom by every arrow out of its target, and ``bar`` render the
  reference's serials.

The row kernels are checked on every row: ``compose_row`` of each arrow
over the tables of the arrows out of its target gives the keys
(``groupoids.keyed``) of the reference composites, also with an action
half, and ``act_row`` of each
identity atom and each atom over the arrows out of its target gives the
reference's atoms, in order.

The object systems of ``rotation_pair(2)``, ``(3)`` and ``(6)``, one of
identity seeds and one whose seed vertex maps do not commute are checked
the same way against the reference object kernel, whose star maps carry
their vertex maps: the vertex map each arrow's witness word evaluates to
must be the one the reference composes along the word, and must agree
with the reference on every composite and inverse.

The action-law check, which goes by origin and compares bundles of atoms,
gives the verdict and the detail string of ``conftest.reference_row_check``,
the per-dart walk it replaced: on the same systems, valid and with a
corrupted action or a corrupted composition.

Domains of at most ``groupoids.BYTES_POINTS`` points hold perms and
positions as bytes.  With the constant patched to 0, every domain is wide
and holds tuples; the reference agreement and the action check are re-run
so on small systems.  On a pair with domains of two sizes, the constant at
the largest size and one lower gives all-bytes and mixed systems, which
agree with the references and write the same artifacts; at the real limit
of 253 points, positions never reach the two table slots of the target.
"""

import pytest
from hypothesis import given

from commoncover import families, groupoids
from commoncover.ball_system import build_ball_system_retrying
from commoncover.cli import dump_graph, main, write_json
from commoncover.gluing import subdivide_graph
from commoncover.graphs import BudgetExceeded
from commoncover.groupoids import PermArrow, keyed
from commoncover.object_graphs import (SeedSpec, _check_star_map, close_star_maps,
                                       make_object, obj_identity, obj_morphism,
                                       rotation_pair)
from commoncover.star_system import (STRATEGY_ALIGNED, STRATEGY_DR_FULL,
                                     build_star_system_retrying)

from conftest import (all_pairs_closure, corrupt_act, corrupt_compose, eps, generator_words,
                      object_graph, reference_kernel, reference_row_check)
from test_differential import SEEDS, _settings, related_pair


def _generators(sys):
    if sys.kind == "ball":
        return sys.discovered.vertex_arrows
    if sys.strategy == STRATEGY_ALIGNED:
        return sys.atom_arrows
    return sys.groupoid.arrows


def check_against_reference(sys, generators=None):
    if generators is None:
        generators = _generators(sys)
    ref = reference_kernel(sys)
    gpd = sys.groupoid
    closure = all_pairs_closure([ref.arrow(a) for a in generators],
                                sys.union.vertices, ref.identity)
    assert [a.serial for a in gpd.arrows] == closure
    refs = {a.key: ref.arrow(a) for a in gpd.arrows}
    key_of = {a.serial: keyed(a.dst, a.perm) for a in gpd.arrows}
    for b in gpd.arrows:
        assert b.inverse().serial == refs[b.key].inverse().serial
        composites = {}
        for a in gpd.by_source[b.dst]:
            composites[a.key] = refs[a.key].compose(refs[b.key]).serial
            assert a.compose(b).serial == composites[a.key]
        tables = [a.table for a in gpd.by_source[b.dst]]
        keys = [key_of[composites[a.key]] for a in gpd.by_source[b.dst]]
        assert list(b.compose_row(tables)) == keys
        # the action half of a key: h's images of b's own positions are the
        # composite's perm, so each key repeats
        assert list(b.compose_row(tables, b.perm)) == [k + k for k in keys]
    serial = sys.atom_serial
    for e, name in enumerate(sys.union.darts):
        ident = ref.identity_atom(name)
        assert serial(sys.identity_atom(e)) == ref.serial(ident)
        out = gpd.by_source[sys.union.org[e]]
        moved = [ref.serial(ref.act(refs[g.key], ident)) for g in out]
        assert list(map(serial, sys.act_row(out, sys.identity_atom(e)))) == moved
        assert ([serial(a) for a in sys.atoms_by_anchor[e]]
                == list(dict.fromkeys(moved)))
        for atom in sys.atoms_by_anchor[e]:
            ref_atom = ref.atom(serial(atom))
            assert serial(sys.bar(atom)) == ref.serial(ref.bar(ref_atom))
            hs = gpd.by_source[eps(sys, atom)]
            row = sys.act_row(hs, atom)
            assert list(map(serial, row)) == [
                ref.serial(ref.act(refs[h.key], ref_atom)) for h in hs]
            assert [sys.act(h, atom) for h in hs] == row


@_settings(30)
@given(SEEDS)
def test_kernel_agrees_with_the_pair_tuple_reference(seed):
    g1, g2, _ = related_pair(seed)
    for sys in (build_star_system_retrying(g1, g2, STRATEGY_DR_FULL),
                build_star_system_retrying(g1, g2, STRATEGY_ALIGNED),
                build_ball_system_retrying(g1, g2, 1)):
        check_against_reference(sys)


def check_vertex_maps(sys, generators):
    """The vertex maps that the witness words of an object system evaluate
    to, against the reference star maps composed along the generator words
    of the same arrows (``generator_words``)."""
    ref = reference_kernel(sys)
    gpd = sys.groupoid
    words = generator_words(generators, gpd.identities)
    letters = {}
    for i, g in enumerate(generators):
        letters["g", i] = ref.arrow(g)
        letters["g~", i] = ref.arrow(g).inverse()
    refs = {}
    for a in gpd.arrows:
        current = ref.identity(a.names[a.src])
        for letter in words[a.key]:
            current = letters[letter].compose(current)
        assert current.serial == a.serial
        assert current.vertex_map == sys.vertex_map(a)
        refs[a.key] = current
    for b in gpd.arrows:
        assert refs[b.key].inverse().vertex_map == sys.vertex_map(b.inverse())
        for a in gpd.by_source[b.dst]:
            assert (refs[a.key].compose(refs[b.key]).vertex_map
                    == sys.vertex_map(a.compose(b)))


def _identity_seed_system():
    obj = make_object(["o"])
    g = families.cycle(3)
    x = object_graph(g, {v: obj for v in g.vertices}, {d: obj for d in g.darts},
                     {d: obj_identity(obj) for d in g.darts})
    return x, x, [SeedSpec(v, v, {d: d for d in g.star(v)},
                           {d: obj_identity(obj) for d in g.star(v)})
                  for v in g.vertices]


def _non_commuting_system():
    """rose(1) over a three-point vertex object and empty edge objects,
    with seed vertex maps that do not commute, so that a witness word
    evaluated in the wrong order gives another vertex map (the rotation
    maps of ``rotation_pair`` commute)."""
    g = families.rose(1)
    points, empty = make_object(["p0", "p1", "p2"]), make_object([])
    x = object_graph(g, {"v00": points}, {d: empty for d in g.darts},
                     {d: obj_morphism(empty, points, {}, {}) for d in g.darts})
    maps = {d: obj_identity(empty) for d in g.darts}
    swap = obj_morphism(points, points, {"p0": "p1", "p1": "p0", "p2": "p2"}, {})
    turn = obj_morphism(points, points, {"p0": "p1", "p1": "p2", "p2": "p0"}, {})
    return x, x, [SeedSpec("v00", "v00", {"e00.a": "e00.a", "e00.b": "e00.b"}, maps, swap),
                  SeedSpec("v00", "v00", {"e00.a": "e00.b", "e00.b": "e00.a"}, maps, turn)]


def test_object_kernel_agrees_with_the_reference():
    for x1, x2, seeds in (rotation_pair(2), rotation_pair(3), rotation_pair(6),
                          _identity_seed_system(), _non_commuting_system()):
        sys = close_star_maps(x1, x2, seeds)
        generators = [_check_star_map(x1, x2, s, sys.numbering) for s in seeds]
        check_against_reference(sys, generators)
        check_vertex_maps(sys, generators)


def _move_image(sys):
    """Send the atom's head to the head of another dart at its target,
    when the target has one, so that the image dart changes."""
    def corrupt(atom):
        e, y, r = atom
        i = sys.numbering.head_slot[e]
        heads = [j for j, d in enumerate(sys.numbering.dart_at[y])
                 if d is not None and j != r[i]]
        return (e, y, r[:i] + tuple(heads[:1] or [r[i]]) + r[i + 1:])
    return corrupt


def check_action_against_the_walk(sys):
    """The check by origin and the per-dart walk: one verdict and one
    detail string, on the valid system and on both mutants."""
    assert sys._check_action() is None
    assert reference_row_check(sys) is None
    with pytest.MonkeyPatch.context() as mp:
        if corrupt_compose(sys, mp):
            detail = sys._check_action()
            assert detail is not None
            assert detail == reference_row_check(sys)
    corrupt_act(sys, _move_image(sys))
    assert sys._check_action() == reference_row_check(sys)


@_settings(30)
@given(SEEDS)
def test_action_check_agrees_with_the_per_dart_walk(seed):
    g1, g2, _ = related_pair(seed)
    for sys in (build_star_system_retrying(g1, g2, STRATEGY_DR_FULL),
                build_star_system_retrying(g1, g2, STRATEGY_ALIGNED),
                build_ball_system_retrying(g1, g2, 1)):
        check_action_against_the_walk(sys)


def test_object_action_check_agrees_with_the_per_dart_walk():
    for order in (2, 3, 6):
        check_action_against_the_walk(close_star_maps(*rotation_pair(order)))


def _small_systems():
    c3, c4 = families.cycle(3), families.cycle(4)
    return [build_star_system_retrying(c3, c4, STRATEGY_DR_FULL),
            build_star_system_retrying(families.theta(3), families.complete(4),
                                       STRATEGY_ALIGNED),
            build_ball_system_retrying(c3, c4, 1),
            close_star_maps(*rotation_pair(3))]


@pytest.mark.parametrize("points,encoding", [(groupoids.BYTES_POINTS, bytes), (0, tuple)],
                         ids=["bytes", "wide"])
def test_both_encodings_agree_with_the_references(points, encoding, monkeypatch):
    monkeypatch.setattr(groupoids, "BYTES_POINTS", points)
    for sys in _small_systems():
        assert {type(a.perm) for a in sys.groupoid.arrows} == {encoding}
        assert {type(r) for r in sys.numbering.dom} == {encoding}
        if sys.kind == "object":
            x1, x2, seeds = rotation_pair(3)
            check_against_reference(sys, [_check_star_map(x1, x2, s, sys.numbering)
                                          for s in seeds])
        else:
            check_against_reference(sys)
        check_action_against_the_walk(sys)


def _subdivided_pair():
    """rose(2) and Theta4 with a midpoint on every edge: vertices of degree
    4 and 2, so stars of 4 and 2 darts and balls of radius 1 of 5 and 3
    points."""
    return (subdivide_graph(families.rose(2)).graph,
            subdivide_graph(families.theta(4)).graph)


BOUNDARY_BUILDS = {
    "star-dr": (lambda g1, g2: build_star_system_retrying(g1, g2, STRATEGY_DR_FULL),
                ["--backend", "star", "--strategy", "dr"]),
    "ball": (lambda g1, g2: build_ball_system_retrying(g1, g2, 1),
             ["--backend", "ball", "-R", "1"]),
}


@pytest.mark.parametrize("backend", sorted(BOUNDARY_BUILDS))
def test_encoding_boundary_on_mixed_domains(backend, tmp_path, monkeypatch):
    # BYTES_POINTS at the largest domain size keeps every domain bytes; one
    # lower, the largest domains are wide and the others stay bytes.  Both
    # agree with the references, and the artifacts are byte-identical
    build, args = BOUNDARY_BUILDS[backend]
    g1, g2 = _subdivided_pair()
    paths = []
    for name, g in (("g1", g1), ("g2", g2)):
        paths.append(str(tmp_path / (name + ".json")))
        write_json(paths[-1], dump_graph(g))
    largest = max(map(len, build(g1, g2).numbering.domains))
    artifacts = []
    for points, wide in ((largest, set()), (largest - 1, {largest})):
        monkeypatch.setattr(groupoids, "BYTES_POINTS", points)
        sys = build(g1, g2)
        assert {len(a.perm) for a in sys.groupoid.arrows
                if type(a.perm) is tuple} == wide
        assert {len(a.perm) for a in sys.groupoid.arrows
                if type(a.perm) is bytes} == set(map(len, sys.numbering.domains)) - wide
        check_against_reference(sys)
        check_action_against_the_walk(sys)
        out = tmp_path / ("out%d" % points)
        assert main(["build", *paths, *args, "-o", str(out)]) == 0
        artifacts.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert artifacts[0] == artifacts[1]


def test_the_target_slots_are_no_position():
    # a bytes domain has at most 253 points, so its positions never reach
    # 253 and 254, where a table holds the arrow's target
    n = groupoids.BYTES_POINTS
    assert n == 253 and groupoids.TARGET == bytes((253, 254))
    assert groupoids.encoding(n) is bytes and groupoids.encoding(n + 1) is tuple
    dom, names = tuple(range(n)), tuple(range(300))
    a = PermArrow(5, 260, range(n - 1, -1, -1), dom, dom, names)
    b = PermArrow(260, 7, [(i + 1) % n for i in range(n)], dom, dom, names)
    assert type(a.perm) is bytes and max(a.perm) == n - 1
    assert a.table[:n] == a.perm and a.table[253:255] == (260).to_bytes(2, "big")
    ab = b.compose(a)
    assert ab.key == (5, 7, bytes(b.perm[i] for i in a.perm))
    assert list(a.compose_row([b.table])) == [keyed(7, ab.perm)]
    assert list(a.compose_row([b.table], a.perm)) == [keyed(7, ab.perm) * 2]
    # one point more: tuples, the target in the slot after the perm
    wide = PermArrow(1, 2, range(n + 1), dom + (n,), dom + (n,), names)
    assert wide.table == tuple(range(n + 1)) + (2,)
    assert list(wide.compose_row([wide.table])) == [(2,) + wide.perm]
    # the two target bytes hold 65,536 objects
    with pytest.raises(BudgetExceeded):
        PermArrow(0, 1 << 16, b"\0", (0,), (0,), names)
