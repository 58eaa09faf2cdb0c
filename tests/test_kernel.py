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

The row kernels are checked on every row: ``composite_keys`` of each
arrow over all arrows gives the keys of the reference composites, with
None exactly where the pair is not composable, and ``act_row`` of each
identity atom and each atom over the arrows out of its target gives the
reference's atoms, in order.  On the object system of ``rotation_pair(3)``,
whose arrows and atoms keep their per-call ``compose`` and ``act``, the
default rows must equal those calls.
"""

from hypothesis import given

from commoncover.ball_system import build_ball_system_retrying
from commoncover.object_graphs import close_star_maps, rotation_pair
from commoncover.star_system import (STRATEGY_ALIGNED, STRATEGY_DR_FULL,
                                     build_star_system_retrying)

from conftest import all_pairs_closure, reference_kernel
from test_differential import SEEDS, _settings, related_pair


def _generators(sys):
    if sys.kind == "ball":
        return sys.discovered.vertex_arrows
    if sys.strategy == STRATEGY_ALIGNED:
        return sys.atom_arrows
    return sys.groupoid.arrows


def check_against_reference(sys):
    ref = reference_kernel(sys)
    gpd = sys.groupoid
    closure = all_pairs_closure([ref.arrow(a) for a in _generators(sys)],
                                sys.union.vertices, ref.identity)
    assert [a.serial for a in gpd.arrows] == closure
    refs = {a.key: ref.arrow(a) for a in gpd.arrows}
    key_of = {a.serial: a.key for a in gpd.arrows}
    for b in gpd.arrows:
        assert b.inverse().serial == refs[b.key].inverse().serial
        composites = {}
        for a in gpd.by_source[b.dst]:
            composites[a.key] = refs[a.key].compose(refs[b.key]).serial
            assert a.compose(b).serial == composites[a.key]
        assert b.composite_keys(gpd.arrows) == [
            key_of[composites[a.key]] if a.src == b.dst else None for a in gpd.arrows]
    serial = sys.atom_serial
    for e in sys.union.darts:
        ident = ref.identity_atom(e)
        assert serial(sys.identity_atom(e)) == ref.serial(ident)
        out = gpd.by_source[sys.union.origin[e]]
        moved = [ref.serial(ref.act(refs[g.key], ident)) for g in out]
        assert list(map(serial, sys.act_row(out, sys.identity_atom(e)))) == moved
        assert ([serial(a) for a in sys.atoms_by_anchor[e].values()]
                == list(dict.fromkeys(moved)))
        for atom in sys.atoms_by_anchor[e].values():
            ref_atom = ref.atom(serial(atom))
            assert serial(sys.bar(atom)) == ref.serial(ref.bar(ref_atom))
            hs = gpd.by_source[sys.eps(atom)]
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


def test_object_rows_are_the_per_call_methods():
    x1, x2, seeds = rotation_pair(3)
    sys = close_star_maps(x1, x2, seeds)
    gpd = sys.groupoid
    for b in gpd.arrows:
        composites = [a.compose(b) for a in gpd.arrows]
        assert b.composite_keys(gpd.arrows) == [
            None if c is None else c.key for c in composites]
        assert [c is None for c in composites] == [a.src != b.dst for a in gpd.arrows]
    for e in sys.union.darts:
        for atom in [sys.identity_atom(e), *sys.atoms_by_anchor[e].values()]:
            hs = gpd.by_source[sys.eps(atom)]
            assert sys.act_row(hs, atom) == [sys.act(h, atom) for h in hs]
