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
"""

from hypothesis import given

from commoncover.ball_system import build_ball_system_retrying
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
    for b in gpd.arrows:
        assert b.inverse().serial == refs[b.key].inverse().serial
        for a in gpd.by_source[b.dst]:
            assert a.compose(b).serial == refs[a.key].compose(refs[b.key]).serial
    serial = sys.atom_serial
    for e in sys.union.darts:
        ident = ref.identity_atom(e)
        assert serial(sys.identity_atom(e)) == ref.serial(ident)
        expected = {}
        for g in gpd.by_source[sys.union.origin[e]]:
            s = ref.serial(ref.act(refs[g.key], ident))
            expected.setdefault(s, s)
        assert [serial(a) for a in sys.atoms_by_anchor[e].values()] == list(expected)
        for atom in sys.atoms_by_anchor[e].values():
            ref_atom = ref.atom(serial(atom))
            assert serial(sys.bar(atom)) == ref.serial(ref.bar(ref_atom))
            for h in gpd.by_source[sys.eps(atom)]:
                assert (serial(sys.act(h, atom))
                        == ref.serial(ref.act(refs[h.key], ref_atom)))


@_settings(30)
@given(SEEDS)
def test_kernel_agrees_with_the_pair_tuple_reference(seed):
    g1, g2, _ = related_pair(seed)
    for sys in (build_star_system_retrying(g1, g2, STRATEGY_DR_FULL),
                build_star_system_retrying(g1, g2, STRATEGY_ALIGNED),
                build_ball_system_retrying(g1, g2, 1)):
        check_against_reference(sys)
