import itertools

import pytest

from commoncover import families
from commoncover.ball_system import build_ball_system_retrying
from commoncover.graphs import disjoint_union
from commoncover.groupoids import lcm_all, saturate
from commoncover.object_graphs import close_star_maps, rotation_pair
from commoncover.refinement import joint_refinement
from commoncover.star_system import (STRATEGY_ALIGNED, StarArrow,
                                     StarLocalSystem, build_star_system,
                                     build_star_system_retrying)

from conftest import bfs_atoms


def identity_factory_for(graph):
    def factory(x):
        return StarArrow(x, x, tuple((d, d) for d in graph.star(x)))
    return factory


def test_saturate_no_atoms_single_object():
    g = families.rose(1)
    gpd = saturate([], ["v00"], identity_factory_for(g))
    assert len(gpd.arrows) == 1
    assert gpd.arrows[0].src == gpd.arrows[0].dst == "v00"
    assert not gpd.verify()


def test_saturate_single_bijection_four_arrows():
    g = families.theta(2)
    bij = tuple(zip(g.star("v00"), g.star("v01")))
    gamma = StarArrow("v00", "v01", bij)
    gpd = saturate([gamma], ["v00", "v01"], identity_factory_for(g))
    assert len(gpd.arrows) == 4
    assert not gpd.verify()


def _brute_closure(atoms, identities):
    """Independent closure loop for cross-checking saturate."""
    arrows = set(identities)
    frontier = set(atoms)
    for a in atoms:
        frontier.add(a.inverse())
    arrows |= frontier
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(list(arrows), repeat=2):
            if a.src == b.dst:
                c = a.compose(b)
                if c not in arrows:
                    arrows.add(c)
                    changed = True
    return arrows


def test_saturate_two_bijections_matches_brute_force():
    g = families.theta(2)
    s0, s1 = g.star("v00"), g.star("v01")
    straight = StarArrow("v00", "v01", tuple(zip(s0, s1)))
    crossed = StarArrow("v00", "v01", tuple(zip(s0, reversed(s1))))
    factory = identity_factory_for(g)
    gpd = saturate([straight, crossed], ["v00", "v01"], factory)
    brute = _brute_closure([straight, crossed], [factory("v00"), factory("v01")])
    assert set(gpd.arrows) == brute
    assert len(gpd.arrows) <= 8
    # the crossed-with-straight composite has order 2 at v00
    flip = crossed.inverse().compose(straight)
    assert flip.src == flip.dst == "v00"
    assert flip.compose(flip) == factory("v00")


# -- orbits and stabilizers of the atom action (cover_builder.LocalSystem) ----


@pytest.fixture(scope="module")
def engine_systems():
    """One local system of every kind that the orbit engine serves."""
    c3, c4 = families.cycle(3), families.cycle(4)
    x1, x2, seeds = rotation_pair(3)
    return {
        "star-dr": build_star_system(families.complete(4), families.theta(3)),
        "star-aligned": build_star_system_retrying(c3, c4, STRATEGY_ALIGNED),
        "ball-R1": build_ball_system_retrying(c3, c4, 1),
        "ball-R2": build_ball_system_retrying(c3, c4, 2),
        "objects": close_star_maps(x1, x2, seeds),
    }


def _identity_star_system(g):
    """Star system on g and a copy of g whose groupoid has identities only."""
    union = disjoint_union(g, g)
    gpd = saturate([], union.vertices, identity_factory_for(union))
    return StarLocalSystem(g, g, union, gpd, joint_refinement(g, g), "identities")


def _stabilizer(sys, dart) -> tuple:
    """(|Stab(id_e)|, out(origin e), orbit size) at a dart."""
    ident = sys.atom_serial(sys.identity_atom(dart))
    out = sys.groupoid.by_source.get(sys.union.origin[dart], ())
    stab = sum(1 for g in out if sys.atom_serial(sys.act_identity(g, dart)) == ident)
    return stab, len(out), sys.orbit_size(dart)


def test_orbit_partition_identities_only():
    sys = _identity_star_system(families.cycle(3))
    for e in sys.union.darts:
        assert sys.orbit_darts(e) == (e,)
        assert list(sys.atoms_by_anchor[e]) == [(e, e)]


def test_orbit_partition_full_star_groupoid_on_c3():
    # dr_full on C3 and C3 is every star bijection within the one joint block
    sys = build_star_system(families.cycle(3), families.cycle(3))
    for e in sys.union.darts:
        assert sys.orbit_darts(e) == sys.union.darts
        assert sys.orbit_size(e) == 12


def test_orbit_partition_empty_set():
    sys = build_star_system(families.path(1), families.path(1))
    assert sys.atoms_by_anchor == {}
    assert sys.axioms.ok


def test_stabilizer_identities_only():
    sys = _identity_star_system(families.cycle(3))
    for e in sys.union.darts:
        assert _stabilizer(sys, e) == (1, 1, 1)


def test_stabilizer_with_order_two_isotropy():
    # the star bijections fixing one dart of Theta3 swap the other two
    sys = build_star_system(families.theta(3), families.theta(3))
    for e in sys.union.darts:
        assert _stabilizer(sys, e) == (2, 24, 12)


def test_orbit_stabilizer_product_on_star_action(engine_systems):
    """out(origin e) = |Stab(id_e)| * orbit size, on the star systems first
    and then on the ball and object systems."""
    for kind, sys in engine_systems.items():
        for e in sys.union.darts:
            stab, out, orbit = _stabilizer(sys, e)
            assert out == stab * orbit, (kind, e)


def test_orbit_of_matches_partition(engine_systems):
    """The one-step atom sets equal the breadth-first orbit closure."""
    for kind, sys in engine_systems.items():
        for e in sys.union.darts:
            assert set(sys.atoms_by_anchor[e]) == bfs_atoms(sys, e), (kind, e)


def test_saturate_idempotent():
    g = families.theta(2)
    s0, s1 = g.star("v00"), g.star("v01")
    crossed = StarArrow("v00", "v01", tuple(zip(s0, reversed(s1))))
    factory = identity_factory_for(g)
    once = saturate([crossed], ["v00", "v01"], factory)
    twice = saturate(list(once.arrows), ["v00", "v01"], factory)
    assert set(once.arrows) == set(twice.arrows)


def test_lcm_all():
    assert lcm_all([3, 4]) == 12
    assert lcm_all([1]) == 1
    assert lcm_all([6, 10, 15]) == 30
    assert lcm_all([]) == 1
    with pytest.raises(ValueError):
        lcm_all([0])
