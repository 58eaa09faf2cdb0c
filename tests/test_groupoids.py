import pytest

from commoncover import families
from commoncover.ball_system import (BallArrow, build_ball_system_retrying,
                                     verify_witness)
from commoncover.graphs import disjoint_union
from commoncover.groupoids import lcm_all, saturate
from commoncover.object_graphs import (StarMapArrow, _check_star_map,
                                       close_star_maps, rotation_pair)
from commoncover.refinement import joint_refinement
from commoncover.star_system import (STRATEGY_ALIGNED, StarArrow,
                                     StarLocalSystem, build_star_system,
                                     build_star_system_retrying)

from conftest import all_pairs_closure, bfs_atoms, hom, star_arrow, verify_groupoid


def identity_factory_for(graph):
    def factory(x):
        v = graph.vertices[x]
        return star_arrow(graph, v, v, {d: d for d in graph.star(v)})
    return factory


def test_saturate_no_atoms_single_object():
    g = families.rose(1)
    gpd = saturate([], [0], identity_factory_for(g))
    assert len(gpd.arrows) == 1
    assert gpd.arrows[0].serial[1:3] == ("v00", "v00")
    assert not verify_groupoid(gpd)


def test_saturate_single_bijection_four_arrows():
    g = families.theta(2)
    bij = dict(zip(g.star("v00"), g.star("v01")))
    gamma = star_arrow(g, "v00", "v01", bij)
    gpd = saturate([gamma], [0, 1], identity_factory_for(g))
    assert len(gpd.arrows) == 4
    assert not verify_groupoid(gpd)


def test_saturate_two_bijections_matches_brute_force():
    g = families.theta(2)
    s0, s1 = g.star("v00"), g.star("v01")
    straight = star_arrow(g, "v00", "v01", dict(zip(s0, s1)))
    crossed = star_arrow(g, "v00", "v01", dict(zip(s0, reversed(s1))))
    factory = identity_factory_for(g)
    gpd = saturate([straight, crossed], [0, 1], factory)
    brute = all_pairs_closure([straight, crossed], [0, 1], factory)
    assert [a.serial for a in gpd.arrows] == brute
    assert len(gpd.arrows) <= 8
    # the crossed-with-straight composite has order 2 at v00
    flip = crossed.inverse().compose(straight)
    assert flip.serial[1:3] == ("v00", "v00")
    assert flip.compose(flip) == factory(0)


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
    gpd = saturate([], range(len(union.vertices)), identity_factory_for(union))
    return StarLocalSystem(g, g, union, gpd, joint_refinement(g, g), "identities")


def _stabilizer(sys, dart) -> tuple:
    """(|Stab(id_e)|, out(origin e), orbit size) at a dart."""
    ident = sys.atom_serial(sys.identity_atom(dart))
    out = sys.groupoid.by_source.get(sys.union.org[dart], ())
    stab = sum(1 for g in out if sys.atom_serial(sys.act_identity(g, dart)) == ident)
    return stab, len(out), sys.orbit_size(dart)


def test_orbit_partition_identities_only():
    sys = _identity_star_system(families.cycle(3))
    for e, name in enumerate(sys.union.darts):
        assert sys.orbit_darts(e) == (e,)
        assert [sys.atom_serial(a) for a in sys.atoms_by_anchor[e]] == [(name, name)]


def test_orbit_partition_full_star_groupoid_on_c3():
    # dr_full on C3 and C3 is every star bijection within the one joint block
    sys = build_star_system(families.cycle(3), families.cycle(3))
    darts = tuple(range(len(sys.union.darts)))
    for e in darts:
        assert sys.orbit_darts(e) == darts
        assert sys.orbit_size(e) == 12


def test_orbit_partition_empty_set():
    sys = build_star_system(families.path(1), families.path(1))
    assert sys.atoms_by_anchor == []
    assert sys.axioms.ok


def test_stabilizer_identities_only():
    sys = _identity_star_system(families.cycle(3))
    for e in range(len(sys.union.darts)):
        assert _stabilizer(sys, e) == (1, 1, 1)


def test_stabilizer_with_order_two_isotropy():
    # the star bijections fixing one dart of Theta3 swap the other two
    sys = build_star_system(families.theta(3), families.theta(3))
    for e in range(len(sys.union.darts)):
        assert _stabilizer(sys, e) == (2, 24, 12)


def test_orbit_stabilizer_product_on_star_action(engine_systems):
    """out(origin e) = |Stab(id_e)| * orbit size, on the star systems first
    and then on the ball and object systems."""
    for kind, sys in engine_systems.items():
        for e in range(len(sys.union.darts)):
            stab, out, orbit = _stabilizer(sys, e)
            assert out == stab * orbit, (kind, e)


def test_orbit_of_matches_partition(engine_systems):
    """The one-step atom sets equal the breadth-first orbit closure."""
    for kind, sys in engine_systems.items():
        for e in range(len(sys.union.darts)):
            assert set(sys.atoms_by_anchor[e]) == bfs_atoms(sys, e), (kind, e)


# -- generator-only saturation against the all-pairs closure -------------------


def _doubled_triangle():
    return families._from_edges(3, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)])


@pytest.fixture(scope="module")
def generated(engine_systems):
    """(generators, objects, identity factory, system) per system: the
    inputs that saturate received when the system was built.  The dr
    system is not saturated at build time; its full arrow set is resaturated
    here as a generating set."""
    k4, th3 = families.complete(4), families.theta(3)
    star = {"star-aligned": engine_systems["star-aligned"],
            "star-aligned-k4-theta3": build_star_system_retrying(k4, th3, STRATEGY_ALIGNED),
            "star-aligned-rose2-tri2": build_star_system_retrying(
                families.rose(2), _doubled_triangle(), STRATEGY_ALIGNED)}
    out = {kind: (sys.atom_arrows, sys) for kind, sys in star.items()}
    dr = engine_systems["star-dr"]
    out["star-dr"] = (dr.groupoid.arrows, dr)
    for kind in ("ball-R1", "ball-R2"):
        sys = engine_systems[kind]
        out[kind] = (sys.discovered.vertex_arrows, sys)
    x1, x2, seeds = rotation_pair(3)
    objects = engine_systems["objects"]
    out["objects"] = ([_check_star_map(x1, x2, s, objects.numbering) for s in seeds],
                      objects)
    return {kind: (list(gens), range(len(sys.union.vertices)), sys.groupoid.identities.get, sys)
            for kind, (gens, sys) in out.items()}


def test_saturate_matches_all_pairs_closure(generated):
    for kind, (gens, objects, factory, sys) in generated.items():
        serials = [a.serial for a in saturate(gens, objects, factory).arrows]
        assert serials == all_pairs_closure(gens, objects, factory), kind
        assert serials == [a.serial for a in sys.groupoid.arrows], kind


def test_ball_arrows_pass_their_witness(engine_systems):
    for kind in ("ball-R1", "ball-R2"):
        sys = engine_systems[kind]
        assert all(verify_witness(a, sys) for a in sys.groupoid.arrows), kind


def test_identity_ignores_stored_witnesses(engine_systems):
    ball = engine_systems["ball-R1"]
    a = next(a for a in ball.groupoid.arrows if a.witness)
    bare = BallArrow(a.src, a.dst, a.perm, a.domain, a.codomain, a.names)
    assert bare == a and hash(bare) == hash(a) and len({a, bare}) == 1
    assert hash(a) == hash((a.src, a.dst, a.perm))
    assert BallArrow(a.dst, a.src, a.perm, a.codomain, a.domain, a.names, a.witness) != a
    objects = engine_systems["objects"]
    s = next(s for s in objects.groupoid.arrows if s.witness)
    plain = StarMapArrow(s.src, s.dst, s.perm, s.domain, s.codomain, s.names)
    assert plain == s and hash(plain) == hash(s) and len({s, plain}) == 1
    assert hash(s) == hash((s.src, s.dst, s.perm))
    assert objects.vertex_map(plain) != objects.vertex_map(s)
    star = StarArrow(s.src, s.dst, s.perm, s.domain, s.codomain, s.names)
    assert star != s and hash(star) == hash((s.src, s.dst, star.perm))


# -- FiniteGroupoid.verify is complete -------------------------------------------


def test_verify_completes_on_k4_theta3(generated):
    gpd = generated["star-aligned-k4-theta3"][3].groupoid
    assert len(gpd.arrows) == 216
    assert {gpd.out_count(x) for x in gpd.objects} == {36}
    # 216 * 36 * 36 = 279,936 associativity triples, all checked
    assert verify_groupoid(gpd) == []


def test_verify_reports_one_wrong_composition(generated, monkeypatch):
    gpd = generated["star-aligned-k4-theta3"][3].groupoid
    identities = {e.serial for e in gpd.identities.values()}
    b = gpd.arrows[-1]
    a = next(a for a in reversed(gpd.by_source[b.dst])
             if a.serial not in identities and a.compose(b).serial not in identities)
    right = a.compose(b).serial
    wrong = next(x for x in hom(gpd, b.src, a.dst) if x.serial != right)
    compose = StarArrow.compose

    def corrupted(self, other):
        if self.serial == a.serial and other.serial == b.serial:
            return wrong
        return compose(self, other)

    monkeypatch.setattr(StarArrow, "compose", corrupted)
    bad = verify_groupoid(gpd)
    assert len(bad) == 1 and bad[0].startswith("associativity fails")


def test_saturate_idempotent():
    g = families.theta(2)
    s0, s1 = g.star("v00"), g.star("v01")
    crossed = star_arrow(g, "v00", "v01", dict(zip(s0, reversed(s1))))
    factory = identity_factory_for(g)
    once = saturate([crossed], [0, 1], factory)
    twice = saturate(list(once.arrows), [0, 1], factory)
    assert set(once.arrows) == set(twice.arrows)


def test_lcm_all():
    assert lcm_all([3, 4]) == 12
    assert lcm_all([1]) == 1
    assert lcm_all([6, 10, 15]) == 30
    assert lcm_all([]) == 1
    with pytest.raises(ValueError):
        lcm_all([0])
