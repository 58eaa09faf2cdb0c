import pytest

from commoncover import families, star_system
from commoncover.cover_builder import AxiomError
from commoncover.graphs import BudgetExceeded, GraphError
from commoncover.refinement import joint_refinement
from commoncover.star_system import (STRATEGY_ALIGNED,
                                     build_star_system,
                                     build_star_system_retrying,
                                     induced_star_map)
from commoncover.universal_cover import UniversalCover, build_alignment


def test_dr_full_c3_c4_arrow_counts():
    sys = build_star_system(families.cycle(3), families.cycle(4))
    assert sys.axioms.ok
    # single joint block of 7 vertices, two bijections between any two stars
    for x in range(len(sys.union.vertices)):
        for y in range(len(sys.union.vertices)):
            assert len(sys.groupoid.hom(x, y)) == 2
    assert len(sys.groupoid.arrows) == 7 * 7 * 2


@pytest.mark.parametrize("g1, g2", [
    (families.cycle(3), families.cycle(4)),
    (families.complete(4), families.theta(3)),
    (families.rose(2), families.complete(5)),
])
def test_dr_full_arrow_count_is_exact(monkeypatch, g1, g2):
    # the preflight count equals the number of arrows built: a budget one
    # below it refuses the build, a budget equal to it admits it
    arrows = len(build_star_system(g1, g2).groupoid.arrows)
    monkeypatch.setattr(star_system, "DR_FULL_ARROW_BUDGET", arrows - 1)
    with pytest.raises(BudgetExceeded, match="needs %d arrows" % arrows):
        build_star_system(g1, g2)
    monkeypatch.setattr(star_system, "DR_FULL_ARROW_BUDGET", arrows)
    assert len(build_star_system(g1, g2).groupoid.arrows) == arrows


def test_dr_full_refuses_an_oversized_system_before_allocating():
    # one joint block of 2503 vertices with stars of two like darts:
    # 2503^2 * 2! arrows
    with pytest.raises(BudgetExceeded, match="needs 12530018 arrows"):
        build_star_system(families.cycle(3), families.cycle(2500))


def test_dr_full_orbits_are_bar_closed():
    sys = build_star_system(families.complete(4), families.theta(3))
    assert sys.axioms.ok
    rev = sys.union.rev
    for e in range(len(rev)):
        bar_image = {rev[f] for f in sys.orbit_darts(e)}
        assert set(sys.orbit_darts(rev[e])) == bar_image


def test_aligned_c3_c3_atoms_at_radius_one():
    g = families.cycle(3)
    sys = build_star_system(g, g, STRATEGY_ALIGNED, explore_radius=1)
    assert sys.axioms.ok
    assert len(sys.atom_arrows) == 3
    # every atom of an identity alignment is a straight star map
    n1 = len(g.vertices)
    for arrow in sys.atom_arrows:
        assert arrow.src + n1 == arrow.dst
        for e, f in arrow.bij:
            assert e[2:] == f[2:]


def test_precondition_failure_degree_mismatch():
    with pytest.raises(GraphError, match="no common universal cover"):
        build_star_system(families.cycle(3), families.complete(4))


def test_aligned_retry_succeeds_on_fixtures():
    for g1, g2 in ((families.cycle(3), families.cycle(4)),
                   (families.complete(4), families.theta(3))):
        sys = build_star_system_retrying(g1, g2, STRATEGY_ALIGNED)
        assert sys.axioms.ok


def test_transition_identity_for_aligned_atoms():
    g1, g2 = families.cycle(3), families.cycle(4)
    joint = joint_refinement(g1, g2)
    c1, c2 = UniversalCover(g1), UniversalCover(g2)
    theta = build_alignment(c1, c2, joint)
    rho = 3
    sys = build_star_system(g1, g2, STRATEGY_ALIGNED, explore_radius=rho,
                            joint=joint, alignment=theta)
    serials = {a.serial for a in sys.groupoid.arrows}
    for z in [w for w in c1.ball((), rho - 1).vertices]:
        gamma_z = induced_star_map(theta, z, sys.union)
        for d, w in c1.star_darts(z):
            gamma_y = induced_star_map(theta, w, sys.union)
            e = sys.union.darts[d]
            e_rev = sys.union.reverse[e]
            f = dict(gamma_z.bij)[e]
            assert dict(gamma_y.bij)[e_rev] == sys.union.reverse[f]
        assert gamma_z.serial in serials


def test_dr_full_respects_colours():
    base = families.cycle(6)
    colours = {"v00": "red", "v03": "red"}
    g1 = families.with_vertex_colour(base, colours)
    g2 = families.with_vertex_colour(families.cycle(6), colours)
    sys = build_star_system(g1, g2)
    assert sys.axioms.ok
    colour = sys.union.vertex_colour
    for arrow in sys.groupoid.arrows:
        assert colour.get(arrow.src) == colour.get(arrow.dst)


def test_aligned_insufficient_radius_raises_axiom_error():
    g1, g2 = families.complete(4), families.theta(3)
    with pytest.raises(AxiomError, match="closure axioms unmet"):
        build_star_system(g1, g2, STRATEGY_ALIGNED, explore_radius=0)
