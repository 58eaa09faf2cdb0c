import itertools

import pytest

from commoncover import families
from commoncover.ball_system import (BallArrow, BallKind, build_ball_system_retrying,
                                     DiscoveredAtoms, discover_atoms,
                                     edge_neighbourhood, verify_witness)
from commoncover.cover_builder import AxiomError
from commoncover.groupoids import saturate
from commoncover.refinement import joint_refinement
from commoncover.star_system import STRATEGY_ALIGNED, build_star_system_retrying
from commoncover.universal_cover import UniversalCover, build_alignment

from conftest import hom, saturation_horizon


def _alignment(g1, g2):
    joint = joint_refinement(g1, g2)
    return build_alignment(UniversalCover(g1), UniversalCover(g2), joint)


def test_discover_radius_zero_single_vertex_atom():
    g = families.cycle(3)
    found = discover_atoms(g, g, _alignment(g, g), radius=1, explore_radius=0)
    assert len(found.vertex_arrows) == 1
    arrow = found.vertex_arrows[0]
    assert arrow.names[arrow.src] == "1:v00" and arrow.names[arrow.dst] == "2:v00"


def test_c3_c3_hom_sets_bounded_by_ball_isomorphisms():
    g = families.cycle(3)
    sys = build_ball_system_retrying(g, g, radius=1)
    # on the line, at most two root-fixing radius-1 isomorphisms exist
    for x in range(len(sys.union.vertices)):
        for y in range(len(sys.union.vertices)):
            assert len(hom(sys.groupoid, x, y)) <= 2


def _brute_root_isos(cov_a, root_a, cov_b, root_b, radius):
    """Exhaustive root-preserving tree isomorphisms between two balls."""
    ball_a = cov_a.ball(root_a, radius)
    ball_b = cov_b.ball(root_b, radius)

    def extend(mapping, frontier):
        if not frontier:
            yield dict(mapping)
            return
        z = frontier[0]
        kids_a = [w for _, w in cov_a.star_darts(z)
                  if w in ball_a.dist and ball_a.dist[w] == ball_a.dist[z] + 1]
        kids_b = [w for _, w in cov_b.star_darts(mapping[z])
                  if w in ball_b.dist and ball_b.dist[w] == ball_b.dist[mapping[z]] + 1]
        if len(kids_a) != len(kids_b):
            return
        for perm in itertools.permutations(kids_b):
            new = dict(mapping)
            new.update(zip(kids_a, perm))
            yield from extend(new, frontier[1:] + list(kids_a))

    yield from extend({root_a: root_b}, [root_a])


def test_hom_counts_bounded_by_brute_ball_isomorphisms():
    g1, g2 = families.complete(4), families.theta(3)
    sys = build_ball_system_retrying(g1, g2, radius=1)
    c1, c2 = sys.cover1, sys.cover2
    for i in range(2):
        for j in range(len(g2.vertices)):
            count = len(hom(sys.groupoid, i, len(g1.vertices) + j))
            brute = len(list(_brute_root_isos(
                c1, c1.canonical_lift(i), c2, c2.canonical_lift(j), 1)))
            assert count <= brute


def test_radius_one_matches_aligned_star_orbits():
    for g1, g2 in ((families.cycle(3), families.cycle(3)),
                   (families.cycle(3), families.cycle(4))):
        ball_sys = build_ball_system_retrying(g1, g2, radius=1)
        star_sys = build_star_system_retrying(g1, g2, STRATEGY_ALIGNED)
        for e in range(len(ball_sys.union.darts)):
            ball_pairs = {(ball_sys.atom_anchor(a), ball_sys.atom_image(a))
                          for a in ball_sys.atoms_by_anchor[e]}
            star_pairs = {(e, f) for f in star_sys.orbit_darts(e)}
            assert ball_pairs == star_pairs


def test_empty_atoms_fail_coverage():
    # the stages of ``build_aligned``, saturated from no arrow at all
    g = families.cycle(3)
    alignment = _alignment(g, g)
    walk = BallKind(alignment, 1)
    groupoid = saturate([], range(len(alignment.joint.union.vertices)), walk.identity)
    sys = walk.system(g, g, alignment, groupoid, 0, DiscoveredAtoms([]))
    with pytest.raises(AxiomError, match="closure axioms unmet"):
        sys.require_axioms()


def test_atom_discovery_monotone_in_radius():
    g1, g2 = families.cycle(3), families.cycle(4)
    theta = _alignment(g1, g2)
    prev = set()
    for rho in range(4):
        found = discover_atoms(g1, g2, theta, radius=1, explore_radius=rho)
        serials = {a.serial for a in found.vertex_arrows}
        assert prev <= serials
        prev = serials


def test_canonical_representatives_deduplicate():
    g = families.cycle(3)
    theta = _alignment(g, g)
    found = discover_atoms(g, g, theta, radius=1, explore_radius=4)
    # the nine tree vertices within radius 4 revisit the three fibres
    assert len(found.vertex_arrows) == 3


def test_bar_is_an_involutive_automorphism():
    g1, g2 = families.cycle(3), families.cycle(4)
    sys = build_ball_system_retrying(g1, g2, radius=2)
    atoms = [a for e in range(len(sys.union.darts)) for a in sorted(sys.atoms_by_anchor[e])]
    serial, mapping = sys.atom_serial, (lambda a: sys.atom_serial(a)[3])
    for atom in atoms:
        twice = sys.bar(sys.bar(atom))
        assert serial(twice) == serial(atom)
        b = sys.bar(atom)
        assert sys.atom_anchor(b) == sys.union.rev[sys.atom_anchor(atom)]
        assert sys.atom_image(b) == sys.union.rev[sys.atom_image(atom)]
    # composition is preserved: bar(b . a) == bar(b) . bar(a); an atom is
    # (anchor, target, positions), so b . a reads b's position at each of a's
    for a in atoms[:40]:
        for b in atoms[:40]:
            if sys.atom_anchor(b) != sys.atom_image(a):
                continue
            slot = {i: j for j, i in enumerate(sys.numbering.dom[b[0]])}
            composed = (a[0], b[1], tuple(b[2][slot[i]] for i in a[2]))
            bar_a, bar_b = sys.bar(a), sys.bar(b)
            bar_map = dict(mapping(bar_b))
            lhs = mapping(sys.bar(composed))
            rhs = tuple(sorted((p, bar_map[q]) for p, q in mapping(bar_a)))
            assert lhs == rhs


def test_witnesses_verify_for_discovered_and_composite_arrows():
    g1, g2 = families.cycle(3), families.cycle(4)
    sys = build_ball_system_retrying(g1, g2, radius=1)
    for arrow in sys.groupoid.arrows:
        assert verify_witness(arrow, sys)


def test_corrupted_representative_fails_witness():
    g1, g2 = families.cycle(3), families.cycle(4)
    sys = build_ball_system_retrying(g1, g2, radius=1)
    arrow = next(a for a in sys.groupoid.arrows
                 if a.src < sys.n1 <= a.dst)
    perm = list(arrow.perm)
    leaves = [i for i, p in enumerate(arrow.domain) if len(p) == 1]
    a, b = leaves[0], leaves[1]
    perm[a], perm[b] = perm[b], perm[a]
    corrupted = BallArrow(arrow.src, arrow.dst, tuple(perm), arrow.domain,
                          arrow.codomain, arrow.names, arrow.witness)
    assert not verify_witness(corrupted, sys)


def test_edge_neighbourhood_is_intersection_of_endpoint_balls():
    g = families.complete(4)
    cov = UniversalCover(g)
    root = ()
    dart = g.stars()[cov.basepoint][0]
    for radius in (1, 2):
        nb = set(edge_neighbourhood(cov, root, dart, radius))
        head = cov.step(root, dart)
        ball_u = set(cov.ball(root, radius).vertices)
        ball_v = set(cov.ball(head, radius).vertices)
        assert nb == ball_u & ball_v


def test_saturation_horizon_reports_small_radius():
    g = families.cycle(3)
    horizon = saturation_horizon(g, g, radius=1, explore_max=6)
    assert 0 <= horizon <= 3


def test_acted_identity_atoms_match_arrow_star_bijection():
    g1, g2 = families.cycle(3), families.cycle(4)
    sys = build_ball_system_retrying(g1, g2, radius=2)
    c1, c2 = sys.cover1, sys.cover2
    for arrow in sys.cross_arrows():
        # the arrow's map on paths of dart indices: perm over the two domains
        domain, codomain = sys.numbering.domains[arrow.src], sys.numbering.domains[arrow.dst]
        mapping = dict(zip(domain, map(codomain.__getitem__, arrow.perm)))
        root = c1.canonical_lift(arrow.src)
        for e in sys.stars[arrow.src]:
            atom = sys.act_identity(arrow, e)
            assert sys.atom_anchor(atom) == e
            head = c1.step(root, e)
            image = c2.dart_between(mapping[root], mapping[head])
            assert sys.atom_image(atom) == len(g1.darts) + image
            # the serial renders the same map with dart ids
            assert dict(arrow.mapping)[c1.ids(head)] == c2.ids(mapping[head])


def test_coloured_ball_system_builds_and_certifies():
    colours = {"v00": "red", "v03": "red"}
    g1 = families.with_vertex_colour(families.cycle(6), colours)
    g2 = families.with_vertex_colour(families.cycle(6), colours)
    sys = build_ball_system_retrying(g1, g2, radius=1)
    from commoncover.cover_builder import build_cover, extract_certificate
    built = build_cover(sys)
    assert built.graph.vertex_colour       # colours pulled through
    cert = extract_certificate(built, sys, 2)
    assert cert.ok
