import gc

import pytest
from hypothesis import given

from commoncover import families
from commoncover.ball_system import (build_ball_system, build_ball_system_retrying,
                                     discover_atoms)
from commoncover.cover_builder import (AxiomError, build_cover,
                                       extract_certificate, retry_doubling)
from commoncover.graphs import GraphError, is_covering
from commoncover.object_graphs import build_object_cover, close_star_maps, rotation_pair
from commoncover.oracle import brute_common_cover, find_covering
from commoncover.refinement import joint_refinement
from commoncover.star_system import (STRATEGY_ALIGNED, build_star_system,
                                     build_star_system_retrying, induced_star_map)
from commoncover.universal_cover import align

from conftest import (corrupt_act, corrupt_compose, corrupt_identity_row, eps,
                      mislabel_base_vertex, reference_frontier_walk, reference_row_check,
                      substitute_composite)
from test_differential import SEEDS, _settings, related_pair


def test_star_backend_c3_c4_least_component_matches_oracle():
    sys = build_star_system(families.cycle(3), families.cycle(4))
    built = build_cover(sys)
    assert len(built.graph.vertices) == 12
    assert built.degrees == (4, 3)
    oracle = brute_common_cover(families.cycle(3), families.cycle(4), 4)
    assert oracle.found and len(oracle.cover.vertices) == 12
    assert find_covering(built.graph, families.cycle(12)) is not None


def test_identity_aligned_cover_is_the_graph_itself():
    for g in (families.cycle(3), families.complete(4)):
        sys = build_star_system_retrying(g, g, STRATEGY_ALIGNED)
        built = build_cover(sys)
        assert built.degrees == (1, 1)
        assert len(built.graph.vertices) == len(g.vertices)
        assert find_covering(built.graph, g) is not None


def test_ball_and_star_backends_both_verify_on_k4_theta3():
    g1, g2 = families.complete(4), families.theta(3)
    star_built = build_cover(build_star_system(g1, g2))
    ball_built = build_cover(build_ball_system_retrying(g1, g2, radius=1))
    for built in (star_built, ball_built):
        assert is_covering(built.mu1).ok
        assert is_covering(built.mu2).ok


def test_the_assembly_acts_on_no_arrow():
    # the atoms of the cross arrows are the tails of the identity rows that
    # the axiom check has read: the assembly reads them there
    g1, g2 = families.complete(4), families.theta(3)
    x1, x2, seeds = rotation_pair(3)

    def act_row(arrows, atom):
        raise AssertionError("the assembly acted on a row of arrows")

    for build, sys in ((build_cover, build_star_system(g1, g2)),
                       (build_cover, build_ball_system_retrying(g1, g2, radius=1)),
                       (build_object_cover, close_star_maps(x1, x2, seeds))):
        built = build(sys)
        sys.act_row = act_row
        again = build(sys)
        assert again.graph == built.graph
        assert dict(again.vertex_label) == dict(built.vertex_label)
        assert dict(again.dart_label) == dict(built.dart_label)


def cross_atom_table(sys):
    """All atoms realised by cross arrows, with their vertex multiplicity."""
    n_counts, atoms = {}, {}
    out = {x: sys.out_count(x) for x in range(len(sys.union.vertices))}
    for a in sys.cross_arrows():
        for e in sys.stars[a.src]:
            atom = sys.act_identity(a, e)
            key = sys.atom_serial(atom)
            atoms[key] = atom
            n_counts[key] = n_counts.get(key, 0) + out[a.src]
    return atoms, n_counts, out


def counting_checks(sys, built):
    """The exact matching identities behind the assembly, recomputed on a
    cover built with component="all"."""
    n = built.n_multiple
    cross = sys.cross_arrows()
    out = {x: sys.out_count(x) for x in range(len(sys.union.vertices))}
    assert len(built.graph.vertices) == sum(n // out[a.src] for a in cross)
    atoms, _, _ = cross_atom_table(sys)
    counts = {}
    for a in cross:
        for e in sys.stars[a.src]:
            key = sys.atom_serial(sys.act_identity(a, e))
            counts[key] = counts.get(key, 0) + n // out[a.src]
    total_darts = 0
    for key, count in counts.items():
        orbit = sys.orbit_size(sys.atom_anchor(atoms[key]))
        assert count == n // orbit
        total_darts += n // orbit
    assert total_darts == len(built.graph.darts)


def test_exact_counting_identities_star_backend():
    sys = build_star_system(families.cycle(3), families.cycle(4))
    built = build_cover(sys, component="all")
    counting_checks(sys, built)


def test_reversal_provenance_uses_bar():
    sys = build_star_system(families.cycle(3), families.cycle(4))
    built = build_cover(sys, component="all")
    atom_lookup = {}
    for a in sys.cross_arrows():
        for e in sys.stars[a.src]:
            atom = sys.act_identity(a, e)
            atom_lookup[sys.atom_serial(atom)] = atom
    for did in built.graph.darts:
        key, k = built.dart_label[did]
        rkey, rk = built.dart_label[built.graph.reverse[did]]
        assert rk == k
        assert sys.atom_serial(sys.bar(atom_lookup[key])) == rkey


def test_covers_land_in_matched_blocks():
    g1, g2 = families.complete(4), families.theta(3)
    joint = joint_refinement(g1, g2)
    sys = build_star_system(g1, g2, joint=joint)
    built = build_cover(sys)
    block, n1 = joint.partition.block_of, len(g1.vertices)
    for v1, v2 in zip(built.mu1.vm, built.mu2.vm):
        assert block[v1] == block[n1 + v2]


def test_colour_pullback():
    colours = {"v00": "red", "v03": "red"}
    g1 = families.with_vertex_colour(families.cycle(6), colours)
    g2 = families.with_vertex_colour(families.cycle(6), colours)
    sys = build_star_system(g1, g2)
    built = build_cover(sys)
    for v in built.graph.vertices:
        expected = g1.vertex_colour.get(built.mu1.vmap[v])
        assert built.graph.vertex_colour.get(v) == expected
        other = g2.vertex_colour.get(built.mu2.vmap[v])
        assert built.graph.vertex_colour.get(v) == other


def test_component_options():
    sys = build_star_system(families.cycle(3), families.cycle(4))
    every = build_cover(sys, component="all")
    least = build_cover(sys, component="least")
    assert sum(every.component_sizes) == len(every.graph.vertices)
    assert len(least.graph.vertices) == min(every.component_sizes)


def test_based_at_selects_seed_component():
    g1, g2 = families.cycle(3), families.cycle(3)
    sys = build_ball_system_retrying(g1, g2, radius=1)
    seed = discover_atoms(g1, g2, sys.alignment, 1, 0).vertex_arrows[0]
    built = build_cover(sys, based_at=seed)
    assert built.based_vertex in built.graph.vertices
    assert built.vertex_label[built.based_vertex] == (seed.serial, 1)


def test_a_seed_that_is_no_cross_arrow_is_refused():
    sys = build_ball_system_retrying(families.cycle(3), families.cycle(4), radius=1)
    with pytest.raises(GraphError, match="seed arrow is not a cross arrow of the system"):
        build_cover(sys, based_at=sys.groupoid.identities[0])


def test_refusal_when_axioms_not_ok():
    sys = build_star_system(families.cycle(3), families.cycle(4))
    sys.axioms.coverage_ok = False
    with pytest.raises(AxiomError):
        build_cover(sys)


def test_certificate_on_aligned_cycles():
    g = families.cycle(3)
    sys = build_ball_system_retrying(g, g, radius=1)
    built = build_cover(sys)
    cert = extract_certificate(built, sys, 3)
    assert cert.ok
    assert len(cert.entries) == 7      # the 3-ball of the line has 7 vertices
    tiny = extract_certificate(built, sys, 0)
    assert len(tiny.entries) == 1


def test_an_unknown_star_strategy_is_refused():
    with pytest.raises(GraphError, match="unknown strategy: 'nope'"):
        build_star_system(families.cycle(3), families.cycle(4), "nope")


def test_a_ball_radius_below_one_is_refused():
    g = families.cycle(3)
    with pytest.raises(GraphError, match="ball radius must be at least 1"):
        build_ball_system(g, g, 0)


def test_a_certificate_needs_a_connected_ball_cover():
    g1, g2 = families.cycle(3), families.cycle(4)
    star = build_star_system(g1, g2)
    with pytest.raises(GraphError, match="certificates require a ball-system cover"):
        extract_certificate(build_cover(star), star, 1)
    ball = build_ball_system(families.theta(3), families.complete(4), 1)
    built = build_cover(ball, component="all")
    assert [len(c) for c in built.graph.components()] == [24, 24]
    with pytest.raises(GraphError, match="certificate extraction needs a connected cover"):
        extract_certificate(built, ball, 1)


def test_certificate_fixed_ball_when_based():
    g1, g2 = families.cycle(3), families.cycle(4)
    sys = build_ball_system_retrying(g1, g2, radius=1)
    seed = discover_atoms(g1, g2, sys.alignment, 1, 0).vertex_arrows[0]
    built = build_cover(sys, based_at=seed)
    cert = extract_certificate(built, sys, 3, check_fixed_ball=True)
    assert cert.ok
    assert cert.fixes_base_ball is True


def test_a_mislabelled_cover_vertex_fails_the_certificate():
    # the labels are corrupted, not the check: the base vertex's row names
    # another cross arrow than the restriction at the root
    g1, g2 = families.cycle(3), families.cycle(4)
    sys = build_ball_system_retrying(g1, g2, radius=1)
    built = build_cover(sys)
    assert extract_certificate(built, sys, 2).ok
    mislabel_base_vertex(built, sys)
    cert = extract_certificate(built, sys, 2)
    assert cert.mismatches >= 1 and not cert.ok
    root = cert.entries[0]
    assert root.tree_vertex == () and not root.matches_label and root.witness_ok


def test_single_vertex_pair_builds_trivial_cover():
    one = families.path(1)
    built = build_cover(build_star_system(one, one))
    assert len(built.graph.vertices) == 1
    assert built.graph.darts == ()
    assert built.degrees == (1, 1)


# -- mutation tests: a broken action must fail check_axioms ------------------


def _mutated(sys, corrupt):
    """Corrupt the atom one cross arrow produces (``conftest.corrupt_act``)
    and rerun the axiom checks.

    The tests require the action law itself to fail, not only bar closure.
    """
    corrupt_act(sys, corrupt)
    return sys.check_axioms()


def _other_dart(sys, dart):
    """Another dart with the same origin, so the target law still holds."""
    return next(d for d in sys.stars[sys.union.org[dart]] if d != dart)


def _other_image(sys, atom):
    """The atom (anchor, target, positions) with the image of the anchor's
    head moved to the head of another dart at the image's origin, so that
    its image dart is that other dart."""
    e, y, r = atom
    i = sys.numbering.head_slot[e]
    moved = sys.numbering.dart_at[y].index(_other_dart(sys, sys.atom_image(atom)))
    return (e, y, r[:i] + (moved,) + r[i + 1:])


def test_wrong_image_dart_fails_axioms():
    g1, g2 = families.cycle(3), families.cycle(4)
    star = build_star_system(g1, g2)
    report = _mutated(star, lambda atom: _other_image(star, atom))
    assert not report.ok and not report.action_ok
    ball = build_ball_system_retrying(g1, g2, radius=1)
    report = _mutated(ball, lambda atom: _other_image(ball, atom))
    assert not report.ok and not report.action_ok


def test_atom_with_no_image_dart_fails_every_check():
    # a cyclic shift of the positions of a ball atom moves its head position
    # to a vertex that is no dart's head: each check reports the atom by its
    # anchor dart instead of raising
    sys = build_ball_system(families.theta(3), families.complete(4), 1)
    corrupt_act(sys, lambda atom: (atom[0], atom[1], atom[2][1:] + atom[2][:1]))
    headless = [sys.union.darts[e] for e, atoms in enumerate(sys.atoms_by_anchor)
                if None in atoms.values()]
    assert headless
    atom = next(a for atoms in sys.atoms_by_anchor for a in atoms
                if sys.atom_image(a) is None)
    assert eps(sys, atom) is None
    report = sys.check_axioms()
    assert not (report.coverage_ok or report.bar_ok or report.action_ok)
    assert report.detail in headless
    for detail in (sys._check_bar(), sys._check_action()):
        assert detail in ["no dart has the head of an atom anchored at %r" % (d,)
                          for d in headless]


_SMALL_SYSTEMS = {
    "star": lambda: build_star_system(families.cycle(3), families.cycle(4)),
    "ball": lambda: build_ball_system_retrying(families.cycle(3), families.cycle(4), 1),
    "objects": lambda: close_star_maps(*rotation_pair(3)),
}


@pytest.mark.parametrize("kind", sorted(_SMALL_SYSTEMS))
@pytest.mark.parametrize("field,message", [(1, "action target mismatch at "),
                                           (0, "action moved an atom anchor at ")],
                         ids=["target", "anchor"])
def test_an_identity_row_atom_moved_fails_the_action_check(kind, field, message):
    sys = _SMALL_SYSTEMS[kind]()
    corrupt_identity_row(sys, field)
    report = sys.check_axioms()
    assert not report.action_ok
    detail = sys._check_action()
    assert detail == reference_row_check(sys)
    assert detail == message + repr(sys.cross_arrows()[0].serial)


def test_corrupted_atom_payload_fails_axioms():
    ball = build_ball_system_retrying(families.cycle(3), families.cycle(4), radius=1)

    def move_one_image(atom):
        # the first position that is not the image of the anchor's head
        # moves to a vertex outside the atom's image; the image dart stays
        e, y, r = atom
        j = next(j for j in range(len(r)) if j != ball.numbering.head_slot[e])
        free = next(i for i in range(len(ball.numbering.domains[y])) if i not in r)
        return (e, y, r[:j] + (free,) + r[j + 1:])

    report = _mutated(ball, move_one_image)
    assert not report.ok and not report.action_ok
    x1, x2, seeds = rotation_pair(3)
    objects = close_star_maps(x1, x2, seeds)

    def rotate_vertices(atom):
        # the block of a dart is its own point, then the three vertices of
        # its edge object, then the edges: the vertex images rotate by one
        # place, and the image dart stays
        e, y, r = atom
        return (e, y, r[:1] + r[2:4] + r[1:2] + r[4:])

    report = _mutated(objects, rotate_vertices)
    assert not report.ok and not report.action_ok


# -- the action-law check composes each pair it needs once per origin ---------


def _recheck_counting(sys, monkeypatch):
    """Rerun check_axioms with the composed pairs counted: the entries of
    the rows of the arrow class's ``compose_row``."""
    pairs = [0]
    cls = type(sys.groupoid.arrows[0])
    compose_row = cls.compose_row

    def counted(self, tables, tail=None):
        row = list(compose_row(self, tables, tail))
        pairs[0] += len(row)
        return row

    monkeypatch.setattr(cls, "compose_row", counted)
    sys.axioms = None
    report = sys.check_axioms()
    monkeypatch.undo()
    return report, pairs[0]


@pytest.mark.parametrize("build,composed", [
    (lambda: build_star_system_retrying(families.theta(3), families.complete(4),
                                        STRATEGY_ALIGNED), 6696),
    (lambda: build_star_system(families.theta(3), families.complete_bipartite(3, 3)),
     15744),
    (lambda: build_ball_system_retrying(families.complete(4), families.theta(3), 1),
     6696),
], ids=["star-aligned-theta3-k4", "star-dr-theta3-k33", "ball-R1-k4-theta3"])
def test_action_check_composes_at_most_the_composable_pairs(build, composed,
                                                            monkeypatch):
    sys = build()
    gpd = sys.groupoid
    report, pairs = _recheck_counting(sys, monkeypatch)
    assert report.ok
    # the composable pairs: sum over b of |out(dst b)|
    assert pairs <= sum(gpd.out_count(b.dst) for b in gpd.arrows)
    # each pair the check needs, composed once per origin: batching the
    # rows must neither drop a pair nor add one
    assert pairs == composed


def test_composite_with_another_target_fails_the_action_check(monkeypatch):
    # the key of h after r becomes that of an arrow w out of the same object
    # with the same perm but another target: the action half of the row key
    # carries h's own target, so no arrow's key matches it
    sys = build_star_system_retrying(families.theta(3), families.complete(4),
                                     STRATEGY_ALIGNED)
    gpd = sys.groupoid

    def pairs():
        for x in range(len(sys.union.vertices)):
            r = gpd.by_source[x][0]
            for h in gpd.by_source[r.dst]:
                perm = h.compose(r).perm
                for w in gpd.by_source[x]:
                    if w.perm == perm and w.dst != h.dst:
                        yield h, r, w

    h, r, w = next(pairs())
    assert sys.axioms.ok
    substitute_composite(monkeypatch, h, r, w)
    sys.axioms = None
    report = sys.check_axioms()
    assert not report.action_ok


def test_wrong_composite_fails_the_action_check(monkeypatch):
    # the ball system on C3 and C4 has one arrow per hom set, so no wrong
    # arrow with the same source and target exists there
    x1, x2, seeds = rotation_pair(3)
    k4, th3 = families.complete(4), families.theta(3)
    for sys in (build_star_system(families.cycle(3), families.cycle(4)),
                build_ball_system_retrying(k4, th3, 1),
                close_star_maps(x1, x2, seeds)):
        assert sys.axioms.ok
        assert corrupt_compose(sys, monkeypatch)
        sys.axioms = None
        report = sys.check_axioms()
        monkeypatch.undo()
        assert not report.action_ok, sys.kind


def test_retry_doubling_grows_a_zero_radius():
    radii = []

    def build(radius):
        radii.append(radius)
        raise AxiomError("closure axioms unmet", radius=radius)

    with pytest.raises(AxiomError):
        retry_doubling(build, 0)
    assert radii == [0, 1, 2, 4, 8]


def _aligned_star(g1, g2, rho):
    return build_star_system_retrying(g1, g2, STRATEGY_ALIGNED, rho)


def _ball(g1, g2, rho):
    return build_ball_system_retrying(g1, g2, 1, rho)


def _walked(sys) -> list:
    """The (key, witness) of each arrow a system was saturated from."""
    arrows = sys.discovered.vertex_arrows if sys.kind == "ball" else sys.atom_arrows
    return [(a.key, a.witness) for a in arrows]


def _walked_from_scratch(sys) -> list:
    """``_walked`` for a walk on a new alignment at the system's final radius:
    ``discover_atoms`` for a ball system, the first induced star map per key
    over the reference walk for a star system."""
    g1, g2, rho = sys.g1, sys.g2, sys.explore_radius
    alignment = align(g1, g2, joint_refinement(g1, g2))
    if sys.kind == "ball":
        found = discover_atoms(g1, g2, alignment, sys.radius, rho)
        return [(a.key, a.witness) for a in found.vertex_arrows]
    first = {}
    for z in reference_frontier_walk(alignment.c1, rho):
        arrow = induced_star_map(alignment, z, sys.numbering)
        first.setdefault(arrow.key, arrow)
    return [(first[k].key, first[k].witness) for k in sorted(first)]


@pytest.mark.parametrize("build,pair", [
    (_aligned_star, (families.theta(3), families.complete(4))),
    (_ball, (families.complete(4), families.theta(3))),
], ids=["star-aligned-theta3-k4", "ball-R1-k4-theta3"])
def test_a_retry_walks_as_a_build_at_its_final_radius(build, pair):
    # explore 0 fails its axioms at 0 and 1 and holds at 2
    sys = build(*pair, 0)
    assert sys.explore_radius == 2
    assert _walked(build(*pair, 2)) == _walked(sys)
    assert _walked(sys) == _walked_from_scratch(sys)


@_settings(20)
@given(SEEDS)
def test_a_retried_build_walks_as_a_walk_from_scratch(seed):
    g1, g2, _ = related_pair(seed)
    for build in (_aligned_star, _ball):
        sys = build(g1, g2, 0)
        assert _walked(sys) == _walked_from_scratch(sys)


@pytest.mark.parametrize("build,pair", [
    (_aligned_star, (families.theta(3), families.complete(4))),
    (_ball, (families.complete(4), families.theta(3))),
], ids=["star-aligned", "ball-R1"])
def test_a_build_leaves_no_reference_cycle(build, pair):
    # a built system holds no reference cycle: it is freed by reference
    # counting, not by the cycle collector
    gc.collect()
    gc.disable()
    try:
        build(*pair, None)
        assert gc.collect() == 0
    finally:
        gc.enable()
