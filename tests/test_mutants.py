"""The mutant table: one row per check that no valid input reaches.

A row corrupts an input or an intermediate structure -- a groupoid, a
numbering, a system's action, a face table, a subdivision -- before a check
runs, and asserts that the check refuses it.  A row never edits a check.

The first rows stand for facts that the discovery walk, the assembly,
gluing, the regular path and the alignment rely on with no check of their
own, since an earlier check on the same path implies them: each corrupts
what the fact is about, ahead of that earlier check, and asserts that the
earlier check refuses it.  Where no corruption can break a fact, the row
pins the identity that makes it hold.  The rows after them reach the
implied checks that are kept, each through the corruption it guards
against.

Older mutant helpers in ``conftest`` serve rows kept beside the checks
they break, each named here with the test that uses it:

* ``corrupt_act`` (the atom a cross arrow produces) --
  ``test_cover_builder::test_wrong_image_dart_fails_axioms``;
* ``corrupt_compose`` (a composite replaced by another arrow) --
  ``test_cover_builder::test_wrong_composite_fails_the_action_check``;
* ``corrupt_identity_row`` (an identity-row atom moved) --
  ``test_cover_builder::test_an_identity_row_atom_moved_fails_the_action_check``
  and this table's ``test_an_atom_matched_to_too_many_vertices_fails_the_axioms``;
* ``mislabel_base_vertex`` (a cover vertex's provenance label) --
  ``test_cover_builder::test_a_mislabelled_cover_vertex_fails_the_certificate``.
"""

import pytest

from commoncover import ball_system, cover_builder, families, oracle, regular
from commoncover.ball_system import build_ball_system, build_ball_system_retrying, verify_witness
from commoncover.cli import SchemaError, _graph_from_data
from commoncover.cover_builder import AxiomError, build_cover, extract_certificate
from commoncover.gluing import (FaceClass, PairsAndFaces, assemble, build_glued_cover,
                                contract_subdivided, enumerate_pairs, gluing_weights,
                                subdivide_graph)
from commoncover.graphs import (Graph, GraphError, GraphMorphism, VerificationError,
                                finish_cover)
from commoncover.groupoids import FiniteGroupoid
from commoncover.object_graphs import build_object_cover, close_star_maps, rotation_pair
from commoncover.refinement import JointBlocks, Partition, joint_refinement
from commoncover.regular import factorize_regular, regular_common_cover
from commoncover.star_system import STRATEGY_ALIGNED, build_star_system
from commoncover.universal_cover import UniversalCover, align, build_alignment

from conftest import corrupt_identity_row, is_equitable


def _once(monkeypatch):
    """Aligned builds make one attempt: no radius doubling after a failure."""
    monkeypatch.setattr(cover_builder, "RETRY_DOUBLINGS", 0)


def _spoil_saturation(monkeypatch, spoil):
    """``build_aligned`` saturates into ``spoil(groupoid)``: a corrupted
    groupoid, made before the system's axioms are checked."""
    saturate = cover_builder.saturate
    monkeypatch.setattr(cover_builder, "saturate", lambda *args: spoil(saturate(*args)))


def _without(groupoid, drop, identities=None) -> FiniteGroupoid:
    """The groupoid without the arrows for which ``drop`` holds."""
    return FiniteGroupoid(groupoid.objects, tuple(a for a in groupoid.arrows if not drop(a)),
                          groupoid.identities if identities is None else identities)


def _rechecked(sys, groupoid=None):
    """The system with its groupoid replaced and its cached rows and
    axiom report dropped, so that its next ``require_axioms`` checks again."""
    if groupoid is not None:
        sys.groupoid = groupoid
    for name in ("identity_rows", "atoms_by_anchor", "_cross"):
        sys.__dict__.pop(name, None)
    sys.axioms = None
    return sys


def _loop_at(groupoid, x):
    """The first arrow from object x to itself that is not its identity."""
    return next(a for a in groupoid.by_source[x] if a.dst == x and a != groupoid.identities[x])


# -- implied: the walk's edge atoms lie in their orbits -----------------------


def test_a_groupoid_that_lost_a_walked_arrow_fails_its_axioms(monkeypatch):
    # the cross arrow at the root is a generator; without it, its identity
    # atoms lie in no orbit, which the closure axioms refuse
    g1, g2 = families.cycle(6), families.theta(2)
    n1 = len(g1.vertices)
    _spoil_saturation(monkeypatch, lambda g: _without(
        g, lambda a: a.key == next(b.key for b in g.by_source[0] if b.dst >= n1)))
    with pytest.raises(AxiomError, match="closure axioms unmet at radius 4"):
        build_ball_system(g1, g2, 1, 4)


@pytest.mark.parametrize("pair", [(families.complete(4), families.theta(3)),
                                  (families.cycle(3), families.cycle(4))],
                         ids=["k4-theta3", "c3-c4"])
def test_every_walked_arrow_keeps_its_identity_atoms_in_their_orbits(pair):
    # saturation keeps every generator, so g.id_e is in the atom set of e
    sys = build_ball_system_retrying(*pair, 1)
    for arrow in sys.discovered.vertex_arrows:
        for e in sys.stars[arrow.src]:
            assert sys.act_identity(arrow, e) in sys.atoms_by_anchor[e]


# -- implied: the counts build_cover assembles by -----------------------------


def test_an_object_without_arrows_fails_coverage():
    # no arrow out of 1:v00, and no identity: no cross arrow reaches it
    sys = build_star_system(families.complete(4), families.theta(3))
    g = sys.groupoid
    ids = {x: a for x, a in g.identities.items() if x != 0}
    _rechecked(sys, _without(g, lambda a: a.src == 0, ids))
    with pytest.raises(AxiomError, match="failing item '1:v00'"):
        build_cover(sys)


def test_an_orbit_that_divides_no_arrow_count_fails_the_orbit_stabilizer_check():
    # one automorphism of 1:v00 gone: 35 arrows out of it, 18 atoms per dart
    sys = build_star_system(families.complete(4), families.theta(3))
    loop = _loop_at(sys.groupoid, 0)
    _rechecked(sys, _without(sys.groupoid, lambda a: a.key == loop.key))
    with pytest.raises(AxiomError, match="orbit-stabilizer count fails at '1:e00.a'"):
        build_cover(sys)


def test_an_atom_matched_to_too_many_vertices_fails_the_axioms():
    # one cross arrow's identity atom moved to another anchor at its source
    sys = build_star_system(families.cycle(3), families.cycle(6))
    corrupt_identity_row(sys, 0)
    with pytest.raises(AxiomError, match="closure axioms unmet"):
        build_cover(_rechecked(sys))


def test_an_atom_whose_bar_is_no_cross_atom_fails_bar_closure():
    # the first cross arrow gone: the bars of its atoms lie in no orbit
    sys = build_star_system(families.cycle(3), families.cycle(6))
    first = sys.cross_arrows()[0]
    _rechecked(sys, _without(sys.groupoid, lambda a: a.key == first.key))
    with pytest.raises(AxiomError, match="closure axioms unmet"):
        build_cover(sys)


# -- implied: every face has two sides, and they balance ----------------------


def test_a_bar_that_leaves_a_face_one_sided_fails_the_glue_build(monkeypatch):
    # the transport across the last dart of the union moves every position
    # out of the neighbourhood, so the bars of the atoms over it are no atoms
    numbering = ball_system.ball_numbering

    def spoiled(*args):
        out = numbering(*args)
        move = out.move[-1]
        out.move[-1] = b"\xff" * len(move) if isinstance(move, bytes) else [-1] * len(move)
        return out

    monkeypatch.setattr(ball_system, "ball_numbering", spoiled)
    _once(monkeypatch)
    with pytest.raises(AxiomError, match="closure axioms unmet"):
        build_glued_cover(families.cycle(4), families.cycle(2), 1, 4)


def test_a_face_whose_sides_do_not_balance_fails_the_glue_build(monkeypatch):
    # the identity arrow of 1:v00 left out of the saturated groupoid
    _spoil_saturation(monkeypatch, lambda g: _without(g, lambda a: a.key == g.identities[0].key))
    _once(monkeypatch)
    with pytest.raises(AxiomError, match="closure axioms unmet"):
        build_glued_cover(families.cycle(6), families.theta(2), 1, 5)


def test_a_system_given_to_the_glue_build_is_held_to_its_axioms():
    # the corruption of the one-sided-face row, on a built system
    g1, g2 = families.cycle(4), families.cycle(2)
    sys = build_ball_system_retrying(g1, g2, 1)
    move = sys.numbering.move[-1]
    sys.numbering.move[-1] = b"\xff" * len(move) if isinstance(move, bytes) else [-1] * len(move)
    with pytest.raises(AxiomError, match="closure axioms unmet"):
        build_glued_cover(g1, g2, sys=_rechecked(sys))


@pytest.mark.parametrize("pair", [(families.cycle(6), families.theta(2)),
                                  (families.cycle(3), families.cycle(6)),
                                  (families.rose(2), families.theta(4))],
                         ids=["c6-theta2", "c3-c6", "rose2-theta4"])
def test_every_face_balances_by_the_orbit_stabilizer_law(pair):
    # a side sum is (side count) * scale / out-count, so it equals scale /
    # orbit size exactly when the side's cosets fill the out-count
    sys = build_ball_system_retrying(*pair, 1)
    try:
        data = enumerate_pairs(sys)
    except VerificationError:                   # no orientation: subdivide
        sys = build_ball_system_retrying(*map(lambda g: subdivide_graph(g).graph, pair), 1)
        data = enumerate_pairs(sys)
    weights = gluing_weights(sys, data)
    for face in data.faces.values():
        e = sys.atom_anchor(face.atom)
        x, y = sys.union.org[e], sys.union.org[sys.union.rev[e]]
        assert len(face.left) * sys.orbit_size(e) == sys.out_count(x)
        assert len(face.right) * sys.orbit_size(sys.union.rev[e]) == sys.out_count(y)
        for side in (face.left, face.right):
            assert sum(map(weights.weight, side)) == weights.scale // sys.orbit_size(e)


# -- implied: the regular pullback's size, and 2-factors of even degree only --


@pytest.mark.parametrize("pair", [(families.complete(5), families.complete_bipartite(4, 4)),
                                  (families.complete(4), families.complete_bipartite(3, 3)),
                                  (families.cycle(3), families.cycle(4))],
                         ids=["k5-k44", "k4-k33", "c3-c4"])
def test_the_regular_pullback_has_exactly_the_bound(pair):
    cover = regular_common_cover(*pair, component="all")
    assert len(cover.graph.vertices) == cover.extra["bound"]


def test_an_odd_degree_never_splits_into_2_factors(monkeypatch):
    def refused(g, k):
        raise AssertionError("2-factors of a %d-regular graph" % k)

    monkeypatch.setattr(regular, "_two_factors", refused)
    for g in (families.complete(4), families.complete_bipartite(3, 3), families.theta(5)):
        assert factorize_regular(g).kind == "odd"


# -- implied: a cover may take the first input's colours ----------------------


@pytest.mark.parametrize("coloured", [
    lambda g: families.with_vertex_colour(g, {"v00": "red", "v03": "red"}),
    lambda g: Graph(g.vertices, g.darts, g.origin, g.reverse, None,
                    {d: "red" for d in g.darts if d.startswith(("e00", "e03"))}),
], ids=["vertex", "dart"])
@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
def test_a_pair_coloured_on_one_side_is_refused_before_assembly(coloured, first):
    # build_cover gives the cover g1's colours: where the joint refinement
    # lets a pair through, g2's agree with them, a missing colour included
    plain = families.cycle(6)
    g1, g2 = (coloured(plain), plain) if first else (plain, coloured(plain))
    assert not joint_refinement(g1, g2).ok
    for build in (build_star_system, lambda g1, g2: build_star_system(g1, g2, STRATEGY_ALIGNED),
                  lambda g1, g2: build_ball_system(g1, g2, 1)):
        with pytest.raises(GraphError, match="no common universal cover"):
            build(g1, g2)


# -- implied: an alignment's joint blocks are checked once --------------------


@pytest.mark.parametrize("build", [
    lambda g1, g2: build_star_system(g1, g2, STRATEGY_ALIGNED),
    lambda g1, g2: build_ball_system(g1, g2, 1),
    lambda g1, g2: build_alignment(UniversalCover(g1), UniversalCover(g2),
                                   joint_refinement(g1, g2)),
], ids=["star-aligned", "ball", "build_alignment"])
def test_joint_blocks_without_a_common_cover_are_refused_once(build):
    with pytest.raises(GraphError, match="no common universal cover"):
        build(families.cycle(3), families.complete(4))


def test_an_alignment_matches_every_dart_of_an_equitable_partition():
    # the pools of the greedy matching never run out and never keep a dart
    pairs = [(families.complete(4), families.theta(3)), (families.rose(2), families.theta(4)),
             (families.cycle(3), families.cycle(6)),
             (families.complete(4), families.complete_bipartite(3, 3))]
    for g1, g2 in pairs:
        joint = joint_refinement(g1, g2)
        assert is_equitable(joint.partition)
        alignment = align(g1, g2, joint)
        alignment.ensure_radius(4)
        assert (len(alignment.fwd) == len(alignment.bwd)
                == alignment.c1.tree_size(4) == alignment.c2.tree_size(4))
        types1, types2 = alignment._types
        for z1, z2 in alignment.fwd.items():
            assert z1 == () or types1[z1[-1]] == types2[z2[-1]]


# -- implied checks that stay -------------------------------------------------


def test_a_groupoid_without_an_identity_fails_the_action_check():
    sys = build_star_system(families.complete(4), families.theta(3))
    del sys.groupoid.identities[0]
    with pytest.raises(AxiomError, match="identity action fails over '1:v00'"):
        _rechecked(sys).require_axioms()


def test_an_identity_that_moves_an_atom_fails_the_action_check():
    sys = build_star_system(families.complete(4), families.theta(3))
    sys.groupoid.identities[0] = _loop_at(sys.groupoid, 0)
    with pytest.raises(AxiomError, match="identity action fails over '1:v00'"):
        _rechecked(sys).require_axioms()



def test_an_identity_whose_object_lost_every_arrow_fails_the_action_check():
    sys = build_star_system(families.complete(4), families.theta(3))
    # the identity of 1:v00 stays in ``identities`` but in no arrow list
    _rechecked(sys, _without(sys.groupoid, lambda a: a.src == 0))
    assert sys._check_action() == "identity action fails over '1:v00'"
    with pytest.raises(AxiomError, match="closure axioms unmet"):
        sys.require_axioms()

def test_a_restriction_outside_the_groupoid_fails_the_certificate():
    sys = build_ball_system_retrying(families.cycle(3), families.cycle(4), 1)
    built = build_cover(sys)
    root = sys.discovered.root
    sys.groupoid = _without(sys.groupoid, lambda a: a.key == root.key)
    with pytest.raises(VerificationError, match="ball restriction escaped"):
        extract_certificate(built, sys, 2)


def test_a_witness_with_a_letter_out_of_turn_fails():
    sys = build_ball_system_retrying(families.cycle(3), families.cycle(4), 1)
    arrow = sys.discovered.root
    assert verify_witness(arrow, sys)
    arrow.witness = (("p2", ()),) + arrow.witness       # the second side's letter first
    assert not verify_witness(arrow, sys)


def test_a_joint_partition_that_is_not_equitable_fails_the_star_build():
    # every vertex of two paths in one block, with the dart types of the
    # true partition, which tell the middle vertex from the ends
    g1, g2 = families.path(3), families.path(3)
    joint = joint_refinement(g1, g2)
    part = joint.partition
    n = len(joint.union.vertices)
    merged = Partition(part.graph, [0] * n, (tuple(range(n)),), part.types)
    with pytest.raises(AxiomError, match="joint partition is not equitable"):
        build_star_system(g1, g2, joint=JointBlocks(True, joint.union, merged))


def _glue_data():
    sys = build_ball_system_retrying(families.cycle(6), families.theta(2), 1)
    data = enumerate_pairs(sys)
    return sys, data, gluing_weights(sys, data)


def test_a_face_with_fewer_slots_on_one_side_fails_assembly():
    sys, data, weights = _glue_data()
    key = min(data.faces)
    face = data.faces[key]
    faces = {**data.faces, key: FaceClass(face.atom, face.serial, face.left[1:], face.right)}
    with pytest.raises(VerificationError, match="slot imbalance"):
        assemble(sys, PairsAndFaces(data.pairs, faces), weights)


def _subdivided_glue():
    g1, g2 = families.rose(2), families.theta(4)
    info1, info2 = subdivide_graph(g1), subdivide_graph(g2)
    sys = build_ball_system_retrying(info1.graph, info2.graph, 1)
    data = enumerate_pairs(sys)
    return assemble(sys, data, gluing_weights(sys, data)), info1, info2, g1, g2


def test_midpoints_over_only_one_input_fail_the_contraction():
    glued, info1, info2, g1, g2 = _subdivided_glue()
    # the second input's vertex 0 read as a midpoint
    info2.vertex_of = [-1 if x == 0 else x for x in info2.vertex_of]
    with pytest.raises(VerificationError, match="midpoint fibres disagree"):
        contract_subdivided(glued, info1, info2, g1, g2)


def test_a_midpoint_of_degree_four_fails_the_contraction():
    glued, info1, info2, g1, g2 = _subdivided_glue()
    # the first input's one vertex, of degree 4, read as a midpoint
    info1.vertex_of = [-1] * len(info1.vertex_of)
    info2.vertex_of = [-1] * len(info2.vertex_of)
    with pytest.raises(VerificationError, match="midpoint degree"):
        contract_subdivided(glued, info1, info2, g1, g2)


def test_an_assembled_graph_whose_reversal_is_no_involution_fails_the_exit():
    g = families.cycle(3)
    rev = list(g.rev)
    rev[0] = rev[2]                                 # two darts reverse to one
    graph = Graph.from_tables(g.vertices, g.darts, g.org, rev)
    mu = GraphMorphism.from_tables(graph, g, list(range(3)), list(range(6)))
    with pytest.raises(VerificationError, match="assembled graph invalid"):
        finish_cover(mu, mu)


@pytest.mark.parametrize("kind, column", [("vertex", 0), ("dart", 1)])
def test_a_cover_element_recoloured_after_assembly_fails_the_exit(monkeypatch, kind, column):
    g = families.with_vertex_colour(families.cycle(3), {"v00": "red"})
    g = Graph(g.vertices, g.darts, g.origin, g.reverse, g.vertex_colour, {"e00.a": "blue"})
    real = cover_builder.finish_cover

    def recoloured(mu1, mu2, *args, **kwargs):
        # the first element of the kind turns green, mapped where it was
        c = mu1.source
        columns = [list(c.vcol), list(c.dcol)]
        columns[column][0] = "green"
        c = Graph.from_tables(c.vertices, c.darts, c.org, c.rev, *columns)
        return real(*[GraphMorphism.from_tables(c, mu.target, mu.vm, mu.dm)
                      for mu in (mu1, mu2)], *args, **kwargs)

    monkeypatch.setattr(cover_builder, "finish_cover", recoloured)
    with pytest.raises(VerificationError, match="mu1: not a graph morphism: %s colour not "
                       "preserved at '%s000000'" % (kind, kind[0])):
        build_cover(build_star_system(g, g))


def test_an_object_cover_with_an_edge_map_between_other_objects_is_invalid(monkeypatch):
    x1, x2, seeds = rotation_pair(3)
    sys = close_star_maps(x1, x2, seeds)
    # the first input's edge morphisms replaced by those of order 4
    monkeypatch.setattr(x1, "edge_morphisms", rotation_pair(4)[0].edge_morphisms)
    with pytest.raises(VerificationError, match="object cover invalid"):
        build_object_cover(sys)


def test_an_object_cover_with_a_wrong_vertex_morphism_fails_its_covering_check(monkeypatch):
    x1, x2, seeds = rotation_pair(3)
    sys = close_star_maps(x1, x2, seeds)
    shifted = rotation_pair(3)[2][1].vertex_map         # a rotation by one step
    monkeypatch.setattr(sys, "vertex_map", lambda arrow: shifted)
    with pytest.raises(VerificationError, match="mu2: "):
        build_object_cover(sys)


def _folded(cover, target):
    """A graph morphism onto the one-loop rose that sends both darts at the
    first vertex of a 2-cycle to one dart: no covering."""
    first = cover.stars()[0]
    dm = [0 if d in first else 1 for d in range(len(cover.darts))]
    return GraphMorphism.from_tables(cover, target, [0] * len(cover.vertices), dm)


def test_a_voltage_cover_that_does_not_cover_fails_the_oracle(monkeypatch):
    real = oracle.permutation_cover

    def folded(g, degree, voltages):
        cover, proj = real(g, degree, voltages)
        return cover, (_folded(cover, g) if cover.is_connected() and degree == 2 else proj)

    monkeypatch.setattr(oracle, "permutation_cover", folded)
    with pytest.raises(VerificationError, match="voltage cover is not a covering"):
        oracle.brute_common_cover(families.rose(1), families.cycle(2), 2)


def test_a_search_result_that_does_not_cover_fails_the_oracle(monkeypatch):
    class Folding(GraphMorphism):
        @classmethod
        def from_tables(cls, source, target, vm, dm):
            return _folded(source, target)

    monkeypatch.setattr(oracle, "GraphMorphism", Folding)
    with pytest.raises(VerificationError, match="oracle produced a non-covering morphism"):
        oracle.find_covering(families.cycle(2), families.rose(1))


def test_matchings_that_are_no_factorization_fail_the_regular_covering(monkeypatch):
    real = regular._matchings

    def swapped(g, k, colour):
        # one edge of the second matching moved into the first: a vertex
        # with two darts of one colour and none of the other
        factors = real(g, k, colour)
        d = min(factors[1])
        edge = {d, g.rev[d]}
        return [factors[0] | edge, factors[1] - edge, *factors[2:]]

    monkeypatch.setattr(regular, "_matchings", swapped)
    with pytest.raises(VerificationError, match="path map is not a covering"):
        factorize_regular(families.complete(4))


def test_a_matching_that_leaves_a_vertex_out_is_refused(monkeypatch):
    monkeypatch.setattr(regular, "max_bipartite_matching", lambda adjacency: {})
    with pytest.raises(GraphError, match="no perfect matching in a regular bipartite graph"):
        factorize_regular(families.complete(4))


MALFORMED = {
    "vertex-no-object": ([["v"]], [], "vertices[0]: needs a string 'id'"),
    "vertex-id-no-string": ([{"id": 5}], [], "vertices[0]: needs a string 'id'"),
    "vertex-colour-no-string": ([{"id": "v", "colour": 1}], [],
                                "vertices[0]: 'colour' must be a string"),
    "dart-no-object": ([{"id": "v"}], ["d"], "darts[0]: needs a string 'id'"),
    "dart-without-from": ([{"id": "v"}], [{"id": "d", "reverse": "d"}],
                          "darts[0]: needs a string 'from'"),
    "dart-reverse-no-string": ([{"id": "v"}], [{"id": "d", "reverse": ["d"], "from": "v"}],
                               "darts[0]: needs a string 'reverse'"),
    "dart-colour-no-string": ([{"id": "v"}], [{"id": "d", "reverse": "d", "from": "v",
                                               "colour": {}}],
                              "darts[0]: 'colour' must be a string"),
}


@pytest.mark.parametrize("vertices,darts,named", MALFORMED.values(), ids=MALFORMED.keys())
def test_every_entry_that_breaks_the_graph_columns_is_named(vertices, darts, named):
    # the entries that make the columns raise KeyError or TypeError are
    # exactly those that fail a per-entry check, so the loader's fallback
    # message for a file with no such entry is never given
    with pytest.raises(SchemaError) as caught:
        _graph_from_data({"vertices": vertices, "darts": darts}, "g.json")
    assert str(caught.value) == "g.json: " + named
