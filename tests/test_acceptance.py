"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v` to get one line per criterion.
"""

import math
import os
import random
from math import lcm

import pytest

from commoncover import families
from commoncover.ball_system import build_ball_system_retrying, discover_atoms
from commoncover.bounds import bound_report, landau, landau_exact
from commoncover.cli import dump_graph, main, write_json
from commoncover.cover_builder import build_cover, extract_certificate
from commoncover.gluing import (assemble, build_glued_cover, enumerate_pairs,
                                gluing_weights)
from commoncover.graphs import finish_cover, is_covering
from commoncover.object_graphs import (SeedSpec, build_object_cover,
                                       close_star_maps, obj_identity,
                                       rotation_pair, verify_object_covering)
from commoncover.oracle import (_non_tree_reps, brute_common_cover,
                                brute_landau, find_covering,
                                permutation_cover)
from commoncover.refinement import common_cover_exists, joint_refinement
from commoncover.regular import factorize_regular, regular_common_cover
from commoncover.star_system import build_star_system

from conftest import (check_ball_divisors, check_object_divisors, factors_of, lollipop,
                      random_base_graph)
from test_cover_builder import counting_checks

SEED = 20260810


# -- criterion 1: core star-backend construction ------------------------------


def _random_cover(g, degree, rng, tries=30):
    if degree == 1:
        return permutation_cover(g, 1, {})[0]
    reps = _non_tree_reps(g)
    for _ in range(tries):
        voltages = {rep: tuple(rng.sample(range(degree), degree))
                    for rep in reps}
        cover, _ = permutation_cover(g, degree, voltages)
        if cover.is_connected():
            return cover
    return permutation_cover(g, 1, {})[0]


def _predicted_size(joint):
    part, union = joint.partition, joint.union
    out_values, per_block = [], []
    darts, colour, rev = union.darts, union.dart_colour, union.rev
    for block in part.blocks:
        star = union.stars()[block[0]]
        counts = {}
        for d in star:
            t = (colour.get(darts[d]), colour.get(darts[rev[d]]),
                 part.block_of[union.org[rev[d]]])
            counts[t] = counts.get(t, 0) + 1
        bij = 1
        for c in counts.values():
            bij *= math.factorial(c)
        out_values.append(len(block) * bij)
        n1 = sum(1 for w in block if union.vertices[w].startswith("1:"))
        per_block.append((len(block), n1, len(block) - n1, len(star)))
    n = 1
    for o in out_values:
        n = lcm(n, o)
    v_pred = sum(n1 * n2 * n // size for size, n1, n2, _ in per_block)
    e_pred = sum(n1 * n2 * (n // size) * deg for size, n1, n2, deg in per_block)
    return v_pred, e_pred


def _corpus(count=50):
    rng = random.Random(SEED)
    pairs = []
    while len(pairs) < count:
        base = random_base_graph(rng)
        h1 = _random_cover(base, rng.choice((1, 1, 2, 2, 3)), rng)
        h2 = _random_cover(base, rng.choice((1, 1, 2, 2, 3)), rng)
        joint = joint_refinement(h1, h2)
        if not joint.ok:
            continue
        v_pred, e_pred = _predicted_size(joint)
        if v_pred > 4000 or e_pred > 20000:
            continue
        pairs.append((h1, h2, joint))
    return pairs


def test_criterion_1_star_backend_corpus():
    pairs = _corpus(50)
    for h1, h2, joint in pairs:
        sys = build_star_system(h1, h2, joint=joint)
        built = build_cover(sys, component="all")
        assert is_covering(built.mu1).ok
        assert is_covering(built.mu2).ok
        counting_checks(sys, built)
    print("PASS criterion 1: %d/50 corpus pairs built, verified, and counted "
          "exactly" % len(pairs))


# -- criterion 2: oracle equivalence ------------------------------------------


TINY_PAIRS = [
    (families.rose(1), families.theta(2), True),
    (families.theta(2), families.cycle(3), True),
    (families.cycle(3), families.cycle(3), True),
    (families.theta(3), families.theta(3), True),
    (families.path(3), families.path(3), True),
    (families.rose(1), families.cycle(3), True),
    (lollipop(), lollipop(), True),
    (families.path(2), families.path(3), False),
    (families.path(3), families.path(4), False),
    (families.complete_bipartite(1, 3), families.theta(3), False),
    (lollipop(), families.rose(1), False),
    (families.path(2), families.path(2), True),
]


def test_criterion_2_oracle_equivalence():
    assert len(TINY_PAIRS) >= 10
    for g1, g2, expected in TINY_PAIRS:
        assert len(g1.darts) <= 6 and len(g2.darts) <= 6
        exists, _ = common_cover_exists(g1, g2)
        assert exists == expected
        result = brute_common_cover(g1, g2, 6)
        assert not result.budget_exceeded
        assert result.found == expected
        # the decision procedure agrees with constructive success
        if exists:
            built = build_cover(build_star_system(g1, g2))
            assert is_covering(built.mu1).ok and is_covering(built.mu2).ok
        else:
            with pytest.raises(Exception):
                build_star_system(g1, g2)
    oracle = brute_common_cover(families.cycle(3), families.cycle(4), 6)
    assert oracle.found and len(oracle.cover.vertices) == 12
    built = build_cover(build_star_system(families.cycle(3), families.cycle(4)))
    assert len(built.graph.vertices) == 12
    print("PASS criterion 2: oracle agrees with the decision procedure on "
          "%d tiny pairs; (C3, C4) minimum is 12 on both routes"
          % len(TINY_PAIRS))


# -- criteria 3, 4, 6 share the ball systems ----------------------------------


BALL_FIXTURES = [
    ("c3-c3", families.cycle(3), families.cycle(3)),
    ("c3-c4", families.cycle(3), families.cycle(4)),
    ("k4-th3", families.complete(4), families.theta(3)),
]


@pytest.fixture(scope="module")
def ball_systems():
    out = {}
    for name, g1, g2 in BALL_FIXTURES:
        for radius in (1, 2):
            out[(name, radius)] = build_ball_system_retrying(g1, g2, radius)
    return out


def test_criterion_3_ball_restricted(ball_systems):
    checked = 0
    for (name, radius), sys in sorted(ball_systems.items()):
        built = build_cover(sys)
        assert is_covering(built.mu1).ok and is_covering(built.mu2).ok
        cert = extract_certificate(built, sys, 3)
        assert cert.mismatches == 0
        assert all(e.witness_ok and e.matches_label for e in cert.entries)
        seed = discover_atoms(sys.g1, sys.g2, sys.alignment,
                              radius, 0).vertex_arrows[0]
        based = build_cover(sys, based_at=seed)
        based_cert = extract_certificate(based, sys, 3, check_fixed_ball=True)
        assert based_cert.mismatches == 0
        assert based_cert.fixes_base_ball is True
        checked += 1
    print("PASS criterion 3: %d fixture/radius ball covers verified with "
          "exact certificates; based builds fix the base ball" % checked)


def test_criterion_4_bounds(ball_systems):
    for (name, radius), sys in sorted(ball_systems.items()):
        built = build_cover(sys, component="all")
        d = max(max(sys.g1.degree(v) for v in sys.g1.vertices),
                max(sys.g2.degree(v) for v in sys.g2.vertices))
        v_total = len(sys.g1.vertices) + len(sys.g2.vertices)
        report = bound_report("ball", d=d, radius=radius, v=v_total,
                              actual=len(built.graph.vertices))
        assert report.satisfied
        for _, count, divisor, ok in check_ball_divisors(sys):
            assert ok and divisor % count == 0
    x1, x2, seeds = rotation_pair(3)
    obj_sys = close_star_maps(x1, x2, seeds)
    for _, count, divisor, ok in check_object_divisors(obj_sys):
        assert ok
    for n in range(1, 31):
        exact = landau_exact(n)
        assert exact == brute_landau(n)
        tight, _ = landau(n, mode="bound")
        assert exact <= tight
    # star-backend sizes are reported against the general bound, not asserted
    star_built = build_cover(build_star_system(families.cycle(3),
                                               families.cycle(4)),
                             component="all")
    general = bound_report("general", edges=3, v_prime=4,
                           actual=len(star_built.graph.vertices))
    print("PASS criterion 4: ball size bounds satisfied, divisor claims hold, "
          "exact maximal-lcm values match brute force for n <= 30 "
          "(star size %d vs general bound %.4g, reported only)"
          % (len(star_built.graph.vertices), general.bound_float))


def test_criterion_6_gluing_backend(ball_systems):
    reports = []
    for (name, radius), sys in sorted(ball_systems.items()):
        if name == "k4-th3":
            glued = build_glued_cover(sys.g1, sys.g2, radius)
            assert glued.extra["subdivided"]
            assert is_covering(glued.mu1).ok and is_covering(glued.mu2).ok
            reports.append((name, radius, glued.component_sizes))
            continue
        data = enumerate_pairs(sys)
        weights = gluing_weights(sys, data)     # verifies every equation exactly
        n = weights.scale
        for face in data.faces.values():
            anchor = sys.atom_anchor(face.atom)
            left = sum(weights.integral[a.serial] for a in face.left)
            right = sum(weights.integral[a.serial] for a in face.right)
            assert left == right == n // sys.orbit_size(anchor)
        glued = assemble(sys, data, weights, component="all")
        comps = glued.graph.components()
        for comp in comps:
            # finish_cover raises unless both restrictions are coverings
            finish_cover(glued.mu1, glued.mu2, seed=comp[0])
        reports.append((name, radius, tuple(len(c) for c in comps)))
    print("PASS criterion 6: gluing equations balanced and assembled covers "
          "verified; components %s" % (reports,))


# -- criterion 5: regular fast path -------------------------------------------


def test_criterion_5_regular_fast_path():
    out = regular_common_cover(families.complete(4),
                               families.complete_bipartite(3, 3))
    assert out.total_vertices <= 48 and len(out.graph.vertices) <= 48
    assert is_covering(out.mu1).ok and is_covering(out.mu2).ok
    even = regular_common_cover(families.complete(5), families.complete(5))
    assert even.total_vertices <= 25
    assert is_covering(even.mu1).ok and is_covering(even.mu2).ok
    for g in (families.complete(5), families.cycle(6)):
        fact = factorize_regular(g)
        for factor in factors_of(fact.covering):
            degree = {v: 0 for v in g.vertices}
            for d in factor:
                degree[g.origin[d]] += 1
            assert all(c == 2 for c in degree.values())
    for g in (families.complete(4), families.complete_bipartite(3, 3)):
        fact = factorize_regular(g)
        assert fact.kind == "odd"
        double = fact.double_proj.source
        for factor in factors_of(fact.covering):
            covered = {double.origin[d] for d in factor}
            assert covered == set(double.vertices)
    print("PASS criterion 5: (K4, K33) cover within 48 vertices, even pair "
          "within the product bound, all factors check out")


# -- criterion 7: graphs of objects -------------------------------------------


def test_criterion_7_graphs_of_objects():
    x1, x2, seeds = rotation_pair(3)
    sys = close_star_maps(x1, x2, seeds)
    result = build_object_cover(sys, component="all")
    for mu in result.extra["objects"]:
        ok, failure = verify_object_covering(mu)
        assert ok, failure
    comps = result.graph.components()
    assert all(len(c) % 3 == 0 for c in comps)
    ident_seed = SeedSpec("v00", "v00",
                          {"e00.a": "e00.a", "e00.b": "e00.b"},
                          {d: obj_identity(obj)
                           for d, obj in zip(x1.graph.darts, x1.edge_objects)})
    ident_sys = close_star_maps(x1, x1, [ident_seed])
    ident = build_object_cover(ident_sys)
    assert ident.degrees == (1, 1)
    assert find_covering(ident.graph, x1.graph) is not None
    print("PASS criterion 7: rotation cover circuits are multiples of 3; "
          "identity seeds reproduce the input; all squares verified")


# -- criterion 8: determinism ---------------------------------------------------


def _dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_criterion_8_determinism(tmp_path):
    c3 = str(tmp_path / "c3.json")
    c4 = str(tmp_path / "c4.json")
    write_json(c3, dump_graph(families.cycle(3)))
    write_json(c4, dump_graph(families.cycle(4)))
    commands = [
        ["build", c3, c4, "--backend", "star", "--strategy", "dr"],
        ["build", c3, c4, "--backend", "ball", "-R", "1", "--based"],
        ["build", c3, c4, "--backend", "glue", "-R", "1"],
        ["regular", c3, c4],
    ]
    for i, argv in enumerate(commands):
        one = str(tmp_path / ("a%d" % i))
        two = str(tmp_path / ("b%d" % i))
        assert main(argv + ["-o", one]) == 0
        assert main(argv + ["-o", two]) == 0
        left, right = _dir_bytes(one), _dir_bytes(two)
        assert left.keys() == right.keys()
        for fname in left:
            assert left[fname] == right[fname], (argv, fname)
    print("PASS criterion 8: byte-identical artifacts across repeated builds")
