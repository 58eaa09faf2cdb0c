"""Differential tests on random graph pairs.

Pairs come from ``conftest.random_base_graph``: two connected permutation
covers of one random base graph (so a common cover exists), or two
unrelated random graphs (so one usually does not).  Hypothesis draws the
seeds with ``derandomize=True``, so every run checks the same pairs.

* star dr and star aligned builds pass ``cli verify`` from disk, and each
  cover's vertex count is a multiple of both inputs' counts; they are
  byte-identical when run twice, and their vertex counts summed over all
  components stay within ``bounds.bound_report("general", ...)``;
* ``check_axioms`` gives the action-law verdict of
  ``conftest.reference_check_action``, also on systems with a corrupted
  action or a corrupted composition;
* ``oracle.find_covering`` returns a covering or None, and never raises;
* ``regular`` builds on random cubic pairs pass ``cli verify`` from disk,
  stay within ``bounds.bound_report("regular", ...)`` and are
  byte-identical when run twice;
* ball R=1 builds, with and without ``--based`` (both write a
  certificate), and glue R=1 builds pass ``cli verify`` from disk, have a
  vertex count that is a multiple of both inputs' counts and are
  byte-identical when run twice; ball and glue covers stay within
  ``bounds.bound_report("ball", ...)``.  Pairs whose diameters sum to more
  than 5 are left out to keep the test near 3 s;
* no command exits 3 on a pair that ``common_cover_exists`` rejects;
* on pairs where ``oracle.brute_common_cover`` finds the least connected
  common cover within its budget, the least component that star dr, star
  aligned, ball R=1 and glue R=1 write has at least that many vertices.
"""

import contextlib
import io
import json
import os
import pathlib
import random
import tempfile

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from commoncover import cli
from commoncover.bounds import bound_report
from commoncover.graphs import is_covering
from commoncover.oracle import brute_common_cover, find_covering, permutation_cover
from commoncover.refinement import common_cover_exists
from commoncover.star_system import (STRATEGY_ALIGNED, STRATEGY_DR_FULL,
                                     build_star_system_retrying)

from conftest import (check_label_tables, corrupt_act, corrupt_compose, n_edges,
                      random_base_graph, random_cubic_graph, reference_check_action,
                      spied_builds)

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _settings(examples):
    return settings(derandomize=True, max_examples=examples, deadline=None,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


def _connected_cover(rng, base):
    while True:
        degree = rng.randint(1, 2)
        voltages = {rep: tuple(rng.sample(range(degree), degree))
                    for rep in base.edge_reps()}
        cover = permutation_cover(base, degree, voltages)[0]
        if cover.is_connected():
            return cover


def related_pair(seed):
    """Two connected covers of degree 1 or 2 of one random base graph of at
    most 4 vertices, and the base graph."""
    rng = random.Random(seed)
    base = random_base_graph(rng, max_vertices=4)
    return _connected_cover(rng, base), _connected_cover(rng, base), base


def unrelated_pair(seed):
    rng = random.Random(seed)
    return random_base_graph(rng, max_vertices=5), random_base_graph(rng, max_vertices=5)


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


@contextlib.contextmanager
def _on_disk(g1, g2):
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = os.path.join(tmp, "g1.json"), os.path.join(tmp, "g2.json")
        cli.write_json(p1, cli.dump_graph(g1))
        cli.write_json(p2, cli.dump_graph(g2))
        yield tmp, p1, p2


@_settings(40)
@given(SEEDS)
def test_star_builds_verify_from_disk(seed):
    g1, g2, _ = related_pair(seed)
    with _on_disk(g1, g2) as (tmp, p1, p2):
        for strategy in ("dr", "aligned"):
            out = os.path.join(tmp, strategy)
            assert _run("build", p1, p2, "--strategy", strategy, "-o", out) == 0
            assert _run("verify", out, p1, p2) == 0
            with open(os.path.join(out, "cover.json"), encoding="utf-8") as fh:
                size = len(json.load(fh)["graph"]["vertices"])
            assert size % len(g1.vertices) == 0 and size % len(g2.vertices) == 0


@_settings(2)
@given(SEEDS)
def test_label_tables_equal_the_nested_labels(seed):
    g1, g2, _ = related_pair(seed)
    with _on_disk(g1, g2) as (tmp, p1, p2):
        for backend in (["--strategy", "dr"], ["--strategy", "aligned"],
                        ["--backend", "ball", "-R", "1"]):
            with pytest.MonkeyPatch.context() as mp:
                calls = spied_builds(mp)
                assert _run("build", p1, p2, *backend, "-o", os.path.join(tmp, "out")) == 0
            check_label_tables(calls, os.path.join(tmp, "labels.json"))


@_settings(20)
@given(SEEDS)
def test_star_builds_repeat_within_the_general_bound(seed):
    g1, g2, _ = related_pair(seed)
    with _on_disk(g1, g2) as (tmp, p1, p2):
        for strategy in ("dr", "aligned"):
            runs = []
            for out in (os.path.join(tmp, strategy + "a"), os.path.join(tmp, strategy + "b")):
                assert _run("build", p1, p2, "--strategy", strategy, "-o", out) == 0
                runs.append(_artifacts(out))
            assert runs[0] == runs[1], strategy
            total = sum(json.loads(runs[0]["cover.json"])["component_sizes"])
            assert bound_report("general", actual=total, edges=n_edges(g1),
                                v_prime=len(g2.vertices)).satisfied, strategy


@_settings(45)
@given(SEEDS)
def test_regular_builds_verify_from_disk_and_repeat(seed):
    rng = random.Random(seed)
    g1, g2 = (random_cubic_graph(rng, 2 * rng.randint(2, 10)) for _ in range(2))
    with _on_disk(g1, g2) as (tmp, p1, p2):
        runs = []
        for out in (os.path.join(tmp, "a"), os.path.join(tmp, "b")):
            assert _run("regular", p1, p2, "-o", out) == 0
            runs.append({})
            for name in ("cover.json", "mu1.json", "mu2.json"):
                with open(os.path.join(out, name), "rb") as fh:
                    runs[-1][name] = fh.read()
        assert runs[0] == runs[1]
        assert _run("verify", out, p1, p2) == 0
        total = json.loads(runs[0]["cover.json"])["total_vertices"]
        assert bound_report("regular", actual=total, v1=len(g1.vertices),
                            v2=len(g2.vertices), odd=True).satisfied


def _artifacts(out):
    return {path.name: path.read_bytes() for path in sorted(pathlib.Path(out).iterdir())}


@_settings(25)
@given(SEEDS)
def test_ball_and_glue_builds_verify_from_disk_and_repeat(seed):
    g1, g2, _ = related_pair(seed)
    # the default exploration radius is 1 + diam1 + diam2; a pair at 9
    # passes too, but costs about 1.7 s a build
    assume(g1.diameter() + g2.diameter() <= 5)
    d = max(max(g.degree(v) for v in g.vertices) for g in (g1, g2))
    with _on_disk(g1, g2) as (tmp, p1, p2):
        for k, flags in enumerate((["--backend", "ball"],
                                   ["--backend", "ball", "--based"],
                                   ["--backend", "glue"])):
            runs = []
            for out in (os.path.join(tmp, "%da" % k), os.path.join(tmp, "%db" % k)):
                assert _run("build", p1, p2, *flags, "-R", "1", "-o", out) == 0, flags
                runs.append(_artifacts(out))
            assert runs[0] == runs[1], flags
            assert ("certificate.json" in runs[0]) == (flags[1] == "ball")
            assert _run("verify", out, p1, p2) == 0, flags
            cover = json.loads(runs[0]["cover.json"])
            size = len(cover["graph"]["vertices"])
            assert size % len(g1.vertices) == 0 and size % len(g2.vertices) == 0
            if flags[1] in ("ball", "glue"):
                total = sum(cover["component_sizes"])
                assert bound_report("ball", actual=total, d=d, radius=1,
                                    v=len(g1.vertices) + len(g2.vertices)).satisfied


def _wrong_image_dart(sys):
    """Send the corrupted atom (anchor, target, (position,)) to another
    dart with the image's origin."""
    def corrupt(atom):
        e, y, (i,) = atom
        return (e, y, (next((j for j in range(len(sys.stars[y])) if j != i), i),))
    return corrupt


@_settings(40)
@given(SEEDS, st.sampled_from([STRATEGY_DR_FULL, STRATEGY_ALIGNED]))
def test_action_check_agrees_with_reference(seed, strategy):
    g1, g2, _ = related_pair(seed)
    sys = build_star_system_retrying(g1, g2, strategy)
    assert sys.check_axioms().action_ok
    assert reference_check_action(sys) is None
    with pytest.MonkeyPatch.context() as mp:
        if corrupt_compose(sys, mp):
            assert not sys.check_axioms().action_ok
            assert reference_check_action(sys) is not None
    corrupt_act(sys, _wrong_image_dart(sys))
    assert sys.check_axioms().action_ok == (reference_check_action(sys) is None)


@_settings(200)
@given(SEEDS)
def test_find_covering_never_raises(seed):
    g1, _, base = related_pair(seed)
    found = find_covering(g1, base)
    assert found is not None and is_covering(found).ok
    rng = random.Random(seed)
    for _ in range(10):
        target = random_base_graph(rng, max_vertices=4)
        h = random_base_graph(rng, max_vertices=8)
        found = find_covering(h, target)
        assert found is None or is_covering(found).ok


@_settings(60)
@given(SEEDS)
def test_rejected_pairs_never_exit_three(seed):
    g1, g2 = unrelated_pair(seed)
    if common_cover_exists(g1, g2)[0]:
        return
    with _on_disk(g1, g2) as (tmp, p1, p2):
        out = os.path.join(tmp, "out")
        for argv in (["check", p1, p2],
                     ["build", p1, p2, "--strategy", "dr", "-o", out],
                     ["build", p1, p2, "--strategy", "aligned", "-o", out],
                     ["build", p1, p2, "--backend", "ball", "-o", out],
                     ["build", p1, p2, "--backend", "glue", "-o", out],
                     ["regular", p1, p2, "-o", out],
                     ["oracle", p1, p2, "--max", "2"]):
            assert _run(*argv) in (1, 2), argv


@_settings(8)
@given(SEEDS)
# the least common cover of these pairs is larger than both inputs
@example(165)
@example(288)
def test_least_components_are_no_smaller_than_the_oracle_cover(seed):
    g1, g2, _ = related_pair(seed)
    assume(g1.diameter() + g2.diameter() <= 5)
    least = brute_common_cover(g1, g2, 2, budget=20000)
    assume(least.found)
    with _on_disk(g1, g2) as (tmp, p1, p2):
        for k, flags in enumerate((["--strategy", "dr"], ["--strategy", "aligned"],
                                   ["--backend", "ball"], ["--backend", "glue"])):
            out = os.path.join(tmp, str(k))
            assert _run("build", p1, p2, *flags, "-o", out) == 0, flags
            with open(os.path.join(out, "cover.json"), encoding="utf-8") as fh:
                size = len(json.load(fh)["graph"]["vertices"])
            assert size >= len(least.cover.vertices), flags
