"""Golden SHA-256 digests of every file the CLI writes for fixed fixtures.

The digests pin the artifacts byte for byte, so a refactor of the assembly
pipeline that changes any serial, ordering or provenance label fails here.
To record them again after an intended format change, run this file as a
script with the package on the path; it prints the table.
"""

import hashlib
import os
import random

import pytest

from commoncover import families, oracle
from commoncover.graphs import Graph
from commoncover.cli import dump_graph, dump_object_graph, main, write_json
from commoncover.object_graphs import rotation_map, rotation_pair
from commoncover.star_system import STRATEGY_ALIGNED, build_star_system_retrying

from conftest import check_label_tables, random_cubic_graph, spied_builds


def _k23_double():
    """A connected 2-fold cover of K_{2,3}: its first edge crosses the sheets."""
    g = families.complete_bipartite(2, 3)
    reps = g.edge_reps()
    return oracle.permutation_cover(g, 2, {r: (1, 0) if r == reps[0] else (0, 1)
                                           for r in reps})[0]


def _red(g, red_edges):
    """g with both darts of the named edges coloured red and the other darts
    uncoloured."""
    return Graph(g.vertices, g.darts, g.origin, g.reverse, None,
                 {d: "red" for d in g.darts if d.split(".")[0] in red_edges})


def _relabelled(g, vertices, darts, vertex_colour=None, dart_colour=None):
    """g with its i-th vertex renamed ``vertices[i]`` and its i-th dart
    ``darts[i]``, and the colours given by new id."""
    v, d = dict(zip(g.vertices, vertices)), dict(zip(g.darts, darts))
    return Graph(vertices, darts, {d[x]: v[y] for x, y in g.origin.items()},
                 {d[x]: d[y] for x, y in g.reverse.items()}, vertex_colour, dart_colour)


GRAPHS = {
    "c3": lambda: families.cycle(3),
    "c3red": lambda: _red(families.cycle(3), {"e00"}),
    "c4": lambda: families.cycle(4),
    "c6": lambda: families.cycle(6),
    "c6red": lambda: _red(families.cycle(6), {"e00", "e03"}),
    # ids that are proper prefixes of one another, some holding "|", "#" or
    # ")": pair ids in (i, j) order are out of sorted order
    "c3prefix": lambda: _relabelled(families.cycle(3), ["a", "ab", "abc"],
                                    ["d", "d#", "d)", "d0", "d|", "d|0"]),
    "c6prefix": lambda: _relabelled(families.cycle(6), ["v1", "v1#0", "v1)", "v10", "v2", "v2#"],
                                    ["e", "e#", "e#0", "e)", "e)0", "e0", "e00", "e1",
                                     "e1#", "e1)", "e10", "e2"]),
    "c6v": lambda: families.with_vertex_colour(families.cycle(6),
                                               {"v00": "red", "v03": "red"}),
    "cubic30": lambda: random_cubic_graph(random.Random(1), 30),
    "cubic40": lambda: random_cubic_graph(random.Random(1), 40),
    "k4": lambda: families.complete(4),
    "k5": lambda: families.complete(5),
    "k23": lambda: families.complete_bipartite(2, 3),
    "k23x2": _k23_double,
    "k33": lambda: families.complete_bipartite(3, 3),
    "k44": lambda: families.complete_bipartite(4, 4),
    "rose2": lambda: families.rose(2),
    "rose2red": lambda: _red(families.rose(2), {"e00"}),
    "theta3": lambda: families.theta(3),
    "theta4": lambda: families.theta(4),
    "theta4red": lambda: _red(families.theta(4), {"e00", "e01"}),
}

# case name -> (command, first input, second input, extra arguments)
CASES = {
    "star-dr-c3-c4": ("build", "c3", "c4", ["--backend", "star", "--strategy", "dr"]),
    "star-aligned-c3-c4": ("build", "c3", "c4",
                           ["--backend", "star", "--strategy", "aligned"]),
    "ball-based-c3-c4": ("build", "c3", "c4", ["--backend", "ball", "-R", "1", "--based"]),
    # degree 3: several arrows share a hom set, so the serial order of the
    # arrows and atoms decides the artifacts
    "star-aligned-theta3-k4": ("build", "theta3", "k4",
                               ["--backend", "star", "--strategy", "aligned"]),
    "ball-k4-theta3": ("build", "k4", "theta3", ["--backend", "ball", "-R", "1"]),
    # two joint blocks (degree 2 and degree 3) whose vertex 0s share a block
    "star-dr-k23-k23x2": ("build", "k23", "k23x2", ["--backend", "star", "--strategy", "dr"]),
    "star-aligned-k23-k23x2": ("build", "k23", "k23x2",
                               ["--backend", "star", "--strategy", "aligned"]),
    "ball-k23-k23x2": ("build", "k23", "k23x2", ["--backend", "ball", "-R", "1"]),
    "glue-c3-c4": ("build", "c3", "c4", ["--backend", "glue", "-R", "1"]),
    "glue-rose2-theta4": ("build", "rose2", "theta4", ["--backend", "glue", "-R", "1"]),
    # subdivides, so the outward darts carry the colours through
    "glue-rose2red-theta4red": ("build", "rose2red", "theta4red",
                                ["--backend", "glue", "-R", "1"]),
    "regular-c3-c4": ("regular", "c3", "c4", []),
    # odd degree: bipartite doubles, two components of 24, cut to one
    "regular-k4-k33": ("regular", "k4", "k33", []),
    "regular-all-k4-k33": ("regular", "k4", "k33", ["--component", "all"]),
    # even degree: the pullback over the rose has two components of 12
    "regular-c4-c6": ("regular", "c4", "c6", []),
    "regular-c3prefix-c6prefix": ("regular", "c3prefix", "c6prefix", []),
    "regular-all-c3prefix-c6prefix": ("regular", "c3prefix", "c6prefix",
                                      ["--component", "all"]),
    "regular-cubic40-cubic30": ("regular", "cubic40", "cubic30", []),
    # degree 4: Euler circuits and matchings split the 2-factors of both
    "regular-k5-k44": ("regular", "k5", "k44", []),
    "objects-rotation3": ("build-objects", "rotation3", None, []),
    "objects-all-rotation4": ("build-objects", "rotation4", None, ["--component", "all"]),
    # vertex and edge labels, a twist of two steps: a cover of 3 vertices
    "objects-labelled-rotation6": ("build-objects", "labelled6", None, []),
    # one-point objects: the seeds are the aligned star arrows, with no vertex map
    "objects-singletons-k4-theta3": ("build-objects", "singletons-k4-theta3", None, []),
    # coloured inputs: partly dart-coloured cycles, and vertex-coloured ones
    **{"%s-%s" % (name, pair): (command, *pair.split("-"), extra)
       for pair in ("c3red-c6red", "c6v-c6v")
       for name, command, extra in (
           ("star-dr", "build", ["--backend", "star", "--strategy", "dr"]),
           ("star-aligned", "build", ["--backend", "star", "--strategy", "aligned"]),
           ("ball", "build", ["--backend", "ball", "-R", "1"]),
           ("glue", "build", ["--backend", "glue", "-R", "1"]),
           ("regular", "regular", []))},
}


def _map_tables(m) -> dict:
    return {"vmap": dict(m.vmap), "emap": dict(m.emap)}


def _seed_tables(seeds) -> dict:
    """Seed star maps in the format ``load_seeds`` reads."""
    return {"seeds": [
        {"from": s.src, "to": s.dst, "dart_map": dict(s.dart_map),
         "edge_maps": {d: _map_tables(m) for d, m in s.edge_maps.items()},
         "vertex_map": _map_tables(s.vertex_map)}
        for s in seeds]}


def _rotation_inputs(order):
    x1, x2, seeds = rotation_pair(order)
    return dump_object_graph(x1), dump_object_graph(x2), _seed_tables(seeds)


def _one_object_graph(g, obj, edge_map) -> dict:
    """g with the object ``obj`` (written as an object file writes it) at
    every vertex and dart, and ``edge_map`` at every dart but the first
    reversed one, which takes the identity."""
    identity = {"vmap": {v["id"]: v["id"] for v in obj["vertices"]},
                "emap": {e["id"]: e["id"] for e in obj["edges"]}}
    return {**dump_graph(g), "objects": {"ob000": obj},
            "vertex_objects": dict.fromkeys(g.vertices, "ob000"),
            "edge_objects": dict.fromkeys(g.darts, "ob000"),
            "edge_morphisms": {d: edge_map if d == "e00.b" else identity for d in g.darts}}


def _labelled_rotation_inputs(order=6, twist=2):
    """rose(1) over a cyclic object whose vertices are labelled A, B, A, ...
    and edges a, b, a, ...: the first glues the loop with identities, the
    second twists one side by ``twist`` steps.  The seeds rotate by 0 and
    by ``twist`` steps, so the cover has order / gcd(order, twist) vertices."""
    obj = {"vertices": [{"id": "o%d" % i, "label": "AB"[i % 2]} for i in range(order)],
           "edges": [{"id": "r%d" % i, "from": "o%d" % i, "to": "o%d" % ((i + 1) % order),
                      "label": "ab"[i % 2]} for i in range(order)]}
    g = families.rose(1)
    identity = _map_tables(rotation_map(order, 0))
    seeds = [{"from": "v00", "to": "v00", "dart_map": {"e00.a": "e00.a", "e00.b": "e00.b"},
              "edge_maps": {"e00.a": _map_tables(rotation_map(order, twist * i)),
                            "e00.b": _map_tables(rotation_map(order, twist * (i - 1)))},
              "vertex_map": _map_tables(rotation_map(order, twist * i))}
             for i in (0, 1)]
    return (_one_object_graph(g, obj, identity),
            _one_object_graph(g, obj, _map_tables(rotation_map(order, twist))),
            {"seeds": seeds})


def _singleton_inputs(g1, g2):
    """g1 and g2 with a one-point object everywhere; the seeds are the atom
    arrows of the aligned star system, with no vertex map given."""
    obj = {"vertices": [{"id": "o"}], "edges": []}
    identity = {"vmap": {"o": "o"}, "emap": {}}
    arrows = build_star_system_retrying(g1, g2, STRATEGY_ALIGNED).atom_arrows
    seeds = [{"from": g1.vertices[a.src], "to": g2.vertices[a.dst - len(g1.vertices)],
              "dart_map": {e[2:]: f[2:] for e, f in a.bij},
              "edge_maps": {e[2:]: identity for e, _ in a.bij}}
             for a in arrows]
    return (_one_object_graph(g1, obj, identity), _one_object_graph(g2, obj, identity),
            {"seeds": seeds})


OBJECT_INPUTS = {
    "rotation3": lambda: _rotation_inputs(3),
    "rotation4": lambda: _rotation_inputs(4),
    "labelled6": _labelled_rotation_inputs,
    "singletons-k4-theta3": lambda: _singleton_inputs(families.complete(4),
                                                      families.theta(3)),
}


def _write_object_inputs(workdir, name="rotation3"):
    """Write the two object graphs and the seeds of ``OBJECT_INPUTS[name]``;
    returns their paths, keyed "x1", "x2" and "seeds"."""
    paths = {key: os.path.join(workdir, key + ".json") for key in ("x1", "x2", "seeds")}
    for key, payload in zip(("x1", "x2", "seeds"), OBJECT_INPUTS[name]()):
        write_json(paths[key], payload)
    return paths


def artifact_digests(workdir, case) -> dict:
    """Run one case in workdir and return {file name: SHA-256 hex digest}."""
    command, first, second, extra = CASES[case]
    if command == "build-objects":
        paths = _write_object_inputs(workdir, first)
        argv = [command, paths["x1"], paths["x2"], "--seeds", paths["seeds"], *extra]
    else:
        inputs = []
        for name in (first, second):
            path = os.path.join(workdir, name + ".json")
            write_json(path, dump_graph(GRAPHS[name]()))
            inputs.append(path)
        argv = [command, *inputs, *extra]
    out = os.path.join(workdir, "out")
    assert main(argv + ["-o", out]) == 0
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


GOLDEN = {
    "ball-based-c3-c4": {
        "certificate.json":
            "a52323ce2e45115ed6042622092e2273f35b5e6244635184cb5307f70d838371",
        "cover.json":
            "88f4761b8508e58b69a3de61bdf676e5fe9e8285a2df930fde1b5883f420eb23",
        "mu1.json":
            "6d098cb82bcea9039506c0601df26c1eea8acc0e1fb5a8ada8edb5ebf93d766c",
        "mu2.json":
            "dfc0f880adb019320bdd4dc7e64bfded9bc6ae478a1c4898ef3c71fe7913f825",
    },
    "ball-c3red-c6red": {
        "certificate.json":
            "7d8d38248dac64140f55341f9d4caaf4d25c10535ccda40cc05651025226ab9a",
        "cover.json":
            "c9dac616c6bdeb5ee96c20986cffa19b04eb312b5c16fb7bf5c7932fd0a512ce",
        "mu1.json":
            "8bb7fcba7d60ec82e0c3c87301956cd5310f5916b2547fbe7833ad7cf6108041",
        "mu2.json":
            "b636c8839233fe750223f9a9885c1503383326105c3255f9fd55297efe6ca39b",
    },
    "ball-c6v-c6v": {
        "certificate.json":
            "2887d812bf2f93af00cbe5eef9213f4387b1f93f53bee898d5a2962a56596888",
        "cover.json":
            "fdda0c73f878938077aaa011761e65f5971ea60c0e65ca6d7de164403eae6095",
        "mu1.json":
            "33d0e67ee731fed1cb38787b1e86e9874d2b34cfc6ca31a46c3563e1330375d2",
        "mu2.json":
            "33d0e67ee731fed1cb38787b1e86e9874d2b34cfc6ca31a46c3563e1330375d2",
    },
    "ball-k23-k23x2": {
        "certificate.json":
            "95538508561498503c6fb3407df844713af2845c5ffc1e253d720a9a6dab114d",
        "cover.json":
            "840ae7f8d7729dd64e7f851bc25ff49a70ee8182910f7ac25fa5e67c747942f6",
        "mu1.json":
            "fa8b3ea3648131789d5a4b261779a2496ccac9b8ffd34fbaacfdac408f41fdd3",
        "mu2.json":
            "c31c0749fda23d7178a368510a04a2e5f1654e0efbb807402defed8f02ba382d",
    },
    "ball-k4-theta3": {
        "certificate.json":
            "89cc6ba34bb98acf13ab447fbf9af0361c2acb10f11cabc380de7d1255cb29fc",
        "cover.json":
            "4e536a2d3881741ba830ec52a2daae2bbeab67ec7e31a3dfccc885cfa070ceb8",
        "mu1.json":
            "0c960716dd781adacf58f805bb8619e91103d18c67e1ca187a24959d537ce12a",
        "mu2.json":
            "d9c38cc34d5e841aba1e9c9c65cbdf031bc375acc10d160d9d1854fa21273c8e",
    },
    "glue-c3-c4": {
        "cover.json":
            "30b37f42d895d29ae03543a87b0867ccb73ab73d15a21f00709230377b51876c",
        "mu1.json":
            "f2584f8d97f9f8f204c3ced4d311cd905dd13b5900d2a12999f265bba1f5a7c3",
        "mu2.json":
            "8b493a0106a83b1a3e5d10a484113795b1243edbd1e13ea8ae70d76c57eafb09",
    },
    "glue-c3red-c6red": {
        "cover.json":
            "04ad6fca5a0154b09f6ba3edeb549b3ffa65d904b842e63c293ce87da8b53dd6",
        "mu1.json":
            "7e3fbefd9fd0c8e9bc32b3403a602032bef38c12768877a92e3576ef8fb6112f",
        "mu2.json":
            "abf4c9f477328bdc740f2c61f70ca57ba9f333ae851425ff3eaa8f60bcd65ac8",
    },
    "glue-c6v-c6v": {
        "cover.json":
            "893cd6fd795ede162e16c4e44c5d37d7eed1155366fc0c39c2dd2c67e4063632",
        "mu1.json":
            "62bda749bddc91b1ea71bf1939331393547f2b2c61d24afbadef6ab8b8699497",
        "mu2.json":
            "62bda749bddc91b1ea71bf1939331393547f2b2c61d24afbadef6ab8b8699497",
    },
    "glue-rose2-theta4": {
        "cover.json":
            "457ef391541fbf13a64965698210975a6f08f8500adb6b91de26caa6753ae03d",
        "mu1.json":
            "cdfe484b8576e43013d18c854e318e130cf68d796d75043bb4ae9733c66a7083",
        "mu2.json":
            "174209e352e773f2150fd1d84a0219ce5bc30dd86d1d76b7b39f168a93f0822e",
    },
    "glue-rose2red-theta4red": {
        "cover.json":
            "cbbedb8b06b7348a94ca6c023bb4c0b6c60f6546a380f35813ab3fd41ca4a232",
        "mu1.json":
            "cdfe484b8576e43013d18c854e318e130cf68d796d75043bb4ae9733c66a7083",
        "mu2.json":
            "174209e352e773f2150fd1d84a0219ce5bc30dd86d1d76b7b39f168a93f0822e",
    },
    "objects-all-rotation4": {
        "cover.json":
            "c38ed65681eecd7f8c1c293827e1f83fcfdce72a977ef7c273a1b879c43196ab",
        "mu1.json":
            "668a849c2b2b5bfd8261eedcd16170d70ca280f0de02b6eb5f9c6575bf93ad8f",
        "mu2.json":
            "f4c914b3ee578de82b707766953c9ecafa3f581c9a4b2c60a7a40223a61b8e54",
    },
    "objects-labelled-rotation6": {
        "cover.json":
            "07af2a520b3c44e1c8e005b74822a9353ec4f96f1f14833d9a2b7da2f100cc5d",
        "mu1.json":
            "f3f570b242a962f7c9886d5d9cfeba5d9ccf26497f1ce1d3ab92451cd31a3193",
        "mu2.json":
            "90f1945cf8d05a18a705e3b5dd5f02bdba73c456723ddbe8231a8525b15f0b03",
    },
    "objects-rotation3": {
        "cover.json":
            "e7552842e99473bd0a5b814b7ef35e32017344322d331e6b30d67c5dddef118a",
        "mu1.json":
            "944db88874074390eff847bfc8af39fd6daf7e3a0d8a0241434dd0cbfa72c670",
        "mu2.json":
            "4903040b3201d430242dd77a6ad56e51266c7e8bd05916cbe4573477809cf596",
    },
    "objects-singletons-k4-theta3": {
        "cover.json":
            "ef40cde1f0de687aae2fa57320fa076d707cf8731d93a4be0f159b3a99685185",
        "mu1.json":
            "9623bf621ce0683587992fa367116e11bde4d5e77ea889ab56dd1f1304f3523d",
        "mu2.json":
            "d081c514a6150bfef5cb6e536d931e5fc2f0bfe6eddd677bffedcb1ec66e7c40",
    },
    "regular-all-c3prefix-c6prefix": {
        "cover.json":
            "a92b5bda76d9b1f1c9179fb34b8708b6a234e274bed00da3107824f227dc4b60",
        "mu1.json":
            "7536bd9975b3106837bfbfa193d206ee61c6670ebbc442e6f10b1205b573a1f0",
        "mu2.json":
            "d4f25b3759511fec31fc9d9ace5865909bd2c077fb6b8ef9e05587798f6d7d49",
    },
    "regular-all-k4-k33": {
        "cover.json":
            "c87b86f7b9586d20afc57bdc2ffd8a0cac9c19401ef479dd6567ef239db725aa",
        "mu1.json":
            "34be94c5d3e28be46ae8da7396a43b65d3b7805a5b5927f675bcd86debdc8780",
        "mu2.json":
            "4e5e52e68089f791819b90031219d6e1ac7a0bd674ec6aff636172f7b6777b87",
    },
    "regular-c3-c4": {
        "cover.json":
            "99247d7dbc82ae91b8604715c358fd9e78164c01e70bb4e3ae4fd892784454f8",
        "mu1.json":
            "a5d499cb6d06f75502d72e5cc4f04ee8dd364566f9b7d4976a7e8a2f753fb363",
        "mu2.json":
            "2697e1f6c4b6a208f0dde26df6bfc6c5ae65647e8d7bbf53fdc3b53629bb3b5a",
    },
    "regular-c3prefix-c6prefix": {
        "cover.json":
            "56f5f4b04ea9ee2d2287615c8562d2611598aedde0bf86fab0c2511cdc4b0272",
        "mu1.json":
            "5bbcc02183651cf1cd155eed044851e7514e32be5b222a5227d3be1be6227cd9",
        "mu2.json":
            "a5b551b8d16580d5e855b8f3f997ac599f50f5a8c6fbaba9c7cf69db8aca51a5",
    },
    "regular-c3red-c6red": {
        "cover.json":
            "cc3b2d4cc0503e0874a95fa89797b8b2d3f45747f4cbb2dfec9bdfb93eb83663",
        "mu1.json":
            "242b497668a229c080ba256e20007ee070c45da12efe86bd336a01b73c635506",
        "mu2.json":
            "49200640b67e3a7cbeb7e387b20e7d32c8350e688de651adacad832c26b15fbb",
    },
    "regular-c4-c6": {
        "cover.json":
            "1f0351bf8a75a664b2a528b74b969ee79c6db9f37c6d6bc35e4d9204cac04acc",
        "mu1.json":
            "126cea0d9a8c0838417f1a4da4fd96d5ad111bd9c1c58ea1d1f5840749b31b05",
        "mu2.json":
            "310c61acc73cc2b45d7cf0aa4b82c49682a6cc1c47fe087e46f9f35319ebf77f",
    },
    "regular-c6v-c6v": {
        "cover.json":
            "9246dbd608e0472edd257177c7c7d916d4e4b7f58f6075bda6f7af1651613699",
        "mu1.json":
            "a431b08482932786bf6ef25dfe213e6e4d7248e9a373ce9f0e3d558b912d6246",
        "mu2.json":
            "a431b08482932786bf6ef25dfe213e6e4d7248e9a373ce9f0e3d558b912d6246",
    },
    "regular-cubic40-cubic30": {
        "cover.json":
            "1fecc45c467913f324e9d8831b5beb705850571e0549ae874659730a34840104",
        "mu1.json":
            "20f48a9e264d17a5b1dbc79132f765c9fbf2b50dd921e74ade77ee67e0eb43d2",
        "mu2.json":
            "7c38fde4cfaeecae37f7f835692e6a9fad2872c2e5789aadb0bdc146c3f11a26",
    },
    "regular-k4-k33": {
        "cover.json":
            "7546ef258211b4fc37bf001bbb9a19e392087df4cdfce5954465b08087edcac8",
        "mu1.json":
            "62fa33227d12a401d851d10297764b617161e14febd89d7c27f54279afc4bc96",
        "mu2.json":
            "2630108f385964b4bebc50ff69f56724346529931949362610b6454b452af899",
    },
    "regular-k5-k44": {
        "cover.json":
            "903e8448ca741c9db853b30c90d68ad89da3aee83e6e1c332b2899e6233bca02",
        "mu1.json":
            "2e855eb3272b2aa12c05b218cc5e8b5f48abbc7246358f97c68651f1f6082b01",
        "mu2.json":
            "e8068ccd9ac1c414a57cc88b839cb1a3ee3addd98d1aa1e6a494a2235a416c60",
    },
    "star-aligned-c3-c4": {
        "cover.json":
            "32db72d91403529a2c95aa6b2516fbae69051f6b8ec3fa7d43629d80e8530736",
        "mu1.json":
            "6d098cb82bcea9039506c0601df26c1eea8acc0e1fb5a8ada8edb5ebf93d766c",
        "mu2.json":
            "dfc0f880adb019320bdd4dc7e64bfded9bc6ae478a1c4898ef3c71fe7913f825",
    },
    "star-aligned-c3red-c6red": {
        "cover.json":
            "be73399c1fd8861cba7aef496d11a4212704db6b6219a589b58c7abc1ea9ff42",
        "mu1.json":
            "8bb7fcba7d60ec82e0c3c87301956cd5310f5916b2547fbe7833ad7cf6108041",
        "mu2.json":
            "b636c8839233fe750223f9a9885c1503383326105c3255f9fd55297efe6ca39b",
    },
    "star-aligned-c6v-c6v": {
        "cover.json":
            "d7f2875dd08423301ef941dccae9e127d3650538ed2e3ce9ba17d4f6934cd3ee",
        "mu1.json":
            "33d0e67ee731fed1cb38787b1e86e9874d2b34cfc6ca31a46c3563e1330375d2",
        "mu2.json":
            "33d0e67ee731fed1cb38787b1e86e9874d2b34cfc6ca31a46c3563e1330375d2",
    },
    "star-aligned-k23-k23x2": {
        "cover.json":
            "afe7e3beb10e613a275114cb1261727214d01431354ab451bbce836793959014",
        "mu1.json":
            "fa8b3ea3648131789d5a4b261779a2496ccac9b8ffd34fbaacfdac408f41fdd3",
        "mu2.json":
            "c31c0749fda23d7178a368510a04a2e5f1654e0efbb807402defed8f02ba382d",
    },
    "star-aligned-theta3-k4": {
        "cover.json":
            "0426662f93426e3cd94b36ea7516c6af393e66428b865cf9bbdca45cfa63064d",
        "mu1.json":
            "25ce17c952fba8f57561ca186f216589faadce264489b5d9bc945bfff57c9aa2",
        "mu2.json":
            "b8d88b91997d2cfe454739a65c44e0957d496928f5ac657706b55b07ed7062f1",
    },
    "star-dr-c3-c4": {
        "cover.json":
            "13e6027564444b126a32bce8917b3a6e7bab546960e1c5ed7723dc819eaf1b3e",
        "mu1.json":
            "6a5f7e016080a2d5713f543539acf1ce60650cb12d4c140d9181f70013912ab6",
        "mu2.json":
            "f64d5543f0e172fb03e04a8e584de989924b35d2c85608f3eae4f6ef3a1c85a6",
    },
    "star-dr-c3red-c6red": {
        "cover.json":
            "18e5673d58d6df7a13a9fa9fe05663b6bcf0dbfe92c51f394e16ef6b3227bc64",
        "mu1.json":
            "e6f2950925075e62101243ad161abcf8504f3ff53615f3dfca14556460d456d6",
        "mu2.json":
            "88144455072ac7572bea31d3b6aca5b014119cf1e793a94a92da24f773d983c7",
    },
    "star-dr-c6v-c6v": {
        "cover.json":
            "77140a019a6c2a84a6130f22d44bae81d4930bd836d6f18326aed570449658d8",
        "mu1.json":
            "4544e759cc6b61a33f6181d00ff09761bbeabcb2332d91b03f6d16dd9cb1f226",
        "mu2.json":
            "4544e759cc6b61a33f6181d00ff09761bbeabcb2332d91b03f6d16dd9cb1f226",
    },
    "star-dr-k23-k23x2": {
        "cover.json":
            "dfaf4aaf5505953c32f7abd7b41dd18c5c478d245c95a72861f20ada513c3514",
        "mu1.json":
            "3793122b0df98f2b9d1c98f6247a39f30529e092c789d01f9fca0209d444e52b",
        "mu2.json":
            "932378e662177f77ead0a0dd874020571a75e883fbd2f3b1bedc3cd2867560bc",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_digests(tmp_path, case):
    assert artifact_digests(str(tmp_path), case) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(c for c, (command, *_) in CASES.items()
                                         if command != "regular" and "glue" not in c))
def test_label_tables_equal_the_nested_labels(tmp_path, monkeypatch, case):
    calls = spied_builds(monkeypatch)
    artifact_digests(str(tmp_path), case)
    check_label_tables(calls, str(tmp_path / "labels.json"))


if __name__ == "__main__":
    import pprint
    import tempfile

    table = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            table[case] = artifact_digests(tmp, case)
    pprint.pprint(table, width=100)
