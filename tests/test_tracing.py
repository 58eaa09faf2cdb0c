"""The benchmark's tracer still finds every entry point it wraps.

``perfbench/tracing.py`` wraps the functions and methods named in its
``SPANS`` table by name, so renaming or removing one of them breaks the
traced benchmark run.  This test installs the tracer, drives one small build
and verify through ``cli.main``, and checks that every target was wrapped,
that the ``build_cover`` size probe fired and that ``remove`` restores the
originals.
"""

import importlib.util
import os
import sys

import commoncover  # noqa: F401  (imports every module the tracer wraps)
from commoncover import cli, families

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(tracing):
    """(owner, attribute) for every SPANS entry, resolved before install."""
    out = []
    for short, names in tracing.SPANS.items():
        module = sys.modules["commoncover." + short]
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name)
                assert meth in cls.__dict__, name
                out.append((cls, meth))
            else:
                assert hasattr(module, name), (short, name)
                out.append((module, name))
    return out


def test_tracer_wraps_every_span_target(tmp_path):
    tracing = _load_tracing()
    targets = _targets(tracing)
    originals = [vars(owner)[attr] for owner, attr in targets]
    c3, c4 = str(tmp_path / "c3.json"), str(tmp_path / "c4.json")
    cli.write_json(c3, cli.dump_graph(families.cycle(3)))
    cli.write_json(c4, cli.dump_graph(families.cycle(4)))
    out = str(tmp_path / "out")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(targets, originals):
            assert vars(owner)[attr] is not original, attr
        # called through the module, as the benchmark does, so the wrapper runs
        assert cli.main(["build", c3, c4, "--backend", "star", "-o", out]) == 0
        assert cli.main(["verify", out, c3, c4]) == 0
    finally:
        tracer.remove()
    for (owner, attr), original in zip(targets, originals):
        assert vars(owner)[attr] is original, attr
    assert tracer.sizes["cover_builder.cover_vertices"] == 12
    assert tracer.sizes["cover_builder.n_multiple"] > 0
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "cover_builder.build_cover", "cover_builder.check_axioms",
            "graphs.is_covering"} <= names
