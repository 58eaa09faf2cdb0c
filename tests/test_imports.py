"""Guards read from the source: every module under ``src/commoncover`` is
parsed with ``ast``.

The package imports only the standard library and mpmath: numpy, networkx
and scipy may be installed next to it, but the package does not depend on
them.  No module imports a leading-underscore name from another.  The side prefixes of the disjoint union are spelled in one place,
``graphs.disjoint_union``: everywhere else a side is an index
comparison."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "commoncover"
ALLOWED = set(sys.stdlib_module_names) | {"mpmath"}


def _imported_roots(path):
    """(line, top-level module) of every absolute import in the file;
    relative imports are the package itself."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_src_imports_only_the_standard_library_and_mpmath():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) >= 15                     # the guard reads the package
    offenders = {path.name: found for path in paths
                 if (found := [(line, name) for line, name in _imported_roots(path)
                               if name not in ALLOWED])}
    assert offenders == {}


def _side_prefix_uses(path):
    """(line, what) of every str constant starting with a side prefix
    outside ``graphs.disjoint_union``, and of every use of a name of the
    deleted helpers ``side_of`` and ``strip_side``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exempt = {id(node) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "disjoint_union"
              and path.name == "graphs.py" for node in ast.walk(f)}
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.startswith(("1:", "2:"))):
            yield node.lineno, node.value
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.FunctionDef, ast.alias)):
            name = node.name
        if name in ("side_of", "strip_side"):
            yield getattr(node, "lineno", None), name


def test_side_prefixes_are_spelled_only_in_disjoint_union():
    paths = sorted(SRC.rglob("*.py"))
    offenders = {path.name: found for path in paths
                 if (found := list(_side_prefix_uses(path)))}
    assert offenders == {}


def test_no_module_imports_a_private_name_from_another():
    offenders = {path.name: found for path in sorted(SRC.rglob("*.py"))
                 if (found := [(node.lineno, alias.name)
                               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                               if isinstance(node, ast.ImportFrom)
                               for alias in node.names if alias.name.startswith("_")])}
    assert offenders == {}
