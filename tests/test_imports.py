"""The package imports only the standard library and mpmath.

numpy, networkx and scipy may be installed next to it, but the package
does not depend on them: every module under ``src/commoncover`` is read
with ``ast`` and its absolute imports are checked."""

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
