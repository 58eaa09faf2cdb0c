import ast
import pathlib

import commoncover
from commoncover.cli import SchemaError
from commoncover.cover_builder import AxiomError
from commoncover.gluing import OrientationError
from commoncover.graphs import BudgetExceeded, GraphError, VerificationError
from commoncover.object_graphs import SeedError
from commoncover.universal_cover import AlignmentBudgetError

SRC = pathlib.Path(commoncover.__file__).parent


def _raw_raises(path):
    """(line, class name) of every ``raise RuntimeError(...)`` or
    ``raise Exception(...)`` in the file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("RuntimeError", "Exception"):
                out.append((node.lineno, exc.id))
    return out


def test_no_raw_runtime_error_or_exception_is_raised():
    # every failure is raised as a named class, so that cli.main can map
    # it to an exit code; a raw RuntimeError or Exception would be a bug
    offenders = {path.name: found for path in sorted(SRC.glob("*.py"))
                 if (found := _raw_raises(path))}
    assert offenders == {}


def test_exit_two_classes_are_not_verification_errors():
    for cls in (GraphError, SchemaError, SeedError, BudgetExceeded,
                AlignmentBudgetError, AxiomError):
        assert not issubclass(cls, RuntimeError), cls
    assert issubclass(SchemaError, GraphError)
    assert issubclass(SeedError, GraphError)
    assert issubclass(OrientationError, VerificationError)
    assert commoncover.VerificationError is VerificationError
