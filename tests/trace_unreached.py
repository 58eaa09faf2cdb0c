"""The refusal lines of ``src/commoncover`` that tier-1 never runs, checked
against the ledger ``tests/unreached.txt``.

A refusal line is a ``raise`` statement, a ``return False`` (alone or first
in a tuple), or a ``return`` of a message: a str literal, or a ``%``
formatting of a str literal or of a module-level name.  (A ``return None``
is not one: it is the success of every ``_check_*`` helper as well as the
"none found" of a search.)

The script runs tier-1 in-process under a ``sys.settrace`` line tracer that
records the lines run in ``src/commoncover`` alone, then lists every refusal
statement none of whose lines ran.  Such a statement is keyed by its module,
its enclosing function (``Class.method``; ``<module>`` at the top level) and
the stripped text of its first line, so that edits elsewhere in a module do
not move the key.  A ledger line is that key and a reason, as

    module.py | Class.method | raise Error("text") | reason

and a key that occurs n times in one function is listed n times.  Lines
that start with ``#`` and blank lines are ignored.

Run from the repository root:

    python tests/trace_unreached.py            # trace, then compare with the ledger
    python tests/trace_unreached.py --list     # trace, then print the unreached keys

The comparison exits 1 when tier-1 fails, when an unreached refusal line is
not in the ledger, or when a line in the ledger is reached or no longer
exists, so the ledger can only shrink.  Extra arguments go to pytest.  The
file is no test module (pytest collects ``test_*.py``), so the default
tier-1 run leaves it out.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "commoncover"
LEDGER = Path(__file__).resolve().parent / "unreached.txt"
SEP = " | "


def _is_message(node, constants: set) -> bool:
    """A str literal, or a ``%`` formatting of one or of a module constant."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            and (_is_message(node.left, constants)
                 or isinstance(node.left, ast.Name) and node.left.id in constants))


def refusals(path: Path) -> list:
    """(key, first line, last line) of every refusal statement of a module,
    in source order."""
    text = path.read_text(encoding="utf-8")
    lines, tree = text.splitlines(), ast.parse(text)
    constants = {t.id for node in tree.body if isinstance(node, ast.Assign)
                 for t in node.targets if isinstance(t, ast.Name)}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            value = getattr(child, "value", None)
            if isinstance(value, ast.Tuple) and value.elts:
                value = value.elts[0]
            if (isinstance(child, ast.Raise) or isinstance(child, ast.Return) and value is not None
                    and (isinstance(value, ast.Constant) and value.value is False
                         or _is_message(value, constants))):
                statement = lines[child.lineno - 1].strip()
                if SEP.strip() in statement:
                    raise SystemExit("%s:%d: a refusal line holds %r, the ledger's separator"
                                     % (path.name, child.lineno, SEP.strip()))
                key = SEP.join((path.name, ".".join(scope) or "<module>", statement))
                found.append((key, child.lineno, child.end_lineno))
            visit(child, scope)

    visit(tree, ())
    return found


def trace_tier1(args: list) -> tuple:
    """Tier-1's exit code and, per source file of the package, the lines run."""
    import pytest

    prefix, keep, hits = str(SRC) + os.sep, {}, {}

    def lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in keep:
            keep[name] = os.path.realpath(name).startswith(prefix)
            hits.setdefault(name, set())
        return lines if keep[name] else None

    sys.settrace(calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    run = {}
    for name, seen in hits.items():
        if keep[name]:
            run.setdefault(os.path.realpath(name), set()).update(seen)
    return code, run


def unreached(run: dict) -> Counter:
    """The keys of the refusal statements none of whose lines ran."""
    keys = Counter()
    for path in sorted(SRC.glob("*.py")):
        seen = run.get(str(path), set())
        keys.update(key for key, first, last in refusals(path)
                    if seen.isdisjoint(range(first, last + 1)))
    return keys


def ledger() -> Counter:
    """The keys of the ledger, each with the count of its lines."""
    keys = Counter()
    for line in LEDGER.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            fields = line.split(SEP)
            if len(fields) != 4 or not fields[3].strip():
                raise SystemExit("%s: not 'module | function | statement | reason': %r"
                                 % (LEDGER.name, line))
            keys[SEP.join(fields[:3])] += 1
    return keys


def main(argv: list) -> int:
    listing = "--list" in argv
    args = [a for a in argv if a != "--list"]
    os.chdir(ROOT)
    code, run = trace_tier1(args)
    found = unreached(run)
    if listing:
        print("\n".join(sorted(found.elements())))
        return int(code != 0)
    listed = ledger()
    new, gone = found - listed, listed - found
    for key in sorted(new.elements()):
        print("unreached and not in %s: %s" % (LEDGER.name, key))
    for key in sorted(gone.elements()):
        print("in %s but reached or gone: %s" % (LEDGER.name, key))
    print("%d refusal lines unreached, %d listed" % (sum(found.values()), sum(listed.values())))
    return int(code != 0 or bool(new) or bool(gone))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
