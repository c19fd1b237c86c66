"""No library code that only tests call: every def in src/qtopo has a caller in the library or the benchmark.

A function, class or method counts as called when some other line of
src/qtopo/ or bench/ names it: as a name, an attribute, an import, or a part
of a dotted path in the tracer's TARGETS. Dunders and the CLI commands,
which click calls, are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "qtopo").glob("*.py"))
BENCH = sorted((ROOT / "bench").rglob("*.py"))


def _is_command(node: ast.AST) -> bool:
    return any(isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute) and dec.func.attr == "command"
               and isinstance(dec.func.value, ast.Name) and dec.func.value.id == "main"
               for dec in getattr(node, "decorator_list", ()))


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        yield node
        if isinstance(node, ast.ClassDef):
            yield from node.body


def _named(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def _traced_parts(tree: ast.Module) -> set[str]:
    parts = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            for const in ast.walk(node.value):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    parts.update(const.value.split("."))
    return parts


def test_every_library_definition_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in LIBRARY + BENCH}
    named = set().union(*(_named(tree) for tree in trees.values()))
    named |= _traced_parts(trees[ROOT / "bench" / "tracing.py"])
    uncalled = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in LIBRARY
        for node in _definitions(trees[path])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not _is_command(node)
        and node.name not in named
    ]
    assert uncalled == []
