"""No library code that only tests call: every def in src/qtopo has a caller in the library or the benchmark.

A function, class or method counts as called when some other line of
src/qtopo/ or bench/ names it: as a name, an attribute, an import, or a part
of a dotted path in the tracer's TARGETS. Dunders and the CLI commands,
which click calls, are exempt. The definitions that only TARGETS names are a
fixed list, so one that loses its last library caller shows. The last scans
check that each check has one home: invariants.charge is the one place that
raises a term-count GuardExceeded, invariants._require_float_range the one
that raises a float-range GuardExceeded, numtheory.require_coprime the one gcd,
FramedLinkMatrix.from_rows the one matrix construction, and cli._checked
the one click.BadParameter. The CLI asks invariants._KIRBY_LAWS, through
invariants.require_ring and invariants.with_oracle_check, for each
invariant's modulus rule and oracle check, so it never compares an
invariant's name, and only invariants.py names factorized_vs_brute.
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


# Definitions that only the benchmark's tracer names: test oracles that a benchmark change to the tracer frees.
TRACER_ONLY = {"apply_unitary", "discrete_log", "qft_matrix"}


def _uncalled(count_traced: bool) -> dict[str, str]:
    """Each library definition that no other line names, by name, with where it is."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in LIBRARY + BENCH}
    named = set().union(*(_named(tree) for tree in trees.values()))
    if count_traced:
        named |= _traced_parts(trees[ROOT / "bench" / "tracing.py"])
    return {
        node.name: f"{path.name}:{node.lineno} {node.name}"
        for path in LIBRARY
        for node in _definitions(trees[path])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not _is_command(node)
        and node.name not in named
    }


def test_every_library_definition_has_a_caller_outside_the_tests():
    assert list(_uncalled(count_traced=True).values()) == []


def test_tracer_only_definitions_are_the_known_list():
    # a definition that loses its last library caller but stays traced shows here, not silently above
    assert set(_uncalled(count_traced=False)) - set(_uncalled(count_traced=True)) == TRACER_ONLY


def _calls(node: ast.AST, callee: str, where: str | None = None):
    """(innermost enclosing function, call) for each call under node whose callee is named callee."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and callee in (getattr(child.func, "id", None),
                                                      getattr(child.func, "attr", None)):
            yield where, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _calls(child, callee, inner)


def _library_calls(callee: str) -> list:
    return [found for path in LIBRARY for found in _calls(ast.parse(path.read_text(), str(path)), callee)]


def test_only_charge_builds_a_term_count_guard_error():
    # every path states its term count through invariants.charge and its value's modulus through
    # invariants._require_float_range; the one other guard error is the brute sum's int64 bound on a modulus
    built = [(where, "".join(const.value for const in ast.walk(call)
                             if isinstance(const, ast.Constant) and isinstance(const.value, str)))
             for where, call in _library_calls("GuardExceeded")]
    assert [where for where, text in built if "terms" in text] == ["charge"]
    assert [where for where, text in built if "float range" in text] == ["_require_float_range"]
    assert all("int64" in text for where, text in built if where not in ("charge", "_require_float_range"))


def test_only_require_coprime_takes_a_gcd():
    # gauss_sum_closed, qft_matrix, gauss_phase_encode and the CLI's --a all check a through it
    assert [where for where, _ in _library_calls("gcd")] == ["require_coprime"]


def test_only_from_rows_constructs_a_matrix():
    # from_json_dict and every move build through it, so each entry reaches the validator unconverted
    tree = ast.parse((ROOT / "src" / "qtopo" / "linkalg.py").read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "FramedLinkMatrix")
    built = _library_calls("FramedLinkMatrix") + list(_calls(cls, "cls"))
    assert [where for where, _ in built] == ["from_rows"]


def test_only_checked_raises_bad_parameter():
    # every option is checked by a library check under _checked, or by click's IntRange
    raised = [where for where, _ in _library_calls("BadParameter")]
    assert raised == ["_checked"]


INVARIANTS = {"abelian", "su2k3", "dw"}


def test_the_cli_never_compares_an_invariant_name():
    # an ==, != or in against a name, or a tuple, list or set of names, would be a rule the law table owns
    tree = ast.parse((ROOT / "src" / "qtopo" / "cli.py").read_text())
    compared = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                for operand in (node.left, *node.comparators)
                for const in ast.walk(operand)
                if isinstance(const, ast.Constant) and const.value in INVARIANTS]
    assert compared == []


def test_only_invariants_names_the_oracle_check():
    named = [path.name for path in LIBRARY for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Constant) and node.value == "factorized_vs_brute"]
    assert named == ["invariants.py"]
