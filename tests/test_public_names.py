"""Every public function and class of `thresholds` has a user outside its own tests.

A public module-level name of `src/thresholds/*.py` passes when some other
code names it: a module under `src/` (its own included, but not by its
definition or a docstring), a demo, the benchmark under `perfbench/` (where
`tracing.py` names its targets as strings in its target tables), or the
end-to-end criteria of `tests/test_acceptance.py`.  A name that only its unit
tests reach belongs in `tests/reference.py` instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "thresholds"
TARGET_TABLES = ("TARGETS", "GENERATOR_TARGETS")


def public_definitions():
    """(module, name) of every public module-level function and class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node.name


def names_used(path):
    """The identifiers a file uses: names, attributes and imported names."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def target_table_strings(path):
    """The string constants inside the module-level target tables of a file."""
    out = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in TARGET_TABLES for t in node.targets):
            out |= {c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return out


def referenced_names():
    files = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    used = set().union(*(names_used(path) for path in files))
    return used | target_table_strings(ROOT / "perfbench" / "tracing.py")


def test_every_public_name_has_a_user_outside_its_unit_tests():
    used = referenced_names()
    unused = [f"{module}.{name}" for module, name in public_definitions() if name not in used]
    assert not unused, f"public names reached only from their own tests: {unused}"


def test_the_guard_sees_definitions_and_target_strings():
    defined = set(public_definitions())
    assert ("subspaces", "kernel_entropy_table") in defined
    assert ("engine", "OptResult") in defined
    assert "_rref_blocks" not in {name for _, name in defined}
    assert "iter_kernel_entropies" in target_table_strings(ROOT / "perfbench" / "tracing.py")
