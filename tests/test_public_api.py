"""Every public name in the package has a caller outside the tests.

A public function, class, method or module-level assignment counts as
used when a `Name`, an `Attribute` or an identifier-shaped string
constant (perfbench's tracer wraps functions by their names as strings)
refers to it somewhere in `src/` or in `perfbench/*.py`, outside its own
definition.  Matching is
by name only, so dead code that shares its name with a used identifier
passes.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "invariantlab"

# kept without a runtime caller, each for the reason given
ALLOWED = {
    "autodiff.gradient": "graph engine: the tests' reverse-mode oracle, "
                         "per input array of a scalar Node function, for "
                         "the closed-form training gradient",
    "autodiff.finite_diff_gradient": "oracle: criterion 8 checks every "
                                     "gradient of a flat theta against "
                                     "finite differences",
    "datagen.load_datasets": "oracle: the reader that checks the datagen "
                             "command's output",
    "solvers.empirical_lagrangian": "the planned per-checkpoint run "
                                    "record is to call it (ROADMAP)",
}


def _definitions(tree):
    """(qualified name, node) of each public module function, class,
    public class's method and module-level assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) \
                        and not target.id.startswith("_"):
                    yield target.id, node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _references(tree) -> Counter:
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            refs[node.value] += 1
    return refs


def unreferenced() -> list:
    """Qualified names of public definitions nothing refers to."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py"))}
    total = Counter()
    for tree in modules.values():
        total += _references(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        total += _references(ast.parse(path.read_text()))
    missing = []
    for module, tree in modules.items():
        for qualname, node in _definitions(tree):
            name = qualname.split(".")[-1]
            if total[name] - _references(node)[name] <= 0:
                missing.append(f"{module}.{qualname}")
    return missing


def test_every_public_name_has_a_caller_outside_the_tests():
    missing = set(unreferenced())
    assert sorted(missing - set(ALLOWED)) == []
    # an entry whose name is gone or has gained a caller is stale
    assert sorted(set(ALLOWED) - missing) == []
