"""Every public name in the package has a caller outside the tests.

A public function, class, method or module-level assignment counts as
used when a `Name`, an `Attribute` or an identifier-shaped string
constant (perfbench's tracer wraps functions by their names as strings)
refers to it somewhere in `src/` or in `perfbench/*.py`, outside its own
definition.  No name is exempt.  Matching is by name only, so dead
code that shares its name with a used identifier passes.  Every name
the tracer wraps must also still resolve.
"""

import ast
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "invariantlab"

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
    assert unreferenced() == []


def _perfbench_tracer(monkeypatch):
    """perfbench's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_perfbench_tracer_wraps_resolves(monkeypatch):
    # the tracer wraps these by name, so a deletion in src/ would break
    # `perfbench/run.py --trace 1` and nothing else would notice
    wrapped = [(module, attr) for module, attr, *_
               in _perfbench_tracer(monkeypatch).WRAPPED]
    for module, attr in wrapped + [("solvers", "TrainTrace.append")]:
        obj = importlib.import_module(f"invariantlab.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attr}"
