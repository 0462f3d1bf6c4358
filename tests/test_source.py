"""Code in src/pmq that nothing but the tests reaches is deleted, not kept.

A public function, class or method of a src/pmq module (the package's
__init__ only re-exports) must be referenced by name from other src/pmq
code, from perfbench/*.py or by a metric name in BENCHMARK.json. The test
parses those files with `ast` and changes nothing.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "pmq").glob("*.py") if p.name != "__init__.py")


def public_definitions(tree: ast.Module):
    """Public module-level functions and classes, and the public methods of public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item


def referenced_names(tree: ast.Module, dotted_strings: bool = False) -> set[str]:
    """Every name read as a variable or attribute; with `dotted_strings`, also
    each part of a string constant such as "model.Model.state_checksum"."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif dotted_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def test_every_public_name_in_src_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    used = set().union(*(referenced_names(tree) for tree in trees.values()))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")), dotted_strings=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in spec["per_layer"]:
        used.update(metric["name"].split("."))
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in public_definitions(tree)
        if node.name not in used
    ]
    assert not unused, f"defined in src/pmq but reached only by tests: {unused}"
