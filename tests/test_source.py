"""Code in src/pmq that nothing but the tests reaches is deleted, not kept.

A public function or class of a src/pmq module (the package's __init__ only
re-exports) must be referenced by name from other src/pmq code or from
perfbench/*.py; a public method only through an attribute access
(`obj.name`) there. Either also counts when it is part of a dotted string
constant in perfbench/*.py, such as "model.Model.state_checksum", or of a
metric name in BENCHMARK.json. The test parses those files with `ast` and
changes nothing.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "pmq").glob("*.py") if p.name != "__init__.py")


def public_definitions(tree: ast.Module):
    """(definition, is_method) for the public module-level functions and classes
    and the public methods of public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node, False
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item, True


def references(tree: ast.Module, dotted_strings: bool = False):
    """(name, through_attribute) for every name read as a variable or as an
    attribute; with `dotted_strings`, also each part of a string constant
    holding a dot, such as "model.Model.state_checksum", as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif dotted_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "." in node.value:
                yield from ((part, True) for part in node.value.split("."))


def test_every_public_name_in_src_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    used = set().union(*(references(tree) for tree in trees.values()))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used.update(references(ast.parse(path.read_text(encoding="utf-8")), dotted_strings=True))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in spec["per_layer"]:
        used.update((part, True) for part in metric["name"].split("."))
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node, is_method in public_definitions(tree)
        if (node.name, True) not in used and (is_method or (node.name, False) not in used)
    ]
    assert not unused, f"defined in src/pmq but reached only by tests: {unused}"
