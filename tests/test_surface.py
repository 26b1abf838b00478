"""Every public name of the library is used by the library or a demo.

A public top-level function or class, or a public method, counts as used
when some module of `src/stochint` (other than `__init__.py`, which only
re-exports) or some demo refers to it by name, attribute or import.  Tests
do not count: a name that only tests call is surface nothing else needs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = [p for p in sorted((ROOT / "src" / "stochint").glob("*.py")) if p.name != "__init__.py"]
FILES += sorted((ROOT / "demos").glob("*.py"))


def public_definitions(tree: ast.Module, module: str) -> dict:
    """Qualified name -> bare name of the public top-level functions and
    classes and of the public methods of those classes."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found[f"{module}.{node.name}"] = node.name
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[f"{module}.{node.name}.{item.name}"] = item.name
    return found


def referenced_names(tree: ast.Module) -> set:
    """Every identifier read as a name, an attribute or an import; string
    constants, docstrings included, are not references."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    defined, used = {}, set()
    for path in FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update(public_definitions(tree, path.stem))
        used |= referenced_names(tree)
    assert len(FILES) > 7 and len(defined) > 100
    assert sorted(qualified for qualified, name in defined.items() if name not in used) == []
