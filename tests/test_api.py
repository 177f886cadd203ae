"""The public API holds only what the package itself uses."""

import ast
from pathlib import Path

import treehom

PACKAGE = Path(treehom.__file__).resolve().parent


class _Loads(ast.NodeVisitor):
    """Names a module loads, each outside the function or class that
    defines a name of that spelling (so recursion is no use)."""

    def __init__(self):
        self.names = set()
        self.enclosing = []

    def _scope(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self.enclosing:
            self.names.add(node.id)


def package_uses():
    loads = _Loads()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            loads.visit(ast.parse(path.read_text(encoding="utf-8")))
    return loads.names


def test_every_exported_name_has_a_use():
    used = package_uses()
    unused = [name for name in treehom.__all__ if name not in used]
    assert unused == []

