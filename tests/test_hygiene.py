"""Source hygiene of the package: no module imports a name that it never
reads, no function assigns a local that it never reads, and no private
function, class or method goes unread by every module."""

import ast
from functools import partial
from pathlib import Path

import chisini

PACKAGE = Path(chisini.__file__).parent

#: Nodes that open a new scope; a function's own locals stop at them.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def read_names(tree: ast.AST) -> set[str]:
    """Every name that ``tree`` reads, nested scopes included."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each imported name that the module never reads."""
    read = read_names(tree)
    return [
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
        if name not in read
    ]


def own_scope(func: ast.AST):
    """The nodes of ``func``'s body, without the bodies of nested scopes."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each local that a function assigns and neither it
    nor a closure inside it reads; names starting with ``_`` are exempt."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = read_names(func)
        found += [
            (node.lineno, node.id)
            for node in own_scope(func)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Store)
            and not node.id.startswith("_")
            and node.id not in read
        ]
    for node in ast.walk(tree):  # a global or nonlocal name is not a local
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            found = [(line, name) for line, name in found if name not in node.names]
    return sorted(found)


def read_attributes(tree: ast.AST) -> set[str]:
    """Every attribute name that ``tree`` reads, as in ``obj.name``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)
    }


def private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each module-level private function or class and
    each private method; a dunder name is not private."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    methods = [
        node
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, defs)
    ]
    return [
        (node.lineno, node.name)
        for node in [n for n in tree.body if isinstance(n, defs)] + methods
        if node.name.startswith("_") and not node.name.endswith("__")
    ]


def orphans(tree: ast.Module, read: set[str]) -> list[tuple[int, str]]:
    """(line, name) for each private definition whose name is not in
    ``read``, the names and attributes that the package's modules read."""
    return sorted(
        (line, name) for line, name in private_definitions(tree) if name not in read
    )


def package_findings(check) -> list[str]:
    return [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in check(ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_the_checks_see_what_they_look_for():
    tree = ast.parse(
        "import os\n"
        "import numpy as np\n"
        "from math import inf, isfinite\n"
        "def f(x):\n"
        "    lo, hi = x\n"
        "    total = 0\n"
        "    for i in range(3):\n"
        "        total += hi\n"
        "    def g():\n"
        "        unused = isfinite(x)\n"
        "        return total\n"
        "    return g\n"
        "def h():\n"
        "    global seen\n"
        "    seen = np.zeros(1)\n"
    )
    assert unused_imports(tree) == [(1, "os"), (3, "inf")]
    assert unread_locals(tree) == [(5, "lo"), (7, "i"), (10, "unused")]


def test_the_orphan_check_sees_what_it_looks_for():
    tree = ast.parse(
        "def _used():\n"
        "    return _Helper()._step()\n"
        "def _orphan():\n"
        "    return 0\n"
        "class _Helper:\n"
        "    def __init__(self):\n"
        "        self._left = 0\n"
        "    def _step(self):\n"
        "        return _used\n"
        "    def _stale(self):\n"
        "        return self._left\n"
        "class _Unread:\n"
        "    pass\n"
    )
    read = read_names(tree) | read_attributes(tree)
    assert orphans(tree, read) == [(3, "_orphan"), (10, "_stale"), (12, "_Unread")]


def test_no_unused_imports():
    assert package_findings(unused_imports) == []


def test_no_unread_locals():
    assert package_findings(unread_locals) == []


def test_no_orphan_private_definitions():
    trees = [
        ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")
    ]
    assert sum(len(private_definitions(tree)) for tree in trees) > 0
    read = set().union(*(read_names(tree) | read_attributes(tree) for tree in trees))
    assert package_findings(partial(orphans, read=read)) == []
