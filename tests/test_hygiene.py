"""Source hygiene of the package: no module imports a name that it never
reads, and no function assigns a local that it never reads."""

import ast
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


def test_no_unused_imports():
    assert package_findings(unused_imports) == []


def test_no_unread_locals():
    assert package_findings(unread_locals) == []
