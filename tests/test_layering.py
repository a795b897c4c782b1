"""Module layering of the package: the import graph is acyclic and the
solver core does not reach up into the audit, family or front-end layers."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import chisini

PACKAGE = Path(chisini.__file__).parent

CORE = ("spaces", "curves", "utility", "conditional")
UPPER = ("audit", "family", "forge", "modelfile", "cli")


def import_graph() -> dict[str, set[str]]:
    """Module name -> modules it imports with ``from .x import``."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        }
    return graph


def test_import_graph_is_acyclic():
    try:
        tuple(TopologicalSorter(import_graph()).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None


def test_core_does_not_import_upper_layers():
    graph = import_graph()
    assert set(CORE + UPPER) <= set(graph)
    assert "audit" in graph["cli"]  # the parser sees real edges
    bad = sorted(
        (core, upper) for core in CORE for upper in UPPER if upper in graph[core]
    )
    assert bad == []
