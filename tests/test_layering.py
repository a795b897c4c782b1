"""Module layering of the package: the import graph is acyclic, the
solver core does not reach up into the audit, family or front-end layers,
numpy is loaded only where arrays are built, and the lazy top-level
namespace exports the same objects as before."""

import ast
import importlib
import json
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import chisini

PACKAGE = Path(chisini.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

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


def test_only_the_representation_touches_its_projection_cache():
    """The check-project-keep policy has one owner: the module that defines
    ``AdditiveRepresentation._projections`` is the only one that reads or
    writes it."""
    touching = sorted(
        path.stem
        for path in PACKAGE.glob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr == "_projections"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    )
    assert touching == ["utility"]


NUMPY_FREE = (
    "spaces",
    "curves",
    "utility",
    "conditional",
    "errors",
    "reports",
    "modelfile",
    "family",
    "forge",
    "audit",
    "cli",
)

#: The commands that compute the paper's objects; none builds an array.
#: ``repair`` is added per test, with its written model under ``tmp_path``.
ARRAY_FREE_COMMANDS = [
    ["validate", "--model", "models/partition.json"],
    ["validate", "--model", "models/audit_zoo.json"],
    [
        "compute", "--model", "models/entropic.json", "--utility", "entropic",
        "--act", "log-two", "--partition", "trivial",
    ],
    [
        "compute", "--model", "models/partition.json", "--utility", "mixed",
        "--act", "payoff", "--partition", "weather",
    ],
    [
        "tower", "--model", "models/partition.json", "--utility", "mixed",
        "--chain", "fine", "weather", "coarse",
    ],
]

#: The public names, in ``__all__`` order, with the module each was
#: imported from when ``chisini/__init__.py`` imported them eagerly.
EXPORTS = {
    "Act": "spaces",
    "AdditiveRepresentation": "utility",
    "AuditReport": "reports",
    "CheckResult": "reports",
    "ChisiniSolution": "conditional",
    "ConditionabilityResult": "conditional",
    "Curve": "curves",
    "DyadicGrid": "forge",
    "DyadicGridUtility": "forge",
    "EventSet": "spaces",
    "ExpectationFamily": "family",
    "ExponentialCurve": "curves",
    "FiniteSpace": "spaces",
    "JumpReport": "forge",
    "LinearCurve": "curves",
    "MixtureCurve": "curves",
    "PartitionAlgebra": "spaces",
    "PiecewiseLinearCurve": "curves",
    "PowerCurve": "curves",
    "PreferenceFunctional": "audit",
    "ProjectedUtility": "utility",
    "SetFunctionalOracle": "forge",
    "StateUtility": "utility",
    "ValidationReport": "utility",
    "Witness": "audit",
    "audit_certainty_equivalent": "family",
    "build_u_plus": "forge",
    "check_conditionable_all_events": "audit",
    "check_conditionable_on_event": "audit",
    "check_fixpoint_on_measurable": "family",
    "check_locality": "family",
    "check_strict_monotonicity": "audit",
    "check_sure_thing": "audit",
    "check_tower": "family",
    "chisini_mean": "conditional",
    "choquet_functional": "audit",
    "conditional_expectation": "spaces",
    "detect_jumps": "forge",
    "ensure_regular": "utility",
    "equal_up_to_null": "spaces",
    "equivalence_harness": "audit",
    "errors": None,
    "evaluate_envelope": "forge",
    "expected_utility_functional": "audit",
    "extract_utility": "forge",
    "generalized_inverse": "utility",
    "grid_table_functional": "audit",
    "image_interval": "utility",
    "is_null_event": "spaces",
    "paste": "spaces",
    "project_utility": "utility",
    "refine": "spaces",
    "repair_continuous": "forge",
    "taking_out": "conditional",
    "uniqueness_check": "conditional",
    "validate_grid_regularity": "forge",
    "validate_regular": "utility",
    "verify_conditionable": "conditional",
}


def run_fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter that imports this checkout; its
    last stdout line is a JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_solver_path_imports_no_numpy():
    imports = "; ".join(f"import chisini.{name}" for name in NUMPY_FREE)
    result = run_fresh(
        f"import json, sys; import chisini; {imports}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('numpy'))))"
    )
    assert result == []


def test_audit_constant_solves_load_no_numpy():
    """The audits build arrays only for their grid searches: building an
    expected-utility functional and solving its constants loads no numpy."""
    result = run_fresh(
        "import json, sys\n"
        "from chisini import (AdditiveRepresentation, ExponentialCurve,\n"
        "    FiniteSpace, StateUtility)\n"
        "from chisini.audit import _solve_constant, expected_utility_functional\n"
        "space = FiniteSpace.uniform(['a', 'b'])\n"
        "utility = StateUtility.state_independent(space, ExponentialCurve(1.0))\n"
        "t = expected_utility_functional(AdditiveRepresentation(utility))\n"
        "solved = [_solve_constant(t, mask, (0.5,) * bin(mask).count('1'), 0.5)\n"
        "          for mask in range(4)]\n"
        "print(json.dumps({'monotone': t.monotone, 'solves': len(solved),\n"
        "                  'numpy': 'numpy' in sys.modules}))\n"
    )
    assert result == {"monotone": True, "solves": 4, "numpy": False}


def test_array_free_commands_load_no_numpy(tmp_path):
    commands = ARRAY_FREE_COMMANDS + [
        [
            "repair", "--model", "models/repair.json", "--utility", "haunted",
            "--out", str(tmp_path / "repaired.json"),
        ],
    ]
    result = run_fresh(
        "import json, sys\n"
        "from chisini.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        "print()\n"
        "print(json.dumps({'codes': codes, 'numpy': 'numpy' in sys.modules}))\n"
    )
    assert result == {"codes": [0] * len(commands), "numpy": False}
    assert "haunted-repaired" in json.loads((tmp_path / "repaired.json").read_text())["utilities"]


def test_commands_load_only_the_modules_they_run(tmp_path):
    """Each command imports its own layer: ``validate``, ``audit`` and
    ``repair`` run no solve, so they load neither the solver nor the
    family module."""
    commands = [
        ["validate", "--model", "models/partition.json"],
        ["audit", "--model", "models/audit_zoo.json", "--functional", "eu-linear"],
        [
            "repair", "--model", "models/repair.json", "--utility", "haunted",
            "--out", str(tmp_path / "repaired.json"),
        ],
    ]
    result = run_fresh(
        "import json, sys\n"
        "from chisini.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        "print()\n"
        "print(json.dumps({'codes': codes, 'loaded': sorted(\n"
        "    m for m in ('chisini.conditional', 'chisini.family') if m in sys.modules\n"
        ")}))\n"
    )
    assert result == {"codes": [0, 0, 0], "loaded": []}


def test_lazy_exports_are_the_eager_ones():
    assert chisini.__all__ == list(EXPORTS)
    for name, module in EXPORTS.items():
        if module is None:
            expected = importlib.import_module(f"chisini.{name}")
        else:
            expected = getattr(importlib.import_module(f"chisini.{module}"), name)
        assert getattr(chisini, name) is expected, name


def test_submodule_attribute_and_star_import_in_a_fresh_interpreter():
    result = run_fresh(
        "import json, chisini\n"
        "audit = chisini.audit\n"
        "namespace = {}\n"
        "exec('from chisini import *', namespace)\n"
        "print(json.dumps([audit.__name__, audit.check_sure_thing.__module__,"
        " sorted(k for k in namespace if k != '__builtins__')]))\n"
    )
    assert result == ["chisini.audit", "chisini.audit", list(EXPORTS)]
