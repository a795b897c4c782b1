"""Schema fuzz of the CLI: leaves of the shipped model files are replaced by
values of the wrong type, non-finite strings, extreme and signed-zero
numbers and empty or nested lists, and every subcommand runs on the result
in-process.  Each run must end with a documented exit code (0, 2-7) and
never with a traceback."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from chisini.cli import main

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")

#: Exit codes that the CLI documents: success and the typed failures.
DOCUMENTED = {0, 2, 3, 4, 5, 6, 7}

#: Per shipped model, the command lines run on each mutated copy; together
#: they cover every subcommand.
COMMANDS = {
    "entropic.json": [
        ["validate"],
        ["compute", "--utility", "entropic", "--act", "log-two",
         "--partition", "trivial"],
        ["audit", "--functional", "eu"],
        ["tower", "--utility", "entropic", "--chain", "full", "trivial"],
        ["repair", "--utility", "entropic"],
    ],
    "partition.json": [
        ["validate"],
        ["compute", "--utility", "mixed", "--act", "payoff",
         "--partition", "weather"],
        ["audit", "--functional", "eu-entropic"],
        ["tower", "--utility", "mixed", "--chain", "fine", "weather", "coarse"],
    ],
    "audit_zoo.json": [
        ["validate"],
        ["audit", "--functional", "eu-linear"],
        ["audit", "--functional", "choquet-squared"],
        ["compute", "--utility", "cubic", "--act", "ladder", "--partition", "split"],
    ],
    "repair.json": [
        ["validate"],
        ["repair", "--utility", "haunted"],
        ["compute", "--utility", "haunted", "--act", "probe",
         "--partition", "trivial"],
    ],
}

REPLACEMENTS = st.sampled_from(
    [
        # type swaps
        True, False, None, "text", "", 1, 0, {}, {"family": "linear"},
        # non-finite strings
        "nan", "NaN", "inf", "-inf", "Infinity",
        # huge integers, the float range's ends and subnormals
        10**400, -(10**400), 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308,
        # a signed zero
        -0.0,
        # empty and nested lists
        [], [[]], [[1.0]], [[], [0.0]],
    ]
)


def leaves(node, path=()):
    """The path of every scalar and empty container in a JSON document."""
    if not (isinstance(node, (dict, list)) and node):
        yield path
        return
    for key in node if isinstance(node, dict) else range(len(node)):
        yield from leaves(node[key], path + (key,))


def replaced(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` set to ``value``."""
    if not path:
        return value
    copy = doc.copy()
    copy[path[0]] = replaced(doc[path[0]], path[1:], value)
    return copy


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(COMMANDS)), st.integers(1, 3), st.data())
def test_mutated_model_exits_with_a_documented_code(name, count, data):
    with open(os.path.join(MODELS, name), encoding="utf-8") as fh:
        doc = json.load(fh)
    for _ in range(count):  # the version string is checked first, so keep it
        paths = [path for path in leaves(doc) if path != ("version",)]
        doc = replaced(doc, data.draw(st.sampled_from(paths)), data.draw(REPLACEMENTS))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in COMMANDS[name]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--model", path, "--out", os.path.join(tmp, "out")])
            assert code in DOCUMENTED, (argv, doc, code, err.getvalue())
