"""One float contract on every interpreter the package admits.

From Python 3.12 the builtin ``sum`` compensates float sums (Neumaier), so
a library that summed with it would print different floats on 3.11 and
3.12.  The library adds its floats left to right instead.  These tests
put a Python copy of the compensated builtin in place of ``sum`` in every
``chisini`` module and require the digest suites' cases, built and run
under it, to come out as recorded.
"""

import importlib
import json
import math
import random
import sys
from pathlib import Path

import pytest

import chisini
import test_audit_digests
import test_family_digests
import test_forge_digests
import test_solve_digests
from chisini.curves import ExponentialCurve, MixtureCurve, _lsum
from chisini.utility import _invert
from hexfloats import float_hex

PACKAGE = Path(chisini.__file__).parent


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` of Python 3.12 and 3.13, written in Python:
    integers add exactly, then floats add with a Neumaier compensation
    that is dropped when it is 0 or not finite."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(item) is not int:
                break
    if type(total) is not float:
        for item in items:
            total = total + item
        return total
    c = 0.0
    for item in items:
        if type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                c += (total - t) + item
            else:
                c += (item - t) + total
            total = t
        elif type(item) is int and -(2**63) <= item < 2**63:
            total += float(item)
        else:  # any other number ends the float path, as in the builtin
            if c and math.isfinite(c):
                total += c
            total = total + item
            for item in items:
                total = total + item
            return total
    if c and math.isfinite(c):
        total += c
    return total


def compensate(monkeypatch) -> None:
    """Make ``sum`` the compensated one in every module of the package."""
    for path in PACKAGE.glob("*.py"):
        name = "chisini" if path.stem == "__init__" else f"chisini.{path.stem}"
        monkeypatch.setattr(importlib.import_module(name), "sum", compensated_sum,
                            raising=False)


def test_the_stand_ins_match_the_builtin_sum():
    """On 3.12 and later the builtin is the compensated sum; before, it adds
    left to right as ``_lsum`` does."""
    reference = compensated_sum if sys.version_info >= (3, 12) else _lsum
    rng = random.Random(2024)
    for _ in range(5000):
        values = [
            rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-20, 20)
            for _ in range(rng.randrange(1, 12))
        ]
        assert float_hex(reference(values)) == float_hex(sum(values))
    # the two contracts differ, so the injection below is not vacuous
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert _lsum([1e16, 1.0, -1e16]) == 0.0


@pytest.mark.parametrize(
    "suite",
    [test_solve_digests, test_family_digests, test_forge_digests],
    ids=["solve", "family", "forge"],
)
def test_digests_do_not_depend_on_the_builtin_sum(suite, monkeypatch):
    compensate(monkeypatch)
    recorded = json.loads(suite.DIGESTS.read_text())
    cases = suite.cases()
    assert sorted(cases) == sorted(recorded)
    moved = [name for name, run in sorted(cases.items()) if suite.digest(run) != recorded[name]]
    assert moved == []


def test_audit_digests_do_not_depend_on_the_builtin_sum(monkeypatch):
    compensate(monkeypatch)
    suite = test_audit_digests
    recorded = json.loads(suite.DIGESTS.read_text())
    moved = [
        t.name
        for t in suite.functionals()
        if {key: suite.digest(fn, t) for key, fn in suite.ENTRY_POINTS.items()}
        != recorded[t.name]
    ]
    assert moved == []


@pytest.mark.parametrize("compensated", [False, True], ids=["builtin", "compensated"])
def test_a_saturated_mixture_reaches_its_upper_limit(compensated, monkeypatch):
    """A compensated ``value`` saturated one ulp below the left-to-right
    limit, and an inverse target in that gap failed to bracket."""
    if compensated:
        compensate(monkeypatch)
    m = MixtureCurve(
        (0.5, 0.1875, 0.3125),
        (ExponentialCurve(1.12), ExponentialCurve(1.31), ExponentialCurve(1.32)),
    )
    assert m.value(1000.0) == m.upper_limit() == 0.8263007666633622
    assert _invert(m, 0.826300766663362, "auto") == 33.41959620556881
