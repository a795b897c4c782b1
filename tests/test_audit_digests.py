"""Recorded float-hex digests of the four audit entry points.

For each functional below, ``check_strict_monotonicity``,
``check_sure_thing``, ``check_conditionable_all_events`` and
``equivalence_harness`` are run and their ``to_dict()`` reports (or the
type and message of the error raised) are dumped with every float written
as ``float.hex``.  The SHA-256 of each dump is compared with
``audit_digests.json``, so any moved float, witness, count or message
fails the test.  Choquet's capacity rows are the floats of numpy's
``cumsum`` and ``**`` on its path without AVX-512, computed in Python with
libm's ``pow``, so its digests do not depend on whether the CPU has
AVX-512; CI reruns this suite with numpy's AVX-512 code switched off.

Regenerate the file only for a deliberate change of audit output:

    PYTHONPATH=src python tests/test_audit_digests.py
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from chisini import (
    AdditiveRepresentation,
    ExponentialCurve,
    FiniteSpace,
    LinearCurve,
    PiecewiseLinearCurve,
    PowerCurve,
    PreferenceFunctional,
    StateUtility,
    check_conditionable_all_events,
    check_strict_monotonicity,
    check_sure_thing,
    choquet_functional,
    equivalence_harness,
    expected_utility_functional,
    grid_table_functional,
)
from chisini.errors import ChisiniError
from hexfloats import float_hex

DIGESTS = Path(__file__).with_name("audit_digests.json")

ENTRY_POINTS = {
    "strict_monotonicity": check_strict_monotonicity,
    "sure_thing": check_sure_thing,
    "conditionable_all_events": check_conditionable_all_events,
    "equivalence_harness": equivalence_harness,
}


def dump(entry_point, t) -> str:
    """The entry point's report on ``t``, or its error, as float-hex JSON."""
    try:
        out = entry_point(t).to_dict()
    except (ChisiniError, ArithmeticError, ValueError) as exc:
        out = {"error": type(exc).__name__, "message": str(exc)}
    return json.dumps(float_hex(out), sort_keys=True)


def digest(entry_point, t) -> str:
    return hashlib.sha256(dump(entry_point, t).encode()).hexdigest()


def _eu(space, curve, grid, name):
    rep = AdditiveRepresentation(
        StateUtility(space, curve)
        if isinstance(curve, tuple)
        else StateUtility.state_independent(space, curve)
    )
    return expected_utility_functional(rep, grid, name=name)


def _table(seed, n, g, bump):
    """Seeded grid table on n uniform outcomes over grid 0..g-1: random
    integers 0..3 (many ties, monotonicity failures), or a sum of
    per-outcome nondecreasing steps with one entry moved by ``bump``.
    Kept apart from ``test_audit.random_grid_table`` so that the recorded
    functionals cannot drift with it."""
    rng = np.random.default_rng(seed)
    space = FiniteSpace.uniform([f"w{i}" for i in range(n)])
    if bump is None:
        table = rng.integers(0, 4, size=g**n).astype(float)
    else:
        steps = np.cumsum(rng.integers(0, 2, size=(n, g)), axis=1)
        digits = np.indices((g,) * n)
        table = sum(steps[i][digits[i]] for i in range(n)).ravel().astype(float)
        table[rng.integers(g**n // 2, g**n)] += bump
    return grid_table_functional(
        space,
        tuple(float(v) for v in range(g)),
        [float(v) for v in table],
        f"table-{n}x{g}-{seed}-{bump!r}",
    )


def functionals():
    """Functionals on at most 3 outcomes: witnesses from the monotonicity
    audit, both sure-thing phases and conditionability, and bracket
    failures."""
    two = FiniteSpace.uniform(["a", "b"])
    skew = FiniteSpace(("a", "b"), (0.3, 0.7))
    uniform = FiniteSpace.uniform(["a", "b", "c"])
    null = FiniteSpace(("a", "b", "c"), (0.5, 0.5, 0.0))
    g3, g4, sym = (0.0, 1.0, 2.0), (0.0, 1.0, 2.0, 3.0), (-1.0, 0.0, 1.0)
    kinked = PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-2.0, 0.0, 1.0), 2.0, 0.5)
    out = [
        _eu(two, LinearCurve(), sym, "eu-linear"),
        _eu(skew, ExponentialCurve(1.0), g3, "eu-exp"),
        _eu(two, ExponentialCurve(-1.0), sym, "eu-exp-neg"),
        _eu(skew, PowerCurve(3.0), g4, "eu-cube"),
        _eu(two, PowerCurve(0.5), sym, "eu-sqrt"),
        _eu(skew, kinked, sym, "eu-kinked"),
        _eu(skew, (ExponentialCurve(1.0), PowerCurve(2.0)), g3, "eu-state-dep"),
        _eu(null, PowerCurve(3.0), g3, "eu-null-3"),
    ]
    # p = 0.7 on these weights is path-dependent: numpy's AVX-512 ``**``
    # moves a capacity row, and with it three of the four reports
    skew3 = FiniteSpace(("a", "b", "c"), (0.2, 0.5, 0.3))
    for space, p, grid, name in (
        (uniform, 2.0, g3, "choquet-p2-uniform"),
        (skew, 2.0, g3, "choquet-p2-skew"),
        (skew, 1.0, g3, "choquet-p1-skew"),
        (skew3, 0.7, g3, "choquet-p0.7-skew3"),
    ):
        out.append(choquet_functional(space, p, grid, name=name))
    w = skew.weights
    mean = AdditiveRepresentation(StateUtility.state_independent(skew, LinearCurve()))

    def mean_variance(act):
        m = sum(p * v for p, v in zip(w, act.values))
        return m - sum(p * (v - m) ** 2 for p, v in zip(w, act.values))

    for name, evaluator, grid in (
        ("tanh-of-mean", lambda act: math.tanh(mean.evaluate(act)), g3),
        ("mean-variance", mean_variance, (0.0, 1.0, 5.0)),
        ("max", lambda act: max(act.values), sym),
        ("min", lambda act: min(act.values), g4),
        ("decreasing", lambda act: -sum(act.values), g3),
        ("nan-at-top", lambda act: math.nan if min(act.values) == 2.0
         else mean.evaluate(act), g3),
        ("one-value-grid", lambda act: sum(act.values), (1.0,)),
    ):
        out.append(PreferenceFunctional(skew, evaluator, grid=grid, name=name))
    out.append(
        grid_table_functional(two, g3, [0.0, 2.0, 4.0, 1.0, 0.5, 5.0, 2.0, 4.0, 6.0],
                              "dip-table")
    )
    for seed, n, g, bump in (
        (0, 2, 3, None), (1, 2, 4, None), (2, 3, 3, None), (3, 3, 4, None),
        (4, 2, 3, 0.0), (5, 2, 4, 0.0), (6, 2, 4, 0.7), (7, 2, 4, -0.7),
        (8, 3, 3, 2e-9), (9, 2, 4, -2e-9), (10, 2, 4, 1e-10), (11, 2, 4, 1.3),
        (12, 2, 3, 0.7),
    ):
        out.append(_table(seed, n, g, bump))
    return out


FUNCTIONALS = functionals()


def test_names_are_distinct_and_recorded():
    names = [t.name for t in FUNCTIONALS]
    assert len(set(names)) == len(names)
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(names)


@pytest.mark.parametrize("t", FUNCTIONALS, ids=lambda t: t.name)
def test_reports_match_recorded_digests(t):
    recorded = json.loads(DIGESTS.read_text())[t.name]
    assert {key: digest(fn, t) for key, fn in ENTRY_POINTS.items()} == recorded


if __name__ == "__main__":
    DIGESTS.write_text(
        json.dumps(
            {
                t.name: {key: digest(fn, t) for key, fn in ENTRY_POINTS.items()}
                for t in FUNCTIONALS
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
