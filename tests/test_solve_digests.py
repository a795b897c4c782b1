"""Recorded float-hex digests of ``chisini_mean``'s outputs.

For every solved act the test dumps the solution act's values, the signed
atom residuals and ``max_residual``; an act whose solve raises dumps the
error's type and message instead.  The cases are:

- the benchmark's ``solve`` workload inputs (64 outcomes with
  exponential, power and linear curves in turn, 10 round-robin atoms,
  16 acts on [-2, 2]) for seeds 101, 202 and 303, built as the workload
  builds them;
- seeded acts under utilities of mixed families, knot tables (merged
  exactly, and mixed with parametric curves), negative gamma, nested
  mixtures and null outcomes, on several algebras (null atoms among
  them), with both ``solver`` modes;
- acts near the overflow of one part: exponential gamma = 1 mixed with
  linear, at about -600 and down to where the utility overflows.

Every float is written as ``float.hex`` before hashing, so any moved
float or message fails the test.  Regenerate the file only for a
deliberate change of solver output:

    PYTHONPATH=src python tests/test_solve_digests.py
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from chisini import (
    Act,
    AdditiveRepresentation,
    ExponentialCurve,
    FiniteSpace,
    LinearCurve,
    MixtureCurve,
    PartitionAlgebra,
    PiecewiseLinearCurve,
    PowerCurve,
    StateUtility,
    chisini_mean,
)
from chisini.errors import ChisiniError
from hexfloats import float_hex

DIGESTS = Path(__file__).with_name("solve_digests.json")


def digest(run) -> str:
    """SHA-256 of ``run()``'s float-hex JSON."""
    return hashlib.sha256(json.dumps(float_hex(run()), sort_keys=True).encode()).hexdigest()


def _solve_all(rep, algebra, acts, solver="auto"):
    """One record per act: the solution's floats, or the error it raised."""
    out = []
    for f in acts:
        try:
            sol = chisini_mean(rep, f, algebra, solver=solver)
            out.append({
                "act": sol.act.values,
                "atom_residuals": sol.atom_residuals,
                "max_residual": sol.max_residual,
            })
        except (ChisiniError, ArithmeticError, ValueError) as exc:
            out.append({"error": type(exc).__name__, "message": str(exc)})
    return out


def workload_cases():
    """The ``solve`` workload's inputs per seed: curve parameters drawn in
    outcome order, then 16 acts, all from ``random.Random(seed)``."""
    families = (
        (ExponentialCurve, (0.5, 2.0)),
        (PowerCurve, (1.5, 3.0)),
        (LinearCurve, (0.5, 2.0)),
    )
    n, k = 64, 10
    cases = {}
    for seed in (101, 202, 303):
        rng = random.Random(seed)
        space = FiniteSpace.uniform([f"w{i}" for i in range(n)])
        curves = []
        for i in range(n):
            cls, bounds = families[i % 3]
            curves.append(cls(rng.uniform(*bounds)))
        rep = AdditiveRepresentation(StateUtility(space, tuple(curves)))
        algebra = PartitionAlgebra(
            space, tuple(frozenset(range(j, n, k)) for j in range(k))
        )
        acts = [
            Act(space, tuple(rng.uniform(-2.0, 2.0) for _ in range(n)))
            for _ in range(16)
        ]
        cases[f"workload-{seed}"] = (
            lambda rep=rep, algebra=algebra, acts=acts: _solve_all(rep, algebra, acts)
        )
    return cases


def utility_cases():
    """Eight seeded acts on [-2, 2], plus a zero, a constant and a wide act,
    per (utility, algebra, solver)."""
    kinked = PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-2.0, 0.0, 1.0), 2.0, 0.5)
    bent = PiecewiseLinearCurve((-0.5, 0.0, 2.0), (-0.25, 0.0, 3.0), 0.5, 1.0)
    inner = MixtureCurve((0.25, 0.75), (ExponentialCurve(1.0), PowerCurve(2.0)))
    five = FiniteSpace(("a", "b", "c", "d", "e"), (0.1, 0.2, 0.3, 0.15, 0.25))
    four = FiniteSpace(("a", "b", "c", "d"), (0.2, 0.3, 0.1, 0.4))
    null = FiniteSpace(("a", "b", "c", "d"), (0.4, 0.0, 0.35, 0.25))
    utilities = {
        "mixed-5": (five, (ExponentialCurve(1.0), PowerCurve(2.0), LinearCurve(1.3),
                           ExponentialCurve(-0.5), PowerCurve(3.0))),
        "knots-5": (five, (kinked, bent, LinearCurve(0.7), kinked, bent)),
        "knots-mixed-5": (five, (kinked, ExponentialCurve(1.5), bent, PowerCurve(1.5),
                                 LinearCurve(0.7))),
        "negative-gamma-4": (four, (ExponentialCurve(-1.5), ExponentialCurve(-0.5),
                                    PowerCurve(2.5), LinearCurve(2.0))),
        "nested-4": (four, (inner, LinearCurve(1.0), ExponentialCurve(0.5), kinked)),
        "null-4": (null, (ExponentialCurve(0.5), PowerCurve(3.0), kinked,
                          ExponentialCurve(2.0))),
    }
    partitions = {
        5: {"singletons": [[i] for i in range(5)], "pairs": [[0, 3], [1], [2, 4]],
            "halves": [[0, 1, 2], [3, 4]], "trivial": [list(range(5))]},
        4: {"singletons": [[i] for i in range(4)], "pairs": [[0, 1], [2, 3]],
            "straddle": [[0, 2], [1, 3]], "trivial": [list(range(4))]},
    }
    cases = {}
    for name, (space, curves) in utilities.items():
        rep = AdditiveRepresentation(StateUtility(space, curves))
        n = space.size
        for label, blocks in partitions[n].items():
            algebra = PartitionAlgebra(space, tuple(frozenset(b) for b in blocks))
            rng = random.Random(f"{name}/{label}")
            acts = [
                Act(space, tuple(rng.uniform(-2.0, 2.0) for _ in range(n)))
                for _ in range(8)
            ]
            acts += [
                Act.constant(space, 0.0),
                Act.constant(space, 1.5),
                Act(space, tuple(rng.uniform(-8.0, 8.0) for _ in range(n))),
            ]
            for solver in ("auto", "bisect"):
                cases[f"{name}-{label}-{solver}"] = (
                    lambda rep=rep, algebra=algebra, acts=acts, solver=solver:
                    _solve_all(rep, algebra, acts, solver)
                )
    return cases


def overflow_cases():
    """Exponential gamma = 1 mixed with linear, on acts whose mean sits near
    -600, where bracketing the mixture's inverse overflows the exponential
    part, and on acts whose utility overflows outright."""
    space = FiniteSpace(("a", "b"), (0.5, 0.5))
    rep = AdditiveRepresentation(
        StateUtility(space, (ExponentialCurve(1.0), LinearCurve(1.0)))
    )
    acts = [
        Act(space, values)
        for values in (
            (-600.0, -600.0), (-600.0, 0.0), (-599.5, -600.5), (0.0, -600.0),
            (-650.0, 3.0), (-700.0, -700.0), (-709.0, -709.0), (-710.0, 0.0),
        )
    ]
    partitions = {"trivial": [[0, 1]], "singletons": [[0], [1]]}
    cases = {}
    for label, blocks in partitions.items():
        algebra = PartitionAlgebra(space, tuple(frozenset(b) for b in blocks))
        for solver in ("auto", "bisect"):
            cases[f"overflow-{label}-{solver}"] = (
                lambda algebra=algebra, solver=solver:
                _solve_all(rep, algebra, acts, solver)
            )
    return cases


def cases():
    """Each case's runner by name; the inputs are built on every call."""
    return {**workload_cases(), **utility_cases(), **overflow_cases()}


CASES = cases()


def test_cases_are_recorded():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_digests(name):
    assert digest(CASES[name]) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    DIGESTS.write_text(
        json.dumps({name: digest(run) for name, run in CASES.items()}, indent=2,
                   sort_keys=True)
        + "\n"
    )
