"""Recorded float-hex digests of expectation-family outputs.

Two kinds of output are pinned:

- ``audit_certainty_equivalent`` reports on the inputs of the benchmark's
  ``ce-audit`` workload (3 outcomes with seeded weights, grid (0, 1),
  4 trials) for seeds 101, 202 and 303 and both of its utilities: a
  state-dependent one whose projection inverts by bisection and an
  exponential one that inverts in closed form; with each report, the
  certainty equivalent of every act that the reference audit, which
  solves every continuity term, evaluates (the library's audit must match
  its report and evaluate a subset of those acts, float for float);
- ``check_tower`` defects of seeded acts under families over mixtures,
  knot tables, closed-form curves and null outcomes, on several algebras.

Every float is written as ``float.hex`` before hashing, so any moved
float, count or message fails the test.  Regenerate the file only for a
deliberate change of family output:

    PYTHONPATH=src python tests/test_family_digests.py
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from chisini import (
    Act,
    AdditiveRepresentation,
    ExpectationFamily,
    ExponentialCurve,
    FiniteSpace,
    LinearCurve,
    PartitionAlgebra,
    PiecewiseLinearCurve,
    PowerCurve,
    StateUtility,
    audit_certainty_equivalent,
    check_tower,
)
from ce_reference import recording, reference_audit
from chisini.errors import ChisiniError
from hexfloats import float_hex, normalized

DIGESTS = Path(__file__).with_name("family_digests.json")


def digest(run) -> str:
    """SHA-256 of ``run()``'s float-hex JSON, or of its error."""
    try:
        out = run()
    except (ChisiniError, ArithmeticError, ValueError) as exc:
        out = {"error": type(exc).__name__, "message": str(exc)}
    return hashlib.sha256(json.dumps(float_hex(out), sort_keys=True).encode()).hexdigest()


def _family(space, curves):
    return ExpectationFamily.from_representation(
        AdditiveRepresentation(StateUtility(space, curves))
    )


def ce_audit_cases():
    """The ``ce-audit`` workload's two audits per seed, built as it builds
    them: weights uniform on [0.5, 1.5] normalized, then one audit seed
    per utility, all from ``random.Random(seed)``."""
    cases = {}
    for seed in (101, 202, 303):
        rng = random.Random(seed)
        raw = [rng.uniform(0.5, 1.5) for _ in range(3)]
        space = FiniteSpace(("a", "b", "c"), normalized(raw))
        utilities = (
            ("state-dependent", (ExponentialCurve(0.5), PowerCurve(3.0), LinearCurve(1.5))),
            ("exponential", (ExponentialCurve(1.0),) * 3),
        )
        audit_seeds = [rng.randrange(2**31) for _ in utilities]
        for (name, curves), audit_seed in zip(utilities, audit_seeds):
            cases[f"ce-audit-{seed}-{name}"] = (
                lambda fam=_family(space, curves), s=audit_seed: _audit(fam, s)
            )
    return cases


def _audit(fam, seed):
    """The audit's report, and the E_0 value of every act that the
    reference audit (:mod:`ce_reference`, which solves every continuity
    term) evaluates, sorted by act: a passing report holds no float of its
    own.  The library's report must equal the reference's, and the acts
    that the library evaluates must be among the reference's, each with
    the same E_0 float."""
    seen, expected = {}, {}
    report = audit_certainty_equivalent(recording(fam, seen), (0.0, 1.0), 4, seed=seed)
    reference = reference_audit(recording(fam, expected), (0.0, 1.0), 4, seed=seed)
    assert float_hex(report.to_dict()) == float_hex(reference.to_dict())
    assert all(
        x in expected and expected[x].hex() == value.hex() for x, value in seen.items()
    )
    return {"report": report.to_dict(), "e0": sorted(expected.items())}


def tower_cases():
    """Tower defects of 12 seeded acts on [-2, 2] per (utility, algebra)."""
    kinked = PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-2.0, 0.0, 1.0), 2.0, 0.5)
    bent = PiecewiseLinearCurve((-0.5, 0.0, 2.0), (-0.25, 0.0, 3.0), 0.5, 1.0)
    five = FiniteSpace(("a", "b", "c", "d", "e"), (0.1, 0.2, 0.3, 0.15, 0.25))
    null = FiniteSpace(("a", "b", "c", "d"), (0.4, 0.0, 0.35, 0.25))
    four = FiniteSpace.uniform(["a", "b", "c", "d"])
    utilities = {
        "mixed-5": (five, (ExponentialCurve(1.0), PowerCurve(2.0), LinearCurve(1.3),
                           ExponentialCurve(-0.5), PowerCurve(3.0))),
        "knots-5": (five, (kinked, bent, LinearCurve(0.7), kinked, bent)),
        "exponential-4": (four, (ExponentialCurve(1.0),) * 4),
        "cube-4": (four, (PowerCurve(3.0),) * 4),
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
        fam = _family(space, curves)
        n = space.size
        for label, blocks in partitions[n].items():
            algebra = PartitionAlgebra(space, tuple(frozenset(b) for b in blocks))
            rng = random.Random(f"{name}/{label}")
            acts = [
                Act(space, tuple(rng.uniform(-2.0, 2.0) for _ in range(n)))
                for _ in range(12)
            ]
            cases[f"tower-{name}-{label}"] = (
                lambda fam=fam, acts=acts, algebra=algebra: [
                    check_tower(fam, x, algebra) for x in acts
                ]
            )
    return cases


def cases():
    """Each case's runner by name; the inputs are built on every call."""
    return {**ce_audit_cases(), **tower_cases()}


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
