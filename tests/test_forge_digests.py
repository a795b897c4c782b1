"""Recorded float-hex digests of the forge's outputs.

For seeded dyadic grids, each case builds a ``DyadicGridUtility`` from a
mix of sample rows (smooth, random increasing, jumps, ties, flat tops,
decreasing, a NaN or an infinite sample) over spaces with null outcomes,
and dumps:

- the samples ``values`` and the validated set ``theta``;
- ``validate_grid_regularity`` reports;
- ``detect_jumps`` reports over several thresholds and scan bounds;
- ``build_u_plus`` at every grid point, at -0.0, at +-bound, at
  subnormals, just beside grid points, at seeded points and out of range;
- ``evaluate_envelope`` of seeded grid-valued and off-grid acts;
- ``repair_continuous`` of the grid and of a knot table;
- ``extract_utility`` from representation oracles with null outcomes,
  followed by all of the above on the extracted samples.

Every float is written as ``float.hex`` before hashing, so any moved
float, witness, count or message fails the test.  Regenerate the file
only for a deliberate change of forge output:

    PYTHONPATH=src python tests/test_forge_digests.py
"""

import dataclasses
import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from chisini import (
    Act,
    AdditiveRepresentation,
    DyadicGrid,
    DyadicGridUtility,
    ExponentialCurve,
    FiniteSpace,
    LinearCurve,
    PiecewiseLinearCurve,
    PowerCurve,
    SetFunctionalOracle,
    StateUtility,
    build_u_plus,
    detect_jumps,
    evaluate_envelope,
    extract_utility,
    repair_continuous,
    validate_grid_regularity,
)
from chisini.errors import ChisiniError

DIGESTS = Path(__file__).with_name("forge_digests.json")

SEEDS = (7, 11, 23)
GRIDS = ((2, 1.0), (3, 2.0), (5, 1.5))
TINY = 5e-324
MIN_NORMAL = 2.2250738585072014e-308


def float_hex(value):
    """``value`` with every float replaced by its ``float.hex`` string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: float_hex(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [float_hex(v) for v in value]
    return value


def attempt(run, *args):
    """``run(*args)``, or the type and message of the error it raised."""
    try:
        return run(*args)
    except (ChisiniError, ArithmeticError, ValueError) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def digest(run) -> str:
    """SHA-256 of ``run()``'s float-hex JSON."""
    return hashlib.sha256(json.dumps(float_hex(run()), sort_keys=True).encode()).hexdigest()


def curve_dump(curve):
    return [type(curve).__name__, list(dataclasses.astuple(curve))]


def utility_dump(utility: StateUtility):
    return [curve_dump(c) for c in utility.curves]


def sample_rows(rng: random.Random, points):
    """One row per kind of sample, in a fixed order."""
    n = len(points)
    zero = n // 2
    steps = [rng.uniform(0.01, 1.0) for _ in range(n - 1)]
    walk = [0.0]
    for s in steps:
        walk.append(walk[-1] + s)
    walk = [w - walk[zero] for w in walk]
    cut = rng.randrange(1, n)
    height = rng.uniform(0.2, 2.0)
    tie = rng.randrange(1, n - 1)
    hole = rng.randrange(n)
    slope = rng.uniform(0.5, 2.0)
    return {
        "cube": [q ** 3 for q in points],
        "tanh": [math.tanh(q) for q in points],
        "linear": [slope * q for q in points],
        "walk": walk,
        "jump": [q + (height if j >= cut else 0.0) for j, q in enumerate(points)],
        "tie": [points[j - 1] if j == tie else q for j, q in enumerate(points)],
        "flat-top": [min(q, points[cut]) for q in points],
        "decreasing": [-q for q in points],
        "zeros": [0.0] * n,
        "nan": [math.nan if j == hole else q for j, q in enumerate(points)],
        "inf": [math.inf if j == hole else q for j, q in enumerate(points)],
    }


def grid_queries(rng: random.Random, grid: DyadicGrid):
    points = [float(q) for q in grid.points()]
    b = grid.bound
    near = [q + d for q in points[1:-1:3] for d in (-1e-9, 1e-9)]
    seeded = [rng.uniform(-b, b) for _ in range(8)]
    special = [-0.0, 0.0, b, -b, TINY, -TINY, MIN_NORMAL, -MIN_NORMAL,
               b + grid.step, -b - 1e-12, math.inf, -math.inf, math.nan]
    return points + near + seeded + special


def grid_battery(rng: random.Random, gu: DyadicGridUtility, weights_sets):
    """Every forge output on one grid utility."""
    grid = gu.grid
    points = [float(q) for q in grid.points()]
    out = {
        "values": [[float(v) for v in row] for row in gu.values],
        "theta": sorted(gu.theta),
        "regularity": validate_grid_regularity(gu).to_dict(),
    }
    scans = {}
    for eps in (0.05, 0.5, 1.5):
        for bound in (grid.bound, grid.bound / 2, 0.0, math.inf):
            scans[f"{eps}/{bound}"] = attempt(
                lambda e=eps, b=bound: detect_jumps(gu, e, b).to_dict()
            )
    out["jumps"] = scans
    out["u_plus"] = [
        [attempt(build_u_plus, gu, i, x) for x in grid_queries(rng, grid)]
        for i in range(gu.space.size)
    ]
    acts = [
        tuple(rng.choice(points) for _ in range(gu.space.size)) for _ in range(6)
    ] + [
        tuple(rng.uniform(-grid.bound, grid.bound) for _ in range(gu.space.size))
        for _ in range(4)
    ]
    out["envelope"] = [
        attempt(lambda a=a: evaluate_envelope(gu, Act(gu.space, a))) for a in acts
    ]
    repairs = []
    for weights in weights_sets:
        report = attempt(detect_jumps, gu, 0.5, grid.bound)
        if isinstance(report, dict):
            repairs.append(report)
            continue
        repaired = attempt(repair_continuous, gu, report, weights)
        repairs.append(repaired if isinstance(repaired, dict) else utility_dump(repaired))
    out["repair"] = repairs
    return out


def grid_cases():
    """Per seed and grid: all rows on a null-heavy space, and the finite
    rows alone (so the jump scan and repair run)."""
    cases = {}
    for seed in SEEDS:
        for level, bound in GRIDS:
            grid = DyadicGrid(level, bound)
            label = f"grid-{seed}-{level}-{bound}"

            def run(seed=seed, grid=grid, label=label):
                rng = random.Random(label)
                rows = sample_rows(rng, [float(q) for q in grid.points()])
                out = {}
                for subset in ("all", "finite"):
                    names = [k for k in rows if subset == "all" or k not in ("nan", "inf")]
                    weights = [0.0 if j % 3 == 1 else rng.uniform(0.1, 1.0)
                               for j in range(len(names))]
                    space = FiniteSpace(tuple(names), tuple(w / sum(weights) for w in weights))
                    gu = DyadicGridUtility(space, grid, [rows[k] for k in names])
                    null_all = tuple(0.0 for _ in names)
                    out[subset] = grid_battery(rng, gu, (space.weights, null_all))
                return out

            cases[label] = run
    return cases


STEP = PiecewiseLinearCurve((-1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 1.0, 2.0), 1.0, 1.0)
KINKED = PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-2.0, 0.0, 1.0), 2.0, 0.5)


def extraction_cases():
    """Oracles from representations, extracted and run through the forge."""
    utilities = {
        "smooth": (ExponentialCurve(1.0), PowerCurve(3.0), LinearCurve(1.5)),
        "kinked-null": (KINKED, ExponentialCurve(-0.5), STEP),
        "step-live": (STEP, LinearCurve(1.0), PowerCurve(2.0)),
    }
    cases = {}
    for seed in SEEDS:
        for name, curves in utilities.items():
            label = f"extract-{seed}-{name}"

            def run(curves=curves, label=label):
                rng = random.Random(label)
                raw = [rng.uniform(0.2, 1.0) for _ in curves]
                if "null" in label:
                    raw[2] = 0.0
                space = FiniteSpace(("a", "b", "c"), tuple(w / sum(raw) for w in raw))
                utility = StateUtility(space, curves)
                oracle = SetFunctionalOracle.from_representation(
                    AdditiveRepresentation(utility)
                )
                out = {"weights": list(oracle.singleton_weights())}
                for level, bound in GRIDS:
                    gu = extract_utility(oracle, DyadicGrid(level, bound))
                    out[f"{level}/{bound}"] = grid_battery(rng, gu, (gu.space.weights,))
                knots = detect_jumps(utility, 0.5, 2.0)
                out["knots"] = knots.to_dict()
                repaired = attempt(repair_continuous, utility, knots, space.weights)
                out["knots-repair"] = (
                    repaired if isinstance(repaired, dict) else utility_dump(repaired)
                )
                return out

            cases[label] = run
    return cases


def points_case():
    return {
        f"{level}/{bound}": [float(q) for q in DyadicGrid(level, bound).points()]
        for level in range(1, 11)
        for bound in (0.5, 1.0, 3.0)
    }


CASES = {**grid_cases(), **extraction_cases(), "points": points_case}


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
