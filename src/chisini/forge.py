"""Constructive recovery of state-dependent utilities from additive
set-functionals, and repair of discontinuous ones.

The pipeline mirrors how a utility is dug out of a preference functional:

1. :func:`extract_utility` reads the per-outcome utility off the oracle as
   an explicit density: on a finite space the value u(w, q) at a grid
   point q is the oracle's mass on the singleton {w} at the constant act
   q, divided by the singleton's probability.
2. :func:`validate_grid_regularity` checks the two almost-sure regularity
   conditions at grid scale: strict increase across grid points, and
   right-continuity in the form "no increment exceeds the continuity
   allowance".  The allowance is derived from neighbouring increments (a
   local Lipschitz estimate) and is always reported.
3. :func:`build_u_plus` evaluates the right-continuous envelope: the
   infimum of grid samples at or above the query point on validated
   outcomes, the identity elsewhere.
4. :func:`detect_jumps` locates discontinuities larger than a threshold,
   exactly for knot tables and as a lower bound for sampled grids, and
   records each outcome's first jump location.
5. :func:`repair_continuous` replaces jumpy curves by the identity, which
   is only sound on zero-weight outcomes; a jump on a positive-weight
   outcome proves the source functional was not pointwise continuous and
   raises ContinuityViolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .curves import LinearCurve, PiecewiseLinearCurve
from .errors import (
    ContinuityViolation,
    OutOfGridRange,
    PropertyFlagMissing,
)
from .reports import AuditReport, CheckResult
from .spaces import Act, EventSet, FiniteSpace
from .utility import AdditiveRepresentation, StateUtility

#: Dyadic grid levels supported.
MIN_LEVEL, MAX_LEVEL = 1, 20

#: Absolute floor added to continuity allowances so exactly flat regions do
#: not drown in round-off.
ALLOWANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class SetFunctionalOracle:
    """Black-box V_A(f) with declared structural properties.

    Flags record which properties the producer vouches for: c1 (additive
    set function, total mass defines a probability) and c2 (masking:
    V_A(f) = V_Omega(f 1_A)).
    """

    space: FiniteSpace
    evaluator: Callable[[EventSet, Act], float]
    c1: bool = False
    c2: bool = False

    @classmethod
    def from_representation(cls, rep: AdditiveRepresentation) -> "SetFunctionalOracle":
        def evaluate(event: EventSet, f: Act) -> float:
            return rep.evaluate_on_event(event.members, f)

        return cls(rep.space, evaluate, c1=True, c2=True)

    def __call__(self, event: EventSet, f: Act) -> float:
        return float(self.evaluator(event, f))

    def singleton_weights(self) -> tuple[float, ...]:
        """The probability the oracle induces: its mass at the unit act,
        normalized by the total mass V_Omega(1).

        Representation pairs are unique only up to state-dependent
        rescaling, so the recovered probability absorbs each outcome's
        utility level at 1; the recovered utility compensates and the
        aggregate functional is reproduced exactly.
        """
        ones = Act.constant(self.space, 1.0)
        raw = [
            self(EventSet(self.space, frozenset({i})), ones)
            for i in range(self.space.size)
        ]
        total = sum(raw)
        if total <= 0.0 or any(w < 0.0 for w in raw):
            raise PropertyFlagMissing(
                "oracle mass at the unit act does not define a probability"
            )
        return tuple(w / total for w in raw)


@dataclass(frozen=True)
class DyadicGrid:
    """Dyadic rationals k / 2**level inside [-bound, bound]."""

    level: int
    bound: float = 8.0

    def __post_init__(self):
        if not MIN_LEVEL <= self.level <= MAX_LEVEL:
            raise ValueError(f"level must lie in [{MIN_LEVEL}, {MAX_LEVEL}]")
        if self.bound <= 0:
            raise ValueError("bound must be positive")
        if float(self.bound * 2 ** self.level) != int(self.bound * 2 ** self.level):
            raise ValueError("bound must be a dyadic number at this level")

    @property
    def step(self) -> float:
        return 2.0 ** (-self.level)

    def points(self) -> np.ndarray:
        k = int(self.bound * 2 ** self.level)
        return np.arange(-k, k + 1, dtype=float) * self.step

    @property
    def zero_index(self) -> int:
        return int(self.bound * 2 ** self.level)


class DyadicGridUtility:
    """Per-outcome utility samples on a dyadic grid.

    ``theta`` is the set of outcomes passing the grid-scale regularity
    checks; the right-continuous envelope falls back to the identity off
    this set.

    Joint measurability of (outcome, x) -> value is structural at finite
    scale: evaluation is total on the outcome set times the grid range,
    so it is documented here rather than tested.
    """

    def __init__(self, space: FiniteSpace, grid: DyadicGrid, values):
        values = np.asarray(values, dtype=float)
        expected = (space.size, grid.points().size)
        if values.shape != expected:
            raise ValueError(f"values must have shape {expected}")
        self.space = space
        self.grid = grid
        self.values = values
        self.values.setflags(write=False)
        self.theta = frozenset(
            i
            for i in range(space.size)
            if _strictly_increasing(values[i])
            and not _allowance_violations(values[i])
        )


def _strictly_increasing(row: np.ndarray) -> bool:
    return bool(np.all(np.diff(row) > 0.0))


def _local_allowances(increments: np.ndarray) -> np.ndarray:
    """Continuity allowance per increment: twice the larger neighbouring
    increment (a local Lipschitz estimate times the step), plus a floor;
    NaN when either neighbour is NaN, whichever side it is on."""
    n = increments.size
    allow = np.empty(n)
    for i in range(n):
        neighbours = []
        if i > 0:
            neighbours.append(increments[i - 1])
        if i + 1 < n:
            neighbours.append(increments[i + 1])
        allow[i] = 2.0 * np.max(neighbours) if neighbours else np.inf
    return allow + ALLOWANCE_FLOOR

def _allowance_violations(row: np.ndarray) -> list[int]:
    increments = np.diff(row)
    allow = _local_allowances(increments)
    return [int(i) for i in np.nonzero(~(increments <= allow))[0]]  # NaN fails too


def extract_utility(
    oracle: SetFunctionalOracle, grid: DyadicGrid
) -> DyadicGridUtility:
    """Sample the state-dependent utility underlying the oracle.

    Requires the c1 and c2 flags; the density is explicit on a finite
    space: u(w, q) = V_{w}(q * 1_Omega) / P({w}) on positive-weight
    outcomes, 0 on null ones (a version choice).  The recovered pair
    (P, u) satisfies the defining equation V_A(q * 1) = sum_{w in A}
    P(w) u(w, q) exactly; it coincides with the pair the oracle was built
    from when that utility is calibrated (u(w, 1) = 1 for every w), and is
    the equivalent rescaled presentation otherwise.
    """
    if not (oracle.c1 and oracle.c2):
        raise PropertyFlagMissing(
            "extraction requires the oracle's c1 and c2 flags"
        )
    weights = oracle.singleton_weights()
    points = grid.points()
    space = FiniteSpace(oracle.space.outcomes, weights)
    values = np.zeros((space.size, points.size))
    for i in range(space.size):
        if weights[i] == 0.0:
            continue
        singleton = EventSet(oracle.space, frozenset({i}))
        for j, q in enumerate(points):
            values[i, j] = oracle(singleton, Act.constant(oracle.space, q)) / weights[i]
    return DyadicGridUtility(space, grid, values)


def build_u_plus(gu: DyadicGridUtility, outcome, x: float) -> float:
    """Right-continuous envelope: inf of the samples at grid points >= x.

    On validated outcomes the infimum of a monotone row is the sample at
    the grid ceiling of x; off the validated set the envelope is the
    identity.  Values outside the grid bound raise OutOfGridRange.
    """
    if not -gu.grid.bound <= x <= gu.grid.bound:
        raise OutOfGridRange(
            f"x={x:g} outside the grid range [-{gu.grid.bound:g}, {gu.grid.bound:g}]"
        )
    idx = gu.space.index_of(outcome)
    if idx not in gu.theta:
        return float(x)
    points = gu.grid.points()
    ceil = int(np.searchsorted(points, x, side="left"))
    row = gu.values[idx]
    # the row may be non-monotone off theta, but on theta the ceiling value
    # is exactly the infimum over [x, bound]
    return float(row[ceil])


def evaluate_envelope(gu: DyadicGridUtility, f: Act) -> float:
    """Aggregate sum_w p(w) * u_plus(w, f(w)) for a (grid-valued) act."""
    return float(
        sum(
            p * build_u_plus(gu, i, v)
            for i, (p, v) in enumerate(zip(gu.space.weights, f.values))
        )
    )


def validate_grid_regularity(gu: DyadicGridUtility) -> AuditReport:
    """Grid-scale regularity report.

    Three checks, each reporting the total probability weight of failing
    outcomes: strict increase across consecutive grid points, increments
    within the continuity allowance (no hidden jumps), and normalization
    to 0 at the origin.  Utilities extracted from a strictly monotone,
    pointwise continuous oracle must have failing weight 0 everywhere.
    """
    weights = gu.space.weights
    strict_fail: list[dict] = []
    gap_fail: list[dict] = []
    zero_fail: list[dict] = []
    points = gu.grid.points()
    for i in range(gu.space.size):
        row = gu.values[i]
        label = gu.space.outcomes[i]
        diffs = np.diff(row)
        flat = np.nonzero(~(diffs > 0.0))[0]  # a NaN sample fails too
        if flat.size:
            strict_fail.append(
                {"outcome": label, "weight": weights[i], "at": float(points[flat[0]])}
            )
        bad = _allowance_violations(row)
        if bad:
            allow = _local_allowances(diffs)
            gap_fail.append(
                {
                    "outcome": label,
                    "weight": weights[i],
                    "at": float(points[bad[0] + 1]),
                    "increment": float(diffs[bad[0]]),
                    "allowance": float(allow[bad[0]]),
                }
            )
        if row[gu.grid.zero_index] != 0.0:
            zero_fail.append(
                {"outcome": label, "weight": weights[i], "value": float(row[gu.grid.zero_index])}
            )

    def result(name, failures):
        failing_weight = float(sum(f["weight"] for f in failures))
        return CheckResult(
            name=name,
            passed=failing_weight == 0.0,
            witness=failures[0] if failures else None,
            details={
                "failing_weight": failing_weight,
                "failing_outcomes": [f["outcome"] for f in failures],
                "allowance_rule": "2 * max(neighbour increments) + floor",
            },
        )

    return AuditReport(
        subject="grid-utility",
        checks=(
            result("grid-strict-increase", strict_fail),
            result("grid-right-continuity", gap_fail),
            result("zero-normalization", zero_fail),
        ),
    )


@dataclass(frozen=True)
class JumpReport:
    """Per-outcome discontinuities above a threshold, locations ascending."""

    outcomes: tuple[str, ...]
    threshold: float
    jumps: tuple[tuple[tuple[float, float], ...], ...]
    first_jump: tuple[float, ...]

    def jumpy_outcomes(self) -> tuple[int, ...]:
        return tuple(i for i, js in enumerate(self.jumps) if js)

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "outcomes": [
                {
                    "outcome": o,
                    "jumps": [
                        {"location": x, "size": s} for x, s in self.jumps[i]
                    ],
                    "first_jump": self.first_jump[i],
                }
                for i, o in enumerate(self.outcomes)
            ],
        }


def detect_jumps(
    source: StateUtility | DyadicGridUtility, eps: float, bound: float
) -> JumpReport:
    """Scan [-bound, bound] for jumps of size > eps.

    Knot tables yield exact locations and sizes.  Sampled grids flag
    increments exceeding eps plus the continuity allowance; the reported
    size (increment minus allowance) is a lower bound on the true jump.  A
    grid with a non-finite sample is refused, since no jump could be located
    or sized at it.
    """
    if not eps > 0:  # a NaN eps fails too
        raise ValueError("eps must be positive")
    if math.isnan(bound):
        raise ValueError("bound must not be NaN")
    per_outcome: list[tuple[tuple[float, float], ...]] = []
    if isinstance(source, StateUtility):
        outcomes = source.space.outcomes
        for curve in source.curves:
            found = [
                (x, size) for x, size in curve.jumps(-bound, bound) if size > eps
            ]
            per_outcome.append(tuple(sorted(found)))
    else:
        outcomes = source.space.outcomes
        if not np.isfinite(source.values).all():
            raise ValueError("grid samples must be finite")
        points = source.grid.points()
        keep = np.abs(points) <= bound
        for i in range(source.space.size):
            row = source.values[i]
            diffs = np.diff(row)
            allow = _local_allowances(diffs)
            found = []
            for j in np.nonzero(diffs > eps + allow)[0]:
                location = float(points[j + 1])
                if keep[j + 1]:
                    found.append((location, float(diffs[j] - allow[j])))
            per_outcome.append(tuple(sorted(found)))
    return JumpReport(
        outcomes=tuple(outcomes),
        threshold=float(eps),
        jumps=tuple(per_outcome),
        first_jump=tuple(float(js[0][0]) if js else math.inf for js in per_outcome),
    )


def repair_continuous(
    source: StateUtility | DyadicGridUtility,
    report: JumpReport,
    weights: Sequence[float],
) -> StateUtility:
    """Replace jumpy curves by the identity on null outcomes.

    The replacement leaves the aggregate evaluator unchanged because the
    modified outcomes carry no probability mass.  A jump on a positive-
    weight outcome is unrepairable: it contradicts continuity from below
    of the represented functional, so the input oracle was inconsistent.
    """
    weights = tuple(float(w) for w in weights)
    for i in report.jumpy_outcomes():
        if weights[i] > 0.0:
            location, size = report.jumps[i][0]
            raise ContinuityViolation(report.outcomes[i], location, size)
    if isinstance(source, StateUtility):
        curves = list(source.curves)
        for i in report.jumpy_outcomes():
            curves[i] = LinearCurve(1.0)
        return StateUtility(source.space, tuple(curves))
    points = source.grid.points()
    jumpy = set(report.jumpy_outcomes())
    curves = []
    for i in range(source.space.size):
        degenerate = weights[i] == 0.0 and not _strictly_increasing(
            source.values[i]
        )
        if i in jumpy or degenerate:
            curves.append(LinearCurve(1.0))
        else:
            curves.append(
                PiecewiseLinearCurve.from_samples(points, source.values[i])
            )
    return StateUtility(source.space, tuple(curves))
