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
        if not (total > 0.0 and math.isfinite(total) and all(w >= 0.0 for w in raw)):
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
        if not math.isfinite(self.bound):
            raise ValueError("bound must be finite")
        if self.bound <= 0:
            raise ValueError("bound must be positive")
        if float(self.bound * 2 ** self.level) != int(self.bound * 2 ** self.level):
            raise ValueError("bound must be a dyadic number at this level")
        # every level fits at the default bound of 8
        if self.zero_index > 8 * 2 ** MAX_LEVEL:
            raise ValueError(f"grid has more than 2**{MAX_LEVEL + 4} + 1 points")

    @property
    def step(self) -> float:
        return 2.0 ** (-self.level)

    def points(self) -> tuple[float, ...]:
        step = self.step
        return tuple(i * step for i in range(-self.zero_index, self.zero_index + 1))

    @property
    def zero_index(self) -> int:
        return int(self.bound * 2 ** self.level)


class DyadicGridUtility:
    """Per-outcome utility samples on a dyadic grid, one tuple of floats
    per outcome.

    ``theta`` is the set of outcomes passing the grid-scale regularity
    checks; the right-continuous envelope falls back to the identity off
    this set.

    Joint measurability of (outcome, x) -> value is structural at finite
    scale: evaluation is total on the outcome set times the grid range,
    so it is documented here rather than tested.
    """

    def __init__(self, space: FiniteSpace, grid: DyadicGrid, values):
        values = tuple(tuple(float(v) for v in row) for row in values)
        width = 2 * grid.zero_index + 1
        if len(values) != space.size or any(len(row) != width for row in values):
            raise ValueError(f"values must have shape {(space.size, width)}")
        self.space = space
        self.grid = grid
        self.values = values
        # each row's increments and continuity allowances, read by theta,
        # the regularity report, the jump scan and the repair
        self._increments = tuple(
            tuple(b - a for a, b in zip(row, row[1:])) for row in values
        )
        self._allowances = tuple(_local_allowances(d) for d in self._increments)
        self.theta = frozenset(
            i
            for i, (d, allow) in enumerate(zip(self._increments, self._allowances))
            if _strictly_increasing(d) and not _allowance_violations(d, allow)
        )


def _strictly_increasing(increments: tuple[float, ...]) -> bool:
    return all(d > 0.0 for d in increments)


def _local_allowances(increments: tuple[float, ...]) -> tuple[float, ...]:
    """Continuity allowance per increment: twice the larger neighbouring
    increment (a local Lipschitz estimate times the step), plus a floor;
    NaN when either neighbour is NaN, whichever side it is on (``max``
    keeps its first argument against a NaN, so a NaN on the right is
    taken explicitly).  A grid row has at least two increments, so each
    has a neighbour."""
    padded = (-math.inf, *increments, -math.inf)
    return tuple(
        2.0 * (right if math.isnan(right) else max(left, right)) + ALLOWANCE_FLOOR
        for left, right in zip(padded, padded[2:])
    )


def _allowance_violations(
    increments: tuple[float, ...], allow: tuple[float, ...]
) -> list[int]:
    return [j for j, (d, a) in enumerate(zip(increments, allow)) if not d <= a]  # NaN fails too


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
    values = []
    for i, w in enumerate(weights):
        singleton = EventSet(oracle.space, frozenset({i}))
        values.append(
            [0.0] * len(points)
            if w == 0.0
            else [oracle(singleton, Act.constant(oracle.space, q)) / w for q in points]
        )
    return DyadicGridUtility(FiniteSpace(oracle.space.outcomes, weights), grid, values)


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
    # scaling by 2**level is exact, so its ceiling is the grid ceiling's
    # offset from 0; on theta the ceiling value is exactly the infimum over
    # [x, bound]
    return gu.values[idx][gu.grid.zero_index + math.ceil(x * 2 ** gu.grid.level)]


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
    zero = gu.grid.zero_index
    rows = zip(gu.space.outcomes, weights, gu.values, gu._increments, gu._allowances)
    for label, weight, row, diffs, allow in rows:
        # a NaN sample fails too
        flat = next((j for j, d in enumerate(diffs) if not d > 0.0), None)
        if flat is not None:
            strict_fail.append({"outcome": label, "weight": weight, "at": points[flat]})
        bad = _allowance_violations(diffs, allow)
        if bad:
            gap_fail.append(
                {
                    "outcome": label,
                    "weight": weight,
                    "at": points[bad[0] + 1],
                    "increment": diffs[bad[0]],
                    "allowance": allow[bad[0]],
                }
            )
        if row[zero] != 0.0:
            zero_fail.append({"outcome": label, "weight": weight, "value": row[zero]})

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
        for curve in source.curves:
            found = [
                (x, size) for x, size in curve.jumps(-bound, bound) if size > eps
            ]
            per_outcome.append(tuple(sorted(found)))
    else:
        if not all(math.isfinite(v) for row in source.values for v in row):
            raise ValueError("grid samples must be finite")
        points = source.grid.points()
        for diffs, allow in zip(source._increments, source._allowances):
            found = [
                (points[j + 1], d - a)
                for j, (d, a) in enumerate(zip(diffs, allow))
                if d > eps + a and abs(points[j + 1]) <= bound
            ]
            per_outcome.append(tuple(sorted(found)))
    return JumpReport(
        outcomes=tuple(source.space.outcomes),
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
    for i, (row, diffs) in enumerate(zip(source.values, source._increments)):
        degenerate = weights[i] == 0.0 and not _strictly_increasing(diffs)
        if i in jumpy or degenerate:
            curves.append(LinearCurve(1.0))
        else:
            curves.append(PiecewiseLinearCurve.from_samples(points, row))
    return StateUtility(source.space, tuple(curves))
