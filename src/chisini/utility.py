"""State-dependent utilities, their representing functional, projection onto
a partition algebra, and the generalized inverse of the projected utility.

A :class:`StateUtility` attaches one scalar curve to each outcome.  When
every curve is regular (continuous, strictly increasing, 0 at 0) the
probability-weighted aggregate

    T(f) = sum_w p(w) * u(w, f(w))

is a strictly monotone, pointwise continuous evaluator of acts, and for any
partition algebra the atom-averaged curves form the projected utility whose
generalized inverse turns conditional expectations of utilities back into
payoff units.  On atoms of probability zero the projected curve is fixed to
the identity; every downstream equality is stated up to null events, so the
choice of version is inert.

:class:`PreferenceFunctional` wraps any evaluator of acts, additive or not;
it sits here, below the solver and the audits that both take it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .curves import (
    Curve,
    LinearCurve,
    MixtureCurve,
    PiecewiseLinearCurve,
    _lsum,
    merge_piecewise_linear,
    right_continuous_inverse,
)
from .errors import (
    AdditivityCheckFailed,
    NumericRangeError,
    RegularityViolation,
    SpaceMismatchError,
)
from .spaces import Act, EventSet, FiniteSpace, PartitionAlgebra, _require_same_space

#: Relative tolerance of the additivity spot check, scaled by
#: (1 + sup|f| + |V(A)| + |V(B)|): the values compared are in utility units.
ADDITIVITY_TOL = 1e-9


@dataclass(frozen=True)
class StateUtility:
    """One utility curve per outcome of a finite space."""

    space: FiniteSpace
    curves: tuple[Curve, ...]

    def __post_init__(self):
        if len(self.curves) != self.space.size:
            raise ValueError("one curve per outcome required")

    @classmethod
    def state_independent(cls, space: FiniteSpace, curve: Curve) -> "StateUtility":
        return cls(space, tuple(curve for _ in range(space.size)))


@dataclass(frozen=True)
class RegularityIssue:
    outcome: str
    coordinate: float
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[RegularityIssue, ...]


def validate_regular(utility: StateUtility) -> ValidationReport:
    """Check every curve for normalization at 0, strict monotonicity and
    (for knot tables) absence of jumps; parametric families are validated
    through their parameter constraints."""
    issues = []
    for idx, curve in enumerate(utility.curves):
        label = utility.space.outcomes[idx]
        for coordinate, message in curve.regularity_issues():
            issues.append(RegularityIssue(label, coordinate, message))
    return ValidationReport(ok=not issues, issues=tuple(issues))


def ensure_regular(utility: StateUtility) -> None:
    """Raise :class:`RegularityViolation` on the first defect found."""
    report = validate_regular(utility)
    if not report.ok:
        first = report.issues[0]
        raise RegularityViolation(first.outcome, first.coordinate, first.message)


@dataclass(frozen=True)
class AdditiveRepresentation:
    """The additively decomposable evaluator V_A(f) = sum_{w in A} p(w) u(w, f(w)).

    The full-space value T(f) = V_Omega(f) numerically represents the
    preference induced by the utility; restriction to events is exactly
    evaluation of the masked act because curves vanish at 0.
    """

    utility: StateUtility

    @property
    def space(self) -> FiniteSpace:
        return self.utility.space

    @cached_property
    def _projections(self) -> dict[PartitionAlgebra, ProjectedUtility]:
        """The regular projection of each algebra solved on, filled by
        ``_regular_projection``; outside ``==``, ``hash`` and ``repr``, like
        every ``cached_property``."""
        return {}

    def _regular_projection(
        self, f: Act, algebra: PartitionAlgebra
    ) -> ProjectedUtility:
        """``ensure_regular``, then ``project_utility``, once per algebra:
        the result is kept in ``_projections`` only when every step
        succeeds, so an irregular utility raises on every call.

        An algebra on another space fails the way the solve always failed
        there, reading ``f`` first: on ``f``'s space, on its utilities, then
        on the algebra's space.
        """
        projected = self._projections.get(algebra)
        if projected is None:
            ensure_regular(self.utility)
            if algebra.space != self.space:
                self._utilities(f)
                _require_same_space(f.space, algebra.space)
            projected = self._projections[algebra] = project_utility(self, algebra)
        return projected

    def utility_act(self, f: Act) -> Act:
        """The random outcome w -> u(w, f(w)) as an act; a utility value
        that is not a finite float raises NumericRangeError."""
        return Act._trusted(self.space, self._utilities(f))

    def _utilities(self, f: Act) -> tuple[float, ...]:
        """Each outcome's utility u(w, f(w)); raises NumericRangeError,
        naming the outcome, where one is not a finite float."""
        self._check_space(f)
        values = tuple([c.value(v) for c, v in zip(self.utility.curves, f.values)])
        if not all(map(math.isfinite, values)):
            i = next(i for i, u in enumerate(values) if not math.isfinite(u))
            raise NumericRangeError(
                f"utility of outcome {self.space.outcomes[i]!r} at "
                f"x={f.values[i]:g} is {values[i]!r}, not a finite float"
            )
        return values

    def evaluate(self, f: Act) -> float:
        """T(f) = sum_w p(w) u(w, f(w)); a utility value that is not a
        finite float raises NumericRangeError, as in utility_act."""
        self._check_space(f)
        total = 0.0
        for p, c, v in zip(self.space.weights, self.utility.curves, f.values):
            total += p * c.value(v)
        if not math.isfinite(total):
            self._utilities(f)  # raises, naming the first such outcome
        return float(total)

    def evaluate_on_event(self, members: Iterable[int], f: Act) -> float:
        """V_A(f); equals evaluate(f * 1_A) since every curve is 0 at 0."""
        self._check_space(f)
        weights, curves, values = self.space.weights, self.utility.curves, f.values
        return float(_lsum([weights[i] * curves[i].value(values[i]) for i in members]))

    def _check_space(self, f: Act) -> None:
        # identity first: the dataclass != compares every field of the space
        if f.space is not self.space and f.space != self.space:
            raise SpaceMismatchError("act and representation spaces differ")


def _search_grid(values) -> tuple[float, ...]:
    """``values`` as sorted floats; raises ValueError unless they are
    nonempty, finite and distinct."""
    grid = tuple(sorted(float(g) for g in values))
    if not grid:
        raise ValueError("grid must hold at least one value")
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"grid values must be finite, got {grid}")
    if len(set(grid)) != len(grid):
        raise ValueError("grid values must be distinct")
    return grid


@dataclass(frozen=True)
class PreferenceFunctional:
    """A numeric evaluator of acts, with the search grid used to span them.

    ``additive`` declares that masked evaluations split across disjoint
    events; it is spot-checked before any audit relies on it.
    """

    #: True when x -> t(x * 1_A) is nondecreasing in floats on every event A,
    #: so the audits' constant solves may skip probes a known pair decides;
    #: ``_terms`` then holds one ``curves._term`` row of p * u per outcome,
    #: whose masked sum those solves search in place of the evaluator, on
    #: its slopes.  ``_choquet`` is a Choquet integral's capacity-row cache
    #: (rank order -> nu), false elsewhere, from three of whose rows the
    #: solves read t(x * 1_A) in closed form and run the plain loop on it.
    #: ``audit._event_search`` is the one reader of the marks in the
    #: solves (see ``audit._solve_constant``).  None is a field:
    #: ``expected_utility_functional`` sets the first two,
    #: ``choquet_functional`` the last, and ``==``, ``hash``, ``repr`` and
    #: ``dataclasses.replace`` do not see them.
    monotone = False
    _terms = ()
    _choquet = False

    space: FiniteSpace
    evaluator: Callable[[Act], float]
    additive: bool = False
    grid: tuple[float, ...] = (-1.0, 0.0, 1.0)
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "grid", _search_grid(self.grid))

    def __call__(self, f: Act) -> float:
        return float(self.evaluator(f))


def spot_check_additivity(t: PreferenceFunctional) -> None:
    """Probe the declared additivity on a handful of fixed splits."""
    n = t.space.size
    if n < 2:
        return
    probes = [
        tuple(t.grid[(i + k) % len(t.grid)] for i in range(n))
        for k in range(min(3, len(t.grid)))
    ]
    # constant probes catch evaluators that treat masked zeros as payoffs
    probes += [tuple(g for _ in range(n)) for g in t.grid]
    half = frozenset(range(n // 2))
    rest = frozenset(range(n)) - half
    for values in probes:
        f = Act(t.space, values)
        full = t(f.masked(EventSet(t.space, half | rest)))
        v_a = t(f.masked(EventSet(t.space, half)))
        v_b = t(f.masked(EventSet(t.space, rest)))
        split = v_a + v_b
        scale = 1.0 + f.sup_norm + abs(v_a) + abs(v_b)
        if not abs(full - split) <= ADDITIVITY_TOL * scale:
            raise AdditivityCheckFailed(
                f"functional {t.name!r} declared additive but "
                f"V(A or B) differs from V(A)+V(B) by {abs(full - split):g}"
            )


@dataclass(frozen=True)
class ProjectedUtility:
    """Atomwise average of a state-dependent utility over a partition.

    The curve attached to an atom is the probability-weighted average of
    its members' curves, i.e. a version of the conditional expectation of
    u(., x) given the algebra, evaluated at each x.  Null atoms carry the
    identity curve.
    """

    base: AdditiveRepresentation
    algebra: PartitionAlgebra
    atom_curves: tuple[Curve, ...]

    @property
    def space(self) -> FiniteSpace:
        return self.base.space

    def curve_at(self, outcome) -> Curve:
        idx = self.space.index_of(outcome)
        return self.atom_curves[self.algebra.atom_index_of(idx)]

    def value(self, outcome, x: float) -> float:
        return self.curve_at(outcome).value(x)

    def as_state_utility(self) -> StateUtility:
        curves = tuple(
            self.atom_curves[self.algebra.atom_index_of(i)]
            for i in range(self.space.size)
        )
        return StateUtility(self.space, curves)


def _combine_curves(weights: tuple[float, ...], parts: tuple[Curve, ...]) -> Curve:
    if all(c == parts[0] for c in parts[1:]):
        return parts[0]
    if all(isinstance(c, (LinearCurve, PiecewiseLinearCurve)) for c in parts) and all(
        not c.jumps(-float("inf"), float("inf"))
        for c in parts
        if isinstance(c, PiecewiseLinearCurve)
    ):
        return merge_piecewise_linear(weights, parts)
    return MixtureCurve(weights, parts)


def project_utility(
    rep: AdditiveRepresentation, algebra: PartitionAlgebra
) -> ProjectedUtility:
    """Average the utility curves over each atom of the algebra.

    Knot tables merge exactly on the union of their breakpoints; identical
    curves collapse to themselves; anything else becomes an explicit
    mixture evaluated by summation and inverted by bisection.
    """
    if algebra.space != rep.space:
        raise SpaceMismatchError("algebra and representation spaces differ")
    weights = rep.space.weights
    atom_curves = []
    for atom, mass in zip(algebra.atoms, algebra.masses):
        if mass == 0.0:
            atom_curves.append(LinearCurve(1.0))
            continue
        members = sorted(i for i in atom if weights[i] > 0.0)
        w = tuple(weights[i] / mass for i in members)
        parts = tuple(rep.utility.curves[i] for i in members)
        atom_curves.append(_combine_curves(w, parts))
    return ProjectedUtility(rep, algebra, tuple(atom_curves))


def image_interval(pu: ProjectedUtility, outcome) -> tuple[float, float]:
    """Open interval of values the projected curve attains at the outcome;
    an unbounded side is -math.inf or math.inf."""
    curve = pu.curve_at(outcome)
    return curve.lower_limit(), curve.upper_limit()


def generalized_inverse(
    pu: ProjectedUtility, outcome, x: float, *, method: str = "auto"
) -> float:
    """Right-continuous inverse of the projected curve, valued in [-inf, +inf].

    Three cases: math.inf at or above the upper image endpoint, -math.inf
    at or below the lower endpoint, and the unique preimage strictly inside
    the open image.  The target ``x`` must be finite.  ``method`` selects
    "auto" (closed form when the family has one, bisection otherwise) or
    "bisect" (always bisection); the two paths are independent solvers of
    the same equation.
    """
    return _invert(pu.curve_at(outcome), x, method)


def _invert(curve: Curve, x: float, method: str) -> float:
    """``generalized_inverse`` on the curve itself."""
    if method not in ("auto", "bisect"):
        raise ValueError(f"unknown inversion method {method!r}")
    if not math.isfinite(x):
        raise ValueError(f"inversion target must be finite, got {x!r}")
    if x >= curve.upper_limit():
        return math.inf
    if x <= curve.lower_limit():
        return -math.inf
    return right_continuous_inverse(curve, x, use_closed_form=(method == "auto"))
