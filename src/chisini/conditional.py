"""Conditional Chisini means: the nonlinear analogue of conditional
expectation.

Given a regular state-dependent utility with representing evaluator T and a
partition algebra G, the conditional Chisini mean of an act f is the
G-measurable act g solving

    T(f * 1_A) = T(g * 1_A)   for every event A in G.

It is computed in one pass over the atoms: read each utility u(w, f(w))
once, sum V_A(f) over each atom A, and invert the atom's projected curve at
the conditional expected utility V_A(f)/P(A).  A value that rounds onto the
edge of the curve's image raises NumericRangeError; on null atoms the
solution value is fixed at 0.  The projection and the regularity check
before it read no act, so the representation runs them once per algebra
and keeps the result (``AdditiveRepresentation._regular_projection``).

The solution owns the solve's V_A(f) of each atom: the conditional expected
utility E[u(f) | G] is read from it, and so is one signed residual
V_A(f) - V_A(g) per atom.  V is additive over disjoint events, so these
certify the defining system on every atom-union exactly in O(k); the table
over all unions is built only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .curves import _lsum
from .errors import (
    EventNotInAlgebra,
    NotMeasurable,
    NumericRangeError,
    PreconditionFailure,
)
from .spaces import (
    DEFAULT_UNION_CAP,
    Act,
    EventSet,
    PartitionAlgebra,
    equal_up_to_null,
)
from .utility import (
    AdditiveRepresentation,
    PreferenceFunctional,
    ProjectedUtility,
    _invert,
    ensure_regular,
    spot_check_additivity,
)

#: Residual tolerances scale with (1 + sup-norm of f): utilities can
#: amplify absolute error, and this keeps pass/fail meaningful across scales.
RESIDUAL_SCALE = 1e-9


@dataclass(frozen=True)
class ChisiniSolution:
    """A G-measurable solution act, certified on every atom-union.

    ``atom_utilities`` holds V_A(f) of each atom A, as the solve summed it,
    and ``atom_residuals`` the signed residual V_A(f) - V_A(g), both in the
    algebra's atom order.  ``max_residual`` is
    max(sum of the positive ones, -sum of the negative ones): the exact
    worst residual over all 2**k unions, or NaN if any atom's is NaN.

    ``residuals`` is the explicit table ``(members, |V_A(f) - V_A(g)|)``
    over all 2**k unions in ascending bitmask order, computed on first
    read; reading it raises ComplexityCapExceeded if the algebra has more
    than ``cap`` atoms.
    """

    act: Act
    algebra: PartitionAlgebra
    atom_utilities: tuple[float, ...]
    atom_residuals: tuple[float, ...]
    tolerance: float
    rep: AdditiveRepresentation
    f: Act
    cap: int

    @cached_property
    def residuals(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        on_event, f, g = self.rep.evaluate_on_event, self.f, self.act
        return tuple(
            (tuple(sorted(members)), abs(on_event(members, f) - on_event(members, g)))
            for members in self.algebra.events(self.cap)
        )

    @property
    def max_residual(self) -> float:
        return _worst_union(zip(self.algebra.atoms, self.atom_residuals))[0]

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tolerance

    def atom_values(self) -> tuple[float, ...]:
        return tuple(self.act.values[min(atom)] for atom in self.algebra.atoms)

    def conditional_utility(self) -> tuple[float, ...]:
        """E[u(f) | G] on each outcome: V_A(f)/P(A) on its atom A, 0.0 on a
        null atom; the floats of ``conditional_expectation(rep.utility_act(f),
        algebra)``, read without a second pass over the utilities."""
        values = [0.0] * self.act.space.size
        algebra = self.algebra
        for atom, mass, v in zip(algebra.atoms, algebra.masses, self.atom_utilities):
            if mass > 0.0:
                for i in atom:
                    values[i] = v / mass
        return tuple(values)


def chisini_mean(
    rep: AdditiveRepresentation,
    f: Act,
    algebra: PartitionAlgebra,
    *,
    solver: str = "auto",
    tol_scale: float = RESIDUAL_SCALE,
    cap: int = DEFAULT_UNION_CAP,
) -> ChisiniSolution:
    """Compute the conditional Chisini mean of ``f`` given ``algebra``.

    ``solver`` picks the inversion path: "auto" uses closed-form inverses
    where the curve family has one, "bisect" always runs the monotone
    bisection.  The two are independent solvers of the same equations and
    must agree up to null events.

    The solution is certified from the solve's V_A(f) and k evaluations of
    V_A(g), so this runs in O(n) at any atom count; only a read of
    ``residuals`` enumerates the 2**k unions, and ``cap`` bounds that read.

    Raises RegularityViolation, on every call, if the utility is not
    regular; ``rep`` checks and projects once per algebra.
    """
    g, v_f = _solve_act(rep, f, rep._regular_projection(f, algebra), solver)
    return ChisiniSolution(
        act=g,
        algebra=algebra,
        atom_utilities=v_f,
        atom_residuals=tuple(
            v - rep.evaluate_on_event(atom, g) for atom, v in zip(algebra.atoms, v_f)
        ),
        tolerance=tol_scale * (1.0 + f.sup_norm),
        rep=rep,
        f=f,
        cap=cap,
    )


def _solve_act(
    rep: AdditiveRepresentation, f: Act, projected: ProjectedUtility, solver: str
) -> tuple[Act, tuple[float, ...]]:
    """The conditional Chisini mean's act and each atom's V_A(f), in one pass
    that reads each u(w, f(w)) once, on the algebra of ``projected``, which
    must be ``rep``'s regular projection.  Each atom's step is
    ``_solve_atom``, which a family's E_0 runs alone on its one atom."""
    algebra = projected.algebra
    weights, u = rep.space.weights, rep._utilities(f)
    values = [0.0] * rep.space.size
    v_f = []
    for atom, mass, curve in zip(algebra.atoms, algebra.masses, projected.atom_curves):
        v, inv = _solve_atom(weights, u, atom, mass, curve, solver)
        v_f.append(v)
        for i in atom:
            values[i] = inv
    return Act._trusted(rep.space, tuple(values)), tuple(v_f)


def _solve_atom(weights, u, atom, mass, curve, solver) -> tuple[float, float]:
    """One atom's step of the solve: V_A(f), summed from the utilities ``u``,
    and the inverse of the atom's projected ``curve`` at V_A(f)/P(A), which
    is 0.0 on a null atom (the version choice).  A value that rounds onto the
    edge of the curve's image raises NumericRangeError."""
    v = float(_lsum([weights[i] * u[i] for i in atom]))
    if mass == 0.0:
        return v, 0.0
    h = v / mass
    inv = _invert(curve, h, solver) if math.isfinite(h) else h
    if not math.isfinite(inv):
        raise NumericRangeError(
            f"conditional expected utility {h!r} on atom "
            f"{sorted(atom)} rounded onto the "
            f"{'upper' if inv > 0 else 'lower'} bound of the projected "
            "image, where the inverse is not a finite float"
        )
    return v, inv


def _worst_union(signed) -> tuple[float, tuple[int, ...]]:
    """The worst |residual| over all unions of atoms, and its event, from
    the (atom, signed residual) pairs of an additive functional.

    A union's residual is the sum of its atoms', so the worst union gathers
    the atoms of one sign.  A NaN residual is the worst, on its atom.
    """
    signed = list(signed)
    for atom, d in signed:
        if math.isnan(d):
            return d, tuple(sorted(atom))
    above = _lsum(d for _, d in signed if d > 0.0)
    below = _lsum(-d for _, d in signed if d < 0.0)
    sign = 1.0 if above >= below else -1.0
    return max(above, below), tuple(
        sorted(i for atom, d in signed if sign * d > 0.0 for i in atom)
    )


@dataclass(frozen=True)
class ConditionabilityResult:
    passed: bool
    worst_residual: float
    worst_event: tuple[int, ...]


def verify_conditionable(
    t: PreferenceFunctional,
    f: Act,
    g: Act,
    algebra: PartitionAlgebra,
    tol: float,
    *,
    cap: int = DEFAULT_UNION_CAP,
) -> ConditionabilityResult:
    """Check T(f*1_A) = T(g*1_A) for the events of the algebra.

    A black-box functional is checked on all 2**k atom-unions.  For a
    functional declared additive (and spot-checked) the residual on a union
    is the sum of its atoms' signed residuals, so the worst union is the
    union of the atoms of one sign: it is found exactly in O(k).  A NaN
    residual fails, reported on the first event where it occurs.
    """
    if not g.is_measurable(algebra):
        raise NotMeasurable("candidate act varies inside an atom")

    def residual(members: frozenset[int]) -> float:
        ev = EventSet(f.space, members)
        return t(f.masked(ev)) - t(g.masked(ev))

    if t.additive:
        spot_check_additivity(t)
        worst, worst_event = _worst_union(
            (atom, residual(atom)) for atom in algebra.atoms
        )
        return ConditionabilityResult(worst <= tol, worst, worst_event)
    worst = 0.0
    worst_event: tuple[int, ...] = ()
    for members in algebra.events(cap):
        resid = abs(residual(members))
        if math.isnan(resid):
            return ConditionabilityResult(False, resid, tuple(sorted(members)))
        if resid > worst:
            worst, worst_event = resid, tuple(sorted(members))
    return ConditionabilityResult(worst <= tol, worst, worst_event)


def taking_out(
    rep: AdditiveRepresentation,
    f: Act,
    event: EventSet,
    algebra: PartitionAlgebra,
    *,
    tol: float = 1e-9,
    solver: str = "auto",
) -> bool:
    """Masking identity: the Chisini mean of f*1_A equals the Chisini mean
    of f multiplied by 1_A, up to null events, for any event A of the
    algebra."""
    if not algebra.contains_event(event):
        raise EventNotInAlgebra("event is not a union of atoms")
    masked_mean = chisini_mean(rep, f.masked(event), algebra, solver=solver).act
    plain_mean = chisini_mean(rep, f, algebra, solver=solver).act.masked(event)
    return equal_up_to_null(masked_mean, plain_mean, tol)


def uniqueness_check(
    rep: AdditiveRepresentation,
    f: Act,
    algebra: PartitionAlgebra,
    g1: Act,
    g2: Act,
    *,
    tol: float | None = None,
) -> bool:
    """True iff two Chisini solutions differ only on zero-weight outcomes.

    Both candidates must actually solve the conditioning equations; a
    failed precondition raises  PreconditionFailure, distinct from a
    False verdict.
    """
    if tol is None:
        tol = RESIDUAL_SCALE * (1.0 + f.sup_norm)
    ensure_regular(rep.utility)
    t = PreferenceFunctional(
        space=rep.space, evaluator=rep.evaluate, additive=True, name="chisini"
    )
    for label, g in (("first", g1), ("second", g2)):
        result = verify_conditionable(t, f, g, algebra, tol)
        if not result.passed:
            raise PreconditionFailure(
                f"{label} candidate is not a Chisini solution: residual "
                f"{result.worst_residual:g} on event {result.worst_event}"
            )
    return equal_up_to_null(g1, g2, tol)
