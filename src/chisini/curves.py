"""Scalar utility curves: the per-outcome building blocks of state-dependent
utilities.

Every curve maps reals to reals and is expected (when regular) to be
continuous, strictly increasing and normalized to 0 at 0.  Regularity is
*checked*, not enforced at construction: the repair pipeline deliberately
builds curves with jumps or flat segments and relies on the validators to
flag them.

Four closed families are provided plus convex mixtures:

- ``LinearCurve``:       u(x) = scale * x
- ``ExponentialCurve``:  u(x) = (1 - exp(-gamma x)) / gamma, gamma != 0
- ``PowerCurve``:        u(x) = sign(x) |x|**p, p > 0
- ``PiecewiseLinearCurve``: strictly increasing knot table with declared
  extrapolation slopes; duplicated x-coordinates encode right-continuous
  jumps (value at the jump point is the right limit).
- ``MixtureCurve``: probability-weighted average of other curves, produced
  by projecting a state-dependent utility onto a partition.

Inversion is closed-form whenever the family allows it; otherwise
``right_continuous_inverse`` brackets the target and runs
``bisect_increasing`` (the one monotone bisection, shared with the audits)
computing inf{y : u(y) > target}, which is globally convergent and agrees
with the true inverse on continuous strictly increasing curves.

A mixture of regular closed-family parts is nondecreasing in floats (its
``monotone`` flag).  There a safeguarded Newton iteration on the slopes of
the mixture's term table (``value_and_slope``) first narrows a pair u(a) <=
target < u(b) onto the root from both sides, and bisection skips each probe
whose comparison that pair implies (the ``known`` contract of
``bisect_increasing``): every float is the plain loop's, from about a fifth
of its probes.  Since the solution then depends on the curve and the target
alone, such a curve keeps the (target, solution) pair of its last
bisection: a repeated target returns the stored float, and when the stored
solution lies inside a new target's bracket, the first Newton probe is the
secant point of the stored pair and the bracket end across the target.
That pays where successive targets barely move, as along the
certainty-equivalent audit's convergent sequences.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .errors import NumericRangeError

#: Absolute tolerance of ``bisect_increasing`` on the solution variable.
BISECT_TOL = 1e-13

_BISECT_MAX_ITER = 400


def _lsum(values) -> float:
    """``values`` added left to right from 0.0: the library's one float sum,
    since the builtin ``sum`` compensates from Python 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


def _pairwise_sum(values: list[float]) -> float:
    """numpy's float64 ``np.sum`` of ``values`` (its ``pairwise_sum``): below
    8 terms ``_lsum``; up to 128, eight running sums, of the terms at
    positions j, j + 8, ..., over the largest multiple of 8 terms, added as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest left to
    right; above 128, the sum of the first half, cut down to a multiple of
    8 terms, plus the sum of the rest."""
    n = len(values)
    if n < 8:
        return _lsum(values)
    if n <= 128:
        whole = n - n % 8
        r = values[:8]
        for i in range(8, whole, 8):
            r = [a + b for a, b in zip(r, values[i : i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in values[whole:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


class Curve:
    """Common interface; concrete families override the hooks they can."""

    #: True when ``value`` is nondecreasing in floats, so that inversion may
    #: skip the probes a known bracket decides (see ``bisect_increasing``).
    #: Such a curve has a ``value_and_slope``, whose slope guides the search.
    monotone = False

    #: The (target, solution) pair of a ``monotone`` curve's last bisection,
    #: set on the instance by ``right_continuous_inverse``, outside ``==``,
    #: ``hash`` and ``repr``; NaNs, which match no target, before the first.
    _solved = (math.nan, math.nan)

    def value(self, x: float) -> float:
        raise NotImplementedError

    def lower_limit(self) -> float:
        """Limit of the curve at -inf (lower endpoint of the open image),
        -math.inf when the curve is unbounded below."""
        raise NotImplementedError

    def upper_limit(self) -> float:
        """Limit of the curve at +inf (upper endpoint of the open image),
        math.inf when the curve is unbounded above."""
        raise NotImplementedError

    def inverse_exact(self, y: float):
        """Closed-form inverse for y strictly inside the image, or None."""
        return None

    def regularity_issues(self) -> list[tuple[float, str]]:
        """(coordinate, message) pairs for every regularity defect."""
        return []

    def jumps(self, lo: float, hi: float) -> list[tuple[float, float]]:
        """(location, size) of discontinuities inside [lo, hi]; exact for
        knot tables, empty for the continuous parametric families."""
        return []


@dataclass(frozen=True)
class LinearCurve(Curve):
    scale: float = 1.0

    def value(self, x: float) -> float:
        return self.scale * x

    def lower_limit(self) -> float:
        return -math.inf

    def upper_limit(self) -> float:
        return math.inf

    def inverse_exact(self, y: float) -> float:
        return y / self.scale

    def regularity_issues(self):
        if not (0.0 < self.scale < math.inf):
            return [(0.0, f"linear scale must be in (0, inf), got {self.scale}")]
        return []


@dataclass(frozen=True)
class ExponentialCurve(Curve):
    """u(x) = (1 - exp(-gamma x)) / gamma; bounded above for gamma > 0."""

    gamma: float

    def value(self, x: float) -> float:
        # expm1 keeps precision near 0 where 1 - exp(-gx) cancels
        try:
            return -math.expm1(-self.gamma * x) / self.gamma
        except OverflowError:
            raise NumericRangeError(
                f"exponential curve with gamma={self.gamma:g} overflows at x={x:g}"
            ) from None

    def lower_limit(self) -> float:
        return 1.0 / self.gamma if self.gamma < 0.0 else -math.inf

    def upper_limit(self) -> float:
        return 1.0 / self.gamma if self.gamma > 0.0 else math.inf

    def inverse_exact(self, y: float) -> float:
        return -math.log1p(-self.gamma * y) / self.gamma

    def regularity_issues(self):
        if self.gamma == 0.0 or not math.isfinite(self.gamma):
            return [(0.0, "exponential-normalized curve requires gamma != 0")]
        return []


@dataclass(frozen=True)
class PowerCurve(Curve):
    """Odd power curve u(x) = sign(x) |x|**exponent."""

    exponent: float

    def value(self, x: float) -> float:
        try:
            return math.copysign(abs(x) ** self.exponent, x) if x != 0.0 else 0.0
        except OverflowError:
            raise NumericRangeError(
                f"power curve with exponent {self.exponent:g} overflows at x={x:g}"
            ) from None

    def lower_limit(self) -> float:
        return -math.inf

    def upper_limit(self) -> float:
        return math.inf

    def inverse_exact(self, y: float) -> float:
        return math.copysign(abs(y) ** (1.0 / self.exponent), y) if y != 0.0 else 0.0

    def regularity_issues(self):
        if not (0.0 < self.exponent < math.inf):
            return [(0.0, f"power exponent must be in (0, inf), got {self.exponent}")]
        return []


@dataclass(frozen=True)
class PiecewiseLinearCurve(Curve):
    """Knot table with linear interpolation and linear extrapolation.

    ``xs`` must be nondecreasing.  A repeated x with increasing u values
    encodes an upward jump at that coordinate; evaluation is
    right-continuous there.  Extrapolation below the first and above the
    last knot uses ``slope_left`` / ``slope_right``.
    """

    xs: tuple[float, ...]
    us: tuple[float, ...]
    slope_left: float = 1.0
    slope_right: float = 1.0

    def __post_init__(self):
        xs = tuple(float(x) for x in self.xs)
        us = tuple(float(u) for u in self.us)
        if len(xs) != len(us) or len(xs) == 0:
            raise ValueError("knot coordinates and values must align")
        if any(b < a for a, b in zip(xs, xs[1:])):
            raise ValueError("knot x-coordinates must be nondecreasing")
        if any(not math.isfinite(v) for v in xs + us):
            raise ValueError("knots must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "us", us)

    @classmethod
    def from_samples(cls, xs, us) -> "PiecewiseLinearCurve":
        """Interpolant through samples; extrapolates with the end slopes, so
        neither end pair may repeat an x (ValueError)."""
        xs = tuple(float(x) for x in xs)
        us = tuple(float(u) for u in us)
        if len(xs) < 2 or len(xs) != len(us):
            raise ValueError("need at least two samples, one value per x")
        for end, (x0, x1) in (("first", xs[:2]), ("last", xs[-2:])):
            if x0 == x1:
                raise ValueError(f"{end} two samples share x = {x0:g}: no end slope")
        sl = (us[1] - us[0]) / (xs[1] - xs[0])
        sr = (us[-1] - us[-2]) / (xs[-1] - xs[-2])
        return cls(xs, us, sl, sr)

    def value(self, x: float) -> float:
        xs, us = self.xs, self.us
        if x < xs[0]:
            return us[0] + self.slope_left * (x - xs[0])
        if x >= xs[-1]:
            return us[-1] + self.slope_right * (x - xs[-1])
        # last knot with coordinate <= x; at a duplicated x this picks the
        # rightmost copy, giving right-continuity across jumps
        idx = bisect_right(xs, x) - 1
        x0, x1 = xs[idx], xs[idx + 1]
        u0, u1 = us[idx], us[idx + 1]
        if x1 == x0:
            return u1
        return u0 + (x - x0) * (u1 - u0) / (x1 - x0)

    def lower_limit(self) -> float:
        return -math.inf if self.slope_left > 0.0 else self.us[0]

    def upper_limit(self) -> float:
        return math.inf if self.slope_right > 0.0 else self.us[-1]

    def inverse_exact(self, y: float):
        if self.jumps(-math.inf, math.inf):
            return None  # jump tables have no two-sided inverse
        xs, us = self.xs, self.us
        if y < us[0]:
            return xs[0] + (y - us[0]) / self.slope_left
        if y >= us[-1]:
            return xs[-1] + (y - us[-1]) / self.slope_right
        idx = bisect_right(us, y) - 1
        u0, u1 = us[idx], us[idx + 1]
        x0, x1 = xs[idx], xs[idx + 1]
        if u1 == u0:
            return None  # flat segment: not strictly increasing
        return x0 + (y - u0) * (x1 - x0) / (u1 - u0)

    def regularity_issues(self):
        issues = []
        for i in range(len(self.xs) - 1):
            if self.us[i + 1] <= self.us[i]:
                issues.append(
                    (self.xs[i], "knot values must be strictly increasing")
                )
            elif self.xs[i + 1] == self.xs[i]:
                issues.append(
                    (self.xs[i], "duplicated knot coordinate encodes a jump")
                )
        if not (0.0 < self.slope_left < math.inf):
            issues.append((self.xs[0], "left extrapolation slope must be in (0, inf)"))
        if not (0.0 < self.slope_right < math.inf):
            issues.append((self.xs[-1], "right extrapolation slope must be in (0, inf)"))
        if self.value(0.0) != 0.0:
            issues.append((0.0, f"curve value at 0 is {self.value(0.0)!r}, not 0"))
        return issues

    def jumps(self, lo: float, hi: float) -> list[tuple[float, float]]:
        out = []
        for i in range(len(self.xs) - 1):
            if self.xs[i + 1] == self.xs[i] and self.us[i + 1] > self.us[i]:
                if lo <= self.xs[i] <= hi:
                    out.append((self.xs[i], self.us[i + 1] - self.us[i]))
        return out


def _float_monotone(curve: Curve) -> bool:
    """Whether ``curve`` is a regular exponential, power or linear curve,
    by exact type: ``expm1``, ``pow`` and products and quotients by
    positive constants all round monotonically, so its ``value`` is
    nondecreasing in floats, and so is a left-to-right sum of such values
    times nonnegative weights.  A knot table is not (the segment ending at a
    knot at 0 can round above 0 just below it), nor is a subclass, whose
    ``value`` may be anything."""
    return (
        type(curve) in (ExponentialCurve, PowerCurve, LinearCurve)
        and not curve.regularity_issues()
    )


def _term(w: float, c: Curve) -> tuple:
    """The term-table row of w * c, matched by exact type: ``(kind, w, a,
    b)`` with kind 0 for an exponential curve (a = -gamma, b = gamma), 1
    for a power curve (a = exponent, b = w * exponent), 2 for a linear curve
    (a = scale, b = w * scale) and 3 for any other curve (a = its bound
    ``value``, b = None)."""
    if type(c) is ExponentialCurve:
        return 0, w, -c.gamma, c.gamma
    if type(c) is PowerCurve:
        return 1, w, c.exponent, w * c.exponent
    if type(c) is LinearCurve:
        return 2, w, c.scale, w * c.scale
    return 3, w, c.value, None


def _value_and_slope(terms: tuple, x: float) -> tuple[float, float]:
    """The left-to-right sums of a term table's values and slopes at x.

    Each value repeats its family's ``value`` expression times w, so the
    value sum is ``MixtureCurve.value``'s float.  The slopes are w e^(-gamma
    x), read as w (1 + expm1(-gamma x)), w a |x|^(a - 1) (infinite at 0 when
    a < 1) and w a, and NaN for a kind-3 term, whose curve has no slope
    here.  An overflow raises OverflowError, where ``value`` would.
    """
    total = slope = 0.0
    for kind, w, a, b in terms:
        if kind == 0:
            em = math.expm1(a * x)
            total += w * (-em / b)
            slope += w * (1.0 + em)
        elif kind == 1:
            if x != 0.0:
                p = abs(x) ** a
                total += w * math.copysign(p, x)
                slope += b * (p / abs(x))
            else:  # |x|^(a - 1) at 0 is inf^(1 - a): inf, 1 or 0
                total += w * 0.0
                slope += b * math.inf ** (1.0 - a)
        elif kind == 2:
            total += w * (a * x)
            slope += b
        else:
            total += w * a(x)
            slope = math.nan
    return total, slope


@dataclass(frozen=True)
class MixtureCurve(Curve):
    """Probability-weighted average of curves (weights positive, sum 1).

    ``value`` reads a term table fixed at construction, one ``_term`` row
    per part.  Each term repeats its family's ``value`` expression, so the
    floats are those of ``_lsum(w * c.value(x) ...)``, which stays the
    overflow path.  ``value_and_slope`` adds each term's slope in the same
    pass.  The image limits are summed from the parts' on first read, and
    kept.

    ``monotone`` is set when every part passes ``_float_monotone``, so
    every part is of kind 0-2 and ``value`` is nondecreasing in floats.
    """

    weights: tuple[float, ...]
    parts: tuple[Curve, ...]

    def __post_init__(self):
        weights = tuple(float(w) for w in self.weights)
        if len(weights) != len(self.parts) or not self.parts:
            raise ValueError("weights and parts must align")
        if not all(w > 0.0 for w in weights):  # a NaN weight fails too
            raise ValueError("mixture weights must be positive")
        if not abs(_lsum(weights) - 1.0) <= 1e-9:
            raise ValueError("mixture weights must sum to 1")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_terms", tuple(map(_term, weights, self.parts)))
        object.__setattr__(self, "monotone", all(map(_float_monotone, self.parts)))

    def value(self, x: float) -> float:
        total = 0.0
        try:
            for kind, w, a, b in self._terms:
                total += (
                    w * (-math.expm1(a * x) / b) if kind == 0
                    else w * (math.copysign(abs(x) ** a, x) if x != 0.0 else 0.0)
                    if kind == 1
                    else w * (a * x) if kind == 2
                    else w * a(x)
                )
        except OverflowError:
            # each part's own value raises its typed error
            return _lsum(w * c.value(x) for w, c in zip(self.weights, self.parts))
        return total

    def value_and_slope(self, x: float) -> tuple[float, float]:
        """``value(x)``, float for float, and the slope of the term table at
        x (see ``_value_and_slope``); the slope is NaN on the overflow
        path."""
        try:
            return _value_and_slope(self._terms, x)
        except OverflowError:
            return self.value(x), math.nan

    # an infinite limit carries its sign through, as no lower limit is +inf
    # and no upper limit -inf
    @cached_property
    def _lower(self) -> float:
        return _lsum(w * c.lower_limit() for w, c in zip(self.weights, self.parts))

    @cached_property
    def _upper(self) -> float:
        return _lsum(w * c.upper_limit() for w, c in zip(self.weights, self.parts))

    def lower_limit(self) -> float:
        return self._lower

    def upper_limit(self) -> float:
        return self._upper

    def regularity_issues(self):
        issues = []
        for c in self.parts:
            issues.extend(c.regularity_issues())
        v0 = self.value(0.0)
        if issues == [] and v0 != 0.0:
            issues.append((0.0, f"mixture value at 0 is {v0!r}, not 0"))
        return issues

    def jumps(self, lo: float, hi: float) -> list[tuple[float, float]]:
        found: dict[float, float] = {}
        for w, c in zip(self.weights, self.parts):
            for x, size in c.jumps(lo, hi):
                found[x] = found.get(x, 0.0) + w * size
        return sorted(found.items())


def right_continuous_inverse(
    curve: Curve, target: float, *, use_closed_form: bool = True
) -> float:
    """inf{y in R : curve(y) > target}, for targets strictly inside the image.

    With ``use_closed_form`` the family's exact inverse is used when one
    exists; otherwise (and always for mixtures) a monotone bisection runs to
    absolute tolerance ``BISECT_TOL`` on y.  Callers are responsible for the
    out-of-image branches, where ``utility.generalized_inverse`` returns
    -inf or +inf.

    A probe whose value overflows reads as -inf below 0 and +inf above 0:
    a regular curve is increasing through u(0) = 0, so its value there
    lies beyond every float target on that side.

    On a ``monotone`` curve, which has a ``value_and_slope``, the bracket's
    probes and ``_newton`` give bisection its ``known`` pair.  Such a curve
    also keeps its last (target, solution) pair, as one tuple replaced
    whole, so that a concurrent reader never pairs one solve's target with
    another's solution.  The solution depends on the curve and the target
    alone, since ``known`` moves no iterate: the same target returns the
    stored float, and ``_newton`` places its first probe from the pair.
    """
    if use_closed_form:
        exact = curve.inverse_exact(target)
        if exact is not None:
            return exact
    last = curve._solved
    if last[0] == target:
        return last[1]

    def probe(x: float) -> float:
        try:
            return curve.value(x)
        except NumericRangeError:
            return math.copysign(math.inf, x)

    def guide(x: float) -> tuple[float, float]:
        try:
            return curve.value_and_slope(x)
        except NumericRangeError:
            return math.copysign(math.inf, x), math.nan

    # bracket: lo with value <= target, hi with value > target; (a, fa) and
    # (b, fb) are the tightest probes on each side
    lo, hi = -1.0, 1.0
    b = fb = None
    for _ in range(200):
        fa = probe(lo)
        if fa <= target:
            break
        b, fb = lo, fa
        lo *= 2.0
    else:
        raise NumericRangeError("could not bracket the inverse from below")
    a = lo
    for _ in range(200):
        v = probe(hi)
        if v > target:
            break
        a, fa = hi, v
        hi *= 2.0
    else:
        raise NumericRangeError("could not bracket the inverse from above")
    if b is None:
        b, fb = hi, v

    known = _newton(guide, target, a, fa, b, fb, last) if curve.monotone else None
    lo, hi = bisect_increasing(probe, target, lo, hi, known)
    solution = 0.5 * (lo + hi)
    if curve.monotone:
        object.__setattr__(curve, "_solved", (target, solution))
    return solution


def _newton(
    fn: Callable[[float], tuple[float, float]], target: float,
    a: float, fa: float, b: float, fb: float,
    last: tuple[float, float] = (math.nan, math.nan),
) -> tuple[float, float]:
    """Narrow fa <= target < fb, the values at a < b, by safeguarded Newton
    steps on ``fn``, which returns a value and its slope.

    The first probe is a + ``BISECT_TOL`` / 2 when fa equals ``target``, a
    root that a curve inverse meets at a bracket probe (E_0 of the constant
    act 1): the secant point a would fall back to the midpoint, and this
    probe closes the pair at once.  Otherwise it is the secant
    point of (a, b) when the rise is finite, with one change: when
    ``last``, the (target, solution) pair of a previous solve, has its
    solution strictly inside (a, b), that pair replaces the end of (a, b)
    on its side of ``target``.  So a nearby previous target puts the first
    probe next to the root.  The pair only places that probe, and is never
    a bound, since the value at its solution is not read.  Each later probe
    is the Newton step from the last probe when the slope there is positive
    and finite and the step lands in the half of (a, b) on the probe's
    side.  Any other probe is the midpoint of (a, b).  A Newton step
    shorter than ``BISECT_TOL``, or a probe that hits ``target``, moves 4
    ulps further, so that the bracket closes from the other side of the
    root.  At most 12 probes run, and none once b - a <= ``BISECT_TOL``,
    where bisection probes anyway.
    """
    x = math.nan  # a probe outside (a, b) falls back to the midpoint
    p, fp, q, fq = a, fa, b, fb
    t, s = last
    if a < s < b:
        if t <= target:
            p, fp = s, t
        else:
            q, fq = s, t
    if fa == target:
        x = a + 0.5 * BISECT_TOL
    elif 0.0 < fq - fp < math.inf:
        x = p + (q - p) * ((target - fp) / (fq - fp))
    for _ in range(12):
        if b - a <= BISECT_TOL:
            break
        if not a < x < b:
            x = 0.5 * (a + b)
            if not a < x < b:
                break
        v, slope = fn(x)
        if v > target:
            b = x
        else:
            a = x
        if v == target:
            x += 4.0 * math.ulp(x)
        elif 0.0 < slope < math.inf:
            step = (target - v) / slope
            if abs(step) < BISECT_TOL:
                step += math.copysign(4.0 * math.ulp(x), step)
            if abs(step) <= 0.5 * (b - a):
                x += step
    return a, b


def bisect_increasing(
    fn: Callable[[float], float], target: float, lo: float, hi: float,
    known: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Bisect a nondecreasing ``fn`` for ``target``; returns the final bracket.

    If fn(lo) <= target < fn(hi) holds on entry it holds on return, so the
    endpoints are one-sided solutions with a known comparison direction.

    ``known`` is an optional pair (a, b) with fn(x) <= target at every x
    <= a and fn(x) > target at every x >= b in the bracket, such as an
    evaluated pair fn(a) <= target < fn(b) of an ``fn`` that is
    nondecreasing in floats.  A midpoint at or below a then compares as not
    above ``target``, and one at or above b as above it, so its probe is
    skipped whenever the updated bracket is still wider than
    ``BISECT_TOL``: only narrower steps read the value itself.  The
    iterates are those of the loop without ``known``.
    """
    # terminate on the solution interval AND the equation residual: maps
    # with unbounded inverse slope (e.g. odd roots at 0) need the interval
    # pushed far below BISECT_TOL before the value residual is small, and
    # step functions never satisfy the residual at all (the loop then runs
    # to float resolution, which is the correct inf).
    value_tol = 1e-12 * (1.0 + abs(target))
    a, b = known or (-math.inf, math.inf)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at float resolution
            break
        if mid <= a and hi - mid > BISECT_TOL:
            lo = mid
            continue
        if mid >= b and mid - lo > BISECT_TOL:
            hi = mid
            continue
        v = fn(mid)
        if v > target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= BISECT_TOL and abs(v - target) <= value_tol:
            break
    return lo, hi


def merge_piecewise_linear(
    weights: tuple[float, ...], parts: tuple[Curve, ...]
) -> Curve:
    """Exact weighted average of linear/piecewise-linear curves.

    Averaging piecewise-linear functions over the union of their breakpoints
    is again piecewise-linear, so no approximation is involved.
    """
    if all(isinstance(c, LinearCurve) for c in parts):
        return LinearCurve(_lsum(w * c.scale for w, c in zip(weights, parts)))
    knot_xs = sorted(
        {x for c in parts if isinstance(c, PiecewiseLinearCurve) for x in c.xs}
    )
    us = tuple(
        _lsum(w * c.value(x) for w, c in zip(weights, parts)) for x in knot_xs
    )

    def edge_slope(c: Curve, side: str) -> float:
        if isinstance(c, LinearCurve):
            return c.scale
        return c.slope_left if side == "left" else c.slope_right

    sl = _lsum(w * edge_slope(c, "left") for w, c in zip(weights, parts))
    sr = _lsum(w * edge_slope(c, "right") for w, c in zip(weights, parts))
    return PiecewiseLinearCurve(tuple(knot_xs), us, sl, sr)
