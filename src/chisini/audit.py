"""Black-box preference-functional audits.

A :class:`PreferenceFunctional` wraps an arbitrary evaluator of acts; it is
defined in :mod:`chisini.utility`, below the solver, and re-exported here.
The audits establish, by exhaustive finite search over grid-valued acts:

- strict monotonicity: raising a constant payoff on a non-null event must
  strictly improve the act, whatever happens elsewhere;
- the sure-thing principle: if act f beats act g given a common payoff h
  off some event, the comparison must not flip for any other common payoff;
- conditionability on the four-event algebra generated by a single event:
  there must exist a two-level act matching the functional on the event,
  on its complement, and (the nontrivial part) on the whole space.

The equivalence harness runs the last two and asserts that their verdicts
agree: for strictly monotone, pointwise continuous preferences the
sure-thing principle holds exactly when conditional certainty equivalents
exist, and the harness checks that equivalence at finite scale.

Pointwise continuity itself has no finite certificate from grid samples;
it is deliberately not audited here (a sequence-based numerical proxy lives
with the expectation-family audits).

Enumeration is deterministic: events ascend by outcome bitmask, acts by
lexicographic order of their value tuples, and the first witness reported
is the lexicographic minimum over (f, g, h, h_alt, event).  Every grid
search reads one value table per event A, one event at a time: row h and
column a hold the act that is a on A and h off A, read from the list of
grid-act values by index arithmetic.  ``_GridEnumeration.offsets`` alone
encodes that layout: it numbers a row by its act with 0 digits on A and a
column by its act with 0 digits off A, and the cell holds the act whose
index is their sum.  Monotonicity compares its constant columns in
Python.  The sure-thing grid phase first tries to prove each event
flip-free (:func:`_flip_free`), in Python, and compares a column with
every other only on the events left, one column at a time in numpy, in
act order up to the first act whose column flips, at a cost of at most
g^n * (1 + g)^n subtractions for n outcomes and g grid values, against
g^(2n) pairs times 2^n * g^n completions for a loop over every pair.
numpy is imported there alone, so an audit whose events are all proved,
as on expected utility, loads none; the pair's completions and witness
are read in Python.

The constant solves t(x * 1_A) = t(f * 1_A) run the same monotone
bisection as the curve inverse, :func:`chisini.curves.bisect_increasing`.
On the two marked families the masked value x -> t(x * 1_A) has a closed
form, equal to the evaluator's float up to the sign of a zero, and the
search probes that form, not the evaluator, and reads the solution's value
from it, so that a solve called on its own makes three evaluator calls,
its target and its bracket ends (see :func:`_solve_constant`):
on a ``monotone`` functional (expected utility over regular exponential,
power and linear curves) the masked sum of its term table, and on a
Choquet functional one rounded product at x >= 0 and on the whole space,
and a difference of two below 0.  On a ``monotone`` functional the curve
inverse's Newton guide narrows the bracket first, and the bisection
replays its own iterates without the probes the guide decided: the plain
loop's floats from a fraction of its probes.  Every other functional runs
the plain loop, a Choquet one on its form, whose probes cost about what a
guide would.  A bracket beyond half the float range, whose midpoints would
overflow, is refused before any probe.  Each audit call builds its grid
acts with their sup|f|, events and value table once; the equivalence
harness builds them once for both of its searches, and ``chisini audit``
once for strict monotonicity and the harness.  A solve reads f only
through f * 1_A and sup|f|, so the enumeration's ``lru_cache`` keeps it
per (event, f's values on A, sup|f|) for every grid act sharing that key,
in either search; a failed bracket is not kept and fails again.  What a
solve reads of its event alone, the members, the closed form and the
Newton guide, is built once per event (:func:`_event_search`) and kept
beside the bracket ends.  Where +0.0 is on the grid, f * 1_A is itself a
grid act, and the solve
reads its target t(f * 1_A) from the value table by act index; with -0.0
on the grid it is not (an evaluator may read the sign of a zero), and the
solve evaluates it.  The
bracket ends t(+-(sup|f| + 1) * 1_A) depend on the event and sup|f| alone,
and are evaluated once per pair.  The off-event constant for A is the
solve on the complement of A.  Each solve also returns t(x * 1_A) at its
solution, the residual that the conditionability search reads.  One walk
per complementary pair of events (:func:`_event_pass`) reads both solves
of each act and evaluates t(x on A, y off A) after them, once for A and
A^c, since (x on A, y off A) is (y on A^c, x off A^c).  Both searches read
its result, kept per event and made on the first read of either event of
the pair, in the searches' own order.  On the empty and the full event
that act is the whole-space solve's own, whose value the walk reads.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, compress, product
from operator import gt, lt, sub
from typing import TYPE_CHECKING, Callable

from .curves import (
    _float_monotone,
    _lsum,
    _newton,
    _pairwise_sum,
    _term,
    _value_and_slope,
    bisect_increasing,
)
from .errors import (
    BisectionBracketFailure,
    ComplexityCapExceeded,
    NumericRangeError,
)
from .reports import AuditReport, CheckResult
from .spaces import Act, EventSet, FiniteSpace, _require_same_space, paste
from .utility import (
    AdditiveRepresentation,
    PreferenceFunctional,
    spot_check_additivity,
)

if TYPE_CHECKING:  # numpy is imported only where arrays are built
    import numpy as np

#: Margin separating a genuine strict violation from round-off.
WITNESS_MARGIN = 1e-9

#: Hard caps for exhaustive act enumeration.
MAX_OUTCOMES = 6
MAX_GRID = 5

#: Capacity rows a Choquet functional caches: every rank order at the cap.
CAPACITY_ROWS = math.factorial(MAX_OUTCOMES)


@dataclass(frozen=True)
class Witness:
    """A sure-thing violation: the comparison of f vs g on the event flips
    between the two off-event completions."""

    f: tuple[float, ...]
    g: tuple[float, ...]
    h: tuple[float, ...]
    h_alt: tuple[float, ...]
    event: tuple[int, ...]
    values: tuple[float, float, float, float]
    margin: float

    def to_dict(self) -> dict:
        return {
            "f": list(self.f),
            "g": list(self.g),
            "h": list(self.h),
            "h_alt": list(self.h_alt),
            "event": list(self.event),
            "values": list(self.values),
            "margin": self.margin,
        }


def _enforce_caps(t: PreferenceFunctional) -> None:
    if t.space.size > MAX_OUTCOMES:
        raise ComplexityCapExceeded(
            f"{t.space.size} outcomes exceed the cap of {MAX_OUTCOMES}"
        )
    if len(t.grid) > MAX_GRID:
        raise ComplexityCapExceeded(
            f"grid of {len(t.grid)} values exceeds the cap of {MAX_GRID}"
        )


class _GridEnumeration:
    """All grid-valued acts and events of a functional, the list of their
    values with its per-event tables, each act's sup|f| (``sups``), and the
    constant solves and per-event walks on them.

    Act index = mixed-radix number of grid digits, first outcome most
    significant, so ascending index order is lexicographic order of the
    value tuples.  Event index = outcome bitmask.
    """

    def __init__(self, t: PreferenceFunctional):
        _enforce_caps(t)
        self.t = t
        self.n = t.space.size
        self.g = len(t.grid)
        self.full = (1 << self.n) - 1
        self.acts = [Act(t.space, a) for a in product(t.grid, repeat=self.n)]
        self.sups = [f.sup_norm for f in self.acts]
        # bits[mask][i] is 1 iff outcome i lies in events[mask]
        self.bits = [
            [mask >> i & 1 for i in range(self.n)] for mask in range(self.full + 1)
        ]
        self.events = [
            EventSet(t.space, frozenset(compress(range(self.n), bits)))
            for bits in self.bits
        ]
        self.count = len(self.acts)
        self.passes = [None] * (self.full + 1)
        self.values = [float(t(f)) for f in self.acts]
        self.finite = all(map(math.isfinite, self.values))
        # f * 1_A is a grid act where +0.0 is on the grid: -0.0 == 0.0, but
        # an evaluator may read the sign of a zero
        read = None
        if any(v == 0.0 and math.copysign(1.0, v) > 0.0 for v in t.grid):
            read = partial(_grid_value, t.grid, self.values)
        # a function of the key alone, so the cache holds no reference to self
        self._solve = lru_cache(maxsize=None)(
            partial(_solve_constant, t, table=read, ends={}, searches={})
        )

    def offsets(self, mask: int) -> list[int]:
        """The indices of the acts whose grid digits off events[mask] are
        all 0, ascending.  They number the columns of the event's value
        table, and those of its complement number its rows: row r and
        column c hold the act offsets(full ^ mask)[r] + offsets(mask)[c]."""
        offsets, weight = [0], self.count
        for b in self.bits[mask]:
            weight //= self.g
            if b:
                offsets = [o + d * weight for o in offsets for d in range(self.g)]
        return offsets

    def part(self, ai: int, mask: int) -> int:
        """The index of the act with acts[ai]'s grid digits on events[mask]
        and 0 off it, one of offsets(mask): acts[ai] sits in the event's
        table in the column of part(ai, mask) and the row of
        part(ai, full ^ mask), and ai is their sum."""
        part, weight = 0, self.count
        for b in self.bits[mask]:
            weight //= self.g
            if b:
                part += ai // weight % self.g * weight
        return part

    def constant(self, mask: int, ai: int) -> tuple[float, float, float, float, float]:
        """:func:`_solve_constant` on A = events[mask] and f = acts[ai],
        cached on its key: every act with the same values on A and the same
        sup|f| gets the same floats from one bisection.  The solve reads its
        target t(f * 1_A) from the value table where +0.0 is on the grid,
        and each bracket end once per (event, sup|f|).  A failed bracket is
        not cached, and raises again on every call."""
        on = tuple(compress(self.acts[ai].values, self.bits[mask]))
        return self._solve(mask, on, self.sups[ai])

    def event_pass(self, mask: int) -> tuple:
        """:func:`_event_pass` on events[mask], made on its first read
        together with the walk of the complement's."""
        if self.passes[mask] is None:
            self.passes[mask], self.passes[self.full ^ mask] = _event_pass(self, mask)
        return self.passes[mask]


def _grid_value(grid: tuple[float, ...], values: list[float], act: tuple) -> float:
    """The value table's entry for the grid act with the value tuple
    ``act``: its index is the mixed-radix number of its grid digits."""
    index = 0
    for v in act:
        index = index * len(grid) + grid.index(v)
    return values[index]


def _solve_constant(
    t: PreferenceFunctional,
    mask: int,
    on: tuple[float, ...],
    sup: float,
    table: Callable[[tuple[float, ...]], float] | None = None,
    ends: dict | None = None,
    searches: dict | None = None,
) -> tuple[float, float, float, float, float]:
    """Solve t(x * 1_A) = t(f * 1_A) for the constant x by bisection, where
    A is the event with outcome bitmask ``mask``, ``on`` holds f's values on
    A in outcome order and ``sup`` is sup|f|; evaluate t(x * 1_A).

    Called with the key alone, the solve builds its event's search
    (:func:`_event_search`) and evaluates its target and bracket ends
    itself.  An enumeration passes ``searches``, a dict that keeps the
    search per mask, and ``ends``, one that keeps t at the bracket ends per
    (mask, sup|f| + 1), across its solves, and, where +0.0 is on its grid
    so that f * 1_A is a grid act, ``table``, which reads t(f * 1_A) from
    its value table; the search is the same.

    Requires x -> t(x * 1_A) to be nondecreasing with the target inside
    its values at +-(sup|f| + 1); a failed bracket signals a strict-
    monotonicity violation upstream.  A bracket beyond half the float
    range, whose midpoints may overflow, raises NumericRangeError before
    any evaluation.  Returns (x, lo, hi, target, value) with target =
    t(f * 1_A) and value = t(x * 1_A).  A flat map (null event) admits any
    solution and returns x = lo = hi = 0.  Otherwise t(lo * 1_A) <= target
    < t(hi * 1_A), so the endpoints are one-sided solutions with a
    guaranteed comparison direction.

    On a marked functional a direct call makes three evaluator calls: the
    target and the bracket ends; an enumeration's solve evaluates only
    those it cannot read.  The search between them, and the returned value,
    read x -> t(x * 1_A) from the closed form that the mark gives, float
    for float up to the sign of a zero, which no comparison sees and
    |target - value| drops:

    - On a ``monotone`` functional the form is the left-to-right sum of A's
      rows of its term table, since each outcome off A adds p * u(0) =
      +0.0.  ``_newton`` narrows the bracket on the slope sum_{i in A} p_i
      u_i'(x) from the same pass, to a known pair (a, b) that lets
      bisection skip the probes it decides, keeping the loop's floats.
    - On a Choquet functional every term of the sum of x * 1_A is an exact
      0.0 but the step between its two constant runs and, below 0, the
      last value's, so the form is x * nu_{n-1} on the whole space, and on
      a proper event x * c_A at x >= 0 and fl(fl(x * N) + fl((0 - x) * C))
      below 0, with c_A = nu_{|A|-1} read from the (A, A^c) rank order's
      capacity row and N = nu_{n-1}, C = nu_{|A^c|-1} from the (A^c, A)
      row.  A zero term is exact only beside a finite capacity (0 * inf
      is NaN), so the form needs those two rows and the identity row, the
      order at x = 0, to be finite; the evaluator serves otherwise.  The
      plain loop runs on the form at every target and on every event: each
      probe is one or two float products, so the probes a Newton guide
      would skip cost about as much as the guide itself.

    The flat map's value, and the value at x = 0.0, a zero whose sign the
    evaluator gives, are evaluated.  Every other functional runs the plain
    loop on the evaluator.
    """
    hi = sup + 1.0
    if hi > 0.5 * sys.float_info.max:
        raise NumericRangeError(
            f"bracket +-{hi:g} exceeds half the float range, where its "
            "midpoints overflow"
        )
    lo = -hi
    searches = {} if searches is None else searches
    if mask not in searches:
        searches[mask] = _event_search(t, mask)
    bits, form, guide = searches[mask]
    values = iter(on)
    masked = tuple(next(values) if b else 0.0 for b in bits)
    target = t(Act._trusted(t.space, masked)) if table is None else table(masked)

    def masked_value(x: float) -> float:  # x lies in the finite bracket
        return t(Act._trusted(t.space, tuple(x if b else 0.0 for b in bits)))

    ends = {} if ends is None else ends
    if (mask, hi) not in ends:
        ends[mask, hi] = masked_value(lo), masked_value(hi)
    v_lo, v_hi = ends[mask, hi]
    if v_lo == v_hi:
        return 0.0, 0.0, 0.0, target, masked_value(0.0)
    slack = 1e-12 * (1.0 + abs(target))
    if not (v_lo <= target + slack and target - slack <= v_hi):
        raise BisectionBracketFailure(
            f"target {target:g} outside masked-value range [{v_lo:g}, {v_hi:g}]"
        )
    # on a monotone functional the evaluator's value at the bracket ends
    # did not overflow, nor then do the same curve expressions in the terms
    # between them
    known = None
    if guide is not None and v_lo <= target < v_hi:
        known = _newton(guide, target, lo, v_lo, hi, v_hi)
    lo, hi = bisect_increasing(form or masked_value, target, lo, hi, known)
    x = 0.5 * (lo + hi)
    return x, lo, hi, target, masked_value(x) if form is None or x == 0.0 else form(x)


def _event_search(t: PreferenceFunctional, mask: int) -> tuple:
    """What a constant solve on the event with outcome bitmask ``mask``
    reads of the event alone: the bits of its members in outcome order, the
    closed form of x -> t(x * 1_A) (None where the evaluator serves), and
    a ``monotone`` functional's Newton guide, the form's value and slope in
    one pass (else None).  It is the one part of the solve that reads a
    functional's marks; see :func:`_solve_constant` for the forms."""
    bits = [mask >> i & 1 for i in range(t.space.size)]
    n, k = len(bits), sum(bits)
    form = guide = None
    if t.monotone:
        guide = partial(_value_and_slope, tuple(compress(t._terms, bits)))
        form = lambda x: guide(x)[0]
    elif t._choquet:
        up = t._choquet(tuple(sorted(range(n), key=bits.__getitem__, reverse=True)))
        down = t._choquet(tuple(sorted(range(n), key=bits.__getitem__)))
        if all(map(math.isfinite, up + down + t._choquet(tuple(range(n))))):
            c_a, nu_all, c_off = up[k - 1], down[-1], down[n - k - 1]

            def form(x: float) -> float:
                if x >= 0.0 or k == n:  # the whole space's two rows are one
                    return x * c_a
                return x * nu_all + (0.0 - x) * c_off

    return bits, form, guide


def _report(
    t: PreferenceFunctional, name: str, witness: dict | None, details: dict
) -> AuditReport:
    """A single-check report; the check passes iff there is no witness."""
    check = CheckResult(name, witness is None, witness, details)
    return AuditReport(t.name or "functional", (check,))


def check_strict_monotonicity(t: PreferenceFunctional) -> AuditReport:
    """Exhaustive strict-monotonicity audit over grid data.

    For every non-null event, every ordered grid pair x > y and every
    grid-valued background act, the evaluator must strictly prefer the act
    paying x on the event.  In the event's table the act constant at
    grid[d] on it is column d * (g^|A| - 1) / (g - 1), so each pair compares
    two columns.  The first failure in enumeration order is the witness.
    """
    _require_grid_pair(t)
    return _strict_monotonicity(_GridEnumeration(t))


def _require_grid_pair(t: PreferenceFunctional) -> None:
    if len(t.grid) < 2:
        raise ValueError("strict monotonicity needs at least two grid values")


def _strict_monotonicity(enum: _GridEnumeration) -> AuditReport:
    """:func:`check_strict_monotonicity` over a built enumeration."""
    t, values = enum.t, enum.values
    witness = None
    checked = 0
    for mask in range(1, 1 << enum.n):
        members = enum.events[mask].members
        if t.space.probability(members) == 0.0:
            continue
        rows = enum.offsets(enum.full ^ mask)
        # the act constant at grid[d] on the event, 0 digits off it
        unit = enum.offsets(mask)[-1] // (enum.g - 1)
        columns = [[values[r + d * unit] for r in rows] for d in range(enum.g)]
        for xi in range(enum.g - 1, -1, -1):
            for yi in range(xi):
                # x = grid[xi] > y = grid[yi]; a NaN value fails too
                dx, dy = columns[xi], columns[yi]
                checked += enum.count
                if witness is None and not all(map(gt, dx, dy)):
                    r = next(r for r, (x, y) in enumerate(zip(dx, dy)) if not x > y)
                    witness = {
                        "event": sorted(members),
                        "x": t.grid[xi],
                        "y": t.grid[yi],
                        "background": list(enum.acts[rows[r]].values),
                        "value_x": dx[r],
                        "value_y": dy[r],
                    }
        if witness is not None:
            break
    return _report(t, "strict-monotonicity", witness, {"comparisons": checked})


def check_sure_thing(t: PreferenceFunctional) -> AuditReport:
    """Exhaustive sure-thing audit in two phases.

    Phase 1 searches all (f, g, h, h_alt, event) tuples over grid-valued
    acts for a comparison that holds with completion h but fails, by more
    than the witness margin, with completion h_alt.  On an event, whether
    f and g flip depends only on their two columns of the event's table,
    so the search first picks the pair by comparing each column with its
    table, then finds (h, h_alt, event) among the rows for that one pair.
    The pair, and so the witness, is the first that a loop over every
    ordered pair would meet.

    Phase 2 runs only when the grid search is clean: for each event and
    grid act it solves the two masked certainty-equivalent equations by
    bisection and checks the full-space pasting they induce.  A mismatch
    there is converted into a genuine flip whose acts involve the solved
    constants; this is exactly the constructive route by which a failure
    of conditioning produces a sure-thing violation, and it catches
    functionals whose violations sit between grid points.  Bracket
    endpoints from the bisection pin the premise direction, so every
    emitted witness re-evaluates to a true violation.
    """
    return _sure_thing(_GridEnumeration(t))


def _sure_thing(enum: _GridEnumeration) -> AuditReport:
    """:func:`check_sure_thing` over a built enumeration."""
    witness = None
    searched = [mask for mask in range(enum.full) if not _flip_free(enum, mask)]
    pair = _first_flipping_pair(enum, searched)
    if pair is not None:
        fi, gi = pair
        hi, hj, mask = _first_flip(enum, fi, gi, searched)
        v1, v2, v3, v4 = (  # acts[i] on the event, acts[j] off it
            enum.values[enum.part(i, mask) + enum.part(j, enum.full ^ mask)]
            for i, j in ((fi, hi), (gi, hi), (fi, hj), (gi, hj))
        )
        witness = Witness(
            f=enum.acts[fi].values,
            g=enum.acts[gi].values,
            h=enum.acts[hi].values,
            h_alt=enum.acts[hj].values,
            event=tuple(sorted(enum.events[mask].members)),
            values=(v1, v2, v3, v4),
            margin=v4 - v3,
        )
    phase = "grid"
    if witness is None:
        witness = _certainty_equivalent_witness(enum)
        phase = "certainty-equivalent" if witness is not None else "none"
    return _report(
        enum.t,
        "sure-thing",
        witness.to_dict() if witness else None,
        {"acts": enum.count, "events": len(enum.events), "witness_phase": phase},
    )


def _certainty_equivalent_witness(enum: _GridEnumeration) -> Witness | None:
    """Derive a sure-thing flip from a failed conditioning equation.

    For an event A and act f let x, y solve t(x 1_A) = t(f 1_A) and
    t(y 1_{A^c}) = t(f 1_{A^c}).  If t(f) differs from t(x 1_A + y 1_{A^c})
    the chain f -> (x on A, f off A) -> (x on A, y off A) must break at one
    of its two links, and that link is a sure-thing violation whose premise
    (an indifference) is re-established with the appropriate bisection
    bracket endpoint.  The acts are the event walk's mismatches.
    """
    t = enum.t
    for mask in range(1, enum.full):
        event = enum.events[mask]
        complement = enum.events[enum.full ^ mask]
        for ai, tg in zip(*enum.event_pass(mask)[3]):
            f = enum.acts[ai]
            x, x_lo, x_hi, _, _ = enum.constant(mask, ai)
            _, y_lo, y_hi, _, _ = enum.constant(enum.full ^ mask, ai)
            tol = WITNESS_MARGIN * (1.0 + enum.sups[ai])
            x_act = Act.constant(t.space, x)
            t_mid = t(paste(x_act, f, event))
            d1 = enum.values[ai] - t_mid
            if abs(d1) > tol / 2.0:
                witness = _one_sided_flip(
                    t, f, event, (x_lo, x_hi), completion=f, gap=d1
                )
            else:
                witness = _one_sided_flip(
                    t, f, complement, (y_lo, y_hi), completion=x_act, gap=t_mid - tg
                )
            if witness is not None:
                return witness
    return None


def _one_sided_flip(
    t: PreferenceFunctional,
    f: Act,
    event: EventSet,
    endpoints: tuple[float, float],
    completion: Act,
    gap: float,
) -> Witness | None:
    """Build a witness comparing f against a constant on the event.

    ``gap`` is t(f with completion) - t(constant with completion).  The
    premise uses the zero completion, where the masked values are equal by
    construction; picking the bracket endpoint below (resp. above) the
    solution guarantees the premise inequality in the required direction.
    """
    lo, hi = endpoints
    zero = Act.constant(t.space, 0.0)
    if gap > 0:
        # f strictly beats the constant with this completion: the premise
        # must put the constant weakly above f, so overshoot with hi.
        const = Act.constant(t.space, hi)
        first, second = const, f
    else:
        const = Act.constant(t.space, lo)
        first, second = f, const
    v1 = t(paste(first, zero, event))
    v2 = t(paste(second, zero, event))
    v3 = t(paste(first, completion, event))
    v4 = t(paste(second, completion, event))
    if v1 < v2 or v3 >= v4 - WITNESS_MARGIN:
        return None  # numerical slack ate the construction; no witness
    return Witness(
        f=first.values,
        g=second.values,
        h=zero.values,
        h_alt=completion.values,
        event=tuple(sorted(event.members)),
        values=(v1, v2, v3, v4),
        margin=float(v4 - v3),
    )


def _flip_free(enum: _GridEnumeration, mask: int) -> bool:
    """A certificate that no two columns of events[mask]'s value table flip
    in either order, so that the event holds no sure-thing violation.

    The columns are sorted by row 0 and cut into clusters wherever row 0's
    gap exceeds the witness margin m.  The event is certified if, in every
    row, each cluster spans at most m and lies strictly below the next.
    Two columns a, b of one cluster then have |a - b| <= hi - lo <= m in
    every row, exactly, and rounding is monotone, so fl(a - b) never falls
    below -m: no violation.  Two columns of different clusters have a < b,
    or a > b, in every row, and for finite a != b the rounded a - b is not
    0 and has the exact difference's sign: no premise in one order, no
    violation in the other.  The argument needs m to be one number for
    every pair, as the flip test's margin is.  A table that holds a
    non-finite value is not certified (a NaN would also slip past ``min``
    and ``max``), and since every table holds every value, no event of an
    enumeration with one is.  Each cluster's columns are read only when
    the clusters below it have passed, so a refusal comes early.
    """
    if not enum.finite:
        return False
    values, rows = enum.values, enum.offsets(enum.full ^ mask)
    cols = sorted(enum.offsets(mask), key=lambda c: values[rows[0] + c])
    lead = [values[rows[0] + c] for c in cols]
    starts = [0]
    starts += [k for k in range(1, len(cols)) if lead[k] - lead[k - 1] > WITNESS_MARGIN]
    below = None  # the rows' highs of the cluster before
    for k, end in zip(starts, starts[1:] + [len(cols)]):
        cluster = [[values[r + c] for r in rows] for c in cols[k:end]]
        lows = highs = cluster[0]
        if len(cluster) > 1:
            lows, highs = list(map(min, *cluster)), list(map(max, *cluster))
            if max(map(sub, highs, lows)) > WITNESS_MARGIN:
                return False
        if below is not None and not all(map(lt, below, lows)):
            return False
        below = highs
    return True


def _sides(diff: float | np.ndarray) -> tuple:
    """The flip test on diff = t(f on A, h off A) - t(g on A, h off A), a
    float or an array of them: the premise diff >= 0, f weakly above g, and
    the violation diff < -WITNESS_MARGIN, f below g beyond round-off."""
    return diff >= 0.0, diff < -WITNESS_MARGIN


def _flip_partners(column: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Which columns b flip against ``column``: column - table[:, b] has a
    premise entry and a violation entry (:func:`_sides`)."""
    premise, violation = _sides(column - table)
    return premise.any(axis=0) & violation.any(axis=0)


def _first_flipping_pair(
    enum: _GridEnumeration, searched: list[int]
) -> tuple[int, int] | None:
    """The first ordered pair (f, g) of grid acts, in enumeration order,
    whose comparison flips between two completions on one of the events
    ``searched``: f is the first act whose column flips against another of
    some event's table, g the first whose column f's flips against.  Each
    event's table is built once, a numpy array indexed by the sums of its
    row and column offsets.  The acts are scanned in index order, and the
    scan stops at f; an act tests its column on an event only where it is
    the column's first act, the one with 0 digits off the event, so each
    (event, column) pair is tested at most once.  One column is compared
    at a time, so no temporary exceeds the table's g^n entries.  The events
    left out are those :func:`_flip_free` certifies, and the full event,
    whose table has one row and cannot hold both signs.  With no event
    left, numpy is not imported.
    """
    if not searched:
        return None
    import numpy as np

    values = np.array(enum.values)
    tables = []  # per event: its mask, each column's first act -> column, its table
    for mask in searched:
        cols = enum.offsets(mask)
        table = values[np.add.outer(enum.offsets(enum.full ^ mask), cols)]
        tables.append((mask, {c: k for k, c in enumerate(cols)}, table))

    def flips(ai: int) -> bool:
        return any(
            _flip_partners(table[:, col[ai], None], table).any()
            for _, col, table in tables
            if ai in col
        )

    fi = next((ai for ai in range(enum.count) if flips(ai)), None)
    if fi is None:
        return None
    partners = (
        (mask, _flip_partners(table[:, col[enum.part(fi, mask)], None], table))
        for mask, col, table in tables
    )
    return fi, min(enum.offsets(m)[p.argmax()] for m, p in partners if p.any())


def _first_flip(
    enum: _GridEnumeration, fi: int, gi: int, searched: list[int]
) -> tuple[int, int, int]:
    """Lexicographically first (h, h_alt, event) on which f = acts[fi] is
    weakly above g = acts[gi] with completion h and below it by more than
    the margin with h_alt, among the events ``searched``: no other event
    holds both.  The diff depends on a completion only through its row,
    whose first act, the one with 0 digits on the event, has the smallest
    index in it, so h and h_alt are first acts of rows.  It reads the
    values in Python, two columns of each event's table."""
    values, full, part = enum.values, enum.full, enum.part
    events = []  # per event: its mask, its premise and violation rows' first acts
    for mask in searched:
        f, g, rows = part(fi, mask), part(gi, mask), enum.offsets(full ^ mask)
        p, v = zip(*(_sides(values[r + f] - values[r + g]) for r in rows))
        events.append((mask, set(compress(rows, p)), set(compress(rows, v))))
    hi = min(min(p) for _, p, v in events if p and v)
    hj = min(min(v) for m, p, v in events if part(hi, full ^ m) in p and v)
    return hi, hj, next(
        m for m, p, v in events if part(hi, full ^ m) in p and part(hj, full ^ m) in v
    )


def _event_pass(enum: _GridEnumeration, mask: int) -> tuple[tuple, tuple]:
    """Walk the grid acts in index order on A = events[mask] and on its
    complement at once, since both generate one algebra: each act's
    constant solves x (on A) and y (off A), then t(g) for the two-level act
    g = (x on A, y off A) = (y on A^c, x off A^c), then g's residuals on A,
    off A and in full (the equation that additivity makes automatic and a
    general functional can fail).  Returns A's walk, then A^c's, each as
    its first witness (or None), its worst residual, its first bracket
    failure (or None; its act is skipped), and the act indices and t(g) of
    the acts whose full residual is not within the tolerance, in act order,
    as two flat arrays, which both walks share.  A^c's witness takes x and
    y, and the "event" and "complement" residuals, swapped.  Each walk tries the solve on its own
    event first, so an act whose solves both fail gives each walk its own
    failure.
    """
    t, bits, cmask = enum.t, enum.bits[mask], enum.full ^ mask
    witness = witness_c = failure = failure_c = None
    worst = worst_c = 0.0
    mismatches = array("q"), array("d")
    for ai in range(enum.count):
        on, off = _solved(enum, mask, ai), _solved(enum, cmask, ai)
        on_failed, off_failed = isinstance(on, Exception), isinstance(off, Exception)
        if on_failed or off_failed:
            failure = failure or (on if on_failed else off)
            failure_c = failure_c or (off if off_failed else on)
            continue
        x, _, _, on_target, on_value = on
        y, _, _, off_target, off_value = off
        tol = WITNESS_MARGIN * (1.0 + enum.sups[ai])
        if mask == enum.full:  # g = x * 1_Omega, the whole-space solve's act
            split = on_value
        elif mask == 0:  # g = y * 1_Omega
            split = off_value
        else:
            split = t(Act._trusted(t.space, tuple(x if b else y for b in bits)))
        event, complement = abs(on_target - on_value), abs(off_target - off_value)
        full = abs(enum.values[ai] - split)
        if not full <= tol:
            mismatches[0].append(ai)
            mismatches[1].append(split)
        # max returns a NaN that comes first and skips a later one, so each
        # walk lists its own event's residual first, as its own loop did
        resid, resid_c = max(event, complement, full), max(complement, event, full)
        worst, worst_c = max(worst, resid), max(worst_c, resid_c)
        if resid > tol and witness is None:
            witness = _walk_witness(enum, mask, ai, x, y, event, complement, full, tol)
        if resid_c > tol and witness_c is None:
            witness_c = _walk_witness(enum, cmask, ai, y, x, complement, event, full, tol)
    return (
        (witness, worst, failure, mismatches),
        (witness_c, worst_c, failure_c, mismatches),
    )


def _solved(enum: _GridEnumeration, mask: int, ai: int) -> tuple | Exception:
    """``enum.constant(mask, ai)``, or its bracket failure without its
    frames, which hold enum."""
    try:
        return enum.constant(mask, ai)
    except BisectionBracketFailure as err:
        return err.with_traceback(None)


def _walk_witness(
    enum: _GridEnumeration, mask: int, ai: int, x: float, y: float,
    event: float, complement: float, full: float, tol: float,
) -> dict:
    """Conditionability's witness: act acts[ai] on events[mask] with its
    two constants and three residuals."""
    return {
        "act": list(enum.acts[ai].values),
        "event": sorted(enum.events[mask].members),
        "x": x,
        "y": y,
        "residuals": {"event": event, "complement": complement, "full": full},
        "tolerance": tol,
    }


def _conditionable(enum: _GridEnumeration, mask: int) -> tuple[dict | None, float]:
    """Conditionability on the algebra generated by events[mask]: the
    event walk's witness and worst residual, or its first bracket failure
    raised as a copy, since raising the stored one would give it frames
    that hold enum."""
    witness, worst, failure, _ = enum.event_pass(mask)
    if failure is not None:
        raise type(failure)(*failure.args)
    return witness, worst


def check_conditionable_on_event(
    t: PreferenceFunctional, event: EventSet
) -> AuditReport:
    """Search for a two-level act matching the functional on the algebra
    generated by one event."""
    # caps, then the space, then the g^n evaluations of the enumeration
    _enforce_caps(t)
    _require_same_space(t.space, event.space)
    enum = _GridEnumeration(t)
    mask = sum(1 << i for i in event.members)
    witness, worst = _conditionable(enum, mask)
    return _report(
        t,
        "conditionable",
        witness,
        {"event": sorted(event.members), "worst_residual": worst},
    )


def check_conditionable_all_events(t: PreferenceFunctional) -> AuditReport:
    """Conditionability on the algebra of every single event of the space,
    events in ascending bitmask order over one enumeration."""
    return _conditionable_all(_GridEnumeration(t))


def _conditionable_all(enum: _GridEnumeration) -> AuditReport:
    """:func:`check_conditionable_all_events` over a built enumeration."""
    witness = None
    worst = 0.0
    for mask in range(len(enum.events)):
        found, resid = _conditionable(enum, mask)
        worst = max(worst, resid)
        if witness is None:
            witness = found
    return _report(enum.t, "conditionable", witness, {"worst_residual": worst})


def equivalence_harness(t: PreferenceFunctional) -> AuditReport:
    """Run the sure-thing and conditionability audits and compare verdicts.

    The two verdicts must agree for every functional; disagreement is a
    harness-level failure (it would falsify the implementation, not the
    equivalence itself); both searches share one enumeration and its solves.
    """
    if t.additive:
        spot_check_additivity(t)
    return _harness(_GridEnumeration(t))


def _harness(enum: _GridEnumeration) -> AuditReport:
    """:func:`equivalence_harness` over a built enumeration, after the
    additivity spot check."""
    t = enum.t
    st = _sure_thing(enum).check("sure-thing")
    cond = _conditionable_all(enum).check("conditionable")
    agree = st.passed == cond.passed
    return AuditReport(
        subject=t.name or "functional",
        checks=(
            st,
            cond,
            CheckResult(
                name="verdict-agreement",
                passed=agree,
                details={
                    "sure_thing": st.passed,
                    "conditionable": cond.passed,
                },
            ),
        ),
    )


def _monotonicity_and_harness(
    t: PreferenceFunctional,
) -> tuple[AuditReport, AuditReport]:
    """:func:`check_strict_monotonicity` then :func:`equivalence_harness`
    over one enumeration, as ``chisini audit`` runs them: the same reports,
    errors and evaluation order, without the second enumeration's g^n
    evaluator calls."""
    _require_grid_pair(t)
    enum = _GridEnumeration(t)
    monotone = _strict_monotonicity(enum)
    if t.additive:
        spot_check_additivity(t)
    return monotone, _harness(enum)


def expected_utility_functional(
    rep: AdditiveRepresentation,
    grid: tuple[float, ...] = (-1.0, 0.0, 1.0),
    name: str = "expected-utility",
) -> PreferenceFunctional:
    """The functional ``rep.evaluate``, marked ``monotone`` when every curve
    passes ``_float_monotone``: a masked act's value is then a left-to-right
    sum of p * u(x) terms, nondecreasing in floats, and the mark carries
    their term table, whose masked sum the constant solves search in place
    of the evaluator, on its slopes."""
    t = PreferenceFunctional(
        space=rep.space,
        evaluator=rep.evaluate,
        additive=True,
        grid=grid,
        name=name,
    )
    curves = rep.utility.curves
    if all(map(_float_monotone, curves)):
        object.__setattr__(t, "monotone", True)
        object.__setattr__(t, "_terms", tuple(map(_term, rep.space.weights, curves)))
    return t


def choquet_functional(
    space: FiniteSpace,
    capacity_exponent: float,
    grid: tuple[float, ...] = (-1.0, 0.0, 1.0),
    name: str = "",
) -> PreferenceFunctional:
    """Choquet integral against the distorted capacity P(A)**exponent.

    Exponent 1 recovers plain expectation; any other exponent makes the
    functional rank-dependent and, in general, breaks the sure-thing
    principle because the complementary payoff affects the ranking.

    The capacity row nu_k = P(top k outcomes)**exponent of a rank order is
    computed in Python, behind an LRU cache that holds every rank order at
    the outcome cap: the weights' running sum in rank order, left to right
    as ``np.cumsum`` adds, raised to the exponent by :func:`_scalar_power`,
    the floats of numpy's ``**`` on its path without AVX-512, on which
    every audit digest holds.  Each act's sum runs in Python too, as
    ``np.sum`` adds (:func:`chisini.curves._pairwise_sum`: left to right
    below 8 terms, pairwise from 8 on), so the functional loads no numpy.
    The functional's ``_choquet`` mark is that cache, from whose
    rows the constant solves read t(x * 1_A) in closed form: x * nu_{n-1}
    on the whole space, and on a proper event the one rounded product
    x * c_A at x >= 0, nondecreasing in floats, and
    fl(fl(x * N) + fl((0 - x) * C)) below 0.
    """
    weights = space.weights
    ranks = range(space.size)

    @lru_cache(CAPACITY_ROWS)
    def capacity_row(order: tuple[int, ...]) -> list[float]:
        sums = accumulate(weights[i] for i in order)
        return [_scalar_power(s, capacity_exponent) for s in sums]

    def evaluate(f: Act) -> float:
        values = f.values
        # a stable sort, ties in outcome order, as np.argsort(-values, kind="stable")
        order = tuple(sorted(ranks, key=values.__getitem__, reverse=True))
        nu = capacity_row(order)
        v = [values[i] for i in order]
        terms = [(v[k] - v[k + 1]) * nu[k] for k in range(len(v) - 1)]
        # np.sum adds pairwise from 8 terms on, and left to right below,
        # where one call is cheaper than _pairwise_sum's two
        if len(terms) < 8:
            return v[-1] * nu[-1] + _lsum(terms)
        return v[-1] * nu[-1] + _pairwise_sum(terms)

    t = PreferenceFunctional(
        space=space,
        evaluator=evaluate,
        additive=False,
        grid=grid,
        name=name or f"choquet-p{capacity_exponent:g}",
    )
    object.__setattr__(t, "_choquet", capacity_row)
    return t


def _scalar_power(s: float, p: float) -> float:
    """numpy's float64 ``s ** p`` for a scalar exponent p, on its path
    without AVX-512, for s >= 0: ``np.square`` at p = 2, ``np.sqrt`` at
    p = 0.5 and ``np.reciprocal`` at p = -1, which numpy takes in place of
    its power, and libm's ``pow`` otherwise, with numpy's values where
    ``math.pow`` raises: 0 ** -p is infinite, and so is an overflow."""
    if p == 2.0:
        return s * s
    if p == 0.5:
        return math.sqrt(s)
    if p == -1.0:
        return 1.0 / s if s else math.copysign(math.inf, s)
    try:
        return math.pow(s, p)
    except OverflowError:
        return math.inf
    except ValueError:  # a zero to a negative power, signed as 0 ** |p|
        return math.copysign(math.inf, math.pow(s, -p))


def grid_table_functional(
    space: FiniteSpace,
    grid: tuple[float, ...],
    table: list[float],
    name: str = "grid-table",
) -> PreferenceFunctional:
    """A functional defined by its values on all grid acts (lexicographic
    order) and nearest-grid rounding for off-grid coordinates."""
    grid = tuple(sorted(float(g) for g in grid))
    n = space.size
    if len(table) != len(grid) ** n:
        raise ValueError(
            f"table needs {len(grid) ** n} entries, got {len(table)}"
        )

    def evaluate(f: Act) -> float:
        idx = 0
        for v in f.values:
            # the nearest grid value; the first of two equally near
            d = min(range(len(grid)), key=lambda d: abs(grid[d] - v))
            idx = idx * len(grid) + d
        return float(table[idx])

    return PreferenceFunctional(
        space=space, evaluator=evaluate, additive=False, grid=grid, name=name
    )
