"""Tests for the preference-functional audits: strict monotonicity, the
sure-thing principle, conditionability and the equivalence harness."""

import dataclasses
import gc
import math
import random
import sys
import weakref
from collections import Counter
from itertools import permutations, product

import numpy as np
import pytest

from chisini import (
    Act,
    AdditiveRepresentation,
    EventSet,
    ExponentialCurve,
    FiniteSpace,
    LinearCurve,
    MixtureCurve,
    PiecewiseLinearCurve,
    PowerCurve,
    PreferenceFunctional,
    StateUtility,
    check_conditionable_all_events,
    check_conditionable_on_event,
    check_strict_monotonicity,
    check_sure_thing,
    choquet_functional,
    equivalence_harness,
    expected_utility_functional,
    grid_table_functional,
)
from chisini import audit
from chisini.audit import spot_check_additivity
from chisini.curves import _newton, bisect_increasing
from chisini.errors import (
    AdditivityCheckFailed,
    BisectionBracketFailure,
    ChisiniError,
    ComplexityCapExceeded,
    NumericRangeError,
    SpaceMismatchError,
)
from hexfloats import float_hex, normalized


def uniform3():
    return FiniteSpace.uniform(["a", "b", "c"])


def eu(space, curve, grid=(-1.0, 0.0, 1.0), name="eu"):
    rep = AdditiveRepresentation(StateUtility.state_independent(space, curve))
    return expected_utility_functional(rep, grid, name=name)


def numpy_choquet(weights, capacity_exponent):
    """The Choquet integral against P(A)**exponent as one numpy expression
    per act: the oracle of ``choquet_functional``'s evaluator."""
    weights = np.asarray(weights, dtype=float)

    def evaluate(vals):
        values = np.asarray(vals, dtype=float)
        order = np.argsort(-values, kind="stable")
        sorted_vals = values[order]
        cum = np.cumsum(weights[order])
        nu = cum ** capacity_exponent
        total = sorted_vals[-1] * nu[-1]
        total += float(np.sum((sorted_vals[:-1] - sorted_vals[1:]) * nu[:-1]))
        return float(total)

    return evaluate


def mean_variance_functional():
    sp = FiniteSpace.uniform(["a", "b"])
    w = np.asarray(sp.weights, dtype=float)

    def mean_var(act):
        v = np.asarray(act.values)
        mean = float(w @ v)
        return mean - (float(w @ (v * v)) - mean * mean)

    return PreferenceFunctional(
        space=sp, evaluator=mean_var, grid=(0.0, 1.0, 5.0), name="mean-var"
    )


#: evaluators on 2 uniform outcomes over grid (0, 1) that return NaN
NAN_EVALUATORS = {
    "nan-everywhere": lambda act: float("nan"),
    "nan-at-top": lambda act: (
        float("nan") if act.values == (1.0, 1.0) else sum(act.values)
    ),
}


def nan_functional(name):
    sp = FiniteSpace.uniform(["a", "b"])
    return PreferenceFunctional(
        space=sp, evaluator=NAN_EVALUATORS[name], grid=(0.0, 1.0), name=name
    )


class TestStrictMonotonicity:
    def test_expected_utility_passes(self):
        report = check_strict_monotonicity(eu(uniform3(), ExponentialCurve(1.0)))
        assert report.passed

    def test_mean_variance_fails(self):
        t = mean_variance_functional()
        sp = t.space
        report = check_strict_monotonicity(t)
        check = report.check("strict-monotonicity")
        assert not check.passed
        w_ = check.witness
        # the witness re-evaluates to a genuine order reversal
        ev = set(w_["event"])
        back = w_["background"]
        act_x = Act(sp, tuple(w_["x"] if i in ev else back[i] for i in range(2)))
        act_y = Act(sp, tuple(w_["y"] if i in ev else back[i] for i in range(2)))
        assert t(act_x) <= t(act_y)
        assert w_["x"] > w_["y"]

    def test_max_coordinate_fails_strictness(self):
        t = PreferenceFunctional(
            space=uniform3(),
            evaluator=lambda act: max(act.values),
            grid=(-1.0, 0.0, 1.0),
            name="max",
        )
        report = check_strict_monotonicity(t)
        assert not report.passed

    @pytest.mark.parametrize("name", list(NAN_EVALUATORS))
    def test_nan_value_fails(self, name):
        check = check_strict_monotonicity(nan_functional(name)).check(
            "strict-monotonicity"
        )
        assert not check.passed
        w_ = check.witness
        assert (w_["event"], w_["x"], w_["y"]) == ([0], 1.0, 0.0)
        assert np.isnan(w_["value_x"])

    def test_null_events_are_skipped(self):
        sp = FiniteSpace(("a", "b"), (1.0, 0.0))
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, LinearCurve())
        )
        # raising the null coordinate never helps, but that is not a failure
        report = check_strict_monotonicity(
            expected_utility_functional(rep, (-1.0, 0.0, 1.0))
        )
        assert report.passed


class TestSureThing:
    def test_expected_utility_passes(self):
        report = check_sure_thing(eu(uniform3(), PowerCurve(3.0), (0.0, 1.0, 2.0)))
        check = report.check("sure-thing")
        assert check.passed
        assert check.details["witness_phase"] == "none"

    def test_choquet_fails_with_valid_witness(self):
        sp = uniform3()
        choquet_t = choquet_functional(sp, 2.0, (0.0, 1.0, 2.0))
        calls = []

        def counted(act):
            calls.append(act)
            return choquet_t.evaluator(act)

        t = dataclasses.replace(choquet_t, evaluator=counted)
        report = check_sure_thing(t)
        check = report.check("sure-thing")
        assert not check.passed
        # the bracket endpoints of the constant solves build this witness
        assert check.details["witness_phase"] == "certainty-equivalent"
        # the witness search reads each two-level and pasted act once
        assert len(calls) == 741
        w = check.witness
        assert w["margin"] > 1e-9
        # independent re-evaluation by direct Choquet sums
        ev = set(w["event"])

        def pasted(x, h):
            return [x[i] if i in ev else h[i] for i in range(3)]

        choquet = numpy_choquet(sp.weights, 2.0)
        t1 = choquet(pasted(w["f"], w["h"]))
        t2 = choquet(pasted(w["g"], w["h"]))
        t3 = choquet(pasted(w["f"], w["h_alt"]))
        t4 = choquet(pasted(w["g"], w["h_alt"]))
        assert t1 >= t2
        assert t4 - t3 > 1e-9
        assert [t1, t2, t3, t4] == pytest.approx(w["values"], abs=1e-14)

    def test_single_value_grid_passes_vacuously(self):
        t = PreferenceFunctional(
            space=uniform3(),
            evaluator=lambda act: sum(act.values),
            grid=(1.0,),
        )
        assert check_sure_thing(t).passed

    def test_grid_witness_found_when_one_exists(self):
        # a 4-value grid admits a pure grid witness for the same capacity
        sp = uniform3()
        t = choquet_functional(sp, 2.0, (0.0, 1.0, 2.0, 3.0))
        check = check_sure_thing(t).check("sure-thing")
        assert not check.passed
        assert check.details["witness_phase"] == "grid"

    def test_monotone_transform_of_additive_passes(self):
        sp = uniform3()
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, ExponentialCurve(1.0))
        )
        t = PreferenceFunctional(
            space=sp,
            evaluator=lambda act: np.tanh(rep.evaluate(act)),
            grid=(0.0, 1.0, 2.0),
            name="tanh-of-eu",
        )
        assert check_sure_thing(t).passed


def capacity_rows(t):
    """The capacity-row cache of a Choquet functional's evaluator."""
    (rows,) = [
        cell.cell_contents
        for cell in t.evaluator.__closure__
        if hasattr(cell.cell_contents, "cache_info")
    ]
    return rows


class TestChoquetEvaluator:
    """The evaluator sorts in Python, reads one capacity row per rank order
    and sums left to right; the numpy expression is its oracle, float for
    float, on both sides of np.sum's 8-term pairwise threshold."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_numpy_oracle(self, n):
        rng = np.random.default_rng(n)
        # skewed weights; every third outcome, the first included, is null
        raw = [0.0 if i % 3 == 0 and n > 1 else rng.random() ** 3 for i in range(n)]
        sp = FiniteSpace([f"w{i}" for i in range(n)], [r / sum(raw) for r in raw])
        draws = (
            lambda: rng.choice([-1.0, 0.0, -0.0, 1.0, 2.0], size=n),
            lambda: rng.uniform(-50.0, 50.0, size=n),
            lambda: rng.uniform(-1e-3, 1e-3, size=n),
        )
        for p in (0.5, 1.0, 2.0, 3.7):
            t = choquet_functional(sp, p)
            oracle = numpy_choquet(sp.weights, p)
            for draw in draws:
                for _ in range(100):
                    values = draw().tolist()
                    got = t(Act(sp, values))
                    assert float_hex(got) == float_hex(oracle(values)), values

    def test_one_capacity_row_per_rank_order(self, monkeypatch):
        fills = []
        cumsum = np.cumsum

        def counting(*args, **kwargs):
            fills.append(args)
            return cumsum(*args, **kwargs)

        monkeypatch.setattr(np, "cumsum", counting)
        sp = uniform3()
        t = choquet_functional(sp, 2.0)
        t(Act(sp, (3.0, 1.0, 2.0)))
        t(Act(sp, (30.0, -1.0, 0.5)))
        assert len(fills) == 1
        t(Act(sp, (1.0, 3.0, 2.0)))
        assert len(fills) == 2
        info = capacity_rows(t).cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)

    def test_memo_holds_at_most_every_order_at_the_cap(self):
        assert audit.CAPACITY_ROWS == 720
        sp = FiniteSpace.uniform([f"w{i}" for i in range(audit.MAX_OUTCOMES + 1)])
        t = choquet_functional(sp, 2.0)
        oracle = numpy_choquet(sp.weights, 2.0)
        rows = capacity_rows(t)
        peak = 0
        for perm in permutations(range(sp.size)):
            values = [float(v) for v in perm]
            assert float_hex(t(Act(sp, values))) == float_hex(oracle(values))
            peak = max(peak, rows.cache_info().currsize)
        assert peak == audit.CAPACITY_ROWS
        assert rows.cache_info().misses == 5040  # each of the 7! orders fills once


def grid_values(t):
    """Every grid act's value tuple, in lexicographic order, and a dict from
    each tuple to the functional's value on it."""
    acts = list(product(t.grid, repeat=t.space.size))
    return acts, {a: t(Act(t.space, a)) for a in acts}


def brute_force_sure_thing(t):
    """The sure-thing audit with its grid phase as a loop over every ordered
    (f, g) pair of grid acts.  Each pasted act's value is looked up by its
    value tuple, and (h, h_alt, event) comes from a plain lexicographic
    loop; the certainty-equivalent phase is the audit's own."""
    n = t.space.size
    acts, value = grid_values(t)
    events = [{i for i in range(n) if mask >> i & 1} for mask in range(1 << n)]
    # pasted[e, f, h]: the act that is acts[f] on events[e], acts[h] off it
    pasted = np.array(
        [
            [
                [value[tuple(f[i] if i in e else h[i] for i in range(n))] for h in acts]
                for f in acts
            ]
            for e in events
        ]
    )
    witness = None
    for fi, gi in permutations(range(len(acts)), 2):
        diff = pasted[:, fi] - pasted[:, gi]
        premise = diff >= 0.0
        violation = diff < -audit.WITNESS_MARGIN
        if not (premise.any(axis=1) & violation.any(axis=1)).any():
            continue
        hi, hj, e = next(
            (h, h_alt, e)
            for h in range(len(acts))
            for h_alt in range(len(acts))
            for e in range(len(events))
            if premise[e, h] and violation[e, h_alt]
        )
        witness = audit.Witness(
            f=acts[fi],
            g=acts[gi],
            h=acts[hi],
            h_alt=acts[hj],
            event=tuple(sorted(events[e])),
            values=tuple(
                float(pasted[e, i, j])
                for i, j in ((fi, hi), (gi, hi), (fi, hj), (gi, hj))
            ),
            margin=float(-diff[e, hj]),
        )
        break
    phase = "grid"
    if witness is None:
        witness = audit._certainty_equivalent_witness(audit._GridEnumeration(t))
        phase = "certainty-equivalent" if witness is not None else "none"
    return audit._report(
        t,
        "sure-thing",
        witness.to_dict() if witness else None,
        {"acts": len(acts), "events": len(events), "witness_phase": phase},
    )


def brute_force_strict_monotonicity(t):
    """The monotonicity audit as a loop over every background act: each
    non-null event in ascending bitmask order, each grid pair x > y (x
    descending, then y ascending), each background in lexicographic order,
    with values looked up by value tuple."""
    n = t.space.size
    acts, value = grid_values(t)
    witness = None
    checked = 0
    for mask in range(1, 1 << n):
        event = [i for i in range(n) if mask >> i & 1]
        if t.space.probability(event) == 0.0:
            continue
        for xi in range(len(t.grid) - 1, -1, -1):
            for yi in range(xi):
                x, y = t.grid[xi], t.grid[yi]
                for b in acts:
                    vx = value[tuple(x if i in event else b[i] for i in range(n))]
                    vy = value[tuple(y if i in event else b[i] for i in range(n))]
                    checked += 1
                    if not vx > vy and witness is None:
                        witness = {
                            "event": event,
                            "x": x,
                            "y": y,
                            "background": list(b),
                            "value_x": vx,
                            "value_y": vy,
                        }
        if witness is not None:
            break
    return audit._report(t, "strict-monotonicity", witness, {"comparisons": checked})


def sure_thing_outcome(audit_fn, t):
    """The report as a dict, or the bracket failure's type and message."""
    try:
        return audit_fn(t).to_dict()
    except BisectionBracketFailure as exc:
        return type(exc).__name__, str(exc)


def random_grid_table(seed, n, g, bump=None):
    """A grid-table functional on n uniform outcomes and grid 0..g-1.

    Without ``bump``: integers 0..3, so many diffs are exactly 0 and the
    first flip comes early.  With it: a sum of per-outcome nondecreasing
    integer steps, which has no grid flip and many exact ties, with one
    entry in the second half of the table moved by ``bump``, so a flip, if
    any, sits late in the enumeration (and on the margin's edge when the
    bump is near it).
    """
    rng = np.random.default_rng(seed)
    space = FiniteSpace.uniform([f"w{i}" for i in range(n)])
    grid = tuple(float(v) for v in range(g))
    if bump is None:
        table = rng.integers(0, 4, size=g**n).astype(float)
    else:
        steps = np.cumsum(rng.integers(0, 2, size=(n, g)), axis=1)
        digits = np.indices((g,) * n)
        table = sum(steps[i][digits[i]] for i in range(n)).ravel().astype(float)
        table[rng.integers(g**n // 2, g**n)] += bump
    return grid_table_functional(
        space, grid, [float(v) for v in table], _table_name(seed, n, g, bump)
    )


def _table_name(seed, n, g, bump, *_):
    return f"table-{n}x{g}-{seed}-{'ties' if bump is None else f'{bump:g}'}"


def _zoo_functionals():
    from test_acceptance import _zoo

    space = FiniteSpace.uniform(["low", "mid", "high"])
    return [t for t, _ in _zoo(space, (0.0, 1.0, 2.0))]


def _choquet_functionals():
    grid3, grid4 = (0.0, 1.0, 2.0), (0.0, 1.0, 2.0, 3.0)
    sp = uniform3()
    return [
        choquet_functional(sp, p, grid, name=f"choquet-p{p:g}-g{len(grid)}")
        for p, grid in ((0.5, grid3), (1.0, grid3), (2.0, grid3),
                        (0.5, grid4), (2.0, grid4))
    ]


def _null_outcome_functionals():
    return [
        eu(FiniteSpace(("a", "b", "c"), (0.5, 0.5, 0.0)), PowerCurve(3.0),
           (0.0, 1.0, 2.0), name="eu-null-3"),
        eu(FiniteSpace(("a", "b", "c", "d"), (0.0, 0.25, 0.0, 0.75)),
           ExponentialCurve(1.0), (0.0, 1.0), name="eu-null-4"),
    ]


MARGIN = audit.WITNESS_MARGIN
#: (seed, outcomes, grid values, bump, sure-thing phase); the bumps below
#: the margin leave the table without a grid flip
RANDOM_TABLES = [
    (0, 2, 3, None, "grid"),
    (1, 2, 3, 0.0, "none"),
    (2, 2, 3, 0.5 * MARGIN, "none"),
    (3, 2, 3, -2.0 * MARGIN, "grid"),
    (4, 3, 3, None, "grid"),
    (5, 3, 3, 0.0, "none"),
    (6, 3, 3, 0.7, "grid"),
    (7, 3, 3, -0.9 * MARGIN, "none"),
    (8, 3, 3, 1.1 * MARGIN, "grid"),
    (9, 3, 4, None, "grid"),
    (10, 3, 4, -0.7, "grid"),
    (11, 3, 4, 2.0 * MARGIN, "grid"),
    (12, 4, 3, None, "grid"),
    (13, 4, 3, 1.3, "grid"),
    (14, 4, 3, -2.0 * MARGIN, "grid"),
]


class TestSureThingOracle:
    """The grid phase picks the pair the pairwise loop finds first, so the
    whole report equals the loop's, witness floats included."""

    @pytest.mark.parametrize(
        "t",
        _zoo_functionals() + _choquet_functionals() + _null_outcome_functionals(),
        ids=lambda t: t.name,
    )
    def test_matches_pairwise_loop(self, t):
        expected = sure_thing_outcome(brute_force_sure_thing, t)
        assert sure_thing_outcome(check_sure_thing, t) == expected

    @pytest.mark.parametrize(
        "seed, n, g, bump, phase",
        RANDOM_TABLES,
        ids=[_table_name(*spec) for spec in RANDOM_TABLES],
    )
    def test_random_table_matches_pairwise_loop(self, seed, n, g, bump, phase):
        t = random_grid_table(seed, n, g, bump)
        expected = sure_thing_outcome(brute_force_sure_thing, t)
        report = sure_thing_outcome(check_sure_thing, t)
        assert report == expected
        assert report["checks"][0]["details"]["witness_phase"] == phase

    def test_late_first_pair_is_found(self):
        # every pair with f = (0, 0, 0) is clean, so the hit is not the first
        t = random_grid_table(10, 3, 4, -0.7)
        witness = check_sure_thing(t).check("sure-thing").witness
        assert witness["f"] != [0.0, 0.0, 0.0]


def _non_monotone_functionals():
    return [
        nan_functional(name) for name in NAN_EVALUATORS
    ] + [
        mean_variance_functional(),
        PreferenceFunctional(
            space=uniform3(),
            evaluator=lambda act: max(act.values),
            grid=(-1.0, 0.0, 1.0),
            name="max",
        ),
        PreferenceFunctional(
            space=FiniteSpace.uniform(["a", "b"]),
            evaluator=lambda act: -sum(act.values),
            grid=(0.0, 1.0, 2.0),
            name="decreasing",
        ),
    ]


class TestStrictMonotonicityOracle:
    """Comparing two constant columns of each event's table gives the
    report the loop over every background act gives, witness floats (and
    NaNs, compared as float-hex) included."""

    @staticmethod
    def assert_matches(t):
        expected = float_hex(brute_force_strict_monotonicity(t).to_dict())
        assert float_hex(check_strict_monotonicity(t).to_dict()) == expected

    @pytest.mark.parametrize(
        "t",
        _zoo_functionals()
        + _choquet_functionals()
        + _null_outcome_functionals()
        + _non_monotone_functionals(),
        ids=lambda t: t.name,
    )
    def test_matches_background_loop(self, t):
        self.assert_matches(t)

    @pytest.mark.parametrize(
        "seed, n, g, bump, phase",
        RANDOM_TABLES,
        ids=[_table_name(*spec) for spec in RANDOM_TABLES],
    )
    def test_random_table_matches_background_loop(self, seed, n, g, bump, phase):
        self.assert_matches(random_grid_table(seed, n, g, bump))


class TestConditionable:
    def test_expected_utility_passes_every_event(self):
        t = eu(uniform3(), ExponentialCurve(0.5), (0.0, 1.0, 2.0))
        report = check_conditionable_all_events(t)
        assert report.passed
        assert report.check("conditionable").details["worst_residual"] < 1e-10

    def test_choquet_fails_full_equation(self):
        sp = uniform3()
        t = choquet_functional(sp, 2.0, (0.0, 1.0, 2.0))
        report = check_conditionable_all_events(t)
        check = report.check("conditionable")
        assert not check.passed
        w = check.witness
        assert w["residuals"]["full"] > w["tolerance"]
        # the masked equations hold; only the whole-space one breaks
        assert w["residuals"]["event"] < 1e-10
        assert w["residuals"]["complement"] < 1e-10

    def test_null_event_passes(self):
        sp = FiniteSpace(("a", "b", "c"), (0.5, 0.5, 0.0))
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, PowerCurve(3.0))
        )
        t = expected_utility_functional(rep, (0.0, 1.0))
        report = check_conditionable_on_event(
            t, EventSet.from_labels(sp, ["c"])
        )
        assert report.passed

    def test_sm_violation_surfaces_as_bracket_failure(self):
        sp = FiniteSpace.uniform(["a", "b"])
        t = PreferenceFunctional(
            space=sp,
            evaluator=lambda act: -sum(act.values),  # decreasing
            grid=(0.0, 1.0),
        )
        with pytest.raises(BisectionBracketFailure):
            check_conditionable_on_event(t, EventSet.from_labels(sp, ["a"]))

    def test_event_on_another_space_is_rejected(self):
        t = eu(uniform3(), LinearCurve(), (0.0, 1.0))
        other = FiniteSpace.uniform(["x", "y", "z"])
        with pytest.raises(SpaceMismatchError):
            check_conditionable_on_event(t, EventSet.full(other))

    def test_space_is_checked_before_any_evaluation(self):
        calls = []
        t = PreferenceFunctional(
            space=uniform3(), evaluator=lambda f: calls.append(f) or 0.0
        )
        other = FiniteSpace.uniform(["x", "y", "z"])
        with pytest.raises(SpaceMismatchError):
            check_conditionable_on_event(t, EventSet.full(other))
        assert calls == []
        # the caps come first
        wide = dataclasses.replace(t, grid=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0))
        with pytest.raises(ComplexityCapExceeded):
            check_conditionable_on_event(wide, EventSet.full(other))
        assert calls == []

    def test_all_events_raises_the_first_bracket_failure(self):
        sp = FiniteSpace.uniform(["a", "b"])
        t = grid_table_functional(sp, (0.0, 1.0), [3.0, 2.0, 1.0, 0.0])
        with pytest.raises(BisectionBracketFailure) as first:
            check_conditionable_on_event(t, EventSet.empty(sp))
        with pytest.raises(BisectionBracketFailure) as every:
            check_conditionable_all_events(t)
        assert str(every.value) == str(first.value)

    @pytest.mark.parametrize(
        "t",
        [
            eu(uniform3(), ExponentialCurve(0.5), (0.0, 1.0, 2.0)),
            choquet_functional(uniform3(), 2.0, (0.0, 1.0, 2.0)),
            # T(1, 1) = 0.5 < T(1, 0) = 1: not monotone, yet every masked
            # map brackets its target
            grid_table_functional(
                FiniteSpace.uniform(["a", "b"]),
                (0.0, 1.0, 2.0),
                [0.0, 2.0, 4.0, 1.0, 0.5, 5.0, 2.0, 4.0, 6.0],
            ),
        ],
        ids=["eu", "choquet", "dip-table"],
    )
    def test_all_events_is_the_fold_of_single_events(self, t):
        n = t.space.size
        witness = None
        worst = 0.0
        for mask in range(1 << n):
            event = EventSet(t.space, {i for i in range(n) if mask >> i & 1})
            check = check_conditionable_on_event(t, event).check("conditionable")
            worst = max(worst, check.details["worst_residual"])
            if witness is None and not check.passed:
                witness = check.witness
        check = check_conditionable_all_events(t).check("conditionable")
        assert check.passed == (witness is None)
        assert check.witness == witness
        assert check.details == {"worst_residual": worst}

    def test_each_solve_key_is_bisected_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return bisect_increasing(*args)

        monkeypatch.setattr("chisini.audit.bisect_increasing", counted)
        t = eu(uniform3(), ExponentialCurve(0.5), (0.0, 1.0, 2.0))
        acts = list(product(t.grid, repeat=3))

        def keys(masks):
            # a solve reads f only through f * 1_A and sup|f|
            return {
                (mask, tuple(v if mask >> i & 1 else 0.0 for i, v in enumerate(f)),
                 max(map(abs, f)))
                for mask in masks
                for f in acts
            }

        check_conditionable_all_events(t)
        # the 7 nonempty events (the empty event's map is flat and needs
        # no bisection): 87 keys among 7 * 27 (event, act) pairs
        assert len(calls) == len(keys(range(1, 8))) == 87
        calls.clear()
        check_sure_thing(t)
        # the certainty-equivalent phase covers the 6 proper events
        assert len(calls) == len(keys(range(1, 7))) == 60
        calls.clear()
        equivalence_harness(t)
        # one enumeration: conditionability reuses sure-thing's 60 solves,
        # where two enumerations would make 60 + 87
        assert len(calls) == len(keys(range(1, 8))) == 87


def _oracle_functionals():
    return [
        eu(uniform3(), ExponentialCurve(0.5), (0.0, 1.0, 2.0), name="eu"),
        _null_outcome_functionals()[0],
        choquet_functional(uniform3(), 2.0, (0.0, 1.0, 2.0)),
        random_grid_table(4, 3, 3),  # not monotone: some brackets fail
    ]


def _outcome(solve, *args):
    """A solve's floats in float-hex form, or its bracket failure's
    message."""
    try:
        return float_hex(solve(*args))
    except BisectionBracketFailure as exc:
        return str(exc)


class TestConstantSolveOracle:
    """The cached constant solve against an uncached solve of each pair."""

    @pytest.mark.parametrize("t", _oracle_functionals(), ids=lambda t: t.name)
    def test_memo_matches_direct_solve(self, t):
        enum = audit._GridEnumeration(t)
        pairs = len(enum.events) * enum.count
        failures = 0
        for mask in range(len(enum.events)):
            for ai, f in enumerate(enum.acts):
                on = tuple(v for i, v in enumerate(f.values) if mask >> i & 1)
                sup = max(map(abs, f.values))
                direct = _outcome(audit._solve_constant, t, mask, on, sup)
                assert _outcome(enum.constant, mask, ai) == direct, (mask, ai)
                failures += isinstance(direct, str)
        assert enum._solve.cache_info().currsize < pairs
        if t.name.startswith("table"):
            assert 0 < failures < pairs

    def test_enumeration_is_freed_without_the_cycle_collector(self):
        enum = audit._GridEnumeration(random_grid_table(4, 3, 3))
        for mask in range(len(enum.events)):
            for ai in range(enum.count):
                try:
                    enum.constant(mask, ai)
                except BisectionBracketFailure:
                    pass
        freed = weakref.ref(enum)
        gc.disable()
        try:
            del enum  # reference counting alone must free it
            assert freed() is None
        finally:
            gc.enable()


def _marked_functional(rng):
    """A random expected-utility functional over 1-6 outcomes, some of zero
    weight, whose curves are all regular exponential (gamma of either sign,
    up to 10, so that gamma * x reaches about 40 in a bracket), power or
    linear curves."""
    n = rng.randint(1, 6)
    weights = [0.0 if rng.random() < 0.2 else rng.random() for _ in range(n)]
    weights[rng.randrange(n)] = rng.uniform(0.1, 1.0)
    space = FiniteSpace(tuple(f"w{i}" for i in range(n)), normalized(weights))

    def curve():
        kind = rng.randrange(3)
        if kind == 0:
            return ExponentialCurve(rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 10.0))
        if kind == 1:
            return PowerCurve(rng.uniform(0.2, 4.0))
        return LinearCurve(rng.uniform(0.1, 5.0))

    rep = AdditiveRepresentation(StateUtility(space, tuple(curve() for _ in range(n))))
    return expected_utility_functional(rep, name="random-eu")


def _solve_key(rng, t):
    """A random (mask, values on A, sup) key: values from +-3, +-0.0 and
    subnormals, so that targets are subnormal or signed zeros too, and one
    key in 20 with sup|f| below the values, whose bracket may fail."""
    n = t.space.size
    mask = rng.randrange(1 << n)
    special = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310)
    on = tuple(
        rng.choice(special) if rng.random() < 0.3 else rng.uniform(-3.0, 3.0)
        for i in range(n)
        if mask >> i & 1
    )
    if rng.random() < 0.05:
        return mask, on, rng.uniform(0.0, 0.5)
    return mask, on, max([abs(v) for v in on] + [rng.uniform(0.0, 3.0)])


class TestGuidedConstantSolve:
    """A ``monotone`` functional's constant solves skip the probes the
    Newton guide's pair decides; their floats and errors are the plain
    loop's."""

    def test_guided_matches_the_plain_loop(self, monkeypatch):
        guides = []

        def counted(*args):
            guides.append(args[1])
            return _newton(*args)

        monkeypatch.setattr(audit, "_newton", counted)
        rng = random.Random(24)
        differ, flat, raised, cases = [], 0, 0, 0
        while cases < 10_000:
            t = _marked_functional(rng)
            assert t.monotone
            plain = dataclasses.replace(t)
            assert not plain.monotone
            for _ in range(10):
                key = _solve_key(rng, t)
                got = _outcome(audit._solve_constant, t, *key)
                want = _outcome(audit._solve_constant, plain, *key)
                if got != want:
                    differ.append((t, key, got, want))
                cases += 1
                raised += isinstance(want, str)
                flat += isinstance(want, list) and want[1] == want[2]
        assert differ == []
        assert len(guides) > 7_000
        assert sum(target == 0.0 for target in guides) > 100
        assert sum(0.0 < abs(x) < sys.float_info.min for x in guides) > 100
        assert 100 < raised < 1_000
        assert flat > 100

    def test_guide_cuts_the_probes(self, monkeypatch):
        # evaluator calls of a whole harness: counts repeat exactly, and
        # they rise to the plain loop's if the guide silently falls back
        calls = []
        evaluate = AdditiveRepresentation.evaluate

        def counted(self, f):
            calls.append(f)
            return evaluate(self, f)

        monkeypatch.setattr(AdditiveRepresentation, "evaluate", counted)
        t = eu(uniform3(), ExponentialCurve(0.5), (0.0, 1.0, 2.0))
        guided = equivalence_harness(t)
        assert len(calls) == 1314
        calls.clear()
        plain = equivalence_harness(dataclasses.replace(t))
        assert len(calls) == 4562
        assert guided.to_dict() == plain.to_dict()

    def test_choquet_matches_the_plain_loop(self, monkeypatch):
        # the Newton guides and the closed-form pair all reach bisection as
        # its known pair: record each bisection's target, or None if plain
        targets = []

        def counted(fn, target, lo, hi, known=None):
            targets.append(None if known is None else target)
            return bisect_increasing(fn, target, lo, hi, known)

        def run(t, key):
            before = len(targets)
            got = _outcome(audit._solve_constant, t, *key)
            guided = any(target is not None for target in targets[before:])
            want = _outcome(audit._solve_constant, dataclasses.replace(t), *key)
            if got != want:
                differ.append((t.space.weights, t.name, key, got, want))
            return guided, want

        monkeypatch.setattr(audit, "bisect_increasing", counted)
        rng = random.Random(26)
        differ, kinds, cases = [], Counter(), 0
        with np.errstate(divide="ignore", over="ignore"):  # 0 ** -p is inf
            while cases < 6_000:
                t = _random_choquet(rng)
                assert t._choquet and not dataclasses.replace(t)._choquet
                for _ in range(10):
                    key = _choquet_key(rng, t)
                    guided, want = run(t, key)
                    cases += 1
                    if isinstance(want, str):
                        kinds["raised"] += 1
                    elif want[1] == want[2]:
                        kinds["flat"] += 1
                    else:
                        whole = key[0] == (1 << t.space.size) - 1
                        kinds[guided, whole, float.fromhex(want[3]) >= 0.0] += 1
        # around the root's ulp neighbourhood, where the masked value below 0
        # is not monotone in floats: a pair at the root with no margin
        # changes floats here
        steps = Counter()
        for _ in range(20):
            t, mask = _wiggly_choquet(rng)
            v = -rng.uniform(1e4, 1e5)  # ulps wider than BISECT_TOL
            seen = []
            for j in range(25):
                x = v + j * math.ulp(v)
                guided, want = run(t, (mask, (x,) * bin(mask).count("1"), -x))
                steps["guided"] += guided
                seen.append(float.fromhex(want[3]))
            steps["down"] += sum(b < a for a, b in zip(seen, seen[1:]))
        assert differ == []
        assert sum(target == 0.0 for target in targets) > 300
        assert kinds["raised"] > 50 and kinds["flat"] > 100
        assert kinds[True, False, True] > 1_500 and kinds[True, True, True] > 300
        assert kinds[True, True, False] > 200
        assert kinds[True, False, False] > 1_000  # negative, proper: the pair
        # else plain only where t(hi * 1_A) <= target (c_A underflows to 0),
        # or where the margin or the N - C test refuses the pair
        assert kinds[False, True, False] + kinds[False, False, True] < 60
        assert kinds[False, False, False] < 10
        assert steps["guided"] > 400 and steps["down"] > 20, steps

    def test_choquet_guide_cuts_the_probes(self, monkeypatch):
        # a silent fallback to the plain loop raises the guided count
        calls = []
        call = PreferenceFunctional.__call__

        def counted(self, f):
            calls.append(f)
            return call(self, f)

        monkeypatch.setattr(PreferenceFunctional, "__call__", counted)
        t = choquet_functional(uniform3(), 2.0, (-1.0, 0.0, 1.0, 2.0))
        guided = equivalence_harness(t)
        assert len(calls) == 1621
        calls.clear()
        plain = equivalence_harness(dataclasses.replace(t))
        assert len(calls) == 8753
        assert guided.to_dict() == plain.to_dict()

    def test_bracket_beyond_half_the_float_range_is_refused(self):
        calls = []
        t = choquet_functional(uniform3(), 0.5)
        counted = dataclasses.replace(t, evaluator=lambda f: calls.append(f) or t(f))
        edge = 2.0 ** 1022  # hi = edge: lo + hi stays finite
        x, lo, hi, _, _ = audit._solve_constant(counted, 7, (edge,) * 3, edge)
        assert math.isfinite(x) and lo <= edge <= hi
        calls.clear()
        with pytest.raises(NumericRangeError, match="half the float range"):
            audit._solve_constant(counted, 7, (1e308,) * 3, 1e308)
        with pytest.raises(NumericRangeError):
            audit._solve_constant(counted, 1, (0.0,), 1e308)
        assert calls == []


def _random_choquet(rng):
    """A random Choquet functional over 1-6 outcomes: weights down to 1e-9
    and exact zeros, exponents 0, negative, tiny, large or uniform."""
    n = rng.randint(1, 6)
    weights = [rng.choice((0.0, 1e-9, 1e-6 * rng.random(), rng.random()))
               for _ in range(n)]
    weights[rng.randrange(n)] = rng.uniform(0.1, 1.0)
    space = FiniteSpace(tuple(f"w{i}" for i in range(n)), normalized(weights))
    exponent = rng.choice((0.0, -0.5, -2.0, 1e-3, 0.5, 1.0, 2.0, 7.0, 50.0,
                           rng.uniform(-1.0, 50.0)))
    return choquet_functional(space, exponent)


def _choquet_key(rng, t):
    """A random (mask, values on A, sup) key: values from +-0.0,
    subnormals, +-3, large magnitudes up to 1e5 and the grid -1, 0, 1, 2,
    and one key in 20 with sup|f| below the values, whose bracket fails."""
    n = t.space.size
    mask = rng.randrange(1 << n)
    pool = (0.0, -0.0, 5e-324, -1e-310, -1.0, 1.0, 2.0, 1e5, -1e5)
    values = [
        rng.choice(pool) if rng.random() < 0.4
        else rng.uniform(-3.0, 3.0) if rng.random() < 0.7
        else rng.uniform(-1e5, 1e5)
        for _ in range(n)
    ]
    on = tuple(v for i, v in enumerate(values) if mask >> i & 1)
    if rng.random() < 0.05:
        return mask, on, rng.uniform(0.0, 0.5)
    return mask, on, max(map(abs, values))


def _wiggly_choquet(rng):
    """A Choquet functional and a proper event A on which t(x * 1_A) is
    not monotone in floats below 0: an exponent near 1e15 takes N = nu(Omega)
    well off 1 when the weights' float sum in A's rank order is not 1.0,
    and an outcome of weight near 1e-16 puts C = nu(A^c) close to N."""
    while True:
        n = rng.randint(2, 4)
        weights = [rng.random() for _ in range(n)]
        weights[rng.randrange(n)] = rng.choice((5e-17, 1e-16, 2e-16, 3e-16))
        space = FiniteSpace(tuple(f"w{i}" for i in range(n)), normalized(weights))
        t = choquet_functional(space, rng.uniform(1e14, 4e15))
        mask = rng.randrange(1, (1 << n) - 1)
        bits = [mask >> i & 1 for i in range(n)]
        row = t._choquet(tuple(sorted(range(n), key=bits.__getitem__)))
        big, small = row[-1], row[n - sum(bits) - 1]
        if 0.2 < big < 5.0 and big != 1.0 and 0.0 < big - small < 0.5 * big:
            return t, mask


def _knot_curve():
    return PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-1.0, 0.0, 2.0), 1.0, 2.0)


class TestGuideRouting:
    """Only an expected-utility functional whose curves all pass
    ``_float_monotone`` is marked ``monotone``, and only a Choquet
    functional ``_choquet``; everything else runs the plain loop."""

    @pytest.mark.parametrize(
        "t",
        [
            random_grid_table(4, 3, 3),
            PreferenceFunctional(
                space=uniform3(),
                evaluator=AdditiveRepresentation(
                    StateUtility.state_independent(uniform3(), LinearCurve())
                ).evaluate,
                additive=True,
                name="hand-built",
            ),
            eu(uniform3(), _knot_curve(), name="eu-knots"),
            eu(uniform3(), MixtureCurve((0.5, 0.5), (ExponentialCurve(1.0),
                                                     PowerCurve(3.0))),
               name="eu-mixture"),
            eu(uniform3(), PowerCurve(math.inf), name="eu-irregular"),
        ],
        ids=lambda t: t.name,
    )
    def test_other_functionals_take_the_plain_loop(self, t, monkeypatch):
        guides = []
        monkeypatch.setattr(audit, "_newton", lambda *args: guides.append(args))
        assert not t.monotone
        for mask in range(1 << t.space.size):
            for f in product(t.grid, repeat=t.space.size):
                on = tuple(v for i, v in enumerate(f) if mask >> i & 1)
                try:  # table brackets fail; PowerCurve(inf) is out of range
                    audit._solve_constant(t, mask, on, max(map(abs, f)))
                except ChisiniError:
                    pass
        assert guides == []

    def test_choquet_guides_the_rounded_product_solves(self, monkeypatch):
        # every solve off the flat empty event reaches bisection with a
        # known pair: Newton's on the whole space and at targets >= 0, the
        # closed-form pair at a negative target on a proper event
        pairs, newton = [], []

        def counted(fn, target, lo, hi, known=None):
            pairs.append(known)
            return bisect_increasing(fn, target, lo, hi, known)

        def guide(*args):
            newton.append(args)
            return _newton(*args)

        monkeypatch.setattr(audit, "bisect_increasing", counted)
        monkeypatch.setattr(audit, "_newton", guide)
        t = choquet_functional(uniform3(), 2.0, (-1.0, 0.0, 1.0, 2.0))
        assert t._choquet and not t.monotone
        full = (1 << t.space.size) - 1
        kinds = Counter()
        for mask in range(full + 1):
            for f in product(t.grid, repeat=t.space.size):
                on = tuple(v for i, v in enumerate(f) if mask >> i & 1)
                before, newton_before = len(pairs), len(newton)
                target = audit._solve_constant(t, mask, on, max(map(abs, f)))[3]
                whole, nonnegative = mask == full, target >= 0.0
                run = pairs[before:]  # no bisection on the flat empty event
                assert len(run) == (mask != 0) and None not in run, (mask, f)
                assert (len(newton) > newton_before) == (
                    mask != 0 and (whole or nonnegative)
                ), (mask, f)
                kinds[whole, nonnegative] += 1
        assert min(kinds.values()) >= 27 and len(kinds) == 4

    def test_one_other_curve_unmarks_the_functional(self):
        space = uniform3()
        regular = (ExponentialCurve(1.0), PowerCurve(0.5), LinearCurve(2.0))
        rep = AdditiveRepresentation(StateUtility(space, regular))
        assert expected_utility_functional(rep).monotone
        for i in range(3):
            curves = regular[:i] + (_knot_curve(),) + regular[i + 1:]
            rep = AdditiveRepresentation(StateUtility(space, curves))
            assert not expected_utility_functional(rep).monotone

    def test_mark_is_not_a_field(self):
        t = eu(uniform3(), ExponentialCurve(0.5))
        assert t.monotone and len(t._terms) == 3
        copy = dataclasses.replace(t)
        assert not copy.monotone and copy._terms == ()
        assert copy == t and hash(copy) == hash(t) and repr(copy) == repr(t)
        assert "monotone" not in {f.name for f in dataclasses.fields(t)}
        assert not dataclasses.replace(t, evaluator=lambda f: t(f)).monotone

    def test_choquet_mark_is_not_a_field(self):
        t = choquet_functional(uniform3(), 2.0)
        assert t._choquet and not t.monotone
        copy = dataclasses.replace(t)
        assert not copy._choquet
        assert copy == t and hash(copy) == hash(t) and repr(copy) == repr(t)
        assert "_choquet" not in {f.name for f in dataclasses.fields(t)}
        assert not eu(uniform3(), ExponentialCurve(0.5))._choquet


class TestEquivalenceHarness:
    def test_expected_utility_agrees_pass(self):
        report = equivalence_harness(eu(uniform3(), ExponentialCurve(1.0), (0.0, 1.0, 2.0)))
        assert report.check("sure-thing").passed
        assert report.check("conditionable").passed
        assert report.check("verdict-agreement").passed

    def test_choquet_agrees_fail(self):
        report = equivalence_harness(choquet_functional(uniform3(), 2.0, (0.0, 1.0, 2.0)))
        assert not report.check("sure-thing").passed
        assert not report.check("conditionable").passed
        assert report.check("verdict-agreement").passed

    def test_linear_expectation(self):
        report = equivalence_harness(eu(uniform3(), LinearCurve(), (0.0, 1.0, 2.0)))
        assert report.passed

    def test_determinism(self):
        t1 = choquet_functional(uniform3(), 2.0, (0.0, 1.0, 2.0))
        t2 = choquet_functional(uniform3(), 2.0, (0.0, 1.0, 2.0))
        assert equivalence_harness(t1).to_dict() == equivalence_harness(t2).to_dict()

    @pytest.mark.parametrize(
        "t, seen",
        [
            # the grid phase is clean: the certainty-equivalent phase reads
            # A = {a, b} first
            (eu(uniform3(), ExponentialCurve(0.5), (0.0, 1.0, 2.0)), 1606),
            # the certainty-equivalent phase stops at a witness on {a}:
            # conditionability reads A = {a, b} first
            (choquet_functional(uniform3(), 2.0, (0.0, 1.0, 2.0)), 2030),
        ],
        ids=["expected-utility", "choquet"],
    )
    def test_evaluator_error_surfaces_at_the_same_act(self, t, seen):
        # each t(x on A, y off A) is evaluated when a search first reads it,
        # after that act's constant solves and before the next act's: so an
        # evaluator refusing (x, x, y) for f = (0, 2, 1) on A = {a, b} has
        # seen the same distinct acts whether t(g) is kept or evaluated on
        # every read.  Solving every act's constants before filling the
        # event's row would raise after 1,758 and 2,184.
        x = audit._solve_constant(t, 0b011, (0.0, 2.0), 2.0)[0]
        y = audit._solve_constant(t, 0b100, (1.0,), 2.0)[0]
        acts = set()

        def evaluate(f):
            if f.values == (x, x, y):
                raise RuntimeError(f"refused after {len(acts)} distinct acts")
            acts.add(f.values)
            return t.evaluator(f)

        with pytest.raises(RuntimeError) as info:
            equivalence_harness(dataclasses.replace(t, evaluator=evaluate))
        assert str(info.value) == f"refused after {seen} distinct acts"


class TestCapsAndFlags:
    def test_too_many_outcomes(self):
        sp = FiniteSpace.uniform([f"w{i}" for i in range(7)])
        t = PreferenceFunctional(
            space=sp, evaluator=lambda act: sum(act.values)
        )
        with pytest.raises(ComplexityCapExceeded):
            check_sure_thing(t)

    def test_too_many_grid_values(self):
        t = PreferenceFunctional(
            space=uniform3(),
            evaluator=lambda act: sum(act.values),
            grid=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
        )
        with pytest.raises(ComplexityCapExceeded):
            check_sure_thing(t)

    def test_lying_additive_flag_is_caught(self):
        t = PreferenceFunctional(
            space=uniform3(),
            evaluator=lambda act: max(act.values),
            additive=True,
        )
        with pytest.raises(AdditivityCheckFailed):
            spot_check_additivity(t)

    def test_nan_additive_evaluator_is_caught(self):
        t = PreferenceFunctional(
            space=FiniteSpace.uniform(["a", "b"]),
            evaluator=lambda act: float("nan"),
            additive=True,
        )
        with pytest.raises(AdditivityCheckFailed, match="nan"):
            spot_check_additivity(t)

    @pytest.mark.parametrize(
        "grid, message",
        [
            ((), "at least one value"),
            ((0.0, float("nan")), "finite"),
            ((0.0, float("inf")), "finite"),
            ((-float("inf"), 0.0), "finite"),
            ((0.0, 1.0, 0.0), "distinct"),
        ],
    )
    def test_bad_grid_is_refused_at_construction(self, grid, message):
        with pytest.raises(ValueError, match=message):
            eu(uniform3(), LinearCurve(), grid)

    def test_harness_builds_one_enumeration(self, monkeypatch):
        built = []

        class Counted(audit._GridEnumeration):
            def __init__(self, t):
                built.append(t)
                super().__init__(t)

        monkeypatch.setattr(audit, "_GridEnumeration", Counted)
        equivalence_harness(eu(uniform3(), LinearCurve(), (0.0, 1.0)))
        assert len(built) == 1

    def test_honest_additive_flag(self):
        sp = uniform3()
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, ExponentialCurve(2.0))
        )
        spot_check_additivity(expected_utility_functional(rep))


class TestGridTable:
    def test_table_lookup(self):
        sp = FiniteSpace.uniform(["a", "b"])
        table = [float(i) for i in range(9)]
        t = grid_table_functional(sp, (0.0, 1.0, 2.0), table)
        assert t(Act(sp, (0.0, 0.0))) == 0.0
        assert t(Act(sp, (0.0, 2.0))) == 2.0
        assert t(Act(sp, (2.0, 2.0))) == 8.0

    def test_nearest_grid_index_matches_argmin(self):
        # numpy's argmin over the distances is the oracle; both take the
        # first of two equally near grid values
        rng = np.random.default_rng(7)
        mismatches = 0
        for _ in range(200):
            grid = tuple(sorted(set(rng.integers(-6, 7, size=4) * 0.5)))
            if len(grid) < 2:
                continue
            sp = FiniteSpace.uniform(["a", "b"])
            table = [float(i) for i in range(len(grid) ** 2)]
            t = grid_table_functional(sp, grid, table)
            garr = np.asarray(grid)
            mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
            draws = list(rng.uniform(-4.0, 4.0, size=80)) + mids + list(grid)
            for u, v in zip(draws, reversed(draws)):
                du = int(np.argmin(np.abs(garr - u)))
                dv = int(np.argmin(np.abs(garr - v)))
                expected = table[du * len(grid) + dv]
                mismatches += t(Act(sp, (u, v))) != expected
        assert mismatches == 0

    def test_wrong_table_size(self):
        with pytest.raises(ValueError):
            grid_table_functional(uniform3(), (0.0, 1.0), [0.0])
