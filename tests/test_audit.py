"""Tests for the preference-functional audits: strict monotonicity, the
sure-thing principle, conditionability and the equivalence harness."""

import numpy as np
import pytest

from chisini import (
    Act,
    AdditiveRepresentation,
    EventSet,
    ExponentialCurve,
    FiniteSpace,
    LinearCurve,
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
from chisini.audit import spot_check_additivity
from chisini.curves import bisect_increasing
from chisini.errors import (
    AdditivityCheckFailed,
    BisectionBracketFailure,
    ComplexityCapExceeded,
    SpaceMismatchError,
)


def uniform3():
    return FiniteSpace.uniform(["a", "b", "c"])


def eu(space, curve, grid=(-1.0, 0.0, 1.0), name="eu"):
    rep = AdditiveRepresentation(StateUtility.state_independent(space, curve))
    return expected_utility_functional(rep, grid, name=name)


def choquet_value(space, vals, exponent):
    w = space.weight_array()
    v = np.asarray(vals, dtype=float)
    order = np.argsort(-v, kind="stable")
    sv = v[order]
    nu = np.cumsum(w[order]) ** exponent
    return float(sv[-1] * nu[-1] + np.sum((sv[:-1] - sv[1:]) * nu[:-1]))


class TestStrictMonotonicity:
    def test_expected_utility_passes(self):
        report = check_strict_monotonicity(eu(uniform3(), ExponentialCurve(1.0)))
        assert report.passed

    def test_mean_variance_fails(self):
        sp = FiniteSpace.uniform(["a", "b"])
        w = sp.weight_array()

        def mean_var(act):
            v = np.asarray(act.values)
            mean = float(w @ v)
            return mean - (float(w @ (v * v)) - mean * mean)

        t = PreferenceFunctional(
            space=sp, evaluator=mean_var, grid=(0.0, 1.0, 5.0), name="mean-var"
        )
        report = check_strict_monotonicity(t)
        check = report.check("strict-monotonicity")
        assert not check.passed
        w_ = check.witness
        # the witness re-evaluates to a genuine order reversal
        ev = set(w_["event"])
        back = w_["background"]
        act_x = Act(sp, tuple(w_["x"] if i in ev else back[i] for i in range(2)))
        act_y = Act(sp, tuple(w_["y"] if i in ev else back[i] for i in range(2)))
        assert mean_var(act_x) <= mean_var(act_y)
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
        t = choquet_functional(sp, 2.0, (0.0, 1.0, 2.0))
        report = check_sure_thing(t)
        check = report.check("sure-thing")
        assert not check.passed
        # the bracket endpoints of the constant solves build this witness
        assert check.details["witness_phase"] == "certainty-equivalent"
        w = check.witness
        assert w["margin"] > 1e-9
        # independent re-evaluation by direct Choquet sums
        ev = set(w["event"])

        def pasted(x, h):
            return [x[i] if i in ev else h[i] for i in range(3)]

        t1 = choquet_value(sp, pasted(w["f"], w["h"]), 2.0)
        t2 = choquet_value(sp, pasted(w["g"], w["h"]), 2.0)
        t3 = choquet_value(sp, pasted(w["f"], w["h_alt"]), 2.0)
        t4 = choquet_value(sp, pasted(w["g"], w["h_alt"]), 2.0)
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

    def test_each_event_act_pair_is_bisected_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return bisect_increasing(*args)

        monkeypatch.setattr("chisini.audit.bisect_increasing", counted)
        t = eu(uniform3(), ExponentialCurve(0.5), (0.0, 1.0, 2.0))
        check_conditionable_all_events(t)
        # 27 grid acts on each of the 7 nonempty events (the empty event's
        # map is flat and needs no bisection)
        assert len(calls) == 7 * 27
        calls.clear()
        check_sure_thing(t)
        # the certainty-equivalent phase covers the 6 proper events
        assert len(calls) == 6 * 27


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

    def test_wrong_table_size(self):
        with pytest.raises(ValueError):
            grid_table_functional(uniform3(), (0.0, 1.0), [0.0])
