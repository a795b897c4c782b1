"""Tests for state utilities, the additive evaluator, projection and the
generalized inverse."""

import math
from functools import partial

import numpy as np
import pytest

from chisini import (
    Act,
    AdditiveRepresentation,
    EventSet,
    ExponentialCurve,
    FiniteSpace,
    LinearCurve,
    PartitionAlgebra,
    PiecewiseLinearCurve,
    PowerCurve,
    StateUtility,
    ensure_regular,
    generalized_inverse,
    image_interval,
    project_utility,
    validate_regular,
)
from chisini.curves import MixtureCurve
from chisini.errors import (
    NumericRangeError,
    RegularityViolation,
    SpaceMismatchError,
)


def two_point():
    return FiniteSpace.uniform(["a", "b"])


class TestValidation:
    def test_linear_utility_valid(self):
        u = StateUtility.state_independent(two_point(), LinearCurve())
        report = validate_regular(u)
        assert report.ok and report.issues == ()

    def test_broken_normalization(self):
        bad = PiecewiseLinearCurve((0.0, 1.0), (0.1, 1.0))
        u = StateUtility(two_point(), (LinearCurve(), bad))
        report = validate_regular(u)
        assert not report.ok
        assert report.issues[0].outcome == "b"
        with pytest.raises(RegularityViolation):
            ensure_regular(u)

    def test_non_strict_table(self):
        flat = PiecewiseLinearCurve((0.0, 1.0, 2.0), (0.0, 1.0, 1.0))
        u = StateUtility.state_independent(two_point(), flat)
        assert not validate_regular(u).ok


class TestEvaluator:
    def test_linear_is_expectation(self):
        rep = AdditiveRepresentation(
            StateUtility.state_independent(two_point(), LinearCurve())
        )
        assert rep.evaluate(Act(two_point(), (1.0, 3.0))) == 2.0

    @pytest.mark.parametrize("values", [(1.0, 1e308), (-1e308, 1e308)])
    def test_overflowing_utility_act_is_a_range_error(self, values):
        # 2 * 1e308 is inf without an OverflowError: the act is refused
        # with the first outcome whose utility is not finite
        space = two_point()
        rep = AdditiveRepresentation(
            StateUtility(space, (LinearCurve(1.0), LinearCurve(2.0)))
        )
        with pytest.raises(NumericRangeError) as raised:
            rep.utility_act(Act(space, values))
        assert str(raised.value) == (
            "utility of outcome 'b' at x=1e+308 is inf, not a finite float"
        )

    @pytest.mark.parametrize("values", [(1.0, 1e308), (-1e308, 1e308)])
    def test_overflowing_evaluation_is_a_range_error(self, values):
        # evaluate refuses the act as utility_act does, instead of
        # returning inf or nan
        space = two_point()
        rep = AdditiveRepresentation(
            StateUtility(space, (LinearCurve(1.0), LinearCurve(2.0)))
        )
        with pytest.raises(NumericRangeError) as raised:
            rep.evaluate(Act(space, values))
        assert str(raised.value) == (
            "utility of outcome 'b' at x=1e+308 is inf, not a finite float"
        )

    def test_space_check_reads_equality_not_identity(self):
        # _check_space tests identity first: an equal space built apart
        # still evaluates, and a different one is still refused
        rep = AdditiveRepresentation(
            StateUtility.state_independent(two_point(), LinearCurve())
        )
        twin = two_point()
        assert twin is not rep.space and twin == rep.space
        f = Act(twin, (1.0, 3.0))
        assert rep.evaluate(f) == 2.0
        assert rep.evaluate_on_event({1}, f) == 1.5
        assert rep.utility_act(f).values == (1.0, 3.0)
        g = Act(FiniteSpace(("a", "b"), (0.25, 0.75)), (1.0, 3.0))
        on_event = partial(rep.evaluate_on_event, {0})
        for call in (rep.evaluate, rep.utility_act, on_event):
            with pytest.raises(SpaceMismatchError, match="spaces differ"):
                call(g)

    def test_zero_act_evaluates_to_zero(self):
        for curve in (LinearCurve(), ExponentialCurve(1.3), PowerCurve(2.5)):
            rep = AdditiveRepresentation(
                StateUtility.state_independent(two_point(), curve)
            )
            assert rep.evaluate(Act.constant(two_point(), 0.0)) == 0.0

    def test_exponential_closed_form(self):
        # mean of (1 - exp(-x)) at x in {0, ln 2} with equal weights
        rep = AdditiveRepresentation(
            StateUtility.state_independent(two_point(), ExponentialCurve(1.0))
        )
        got = rep.evaluate(Act(two_point(), (0.0, math.log(2.0))))
        assert got == pytest.approx(0.25, abs=1e-15)

    def test_additivity_exact(self):
        sp = FiniteSpace(("a", "b", "c"), (0.2, 0.5, 0.3))
        rep = AdditiveRepresentation(
            StateUtility(
                sp, (ExponentialCurve(0.7), PowerCurve(2.0), LinearCurve(1.5))
            )
        )
        f = Act(sp, (0.4, -1.2, 2.0))
        va = rep.evaluate_on_event({0}, f)
        vb = rep.evaluate_on_event({1, 2}, f)
        assert va + vb == pytest.approx(rep.evaluate(f), abs=1e-15)
        # V_A(f) agrees with evaluating the masked act
        masked = f.masked(EventSet(sp, frozenset({0})))
        assert va == pytest.approx(rep.evaluate(masked), abs=1e-15)

    def test_monotone_strict_on_positive_weight(self):
        sp = FiniteSpace(("a", "b"), (1.0, 0.0))
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, PowerCurve(3.0))
        )
        f, g = Act(sp, (1.0, 0.0)), Act(sp, (1.5, 0.0))
        assert rep.evaluate(f) < rep.evaluate(g)
        # raising only the null coordinate changes nothing
        h = Act(sp, (1.0, 99.0))
        assert rep.evaluate(f) == rep.evaluate(h)

    def test_pointwise_continuity_rate(self):
        # |T(f_n) - T(f)| bounded by the modulus of continuity on the range
        sp = FiniteSpace.uniform(["a", "b", "c"])
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, ExponentialCurve(2.0))
        )
        f = Act(sp, (0.5, -0.5, 1.0))
        base = rep.evaluate(f)
        # slope of the curve is exp(-2x) <= exp(4) on [-2, 2]
        lipschitz = math.exp(4.0)
        for n in range(1, 30):
            fn = f + 1.0 / n
            assert abs(rep.evaluate(fn) - base) <= lipschitz / n + 1e-12


class TestProjection:
    def test_state_independent_projects_to_itself(self):
        sp = FiniteSpace.uniform(["a", "b", "c", "d"])
        curve = ExponentialCurve(1.0)
        rep = AdditiveRepresentation(StateUtility.state_independent(sp, curve))
        for blocks in ([["a", "b"], ["c", "d"]], [["a", "b", "c", "d"]]):
            pu = project_utility(rep, PartitionAlgebra.from_labels(sp, blocks))
            assert all(c == curve for c in pu.atom_curves)

    def test_linear_slopes_average(self):
        sp = two_point()
        rep = AdditiveRepresentation(
            StateUtility(sp, (LinearCurve(1.0), LinearCurve(3.0)))
        )
        pu = project_utility(rep, PartitionAlgebra.trivial(sp))
        assert pu.atom_curves[0] == LinearCurve(2.0)

    def test_finest_partition_identity(self):
        sp = FiniteSpace(("a", "b", "c"), (0.2, 0.3, 0.5))
        curves = (ExponentialCurve(1.0), PowerCurve(3.0), LinearCurve(2.0))
        rep = AdditiveRepresentation(StateUtility(sp, curves))
        pu = project_utility(rep, PartitionAlgebra.finest(sp))
        assert pu.as_state_utility().curves == curves

    def test_null_atom_gets_identity(self):
        sp = FiniteSpace(("a", "b", "c"), (0.5, 0.5, 0.0))
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, PowerCurve(3.0))
        )
        alg = PartitionAlgebra.from_labels(sp, [["a", "b"], ["c"]])
        pu = project_utility(rep, alg)
        assert pu.atom_curves[1] == LinearCurve(1.0)

    def test_knot_tables_merge_exactly(self):
        sp = two_point()
        a = PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-2.0, 0.0, 1.0), 2.0, 1.0)
        b = PiecewiseLinearCurve((-2.0, 0.0, 0.5), (-1.0, 0.0, 2.0), 0.5, 4.0)
        rep = AdditiveRepresentation(StateUtility(sp, (a, b)))
        pu = project_utility(rep, PartitionAlgebra.trivial(sp))
        merged = pu.atom_curves[0]
        assert isinstance(merged, PiecewiseLinearCurve)
        assert set(merged.xs) == {-2.0, -1.0, 0.0, 0.5, 1.0}
        for x in np.linspace(-4, 4, 33):
            assert merged.value(float(x)) == pytest.approx(
                0.5 * a.value(float(x)) + 0.5 * b.value(float(x)), abs=1e-14
            )

    def test_projection_is_conditional_expectation_of_utility(self):
        # the atom curve evaluated at x is a version of E[u(., x) | G]
        rng = np.random.default_rng(19)
        sp = FiniteSpace(("a", "b", "c", "d"), (0.1, 0.4, 0.2, 0.3))
        curves = (
            ExponentialCurve(0.5),
            PowerCurve(2.0),
            LinearCurve(1.7),
            ExponentialCurve(-1.0),
        )
        rep = AdditiveRepresentation(StateUtility(sp, curves))
        alg = PartitionAlgebra.from_labels(sp, [["a", "c"], ["b", "d"]])
        pu = project_utility(rep, alg)
        from chisini import conditional_expectation

        for x in rng.uniform(-2, 2, size=8):
            ux = Act(sp, tuple(c.value(float(x)) for c in curves))
            cond = conditional_expectation(ux, alg)
            for i in range(sp.size):
                assert pu.value(i, float(x)) == pytest.approx(
                    cond.values[i], abs=1e-12
                )

    def test_projected_utility_is_regular(self):
        sp = FiniteSpace(("a", "b", "c"), (0.25, 0.25, 0.5))
        rep = AdditiveRepresentation(
            StateUtility(
                sp, (ExponentialCurve(1.0), PowerCurve(3.0), LinearCurve(0.5))
            )
        )
        pu = project_utility(rep, PartitionAlgebra.trivial(sp))
        assert validate_regular(pu.as_state_utility()).ok


class TestGeneralizedInverse:
    def test_three_cases_exponential(self):
        sp = two_point()
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, ExponentialCurve(1.0))
        )
        pu = project_utility(rep, PartitionAlgebra.trivial(sp))
        assert not math.isfinite(generalized_inverse(pu, "a", 2.0))  # above image
        assert generalized_inverse(pu, "a", 2.0) == math.inf
        inside = generalized_inverse(pu, "a", 0.5)
        assert math.isfinite(inside)
        assert inside == pytest.approx(math.log(2.0), abs=1e-14)

    def test_lower_branch(self):
        sp = two_point()
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, ExponentialCurve(-2.0))
        )
        pu = project_utility(rep, PartitionAlgebra.trivial(sp))
        assert generalized_inverse(pu, "a", -0.5) == -math.inf
        assert generalized_inverse(pu, "a", -0.75) == -math.inf

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_is_refused(self, x):
        sp = two_point()
        for curve in (ExponentialCurve(1.0), LinearCurve(2.0)):
            rep = AdditiveRepresentation(StateUtility.state_independent(sp, curve))
            pu = project_utility(rep, PartitionAlgebra.trivial(sp))
            for method in ("auto", "bisect"):
                with pytest.raises(ValueError):
                    generalized_inverse(pu, "a", x, method=method)

    def test_cube_root(self):
        sp = two_point()
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, PowerCurve(3.0))
        )
        pu = project_utility(rep, PartitionAlgebra.trivial(sp))
        assert generalized_inverse(pu, 0, 8.0) == 2.0

    def test_inverse_identity_round_trip(self):
        sp = two_point()
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, ExponentialCurve(0.8))
        )
        pu = project_utility(rep, PartitionAlgebra.trivial(sp))
        y = 1.7
        x = pu.value(0, y)
        assert generalized_inverse(pu, 0, x) == pytest.approx(y, abs=1e-12)

    def test_image_interval_examples(self):
        sp = two_point()
        for curve, lo_finite, hi_finite, hi_val in (
            (LinearCurve(), False, False, None),
            (ExponentialCurve(2.0), False, True, 0.5),
            (PowerCurve(3.0), False, False, None),
        ):
            rep = AdditiveRepresentation(
                StateUtility.state_independent(sp, curve)
            )
            pu = project_utility(rep, PartitionAlgebra.trivial(sp))
            lo, hi = image_interval(pu, "a")
            assert math.isfinite(lo) == lo_finite
            assert math.isfinite(hi) == hi_finite
            if hi_val is not None:
                assert hi == pytest.approx(hi_val)

    def test_knot_table_image_is_full_line(self):
        sp = two_point()
        c = PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0), 2.0, 0.5)
        rep = AdditiveRepresentation(StateUtility.state_independent(sp, c))
        pu = project_utility(rep, PartitionAlgebra.trivial(sp))
        lo, hi = image_interval(pu, 0)
        assert not math.isfinite(lo) and not math.isfinite(hi)

    def test_monotone_in_x(self):
        sp = two_point()
        rep = AdditiveRepresentation(
            StateUtility(sp, (ExponentialCurve(1.0), PowerCurve(3.0)))
        )
        pu = project_utility(rep, PartitionAlgebra.trivial(sp))
        xs = np.linspace(-0.9, 1.4, 40)  # inside the mixture image
        ys = [generalized_inverse(pu, 0, float(x)) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))

    def test_mixture_round_trip_both_solvers(self):
        sp = two_point()
        rep = AdditiveRepresentation(
            StateUtility(sp, (ExponentialCurve(1.0), PowerCurve(3.0)))
        )
        pu = project_utility(rep, PartitionAlgebra.trivial(sp))
        assert isinstance(pu.atom_curves[0], MixtureCurve)
        for y in (-2.0, -0.3, 0.0, 0.9, 2.4):
            x = pu.value(0, y)
            auto = generalized_inverse(pu, 0, x, method="auto")
            bis = generalized_inverse(pu, 0, x, method="bisect")
            assert auto == pytest.approx(y, abs=1e-10)
            assert bis == pytest.approx(y, abs=1e-10)
