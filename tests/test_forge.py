"""Tests for utility extraction from set-functional oracles, the
right-continuous envelope, grid regularity validation, jump detection and
continuity repair."""

import math

import numpy as np
import pytest

from chisini import (
    Act,
    AdditiveRepresentation,
    DyadicGrid,
    DyadicGridUtility,
    EventSet,
    ExponentialCurve,
    FiniteSpace,
    LinearCurve,
    PartitionAlgebra,
    PiecewiseLinearCurve,
    PowerCurve,
    SetFunctionalOracle,
    StateUtility,
    build_u_plus,
    chisini_mean,
    detect_jumps,
    evaluate_envelope,
    extract_utility,
    repair_continuous,
    validate_grid_regularity,
    validate_regular,
)
from chisini.errors import (
    ContinuityViolation,
    OutOfGridRange,
    PropertyFlagMissing,
)
from chisini.forge import MAX_LEVEL, _allowance_violations

STEP_AT_ZERO = PiecewiseLinearCurve(
    (-1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 1.0, 2.0), 1.0, 1.0
)


class TestExtraction:
    def test_round_trip_from_representation(self):
        # calibrated curves (value 1 at 1) are recovered exactly, weights too
        sp = FiniteSpace(("a", "b", "c"), (0.25, 0.5, 0.25))
        curves = (
            LinearCurve(1.0),
            PowerCurve(3.0),
            PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-2.0, 0.0, 1.0), 2.0, 0.5),
        )
        rep = AdditiveRepresentation(StateUtility(sp, curves))
        grid = DyadicGrid(level=4, bound=2.0)
        gu = extract_utility(SetFunctionalOracle.from_representation(rep), grid)
        assert gu.space.weights == sp.weights
        points = grid.points()
        for i, curve in enumerate(curves):
            want = np.array([curve.value(q) for q in points])
            assert np.max(np.abs(gu.values[i] - want)) <= 1e-12

    def test_uncalibrated_recovery_reproduces_the_functional(self):
        # exponential curves are not calibrated; the recovered pair is the
        # rescaled presentation of the same functional
        sp = FiniteSpace(("a", "b"), (0.4, 0.6))
        curves = (ExponentialCurve(1.0), ExponentialCurve(-0.5))
        rep = AdditiveRepresentation(StateUtility(sp, curves))
        oracle = SetFunctionalOracle.from_representation(rep)
        grid = DyadicGrid(level=3, bound=2.0)
        gu = extract_utility(oracle, grid)
        w = np.asarray(gu.space.weights, dtype=float)
        points = grid.points()
        rng = np.random.default_rng(71)
        for _ in range(20):
            f = Act(sp, tuple(rng.choice(points, size=2)))
            idx = [int(np.searchsorted(points, v)) for v in f.values]
            recovered = float(sum(w[i] * gu.values[i][idx[i]] for i in range(2)))
            assert recovered == pytest.approx(rep.evaluate(f), abs=1e-12)

    def test_plain_expectation_gives_identity(self):
        sp = FiniteSpace.uniform(["a", "b"])
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, LinearCurve())
        )
        gu = extract_utility(
            SetFunctionalOracle.from_representation(rep), DyadicGrid(2, 1.0)
        )
        points = DyadicGrid(2, 1.0).points()
        for i in range(2):
            assert np.allclose(gu.values[i], points, atol=1e-15)

    def test_zero_weight_outcome_gets_zero_row(self):
        sp = FiniteSpace(("a", "b"), (1.0, 0.0))
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, PowerCurve(3.0))
        )
        gu = extract_utility(
            SetFunctionalOracle.from_representation(rep), DyadicGrid(2, 1.0)
        )
        assert all(v == 0.0 for v in gu.values[1])

    def test_flags_required(self):
        sp = FiniteSpace.uniform(["a", "b"])
        oracle = SetFunctionalOracle(
            sp, lambda e, f: 0.0, c1=True, c2=False
        )
        with pytest.raises(PropertyFlagMissing):
            extract_utility(oracle, DyadicGrid(2, 1.0))

    def test_integral_equation_on_every_event(self):
        # V_A(q 1) = sum of weights * samples over A, for all events and q
        sp = FiniteSpace(("a", "b", "c", "d"), (0.1, 0.3, 0.2, 0.4))
        curves = (
            ExponentialCurve(0.5),
            LinearCurve(1.5),
            PowerCurve(2.0),
            ExponentialCurve(-1.0),
        )
        rep = AdditiveRepresentation(StateUtility(sp, curves))
        oracle = SetFunctionalOracle.from_representation(rep)
        grid = DyadicGrid(level=3, bound=2.0)
        gu = extract_utility(oracle, grid)
        w = np.asarray(gu.space.weights, dtype=float)
        alg = PartitionAlgebra.finest(sp)
        for members in alg.events():
            event = EventSet(sp, members)
            for q in grid.points():
                lhs = oracle(event, Act.constant(sp, float(q)))
                idx = list(members)
                rhs = float(
                    np.sum(w[idx] * np.asarray(gu.values)[idx, np.searchsorted(grid.points(), q)])
                )
                assert abs(lhs - rhs) <= 1e-10


class TestOracleWeights:
    @pytest.mark.parametrize("mass", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_singleton_mass_is_refused(self, mass):
        # every comparison with a NaN is false, so the probability check
        # states what must hold, and an infinite mass makes the total NaN
        sp = FiniteSpace.uniform(["a", "b"])
        oracle = SetFunctionalOracle(
            sp, lambda e, f: mass if 0 in e.members else 1.0, c1=True, c2=True
        )
        with pytest.raises(PropertyFlagMissing):
            oracle.singleton_weights()
        with pytest.raises(PropertyFlagMissing):
            extract_utility(oracle, DyadicGrid(2, 1.0))


class TestGridSize:
    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan, 1e300])
    def test_non_finite_or_huge_bound_is_refused(self, bound):
        with pytest.raises(ValueError, match="bound must be finite|more than 2"):
            DyadicGrid(2, bound)

    def test_every_level_fits_at_the_default_bound(self):
        # built only: the largest grid's points would take about 0.5 GB
        grid = DyadicGrid(MAX_LEVEL)
        assert 2 * grid.zero_index + 1 == 2**24 + 1
        with pytest.raises(ValueError, match=r"more than 2\*\*24 \+ 1 points"):
            DyadicGrid(MAX_LEVEL, 8.0 + 2.0**-MAX_LEVEL)

    def test_shape_check_does_not_build_the_points(self, monkeypatch):
        def refuse(grid):
            raise AssertionError("points() was built")

        monkeypatch.setattr(DyadicGrid, "points", refuse)
        with pytest.raises(ValueError, match="values must have shape"):
            DyadicGridUtility(FiniteSpace.uniform(["a"]), DyadicGrid(MAX_LEVEL), [[0.0]])

    def test_points_and_values_are_float_tuples(self):
        grid = DyadicGrid(2, 1.0)
        gu = DyadicGridUtility(FiniteSpace.uniform(["a"]), grid, np.zeros((1, 9)))
        assert grid.points() == (-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0)
        assert gu.values == ((0.0,) * 9,)
        assert all(type(v) is float for v in grid.points() + gu.values[0])


class TestEnvelope:
    def test_grid_ceiling(self):
        sp = FiniteSpace.uniform(["a"])
        grid = DyadicGrid(level=2, bound=1.0)
        gu = DyadicGridUtility(sp, grid, [grid.points()])
        assert build_u_plus(gu, "a", 0.3) == 0.5
        assert build_u_plus(gu, "a", 0.25) == 0.25  # exact grid point

    def test_identity_off_theta(self):
        sp = FiniteSpace.uniform(["a"])
        grid = DyadicGrid(level=1, bound=1.0)
        flat = np.zeros((1, len(grid.points())))
        gu = DyadicGridUtility(sp, grid, flat)
        assert gu.theta == frozenset()
        assert build_u_plus(gu, "a", 0.3) == 0.3

    @pytest.mark.parametrize("level", [1, 3, 7])
    def test_grid_ceiling_matches_searchsorted(self, level):
        # the exact scaled ceiling against a binary search over the points
        sp = FiniteSpace.uniform(["a"])
        grid = DyadicGrid(level=level, bound=2.0)
        points = grid.points()
        gu = DyadicGridUtility(sp, grid, [points])
        rng = np.random.default_rng(level)
        queries = [*points, -0.0, 5e-324, -5e-324, *rng.uniform(-2.0, 2.0, size=50)]
        queries += [q + d for q in points[1:-1] for d in (-1e-12, 1e-12)]
        for x in queries:
            want = points[int(np.searchsorted(points, x, side="left"))]
            assert build_u_plus(gu, "a", float(x)).hex() == want.hex()

    def test_out_of_range(self):
        sp = FiniteSpace.uniform(["a"])
        grid = DyadicGrid(level=2, bound=1.0)
        gu = DyadicGridUtility(sp, grid, [grid.points()])
        with pytest.raises(OutOfGridRange):
            build_u_plus(gu, "a", 1.5)

    def test_refinement_convergence_on_cube(self):
        sp = FiniteSpace.uniform(["a"])
        rng = np.random.default_rng(61)
        queries = rng.uniform(-3.9, 3.9, size=64)
        prev = None
        for level in range(2, 13):
            grid = DyadicGrid(level=level, bound=4.0)
            samples = np.array([q ** 3 for q in grid.points()])[None, :]
            gu = DyadicGridUtility(sp, grid, samples)
            assert gu.theta == frozenset({0})
            err = max(
                abs(build_u_plus(gu, "a", float(x)) - x ** 3) for x in queries
            )
            if prev is not None:
                assert err <= prev + 1e-15
            step = grid.step
            bound = max(
                3.0 * (abs(x) + step) ** 2 * step for x in queries
            )
            assert err <= bound
            prev = err

    def test_sandwich_from_above(self):
        # the envelope of an increasing function approximates from above
        sp = FiniteSpace.uniform(["a"])
        for level in (3, 5, 7):
            grid = DyadicGrid(level=level, bound=2.0)
            samples = np.array([math.tanh(q) for q in grid.points()])[None, :]
            gu = DyadicGridUtility(sp, grid, samples)
            for x in (-1.3, -0.2, 0.4, 1.9):
                assert build_u_plus(gu, "a", x) >= math.tanh(x) - 1e-15


class TestGridValidation:
    def test_linear_extraction_clean(self):
        sp = FiniteSpace.uniform(["a", "b"])
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, LinearCurve())
        )
        gu = extract_utility(
            SetFunctionalOracle.from_representation(rep), DyadicGrid(3, 2.0)
        )
        report = validate_grid_regularity(gu)
        assert report.passed
        for check in report.checks:
            assert check.details["failing_weight"] == 0.0

    def test_flat_segment_on_half_weight_outcome(self):
        sp = FiniteSpace(("a", "b"), (0.5, 0.5))
        grid = DyadicGrid(2, 1.0)
        points = np.asarray(grid.points())
        good = points.copy()
        bad = points.copy()
        bad[points > 0.4] = bad[np.searchsorted(points, 0.4)]  # flatten the top
        gu = DyadicGridUtility(sp, grid, np.vstack([good, bad]))
        report = validate_grid_regularity(gu)
        check = report.check("grid-strict-increase")
        assert not check.passed
        assert check.details["failing_weight"] == pytest.approx(0.5)

    def test_nan_sample_fails_strict_increase(self):
        sp = FiniteSpace.uniform(["a", "b"])
        grid = DyadicGrid(2, 1.0)
        points = np.asarray(grid.points())
        holed = points.copy()
        holed[3] = np.nan
        gu = DyadicGridUtility(sp, grid, np.vstack([holed, points]))
        assert gu.theta == {1}
        check = validate_grid_regularity(gu).check("grid-strict-increase")
        assert not check.passed
        assert check.witness == {"outcome": "a", "weight": 0.5, "at": float(points[2])}
        assert check.details["failing_weight"] == 0.5

    def test_nan_sample_fails_right_continuity_and_jump_scan(self):
        # every comparison with a NaN increment is false, so a `>` test
        # passed the row; the negated test flags it, and the scan refuses it
        sp = FiniteSpace.uniform(["a", "b"])
        grid = DyadicGrid(2, 1.0)
        points = np.asarray(grid.points())
        holed = points.copy()
        holed[2] = np.nan
        gu = DyadicGridUtility(sp, grid, np.vstack([holed, points]))
        check = validate_grid_regularity(gu).check("grid-right-continuity")
        assert not check.passed
        assert check.details["failing_outcomes"] == ["a"]
        with pytest.raises(ValueError, match="grid samples must be finite"):
            detect_jumps(gu, 0.1, 1.0)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_nan_sample_flags_two_increments_on_each_side(self, k):
        # the allowance of an increment beside a NaN increment is NaN on
        # either side, so the flagged run does not depend on where the NaN is
        sp = FiniteSpace.uniform(["a"])
        grid = DyadicGrid(2, 1.0)
        points = np.asarray(grid.points())
        holed = points.copy()
        holed[k] = np.nan
        first = max(k - 2, 0)
        gu = DyadicGridUtility(sp, grid, holed[None, :])
        flagged = _allowance_violations(gu._increments[0], gu._allowances[0])
        assert flagged == list(range(first, min(k + 2, 8)))
        check = validate_grid_regularity(gu).check("grid-right-continuity")
        assert check.witness["at"] == float(points[first + 1])

    def test_jump_on_null_outcome_has_zero_failing_weight(self):
        sp = FiniteSpace(("a", "b"), (1.0, 0.0))
        grid = DyadicGrid(2, 1.0)
        points = np.asarray(grid.points())
        jumpy = points + (points >= 0.5) * 1.0
        gu = DyadicGridUtility(sp, grid, np.vstack([points, jumpy]))
        report = validate_grid_regularity(gu)
        check = report.check("grid-right-continuity")
        assert check.details["failing_weight"] == 0.0
        assert check.passed  # the offending outcome carries no mass

    def test_allowance_is_reported(self):
        sp = FiniteSpace.uniform(["a"])
        grid = DyadicGrid(2, 1.0)
        points = np.asarray(grid.points())
        jumpy = points + (points >= 0.5) * 1.0
        gu = DyadicGridUtility(sp, grid, jumpy[None, :])
        check = validate_grid_regularity(gu).check("grid-right-continuity")
        assert not check.passed
        assert "allowance" in check.witness
        assert check.details["allowance_rule"]


class TestJumpDetection:
    def test_step_at_zero(self):
        sp = FiniteSpace.uniform(["a"])
        u = StateUtility(sp, (STEP_AT_ZERO,))
        report = detect_jumps(u, eps=0.5, bound=2.0)
        assert report.jumps[0] == ((0.0, 1.0),)
        assert report.first_jump[0] == 0.0

    def test_continuous_curves_have_no_jumps(self):
        sp = FiniteSpace.uniform(["a", "b"])
        u = StateUtility(sp, (ExponentialCurve(1.0), PowerCurve(3.0)))
        report = detect_jumps(u, eps=0.25, bound=4.0)
        assert all(js == () for js in report.jumps)
        assert all(not math.isfinite(tau) for tau in report.first_jump)

    @pytest.mark.parametrize(
        "eps, bound", [(math.nan, 2.0), (0.5, math.nan)], ids=["nan-eps", "nan-bound"]
    )
    def test_nan_threshold_or_bound_is_refused(self, eps, bound):
        # a NaN fails every comparison, which would report no jump at all
        u = StateUtility(FiniteSpace.uniform(["a"]), (STEP_AT_ZERO,))
        with pytest.raises(ValueError):
            detect_jumps(u, eps=eps, bound=bound)

    def test_below_threshold_not_reported(self):
        sp = FiniteSpace.uniform(["a"])
        small_step = PiecewiseLinearCurve(
            (-1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.3, 1.3), 1.0, 1.0
        )
        report = detect_jumps(StateUtility(sp, (small_step,)), eps=0.5, bound=2.0)
        assert report.jumps[0] == ()

    def test_grid_jump_detection_is_lower_bound(self):
        sp = FiniteSpace.uniform(["a"])
        grid = DyadicGrid(4, 2.0)
        points = np.asarray(grid.points())
        jumpy = points + (points >= 0.0) * 1.0
        gu = DyadicGridUtility(sp, grid, jumpy[None, :])
        report = detect_jumps(gu, eps=0.5, bound=2.0)
        assert len(report.jumps[0]) == 1
        location, size = report.jumps[0][0]
        assert location == 0.0
        assert 0.5 < size <= 1.0  # lower bound on the true unit jump


class TestRepair:
    def test_null_outcome_repaired_and_t_preserved(self):
        sp = FiniteSpace(("a", "b"), (1.0, 0.0))
        u = StateUtility(sp, (LinearCurve(1.0), STEP_AT_ZERO))
        report = detect_jumps(u, eps=0.5, bound=2.0)
        repaired = repair_continuous(u, report, sp.weights)
        assert validate_regular(repaired).ok
        rep_before = AdditiveRepresentation(u)
        rep_after = AdditiveRepresentation(repaired)
        f = Act(sp, (0.7, -0.3))
        assert abs(rep_before.evaluate(f) - rep_after.evaluate(f)) <= 1e-12

    def test_positive_weight_jump_raises(self):
        sp = FiniteSpace.uniform(["a", "b"])
        u = StateUtility(sp, (LinearCurve(1.0), STEP_AT_ZERO))
        report = detect_jumps(u, eps=0.5, bound=2.0)
        with pytest.raises(ContinuityViolation) as exc:
            repair_continuous(u, report, sp.weights)
        assert "b" in str(exc.value)
        assert "0" in str(exc.value)

    def test_no_jumps_returns_equal_curves(self):
        sp = FiniteSpace.uniform(["a", "b"])
        u = StateUtility(sp, (LinearCurve(1.0), ExponentialCurve(1.0)))
        report = detect_jumps(u, eps=0.5, bound=2.0)
        repaired = repair_continuous(u, report, sp.weights)
        assert repaired.curves == u.curves

    def test_idempotent(self):
        sp = FiniteSpace(("a", "b"), (1.0, 0.0))
        u = StateUtility(sp, (LinearCurve(1.0), STEP_AT_ZERO))
        report = detect_jumps(u, eps=0.5, bound=2.0)
        once = repair_continuous(u, report, sp.weights)
        report2 = detect_jumps(once, eps=0.5, bound=2.0)
        twice = repair_continuous(once, report2, sp.weights)
        assert once.curves == twice.curves

    def test_grid_source_repairs_to_state_utility(self):
        sp = FiniteSpace(("a", "b"), (1.0, 0.0))
        grid = DyadicGrid(3, 2.0)
        points = np.asarray(grid.points())
        jumpy = points + (points >= 0.5) * 1.0
        gu = DyadicGridUtility(sp, grid, np.vstack([points, jumpy]))
        report = detect_jumps(gu, eps=0.5, bound=2.0)
        repaired = repair_continuous(gu, report, sp.weights)
        assert validate_regular(repaired).ok
        assert repaired.curves[1] == LinearCurve(1.0)

    def test_repaired_utility_feeds_the_conditional_pipeline(self):
        sp = FiniteSpace(("a", "b", "c"), (0.5, 0.5, 0.0))
        rep = AdditiveRepresentation(
            StateUtility(
                sp, (ExponentialCurve(1.0), PowerCurve(3.0), LinearCurve(1.0))
            )
        )
        oracle = SetFunctionalOracle.from_representation(rep)
        gu = extract_utility(oracle, DyadicGrid(6, 4.0))
        report = detect_jumps(gu, eps=0.5, bound=4.0)
        repaired = repair_continuous(gu, report, gu.space.weights)
        new_rep = AdditiveRepresentation(repaired)
        # the recovered space carries the oracle-derived weights
        alg = PartitionAlgebra.from_labels(repaired.space, [["a", "b"], ["c"]])
        f = Act(repaired.space, (0.5, -1.0, 2.0))
        sol = chisini_mean(new_rep, f, alg)
        assert sol.ok


class TestSimpleFunctionAgreement:
    def test_envelope_matches_oracle_on_grid_acts(self):
        rng = np.random.default_rng(67)
        sp = FiniteSpace(("a", "b", "c"), (0.2, 0.45, 0.35))
        rep = AdditiveRepresentation(
            StateUtility(
                sp, (ExponentialCurve(1.0), LinearCurve(2.0), PowerCurve(3.0))
            )
        )
        oracle = SetFunctionalOracle.from_representation(rep)
        grid = DyadicGrid(4, 2.0)
        gu = extract_utility(oracle, grid)
        points = grid.points()
        for _ in range(40):
            f = Act(sp, tuple(rng.choice(points, size=3)))
            lhs = evaluate_envelope(gu, f)
            rhs = oracle(EventSet.full(sp), f)
            assert abs(lhs - rhs) <= 1e-10
