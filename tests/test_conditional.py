"""Tests for conditional Chisini means, conditionability verification,
the masking identity and uniqueness."""

import dataclasses
import math
import random

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
    PartitionAlgebra,
    PowerCurve,
    PreferenceFunctional,
    StateUtility,
    chisini_mean,
    conditional_expectation,
    ensure_regular,
    expected_utility_functional,
    generalized_inverse,
    project_utility,
    taking_out,
    uniqueness_check,
    verify_conditionable,
)
import chisini.utility as utility_module
from chisini.conditional import _solve_act, _worst_union
from chisini.errors import (
    ChisiniError,
    ComplexityCapExceeded,
    EventNotInAlgebra,
    NotMeasurable,
    NumericRangeError,
    PreconditionFailure,
    RegularityViolation,
    SpaceMismatchError,
)
from chisini.curves import PiecewiseLinearCurve
from chisini.spaces import DEFAULT_UNION_CAP


def exp_rep(space, gamma=1.0):
    return AdditiveRepresentation(
        StateUtility.state_independent(space, ExponentialCurve(gamma))
    )


def solve_certainty_equivalent(rep, f, lo=-50.0, hi=50.0):
    """Independent scalar oracle: bisect T(c * 1) = T(f) on the constant c,
    touching only the forward evaluator."""
    target = rep.evaluate(f)

    def value(c):
        return rep.evaluate(Act.constant(rep.space, c))

    for _ in range(220):
        mid = 0.5 * (lo + hi)
        if value(mid) > target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestChisiniMean:
    def test_linear_reduces_to_conditional_expectation(self):
        sp = FiniteSpace.uniform(["w1", "w2", "w3", "w4"])
        alg = PartitionAlgebra.from_labels(sp, [["w1", "w2"], ["w3", "w4"]])
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, LinearCurve())
        )
        f = Act(sp, (1, 3, 2, 6))
        sol = chisini_mean(rep, f, alg)
        assert sol.act.values == (2.0, 2.0, 4.0, 4.0)
        assert sol.ok

    def test_entropic_closed_form(self):
        sp = FiniteSpace.uniform(["a", "b"])
        rep = exp_rep(sp, 1.0)
        f = Act(sp, (0.0, math.log(2.0)))
        sol = chisini_mean(rep, f, PartitionAlgebra.trivial(sp))
        assert sol.act.values[0] == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
        # independent oracle: scalar bisection on the defining equation
        oracle = solve_certainty_equivalent(rep, f)
        assert sol.act.values[0] == pytest.approx(oracle, abs=1e-10)
        assert sol.ok

    def test_constant_act_is_fixed(self):
        sp = FiniteSpace.uniform(["a", "b", "c"])
        rep = AdditiveRepresentation(
            StateUtility(
                sp, (ExponentialCurve(2.0), PowerCurve(3.0), LinearCurve(1.0))
            )
        )
        alg = PartitionAlgebra.from_labels(sp, [["a", "b"], ["c"]])
        sol = chisini_mean(rep, Act.constant(sp, 1.3), alg)
        assert all(v == pytest.approx(1.3, abs=1e-12) for v in sol.act.values)

    def test_result_is_measurable_and_bounded(self):
        rng = np.random.default_rng(23)
        sp = FiniteSpace(("a", "b", "c", "d"), (0.4, 0.1, 0.25, 0.25))
        rep = AdditiveRepresentation(
            StateUtility(
                sp,
                (
                    ExponentialCurve(1.0),
                    ExponentialCurve(0.5),
                    PowerCurve(2.0),
                    LinearCurve(2.0),
                ),
            )
        )
        alg = PartitionAlgebra.from_labels(sp, [["a", "d"], ["b", "c"]])
        for _ in range(20):
            f = Act(sp, tuple(rng.uniform(-3, 3, size=4)))
            sol = chisini_mean(rep, f, alg)
            assert sol.act.is_measurable(alg)
            assert sol.act.sup_norm <= f.sup_norm + 1e-9
            assert sol.ok

    def test_null_atom_value_is_zero(self):
        sp = FiniteSpace(("a", "b", "c"), (0.5, 0.5, 0.0))
        rep = exp_rep(sp, 1.0)
        alg = PartitionAlgebra.from_labels(sp, [["a", "b"], ["c"]])
        sol = chisini_mean(rep, Act(sp, (1.0, 2.0, 7.0)), alg)
        assert sol.act.values[2] == 0.0

    def test_full_algebra_reduction(self):
        rng = np.random.default_rng(29)
        sp = FiniteSpace(("a", "b", "c"), (0.3, 0.45, 0.25))
        rep = AdditiveRepresentation(
            StateUtility(
                sp, (ExponentialCurve(1.2), PowerCurve(3.0), ExponentialCurve(-0.7))
            )
        )
        finest = PartitionAlgebra.finest(sp)
        for _ in range(10):
            f = Act(sp, tuple(rng.uniform(-2, 2, size=3)))
            sol = chisini_mean(rep, f, finest)
            for got, want in zip(sol.act.values, f.values):
                assert got == pytest.approx(want, abs=1e-11)

    def test_monotone_in_the_act(self):
        rng = np.random.default_rng(31)
        sp = FiniteSpace.uniform(["a", "b", "c", "d"])
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, PowerCurve(3.0))
        )
        alg = PartitionAlgebra.from_labels(sp, [["a", "b"], ["c", "d"]])
        for _ in range(15):
            f = Act(sp, tuple(rng.uniform(-2, 2, size=4)))
            bump = Act(sp, tuple(rng.uniform(0, 1, size=4)))
            lo = chisini_mean(rep, f, alg).act
            hi = chisini_mean(rep, f + bump, alg).act
            assert all(a <= b + 1e-11 for a, b in zip(lo.values, hi.values))

    def test_translation_for_linear_utility(self):
        rng = np.random.default_rng(37)
        sp = FiniteSpace(("a", "b", "c"), (0.2, 0.5, 0.3))
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, LinearCurve())
        )
        alg = PartitionAlgebra.from_labels(sp, [["a", "b"], ["c"]])
        f = Act(sp, tuple(rng.uniform(-2, 2, size=3)))
        base = chisini_mean(rep, f, alg).act
        shifted = chisini_mean(rep, f + 0.7, alg).act
        for a, b in zip(base.values, shifted.values):
            assert abs(b - (a + 0.7)) <= 1e-10

    def test_regularity_violation_propagates(self):
        sp = FiniteSpace.uniform(["a", "b"])
        bad = PiecewiseLinearCurve((0.0, 1.0, 2.0), (0.0, 1.0, 1.0))
        rep = AdditiveRepresentation(StateUtility.state_independent(sp, bad))
        with pytest.raises(RegularityViolation):
            chisini_mean(rep, Act(sp, (0.5, 1.0)), PartitionAlgebra.trivial(sp))

    @pytest.mark.parametrize("gamma, c", [(1.0, -600.0), (-1.0, 600.0)])
    def test_overflowing_bracket_probe_still_solves(self, gamma, c):
        # the doubling bracket passes x = -1024 (or +1024), where the
        # exponential part overflows; that probe reads as an infinity of
        # its sign, so the fixpoint law holds for a constant act
        sp = FiniteSpace.uniform(["a", "b"])
        rep = AdditiveRepresentation(
            StateUtility(sp, (ExponentialCurve(gamma), LinearCurve(1.0)))
        )
        sol = chisini_mean(rep, Act.constant(sp, c), PartitionAlgebra.trivial(sp))
        assert sol.act.values == (c, c)
        assert sol.ok

    def test_saturation_says_the_expectation_rounded_onto_the_bound(self):
        # 1 - exp(-40) rounds to 1 = 1/gamma: the mean is 40, but the
        # conditional expectation sits on the image's bound in floats
        sp = FiniteSpace.uniform(["a", "b"])
        with pytest.raises(NumericRangeError) as raised:
            chisini_mean(exp_rep(sp), Act.constant(sp, 40.0), PartitionAlgebra.trivial(sp))
        assert str(raised.value) == (
            "conditional expected utility 1.0 on atom [0, 1] rounded onto the "
            "upper bound of the projected image, where the inverse is not a "
            "finite float"
        )

    def test_residual_table_covers_all_unions(self):
        sp = FiniteSpace.uniform(["a", "b", "c", "d"])
        alg = PartitionAlgebra.from_labels(sp, [["a"], ["b"], ["c", "d"]])
        rep = exp_rep(sp, 0.5)
        sol = chisini_mean(rep, Act(sp, (1, 0, -1, 2)), alg)
        assert len(sol.residuals) == 8
        assert sol.ok


class TestParameterRegularity:
    def test_infinite_power_exponent_is_refused(self):
        # PowerCurve(inf) is flat on (-1, 1) in floats: a solve that took it
        # as regular returned (0.0, 0.0) for this act and passed it as ok
        sp = FiniteSpace.uniform(["a", "b"])
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, PowerCurve(math.inf))
        )
        with pytest.raises(RegularityViolation, match="power exponent"):
            chisini_mean(rep, Act(sp, (0.5, 0.7)), PartitionAlgebra.trivial(sp))


def random_model(rng, n_max=8):
    """A random space with some null outcomes, mixed exponential and power
    curves, and a partition into shuffled atoms."""
    n = int(rng.integers(1, n_max + 1))
    weights = rng.dirichlet(np.ones(n))
    weights[rng.random(n) < 0.2] = 0.0
    if weights.sum() == 0.0:
        weights[0] = 1.0
    sp = FiniteSpace(tuple(f"w{i}" for i in range(n)), tuple(weights / weights.sum()))
    curves = tuple(
        ExponentialCurve(float(rng.uniform(0.2, 2.0)))
        if rng.random() < 0.5
        else PowerCurve(float(rng.uniform(0.5, 3.0)))
        for _ in range(n)
    )
    blocks = {}
    for i, k in zip(rng.permutation(n), rng.integers(0, n, n)):
        blocks.setdefault(int(k), []).append(int(i))
    alg = PartitionAlgebra(sp, tuple(frozenset(b) for b in blocks.values()))
    f = Act(sp, tuple(rng.uniform(-2.0, 2.0, n)))
    return AdditiveRepresentation(StateUtility(sp, curves)), f, alg


def round_robin(n, k):
    """n uniform outcomes with mixed curves, and k atoms dealt round-robin."""
    sp = FiniteSpace.uniform([f"w{i}" for i in range(n)])
    curves = tuple(
        ExponentialCurve(0.5 + i / n) if i % 2 else PowerCurve(1.5 + i / n)
        for i in range(n)
    )
    alg = PartitionAlgebra(sp, tuple(frozenset(range(j, n, k)) for j in range(k)))
    f = Act(sp, tuple(math.sin(3.0 * i) * 2.0 for i in range(n)))
    return AdditiveRepresentation(StateUtility(sp, curves)), f, alg


class TestCertificate:
    def test_certificate_matches_residual_table(self):
        # the O(k) certificate against the 2**k table, kept as the oracle
        rng = np.random.default_rng(11)
        for _ in range(120):
            rep, f, alg = random_model(rng)
            sol = chisini_mean(rep, f, alg)
            table = max(r for _, r in sol.residuals)
            assert len(sol.residuals) == 2 ** alg.atom_count
            assert sol.max_residual == pytest.approx(table, rel=0.0, abs=1e-13)
            assert sol.ok == (table <= sol.tolerance)

    def test_solve_evaluates_each_atom_once_and_enumerates_nothing(
        self, monkeypatch
    ):
        # V_A(f) comes from the solve, so the certificate evaluates V_A(g)
        # alone
        rep, f, alg = round_robin(16, 8)
        calls = {"evaluate_on_event": 0, "events": 0}
        evaluate_on_event = AdditiveRepresentation.evaluate_on_event

        def counted_evaluate(self, members, act):
            calls["evaluate_on_event"] += 1
            return evaluate_on_event(self, members, act)

        def counted_events(self, cap=DEFAULT_UNION_CAP):
            calls["events"] += 1
            return iter(())

        monkeypatch.setattr(
            AdditiveRepresentation, "evaluate_on_event", counted_evaluate
        )
        monkeypatch.setattr(PartitionAlgebra, "events", counted_events)
        sol = chisini_mean(rep, f, alg)
        assert sol.ok
        assert calls == {"evaluate_on_event": alg.atom_count, "events": 0}

    def test_solve_is_not_capped_but_the_table_is(self):
        rep, f, alg = round_robin(64, DEFAULT_UNION_CAP + 4)
        sol = chisini_mean(rep, f, alg)
        assert len(sol.atom_residuals) == alg.atom_count
        assert sol.ok
        with pytest.raises(ComplexityCapExceeded):
            sol.residuals

    def test_solution_and_verify_share_the_certificate(self):
        # the same signed atom residuals give the same worst value and
        # verdict, on solutions perturbed across the tolerance
        rng = np.random.default_rng(17)
        verdicts = set()
        for _ in range(40):
            rep, f, alg = random_model(rng)
            mean = chisini_mean(rep, f, alg)
            noise = rng.normal(scale=2e-9, size=alg.atom_count)
            g = Act(
                rep.space,
                tuple(
                    v + noise[alg.atom_index_of(i)]
                    for i, v in enumerate(mean.act.values)
                ),
            )
            t = expected_utility_functional(rep)
            result = verify_conditionable(t, f, g, alg, mean.tolerance)
            sol = dataclasses.replace(
                mean,
                act=g,
                atom_residuals=tuple(
                    t(f.masked(EventSet(rep.space, atom)))
                    - t(g.masked(EventSet(rep.space, atom)))
                    for atom in alg.atoms
                ),
            )
            assert result.worst_residual == sol.max_residual
            assert result.passed == sol.ok
            assert sol.max_residual == pytest.approx(
                max(r for _, r in sol.residuals), rel=0.0, abs=1e-13
            )
            verdicts.add(sol.ok)
        assert verdicts == {True, False}

    def test_nan_atom_residual_fails_the_solution(self):
        sp = FiniteSpace.uniform(["a", "b", "c"])
        sol = chisini_mean(
            exp_rep(sp), Act(sp, (1.0, 0.0, -1.0)), PartitionAlgebra.finest(sp)
        )
        sol = dataclasses.replace(sol, atom_residuals=(0.0, math.nan, -1.0))
        assert math.isnan(sol.max_residual)
        assert not sol.ok

    def test_worst_union_reports_the_first_nan_atom(self):
        signed = [
            (frozenset({0}), 1e-10),
            (frozenset({2, 1}), math.nan),
            (frozenset({3}), math.nan),
        ]
        worst, event = _worst_union(signed)
        assert math.isnan(worst)
        assert event == (1, 2)
        assert _worst_union(signed[:1]) == (1e-10, (0,))
        assert _worst_union([]) == (0.0, ())


class TestVerifyConditionable:
    @pytest.mark.parametrize("additive", [True, False])
    def test_nan_residual_fails(self, additive):
        # linear below 5 (so the additivity spot check passes), NaN above
        sp = FiniteSpace.uniform(["a", "b"])
        t = PreferenceFunctional(
            space=sp,
            evaluator=lambda act: (
                math.nan if max(act.values) > 5.0 else 0.5 * sum(act.values)
            ),
            additive=additive,
        )
        result = verify_conditionable(
            t, Act(sp, (10.0, 0.0)), Act(sp, (5.0, 5.0)),
            PartitionAlgebra.trivial(sp), 1e-9,
        )
        assert not result.passed
        assert math.isnan(result.worst_residual)
        assert result.worst_event == (0, 1)

    def test_chisini_output_passes(self):
        sp = FiniteSpace.uniform(["a", "b", "c", "d"])
        alg = PartitionAlgebra.from_labels(sp, [["a", "b"], ["c", "d"]])
        rep = exp_rep(sp, 2.0)
        f = Act(sp, (0.5, -1.0, 2.0, 0.0))
        sol = chisini_mean(rep, f, alg)
        t = expected_utility_functional(rep, name="exp2")
        result = verify_conditionable(t, f, sol.act, alg, sol.tolerance)
        assert result.passed

    def test_conditional_mean_fails_for_nonlinear_utility(self):
        # cube utility, f = (0, 1) uniform: the conditional mean is not the
        # Chisini mean because T(mean) = 0.125 != 0.5 = T(f)
        sp = FiniteSpace.uniform(["a", "b"])
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, PowerCurve(3.0))
        )
        f = Act(sp, (0.0, 1.0))
        alg = PartitionAlgebra.trivial(sp)
        mean = conditional_expectation(f, alg)
        assert rep.evaluate(f) == pytest.approx(0.5)
        assert rep.evaluate(mean) == pytest.approx(0.125)
        t = expected_utility_functional(rep)
        result = verify_conditionable(t, f, mean, alg, 1e-9)
        assert not result.passed
        assert result.worst_residual == pytest.approx(0.375, abs=1e-12)

    def test_trivial_algebra_certainty_equivalent(self):
        sp = FiniteSpace.uniform(["a", "b"])
        rep = exp_rep(sp, 1.0)
        f = Act(sp, (0.0, math.log(2.0)))
        ce = solve_certainty_equivalent(rep, f)
        t = expected_utility_functional(rep)
        result = verify_conditionable(
            t, f, Act.constant(sp, ce), PartitionAlgebra.trivial(sp), 1e-9
        )
        assert result.passed

    def test_not_measurable_candidate(self):
        sp = FiniteSpace.uniform(["a", "b"])
        rep = exp_rep(sp)
        t = expected_utility_functional(rep)
        with pytest.raises(NotMeasurable):
            verify_conditionable(
                t,
                Act(sp, (1.0, 2.0)),
                Act(sp, (1.0, 2.0)),
                PartitionAlgebra.trivial(sp),
                1e-9,
            )

    def test_black_box_checks_all_unions(self):
        # a non-additive functional that matches on atoms but not on unions
        sp = FiniteSpace.uniform(["a", "b"])
        alg = PartitionAlgebra.finest(sp)
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, LinearCurve())
        )
        from chisini import PreferenceFunctional

        t = PreferenceFunctional(
            space=sp,
            evaluator=lambda act: rep.evaluate(act) ** 3,
            additive=False,
        )
        f = Act(sp, (1.0, -1.0))
        g = Act(sp, (1.0, -1.0))
        result = verify_conditionable(t, f, g, alg, 1e-9)
        assert result.passed  # f == g trivially matches everywhere
        g2 = Act(sp, (1.0, -0.5))
        result2 = verify_conditionable(t, f, g2, alg, 1e-9)
        assert not result2.passed

    def _union_gap(self, additive):
        # each atom misses by 6e-10 (inside tol), their union by 1.2e-9
        sp = FiniteSpace.uniform(["a", "b"])
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, LinearCurve())
        )
        t = PreferenceFunctional(
            space=sp, evaluator=rep.evaluate, additive=additive
        )
        f = Act(sp, (0.0, 0.0))
        g = Act(sp, (1.2e-9, 1.2e-9))
        return verify_conditionable(t, f, g, PartitionAlgebra.finest(sp), 1e-9)

    def test_additive_union_residual_is_not_missed(self):
        black_box = self._union_gap(additive=False)
        additive = self._union_gap(additive=True)
        assert not black_box.passed
        assert black_box.worst_event == (0, 1)
        assert not additive.passed
        assert additive.worst_event == (0, 1)
        assert additive.worst_residual == pytest.approx(
            black_box.worst_residual, rel=1e-12
        )

    def test_additive_union_picks_the_dominant_sign(self):
        # signed atom residuals (-5e-10, 3.3e-10, 3.3e-10): the worst union
        # gathers the two positive atoms, as the black-box table finds
        sp = FiniteSpace.uniform(["a", "b", "c"])
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, LinearCurve())
        )
        f = Act(sp, (0.0, 0.0, 0.0))
        g = Act(sp, (1.5e-9, -1e-9, -1e-9))
        results = [
            verify_conditionable(
                PreferenceFunctional(
                    space=sp, evaluator=rep.evaluate, additive=additive
                ),
                f,
                g,
                PartitionAlgebra.finest(sp),
                1e-9,
            )
            for additive in (True, False)
        ]
        for result in results:
            assert result.passed
            assert result.worst_event == (1, 2)
            assert result.worst_residual == pytest.approx(2e-9 / 3, rel=1e-12)

    def test_additive_union_matches_black_box_table(self):
        # near-solutions perturbed atom by atom, on random weights (some
        # null) and random partitions of up to 6 outcomes
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            weights = rng.dirichlet(np.ones(n))
            weights[rng.random(n) < 0.2] = 0.0
            if weights.sum() == 0.0:
                weights[0] = 1.0
            weights = weights / weights.sum()
            sp = FiniteSpace(tuple(f"w{i}" for i in range(n)), tuple(weights))
            blocks = {}
            for i, k in enumerate(rng.integers(0, 3, n)):
                blocks.setdefault(int(k), []).append(i)
            alg = PartitionAlgebra(sp, tuple(blocks.values()))
            rep = exp_rep(sp, float(rng.uniform(0.2, 2.0)))
            f = Act(sp, tuple(rng.uniform(-2.0, 2.0, n)))
            mean = chisini_mean(rep, f, alg).act.values
            noise = rng.normal(scale=1e-8, size=alg.atom_count)
            g = Act(
                sp,
                tuple(mean[i] + noise[alg.atom_index_of(i)] for i in range(n)),
            )
            additive, black_box = (
                verify_conditionable(
                    PreferenceFunctional(space=sp, evaluator=rep.evaluate, additive=a),
                    f,
                    g,
                    alg,
                    1e-8,
                )
                for a in (True, False)
            )
            assert additive.worst_residual == pytest.approx(
                black_box.worst_residual, rel=0.0, abs=1e-13
            )


class TestTakingOut:
    def test_full_event(self):
        sp = FiniteSpace.uniform(["a", "b", "c", "d"])
        alg = PartitionAlgebra.from_labels(sp, [["a", "b"], ["c", "d"]])
        rep = exp_rep(sp, 0.5)
        f = Act(sp, (1.0, -0.5, 0.25, 2.0))
        assert taking_out(rep, f, EventSet.full(sp), alg)

    def test_empty_event(self):
        sp = FiniteSpace.uniform(["a", "b"])
        rep = exp_rep(sp)
        assert taking_out(
            rep,
            Act(sp, (1.0, 2.0)),
            EventSet.empty(sp),
            PartitionAlgebra.trivial(sp),
        )

    def test_event_not_in_algebra(self):
        sp = FiniteSpace.uniform(["a", "b", "c", "d"])
        alg = PartitionAlgebra.from_labels(sp, [["a", "b"], ["c", "d"]])
        rep = exp_rep(sp)
        with pytest.raises(EventNotInAlgebra):
            taking_out(rep, Act.constant(sp, 1.0), EventSet.from_labels(sp, ["a"]), alg)

    def test_randomized_suite(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            raw = rng.uniform(0.05, 1.0, size=n)
            sp = FiniteSpace(
                tuple(f"w{i}" for i in range(n)), tuple(raw / raw.sum())
            )
            curves = tuple(
                rng.choice(
                    [
                        ExponentialCurve(float(rng.uniform(0.3, 2.0))),
                        PowerCurve(float(rng.uniform(0.5, 3.0))),
                        LinearCurve(float(rng.uniform(0.5, 2.0))),
                    ]
                )
                for _ in range(n)
            )
            rep = AdditiveRepresentation(StateUtility(sp, curves))
            k = int(rng.integers(1, n + 1))
            order = list(rng.permutation(n))
            atoms, start = [], 0
            cuts = sorted(
                rng.choice(range(1, n), size=k - 1, replace=False)
            ) if k > 1 else []
            for cut in list(cuts) + [n]:
                atoms.append(frozenset(order[start:cut]))
                start = cut
            alg = PartitionAlgebra(sp, tuple(a for a in atoms if a))
            mask = rng.integers(0, 2, size=alg.atom_count)
            members = frozenset(
                i for k2, atom in enumerate(alg.atoms) if mask[k2] for i in atom
            )
            f = Act(sp, tuple(rng.uniform(-2, 2, size=n)))
            assert taking_out(rep, f, EventSet(sp, members), alg)


class TestUniqueness:
    def _setup(self):
        sp = FiniteSpace(("a", "b", "c"), (0.5, 0.5, 0.0))
        rep = exp_rep(sp, 1.0)
        alg = PartitionAlgebra.from_labels(sp, [["a", "b"], ["c"]])
        f = Act(sp, (0.3, -0.6, 5.0))
        return sp, rep, alg, f

    def test_null_modification_is_equivalent(self):
        sp, rep, alg, f = self._setup()
        g1 = chisini_mean(rep, f, alg).act
        g2 = Act(sp, g1.values[:2] + (g1.values[2] + 123.0,))
        assert uniqueness_check(rep, f, alg, g1, g2)

    def test_positive_weight_modification_fails_precondition(self):
        sp, rep, alg, f = self._setup()
        g1 = chisini_mean(rep, f, alg).act
        g2 = Act(sp, (g1.values[0] + 0.1, g1.values[1] + 0.1, g1.values[2]))
        with pytest.raises(PreconditionFailure):
            uniqueness_check(rep, f, alg, g1, g2)

    def test_union_residual_fails_precondition(self):
        # g2's atoms each miss by 6e-10 but their union by 1.2e-9 > tol
        sp = FiniteSpace.uniform(["a", "b"])
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, LinearCurve())
        )
        f = Act(sp, (0.0, 0.0))
        g2 = Act(sp, (1.2e-9, 1.2e-9))
        with pytest.raises(PreconditionFailure, match=r"\(0, 1\)"):
            uniqueness_check(rep, f, PartitionAlgebra.finest(sp), f, g2)

    def test_closed_form_vs_bisection_agree(self):
        sp, rep, alg, f = self._setup()
        g1 = chisini_mean(rep, f, alg, solver="auto").act
        g2 = chisini_mean(rep, f, alg, solver="bisect").act
        assert uniqueness_check(rep, f, alg, g1, g2)


def _counted_projection(monkeypatch):
    """Count ``project_utility`` and ``validate_regular`` calls on the solve
    path."""
    calls = {"project": 0, "validate": 0}
    project, validate = utility_module.project_utility, utility_module.validate_regular

    def counted_project(rep, algebra):
        calls["project"] += 1
        return project(rep, algebra)

    def counted_validate(utility):
        calls["validate"] += 1
        return validate(utility)

    monkeypatch.setattr(utility_module, "project_utility", counted_project)
    monkeypatch.setattr(utility_module, "validate_regular", counted_validate)
    return calls


def _raised(fn):
    """The type and message of what ``fn()`` raises."""
    with pytest.raises(Exception) as raised:
        fn()
    return type(raised.value), str(raised.value)


class TestProjectionCache:
    """A representation projects, and checks regularity, once per algebra;
    the cache keeps no act-dependent state and moves no float."""

    def _acts(self, sp, count=12):
        return [
            Act(sp, tuple(math.sin(1.7 * k + 0.3 * i) * 3.0 for i in range(sp.size)))
            for k in range(count)
        ]

    def test_solving_many_acts_projects_once(self, monkeypatch):
        rep, _, alg = round_robin(16, 4)
        calls = _counted_projection(monkeypatch)
        for f in self._acts(rep.space):
            assert chisini_mean(rep, f, alg).ok
        assert calls == {"project": 1, "validate": 1}
        chisini_mean(rep, f, PartitionAlgebra.trivial(rep.space))
        assert calls == {"project": 2, "validate": 2}

    @pytest.mark.parametrize("solver", ["auto", "bisect"])
    def test_solutions_equal_a_cold_cache(self, solver):
        rng = np.random.default_rng(19)
        for _ in range(40):
            rep, f, alg = random_model(rng)
            for g in [f, *self._acts(rep.space, 3)]:
                warm = chisini_mean(rep, g, alg, solver=solver)
                cold = chisini_mean(
                    AdditiveRepresentation(rep.utility), g, alg, solver=solver
                )
                assert [v.hex() for v in warm.act.values] == [
                    v.hex() for v in cold.act.values
                ]
                assert [r.hex() for r in warm.atom_residuals] == [
                    r.hex() for r in cold.atom_residuals
                ]

    def test_cache_is_outside_eq_hash_repr_and_replace(self, monkeypatch):
        rep, f, alg = round_robin(8, 2)
        cold = AdditiveRepresentation(rep.utility)
        chisini_mean(rep, f, alg)
        assert rep == cold and hash(rep) == hash(cold) and repr(rep) == repr(cold)
        calls = _counted_projection(monkeypatch)
        copy = dataclasses.replace(rep)
        assert copy == rep
        chisini_mean(copy, f, alg)
        assert calls == {"project": 1, "validate": 1}  # a replaced one is cold

    def test_an_equal_algebra_hits_the_cache(self, monkeypatch):
        rep, f, alg = round_robin(12, 3)
        twin = PartitionAlgebra(rep.space, tuple(reversed(alg.atoms)))
        assert twin == alg and twin is not alg
        calls = _counted_projection(monkeypatch)
        first = chisini_mean(rep, f, alg)
        second = chisini_mean(rep, f, twin)
        assert calls == {"project": 1, "validate": 1}
        assert second.algebra is twin
        assert second.act.values == first.act.values

    def test_an_irregular_utility_raises_on_every_call(self, monkeypatch):
        sp = FiniteSpace.uniform(["a", "b"])
        bad = PiecewiseLinearCurve((0.0, 1.0, 2.0), (0.0, 1.0, 1.0))
        rep = AdditiveRepresentation(StateUtility.state_independent(sp, bad))
        calls = _counted_projection(monkeypatch)
        f, alg = Act(sp, (0.5, 1.0)), PartitionAlgebra.trivial(sp)
        first = _raised(lambda: chisini_mean(rep, f, alg))
        assert first[0] is RegularityViolation
        assert _raised(lambda: chisini_mean(rep, f, alg)) == first
        assert calls == {"project": 0, "validate": 2}

    def test_an_algebra_on_another_space_raises_on_every_call(self):
        rep, f, alg = round_robin(4, 2)
        other = FiniteSpace.uniform(["x", "y", "z", "t"])
        elsewhere = PartitionAlgebra.trivial(other)
        g = Act(other, f.values)
        # the uncached steps' errors: f's space, its utilities, the algebra
        h = rep.utility_act(f)
        cases = [
            (f, elsewhere, lambda: conditional_expectation(h, elsewhere)),
            (g, elsewhere, lambda: rep.utility_act(g)),
            (g, alg, lambda: rep.utility_act(g)),
        ]
        for act, algebra, oracle in cases:
            want = _raised(oracle)
            assert want[0] is SpaceMismatchError
            for _ in range(2):
                assert _raised(lambda: chisini_mean(rep, act, algebra)) == want
            chisini_mean(rep, f, alg)  # then again on a warm cache
            assert _raised(lambda: chisini_mean(rep, act, algebra)) == want


def three_pass(rep, f, alg, solver):
    """The solve composed of three passes, as an oracle for the one-pass
    loop: the conditional expectation of the utility act, the generalized
    inverse at each positive atom's first outcome, and V_A(f) summed again
    per atom as a generator.  Returns the act and the V_A(f)."""
    ensure_regular(rep.utility)
    pu = project_utility(rep, alg)
    h = conditional_expectation(rep.utility_act(f), alg)
    values = [0.0] * rep.space.size
    for atom in alg.atoms:
        if rep.space.probability(atom) == 0.0:
            continue
        anchor = min(atom)
        inv = generalized_inverse(pu, anchor, h.values[anchor], method=solver)
        if not math.isfinite(inv):
            raise NumericRangeError(
                f"conditional expected utility {h.values[anchor]!r} on atom "
                f"{sorted(atom)} rounded onto the "
                f"{'upper' if inv > 0 else 'lower'} bound of the projected "
                "image, where the inverse is not a finite float"
            )
        for i in atom:
            values[i] = inv
    v_f = tuple(parent_sum(rep, atom, f) for atom in alg.atoms)
    return Act(rep.space, tuple(values)), v_f


def oracle_case(rng):
    """A random representation, act and algebra: mixed families, knot
    tables, negative gamma, nested mixtures, null outcomes and null atoms;
    the acts are narrow, wide enough to overflow a curve, or constant
    where the entropic image saturates."""
    kinked = PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-2.0, 0.0, 1.0), 2.0, 0.5)
    bent = PiecewiseLinearCurve((-0.5, 0.0, 2.0), (-0.25, 0.0, 3.0), 0.5, 1.0)
    makers = (
        lambda: LinearCurve(rng.uniform(0.5, 2.0)),
        lambda: ExponentialCurve(rng.uniform(0.2, 2.0)),
        lambda: ExponentialCurve(-rng.uniform(0.2, 2.0)),
        lambda: PowerCurve(rng.uniform(0.5, 3.0)),
        lambda: rng.choice((kinked, bent)),
        lambda: MixtureCurve(
            (0.25, 0.75), (ExponentialCurve(rng.uniform(0.2, 2.0)), PowerCurve(2.0))
        ),
    )
    n = rng.randint(1, 6)
    weights = [rng.random() if rng.random() > 0.25 else 0.0 for _ in range(n)]
    if sum(weights) == 0.0:
        weights[rng.randrange(n)] = 1.0
    total = sum(weights)
    space = FiniteSpace(
        tuple(f"w{i}" for i in range(n)), tuple(w / total for w in weights)
    )
    curves = tuple(rng.choice(makers)() for _ in range(n))
    blocks = {}
    for i in range(n):
        blocks.setdefault(rng.randrange(n), []).append(i)
    alg = PartitionAlgebra(space, tuple(frozenset(b) for b in blocks.values()))
    shape = rng.random()
    if shape < 0.6:
        values = [rng.uniform(-2.0, 2.0) for _ in range(n)]
    elif shape < 0.85:
        values = [rng.uniform(-900.0, 900.0) for _ in range(n)]
    else:
        values = [rng.choice((-40.0, 40.0))] * n
    return AdditiveRepresentation(StateUtility(space, curves)), Act(space, values), alg


def parent_sum(rep, members, act):
    """V_A(act) summed as a generator, in the atom's iteration order."""
    weights, curves = rep.space.weights, rep.utility.curves
    return float(sum(weights[i] * curves[i].value(act.values[i]) for i in members))


def three_pass_mean(rep, f, alg, solver):
    """The oracle's act and its certificate: V_A(f) - V_A(g) per atom."""
    g, v_f = three_pass(rep, f, alg, solver)
    return g.values, tuple(v - parent_sum(rep, a, g) for a, v in zip(alg.atoms, v_f))


def _solution(sol):
    return sol.act, sol.atom_residuals


def _outcome(run):
    """``run()``'s float sequences in hex, or the type and message of its
    error."""
    try:
        out = run()
    except (ChisiniError, ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return tuple([v.hex() for v in getattr(seq, "values", seq)] for seq in out)


class TestOnePassSolve:
    """The one-pass solve reads each utility once and moves no float of the
    three-pass composition it replaced."""

    def test_matches_the_three_pass_oracle(self):
        rng = random.Random(20)
        seen = {"solved": 0, "NumericRangeError": 0}
        for case in range(1200):
            rep, f, alg = oracle_case(rng)
            solver = ("auto", "bisect")[case % 2]
            want = _outcome(lambda: three_pass(rep, f, alg, solver))
            got = _outcome(
                lambda: _solve_act(rep, f, rep._regular_projection(f, alg), solver)
            )
            assert got == want, (case, rep, f, alg, solver)
            seen["solved" if isinstance(got[0], list) else got[0]] += 1
            sol = _outcome(lambda: _solution(chisini_mean(rep, f, alg, solver=solver)))
            assert sol == _outcome(lambda: three_pass_mean(rep, f, alg, solver))
        # every path ran: solutions and range errors
        assert seen["solved"] > 600 and seen["NumericRangeError"] > 100

    def test_evaluate_on_event_sums_in_the_old_order(self):
        rng = random.Random(47)
        for _ in range(300):
            rep, f, alg = oracle_case(rng)
            try:
                rep.utility_act(f)
            except NumericRangeError:
                continue
            for atom in alg.atoms:
                want = parent_sum(rep, atom, f)
                assert rep.evaluate_on_event(atom, f).hex() == want.hex()

    def test_each_utility_is_read_once_per_solve(self):
        calls = []

        class Counted(LinearCurve):
            def value(self, x):
                calls.append((self.scale, x))
                return super().value(x)

        sp = FiniteSpace(tuple("abcdef"), (0.1, 0.2, 0.15, 0.05, 0.3, 0.2))
        curves = tuple(Counted(1.0 + 0.25 * i) for i in range(6))
        rep = AdditiveRepresentation(StateUtility(sp, curves))
        alg = PartitionAlgebra.from_labels(sp, [["a", "d"], ["b", "c", "f"], ["e"]])
        f = Act(sp, (1.0, -0.5, 2.0, 0.25, -1.5, 0.75))
        chisini_mean(rep, f, alg)  # projects: the merged atom curves count nothing
        del calls[:]
        sol = chisini_mean(rep, f, alg)
        # u(w, f(w)) once in the solve, u(w, g(w)) once in the certificate
        want = [(c.scale, x) for c, x in zip(curves, f.values)] + [
            (c.scale, x) for c, x in zip(curves, sol.act.values)
        ]
        assert sorted(calls) == sorted(want)
        assert sol.ok

    def test_overflowing_conditional_expected_utility_is_a_range_error(self):
        weights = (0.5848312771401049, 0.10113387810352666, 0.31403484475636856)
        sp = FiniteSpace(("a", "b", "c"), weights)
        rep = AdditiveRepresentation(StateUtility.state_independent(sp, LinearCurve()))
        f = Act.constant(sp, 1.7976931348623157e308)
        with pytest.raises(NumericRangeError) as raised:
            chisini_mean(rep, f, PartitionAlgebra.trivial(sp))
        assert str(raised.value) == (
            "conditional expected utility inf on atom [0, 1, 2] rounded onto the "
            "upper bound of the projected image, where the inverse is not a "
            "finite float"
        )
        rng = random.Random(1)
        for _ in range(2000):
            n = rng.randint(2, 5)
            raw = [rng.random() + 1e-3 for _ in range(n)]
            sp = FiniteSpace(
                tuple(f"w{i}" for i in range(n)), tuple(w / sum(raw) for w in raw)
            )
            for sign in (1.0, -1.0):
                rep = AdditiveRepresentation(
                    StateUtility.state_independent(sp, LinearCurve())
                )
                f = Act.constant(sp, sign * 1.7976931348623157e308)
                try:
                    sol = chisini_mean(rep, f, PartitionAlgebra.trivial(sp))
                except NumericRangeError as exc:
                    bound = "upper" if sign > 0 else "lower"
                    assert f"rounded onto the {bound} bound" in str(exc)
                else:
                    assert all(map(math.isfinite, sol.act.values))
