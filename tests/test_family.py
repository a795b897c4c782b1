"""Tests for expectation families: locality, time consistency, fixpoints
and the certainty-equivalent audits."""

import math

import numpy as np
import pytest

from chisini import (
    Act,
    AdditiveRepresentation,
    EventSet,
    ExpectationFamily,
    ExponentialCurve,
    FiniteSpace,
    LinearCurve,
    PartitionAlgebra,
    PowerCurve,
    StateUtility,
    audit_certainty_equivalent,
    check_fixpoint_on_measurable,
    check_locality,
    check_tower,
    conditional_expectation,
)
from chisini.conditional import chisini_mean
from chisini.curves import MixtureCurve, PiecewiseLinearCurve, right_continuous_inverse
from chisini.errors import (
    ChisiniError,
    EventNotInAlgebra,
    NotMeasurable,
    RegularityViolation,
    SpaceMismatchError,
)


def family(space, curve):
    rep = AdditiveRepresentation(StateUtility.state_independent(space, curve))
    return ExpectationFamily.from_representation(rep)


class TestEvaluate:
    def test_linear_family_is_conditional_expectation(self):
        sp = FiniteSpace.uniform(["a", "b", "c", "d"])
        fam = family(sp, LinearCurve())
        alg = PartitionAlgebra.from_labels(sp, [["a", "c"], ["b", "d"]])
        f = Act(sp, (1.0, -2.0, 0.5, 3.0))
        assert fam.conditional(f, alg).values == conditional_expectation(f, alg).values

    def test_trivial_algebra_is_certainty_equivalent(self):
        sp = FiniteSpace.uniform(["a", "b"])
        fam = family(sp, ExponentialCurve(1.0))
        f = Act(sp, (0.0, math.log(2.0)))
        out = fam.conditional(f, PartitionAlgebra.trivial(sp))
        assert out.values[0] == out.values[1]
        assert out.values[0] == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
        assert fam.certainty_equivalent(f) == pytest.approx(
            math.log(4.0 / 3.0), abs=1e-12
        )

    def test_normalization(self):
        sp = FiniteSpace.uniform(["a", "b", "c"])
        fam = family(sp, PowerCurve(3.0))
        zero = Act.constant(sp, 0.0)
        alg = PartitionAlgebra.from_labels(sp, [["a"], ["b", "c"]])
        assert fam.conditional(zero, alg).values == (0.0, 0.0, 0.0)
        assert fam.certainty_equivalent(zero) == 0.0


class TestLocality:
    def test_full_and_empty(self):
        sp = FiniteSpace.uniform(["a", "b", "c", "d"])
        fam = family(sp, ExponentialCurve(0.5))
        alg = PartitionAlgebra.from_labels(sp, [["a", "b"], ["c", "d"]])
        f = Act(sp, (1.0, 0.5, -0.5, 2.0))
        assert check_locality(fam, f, alg, EventSet.full(sp))
        assert check_locality(fam, f, alg, EventSet.empty(sp))

    def test_event_must_be_in_algebra(self):
        sp = FiniteSpace.uniform(["a", "b", "c", "d"])
        fam = family(sp, LinearCurve())
        alg = PartitionAlgebra.from_labels(sp, [["a", "b"], ["c", "d"]])
        with pytest.raises(EventNotInAlgebra):
            check_locality(fam, Act.constant(sp, 1.0), alg, EventSet.from_labels(sp, ["a"]))

    def test_randomized_suite(self):
        rng = np.random.default_rng(43)
        sp = FiniteSpace(("a", "b", "c", "d", "e"), (0.1, 0.2, 0.3, 0.15, 0.25))
        rep = AdditiveRepresentation(
            StateUtility(
                sp,
                (
                    ExponentialCurve(1.0),
                    PowerCurve(2.0),
                    LinearCurve(1.3),
                    ExponentialCurve(-0.5),
                    PowerCurve(3.0),
                ),
            )
        )
        fam = ExpectationFamily.from_representation(rep)
        alg = PartitionAlgebra.from_labels(sp, [["a", "d"], ["b"], ["c", "e"]])
        for _ in range(20):
            f = Act(sp, tuple(rng.uniform(-2, 2, size=5)))
            mask = rng.integers(0, 2, size=3)
            members = frozenset(
                i for k, atom in enumerate(alg.atoms) if mask[k] for i in atom
            )
            assert check_locality(fam, f, alg, EventSet(sp, members))


class TestTower:
    def test_linear_tower_is_exact(self):
        sp = FiniteSpace.uniform(["a", "b", "c", "d"])
        fam = family(sp, LinearCurve())
        alg = PartitionAlgebra.from_labels(sp, [["a", "b"], ["c", "d"]])
        f = Act(sp, (1.0, 2.0, -1.0, 0.5))
        assert check_tower(fam, f, alg) <= 1e-12

    def test_constructed_family_is_time_consistent(self):
        rng = np.random.default_rng(47)
        sp = FiniteSpace(("a", "b", "c", "d"), (0.3, 0.2, 0.4, 0.1))
        rep = AdditiveRepresentation(
            StateUtility(
                sp,
                (
                    ExponentialCurve(1.5),
                    ExponentialCurve(0.5),
                    PowerCurve(3.0),
                    LinearCurve(0.8),
                ),
            )
        )
        fam = ExpectationFamily.from_representation(rep)
        alg = PartitionAlgebra.from_labels(sp, [["a", "c"], ["b", "d"]])
        for _ in range(20):
            x = Act(sp, tuple(rng.uniform(-2, 2, size=4)))
            assert check_tower(fam, x, alg) <= 1e-9 * (1.0 + x.sup_norm)

    def test_corrupted_family_has_visible_defect(self):
        # replace the conditional step by the plain conditional mean while
        # keeping the cube-utility certainty equivalent; the tower breaks
        sp = FiniteSpace.uniform(["a", "b"])
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, PowerCurve(3.0))
        )
        proper = ExpectationFamily.from_representation(rep)
        corrupted = ExpectationFamily(
            space=sp,
            evaluator=lambda x, alg: conditional_expectation(x, alg),
            e0=proper.e0,
            rep=rep,
        )
        x = Act(sp, (0.0, 1.0))
        alg = PartitionAlgebra.trivial(sp)
        assert check_tower(proper, x, alg) <= 1e-9 * 2
        assert check_tower(corrupted, x, alg) > 0.01

    def test_full_chain(self):
        rng = np.random.default_rng(53)
        sp = FiniteSpace.uniform([f"w{i}" for i in range(6)])
        rep = AdditiveRepresentation(
            StateUtility.state_independent(sp, ExponentialCurve(1.0))
        )
        fam = ExpectationFamily.from_representation(rep)
        fine = PartitionAlgebra.from_labels(
            sp, [["w0", "w1"], ["w2", "w3"], ["w4", "w5"]]
        )
        coarse = PartitionAlgebra.from_labels(
            sp, [["w0", "w1", "w2", "w3"], ["w4", "w5"]]
        )
        assert fine.refines(coarse)
        for _ in range(10):
            x = Act(sp, tuple(rng.uniform(-1.5, 1.5, size=6)))
            chained = fam.certainty_equivalent(
                fam.conditional(fam.conditional(x, fine), coarse)
            )
            assert abs(chained - fam.certainty_equivalent(x)) <= 1e-9 * (
                1.0 + x.sup_norm
            )

    def test_cash_additivity_linear_only(self):
        sp = FiniteSpace.uniform(["a", "b"])
        alg = PartitionAlgebra.trivial(sp)
        x = Act(sp, (0.0, 1.0))
        c = 0.8
        lin = family(sp, LinearCurve())
        shifted = lin.conditional(x + c, alg).values[0]
        assert shifted == pytest.approx(lin.conditional(x, alg).values[0] + c, abs=1e-12)
        # a state-independent exponential family is cash additive by
        # construction (the entropic certainty equivalent); state-dependent
        # curvature is what breaks translation invariance
        flat = family(sp, ExponentialCurve(1.0))
        assert flat.conditional(x + c, alg).values[0] == pytest.approx(
            flat.conditional(x, alg).values[0] + c, abs=1e-10
        )
        rep = AdditiveRepresentation(
            StateUtility(sp, (ExponentialCurve(1.0), ExponentialCurve(2.0)))
        )
        curved = ExpectationFamily.from_representation(rep)
        lhs = curved.conditional(x + c, alg).values[0]
        rhs = curved.conditional(x, alg).values[0] + c
        assert abs(lhs - rhs) > 1e-3


class TestFixpoint:
    def test_constant_act(self):
        sp = FiniteSpace.uniform(["a", "b", "c"])
        fam = family(sp, ExponentialCurve(2.0))
        alg = PartitionAlgebra.from_labels(sp, [["a"], ["b", "c"]])
        assert check_fixpoint_on_measurable(fam, Act.constant(sp, 0.7), alg)

    def test_simple_measurable_act(self):
        sp = FiniteSpace.uniform(["a", "b", "c", "d"])
        fam = family(sp, PowerCurve(3.0))
        alg = PartitionAlgebra.from_labels(sp, [["a", "b"], ["c", "d"]])
        y = Act(sp, (1.2, 1.2, -0.4, -0.4))
        assert check_fixpoint_on_measurable(fam, y, alg)

    def test_not_measurable_raises(self):
        sp = FiniteSpace.uniform(["a", "b"])
        fam = family(sp, LinearCurve())
        with pytest.raises(NotMeasurable):
            check_fixpoint_on_measurable(
                fam, Act(sp, (1.0, 2.0)), PartitionAlgebra.trivial(sp)
            )


class TestCertaintyEquivalentAudit:
    def test_regular_family_passes(self):
        sp = FiniteSpace.uniform(["a", "b", "c"])
        fam = family(sp, ExponentialCurve(1.0))
        report = audit_certainty_equivalent(fam, (-1.0, 0.0, 1.0), trials=4)
        assert report.passed

    def test_median_fails_strict_monotonicity(self):
        sp = FiniteSpace.uniform(["a", "b", "c"])

        def median(act):
            return float(sorted(act.values)[1])

        fam = ExpectationFamily(
            space=sp,
            evaluator=lambda x, alg: x,
            e0=median,
        )
        report = audit_certainty_equivalent(fam, (-1.0, 0.0, 1.0), trials=6)
        check = report.check("dichotomic-monotonicity")
        assert not check.passed
        w = check.witness
        # re-evaluate the witness directly
        low = [w["x"] if i in w["event"] else w["background"][i] for i in range(3)]
        high = [w["y"] if i in w["event"] else w["background"][i] for i in range(3)]
        assert not sorted(low)[1] < sorted(high)[1]

    def test_jump_utility_fails_continuity(self):
        # curve with a unit step at 0 on a positive-weight outcome: the
        # certainty equivalent built from it cannot be pointwise continuous
        sp = FiniteSpace.uniform(["a", "b"])
        step = PiecewiseLinearCurve(
            (-1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 1.0, 2.0), 1.0, 1.0
        )
        curves = (step, LinearCurve(1.0))
        weights = sp.weights
        aggregate = MixtureCurve(weights, curves)

        def t_u(act):
            return sum(
                p * c.value(v) for p, c, v in zip(weights, curves, act.values)
            )

        def e0(act):
            return right_continuous_inverse(
                aggregate, t_u(act), use_closed_form=False
            )

        fam = ExpectationFamily(space=sp, evaluator=lambda x, alg: x, e0=e0)
        report = audit_certainty_equivalent(fam, (-1.0, 0.0, 1.0), trials=4)
        check = report.check("pointwise-continuity")
        assert not check.passed
        assert check.witness["final_defect"] >= 1e-6

    @pytest.mark.parametrize(
        "grid, message",
        [
            ((), "grid must hold at least one value"),
            ((0.0, float("nan")), "grid values must be finite"),
            ((0.0, float("inf")), "grid values must be finite"),
            ((-float("inf"), 0.0), "grid values must be finite"),
            ((0.0, 1.0, 1.0), "grid values must be distinct"),
        ],
    )
    def test_bad_grid_is_refused(self, grid, message):
        """The grid rule of ``PreferenceFunctional``: a repeated value used
        to fail a monotone family with the witness x = y, and a NaN to be
        reported as a bad act value."""
        fam = family(FiniteSpace.uniform(["a", "b"]), ExponentialCurve(1.0))
        with pytest.raises(ValueError, match=message):
            audit_certainty_equivalent(fam, grid, 2)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_trials_below_one_are_refused(self, trials):
        """Fewer than one trial used to run one, reporting comparisons that
        no requested trial made."""
        fam = family(FiniteSpace.uniform(["a", "b", "c"]), ExponentialCurve(1.0))
        with pytest.raises(ValueError, match="trials must be at least 1"):
            audit_certainty_equivalent(fam, (0.0, 1.0), trials)

    @pytest.mark.parametrize("seed", [7, 2024])
    def test_audit_evaluates_each_distinct_act_once(self, seed):
        # the comparisons, the continuity references and the continuity
        # terms meet some acts more than once; E_0 sees each of them once
        sp = FiniteSpace(("a", "b", "c"), (0.2, 0.5, 0.3))
        rep = AdditiveRepresentation(
            StateUtility(sp, (ExponentialCurve(0.5), PowerCurve(3.0), LinearCurve(1.5)))
        )
        fam = ExpectationFamily.from_representation(rep)
        calls = []

        def e0(x):
            calls.append(x.values)
            return fam.e0(x)

        watched = ExpectationFamily(fam.space, fam.evaluator, e0, fam.rep)
        report = audit_certainty_equivalent(watched, (0.0, 1.0), 4, seed=seed)
        assert report.passed
        assert report.check("dichotomic-monotonicity").details["comparisons"] == 28
        assert len(calls) == len(set(calls))
        # the count of distinct solves, pinned: a change that does not mean
        # to move it must leave it alone
        assert len(calls) == {7: 3720, 2024: 3721}[seed]
        assert report.to_dict() == audit_certainty_equivalent(
            fam, (0.0, 1.0), 4, seed=seed
        ).to_dict()

    @pytest.mark.parametrize(
        "weights",
        [
            (0.2, 0.5, 0.3),
            (0.0, 0.6, 0.4),
            # 3**4 grid acts exceed 64, so the continuity bases are sampled
            (0.1, 0.0, 0.5, 0.4),
        ],
    )
    def test_audit_hands_e0_finite_floats_on_its_space(self, weights):
        # the audit builds its continuity acts without the constructor's
        # checks; every act must still pass them, at the largest floats too
        sp = FiniteSpace(tuple("abcd"[: len(weights)]), weights)
        grid = (-1.7976931348623157e308, 0.0, 1.7976931348623157e308)

        def bounded(act):
            return math.fsum(p * math.atan(v) for p, v in zip(sp.weights, act.values))

        def checked(act):
            assert act.space == sp
            assert len(act.values) == sp.size
            assert all(type(v) is float and math.isfinite(v) for v in act.values)
            return bounded(act)

        def rebuilt(act):
            return bounded(Act(act.space, act.values))

        # the audit reads E_0 alone
        report = audit_certainty_equivalent(ExpectationFamily(sp, None, checked), grid, 4)
        assert report.to_dict() == audit_certainty_equivalent(
            ExpectationFamily(sp, None, rebuilt), grid, 4
        ).to_dict()


KINKED = PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-2.0, 0.0, 1.0), 2.0, 0.5)
BENT = PiecewiseLinearCurve((-0.5, 0.0, 2.0), (-0.25, 0.0, 3.0), 0.5, 1.0)


def random_family_model(rng, kind):
    """A seeded space (some outcomes null when ``kind`` is "null"), one curve
    per outcome of the kind's families, and three algebras: a random
    partition, the singletons and the trivial one."""
    n = int(rng.integers(2, 7))
    weights = rng.dirichlet(np.ones(n))
    if kind == "null":
        weights[rng.random(n) < 0.35] = 0.0
        if weights.sum() == 0.0:
            weights[0] = 1.0
    sp = FiniteSpace(tuple(f"w{i}" for i in range(n)), tuple(weights / weights.sum()))
    pools = {
        "mixture": (ExponentialCurve(0.4), ExponentialCurve(-1.3), PowerCurve(0.5),
                    PowerCurve(2.5), LinearCurve(1.7)),
        "knots": (KINKED, BENT, LinearCurve(0.6)),
        "closed": (ExponentialCurve(0.7),),
        "null": (ExponentialCurve(1.0), PowerCurve(3.0), KINKED),
    }[kind]
    curves = tuple(pools[int(k)] for k in rng.integers(0, len(pools), n))
    blocks = {}
    for i, k in zip(rng.permutation(n), rng.integers(0, n, n)):
        blocks.setdefault(int(k), []).append(int(i))
    algebras = (
        PartitionAlgebra(sp, tuple(frozenset(b) for b in blocks.values())),
        PartitionAlgebra(sp, tuple(frozenset([i]) for i in range(n))),
        PartitionAlgebra.trivial(sp),
    )
    return AdditiveRepresentation(StateUtility(sp, curves)), algebras


def hex_values(act):
    return [v.hex() for v in act.values]


class TestFastPathOracle:
    """The family solves without the certificate, on the projection of each
    algebra that its representation keeps; ``chisini_mean`` is the
    independent reference and every float and error must match it exactly."""

    @pytest.mark.parametrize(
        "seed, kind", list(enumerate(["mixture", "knots", "closed", "null"]))
    )
    def test_family_matches_chisini_mean_float_hex(self, seed, kind):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            rep, algebras = random_family_model(rng, kind)
            fam = ExpectationFamily.from_representation(rep)
            n = rep.space.size
            # 40 acts per algebra on one family: later solves reuse the
            # projections that earlier ones made
            for _ in range(40):
                x = Act(rep.space, tuple(rng.uniform(-3.0, 3.0, size=n)))
                for alg in algebras:
                    assert hex_values(fam.conditional(x, alg)) == hex_values(
                        chisini_mean(rep, x, alg).act
                    )
                trivial = chisini_mean(rep, x, algebras[-1]).act.values[0]
                assert fam.e0(x).hex() == trivial.hex()
                assert fam.certainty_equivalent(x).hex() == trivial.hex()

    def test_continuity_sequence_matches_chisini_mean(self, monkeypatch):
        # continuity sequences toward one base, with nearby targets: E_0
        # seeds each solve from the last on its one kept curve, while the
        # reference solves cold, on a fresh representation every time
        import chisini.curves as curves

        seeded = []
        newton = curves._newton

        def recorded(fn, target, a, fa, b, fb, last=(math.nan, math.nan)):
            seeded.append(a < last[1] < b)
            return newton(fn, target, a, fa, b, fb, last)

        monkeypatch.setattr(curves, "_newton", recorded)
        sp = FiniteSpace(("a", "b", "c"), (0.2, 0.5, 0.3))
        utility = StateUtility(
            sp, (ExponentialCurve(0.5), PowerCurve(3.0), LinearCurve(1.5))
        )
        fam = ExpectationFamily.from_representation(AdditiveRepresentation(utility))
        trivial = PartitionAlgebra.trivial(sp)
        base, direction = Act(sp, (1.0, 0.0, 1.0)), Act(sp, (-1.0, 1.0, 1.0))
        warm = 0
        for k in range(200):
            x = base + direction * (2.0 ** (1 - k % 64)) * (1.0 + k // 64)
            del seeded[:]
            got = fam.e0(x).hex()
            warm += sum(seeded)
            del seeded[:]
            cold = chisini_mean(AdditiveRepresentation(utility), x, trivial)
            assert got == cold.act.values[0].hex() and not any(seeded)
        assert warm >= 150

    def test_e0_counts_on_a_state_dependent_family(self, monkeypatch):
        # the Newton runs and guide probes of one audit; before each curve
        # kept its last solve, every run started at the secant point of its
        # bracket, and the counts read 3,723 and 20,718
        import chisini.curves as curves

        counts = [0, 0]
        newton = curves._newton

        def recorded(fn, *args):
            counts[0] += 1

            def probe(x):
                counts[1] += 1
                return fn(x)

            return newton(probe, *args)

        monkeypatch.setattr(curves, "_newton", recorded)
        sp = FiniteSpace(("a", "b", "c"), (0.2, 0.5, 0.3))
        rep = AdditiveRepresentation(
            StateUtility(sp, (ExponentialCurve(0.5), PowerCurve(3.0), LinearCurve(1.5)))
        )
        fam = ExpectationFamily.from_representation(rep)
        assert audit_certainty_equivalent(fam, (0.0, 1.0), trials=2, seed=7).passed
        assert counts == [3261, 10112]

    def test_overflowing_probe_matches_chisini_mean(self):
        # the bracket's probe at x = -1024 overflows the exponential part,
        # and every solve reads it alike
        sp = FiniteSpace.uniform(["a", "b"])
        rep = AdditiveRepresentation(
            StateUtility(sp, (ExponentialCurve(1.0), LinearCurve(1.0)))
        )
        fam = ExpectationFamily.from_representation(rep)
        for c in (-600.0, -600.0, -650.0, -600.0):
            x = Act.constant(sp, c)
            assert fam.e0(x) == c
            assert fam.e0(x) == chisini_mean(rep, x, PartitionAlgebra.trivial(sp)).act.values[0]

    @pytest.mark.parametrize(
        "curves, values",
        [
            # h = 1 - e^-40 rounds onto the upper bound 1/gamma of the image
            ((ExponentialCurve(1.0),) * 3, (40.0, 40.0, 40.0)),
            # the utility overflows
            ((ExponentialCurve(1.0),) * 3, (-800.0, -800.0, -800.0)),
            # a mixture whose utility is not finite at one outcome
            ((ExponentialCurve(0.5), PowerCurve(3.0), LinearCurve(1.5)), (0.0, 0.0, 1.5e308)),
            # a mixture whose inverse cannot be bracketed
            ((ExponentialCurve(0.5), PowerCurve(3.0), LinearCurve(1.5)), (0.0, 0.0, 1e308)),
        ],
    )
    def test_e0_error_matches_chisini_mean(self, curves, values):
        sp = FiniteSpace(("a", "b", "c"), (0.2, 0.5, 0.3))
        rep = AdditiveRepresentation(StateUtility(sp, curves))
        fam = ExpectationFamily.from_representation(rep)
        x = Act(sp, values)
        with pytest.raises(ChisiniError) as expected:
            chisini_mean(rep, x, PartitionAlgebra.trivial(sp))
        with pytest.raises(ChisiniError) as raised:
            fam.e0(x)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)

    def test_irregular_utility_raises_on_every_call(self):
        sp = FiniteSpace.uniform(["a", "b"])
        flat = PiecewiseLinearCurve((0.0, 1.0, 2.0), (0.0, 1.0, 1.0))
        fam = family(sp, flat)
        x = Act(sp, (0.5, 1.0))
        for _ in range(3):
            with pytest.raises(RegularityViolation):
                fam.e0(x)
            with pytest.raises(RegularityViolation):
                fam.conditional(x, PartitionAlgebra.from_labels(sp, [["a"], ["b"]]))

    def test_e0_looks_its_curve_up_once(self, monkeypatch):
        lookups = []
        lookup = AdditiveRepresentation._regular_projection

        def counted(self, f, algebra):
            lookups.append(algebra)
            return lookup(self, f, algebra)

        monkeypatch.setattr(AdditiveRepresentation, "_regular_projection", counted)
        sp = FiniteSpace(("a", "b", "c"), (0.2, 0.5, 0.3))
        rep = AdditiveRepresentation(
            StateUtility(sp, (ExponentialCurve(0.5), PowerCurve(3.0), LinearCurve(1.5)))
        )
        fam = ExpectationFamily.from_representation(rep)
        for k in range(5):
            fam.e0(Act(sp, (0.5 * k, 1.0, -0.25)))
        assert lookups == [PartitionAlgebra.trivial(sp)]

    def test_irregular_part_of_a_mixture_raises_on_every_e0_call(self):
        sp = FiniteSpace.uniform(["a", "b"])
        rep = AdditiveRepresentation(
            StateUtility(sp, (ExponentialCurve(0.5), LinearCurve(-1.0)))
        )
        fam = ExpectationFamily.from_representation(rep)
        for _ in range(2):
            with pytest.raises(RegularityViolation):
                fam.e0(Act(sp, (0.5, 1.0)))

    def test_algebra_on_another_space_fails_as_chisini_mean_does(self):
        sp = FiniteSpace.uniform(["a", "b"])
        other = FiniteSpace.uniform(["a", "b", "c"])
        rep = AdditiveRepresentation(StateUtility.state_independent(sp, PowerCurve(3.0)))
        fam = ExpectationFamily.from_representation(rep)
        x = Act(sp, (0.5, 1.0))
        for solve in (lambda alg: chisini_mean(rep, x, alg).act, lambda alg: fam.conditional(x, alg)):
            with pytest.raises(SpaceMismatchError, match="do not share a finite space"):
                solve(PartitionAlgebra.trivial(other))

    def test_family_rebuilt_from_its_fields_keeps_working(self):
        # a tracer rebuilds a family from its four fields around a wrapped e0
        sp = FiniteSpace(("a", "b", "c"), (0.2, 0.5, 0.3))
        rep = AdditiveRepresentation(
            StateUtility(sp, (ExponentialCurve(0.5), PowerCurve(3.0), LinearCurve(1.5)))
        )
        fam = ExpectationFamily.from_representation(rep)
        rebuilt = ExpectationFamily(
            space=fam.space, evaluator=fam.evaluator, e0=lambda x: fam.e0(x), rep=fam.rep
        )
        alg = PartitionAlgebra.from_labels(sp, [["a", "c"], ["b"]])
        for values in ((1.0, 0.0, -1.0), (0.3, 2.0, -0.5)):
            x = Act(sp, values)
            assert hex_values(rebuilt.conditional(x, alg)) == hex_values(
                chisini_mean(rep, x, alg).act
            )
            assert rebuilt.certainty_equivalent(x) == chisini_mean(
                rep, x, PartitionAlgebra.trivial(sp)
            ).act.values[0]
        assert audit_certainty_equivalent(rebuilt, (0.0, 1.0), trials=2).passed
