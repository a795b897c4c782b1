"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every expected value is computed by an oracle independent of the
code path it checks: closed-form inverses are re-derived locally, the
entropic certainty equivalent is computed directly from exponential
moments, and witnesses are re-evaluated from raw arithmetic.
"""

import contextlib
import math
import os
import time

import numpy as np

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
    PreferenceFunctional,
    StateUtility,
    build_u_plus,
    check_conditionable_all_events,
    check_sure_thing,
    chisini_mean,
    choquet_functional,
    conditional_expectation,
    detect_jumps,
    expected_utility_functional,
    generalized_inverse,
    image_interval,
    project_utility,
    repair_continuous,
    taking_out,
    uniqueness_check,
)
from chisini.cli import main as cli_main
from chisini.errors import ContinuityViolation
from chisini.family import ExpectationFamily, check_tower

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


# ---------------------------------------------------------------- oracles

def inverse_linear(scale, y):
    return y / scale


def inverse_exponential(gamma, y):
    return -math.log(1.0 - gamma * y) / gamma


def inverse_power(p, y):
    return math.copysign(abs(y) ** (1.0 / p), y) if y != 0.0 else 0.0


def value_of(kind, param, x):
    if kind == "linear":
        return param * x
    if kind == "exponential":
        return (1.0 - math.exp(-param * x)) / param
    return math.copysign(abs(x) ** param, x) if x != 0.0 else 0.0


def inverse_of(kind, param, y):
    if kind == "linear":
        return inverse_linear(param, y)
    if kind == "exponential":
        return inverse_exponential(param, y)
    return inverse_power(param, y)


def make_curve(kind, param):
    if kind == "linear":
        return LinearCurve(param)
    if kind == "exponential":
        return ExponentialCurve(param)
    return PowerCurve(param)


def random_parametric(rng, gamma_cap=2.0):
    kind = rng.choice(["linear", "exponential", "power"])
    if kind == "linear":
        return kind, float(rng.uniform(0.5, 2.0))
    if kind == "exponential":
        return kind, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.4, gamma_cap))
    return kind, float(rng.uniform(0.6, 3.0))


def random_partition(rng, n, k):
    order = list(rng.permutation(n))
    if k > 1:
        cuts = sorted(rng.choice(range(1, n), size=k - 1, replace=False))
    else:
        cuts = []
    atoms, start = [], 0
    for cut in list(cuts) + [n]:
        atoms.append(frozenset(order[start:cut]))
        start = cut
    return tuple(a for a in atoms if a)


def random_curve(rng, gamma_cap=2.0):
    roll = rng.uniform()
    if roll < 0.75:
        return make_curve(*random_parametric(rng, gamma_cap))
    xs = sorted(set(np.round(rng.uniform(-2, 2, size=4), 3)) | {0.0})
    us, acc = [], 0.0
    prev = xs[0]
    for x in xs:
        acc += (x - prev) * rng.uniform(0.3, 2.0)
        us.append(acc)
        prev = x
    shift = us[xs.index(0.0)]
    us = [u - shift for u in us]
    return PiecewiseLinearCurve(
        tuple(xs), tuple(us), float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0))
    )


def test_criterion_1_atomwise_closed_form():
    with criterion(1, "atomwise closed form on 50 randomized models, 1e-10"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(50):
            n = int(rng.integers(2, 9))
            raw = rng.uniform(0.05, 1.0, size=n)
            sp = FiniteSpace(
                tuple(f"w{i}" for i in range(n)), tuple(raw / raw.sum())
            )
            k = int(rng.integers(2, min(4, n) + 1))
            atoms = random_partition(rng, n, k)
            alg = PartitionAlgebra(sp, atoms)
            # one closed-form family per atom so the projected curve is
            # invertible by the locally re-derived formulas
            specs = [random_parametric(rng) for _ in alg.atoms]
            curves = [None] * n
            for atom, (kind, param) in zip(alg.atoms, specs):
                for i in atom:
                    curves[i] = make_curve(kind, param)
            rep = AdditiveRepresentation(StateUtility(sp, tuple(curves)))
            f = Act(sp, tuple(rng.uniform(-2, 2, size=n)))
            sol = chisini_mean(rep, f, alg)
            for atom, (kind, param) in zip(alg.atoms, specs):
                mass = sum(sp.weights[i] for i in atom)
                avg = (
                    sum(
                        sp.weights[i] * value_of(kind, param, f.values[i])
                        for i in atom
                    )
                    / mass
                )
                want = inverse_of(kind, param, avg)
                got = sol.act.values[min(atom)]
                assert abs(got - want) <= 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_linear_collapse():
    with criterion(2, "linear utility collapses to conditional expectation, 1e-12"):
        rng = np.random.default_rng(102)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            raw = rng.uniform(0.0, 1.0, size=n)
            if raw.sum() == 0.0:
                raw[0] = 1.0
            sp = FiniteSpace(
                tuple(f"w{i}" for i in range(n)), tuple(raw / raw.sum())
            )
            alg = PartitionAlgebra(
                sp, random_partition(rng, n, int(rng.integers(1, n + 1)))
            )
            rep = AdditiveRepresentation(
                StateUtility.state_independent(sp, LinearCurve())
            )
            f = Act(sp, tuple(rng.uniform(-5, 5, size=n)))
            got = chisini_mean(rep, f, alg).act
            want = conditional_expectation(f, alg)
            assert all(
                abs(a - b) <= 1e-12 for a, b in zip(got.values, want.values)
            )


def test_criterion_3_entropic_oracle():
    with criterion(3, "entropic certainty equivalent matches moment oracle, 1e-9"):
        rng = np.random.default_rng(103)
        # the pinned closed-form case
        sp0 = FiniteSpace.uniform(["a", "b"])
        rep0 = AdditiveRepresentation(
            StateUtility.state_independent(sp0, ExponentialCurve(1.0))
        )
        sol0 = chisini_mean(
            rep0, Act(sp0, (0.0, math.log(2.0))), PartitionAlgebra.trivial(sp0)
        )
        assert abs(sol0.act.values[0] - math.log(4.0 / 3.0)) <= 1e-12
        for trial in range(50):
            gamma = float(rng.choice([0.5, 1.0, 2.0]))
            n = int(rng.integers(2, 8))
            raw = rng.uniform(0.05, 1.0, size=n)
            sp = FiniteSpace(
                tuple(f"w{i}" for i in range(n)), tuple(raw / raw.sum())
            )
            alg = PartitionAlgebra(
                sp, random_partition(rng, n, int(rng.integers(1, n + 1)))
            )
            rep = AdditiveRepresentation(
                StateUtility.state_independent(sp, ExponentialCurve(gamma))
            )
            f = Act(sp, tuple(rng.uniform(-2, 2, size=n)))
            sol = chisini_mean(rep, f, alg).act
            w = np.asarray(sp.weights, dtype=float)
            v = np.asarray(f.values, dtype=float)
            for atom in alg.atoms:
                idx = sorted(atom)
                mass = float(w[idx].sum())
                moment = float(
                    np.sum(w[idx] * np.exp(-gamma * v[idx]))
                ) / mass
                want = -math.log(moment) / gamma
                assert abs(sol.values[idx[0]] - want) <= 1e-9


def test_criterion_4_tower_suite():
    with criterion(4, "time-consistency defect below 1e-9*(1+norm) in 200 trials"):
        rng = np.random.default_rng(104)
        trials = 0
        while trials < 200:
            n = int(rng.integers(3, 8))
            raw = rng.uniform(0.05, 1.0, size=n)
            sp = FiniteSpace(
                tuple(f"w{i}" for i in range(n)), tuple(raw / raw.sum())
            )
            curves = tuple(random_curve(rng) for _ in range(n))
            rep = AdditiveRepresentation(StateUtility(sp, curves))
            fam = ExpectationFamily.from_representation(rep)
            trivial = PartitionAlgebra.trivial(sp)
            fine = PartitionAlgebra.finest(sp)
            mid = PartitionAlgebra(
                sp, random_partition(rng, n, int(rng.integers(2, n)))
            )
            x = Act(sp, tuple(rng.uniform(-2, 2, size=n)))
            budget = 1e-9 * (1.0 + x.sup_norm)
            for algebra in (trivial, mid, fine):
                assert check_tower(fam, x, algebra) <= budget
                trials += 1


def test_criterion_5_taking_out_suite():
    with criterion(5, "masking identity holds to 1e-9 in 200 randomized trials"):
        rng = np.random.default_rng(105)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            raw = rng.uniform(0.0, 1.0, size=n)
            if raw.sum() == 0.0:
                raw[0] = 1.0
            sp = FiniteSpace(
                tuple(f"w{i}" for i in range(n)), tuple(raw / raw.sum())
            )
            curves = tuple(random_curve(rng) for _ in range(n))
            rep = AdditiveRepresentation(StateUtility(sp, curves))
            alg = PartitionAlgebra(
                sp, random_partition(rng, n, int(rng.integers(1, n + 1)))
            )
            mask = rng.integers(0, 2, size=alg.atom_count)
            members = frozenset(
                i for k, atom in enumerate(alg.atoms) if mask[k] for i in atom
            )
            f = Act(sp, tuple(rng.uniform(-2, 2, size=n)))
            assert taking_out(rep, f, EventSet(sp, members), alg, tol=1e-9)


def _zoo(space, grid):
    """Twenty functionals: additive ones and monotone transforms of them
    must satisfy the sure-thing principle; distorted Choquet integrals
    must fail it."""
    members = []

    def eu(curve, name):
        rep = AdditiveRepresentation(StateUtility.state_independent(space, curve))
        members.append((expected_utility_functional(rep, grid, name=name), True))

    eu(LinearCurve(1.0), "eu-linear")
    eu(LinearCurve(2.0), "eu-linear-2x")
    eu(ExponentialCurve(0.5), "eu-exp-0.5")
    eu(ExponentialCurve(1.0), "eu-exp-1")
    eu(ExponentialCurve(2.0), "eu-exp-2")
    eu(ExponentialCurve(-1.0), "eu-exp-neg")
    eu(PowerCurve(0.5), "eu-sqrt")
    eu(PowerCurve(2.0), "eu-square")
    eu(PowerCurve(3.0), "eu-cube")
    eu(
        PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-2.0, 0.0, 1.0), 2.0, 0.5),
        "eu-kinked",
    )
    state_dep = AdditiveRepresentation(
        StateUtility(
            space, (ExponentialCurve(1.0), PowerCurve(2.0), LinearCurve(1.5))
        )
    )
    members.append(
        (expected_utility_functional(state_dep, grid, name="eu-state-dep"), True)
    )
    base = AdditiveRepresentation(
        StateUtility.state_independent(space, LinearCurve(1.0))
    )
    members.append(
        (
            PreferenceFunctional(
                space=space,
                evaluator=lambda act: math.tanh(base.evaluate(act)),
                grid=grid,
                name="tanh-of-mean",
            ),
            True,
        )
    )
    members.append(
        (
            PreferenceFunctional(
                space=space,
                evaluator=lambda act: base.evaluate(act) ** 3,
                grid=grid,
                name="cubed-mean",
            ),
            True,
        )
    )
    members.append((choquet_functional(space, 1.0, grid, name="choquet-1"), True))
    for exponent in (0.5, 0.7, 1.5, 2.0, 2.5, 3.0):
        members.append(
            (choquet_functional(space, exponent, grid), False)
        )
    return members


def test_criterion_6_equivalence_zoo():
    with criterion(6, "sure-thing and conditionability verdicts agree on the zoo"):
        start = time.perf_counter()
        space = FiniteSpace.uniform(["low", "mid", "high"])
        grid = (0.0, 1.0, 2.0)
        zoo = _zoo(space, grid)
        assert len(zoo) == 20
        w = np.asarray(space.weights, dtype=float)

        def raw_choquet(vals, c):
            v = np.asarray(vals, dtype=float)
            order = np.argsort(-v, kind="stable")
            sv = v[order]
            nu = np.cumsum(w[order]) ** c
            return float(sv[-1] * nu[-1] + np.sum((sv[:-1] - sv[1:]) * nu[:-1]))

        for functional, should_pass in zoo:
            st = check_sure_thing(functional).check("sure-thing")
            cond = check_conditionable_all_events(functional).check("conditionable")
            assert st.passed == cond.passed, functional.name
            assert st.passed == should_pass, functional.name
            if not st.passed:
                witness = st.witness
                assert witness["margin"] > 1e-9
        # the pinned configuration: distorted capacity P(A)^2
        squared = choquet_functional(space, 2.0, grid)
        st = check_sure_thing(squared).check("sure-thing")
        assert not st.passed
        witness = st.witness
        ev = set(witness["event"])

        def pasted(on, off):
            return [on[i] if i in ev else off[i] for i in range(3)]

        v1 = raw_choquet(pasted(witness["f"], witness["h"]), 2.0)
        v2 = raw_choquet(pasted(witness["g"], witness["h"]), 2.0)
        v3 = raw_choquet(pasted(witness["f"], witness["h_alt"]), 2.0)
        v4 = raw_choquet(pasted(witness["g"], witness["h_alt"]), 2.0)
        assert v1 >= v2 and v4 - v3 > 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_7_inverse_identities():
    with criterion(7, "generalized-inverse round trips at 1e-10 over 10^4 points"):
        rng = np.random.default_rng(107)
        checked = 0
        while checked < 10_000:
            n = int(rng.integers(2, 6))
            raw = rng.uniform(0.05, 1.0, size=n)
            sp = FiniteSpace(
                tuple(f"w{i}" for i in range(n)), tuple(raw / raw.sum())
            )
            # gamma capped at 1: at |y| <= 6 steeper exponentials reach
            # magnitudes ~1e5 where a 1e-10 absolute identity is beyond
            # float64 conditioning regardless of algorithm
            curves = tuple(random_curve(rng, gamma_cap=1.0) for _ in range(n))
            rep = AdditiveRepresentation(StateUtility(sp, curves))
            alg = PartitionAlgebra(
                sp, random_partition(rng, n, int(rng.integers(1, n + 1)))
            )
            pu = project_utility(rep, alg)
            for _ in range(25):
                outcome = int(rng.integers(0, n))
                y = float(rng.uniform(-6.0, 6.0))
                x = pu.value(outcome, y)
                got = generalized_inverse(pu, outcome, x)
                assert math.isfinite(got) and abs(got - y) <= 1e-10
                back = pu.value(outcome, got)
                assert abs(back - x) <= 1e-10
                lo, hi = image_interval(pu, outcome)
                if math.isfinite(hi):
                    above = generalized_inverse(pu, outcome, hi + 0.25)
                    at = generalized_inverse(pu, outcome, hi)
                    assert above == math.inf and at == math.inf
                if math.isfinite(lo):
                    below = generalized_inverse(pu, outcome, lo - 0.25)
                    at = generalized_inverse(pu, outcome, lo)
                    assert below == -math.inf and at == -math.inf
                checked += 1


def test_criterion_8_envelope_refinement():
    with criterion(8, "envelope error on q^3 shrinks monotonically with level"):
        sp = FiniteSpace.uniform(["w"])
        rng = np.random.default_rng(108)
        queries = rng.uniform(-3.9, 3.9, size=200)
        previous = None
        for level in range(2, 13):
            grid = DyadicGrid(level=level, bound=4.0)
            samples = np.array([q ** 3 for q in grid.points()])[None, :]
            gu = DyadicGridUtility(sp, grid, samples)
            step = grid.step
            worst = 0.0
            for x in queries:
                err = abs(build_u_plus(gu, 0, float(x)) - float(x) ** 3)
                # derivative of q^3 just above x; the allowed bound is
                # 3 * slope * step and the envelope meets slope * step
                local_slope = 3.0 * (abs(float(x)) + step) ** 2
                assert err <= local_slope * step + 1e-15
                assert err <= 3.0 * local_slope * step + 1e-15
                worst = max(worst, err)
            if previous is not None:
                assert worst <= previous + 1e-15
            previous = worst


def test_criterion_9_repair_suite():
    with criterion(9, "null-outcome jumps repaired, positive-weight jumps refused"):
        rng = np.random.default_rng(109)
        step = PiecewiseLinearCurve(
            (-1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 1.0, 2.0), 1.0, 1.0
        )
        sp = FiniteSpace(("live", "ghost"), (1.0, 0.0))
        u = StateUtility(sp, (ExponentialCurve(1.0), step))
        report = detect_jumps(u, eps=0.5, bound=2.0)
        repaired = repair_continuous(u, report, sp.weights)
        before = AdditiveRepresentation(u)
        after = AdditiveRepresentation(repaired)
        for _ in range(50):
            f = Act(sp, tuple(rng.uniform(-2, 2, size=2)))
            assert abs(before.evaluate(f) - after.evaluate(f)) <= 1e-12
        refused = 0
        for _ in range(20):
            n = int(rng.integers(2, 6))
            raw = rng.uniform(0.05, 1.0, size=n)
            spn = FiniteSpace(
                tuple(f"w{i}" for i in range(n)), tuple(raw / raw.sum())
            )
            jumpy_at = int(rng.integers(0, n))
            curves = [LinearCurve(1.0)] * n
            curves[jumpy_at] = step
            un = StateUtility(spn, tuple(curves))
            rn = detect_jumps(un, eps=0.5, bound=2.0)
            try:
                repair_continuous(un, rn, spn.weights)
            except ContinuityViolation:
                refused += 1
        assert refused == 20


def test_criterion_10_solver_uniqueness():
    with criterion(10, "closed-form and bisection solvers agree off null sets"):
        rng = np.random.default_rng(110)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            raw = rng.uniform(0.05, 1.0, size=n)
            nulls = rng.uniform(size=n) < 0.25
            raw[nulls] = 0.0
            if raw.sum() == 0.0:
                raw[0] = 1.0
            sp = FiniteSpace(
                tuple(f"w{i}" for i in range(n)), tuple(raw / raw.sum())
            )
            curves = tuple(make_curve(*random_parametric(rng)) for _ in range(n))
            rep = AdditiveRepresentation(StateUtility(sp, curves))
            alg = PartitionAlgebra(
                sp, random_partition(rng, n, int(rng.integers(1, n + 1)))
            )
            f = Act(sp, tuple(rng.uniform(-2, 2, size=n)))
            closed = chisini_mean(rep, f, alg, solver="auto").act
            bisected = chisini_mean(rep, f, alg, solver="bisect").act
            assert uniqueness_check(rep, f, alg, closed, bisected)


def test_criterion_11_cli_determinism(capsys, tmp_path):
    with criterion(11, "every CLI subcommand is byte-deterministic"):
        def model(name):
            return os.path.join(MODELS, name)

        commands = [
            ["validate", "--model", model("partition.json")],
            ["validate", "--model", model("audit_zoo.json")],
            [
                "compute",
                "--model", model("entropic.json"),
                "--utility", "entropic",
                "--act", "log-two",
                "--partition", "trivial",
            ],
            [
                "compute",
                "--model", model("partition.json"),
                "--utility", "mixed",
                "--act", "payoff",
                "--partition", "weather",
            ],
            [
                "audit",
                "--model", model("audit_zoo.json"),
                "--functional", "eu-linear",
            ],
            [
                "audit",
                "--model", model("audit_zoo.json"),
                "--functional", "choquet-squared",
            ],
            [
                "tower",
                "--model", model("partition.json"),
                "--utility", "mixed",
                "--chain", "fine", "weather", "coarse",
            ],
            [
                "repair",
                "--model", model("repair.json"),
                "--utility", "haunted",
                "--out", str(tmp_path / "repaired.json"),
            ],
        ]
        for argv in commands:
            runs = []
            for _ in range(2):
                code = cli_main(argv)
                out = capsys.readouterr().out
                extras = None
                if argv[0] == "repair":
                    with open(argv[-1], "rb") as fh:
                        extras = fh.read()
                runs.append((code, out, extras))
            assert runs[0] == runs[1], argv[0]
            assert runs[0][0] == 0, argv[0]
