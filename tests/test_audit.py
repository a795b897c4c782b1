"""Tests for the preference-functional audits: strict monotonicity, the
sure-thing principle, conditionability and the equivalence harness."""

import dataclasses
import gc
import json
import math
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from functools import partial
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

from chisini import (
    Act,
    AdditiveRepresentation,
    AuditReport,
    CheckResult,
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
    paste,
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
from cap_counts import cap_functional
from chisini.modelfile import load_model
from hexfloats import float_hex, normalized

TESTS = Path(__file__).resolve().parent


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
        # the witness search reads each two-level and pasted act once; the
        # walk of the witness's event finishes before the witness is built
        assert len(calls) == 1009
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


#: numpy 2.x sends float64 ``**`` to AVX-512 code where the CPU has it, whose
#: floats differ from libm's ``pow``; this setting, read by numpy at import
#: in the process it is set for, keeps it on the path without AVX-512
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}


ORACLE_EXPONENTS = (0.5, 1.0, 2.0, 3.7, -1.0, -0.5)


def choquet_oracle_cases(n):
    """The oracle test's space on n outcomes, with skewed weights where
    every third outcome, the first included, is null, and its (exponent,
    values) cases, drawn from a generator seeded with n.  The exponents
    take each of numpy's scalar-power paths, and the negative ones meet
    0 ** -p on the null outcomes."""
    rng = np.random.default_rng(n)
    raw = [0.0 if i % 3 == 0 and n > 1 else rng.random() ** 3 for i in range(n)]
    sp = FiniteSpace([f"w{i}" for i in range(n)], [r / sum(raw) for r in raw])
    draws = (
        lambda: rng.choice([-1.0, 0.0, -0.0, 1.0, 2.0], size=n),
        lambda: rng.uniform(-50.0, 50.0, size=n),
        lambda: rng.uniform(-1e-3, 1e-3, size=n),
    )
    cases = [
        (p, draw().tolist())
        for p in ORACLE_EXPONENTS
        for draw in draws
        for _ in range(100)
    ]
    return sp, cases


@pytest.fixture(scope="module")
def numpy_oracle_hex():
    """The numpy oracle's float hex on every case of 1 to 12 outcomes,
    computed in a child interpreter with numpy off its AVX-512 path."""
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(TESTS)!r}]\n"
        "from test_audit import choquet_oracle_cases, numpy_choquet\n"
        "out = {}\n"
        "for n in range(1, 13):\n"
        "    sp, cases = choquet_oracle_cases(n)\n"
        "    out[n] = [numpy_choquet(sp.weights, p)(v).hex() for p, v in cases]\n"
        "print(json.dumps(out))\n"
    )
    env = dict(os.environ, **NO_AVX512)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(audit.__file__).parent.parent)]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return {int(n): hexes for n, hexes in json.loads(proc.stdout).items()}


class TestChoquetEvaluator:
    """The evaluator sorts in Python, reads one capacity row per rank order,
    built in Python, and sums left to right; the numpy expression, run with
    numpy off its AVX-512 path, is its oracle, float for float, on both
    sides of np.sum's 8-term pairwise threshold."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_numpy_oracle(self, n, numpy_oracle_hex):
        sp, cases = choquet_oracle_cases(n)
        functionals = {p: choquet_functional(sp, p) for p in ORACLE_EXPONENTS}
        got = [float_hex(functionals[p](Act(sp, values))) for p, values in cases]
        mismatched = [c for c, a, b in zip(cases, got, numpy_oracle_hex[n]) if a != b]
        assert len(got) == len(numpy_oracle_hex[n]) == 300 * len(ORACLE_EXPONENTS)
        assert mismatched == []

    def test_one_capacity_row_per_rank_order(self):
        sp = uniform3()
        t = choquet_functional(sp, 2.0)
        rows = capacity_rows(t)
        t(Act(sp, (3.0, 1.0, 2.0)))
        t(Act(sp, (30.0, -1.0, 0.5)))
        assert rows.cache_info().misses == 1
        t(Act(sp, (1.0, 3.0, 2.0)))
        info = rows.cache_info()
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


def reference_solves(t, mask, f):
    """Both constant solves of the value tuple f, on events[mask] and off
    it, each run uncached."""
    n = t.space.size
    return tuple(
        audit._solve_constant(
            t, m, tuple(v for i, v in enumerate(f) if m >> i & 1), max(map(abs, f))
        )
        for m in (mask, ((1 << n) - 1) ^ mask)
    )


def two_level(t, mask, x, y):
    """t(x on events[mask], y off it), evaluated on a checked act."""
    n = t.space.size
    return t(Act(t.space, [x if mask >> i & 1 else y for i in range(n)]))


def reference_certainty_equivalent_witness(t):
    """The certainty-equivalent phase as one loop per proper event over the
    grid acts, each with its own uncached solves and its own evaluation of
    t(x on A, y off A); an act whose bracket fails is skipped."""
    n = t.space.size
    full = (1 << n) - 1
    for mask in range(1, full):
        event = EventSet(t.space, {i for i in range(n) if mask >> i & 1})
        complement = EventSet(t.space, set(range(n)) - event.members)
        for values in product(t.grid, repeat=n):
            try:
                (x, x_lo, x_hi, _, _), (y, y_lo, y_hi, _, _) = reference_solves(
                    t, mask, values
                )
            except BisectionBracketFailure:
                continue
            f = Act(t.space, values)
            tol = audit.WITNESS_MARGIN * (1.0 + max(map(abs, values)))
            tf, tg = t(f), two_level(t, mask, x, y)
            if abs(tf - tg) <= tol:
                continue
            x_act = Act.constant(t.space, x)
            t_mid = t(paste(x_act, f, event))
            if abs(tf - t_mid) > tol / 2.0:
                witness = audit._one_sided_flip(
                    t, f, event, (x_lo, x_hi), completion=f, gap=tf - t_mid
                )
            else:
                witness = audit._one_sided_flip(
                    t, f, complement, (y_lo, y_hi), completion=x_act, gap=t_mid - tg
                )
            if witness is not None:
                return witness
    return None


def reference_conditionable(t, mask):
    """Conditionability on the algebra of events[mask] as one loop over
    the grid acts, each with its own uncached solves, so that the first
    bracket failure raises at its act, and its own evaluation of t(g) for
    g = (x on A, y off A), read from the solve on the empty and full
    event.  Returns the first failing act's witness and the worst
    residual."""
    n = t.space.size
    full = (1 << n) - 1
    witness, worst = None, 0.0
    for values in product(t.grid, repeat=n):
        (x, _, _, on_target, on_value), (y, _, _, off_target, off_value) = (
            reference_solves(t, mask, values)
        )
        if mask in (0, full):
            split = off_value if mask == 0 else on_value
        else:
            split = two_level(t, mask, x, y)
        residuals = {
            "event": abs(on_target - on_value),
            "complement": abs(off_target - off_value),
            "full": abs(t(Act(t.space, values)) - split),
        }
        tol = audit.WITNESS_MARGIN * (1.0 + max(map(abs, values)))
        resid = max(residuals.values())
        worst = max(worst, resid)
        if resid > tol and witness is None:
            witness = {
                "act": list(Act(t.space, values).values),
                "event": [i for i in range(n) if mask >> i & 1],
                "x": x,
                "y": y,
                "residuals": residuals,
                "tolerance": tol,
            }
    return witness, worst


def reference_conditionable_all(t):
    """Conditionability on every event, folded in ascending bitmask order."""
    witness, worst = None, 0.0
    for mask in range(1 << t.space.size):
        found, resid = reference_conditionable(t, mask)
        worst = max(worst, resid)
        if witness is None:
            witness = found
    return audit._report(t, "conditionable", witness, {"worst_residual": worst})


def reference_harness(t):
    """The equivalence harness over the reference searches."""
    if t.additive:
        spot_check_additivity(t)
    st = brute_force_sure_thing(t).check("sure-thing")
    cond = reference_conditionable_all(t).check("conditionable")
    agreement = CheckResult(
        "verdict-agreement",
        st.passed == cond.passed,
        details={"sure_thing": st.passed, "conditionable": cond.passed},
    )
    return AuditReport(t.name or "functional", (st, cond, agreement))


def brute_force_sure_thing(t):
    """The sure-thing audit with its grid phase as a loop over every ordered
    (f, g) pair of grid acts.  Each pasted act's value is looked up by its
    value tuple, and (h, h_alt, event) comes from a plain lexicographic
    loop; the certainty-equivalent phase is
    :func:`reference_certainty_equivalent_witness`."""
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
        witness = reference_certainty_equivalent_witness(t)
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


#: bumps on the certificate's edges: the margin, one ulp either side of it,
#: and a half and a double of it
EDGE_BUMPS = (
    MARGIN, math.nextafter(MARGIN, 0.0), math.nextafter(MARGIN, math.inf),
    0.5 * MARGIN, 2.0 * MARGIN,
)


def edge_table(seed):
    """A derandomized grid-table functional on the certificate's edges: a
    separable sum of coarse per-outcome steps, so with exact ties, some
    entries bumped by +-EDGE_BUMPS, and in about one table in three one
    entry set to -0.0, NaN or +-inf."""
    rng = random.Random(seed)
    n, g = rng.choice([(2, 3), (3, 2), (3, 3), (4, 2), (2, 4)])
    scale = rng.choice([MARGIN, 1.0, 1e6, 0.0])
    steps = [[scale * rng.randrange(3) for _ in range(g)] for _ in range(n)]
    density = rng.choice([0.0, 0.05, 0.2])
    table = []
    for digits in product(range(g), repeat=n):
        v = 0.0
        for i, d in enumerate(digits):
            v += steps[i][d]
        if rng.random() < density:
            v += rng.choice((1.0, -1.0)) * rng.choice(EDGE_BUMPS)
        table.append(v)
    if rng.random() < 0.3:
        special = rng.choice([-0.0, math.nan, math.inf, -math.inf])
        table[rng.randrange(len(table))] = special
    space = FiniteSpace.uniform([f"w{i}" for i in range(n)])
    grid = tuple(float(d) for d in range(g))
    return grid_table_functional(space, grid, table, f"edge-{seed}")


def matricization(enum, mask):
    """The act indices of events[mask]'s value table as a mode
    matricization of the g x ... x g index array: rows number the grid
    digits off the event, columns those on it, first outcome most
    significant.  The reference for the layout that ``offsets`` encodes."""
    on = [i for i in range(enum.n) if mask >> i & 1]
    off = [i for i in range(enum.n) if not mask >> i & 1]
    cube = np.arange(enum.count).reshape((enum.g,) * enum.n)
    return cube.transpose(off + on).reshape(enum.g ** len(off), enum.g ** len(on))


@pytest.mark.parametrize("n, g", [*product(range(1, 5), range(1, 4)), (6, 2)])
def test_offsets_lay_out_the_matricization(n, g, monkeypatch):
    """Each table that the sure-thing search compares, built from
    ``offsets``, is the event's matricization, and ``part`` splits each act
    into its column's and its row's first acts."""
    space = FiniteSpace.uniform([f"w{i}" for i in range(n)])
    t = grid_table_functional(  # the value of act i is i
        space, tuple(map(float, range(g))), list(map(float, range(g**n)))
    )
    enum = audit._GridEnumeration(t)
    tables, flip_partners = [], audit._flip_partners

    def recorded(column, table):
        tables.append(table)
        return flip_partners(column, table)

    monkeypatch.setattr(audit, "_flip_partners", recorded)
    masks = range(enum.full + 1)
    # no pair flips, and act 0, first in every column 0, tests every event
    assert audit._first_flipping_pair(enum, list(masks)) is None
    assert len(tables) >= len(masks)
    for mask, table in zip(masks, tables):
        want = matricization(enum, mask)
        assert np.array_equal(table, want), mask
        rows, cols = enum.offsets(enum.full ^ mask), enum.offsets(mask)
        assert np.array_equal(np.add.outer(rows, cols), want), mask
        for ai in range(enum.count):
            on, off = enum.part(ai, mask), enum.part(ai, enum.full ^ mask)
            assert on + off == ai and on in cols and off in rows, (mask, ai)
            assert want[rows.index(off), cols.index(on)] == ai, (mask, ai)


def certified(t):
    """How many of the events searched for a grid flip the no-flip
    certificate proves, and how many there are."""
    enum = audit._GridEnumeration(t)
    return sum(map(partial(audit._flip_free, enum), range(enum.full))), enum.full


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestFlipFreeCertificate:
    """An event that ``_flip_free`` certifies holds no pair of columns that
    ``_flip_partners``, the grid search's test, finds flipping in either
    order; skipping it leaves the search's first pair as it was."""

    def test_certified_events_hold_no_flip(self):
        proved = refused = 0
        for seed in range(400):
            enum = audit._GridEnumeration(edge_table(seed))
            finite = all(map(math.isfinite, enum.values))
            for mask in range(enum.full):
                if not audit._flip_free(enum, mask):
                    refused += 1
                    continue
                assert finite, (seed, mask)
                proved += 1
                table = np.array(enum.values)[matricization(enum, mask)]
                for column in table.T[:, :, None]:
                    assert not audit._flip_partners(column, table).any(), (seed, mask)
        assert (proved, refused) == (1459, 1309)

    @pytest.mark.parametrize("seed", range(0, 400, 7))
    def test_search_over_uncertified_events_finds_the_same_pair(self, seed):
        enum = audit._GridEnumeration(edge_table(seed))
        every = list(range(enum.full))
        searched = [m for m in every if not audit._flip_free(enum, m)]
        pair = audit._first_flipping_pair(enum, every)
        assert audit._first_flipping_pair(enum, searched) == pair
        if pair is not None:
            assert audit._first_flip(enum, *pair, searched) == audit._first_flip(
                enum, *pair, every
            )

    def test_axioms_zoo_counts(self):
        sp = FiniteSpace(("a", "b", "c"), (0.2, 0.3, 0.5))
        grid = (-1.0, 0.0, 1.0, 2.0)
        mixed = StateUtility(
            sp, (ExponentialCurve(0.5), PowerCurve(3.0), LinearCurve(1.5))
        )
        zoo = [
            choquet_functional(sp, 2.0, grid),
            choquet_functional(sp, 0.5, grid),
            eu(sp, ExponentialCurve(1.0), grid),
            expected_utility_functional(AdditiveRepresentation(mixed), grid),
        ]
        assert [certified(t) for t in zoo] == [(4, 7), (4, 7), (7, 7), (7, 7)]

    @pytest.mark.parametrize(
        "name", ["eu-linear", "eu-entropic", "choquet-squared", "choquet-root"]
    )
    def test_audit_zoo_is_certified(self, name):
        model = load_model(TESTS.parent / "models" / "audit_zoo.json")
        assert certified(model.functional(name)) == (7, 7)

    def test_expected_utility_at_5x5_is_certified(self):
        assert certified(cap_functional(5, 5)) == (31, 31)


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


def signed_zero_functional():
    """The mean of three outcomes plus 1e-3 per coordinate at -0.0, on a
    grid holding -0.0: t(f * 1_A), masked with +0.0, is not the value of
    the grid act that equals f * 1_A under ==, which has -0.0 off A."""
    space = uniform3()

    def evaluate(act):
        minus_zeros = sum(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in act.values)
        return sum(act.values) / 3.0 + 1e-3 * minus_zeros

    return PreferenceFunctional(
        space=space, evaluator=evaluate, grid=(-1.0, -0.0, 1.0), name="signed-zero"
    )


def _oracle_functionals():
    return [
        eu(uniform3(), ExponentialCurve(0.5), (0.0, 1.0, 2.0), name="eu"),
        _null_outcome_functionals()[0],
        choquet_functional(uniform3(), 2.0, (0.0, 1.0, 2.0)),
        random_grid_table(4, 3, 3),  # not monotone: some brackets fail
        signed_zero_functional(),
    ]


def bracket_failure_functional(name, ends):
    """t(f) = a + b on two uniform outcomes over the grid (0, 1, 2), but
    10.0 at each act of ``ends``: the bracket end t(-2 * 1_A) = 10 of an
    event A makes every solve on A with sup|f| = 1 fail, first at the act
    (0, 1)."""
    overridden = {values: 10.0 for values in ends}
    return PreferenceFunctional(
        space=FiniteSpace.uniform(["a", "b"]),
        evaluator=lambda act: overridden.get(act.values, sum(act.values)),
        grid=(0.0, 1.0, 2.0),
        name=name,
    )


def _bracket_failure_functionals():
    """Functionals whose first failed act, (0, 1), fails its solve on
    {a} only, on {b} only, and on both, with different messages."""
    on_a, on_b = (-2.0, 0.0), (0.0, -2.0)
    return [
        bracket_failure_functional("fails-on-a", [on_a]),
        bracket_failure_functional("fails-on-b", [on_b]),
        bracket_failure_functional("fails-on-both", [on_a, on_b]),
    ]


def nan_residual_functional():
    """a + b on two uniform outcomes over the grid (0, 1, 2), but for the
    constants x and y that solve f = (1, 0) on {a} and on {b}: NaN at
    x * 1_{a} and 100 at (x, y).  At that act the walk on {a} reads the
    residuals (NaN, c, 99) in its order and the walk on {b} (c, NaN, 99):
    max skips the act on {a} and takes 99 on {b}."""
    space = FiniteSpace.uniform(["a", "b"])
    base = PreferenceFunctional(
        space=space, evaluator=lambda act: sum(act.values), grid=(0.0, 1.0, 2.0)
    )
    x = audit._solve_constant(base, 0b01, (1.0,), 1.0)[0]
    y = audit._solve_constant(base, 0b10, (0.0,), 1.0)[0]
    special = {(x, 0.0): float("nan"), (x, y): 100.0}
    return dataclasses.replace(
        base,
        evaluator=lambda act: special.get(act.values, sum(act.values)),
        name="nan-residual",
    )


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
        for t in [random_grid_table(4, 3, 3)] + _bracket_failure_functionals():
            enum = audit._GridEnumeration(t)
            for mask in range(len(enum.events)):
                for ai in range(enum.count):
                    try:
                        enum.constant(mask, ai)
                    except BisectionBracketFailure:
                        pass
            # the event walks keep their bracket failures too, each pair's
            # made on the read of either event
            failures = [enum.event_pass(mask)[2] for mask in range(len(enum.events))]
            assert any(failures), t.name
            del failures
            freed = weakref.ref(enum)
            gc.disable()
            try:
                del enum  # reference counting alone must free it
                assert freed() is None, t.name
            finally:
                gc.enable()
        # also after a search raises a stored failure: the raised error is
        # a copy, so the stored one gets no frames that hold the enumeration
        enum = audit._GridEnumeration(random_grid_table(4, 3, 3))
        freed = weakref.ref(enum)
        gc.disable()
        try:
            with pytest.raises(BisectionBracketFailure):
                audit._conditionable_all(enum)
            del enum
            assert freed() is None
        finally:
            gc.enable()

    def test_solution_value_is_the_evaluators(self, monkeypatch):
        # a marked functional's solve reads t(x * 1_A) at its solution from
        # the closed form: the evaluator's float, but for the sign of a zero
        calls = []
        call = PreferenceFunctional.__call__
        monkeypatch.setattr(
            PreferenceFunctional, "__call__", lambda t, f: calls.append(f) or call(t, f)
        )
        rng = random.Random(33)
        marked = [(t, key) for t in _oracle_functionals()[:3]
                  for key in _grid_keys(t)]
        for make, solve_key in ((_marked_functional, _solve_key),
                                (_random_choquet, _choquet_key)) * 300:
            t = make(rng)
            marked += [(t, solve_key(rng, t)) for _ in range(10)]
        tally = Counter()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for t, (mask, on, sup) in marked:
                family = "eu" if t.monotone else "choquet"
                assert t.monotone or t._choquet
                calls.clear()
                try:
                    x, _, _, _, value = audit._solve_constant(t, mask, on, sup)
                except ChisiniError:
                    continue
                # the target and the bracket ends, and the value where the
                # form is not read: a flat map, x = 0.0, an infinite capacity
                read = len(calls) == 3
                masked = tuple(x if mask >> i & 1 else 0.0 for i in range(t.space.size))
                want = call(t, Act(t.space, masked))
                if float.hex(value) != float.hex(want):
                    # the one difference allowed: the sign of a zero, which
                    # |target - value| drops
                    assert value == want == 0.0, (t.name, mask, on, sup, value, want)
                tally[family, read] += 1
                tally[family, read, value == 0.0] += 1
        assert tally["eu", True] > 2_000 and tally["choquet", True] > 2_000, tally
        assert tally["choquet", True, True] > 10, tally  # zeros from the form
        assert tally["eu", False] > 500 and tally["choquet", False] > 500, tally

    def test_each_event_search_is_built_once(self):
        t = choquet_functional(uniform3(), 2.0, (-1.0, 0.0, 1.0, 2.0))
        expected = equivalence_harness(t).to_dict()
        row, reads = t._choquet, []

        def counted(order):
            reads.append(order)
            return row(order)

        object.__setattr__(t, "_choquet", counted)
        assert equivalence_harness(t).to_dict() == expected
        # the (A, A^c), (A^c, A) and identity rows, once for each of the 8
        # events, not once per solve
        assert len(reads) == 3 * 8


def _grid_keys(t):
    """Every (mask, values on A, sup) solve key of a functional's grid acts."""
    n = t.space.size
    return {
        (mask, tuple(v for i, v in enumerate(f) if mask >> i & 1), max(map(abs, f)))
        for mask in range(1 << n)
        for f in product(t.grid, repeat=n)
    }


def _walk_oracle_functionals():
    """The solve oracle's functionals, the non-monotone ones (NaN values,
    failed brackets on a clean grid), and tables whose certainty-equivalent
    phase meets mismatches."""
    return (
        _oracle_functionals()
        + _non_monotone_functionals()
        + [random_grid_table(seed, 2, 3, bump) for seed, bump in
           ((4, 0.7), (7, -0.7), (13, 2.5))]
        + _bracket_failure_functionals()
        + [nan_residual_functional()]
    )


def report_outcome(audit_fn, *args):
    """The report as float-hex (NaNs compare equal), or the error's type
    and message."""
    try:
        return float_hex(audit_fn(*args).to_dict())
    except ChisiniError as exc:
        return type(exc).__name__, str(exc)


class TestEventWalkOracle:
    """One walk per event serves both searches; each search's report, or
    its bracket failure, equals that of its own loop with its own solves
    and two-level evaluations."""

    @pytest.mark.parametrize("t", _walk_oracle_functionals(), ids=lambda t: t.name)
    def test_sure_thing_matches_reference(self, t):
        expected = report_outcome(brute_force_sure_thing, t)
        assert report_outcome(check_sure_thing, t) == expected

    @pytest.mark.parametrize("t", _walk_oracle_functionals(), ids=lambda t: t.name)
    def test_conditionable_all_events_matches_reference(self, t):
        expected = report_outcome(reference_conditionable_all, t)
        assert report_outcome(check_conditionable_all_events, t) == expected

    @pytest.mark.parametrize("t", _walk_oracle_functionals(), ids=lambda t: t.name)
    def test_conditionable_on_each_event_matches_reference(self, t):
        n = t.space.size

        def reference(t, event):
            mask = sum(1 << i for i in event.members)
            witness, worst = reference_conditionable(t, mask)
            details = {"event": sorted(event.members), "worst_residual": worst}
            return audit._report(t, "conditionable", witness, details)

        for mask in range(1 << n):
            event = EventSet(t.space, {i for i in range(n) if mask >> i & 1})
            expected = report_outcome(reference, t, event)
            assert report_outcome(check_conditionable_on_event, t, event) == expected

    @pytest.mark.parametrize("t", _walk_oracle_functionals(), ids=lambda t: t.name)
    def test_harness_matches_reference(self, t):
        expected = report_outcome(reference_harness, t)
        assert report_outcome(equivalence_harness, t) == expected

    @pytest.mark.parametrize("t", _walk_oracle_functionals(), ids=lambda t: t.name)
    def test_walk_made_with_the_complement_matches_reference(self, t):
        # events[mask]'s walk made on the read of its complement's
        full = (1 << t.space.size) - 1
        for mask in range(full + 1):
            enum = audit._GridEnumeration(t)
            enum.event_pass(full ^ mask)
            witness, worst, failure, _ = enum.passes[mask]
            try:
                expected = float_hex(reference_conditionable(t, mask))
            except BisectionBracketFailure as exc:
                expected = type(exc).__name__, str(exc)
            if failure is None:
                assert float_hex([witness, worst]) == expected, mask
            else:
                assert (type(failure).__name__, str(failure)) == expected, mask

    @pytest.mark.parametrize(
        "name, on_a, on_b",
        [
            ("fails-on-a", "target 0", "target 0"),
            ("fails-on-b", "target 1", "target 1"),
            ("fails-on-both", "target 0", "target 1"),
        ],
    )
    def test_each_walk_raises_its_own_first_failure(self, name, on_a, on_b):
        # at the act (0, 1) the walk on {a} tries the solve on {a} first,
        # and the walk on {b} the solve on {b}, also where the walk on {b}
        # is made with the walk on {a}
        (t,) = [f for f in _bracket_failure_functionals() if f.name == name]
        range_ = "outside masked-value range [10, 2]"
        for members, expected in (({0}, on_a), ({1}, on_b)):
            event = EventSet(t.space, members)
            with pytest.raises(BisectionBracketFailure) as info:
                check_conditionable_on_event(t, event)
            assert str(info.value) == f"{expected} {range_}"
        enum = audit._GridEnumeration(t)
        enum.event_pass(0b01)
        assert [str(enum.passes[mask][2]) for mask in (0b01, 0b10)] == [
            f"{on_a} {range_}", f"{on_b} {range_}"
        ]

    def test_functionals_reach_every_branch(self):
        phases, raised = {}, set()
        for t in _walk_oracle_functionals():
            check = check_sure_thing(t).check("sure-thing")
            phases[t.name] = check.details["witness_phase"]
            try:
                check_conditionable_all_events(t)
            except BisectionBracketFailure:
                raised.add(t.name)
        assert set(phases.values()) == {"grid", "certainty-equivalent", "none"}
        # sure-thing skips the failed brackets that conditionability raises
        assert phases["decreasing"] == phases["nan-everywhere"] == "none"
        assert {"decreasing", "nan-everywhere", "table-3x3-4-ties"} <= raised


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
        # they rise to the plain loop's if the search silently falls back
        # to the evaluator or the guide to the plain loop
        calls = []
        evaluate = AdditiveRepresentation.evaluate

        def counted(self, f):
            calls.append(f)
            return evaluate(self, f)

        monkeypatch.setattr(AdditiveRepresentation, "evaluate", counted)
        t = eu(uniform3(), ExponentialCurve(0.5), (0.0, 1.0, 2.0))
        guided = equivalence_harness(t)
        assert len(calls) == 177
        calls.clear()
        plain = equivalence_harness(dataclasses.replace(t))
        assert len(calls) == 4259
        assert guided.to_dict() == plain.to_dict()

    def test_choquet_matches_the_plain_loop(self, monkeypatch):
        # count the evaluator calls, three in a solve whose search and value
        # read the closed form
        calls = []
        call = PreferenceFunctional.__call__

        def run(t, key):
            calls_before = len(calls)
            got = _outcome(audit._solve_constant, t, *key)
            closed = len(calls) - calls_before == 3
            want = _outcome(audit._solve_constant, dataclasses.replace(t), *key)
            if got != want:
                differ.append((t.space.weights, t.name, key, got, want))
            return closed, want

        monkeypatch.setattr(
            PreferenceFunctional, "__call__", lambda t, f: calls.append(f) or call(t, f)
        )
        rng = random.Random(26)
        differ, kinds, cases, served = [], Counter(), 0, 0
        with np.errstate(divide="ignore", over="ignore"):  # 0 ** -p is inf
            while cases < 6_000:
                t = _random_choquet(rng)
                assert t._choquet and not dataclasses.replace(t)._choquet
                for _ in range(10):
                    key = _choquet_key(rng, t)
                    closed, want = run(t, key)
                    cases += 1
                    if isinstance(want, str):
                        kinds["raised"] += 1
                    elif want[1] == want[2]:
                        kinds["flat"] += 1
                    else:
                        whole = key[0] == (1 << t.space.size) - 1
                        nonnegative = float.fromhex(want[3]) >= 0.0
                        kinds[whole, nonnegative] += 1
                        served += not closed
        # around the root's ulp neighbourhood, where the masked value below 0
        # is not monotone in floats: the closed form must wiggle as the
        # evaluator does
        steps = Counter()
        for _ in range(20):
            t, mask = _wiggly_choquet(rng)
            v = -rng.uniform(1e4, 1e5)  # ulps wider than BISECT_TOL
            seen = []
            for j in range(25):
                x = v + j * math.ulp(v)
                closed, want = run(t, (mask, (x,) * bin(mask).count("1"), -x))
                steps["closed"] += closed
                seen.append(float.fromhex(want[3]))
            steps["down"] += sum(b < a for a, b in zip(seen, seen[1:]))
        assert differ == []
        assert kinds["raised"] > 50 and kinds["flat"] > 100
        assert kinds[False, True] > 1_500 and kinds[False, False] > 1_000
        assert kinds[True, True] > 300 and kinds[True, False] > 200
        # at any target and on any event, no evaluator call between the
        # bracket and the returned value unless a capacity is infinite
        # (0 ** -p), where a bracket end is mostly NaN or infinite and the
        # bracket fails first
        assert served < 30, served
        assert steps["closed"] == 500, steps
        assert steps["down"] > 20, steps

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
        assert len(calls) == 307
        calls.clear()
        plain = equivalence_harness(dataclasses.replace(t))
        assert len(calls) == 8102
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


def _overflowing_choquet(rng):
    """A Choquet functional and a proper event A whose (A, A^c) and
    (A^c, A) capacity rows are finite while the identity row, the rank
    order of 0, is not: an exponent near 1e19 sends a weight sum that
    rounds above 1.0 in outcome order to inf, and t(0) is then NaN."""
    while True:
        n = rng.randint(3, 5)
        weights = [rng.random() for _ in range(n)]
        space = FiniteSpace(tuple(f"w{i}" for i in range(n)), normalized(weights))
        t = choquet_functional(space, rng.uniform(1e19, 1e20))
        if math.isfinite(t._choquet(tuple(range(n)))[-1]):
            continue
        for mask in range(1, (1 << n) - 1):
            if _finite_rows(t, mask)[:2] == (True, True):
                return t, mask


def _finite_rows(t, mask):
    """Whether each of the (A, A^c), (A^c, A) and identity capacity rows
    of a Choquet functional is finite, for A = the outcomes in ``mask``."""
    n = t.space.size
    inside = [mask >> i & 1 for i in range(n)]
    orders = (
        [i for i in range(n) if inside[i]] + [i for i in range(n) if not inside[i]],
        [i for i in range(n) if not inside[i]] + [i for i in range(n) if inside[i]],
        list(range(n)),
    )
    return tuple(all(map(math.isfinite, t._choquet(tuple(o)))) for o in orders)


class TestMaskedValueClosedForm:
    """The function each constant solve hands to bisection equals t(x * 1_A)
    as floats, but for the sign of a zero, and calls the evaluator only
    where the functional's closed form does not hold."""

    @staticmethod
    def searched(t, key):
        """The solve's search function and solution, or None where the
        solve raises or its map is flat."""
        fns = []

        def counted(fn, *args):
            fns.append(fn)
            return bisect_increasing(fn, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(audit, "bisect_increasing", counted)
            try:
                x = audit._solve_constant(t, *key)[0]
            except ChisiniError:
                return None
        return (fns[0], x) if fns else None

    def check(self, rng, t, key, tally):
        """Compare the search function with the evaluator on the bracket's
        ends, signed zeros, subnormals, +-1e5, random points and the ulps
        around the solution; returns whether it read the evaluator."""
        found = self.searched(t, key)
        if found is None:
            tally["skipped"] += 1
            return None
        fn, root = found
        mask, _, sup = key
        hi = sup + 1.0
        xs = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e5, -1e5, -hi, hi]
        xs += [rng.uniform(-hi, hi) for _ in range(5)]
        xs += [root + j * math.ulp(root) for j in range(-3, 4)]
        calls, read = [], set()
        call = PreferenceFunctional.__call__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                PreferenceFunctional, "__call__", lambda t, f: calls.append(f) or call(t, f)
            )
            for x in (x for x in xs if -hi <= x <= hi):
                before = len(calls)
                got = fn(x)
                read.add(len(calls) > before)
                want = t(Act(t.space, tuple(x if mask >> i & 1 else 0.0
                                            for i in range(t.space.size))))
                # + 0.0 drops the sign of a zero, and keeps a NaN
                if float.hex(got + 0.0) != float.hex(want + 0.0):
                    tally["differ"].append((t.name, t.space.weights, key, x, got, want))
                tally["probes"] += 1
                tally["zero"] += x == 0.0
        assert len(read) == 1  # the form or the evaluator, never both
        return read.pop()

    def test_expected_utility(self):
        rng = random.Random(29)
        tally = Counter(differ=[])
        for _ in range(300):
            t = _marked_functional(rng)
            for _ in range(5):
                mask, on, sup = _solve_key(rng, t)
                if rng.random() < 0.3:  # a bracket out to about 1e5
                    sup = max(sup, rng.uniform(3.0, 1e5))
                read = self.check(rng, t, (mask, on, sup), tally)
                assert read is not True, (t, mask, on, sup)
        assert tally["differ"] == []
        assert tally["probes"] > 15_000 and tally["zero"] > 1_500
        assert tally["skipped"] < 800

    def test_choquet(self):
        rng = random.Random(30)
        tally = Counter(differ=[])
        read = Counter()

        def check(t, key):
            evaluator = self.check(rng, t, key, tally)
            if evaluator is not None:
                finite = all(_finite_rows(t, key[0]))
                assert evaluator == (not finite), (t.name, t.space.weights, key)
                read[evaluator, key[0] == (1 << t.space.size) - 1] += 1

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for _ in range(300):  # zero weights, negative exponents: 0 ** -p
                t = _random_choquet(rng)
                for _ in range(5):
                    check(t, _choquet_key(rng, t))
            for make in (_wiggly_choquet, _overflowing_choquet):
                for _ in range(20):
                    t, mask = make(rng)
                    k = bin(mask).count("1")
                    for v in (-rng.uniform(1e4, 1e5), rng.uniform(-3.0, 3.0)):
                        check(t, (mask, (v,) * k, abs(v)))
        assert tally["differ"] == []
        assert tally["probes"] > 15_000 and tally["zero"] > 1_500
        # the evaluator serves on the whole space only where a bracket end
        # is NaN too, and the solve raises before its search
        assert read[False, False] > 500 and read[False, True] > 100
        assert read[True, False] > 40 and read[True, True] == 0, read


def _knot_curve():
    return PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-1.0, 0.0, 2.0), 1.0, 2.0)


class TestGuideRouting:
    """Only an expected-utility functional whose curves all pass
    ``_float_monotone`` is marked ``monotone`` and takes the Newton guide,
    and only a Choquet functional ``_choquet``, whose solves run the plain
    loop on the closed form; everything else runs it on the evaluator."""

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

    def test_choquet_runs_the_plain_loop_on_its_form(self, monkeypatch):
        # every Choquet solve, at either target sign and on every event, runs
        # bisection with no guide and no known pair.  Its search reads the
        # closed form, and so does the solution's value, so each solve makes
        # three evaluator calls, the target and the bracket ends, and a solve
        # on the flat empty event a fourth, its value
        pairs, newton, calls = [], [], []
        call = PreferenceFunctional.__call__

        def counted(fn, target, lo, hi, known=None):
            pairs.append(known)
            return bisect_increasing(fn, target, lo, hi, known)

        monkeypatch.setattr(audit, "bisect_increasing", counted)
        monkeypatch.setattr(audit, "_newton", lambda *args: newton.append(args))
        monkeypatch.setattr(
            PreferenceFunctional, "__call__", lambda t, f: calls.append(f) or call(t, f)
        )
        t = choquet_functional(uniform3(), 2.0, (-1.0, 0.0, 1.0, 2.0))
        assert t._choquet and not t.monotone
        full = (1 << t.space.size) - 1
        kinds = Counter()
        for mask in range(full + 1):
            for f in product(t.grid, repeat=t.space.size):
                on = tuple(v for i, v in enumerate(f) if mask >> i & 1)
                before, calls_before = len(pairs), len(calls)
                target = audit._solve_constant(t, mask, on, max(map(abs, f)))[3]
                # no bisection on the flat empty event
                assert pairs[before:] == ([] if mask == 0 else [None]), (mask, f)
                assert len(calls) - calls_before == (3 if mask else 4), (mask, f)
                kinds[mask, target >= 0.0] += 1
        assert newton == []
        # both signs on each of the 7 events with members; the empty event's
        # target is t(0) = 0
        assert len(kinds) == 15 and min(kinds.values()) >= 16, kinds

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


class TestSignedZeroGrid:
    """With -0.0 on the grid, f * 1_A is no grid act: a solve's target is
    evaluated, not read from the value table by an equal value tuple."""

    def test_harness_matches_reference(self):
        t = signed_zero_functional()
        space = t.space
        assert t(Act(space, (-0.0,) * 3)) != t(Act(space, (0.0,) * 3))
        assert report_outcome(equivalence_harness, t) == report_outcome(
            reference_harness, t
        )


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

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: the sure-thing margin and the conditionability "
        "tolerance do not scale with the compared values, so round-off at "
        "large utilities reads as a violation",
    )
    @pytest.mark.parametrize(
        "curve, grid",
        [
            (ExponentialCurve(1.0), (-14.0, 0.0, 1.0)),
            (LinearCurve(1.0), (-1e9, 0.0, 1.0)),
            (PowerCurve(3.0), (-1e3, 0.0, 1.0)),
        ],
        ids=["exponential-1", "linear-1", "power-3"],
    )
    def test_expected_utility_agrees_at_large_values(self, curve, grid):
        report = equivalence_harness(eu(uniform3(), curve, grid))
        assert report.check("verdict-agreement").passed

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
        # each t(x on A, y off A) is evaluated in its event's walk, after
        # that act's constant solves and before the next act's: so an
        # evaluator refusing (x, x, y) for f = (0, 2, 1) on A = {a, b} has
        # seen the same distinct acts whether t(g) is kept or evaluated on
        # every read.  Solving every act's constants before evaluating the
        # event's two-level acts would raise after 1,758 and 2,184.
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
