"""Tests for the scalar curve families and their inverses."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chisini import (
    Curve,
    ExponentialCurve,
    LinearCurve,
    MixtureCurve,
    PiecewiseLinearCurve,
    PowerCurve,
)
from chisini.curves import (
    BISECT_TOL,
    _newton,
    bisect_increasing,
    merge_piecewise_linear,
    right_continuous_inverse,
)
from chisini.errors import ChisiniError, NumericRangeError


class TestParametricFamilies:
    def test_linear(self):
        c = LinearCurve(2.0)
        assert c.value(3.0) == 6.0
        assert c.inverse_exact(6.0) == 3.0
        assert not math.isfinite(c.lower_limit())
        assert not math.isfinite(c.upper_limit())

    def test_exponential_value_matches_formula(self):
        c = ExponentialCurve(1.0)
        assert abs(c.value(math.log(2)) - 0.5) < 1e-15
        assert c.value(0.0) == 0.0

    def test_exponential_image(self):
        assert ExponentialCurve(2.0).upper_limit() == 0.5
        assert not math.isfinite(ExponentialCurve(2.0).lower_limit())
        assert ExponentialCurve(-2.0).lower_limit() == -0.5
        assert not math.isfinite(ExponentialCurve(-2.0).upper_limit())

    def test_exponential_inverse_round_trip(self):
        for gamma in (0.5, 1.0, 2.0, -1.3):
            c = ExponentialCurve(gamma)
            for x in (-2.0, -0.1, 0.0, 0.7, 3.0):
                assert abs(c.inverse_exact(c.value(x)) - x) < 1e-12

    def test_power_cube_root(self):
        c = PowerCurve(3.0)
        assert c.inverse_exact(8.0) == 2.0
        assert c.value(-2.0) == -8.0
        assert c.inverse_exact(-8.0) == -2.0

    @pytest.mark.parametrize(
        "curve, x",
        [
            (ExponentialCurve(1.0), -800.0),
            (ExponentialCurve(-1.0), 800.0),
            (PowerCurve(3.0), 1e120),
            (PowerCurve(3.0), -1e120),
        ],
        ids=["exp", "exp-neg", "power", "power-neg"],
    )
    def test_overflow_is_a_typed_arithmetic_error(self, curve, x):
        with pytest.raises(NumericRangeError, match="overflows") as raised:
            curve.value(x)
        assert isinstance(raised.value, ChisiniError)
        assert isinstance(raised.value, ArithmeticError)

    def test_parameter_validation(self):
        assert ExponentialCurve(0.0).regularity_issues()
        assert PowerCurve(-1.0).regularity_issues()
        assert LinearCurve(0.0).regularity_issues()
        assert not ExponentialCurve(0.7).regularity_issues()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_parameters_must_be_finite(self, bad):
        # PowerCurve(inf) is 0 on (-1, 1) and LinearCurve(inf) is NaN at 0
        for curve in (
            LinearCurve(bad), PowerCurve(bad), ExponentialCurve(bad),
            PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0), bad, 1.0),
            PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0), 1.0, bad),
        ):
            assert curve.regularity_issues(), curve
        assert not LinearCurve(1e308).regularity_issues()
        assert not PowerCurve(1e308).regularity_issues()
        steep = PiecewiseLinearCurve((0.0, 1.0), (0.0, 1.0), 1e308, 1e308)
        assert not steep.regularity_issues()


class TestPiecewiseLinear:
    def test_interpolation_and_extrapolation(self):
        c = PiecewiseLinearCurve((-1.0, 0.0, 2.0), (-2.0, 0.0, 1.0), 3.0, 0.5)
        assert c.value(-1.0) == -2.0
        assert c.value(1.0) == 0.5
        assert c.value(-2.0) == -2.0 + 3.0 * (-1.0)
        assert c.value(3.0) == 1.0 + 0.5
        assert c.value(0.0) == 0.0

    def test_inverse_round_trip(self):
        c = PiecewiseLinearCurve((-1.0, 0.0, 2.0), (-2.0, 0.0, 1.0), 3.0, 0.5)
        for x in (-5.0, -1.0, -0.3, 0.0, 1.7, 2.0, 6.0):
            assert abs(c.inverse_exact(c.value(x)) - x) < 1e-12

    def test_jump_encoding_right_continuous(self):
        # u(x) = x + 1_{x >= 0}
        c = PiecewiseLinearCurve(
            (-1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 1.0, 2.0), 1.0, 1.0
        )
        assert c.value(-1e-9) == pytest.approx(-1e-9)
        assert c.value(0.0) == 1.0
        assert c.value(0.5) == 1.5
        assert c.jumps(-2.0, 2.0) == [(0.0, 1.0)]
        assert c.inverse_exact(0.5) is None

    def test_regularity_issues(self):
        flat = PiecewiseLinearCurve((0.0, 1.0, 2.0), (0.0, 1.0, 1.0))
        assert any("strictly increasing" in m for _, m in flat.regularity_issues())
        shifted = PiecewiseLinearCurve((0.0, 1.0), (0.1, 1.0))
        assert any("not 0" in m for _, m in shifted.regularity_issues())
        bad_slope = PiecewiseLinearCurve((0.0, 1.0), (0.0, 1.0), slope_left=-1.0)
        assert any("slope" in m for _, m in bad_slope.regularity_issues())
        good = PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0))
        assert good.regularity_issues() == []

    def test_rejects_decreasing_x(self):
        with pytest.raises(ValueError):
            PiecewiseLinearCurve((1.0, 0.0), (0.0, 1.0))

    @given(
        st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=2, max_size=6, unique=True
        ),
        st.floats(-12, 12, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_inverse_identity_on_random_tables(self, xs, x):
        xs = sorted(xs)
        us = [xs[0]]
        for a, b in zip(xs, xs[1:]):
            us.append(us[-1] + (b - a) * 1.7 + 0.1)
        c = PiecewiseLinearCurve(tuple(xs), tuple(us), 0.8, 1.9)
        y = c.value(x)
        assert abs(c.inverse_exact(y) - x) < 1e-9 * (1 + abs(x))


class TestMixture:
    def test_value_is_weighted_average(self):
        m = MixtureCurve((0.25, 0.75), (LinearCurve(1.0), LinearCurve(3.0)))
        assert m.value(2.0) == 0.25 * 2.0 + 0.75 * 6.0

    def test_limits_propagate(self):
        m = MixtureCurve(
            (0.5, 0.5), (ExponentialCurve(1.0), ExponentialCurve(2.0))
        )
        assert m.upper_limit() == pytest.approx(0.5 * 1.0 + 0.5 * 0.5)
        assert not math.isfinite(m.lower_limit())

    def test_one_unbounded_part_makes_the_limit_infinite(self):
        for parts in (
            (ExponentialCurve(1.0), LinearCurve(2.0)),
            (LinearCurve(2.0), ExponentialCurve(1.0)),
        ):
            m = MixtureCurve((0.25, 0.75), parts)
            assert m.upper_limit() == math.inf
            assert m.lower_limit() == -math.inf

    def test_bounded_limit_is_the_left_to_right_weighted_sum(self):
        weights = (0.1, 0.2, 0.7)
        gammas = (3.0, 3.0, 7.0)  # a compensated sum rounds these differently
        total = 0.0
        for w, g in zip(weights, gammas):
            total += w * (1.0 / g)
        assert total != math.fsum(w * (1.0 / g) for w, g in zip(weights, gammas))
        m = MixtureCurve(weights, tuple(ExponentialCurve(g) for g in gammas))
        assert m.upper_limit() == total
        m = MixtureCurve(weights, tuple(ExponentialCurve(-g) for g in gammas))
        assert m.lower_limit() == -total

    def test_bisection_inverse(self):
        m = MixtureCurve(
            (0.5, 0.5), (ExponentialCurve(1.0), PowerCurve(3.0))
        )
        for x in (-1.5, -0.2, 0.0, 0.4, 2.0):
            y = m.value(x)
            got = right_continuous_inverse(m, y, use_closed_form=False)
            assert abs(got - x) < 1e-11

    @pytest.mark.parametrize(
        "weights",
        [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (0.0, 1.0), (0.5, 0.6)],
        ids=["nan-first", "nan-second", "inf", "zero", "sum"],
    )
    def test_rejects_bad_weights(self, weights):
        with pytest.raises(ValueError, match="mixture weights must"):
            MixtureCurve(weights, (LinearCurve(1.0), LinearCurve(3.0)))

    def test_bisection_matches_closed_form(self):
        c = ExponentialCurve(1.5)
        for x in (-2.0, 0.3, 1.1):
            y = c.value(x)
            a = right_continuous_inverse(c, y, use_closed_form=True)
            b = right_continuous_inverse(c, y, use_closed_form=False)
            assert abs(a - b) < 1e-12


class _Sinh(Curve):
    """A curve outside the closed families, whose value raises a plain
    OverflowError beyond |x| ~ 710."""

    def value(self, x):
        return math.sinh(x)


class _SteepLinear(LinearCurve):
    """A subclass whose value is not its parent's: the table must call it."""

    def value(self, x):
        return 2.0 * self.scale * x


_JUMP = PiecewiseLinearCurve((-1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.5, 1.5), 1.0, 2.0)


def _oracle(m: MixtureCurve, x: float) -> float:
    """The mixture's value part by part, through each part's own ``value``."""
    return sum(w * c.value(x) for w, c in zip(m.weights, m.parts))


def _closed_part(rng: random.Random, kind: int) -> Curve:
    if kind == 0:
        return ExponentialCurve(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0))
    if kind == 1:
        return PowerCurve(rng.uniform(0.3, 4.0))
    return LinearCurve(rng.uniform(0.2, 3.0))


def _random_part(rng: random.Random, depth: int = 0) -> Curve:
    kind = rng.randrange(7 if depth == 0 else 6)
    if kind < 3:
        return _closed_part(rng, kind)
    if kind == 3:
        return _Sinh()
    if kind == 4:
        return _SteepLinear(rng.uniform(0.2, 3.0))
    if kind == 5:
        return _JUMP
    return _random_mixture(rng, depth + 1)


def _random_mixture(rng: random.Random, depth: int = 0) -> MixtureCurve:
    parts = tuple(_random_part(rng, depth) for _ in range(rng.randint(1, 6)))
    return _weighted(rng, parts)


def _closed_mixture(rng: random.Random) -> MixtureCurve:
    """Closed-family parts only; a third are one-signed exponentials, whose
    image has a finite bound."""
    if rng.random() < 1.0 / 3.0:
        sign = rng.choice((-1.0, 1.0))
        parts = tuple(
            ExponentialCurve(sign * rng.uniform(0.2, 3.0))
            for _ in range(rng.randint(1, 6))
        )
    else:
        parts = tuple(
            _closed_part(rng, rng.randrange(3)) for _ in range(rng.randint(1, 6))
        )
    return _weighted(rng, parts)


def _weighted(rng: random.Random, parts: tuple[Curve, ...]) -> MixtureCurve:
    raw = [rng.uniform(0.1, 1.0) for _ in parts]
    return MixtureCurve(tuple(r / sum(raw) for r in raw), parts)


def _outcome(fn, x):
    """``fn(x)`` as float hex, or the type and message of what it raised."""
    try:
        return fn(x).hex()
    except ArithmeticError as exc:
        return type(exc), str(exc)


#: ±0, subnormals, grid points and every bracket probe ±2**k to the top
#: of the float range, where each family overflows in turn.
_XS = (
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308]
    + [i / 8.0 for i in range(-24, 25)]
    + [s * 2.0**k for k in range(1024) for s in (1.0, -1.0)]
)


class TestMixtureTermTable:
    """``MixtureCurve.value`` and the value of ``value_and_slope`` read a
    table built at construction; the sum of each part's own ``value`` is
    their oracle, to the bit."""

    def test_every_family_matches_the_oracle(self):
        rng = random.Random(15)
        mixtures = [_random_mixture(rng) for _ in range(60)]
        mixtures.append(
            MixtureCurve(
                (0.1, 0.15, 0.2, 0.1, 0.15, 0.2, 0.1),
                (ExponentialCurve(1.0), ExponentialCurve(-0.5), PowerCurve(3.0),
                 LinearCurve(1.5), _Sinh(), _SteepLinear(0.5), _JUMP),
            )
        )
        raised = 0
        for m in mixtures:
            for x in _XS:
                got = _outcome(m.value, x)
                assert got == _outcome(lambda x: _oracle(m, x), x), (m, x)
                assert got == _outcome(lambda x: m.value_and_slope(x)[0], x), (m, x)
                raised += isinstance(got, tuple)
        assert raised > 0  # the overflow path was taken

    @pytest.mark.parametrize(
        "part, x, error",
        [
            (ExponentialCurve(1.0), -800.0, NumericRangeError),
            (ExponentialCurve(-2.0), 400.0, NumericRangeError),
            (PowerCurve(3.0), 1e120, NumericRangeError),
            (_Sinh(), -800.0, OverflowError),
        ],
        ids=["exp", "exp-neg", "power", "sinh"],
    )
    def test_overflow_raises_the_parts_error(self, part, x, error):
        m = MixtureCurve((0.25, 0.25, 0.5), (LinearCurve(1.0), _JUMP, part))
        with pytest.raises(error) as oracle:
            part.value(x)
        for read in (m.value, m.value_and_slope):
            with pytest.raises(error) as raised:
                read(x)
            assert type(raised.value) is type(oracle.value)
            assert str(raised.value) == str(oracle.value)

    def test_slope_matches_a_centred_difference(self):
        rng = random.Random(25)
        for _ in range(300):
            m = _closed_mixture(rng)
            x = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
            h = 1e-6 * abs(x)
            diff = (m.value(x + h) - m.value(x - h)) / (2.0 * h)
            assert m.value_and_slope(x)[1] == pytest.approx(diff, rel=1e-5), (m, x)

    @pytest.mark.parametrize(
        "exponent, slope", [(0.5, math.inf), (1.0, 1.0), (3.0, 0.0)]
    )
    def test_power_slope_at_zero(self, exponent, slope):
        # a |x|^(a - 1) at 0: infinite below a = 1, a at it, 0 above it
        m = MixtureCurve((1.0,), (PowerCurve(exponent),))
        for zero in (0.0, -0.0):
            assert m.value_and_slope(zero) == (0.0, slope)

    def test_a_part_without_a_table_row_has_no_slope(self):
        rng = random.Random(2525)
        for _ in range(50):
            m = _random_mixture(rng)
            closed = (ExponentialCurve, PowerCurve, LinearCurve)
            kind3 = any(type(c) not in closed for c in m.parts)
            for x in (rng.uniform(-3.0, 3.0), 0.0):
                _, slope = m.value_and_slope(x)
                assert math.isnan(slope) == kind3, (m, x)

    def test_table_is_not_a_field(self):
        m = MixtureCurve((0.5, 0.5), (_SteepLinear(1.0), LinearCurve(1.0)))
        twin = MixtureCurve((0.5, 0.5), (_SteepLinear(1.0), LinearCurve(1.0)))
        assert m == twin and hash(m) == hash(twin)
        assert repr(m) == (
            "MixtureCurve(weights=(0.5, 0.5), parts=(_SteepLinear(scale=1.0), "
            "LinearCurve(scale=1.0)))"
        )

    def test_inverse_matches_the_oracle_inverse(self):
        class Oracle(Curve):
            def __init__(self, m):
                self.m = m

            def value(self, x):
                return _oracle(self.m, x)

        rng = random.Random(1515)
        solved = 0
        for _ in range(240):
            m = _random_mixture(rng)
            for y in (rng.uniform(-3.0, 3.0), rng.uniform(-40.0, 40.0), 0.0):
                # a target on a saturated bound fails to bracket, both ways
                target = _oracle(m, y)
                got = _outcome(lambda t: right_continuous_inverse(m, t), target)
                assert got == _outcome(
                    lambda t: right_continuous_inverse(Oracle(m), t), target
                )
                solved += isinstance(got, str)
        assert solved >= 600


def _limit_oracle(m: MixtureCurve, side: str) -> float:
    """The mixture's image limit from each part's own, by a plain loop."""
    total = 0.0
    for w, c in zip(m.weights, m.parts):
        total += w * (c.lower_limit() if side == "lower" else c.upper_limit())
    return total


#: Knot tables with flat ends, so that their image limits are finite.
_FLAT_ENDS = (
    PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0), 0.0, 0.0),
    PiecewiseLinearCurve((-2.0, 0.0, 3.0), (-0.7, 0.0, 1.3), 0.0, 1.0),
)


def _limited_part(rng: random.Random, depth: int = 0) -> Curve:
    """A part of every kind that has image limits: closed families, a
    subclass, knot tables with and without flat ends, and nested mixtures."""
    kind = rng.randrange(7 if depth == 0 else 6)
    if kind < 3:
        return _closed_part(rng, kind)
    if kind == 3:
        return _SteepLinear(rng.uniform(0.2, 3.0))
    if kind == 4:
        return _JUMP
    if kind == 5:
        return rng.choice(_FLAT_ENDS)
    parts = tuple(_limited_part(rng, depth + 1) for _ in range(rng.randint(1, 4)))
    return _weighted(rng, parts)


class TestMixtureLimits:
    """``MixtureCurve``'s image limits are summed once, on first read."""

    def test_limits_equal_the_part_loop(self):
        rng = random.Random(19)
        finite = infinite = 0
        for _ in range(400):
            if rng.random() < 0.3:
                m = _closed_mixture(rng)
            else:
                parts = tuple(_limited_part(rng) for _ in range(rng.randint(1, 6)))
                m = _weighted(rng, parts)
            for side, read in (("lower", m.lower_limit), ("upper", m.upper_limit)):
                want = _limit_oracle(m, side)
                got = read()
                assert got.hex() == want.hex() and read().hex() == want.hex()
                finite += math.isfinite(got)
                infinite += not math.isfinite(got)
        assert finite > 50 and infinite > 50

    def test_each_limit_reads_its_parts_once(self):
        reads = []

        class Counted(LinearCurve):
            def lower_limit(self):
                reads.append("lower")
                return -math.inf

            def upper_limit(self):
                reads.append("upper")
                return math.inf

        m = MixtureCurve((0.5, 0.5), (Counted(1.0), ExponentialCurve(1.0)))
        assert reads == []
        assert [m.upper_limit() for _ in range(3)] == [math.inf] * 3
        assert [m.lower_limit() for _ in range(3)] == [-math.inf] * 3
        assert reads == ["upper", "lower"]

    def test_a_part_without_limits_raises_only_when_read(self):
        m = MixtureCurve((0.5, 0.5), (_Sinh(), LinearCurve(1.0)))
        assert m.value(1.0) == 0.5 * math.sinh(1.0) + 0.5
        for _ in range(2):  # a failed read keeps nothing
            with pytest.raises(NotImplementedError):
                m.lower_limit()
            with pytest.raises(NotImplementedError):
                m.upper_limit()


class _Probed(Curve):
    """``curve``'s values, and slopes, under a chosen ``monotone`` flag;
    records probes."""

    def __init__(self, curve: Curve, monotone: bool):
        self.curve, self.monotone, self.probes = curve, monotone, []

    def value(self, x):
        self.probes.append(x)
        return self.curve.value(x)

    def value_and_slope(self, x):
        self.probes.append(x)
        return self.curve.value_and_slope(x)


class _SubExponential(ExponentialCurve):
    """Its parent's floats, but not its type: a kind-3 part."""


#: u = x in exact arithmetic, but the segment ending at the knot (0, 0)
#: rounds to +1.4e-17 just below it: not nondecreasing in floats.
_KNOTS = PiecewiseLinearCurve((-0.1, 0.0, 1.0), (-0.1, 0.0, 1.0))


def _targets(rng: random.Random, m: MixtureCurve) -> list[float]:
    """Random targets, ±0, subnormals, one and two ulps inside each finite
    image bound and the bound itself, and targets that only an overflowing
    probe brackets (or none does)."""
    targets = [
        rng.uniform(-3.0, 3.0), m.value(rng.uniform(-40.0, 40.0)),
        0.0, -0.0, 5e-324, -5e-324, 1e-310,
    ]
    for bound in (m.lower_limit(), m.upper_limit()):
        if math.isfinite(bound):
            inside = math.nextafter(bound, 0.0)
            targets += [inside, math.nextafter(inside, 0.0), bound]
    return targets + [-1e300, 1e300, 1.7e308]


class TestGuidedBisection:
    """A ``monotone`` mixture's inverse skips the probes a known pair
    decides; its floats and errors are the plain loop's."""

    def test_closed_mixtures_match_the_plain_loop(self):
        # saturated exponentials one ulp inside a bound have a slope of 0
        # and reach fa == fb in the guide, which must then bisect
        rng = random.Random(17)
        cases, differ, raised = 0, [], 0
        for _ in range(1000):
            m = _closed_mixture(rng)
            assert m.monotone
            for target in _targets(rng, m):
                got = _outcome(lambda t: right_continuous_inverse(m, t), target)
                plain = _Probed(m, False)
                want = _outcome(lambda t: right_continuous_inverse(plain, t), target)
                if got != want:
                    differ.append((m, target, got, want))
                cases += 1
                raised += isinstance(want, tuple)
        assert cases >= 10_000
        assert 500 <= raised <= cases - 8_000
        assert differ == []

    def test_guide_cuts_the_probes(self):
        rng = random.Random(1717)
        guided = plain = 0
        for _ in range(50):
            m = _closed_mixture(rng)
            target = m.value(rng.uniform(-3.0, 3.0))
            g, p = _Probed(m, True), _Probed(m, False)
            assert right_continuous_inverse(g, target) == right_continuous_inverse(
                p, target
            )
            guided += len(g.probes)
            plain += len(p.probes)
        assert guided < plain / 4

    @pytest.mark.parametrize(
        "part",
        [
            _KNOTS,
            MixtureCurve((0.5, 0.5), (ExponentialCurve(2.0), PowerCurve(3.0))),
            _SubExponential(1.5),
            LinearCurve(-1.0),
        ],
        ids=["knot-table", "nested-mixture", "subclass", "irregular"],
    )
    def test_other_parts_take_the_plain_loop(self, part, monkeypatch):
        m = MixtureCurve((0.5, 0.5), (ExponentialCurve(1.0), part))
        assert not m.monotone
        probes = []
        value = MixtureCurve.value

        def recorded(self, x):
            if self is m:
                probes.append(x)
            return value(self, x)

        monkeypatch.setattr(MixtureCurve, "value", recorded)
        for target in (1.08e-300, 5e-324, 0.0, 0.4, -0.7):
            del probes[:]
            got = _outcome(lambda t: right_continuous_inverse(m, t), target)
            seen = probes[:]
            plain = _Probed(m, False)
            assert got == _outcome(
                lambda t: right_continuous_inverse(plain, t), target
            )
            assert seen == plain.probes

    def test_a_knot_table_would_mislead_the_guide(self):
        below = math.nextafter(0.0, -1.0)
        assert _KNOTS.value(below) > 0.0 == _KNOTS.value(0.0)
        m = MixtureCurve((0.5, 0.5), (ExponentialCurve(1.0), _KNOTS))
        target = 5e-324
        # a knot table has no slope, so a guide forced onto the mixture
        # bisects from its first, secant probe
        probes = []

        def probe(x):
            probes.append(x)
            return m.value_and_slope(x)

        lo, hi = -1.0, 1.0
        _newton(probe, target, lo, m.value(lo), hi, m.value(hi))
        assert len(probes) == 12
        for x in probes:
            assert math.isnan(m.value_and_slope(x)[1])
            assert x == probes[0] or x == 0.5 * (lo + hi)
            lo, hi = (lo, x) if m.value(x) > target else (x, hi)
        # a pair from just below the knot misleads the replay
        assert m.value(below) > target >= m.value(0.0)
        plain = bisect_increasing(m.value, target, -1.0, 1.0)
        assert bisect_increasing(m.value, target, -1.0, 1.0, (-1.0, below)) != plain


class TestWarmStart:
    """A ``monotone`` curve keeps its last (target, solution) pair: the same
    target returns the stored float, and a new one places the Newton
    guide's first probe from it.  A cold inverse, on a fresh equal curve
    that has solved nothing, is the oracle."""

    def test_warm_inverses_match_cold_ones(self, monkeypatch):
        runs = []  # (a, last solution, b) of each guided inverse
        newton = _newton

        def recorded(fn, target, a, fa, b, fb, last=(math.nan, math.nan)):
            runs.append((a, last[1], b))
            return newton(fn, target, a, fa, b, fb, last)

        monkeypatch.setattr("chisini.curves._newton", recorded)
        rng = random.Random(3434)
        repeats = inside = outside = 0
        for _ in range(60):
            m = _closed_mixture(rng)
            x = rng.uniform(-3.0, 3.0)
            targets = []
            for _ in range(12):
                step = rng.choice((0.0, 1e-12, 2.0**-20, 0.01, 1.0, 8.0))
                x += rng.choice((-1.0, 1.0)) * step
                targets.append(m.value(x))
            # a target one ulp off the last, then a repeat of an older one
            targets += [math.nextafter(targets[-1], math.inf), targets[3]]
            for target in targets:
                before = len(runs)
                got = _outcome(lambda t: right_continuous_inverse(m, t), target)
                fresh = MixtureCurve(m.weights, m.parts)
                want = _outcome(lambda t: right_continuous_inverse(fresh, t), target)
                assert got == want, (m, target)
                warm = runs[before:-1]  # the fresh curve's run is the last
                repeats += len(warm) == 0 and isinstance(got, str)
                for a, solution, b in warm:
                    inside += a < solution < b
                    outside += not math.isnan(solution) and not a < solution < b
        assert repeats >= 100 and inside >= 400 and outside >= 150

    def test_the_pair_is_not_a_field(self):
        def mixture():
            return MixtureCurve((0.25, 0.75), (ExponentialCurve(1.0), PowerCurve(3.0)))

        m, fresh = mixture(), mixture()
        assert all(map(math.isnan, m._solved))
        y = right_continuous_inverse(m, 0.3)
        assert m._solved == (0.3, y)
        assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)

    def test_other_curves_keep_no_pair(self):
        m = MixtureCurve((0.5, 0.5), (ExponentialCurve(1.0), _KNOTS))
        assert not m.monotone
        e = ExponentialCurve(1.0)
        for curve in (m, e):
            right_continuous_inverse(curve, 0.3, use_closed_form=False)
            assert all(map(math.isnan, curve._solved))


class TestBisectIncreasing:
    """On return fn(lo) <= target < fn(hi): the audits take the endpoints
    as one-sided solutions whose comparison direction is known."""

    def test_jump_runs_to_float_resolution(self):
        # u jumps from 0.5 to 0.8 at x = 0.5; no x solves u(x) = 0.6
        c = PiecewiseLinearCurve(
            (-1.0, 0.0, 0.5, 0.5, 1.0), (-1.0, 0.0, 0.5, 0.8, 1.0)
        )
        lo, hi = bisect_increasing(c.value, 0.6, -1.0, 1.0)
        assert c.value(lo) <= 0.6 < c.value(hi)
        assert hi == math.nextafter(lo, math.inf)
        assert lo < 0.5 <= hi

    def test_unbounded_inverse_slope_at_zero(self):
        c = PowerCurve(1.0 / 3.0)
        lo, hi = bisect_increasing(c.value, 0.0, -1.0, 3.0)
        assert c.value(lo) <= 0.0 < c.value(hi)
        assert hi - lo <= BISECT_TOL

    def test_mixture(self):
        m = MixtureCurve(
            (0.3, 0.7), (ExponentialCurve(1.0), PowerCurve(3.0))
        )
        for x in (-1.5, -0.2, 0.0, 0.4, 2.0):
            target = m.value(x)
            lo, hi = bisect_increasing(m.value, target, -4.0, 4.0)
            assert m.value(lo) <= target < m.value(hi)
            assert hi - lo <= BISECT_TOL


    def test_known_pair_skips_probes_only(self):
        m = MixtureCurve((0.3, 0.7), (ExponentialCurve(1.0), PowerCurve(3.0)))
        target = m.value(0.4)
        a, b = 0.39, 0.41
        assert m.value(a) <= target < m.value(b)
        plain, guided = _Probed(m, False), _Probed(m, False)
        want = bisect_increasing(plain.value, target, -4.0, 4.0)
        assert bisect_increasing(guided.value, target, -4.0, 4.0, (a, b)) == want
        assert set(guided.probes) < set(plain.probes)
        # a skipped midpoint lies outside (a, b); the probes inside are kept
        assert [x for x in plain.probes if a < x < b] == [
            x for x in guided.probes if a < x < b
        ]


class TestMerge:
    def test_linear_merge(self):
        merged = merge_piecewise_linear(
            (0.5, 0.5), (LinearCurve(1.0), LinearCurve(3.0))
        )
        assert merged == LinearCurve(2.0)

    def test_pwl_merge_is_exact_everywhere(self):
        a = PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-2.0, 0.0, 3.0), 2.0, 1.0)
        b = PiecewiseLinearCurve((-0.5, 0.0, 2.0), (-1.0, 0.0, 4.0), 1.0, 3.0)
        merged = merge_piecewise_linear((0.3, 0.7), (a, b))
        for x in (-3.0, -1.0, -0.7, -0.5, 0.0, 0.4, 1.0, 1.5, 2.0, 5.0):
            want = 0.3 * a.value(x) + 0.7 * b.value(x)
            assert merged.value(x) == pytest.approx(want, abs=1e-14)

    def test_merge_includes_union_of_knots(self):
        a = PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0))
        b = PiecewiseLinearCurve((-0.5, 0.0, 2.0), (-0.5, 0.0, 2.0))
        merged = merge_piecewise_linear((0.5, 0.5), (a, b))
        assert set(merged.xs) == {-1.0, -0.5, 0.0, 1.0, 2.0}
