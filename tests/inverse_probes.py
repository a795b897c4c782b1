"""Probes per mixture inverse, by phase: the bracket's doubling probes, the
slope guide's and the replay of ``bisect_increasing``.  A count, unlike a
time, repeats exactly.

The mixtures are 3,000 random closed-family mixtures of 2 to 5 parts
(exponential with gamma of either sign, power and linear curves), and each
target is the mixture's mean utility of a random act on [-3, 3], the
target of a conditional Chisini mean.  Run from the repository root:

    PYTHONPATH=src python tests/inverse_probes.py
    PYTHONPATH=src python tests/inverse_probes.py --max-probes 9.56

``--max-probes P`` exits 1 when the probes per inverse exceed P.
"""

import argparse
import random
import sys

import chisini.curves as curves
from chisini.curves import (
    Curve,
    ExponentialCurve,
    LinearCurve,
    MixtureCurve,
    PowerCurve,
    right_continuous_inverse,
)

INVERSES = 3_000


def random_mixture(rng: random.Random) -> MixtureCurve:
    def part():
        kind = rng.randrange(3)
        if kind == 0:
            return ExponentialCurve(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0))
        if kind == 1:
            return PowerCurve(rng.uniform(0.3, 4.0))
        return LinearCurve(rng.uniform(0.2, 3.0))

    parts = tuple(part() for _ in range(rng.randint(2, 5)))
    raw = [rng.uniform(0.1, 1.0) for _ in parts]
    total = curves._lsum(raw)
    return MixtureCurve(tuple(r / total for r in raw), parts)


class Counted(Curve):
    """A mixture's values and slopes, each probe counted in the phase under
    way."""

    def __init__(self, curve: MixtureCurve, counts: dict, phase: list):
        self.curve, self.counts, self.phase = curve, counts, phase
        self.monotone = curve.monotone

    def value(self, x):
        self.counts[self.phase[0]] += 1
        return self.curve.value(x)

    def value_and_slope(self, x):
        self.counts[self.phase[0]] += 1
        return self.curve.value_and_slope(x)


def count_probes(seed: int = 25) -> dict:
    counts = {"bracket": 0, "guide": 0, "replay": 0}
    phase = ["bracket"]

    def in_phase(name, fn):
        def wrapped(*args):
            phase[0] = name
            try:
                return fn(*args)
            finally:
                phase[0] = "bracket"

        return wrapped

    phases = {"_newton": "guide", "bisect_increasing": "replay"}
    saved = {name: getattr(curves, name) for name in phases}
    for name, fn in saved.items():
        setattr(curves, name, in_phase(phases[name], fn))
    rng = random.Random(seed)
    try:
        for _ in range(INVERSES):
            m = random_mixture(rng)
            assert m.monotone
            target = curves._lsum(
                w * c.value(rng.uniform(-3.0, 3.0)) for w, c in zip(m.weights, m.parts)
            )
            right_continuous_inverse(Counted(m, counts, phase), target)
    finally:
        for name, fn in saved.items():
            setattr(curves, name, fn)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-probes", type=float)
    args = parser.parse_args(argv)
    counts = count_probes()
    per = {name: n / INVERSES for name, n in counts.items()}
    total = sum(per.values())
    print(
        f"{INVERSES} mixture inverses: {total:.2f} probes per inverse "
        f"(bracket {per['bracket']:.2f}, guide {per['guide']:.2f}, "
        f"replay {per['replay']:.2f})"
    )
    if args.max_probes is not None and total > args.max_probes:
        print(f"more than {args.max_probes} probes per inverse", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
