"""Evaluator calls and probes per bisection of ``equivalence_harness`` at
the audit caps: a count, unlike a time, repeats exactly.

The functional is expected utility over n uniform outcomes with
exponential(1), power(0.5) and linear(1) curves cycled, on the grid of g
values -1, 0, ..., g - 2.  Run from the repository root:

    PYTHONPATH=src python tests/cap_counts.py 5 5
    PYTHONPATH=src python tests/cap_counts.py 5 5 --max-calls 346346
    PYTHONPATH=src python tests/cap_counts.py 6 5 --plain
    PYTHONPATH=src python tests/cap_counts.py 5 5 --time

``--plain`` clears the functional's ``monotone`` mark (a copy made with
``dataclasses.replace``), so every constant solve runs the plain loop.
``--max-calls N`` exits 1 when the harness makes more than N evaluator
calls.  ``--time`` runs the harness once with no counting wrapper and
prints only its wall time.  Each run also prints the sha256 of the
harness report, which the guided and the plain loop must share.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import time

import chisini.audit
from chisini import (
    AdditiveRepresentation,
    ExponentialCurve,
    FiniteSpace,
    LinearCurve,
    PowerCurve,
    StateUtility,
    equivalence_harness,
    expected_utility_functional,
)


def cap_functional(n: int, g: int):
    space = FiniteSpace.uniform([f"w{i}" for i in range(n)])
    cycle = (ExponentialCurve(1.0), PowerCurve(0.5), LinearCurve(1.0))
    curves = tuple(cycle[i % 3] for i in range(n))
    rep = AdditiveRepresentation(StateUtility(space, curves))
    grid = tuple(float(k - 1) for k in range(g))
    return expected_utility_functional(rep, grid, name=f"eu-{n}x{g}")


def digest(report) -> str:
    text = json.dumps(report.to_dict(), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def counted_run(t):
    """The harness report and its counts: every evaluator call, the
    bisections, and the probes made in the guide and in the bisection."""
    counts = {"calls": 0, "bisections": 0, "guide": 0, "replay": 0}
    phase = [None]  # the probe phase under way, if any
    evaluate = t.evaluator

    def evaluator(f):
        counts["calls"] += 1
        if phase[0] is not None:
            counts[phase[0]] += 1
        return evaluate(f)

    def in_phase(name, fn):
        def wrapped(*args):
            counts["bisections"] += name == "replay"
            phase[0] = name
            try:
                return fn(*args)
            finally:
                phase[0] = None

        return wrapped

    # the copy drops the mark and its term table, so set them again
    marks = {"monotone": t.monotone, "_terms": t._terms}
    t = dataclasses.replace(t, evaluator=evaluator)
    for name, value in marks.items():
        object.__setattr__(t, name, value)
    audit = chisini.audit
    phases = {"bisect_increasing": "replay", "_newton": "guide"}
    saved = {name: getattr(audit, name) for name in phases}
    for name, fn in saved.items():
        setattr(audit, name, in_phase(phases[name], fn))
    try:
        report = equivalence_harness(t)
    finally:
        for name, fn in saved.items():
            setattr(audit, name, fn)
    return report, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outcomes", type=int)
    parser.add_argument("grid", type=int)
    parser.add_argument("--plain", action="store_true")
    parser.add_argument("--time", action="store_true")
    parser.add_argument("--max-calls", type=int)
    args = parser.parse_args(argv)
    t = cap_functional(args.outcomes, args.grid)
    if args.plain:
        t = dataclasses.replace(t)
    loop = "guided" if t.monotone else "plain"
    label = f"harness {args.outcomes}x{args.grid} {loop}"
    if args.time:
        start = time.perf_counter()
        report = equivalence_harness(t)
        wall = time.perf_counter() - start
        print(f"{label}: wall {wall:.3f} s, report {digest(report)}")
        return 0
    report, counts = counted_run(t)
    n = counts["bisections"]
    probes = counts["guide"] + counts["replay"]
    print(
        f"{label}: {counts['calls']} evaluator calls, {n} bisections, "
        f"{probes / n:.1f} probes per bisection ({counts['guide'] / n:.1f} "
        f"guide, {counts['replay'] / n:.1f} replay), report {digest(report)}"
    )
    if args.max_calls is not None and counts["calls"] > args.max_calls:
        print(f"more than {args.max_calls} evaluator calls", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
