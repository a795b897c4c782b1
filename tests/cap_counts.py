"""Evaluator calls and probes per bisection of ``equivalence_harness`` at
the audit caps: a count, unlike a time, repeats exactly.

The functional is expected utility over n uniform outcomes with
exponential(1), power(0.5) and linear(1) curves cycled, on the grid of g
values -1, 0, ..., g - 2; with ``--choquet`` it is the Choquet integral
against P(A)**2 over the same outcomes and grid.  Run from the repository
root:

    PYTHONPATH=src python tests/cap_counts.py 5 5
    PYTHONPATH=src python tests/cap_counts.py 5 5 --max-calls 50284
    PYTHONPATH=src python tests/cap_counts.py 5 5 --expect-report SHA256
    PYTHONPATH=src python tests/cap_counts.py 5 5 --choquet
    PYTHONPATH=src python tests/cap_counts.py 6 5 --plain
    PYTHONPATH=src python tests/cap_counts.py 5 5 --time

``--plain`` clears the functional's ``monotone`` or ``_choquet`` mark (a
copy made with ``dataclasses.replace``), so every constant solve runs the
plain loop on the evaluator.  A probe is a call of the function that a
solve hands to ``_newton`` (guide) or ``bisect_increasing`` (replay).  On a
marked functional that function reads the masked value's closed form, not
the evaluator, so its probes are not evaluator calls, and a solve reads
its solution's value from it too: a solve then evaluates only its bracket
ends, on the first solve of each (event, sup|f|); its target is a grid
act, read from the value table, since 0 is on the grid.
``--max-calls N`` exits 1 when the harness makes more than N evaluator
calls, and ``--expect-report SHA256`` when the report's sha256 differs.
``--time`` runs the harness once with no counting wrapper and
prints only its wall time.  Each run also prints the sha256 of the
harness report, which the guided and the plain loop must share, and the
process's peak resident set size (``resource.getrusage``).
"""

import argparse
import dataclasses
import hashlib
import json
import resource
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
    choquet_functional,
    equivalence_harness,
    expected_utility_functional,
)


def cap_functional(n: int, g: int, choquet: bool = False):
    space = FiniteSpace.uniform([f"w{i}" for i in range(n)])
    grid = tuple(float(k - 1) for k in range(g))
    if choquet:
        return choquet_functional(space, 2.0, grid)
    cycle = (ExponentialCurve(1.0), PowerCurve(0.5), LinearCurve(1.0))
    curves = tuple(cycle[i % 3] for i in range(n))
    rep = AdditiveRepresentation(StateUtility(space, curves))
    return expected_utility_functional(rep, grid, name=f"eu-{n}x{g}")


def digest(report) -> str:
    text = json.dumps(report.to_dict(), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def counted_run(t):
    """The harness report and its counts: every evaluator call, the
    bisections, and the probes made in the guide and in the bisection."""
    counts = {"calls": 0, "bisections": 0, "guide": 0, "replay": 0}
    evaluate = t.evaluator

    def evaluator(f):
        counts["calls"] += 1
        return evaluate(f)

    def in_phase(name, search):
        def wrapped(fn, *args):
            counts["bisections"] += name == "replay"

            def probe(x):
                counts[name] += 1
                return fn(x)

            return search(probe, *args)

        return wrapped

    # the copy drops the marks and the term table, so set them again
    marks = {"monotone": t.monotone, "_terms": t._terms, "_choquet": t._choquet}
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


def peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outcomes", type=int)
    parser.add_argument("grid", type=int)
    parser.add_argument("--choquet", action="store_true")
    parser.add_argument("--plain", action="store_true")
    parser.add_argument("--time", action="store_true")
    parser.add_argument("--max-calls", type=int)
    parser.add_argument("--expect-report", metavar="SHA256")
    args = parser.parse_args(argv)
    t = cap_functional(args.outcomes, args.grid, args.choquet)
    if args.plain:
        t = dataclasses.replace(t)
    loop = "guided" if t.monotone or t._choquet else "plain"
    kind = " choquet" if args.choquet else ""
    label = f"harness {args.outcomes}x{args.grid}{kind} {loop}"
    status = 0
    if args.time:
        start = time.perf_counter()
        report = equivalence_harness(t)
        wall = time.perf_counter() - start
        print(
            f"{label}: wall {wall:.3f} s, peak RSS {peak_rss_mb():.1f} MB, "
            f"report {digest(report)}"
        )
    else:
        report, counts = counted_run(t)
        n = counts["bisections"]
        probes = counts["guide"] + counts["replay"]
        print(
            f"{label}: {counts['calls']} evaluator calls, {n} bisections, "
            f"{probes / n:.1f} probes per bisection ({counts['guide'] / n:.1f} "
            f"guide, {counts['replay'] / n:.1f} replay), peak RSS "
            f"{peak_rss_mb():.1f} MB, report {digest(report)}"
        )
        if args.max_calls is not None and counts["calls"] > args.max_calls:
            print(f"more than {args.max_calls} evaluator calls", file=sys.stderr)
            status = 1
    if args.expect_report is not None and digest(report) != args.expect_report:
        print(f"report digest differs from {args.expect_report}", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
