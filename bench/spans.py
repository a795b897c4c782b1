"""In-memory span tracing around the library's public calls.

``install`` replaces public functions and methods of ``chisini`` with
wrappers that record one span per call (name, start, end, parent span,
op id) and count the work each layer does.  Nothing under ``src/`` is
changed: the wrappers are installed from here, in the traced run only, and
the untraced run executes the library untouched.

Spans stay in memory as flat arrays until ``write`` dumps them at the end.
A layer's self time is its span's duration minus the time its child spans
cover; since calls nest synchronously, that is the duration minus the sum
of the children's durations.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import chisini
import chisini.audit
import chisini.cli
import chisini.conditional
import chisini.curves
import chisini.family
import chisini.spaces
import chisini.utility

#: Per-layer metrics, in report order: (name, unit, better).  Units
#: "count" and "ratio" (a ratio of counts) repeat exactly on one seed;
#: "s/s" is a ratio of times.
METRICS = (
    ("spaces.condexp_calls", "count", "lower"),
    ("spaces.condexp_s", "s", "lower"),
    ("spaces.unions_enumerated", "count", "lower"),
    ("spaces.acts_built", "count", "lower"),
    ("curves.inverse_calls", "count", "lower"),
    ("curves.inverse_closed_s", "s", "lower"),
    ("curves.inverse_bisect_s", "s", "lower"),
    ("curves.closed_form_ratio", "ratio", "higher"),
    ("curves.value_calls", "count", "lower"),
    ("utility.project_calls", "count", "lower"),
    ("utility.project_s", "s", "lower"),
    ("utility.project_distinct_ratio", "ratio", "higher"),
    ("utility.regularity_calls", "count", "lower"),
    ("utility.regularity_s", "s", "lower"),
    ("utility.evaluate_calls", "count", "lower"),
    ("utility.evaluate_s", "s", "lower"),
    ("conditional.solve_calls", "count", "lower"),
    ("conditional.solve_s", "s", "lower"),
    ("conditional.certify_s", "s", "lower"),
    ("conditional.certify_share", "s/s", "lower"),
    ("family.e0_calls", "count", "lower"),
    ("family.e0_s", "s", "lower"),
    ("family.e0_distinct_ratio", "ratio", "higher"),
    ("audit.evaluator_calls", "count", "lower"),
    ("audit.evaluator_s", "s", "lower"),
    ("audit.evaluator_distinct_ratio", "ratio", "higher"),
    ("audit.sure_thing_pass_s", "s", "lower"),
    ("audit.sure_thing_fail_s", "s", "lower"),
    ("audit.conditionable_pass_s", "s", "lower"),
    ("audit.conditionable_fail_s", "s", "lower"),
    ("audit.monotonicity_s", "s", "lower"),
    ("audit.acts_enumerated", "count", "lower"),
    ("modelfile.load_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.command_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("trace.ops_per_s_ratio", "s/s", "higher"),
)

#: Span name -> metric whose self time it adds to.
SELF_TIME = {
    "spaces.condexp": "spaces.condexp_s",
    "curves.inverse.closed": "curves.inverse_closed_s",
    "curves.inverse.bisect": "curves.inverse_bisect_s",
    "utility.project": "utility.project_s",
    "utility.regularity": "utility.regularity_s",
    "utility.evaluate": "utility.evaluate_s",
    "utility.evaluate_on_event": "utility.evaluate_s",
    "conditional.chisini_mean": "conditional.solve_s",
    "family.e0": "family.e0_s",
    "audit.evaluator": "audit.evaluator_s",
    "audit.sure_thing.pass": "audit.sure_thing_pass_s",
    "audit.sure_thing.fail": "audit.sure_thing_fail_s",
    "audit.conditionable.pass": "audit.conditionable_pass_s",
    "audit.conditionable.fail": "audit.conditionable_fail_s",
    "audit.monotonicity.pass": "audit.monotonicity_s",
    "audit.monotonicity.fail": "audit.monotonicity_s",
    "modelfile.load": "modelfile.load_s",
    "cli.main": "cli.command_s",
    "cli.emit": "cli.emit_s",
}

#: Spans that make up residual certification when their parent is a
#: ``chisini_mean`` span.
CERTIFY = ("spaces.events", "utility.evaluate_on_event")


class Recorder:
    """Spans as parallel arrays, plus exact counters and distinct-key sets."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, name: str | None = None) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        if name is not None:
            self.name[idx] = self._name_id(name)

    def span(self, name: str, fn, key=None):
        """Wrap ``fn`` so each call is a span named ``name``; ``key(args)``
        adds the call's distinct key to ``name``'s set."""

        def wrapped(*args, **kwargs):
            self.counts[name] += 1
            if key is not None:
                self.distinct[name].add(key(args))
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapped

    # ------------------------------------------------------------ results
    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - covered[i] for i in range(len(covered))]

    def metrics(self) -> dict[str, float]:
        out = {name: 0.0 for name, _, _ in METRICS}
        names = [self.names[n] for n in self.name]
        self_time = self.self_times()
        mean_total = 0.0
        # certification runs from the first to the last certification span
        # of a chisini_mean call: [first start, last end, child span time]
        phases: dict[int, list[float]] = {}
        for i, name in enumerate(names):
            metric = SELF_TIME.get(name)
            if metric:
                out[metric] += self_time[i]
            if name == "conditional.chisini_mean":
                mean_total += self.end[i] - self.start[i]
            elif (
                name in CERTIFY
                and self.parent[i] >= 0
                and names[self.parent[i]] == "conditional.chisini_mean"
            ):
                phase = phases.setdefault(self.parent[i], [self.start[i], 0.0, 0.0])
                phase[1] = self.end[i]
                phase[2] += self.end[i] - self.start[i]
        certify = sum((end - start for start, end, _ in phases.values()), 0.0)
        # the loop between certification spans is certification, not solving
        out["conditional.solve_s"] -= sum(
            end - start - spans for start, end, spans in phases.values()
        )
        c = self.counts
        out.update({
            "spaces.condexp_calls": c["spaces.condexp"],
            "spaces.unions_enumerated": c["spaces.unions"],
            "spaces.acts_built": c["spaces.acts"],
            "curves.inverse_calls": c["curves.inverse"],
            "curves.closed_form_ratio": _ratio(c["curves.inverse.closed"], c["curves.inverse"]),
            "curves.value_calls": c["curves.value"],
            "utility.project_calls": c["utility.project"],
            "utility.project_distinct_ratio": self._distinct_ratio("utility.project"),
            "utility.regularity_calls": c["utility.regularity"],
            "utility.evaluate_calls": c["utility.evaluate"] + c["utility.evaluate_on_event"],
            "conditional.solve_calls": c["conditional.chisini_mean"],
            "conditional.certify_s": certify,
            "conditional.certify_share": _ratio(certify, mean_total),
            "family.e0_calls": c["family.e0"],
            "family.e0_distinct_ratio": self._distinct_ratio("family.e0"),
            "audit.evaluator_calls": c["audit.evaluator"],
            "audit.evaluator_distinct_ratio": self._distinct_ratio("audit.evaluator"),
            "audit.acts_enumerated": c["audit.acts"],
        })
        return out

    def _distinct_ratio(self, name: str) -> float:
        return _ratio(len(self.distinct[name]), self.counts[name])

    def write(self, path: Path) -> None:
        """Dump every span as tab-separated name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                    f"\t{self.parent[i]}\t{self.op[i]}\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def install(rec: Recorder) -> None:
    """Wrap the library's public calls in spans and counters."""
    counts = rec.counts

    # spaces: conditional expectation, union enumeration, Act construction
    condexp = rec.span("spaces.condexp", chisini.spaces.conditional_expectation)
    for module in (chisini.conditional, chisini.cli):
        module.conditional_expectation = condexp

    events = chisini.spaces.PartitionAlgebra.events

    def traced_events(self, *args, **kwargs):
        inner = events(self, *args, **kwargs)
        while True:
            idx = rec.open("spaces.events")
            try:
                members = next(inner, None)
            finally:
                rec.close(idx)
            if members is None:
                return
            counts["spaces.unions"] += 1
            yield members

    chisini.spaces.PartitionAlgebra.events = traced_events
    _count_method(chisini.spaces.Act, "__post_init__", counts, "spaces.acts")

    # curves: every value call, and the inverse split by path
    for cls in _subclasses(chisini.curves.Curve):
        if "value" in vars(cls):
            _count_method(cls, "value", counts, "curves.value")
    inverse = chisini.curves.right_continuous_inverse

    def traced_inverse(*args, **kwargs):
        counts["curves.inverse"] += 1
        before = counts["curves.value"]
        idx = rec.open("curves.inverse")
        path = "curves.inverse.bisect"
        try:
            result = inverse(*args, **kwargs)
            if counts["curves.value"] == before:  # no curve evaluated
                path = "curves.inverse.closed"
            return result
        finally:
            rec.close(idx, path)
            counts[path] += 1

    chisini.utility.right_continuous_inverse = traced_inverse

    # utility: projection, regularity, evaluation
    project = rec.span(
        "utility.project", chisini.utility.project_utility, key=lambda a: (a[0], a[1])
    )
    regular = rec.span("utility.regularity", chisini.utility.ensure_regular)
    chisini.conditional.project_utility = project
    chisini.conditional.ensure_regular = regular
    rep_cls = chisini.utility.AdditiveRepresentation
    rep_cls.evaluate = rec.span("utility.evaluate", rep_cls.evaluate)
    rep_cls.evaluate_on_event = rec.span(
        "utility.evaluate_on_event", rep_cls.evaluate_on_event
    )

    # conditional: every caller's reference to chisini_mean
    mean = rec.span("conditional.chisini_mean", chisini.conditional.chisini_mean)
    for module in (chisini, chisini.conditional, chisini.family, chisini.cli):
        module.chisini_mean = mean

    # family: families are built with their certainty equivalent wrapped
    fam_cls = chisini.family.ExpectationFamily
    from_rep = fam_cls.from_representation.__func__

    def traced_from_representation(cls, rep, **kwargs):
        fam = from_rep(cls, rep, **kwargs)
        e0 = rec.span("family.e0", fam.e0, key=lambda a: a[0].values)
        return cls(space=fam.space, evaluator=fam.evaluator, e0=e0, rep=fam.rep)

    fam_cls.from_representation = classmethod(traced_from_representation)

    # audit: the evaluator boundary, each search with its verdict
    pf = chisini.audit.PreferenceFunctional
    pf.__call__ = rec.span("audit.evaluator", pf.__call__, key=lambda a: a[1].values)
    for public, check, label in (
        ("check_strict_monotonicity", "strict-monotonicity", "audit.monotonicity"),
        ("check_sure_thing", "sure-thing", "audit.sure_thing"),
        ("check_conditionable_all_events", "conditionable", "audit.conditionable"),
    ):
        wrapped = _verdict_span(rec, label, check, getattr(chisini.audit, public))
        for module in (chisini, chisini.audit, chisini.cli):
            if hasattr(module, public):
                setattr(module, public, wrapped)
    on_event = chisini.audit.check_conditionable_on_event

    def counted_on_event(t, *args, **kwargs):
        counts["audit.acts"] += len(t.grid) ** t.space.size
        return on_event(t, *args, **kwargs)

    chisini.audit.check_conditionable_on_event = counted_on_event

    # modelfile and cli
    chisini.cli.load_model = rec.span("modelfile.load", chisini.cli.load_model)
    chisini.cli.main = rec.span("cli.main", chisini.cli.main)
    render = chisini.cli.canonical_json

    def traced_render(value, indent=0):
        if rec.stack and rec.names[rec.name[rec.stack[-1]]] == "cli.emit":
            return render(value, indent)  # recursive call inside one render
        idx = rec.open("cli.emit")
        try:
            return render(value, indent)
        finally:
            rec.close(idx)

    chisini.cli.canonical_json = traced_render


def _verdict_span(rec: Recorder, label: str, check: str, fn):
    """A span named ``label.pass`` or ``label.fail`` after the verdict of
    the report's ``check``; the searched act grid is counted as enumerated."""

    def wrapped(t, *args, **kwargs):
        if label != "audit.conditionable":  # counted per event instead
            rec.counts["audit.acts"] += len(t.grid) ** t.space.size
        idx = rec.open(label)
        verdict = "fail"
        try:
            report = fn(t, *args, **kwargs)
            if report.check(check).passed:
                verdict = "pass"
            return report
        finally:
            rec.close(idx, f"{label}.{verdict}")

    return wrapped


def _count_method(cls, attr: str, counts: Counter, key: str) -> None:
    method = getattr(cls, attr)

    def counted(*args, **kwargs):
        counts[key] += 1
        return method(*args, **kwargs)

    setattr(cls, attr, counted)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
