"""Inputs, operations and correctness checks of the four benchmark workloads.

Each workload is a fixed list of operations ("ops") built from the seed.
The closed loop in ``worker.py`` runs the list in order, again and again,
issuing the next op only after the previous one returned.  Every op has a
correctness check that recomputes what it can without the library, and a
fingerprint whose digest shows that traced and untraced runs compute the
same outputs.

The library is reached only through its public functions, looked up as
module attributes at call time so that the traced mode can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import chisini.audit
import chisini.cli
import chisini.conditional
import chisini.family
from chisini import (
    Act,
    AdditiveRepresentation,
    ExponentialCurve,
    FiniteSpace,
    LinearCurve,
    PartitionAlgebra,
    PowerCurve,
    StateUtility,
)

#: Residual tolerance of the benchmark's own atom-equation check; the same
#: scale as the library default, applied to an independent recomputation.
SOLVE_TOL = 1e-9

#: Margin a re-evaluated sure-thing witness must keep.
WITNESS_MARGIN = 1e-9

#: Round-off allowed on the premise of a re-evaluated witness, which may be
#: an exact tie in the library's own arithmetic.
PREMISE_SLACK = 1e-12

BENCH_DIR = Path(__file__).resolve().parent


# ----------------------------------------------------------------- raw maths
# Curves are described by (family, parameter) pairs so that the checks can
# evaluate them with stdlib ``math`` alone.

def raw_value(spec: tuple[str, float], x: float) -> float:
    family, param = spec
    if family == "exponential":
        return -math.expm1(-param * x) / param
    if family == "power":
        return math.copysign(abs(x) ** param, x) if x != 0.0 else 0.0
    return param * x


def make_curve(spec: tuple[str, float]):
    family, param = spec
    if family == "exponential":
        return ExponentialCurve(param)
    if family == "power":
        return PowerCurve(param)
    return LinearCurve(param)


def raw_expected_utility(weights, specs, values) -> float:
    return math.fsum(p * raw_value(s, v) for p, s, v in zip(weights, specs, values))


def raw_choquet(weights, exponent: float, values) -> float:
    """Choquet integral against P(A)**exponent, summed over the decreasing
    rearrangement: sum_k (x_(k) - x_(k+1)) * nu(top k), last term x_(n) * 1."""
    order = sorted(range(len(values)), key=lambda i: -values[i])
    total, mass = 0.0, 0.0
    for rank, i in enumerate(order):
        mass += weights[i]
        nxt = values[order[rank + 1]] if rank + 1 < len(order) else 0.0
        total += (values[i] - nxt) * mass ** exponent
    return total


def random_weights(rng: random.Random, n: int) -> tuple[float, ...]:
    raw = [rng.uniform(0.5, 1.5) for _ in range(n)]
    total = sum(raw)
    return tuple(w / total for w in raw)


def _canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


class Workload:
    """A fixed op list; ``run`` executes op ``i``, ``check`` verifies it."""

    name = ""

    def __len__(self) -> int:
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        raise NotImplementedError

    def fingerprint(self, i: int, out) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        pass


# --------------------------------------------------------------------- solve
class Solve(Workload):
    """``chisini_mean`` on 64 outcomes and 10 round-robin atoms.

    Curves cycle through exponential, power and linear, so every atom
    mixes families and inverts by bisection; the residual table over the
    2**10 atom unions dominates each call.
    """

    name = "solve"
    outcomes = 64
    atoms = 10
    acts = 16

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        n = self.outcomes
        self.space = FiniteSpace.uniform([f"w{i}" for i in range(n)])
        families = ("exponential", "power", "linear")
        ranges = {"exponential": (0.5, 2.0), "power": (1.5, 3.0), "linear": (0.5, 2.0)}
        self.specs = tuple(
            (families[i % 3], rng.uniform(*ranges[families[i % 3]])) for i in range(n)
        )
        self.rep = AdditiveRepresentation(
            StateUtility(self.space, tuple(make_curve(s) for s in self.specs))
        )
        self.algebra = PartitionAlgebra(
            self.space,
            tuple(frozenset(range(j, n, self.atoms)) for j in range(self.atoms)),
        )
        self.inputs = [
            Act(self.space, tuple(rng.uniform(-2.0, 2.0) for _ in range(n)))
            for _ in range(self.acts)
        ]

    def __len__(self):
        return len(self.inputs)

    def run(self, i):
        return chisini.conditional.chisini_mean(self.rep, self.inputs[i], self.algebra)

    def check(self, i, solution):
        if not solution.ok:
            return False
        f = self.inputs[i].values
        g = solution.act.values
        weights = self.space.weights
        tol = SOLVE_TOL * (1.0 + max(abs(v) for v in f))
        for atom in self.algebra.atoms:
            if len({g[k] for k in atom}) != 1:
                return False
            lhs = math.fsum(weights[k] * raw_value(self.specs[k], f[k]) for k in atom)
            rhs = math.fsum(weights[k] * raw_value(self.specs[k], g[k]) for k in atom)
            if not abs(lhs - rhs) <= tol:
                return False
        return True

    def fingerprint(self, i, solution):
        return _canonical([solution.act.values, solution.residuals])


# ------------------------------------------------------------------ ce-audit
class CeAudit(Workload):
    """``audit_certainty_equivalent`` on 3 outcomes, alternating between a
    state-dependent utility (bisection inverse) and a state-independent
    exponential one (closed-form inverse)."""

    name = "ce-audit"
    grid = (0.0, 1.0)
    trials = 4

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.space = FiniteSpace(("a", "b", "c"), random_weights(rng, 3))
        state_dependent = (("exponential", 0.5), ("power", 3.0), ("linear", 1.5))
        self.reps = [
            AdditiveRepresentation(
                StateUtility(self.space, tuple(make_curve(s) for s in state_dependent))
            ),
            AdditiveRepresentation(
                StateUtility.state_independent(self.space, ExponentialCurve(1.0))
            ),
        ]
        self.audit_seeds = [rng.randrange(2**31) for _ in self.reps]

    def __len__(self):
        return len(self.reps)

    def run(self, i):
        fam = chisini.family.ExpectationFamily.from_representation(self.reps[i])
        return chisini.family.audit_certainty_equivalent(
            fam, self.grid, self.trials, seed=self.audit_seeds[i]
        )

    def expected_counts(self) -> tuple[int, int]:
        """Comparisons and continuity sequences a full audit must make:
        positive-weight events x grid pairs x trials, and, since every one
        of the g**n grid acts is a base at this size, g**n x (2 sampled +
        2n axis) directions."""
        n, g = self.space.size, len(self.grid)
        events = (1 << n) - 1  # every weight is positive
        return events * g * (g - 1) // 2 * self.trials, g**n * (2 + 2 * n)

    def check(self, i, report):
        if not report.passed:
            return False
        comparisons, sequences = self.expected_counts()
        mono = report.check("dichotomic-monotonicity").details
        cont = report.check("pointwise-continuity").details
        return mono["comparisons"] == comparisons and cont["sequences"] == sequences

    def fingerprint(self, i, report):
        return _canonical(report.to_dict())


# -------------------------------------------------------------------- axioms
class Axioms(Workload):
    """Strict monotonicity plus the sure-thing/conditionability harness for
    a zoo of two expected-utility and two Choquet functionals."""

    name = "axioms"
    grid = (-1.0, 0.0, 1.0, 2.0)

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.space = FiniteSpace(("a", "b", "c"), random_weights(rng, 3))
        weights = self.space.weights
        # (functional, passes, raw evaluator); Choquet first so that the
        # warm-up op (op 0) is one of the shorter ones
        self.zoo = []
        for p in (2.0, 0.5):
            t = chisini.audit.choquet_functional(self.space, p, self.grid)
            self.zoo.append((t, False, lambda v, p=p: raw_choquet(weights, p, v)))
        for name, specs in (
            ("eu-exponential", (("exponential", 1.0),) * 3),
            ("eu-mixed", (("exponential", 0.5), ("power", 3.0), ("linear", 1.5))),
        ):
            rep = AdditiveRepresentation(
                StateUtility(self.space, tuple(make_curve(s) for s in specs))
            )
            t = chisini.audit.expected_utility_functional(rep, self.grid, name)
            self.zoo.append(
                (t, True, lambda v, s=specs: raw_expected_utility(weights, s, v))
            )

    def __len__(self):
        return len(self.zoo)

    def run(self, i):
        t = self.zoo[i][0]
        return (
            chisini.audit.check_strict_monotonicity(t),
            chisini.audit.equivalence_harness(t),
        )

    def check(self, i, reports):
        _, passes, raw = self.zoo[i]
        monotone, harness = reports
        verdicts = (
            monotone.passed,
            harness.check("sure-thing").passed,
            harness.check("conditionable").passed,
            harness.check("verdict-agreement").passed,
        )
        if verdicts != (True, passes, passes, True):
            return False
        witness = harness.check("sure-thing").witness
        if passes:
            return witness is None
        return self._witness_holds(witness, raw)

    @staticmethod
    def _witness_holds(w, raw) -> bool:
        event = set(w["event"])

        def pasted(on, off):
            return [on[k] if k in event else off[k] for k in range(len(on))]

        premise = raw(pasted(w["f"], w["h"])) - raw(pasted(w["g"], w["h"]))
        margin = raw(pasted(w["g"], w["h_alt"])) - raw(pasted(w["f"], w["h_alt"]))
        return premise >= -PREMISE_SLACK and margin > WITNESS_MARGIN

    def fingerprint(self, i, reports):
        return _canonical([r.to_dict() for r in reports])


# ----------------------------------------------------------------------- cli
def _cli_commands(out_path: str) -> list[tuple[str, list[str]]]:
    """The command lines of acceptance criterion 11, on the shipped models."""
    return [
        ("validate-partition", ["validate", "--model", "models/partition.json"]),
        ("validate-zoo", ["validate", "--model", "models/audit_zoo.json"]),
        ("compute-entropic", [
            "compute", "--model", "models/entropic.json", "--utility", "entropic",
            "--act", "log-two", "--partition", "trivial",
        ]),
        ("compute-partition", [
            "compute", "--model", "models/partition.json", "--utility", "mixed",
            "--act", "payoff", "--partition", "weather",
        ]),
        ("audit-eu-linear", [
            "audit", "--model", "models/audit_zoo.json", "--functional", "eu-linear",
        ]),
        ("audit-choquet-squared", [
            "audit", "--model", "models/audit_zoo.json",
            "--functional", "choquet-squared",
        ]),
        ("tower", [
            "tower", "--model", "models/partition.json", "--utility", "mixed",
            "--chain", "fine", "weather", "coarse",
        ]),
        ("repair", [
            "repair", "--model", "models/repair.json", "--utility", "haunted",
            "--out", out_path,
        ]),
    ]


class Cli(Workload):
    """Each op is one ``chisini`` command line, run as its own interpreter
    (or in-process through ``chisini.cli.main`` when ``in_process``).

    The shipped models are the inputs, so the seed changes nothing here.
    Outputs are checked against digests recorded at the seed commit; the
    repair target path is replaced by ``<OUT>`` before hashing stdout.
    """

    name = "cli"

    def __init__(self, seed: int, root: Path, in_process: bool = False):
        self.seed = seed
        self.root = root
        self.in_process = in_process
        tmp_root = root / ".bench_tmp"
        tmp_root.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=tmp_root))
        self.out_path = os.path.relpath(self.tmp / "repaired.json", root)
        self.commands = _cli_commands(self.out_path)
        with open(BENCH_DIR / "cli_digests.json", encoding="utf-8") as fh:
            self.expected = json.load(fh)

    def __len__(self):
        return len(self.commands)

    def subcommand(self, i) -> str:
        return self.commands[i][1][0]

    def run(self, i):
        argv = self.commands[i][1]
        target = self.root / self.out_path
        target.unlink(missing_ok=True)  # so a repair that writes nothing fails its check
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = chisini.cli.main(argv)
            stdout = buf.getvalue().encode()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "chisini.cli", *argv],
                cwd=self.root,
                stdout=subprocess.PIPE,
                check=False,
            )
            code, stdout = proc.returncode, proc.stdout
        written = target.read_bytes() if target.exists() else None
        return code, stdout, written

    def observed(self, out) -> dict:
        code, stdout, written = out
        stdout = stdout.replace(self.out_path.encode(), b"<OUT>")
        return {
            "exit": code,
            "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "file_sha256": hashlib.sha256(written).hexdigest() if written else None,
        }

    def check(self, i, out):
        return self.observed(out) == self.expected[self.commands[i][0]]

    def fingerprint(self, i, out):
        return _canonical(self.observed(out))

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def build(name: str, seed: int, root: Path, *, in_process_cli: bool = False) -> Workload:
    if name == "solve":
        return Solve(seed)
    if name == "ce-audit":
        return CeAudit(seed)
    if name == "axioms":
        return Axioms(seed)
    if name == "cli":
        return Cli(seed, root, in_process=in_process_cli)
    raise ValueError(f"unknown workload {name!r}")
