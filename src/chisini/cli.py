"""Command-line front end.

Subcommands: ``validate``, ``compute``, ``audit``, ``tower``, ``repair``.
Every command reads a single self-contained JSON model file and emits a
deterministic report: keys sorted, floats printed with 12 significant
digits (never shortest-round-trip), identical inputs giving byte-identical
bytes.

Exit codes: 0 success, 2 schema/name-resolution failure, 3 utility
regularity violation, 4 residual failure (also an audited functional that
is not strictly monotone, so a conditioning bracket fails, and a number
that leaves the float range: a utility curve that overflows, or a
conditional expectation that saturates at the edge of the utility's image
so that no finite Chisini mean exists in floating point), 5 enumeration
cap exceeded, 6 non-nested partition chain, 7 continuity violation during
repair.

The environment variable CHISINI_CAP (integer) overrides the atom-union
enumeration cap of the residual table that ``compute`` prints.  No other
command reads it: the CLI runs no black-box verification.  Every command
takes ``--model``, ``--out`` and ``--json``/``--table``; ``--tol`` belongs
to ``compute`` and ``tower``, the commands that read the tolerance, and
``--epsilon`` and ``--bound`` to ``repair``.  CHISINI_CAP and these flags
obey the domain of the setting they override, checked by that setting's
model-file parser.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from . import __version__
from .errors import (
    BisectionBracketFailure,
    ChisiniError,
    ComplexityCapExceeded,
    ContinuityViolation,
    ModelFileError,
    NumericRangeError,
    RegularityViolation,
)
from .modelfile import _SETTINGS, ModelFile, load_model, utility_to_spec

EXIT_OK = 0
EXIT_RESOLUTION = 2
EXIT_REGULARITY = 3
EXIT_RESIDUAL = 4
EXIT_CAP = 5
EXIT_CHAIN = 6
EXIT_CONTINUITY = 7


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".12g")


def canonical_json(value, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f'{inner}"{key}": {canonical_json(value[key], indent + 1)}'
            for key in sorted(value)
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{inner}{canonical_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, int):
        return str(value)
    escaped = (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )
    return f'"{escaped}"'


def render_table(value, prefix: str = "") -> list[str]:
    """Flat key = value lines for --table output; same float discipline."""
    lines: list[str] = []
    if isinstance(value, dict):
        for key in sorted(value):
            lines.extend(render_table(value[key], f"{prefix}{key}."))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            lines.extend(render_table(item, f"{prefix}{i}."))
    else:
        rendered = canonical_json(value)
        lines.append(f"{prefix[:-1]} = {rendered}")
    return lines


def _emit(report: dict, as_table: bool, out_path: str | None) -> None:
    if as_table:
        text = "\n".join(render_table(report)) + "\n"
    else:
        text = canonical_json(report) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def cmd_validate(model: ModelFile, args) -> tuple[dict, int]:
    report = {
        "command": "validate",
        "version": "chisini-model/1",
        "outcomes": list(model.space.outcomes),
        "weights": list(model.space.weights),
        "utilities": sorted(model.utilities),
        "partitions": sorted(model.partitions),
        "acts": sorted(model.acts),
        "functionals": sorted(model.functionals),
    }
    return report, EXIT_OK


def cmd_compute(model: ModelFile, args) -> tuple[dict, int]:
    from .conditional import chisini_mean

    solution = chisini_mean(
        model.representation(args.utility),
        model.act(args.act),
        model.partition(args.partition),
        solver=args.solver,
        tol_scale=model.settings.tolerance,
        cap=model.settings.cap,
    )
    # the report prints the union table, so it is judged by that table's
    # own maximum, not by the O(k) certificate
    worst = max((r for _, r in solution.residuals), default=0.0)
    ok = worst <= solution.tolerance
    atoms = [sorted(model.space.outcomes[i] for i in a) for a in solution.algebra.atoms]
    report = {
        "command": "compute",
        "utility": args.utility,
        "act": args.act,
        "partition": args.partition,
        "solver": args.solver,
        "chisini_mean": list(solution.act.values),
        "atoms": atoms,
        "atom_values": list(solution.atom_values()),
        "conditional_utility": list(solution.conditional_utility()),
        "residuals": [
            {
                "event": sorted(model.space.outcomes[i] for i in members),
                "residual": resid,
            }
            for members, resid in solution.residuals
        ],
        "max_residual": worst,
        "tolerance": solution.tolerance,
        "ok": ok,
    }
    return report, EXIT_OK if ok else EXIT_RESIDUAL


def cmd_audit(model: ModelFile, args) -> tuple[dict, int]:
    from .audit import _monotonicity_and_harness

    monotone, harness = _monotonicity_and_harness(model.functional(args.functional))
    checks = {}
    for report in (monotone, harness):
        for check in report.checks:
            checks[check.name] = check.to_dict()
    verdicts = {
        "strict_monotonicity": checks["strict-monotonicity"]["passed"],
        "sure_thing": checks["sure-thing"]["passed"],
        "conditionable": checks["conditionable"]["passed"],
        "agreement": checks["verdict-agreement"]["passed"],
    }
    profile = model.expected_profile(args.functional)
    matches = True
    if profile is not None:
        for key, expected in profile.items():
            if verdicts[key] != expected:
                matches = False
    report = {
        "command": "audit",
        "functional": args.functional,
        "verdicts": verdicts,
        "checks": checks,
        "expected_profile": profile,
        "profile_matches": matches,
    }
    ok = verdicts["agreement"] and matches
    return report, EXIT_OK if ok else EXIT_RESIDUAL


def cmd_tower(model: ModelFile, args) -> tuple[dict, int]:
    from .family import ExpectationFamily

    rep = model.representation(args.utility)
    chain = [model.partition(name) for name in args.chain]
    for coarse_name, fine, coarse in zip(args.chain[1:], chain, chain[1:]):
        if not fine.refines(coarse):
            raise _ChainNotNested(
                f"partition chain is not coarsening-ordered at {coarse_name!r}"
            )
    fam = ExpectationFamily.from_representation(rep)
    acts_report = []
    all_ok = True
    for name in sorted(model.acts):
        x = model.act(name)
        budget = model.settings.tolerance * (1.0 + x.sup_norm)
        links = []
        e0_x = None
        for alg_name, algebra in zip(args.chain, chain):
            # check_tower's defect, solving E_0(X) once: after the first
            # link's solves, as check_tower did, so a failure reads the same
            inner = fam.certainty_equivalent(fam.conditional(x, algebra))
            if e0_x is None:
                e0_x = fam.certainty_equivalent(x)
            defect = abs(inner - e0_x)
            links.append({"partition": alg_name, "defect": defect})
            all_ok = all_ok and defect <= budget
        composed = x
        for algebra in chain:
            composed = fam.conditional(composed, algebra)
        overall = abs(fam.certainty_equivalent(composed) - e0_x)
        all_ok = all_ok and overall <= budget
        acts_report.append(
            {
                "act": name,
                "links": links,
                "composed_defect": overall,
                "tolerance": budget,
            }
        )
    report = {
        "command": "tower",
        "utility": args.utility,
        "chain": list(args.chain),
        "acts": acts_report,
        "ok": all_ok,
    }
    return report, EXIT_OK if all_ok else EXIT_RESIDUAL


def cmd_repair(model: ModelFile, args) -> tuple[dict, int]:
    from .forge import detect_jumps, repair_continuous

    utility = model.utility(args.utility)
    eps, bound = model.settings.repair_epsilon, model.settings.repair_bound
    jumps = detect_jumps(utility, eps, bound)
    repaired = repair_continuous(utility, jumps, model.space.weights)
    repaired_name = f"{args.utility}-repaired"
    out_path = args.out or _default_repair_path(args.model)
    doc = dict(model.raw)
    doc["utilities"] = dict(doc.get("utilities") or {})
    doc["utilities"][repaired_name] = utility_to_spec(repaired)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc) + "\n")
    report = {
        "command": "repair",
        "utility": args.utility,
        "epsilon": eps,
        "bound": bound,
        "jumps": jumps.to_dict(),
        "repaired_utility": repaired_name,
        "output_model": out_path,
        "changed": sorted(
            jumps.outcomes[i] for i in jumps.jumpy_outcomes()
        ),
    }
    return report, EXIT_OK


def _default_repair_path(model_path: str) -> str:
    stem, ext = os.path.splitext(model_path)
    return f"{stem}.repaired{ext or '.json'}"


class _ChainNotNested(ChisiniError):
    pass


def _setting_flag(parser, flag: str, name: str, **kwargs) -> None:
    """A flag overriding setting ``name``, parsed by that setting's parser,
    so that a value outside its domain is a usage error naming the flag."""

    def parse(text: str):
        try:
            return _SETTINGS[name](text, flag)
        except ModelFileError as exc:
            raise argparse.ArgumentTypeError(exc.message) from None

    parser.add_argument(flag, dest=name, metavar=flag[2:].upper(), type=parse, **kwargs)


def _overrides(args) -> dict:
    """The settings overridden by the flags and, for ``compute``, CHISINI_CAP."""
    found = {k: v for k, v in vars(args).items() if k in _SETTINGS and v is not None}
    env = os.environ.get("CHISINI_CAP")
    if args.subcommand == "compute" and env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ModelFileError("CHISINI_CAP", f"not an integer: {env!r}") from None
        found["cap"] = _SETTINGS["cap"](cap, "CHISINI_CAP")
    return found


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chisini",
        description=(
            "Conditional Chisini means, preference-axiom audits and "
            "utility repair on finite probability spaces."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", required=True, help="model file (JSON)")
    common.add_argument("--out", help="also write the report to this path")
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", dest="table", action="store_false", default=False,
        help="JSON report (default)",
    )
    fmt.add_argument(
        "--table", dest="table", action="store_true", help="flat table report"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sub.add_parser("validate", parents=[common], help="check a model file")

    compute = sub.add_parser(
        "compute", parents=[common], help="conditional Chisini mean"
    )
    compute.add_argument("--utility", required=True)
    compute.add_argument("--act", required=True)
    compute.add_argument("--partition", required=True)
    compute.add_argument(
        "--solver", choices=("auto", "bisect"), default="auto"
    )
    _setting_flag(compute, "--tol", "tolerance", help="override the model tolerance")

    audit = sub.add_parser(
        "audit", parents=[common], help="axiom audit of a functional"
    )
    audit.add_argument("--functional", required=True)

    tower = sub.add_parser(
        "tower", parents=[common], help="time-consistency defects along a chain"
    )
    tower.add_argument("--utility", required=True)
    tower.add_argument(
        "--chain", nargs="+", required=True, help="partition names, fine to coarse"
    )
    _setting_flag(tower, "--tol", "tolerance", help="override the model tolerance")

    repair = sub.add_parser(
        "repair", parents=[common], help="detect jumps and repair a utility"
    )
    repair.add_argument("--utility", required=True)
    _setting_flag(repair, "--epsilon", "repair_epsilon")
    _setting_flag(repair, "--bound", "repair_bound")
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "compute": cmd_compute,
    "audit": cmd_audit,
    "tower": cmd_tower,
    "repair": cmd_repair,
}


#: Error type -> (stderr prefix, exit code); the first matching type wins,
#: and any other error propagates.
_ERRORS = {
    ModelFileError: ("", EXIT_RESOLUTION),
    RegularityViolation: ("utility not regular: ", EXIT_REGULARITY),
    BisectionBracketFailure: ("functional is not strictly monotone: ", EXIT_RESIDUAL),
    NumericRangeError: ("outside the float range: ", EXIT_RESIDUAL),
    ComplexityCapExceeded: ("", EXIT_CAP),
    _ChainNotNested: ("", EXIT_CHAIN),
    ContinuityViolation: ("", EXIT_CONTINUITY),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        model = load_model(args.model)
        settings = dataclasses.replace(model.settings, **_overrides(args))
        model = dataclasses.replace(model, settings=settings)
        report, code = _COMMANDS[args.subcommand](model, args)
    except tuple(_ERRORS) as exc:
        prefix, code = next(v for kind, v in _ERRORS.items() if isinstance(exc, kind))
        sys.stderr.write(f"error: {prefix}{exc}\n")
        return code
    out_path = args.out if args.subcommand != "repair" else None
    _emit(report, args.table, out_path)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
