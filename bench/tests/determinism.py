"""Determinism of the benchmark: exact counts and identical outputs.

For each workload, the traced run is made twice on one seed and every
count metric, and every ratio of counts, must read the same; the output
digests of the traced pass, the untraced pass inside the traced run and a
separate ``--trace 0`` run must all agree.

These tests run the benchmark itself, which takes a few minutes, so the
file name keeps them out of a plain ``pytest`` collection.  Run them from
the root of the repository with

    python3 -m pytest bench/tests/determinism.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SEED = 7

#: Units of metrics that must repeat exactly: counts and ratios of counts.
EXACT_UNITS = ("count", "ratio")


def run_bench(workload: str, trace: int) -> tuple[dict, list[str]]:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    lines = out.stdout.splitlines()
    return json.loads(lines[-1]), lines


def digests(lines: list[str]) -> list[str]:
    """Hex digests on the ``output_digest`` line, traced pass first."""
    line = next(line for line in lines if line.startswith("output_digest "))
    return [word.strip("()") for word in line.split() if len(word.strip("()")) == 64]


@pytest.mark.parametrize("workload", ["solve", "ce-audit", "axioms", "cli"])
def test_counts_repeat_and_outputs_agree(workload):
    first, first_lines = run_bench(workload, trace=1)
    second, _ = run_bench(workload, trace=1)
    untraced, untraced_lines = run_bench(workload, trace=0)

    for result in (first, second, untraced):
        assert result["correct"] and result["failed"] == 0
    exact = {
        name: m["value"] for name, m in first["metrics"].items() if m["unit"] in EXACT_UNITS
    }
    assert exact, "no count metrics reported"
    assert exact == {name: second["metrics"][name]["value"] for name in exact}

    traced_digest, untraced_pass_digest = digests(first_lines)
    assert traced_digest == untraced_pass_digest
    assert digests(untraced_lines) == [traced_digest]
