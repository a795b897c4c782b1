"""Benchmark of the chisini library and CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Workloads are ``solve``, ``ce-audit``, ``axioms`` and ``cli`` (see
``README.md``); ``--workload all`` runs the four in turn, one report each.
With ``--trace 0`` the run reports the end-to-end metrics with tracing
off; with ``--trace 1`` it runs the traced pass and reports the per-layer
metrics.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

The work itself runs in ``worker.py`` processes started one at a time,
with BLAS thread pools pinned to one thread.  This process imports neither
numpy nor the library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("solve", "ce-audit", "axioms", "cli")

#: Set-up is timed this many times per run (extra set-up-only workers plus
#: the measuring worker); the median is reported.
SETUP_SAMPLES = 3

#: Seconds a worker may take before it is killed.
WORKER_TIMEOUT = 170

#: End-to-end metrics in report order; (name, unit).  The BENCHMARK.json
#: entries hold the same names with their bounds.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(mode: str, workload: str, seed: int, seconds: float) -> tuple[float, float, dict]:
    """Start one worker; return (wall seconds until it was ready, the same
    scaled to the reference speed, its result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, workload, str(seed), str(seconds)]
    with reference.Speedometer() as speed:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
        try:
            first = proc.stdout.readline()
        except BaseException:
            proc.kill()
            raise
        ready = time.perf_counter() - start
    with proc:
        try:
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise RuntimeError(f"worker {mode} {workload} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return ready, ready * speed.scale(start, start + ready), result


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _numpy_version() -> str:
    out = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, env=_env(),
    )
    return out.stdout.strip() or "missing"


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    runs = [run_worker("setup", workload, seed, seconds) for _ in range(SETUP_SAMPLES - 1)]
    runs.append(run_worker("measure", workload, seed, seconds))
    res = runs[-1][2]
    wall, scaled = res["latencies"], res["scaled"]
    attempted, failed = res["attempted"], res["failed"]
    p90 = _p90(scaled)
    metrics = {
        "setup_s": statistics.median(run[1] for run in runs),
        "ops_per_s": (attempted - failed) / sum(scaled),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "op_p90_ms": 1e3 * p90,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    lines = [
        f"ops: {attempted}; latency quantiles over {len(scaled)} samples, "
        f"{sum(x > p90 for x in scaled)} beyond p90",
        f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} ops failed)",
        "times below are scaled to the reference speed (bench/reference.py); "
        "unscaled wall: "
        f"setup_s {statistics.median(run[0] for run in runs):.6g} s, "
        f"ops_per_s {(attempted - failed) / sum(wall):.6g} 1/s, "
        f"op_p50_ms {1e3 * statistics.median(wall):.6g} ms, "
        f"op_p90_ms {1e3 * _p90(wall):.6g} ms",
        f"setup samples: {', '.join(f'{run[1]:.4f}' for run in runs)} s",
    ]
    for sub, times in sorted(res["per_command"].items()):
        lines.append(
            f"cmd_{sub}_ms {1e3 * statistics.median(times):.6g} ms (median of {len(times)})"
        )
    lines.append(f"output_digest {res['digest']}")
    return {"attempted": attempted, "failed": failed}, metrics, lines


def trace(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    res = run_worker("trace", workload, seed, seconds)[2]
    ratio = res["metrics"]["trace.ops_per_s_ratio"]
    lines = [
        f"traced pass: {res['spans']} spans written to {res['spans_path']}",
        f"tracing overhead: traced/untraced ops_per_s = {ratio:.4f} "
        f"({res['traced_busy_s']:.4f} s traced, {res['untraced_busy_s']:.4f} s untraced)",
        f"output_digest {res['digest']} (untraced pass {res['untraced_digest']})",
    ]
    return {"attempted": res["attempted"], "failed": res["failed"]}, res["metrics"], lines


def run_workload(workload: str, seed: int, seconds: float, traced: int) -> int:
    """Print one workload's report, ending with its result line."""
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
        "python": platform.python_version(), "numpy": _numpy_version(),
        "nproc": os.cpu_count(), "commit": _commit(),
    }
    print("meta " + json.dumps(meta), flush=True)
    try:
        counts, metrics, lines = (trace if traced else measure)(workload, seed, seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    for line in lines:
        print(line)
    units = metrics.pop("units") if traced else dict(END_TO_END)
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/chisini/__init__.py", "models") if not (ROOT / p).exists()]
    if missing:
        sys.stderr.write(f"not a chisini checkout: missing {', '.join(missing)}\n")
        return 2
    # one CPU for this process and every worker: the load stays within
    # nproc, and the speedometer times the CPU the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(w, args.seed, args.seconds, args.trace) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
