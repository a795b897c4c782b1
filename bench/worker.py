"""One workload process: set up, then run the closed loop or the traced pass.

Started by ``run.py`` as ``worker.py <mode> <workload> <seed> <seconds>``,
one at a time, in a fresh interpreter whose ``PYTHONPATH`` points at the
checkout's ``src``.  It prints ``ready`` once its inputs are built and the
warm-up op is done, then (in modes ``measure`` and ``trace``) one JSON
line with its results.

- ``setup``: exit after ``ready``; the parent times set-up only.

- ``measure``: tracing off; run whole passes over the op list until
  ``seconds`` have elapsed, timing each op.
- ``trace``: one untraced pass over the op list, then one traced pass over
  the same list, so that counts are exact and the two passes give the
  tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import chisini  # noqa: E402  (import time is part of set-up)

import reference  # noqa: E402
import workloads  # noqa: E402


def _run_op(wl, i):
    """(latency in s, output or None, passed)."""
    start = time.perf_counter()
    try:
        out = wl.run(i)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - start, None, False
    latency = time.perf_counter() - start
    try:
        return latency, out, bool(wl.check(i, out))
    except Exception:
        traceback.print_exc()
        return latency, out, False


def _pass(wl, on_op=None):
    """Run the op list once; return (busy seconds, failed ops, digest)."""
    busy, failed = 0.0, 0
    digest = hashlib.sha256()
    for i in range(len(wl)):
        if on_op:
            on_op(i)
        latency, out, ok = _run_op(wl, i)
        busy += latency
        failed += not ok
        if out is not None:
            digest.update(wl.fingerprint(i, out))
    return busy, failed, digest.hexdigest()


def _peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def measure(wl, seconds: float) -> dict:
    """Closed loop over whole passes; each latency is also scaled to the
    reference speed the host had around the op."""
    timed, failed = [], 0
    digest = hashlib.sha256()
    with reference.Speedometer() as speed:
        start = time.perf_counter()
        while True:
            for i in range(len(wl)):
                t0 = time.perf_counter()
                latency, out, ok = _run_op(wl, i)
                timed.append((i, t0, t0 + latency))
                failed += not ok
                if len(timed) <= len(wl) and out is not None:
                    digest.update(wl.fingerprint(i, out))
            if time.perf_counter() - start >= seconds:
                break
        time.sleep(reference.MARGIN_S)  # loop timings after the last op
    latencies = [t1 - t0 for _, t0, t1 in timed]
    scaled = [(t1 - t0) * speed.scale(t0, t1) for _, t0, t1 in timed]
    per_command: dict[str, list[float]] = {}
    if wl.name == "cli":
        for (i, _, _), value in zip(timed, scaled):
            per_command.setdefault(wl.subcommand(i), []).append(value)
    return {
        "attempted": len(timed),
        "failed": failed,
        "latencies": latencies,
        "scaled": scaled,
        "per_command": per_command,
        "digest": digest.hexdigest(),
        "peak_rss_mb": _peak_rss_mb(wl),
    }


def _median_import_s(samples: int = 3) -> float:
    """Time ``import chisini.cli`` in fresh interpreters, one at a time."""
    code = (
        "import time; t = time.perf_counter(); import chisini.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, check=True, text=True
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def trace(wl, rebuild) -> dict:
    """Untraced pass on ``wl``, then a traced pass on ``rebuild()``: inputs
    are built again once the wrappers are installed, so that callables they
    capture (such as a functional's evaluator) are the wrapped ones."""
    import spans

    untraced_busy, untraced_failed, untraced_digest = _pass(wl)
    rec = spans.Recorder()
    spans.install(rec)
    traced = rebuild()

    def set_op(i):
        rec.op_id = i

    try:
        traced_busy, failed, digest = _pass(traced, set_op)
    finally:
        traced.close()
    metrics = rec.metrics()
    if wl.name == "cli":
        metrics["cli.import_s"] = _median_import_s()
    metrics["trace.ops_per_s_ratio"] = untraced_busy / traced_busy
    metrics["units"] = {name: unit for name, unit, _ in spans.METRICS}
    spans_path = ROOT / ".bench_trace" / f"{wl.name}-seed{wl.seed}.tsv.gz"
    rec.write(spans_path)
    return {
        "attempted": 2 * len(wl),
        "failed": untraced_failed + failed,
        "metrics": metrics,
        "digest": digest,
        "untraced_digest": untraced_digest,
        "traced_busy_s": traced_busy,
        "untraced_busy_s": untraced_busy,
        "spans": len(rec.start),
        "spans_path": str(spans_path.relative_to(ROOT)),
    }


def main(argv) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if not Path(chisini.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"chisini imported from {chisini.__file__}, not this checkout\n")
        return 2

    def build():
        # the traced cli run calls chisini.cli.main in-process to wrap it
        return workloads.build(name, seed, ROOT, in_process_cli=(mode == "trace"))

    wl = build()
    try:
        _run_op(wl, 0)  # warm-up; a failure shows again in the ops that follow
        print("ready", flush=True)
        if mode == "setup":
            return 0
        result = measure(wl, seconds) if mode == "measure" else trace(wl, build)
    finally:
        wl.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
