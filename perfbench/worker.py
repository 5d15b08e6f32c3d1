"""One workload in one fresh process: set up, then run passes until the
deadline, checking every job's answer, and write a JSON result file.

Started by ``run.py``; not meant to be run by hand. ``cutlab`` must be
importable from ``<checkout>/src`` (``run.py`` sets ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def calibrate() -> float:
    """Time a fixed piece of pure-Python work shaped like cutlab's hot paths:
    rational row reduction, as in the simplex, and string-keyed dict
    building, as in the generators. It does not touch cutlab, so its time
    follows only the host's speed."""
    start = time.perf_counter()
    n = 12
    rows = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 7) for j in range(28)] for i in range(n)]
    for c in range(n):
        if rows[c][c]:
            rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    table = {}
    for i in range(20000):
        table[f"v[{i % 97}]/[{i % 89}]"] = i
    return time.perf_counter() - start


def run_pass(jobs, failures: list[str]) -> tuple[float, float, int]:
    """Run every job once, each after one calibrate(); return the summed job
    time, the summed calibration time and the failure count."""
    elapsed = probe = 0.0
    failed = 0
    for job in jobs:
        probe += calibrate()
        start = time.perf_counter()
        try:
            result = job.call()
        except Exception:
            elapsed += time.perf_counter() - start
            failed += 1
            failures.append(f"{job.name}: {traceback.format_exc(limit=3)}")
            continue
        elapsed += time.perf_counter() - start
        try:
            job.check(result)
        except Exception as exc:
            failed += 1
            failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
    return elapsed, probe, failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--deadline", type=float, required=True, help="time.monotonic() value")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    import cutlab

    if Path(cutlab.__file__).resolve().parent != SRC / "cutlab":
        raise SystemExit(f"cutlab imported from {cutlab.__file__}, not {SRC}")
    import workloads

    jobs = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    result: dict = {"ready": time.monotonic()}
    result["probe"] = statistics.median(calibrate() for _ in range(3))
    if not args.setup_only:
        result.update(run_passes(jobs, args.deadline, args.trace))
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(result))
    return 0


def run_passes(jobs, deadline: float, trace: int) -> dict:
    """Closed loop of passes. With tracing, passes alternate untraced and
    traced, so the tracing overhead is measured in the same process."""
    from tracer import Tracer

    tracer = Tracer() if trace else None
    plain: list[float] = []
    probes: list[float] = []  # calibrate() seconds per job, one value per untraced pass
    traced: list[float] = []
    walls: list[float] = []  # pass time including the checks, to plan the next pass
    layer_s: dict[str, float] = {}
    counts: dict[str, int] | None = None
    root_s = 0.0
    failures: list[str] = []
    attempted = failed = 0
    min_passes = 2 if trace else 1
    while True:
        done = len(plain) + len(traced)
        if done >= min_passes:
            if time.monotonic() + statistics.median(walls) > deadline:
                break
        use_tracer = tracer is not None and done % 2 == 1
        if use_tracer:
            tracer.install()
        started = time.monotonic()
        try:
            seconds, probe, bad = run_pass(jobs, failures)
        finally:
            if use_tracer:
                tracer.uninstall()
        walls.append(time.monotonic() - started)
        attempted += len(jobs)
        failed += bad
        if not use_tracer:
            plain.append(seconds)
            probes.append(probe / len(jobs))
            continue
        traced.append(seconds)
        self_s, pass_counts, pass_root_s = tracer.summary()
        tracer.reset()
        for name, value in self_s.items():
            layer_s[name] = layer_s.get(name, 0.0) + value
        root_s += pass_root_s
        counts = counts or pass_counts
    out = {
        "passes": plain,
        "probes": probes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:5],
    }
    if tracer is not None:
        out.update(traced=traced, layer_s=layer_s, counts=counts, root_s=root_s)
    return out


if __name__ == "__main__":
    sys.exit(main())
