"""cutlab benchmark entry point.

    python3 perfbench/run.py --workload multicut_gap --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout. Each workload runs in fresh worker
processes (``worker.py``), single-threaded, against ``src/cutlab``:
first ``SETUP_PROBES`` processes that only set up, then one process that
sets up and runs passes in a closed loop until ``--seconds`` have gone.
Every job's answer is checked. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``. See ``README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
HASH_SEED = "0"
TIME_LIMIT_S = 170.0
# worker.calibrate() time on a 2-vCPU Intel Xeon VM with Python 3.11.7.
# Pass and set-up times are scaled by CALIBRATION_S / (calibrate() time
# measured in the same process), i.e. reported at that host's speed: the
# host's speed drifts by up to 25 % over minutes, which raw times carry
# into the run-to-run spread and calibrated ones largely cancel.
CALIBRATION_S = 0.036


class WorkerError(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED=HASH_SEED,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def spawn(args: list[str], workdir: str, limit: float) -> tuple[float, dict]:
    """Run one worker; return its start time (monotonic) and its result."""
    result = os.path.join(workdir, "result.json")
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--workdir", workdir, "--result", result]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), capture_output=True, text=True, timeout=limit - started
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    doc = json.loads(Path(result).read_text())
    os.remove(result)
    return started, doc


def run_workload(name: str, seed: int, seconds: int, trace: int, limit: float) -> dict:
    deadline = time.monotonic() + seconds
    common = ["--workload", name, "--seed", str(seed), "--deadline", repr(deadline)]
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=HERE / ".work")
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            started, doc = spawn([*common, "--setup-only"], workdir, limit)
            setups.append((doc["ready"] - started) * CALIBRATION_S / doc["probe"])
        started, doc = spawn([*common, "--trace", str(trace)], workdir, limit)
        setups.append((doc["ready"] - started) * CALIBRATION_S / doc["probe"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            (HERE / ".work").rmdir()
    doc["setups"] = setups
    return doc


def end_to_end(doc: dict) -> dict[str, float]:
    calibrated = [t * CALIBRATION_S / c for t, c in zip(doc["passes"], doc["probes"])]
    return {
        "wall_s": statistics.median(calibrated),
        "raw_wall_s": statistics.median(doc["passes"]),
        "setup_s": statistics.median(doc["setups"]),
        "peak_rss_mb": doc["rss_kb"] / 1024,
    }


def per_layer(doc: dict) -> dict[str, float]:
    """Per-pass means over the traced passes, so that the layer self times
    plus ``trace.other_s`` add up to ``trace.wall_s``."""
    n = len(doc["traced"])
    out: dict[str, float] = {f"{layer}_s": t / n for layer, t in doc["layer_s"].items()}
    out.update(doc["counts"])
    out["trace.wall_s"] = sum(doc["traced"]) / n
    out["trace.other_s"] = out["trace.wall_s"] - doc["root_s"] / n
    out["trace.overhead_frac"] = statistics.median(doc["traced"]) / statistics.median(doc["passes"]) - 1
    return out


def summary_line(name: str, doc: dict, values: dict[str, float]) -> str:
    frac = doc["failed"] / doc["attempted"]
    return (
        f"{name}: wall_s {values['wall_s']:.4f} s (median of {len(doc['passes'])} passes, "
        f"calibrated; raw {values['raw_wall_s']:.4f} s), "
        f"setup_s {values['setup_s']:.4f} s (median of {len(doc['setups'])} processes), "
        f"peak_rss_mb {values['peak_rss_mb']:.1f} MB, "
        f"fail_frac {frac:.4f} ({doc['failed']}/{doc['attempted']} jobs), "
        f"PYTHONHASHSEED={HASH_SEED}"
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    selected = names if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in selected:
        limit = time.monotonic() + TIME_LIMIT_S
        try:
            doc = run_workload(name, args.seed, args.seconds, args.trace, limit)
        except WorkerError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        values = end_to_end(doc)
        print(summary_line(name, doc, values))
        if args.trace:
            values = per_layer(doc)
        for failure in doc["failures"]:
            print(f"{name}: FAILED {failure}", file=sys.stderr)
        attempted += doc["attempted"]
        failed += doc["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
