"""Run every workload and print its end-to-end metrics; optionally rerun
each workload on several seeds and report each metric's spread.

    python3 perfbench/report.py                 # each workload once
    python3 perfbench/report.py --runs 10       # steadiness: seeds 0..9
    python3 perfbench/report.py --trace 1       # per-layer metrics instead

Every workload of BENCHMARK.json runs for its ``run_seconds``.

A metric's spread is the distance between the first and third quartile
of its values (``statistics.quantiles(values, n=4)``) as a share of
their median; a spread above the metric's bound in BENCHMARK.json makes
the report exit 1, as does any failed output check.  ``--json PATH``
saves the environment, every run's result and each metric's median,
quartiles and spread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0}


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's result to this file")
    args = parser.parse_args()
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    ok = True
    saved = {"environment": environment(), "seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [
            run_once(workload, seed, spec["run_seconds"], args.trace)
            for seed in range(args.runs)
        ]
        saved["workloads"][workload] = {"runs": results, "summary": {}}
        ok &= all(r["correct"] for r in results)
        print(f"== {workload}: {args.runs} run(s), "
              f"{sum(r['failed'] for r in results)} of "
              f"{sum(r['attempted'] for r in results)} commands failed")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results if r["metrics"]]
            if not values:
                continue
            stats = summary(values)
            saved["workloads"][workload]["summary"][m["name"]] = stats
            line = f"   {m['name']:<44} {stats['median']:14.4f} {m['unit']}"
            if "spread" in stats and "bound" in m:
                s = stats["spread"]
                verdict = "ok" if s <= m["bound"] / 3 else ("wide" if s <= m["bound"] else "OVER")
                line += f"   spread {s:.3f} of bound {m['bound']} {verdict}"
                ok &= verdict != "OVER"
            print(line)
    if args.json:
        Path(args.json).write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
