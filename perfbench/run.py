"""Benchmark entry point for the ``tuhf`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then drives
``tuhf.cli.main`` in-process from a fresh worker interpreter as one
closed-loop caller: the workload's pass of commands runs back to back,
repeated until S seconds have gone (at least twice), and each command
is timed from call to return.  Every output is checked against a
planted fact.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Times
are normalized for the machine's speed (see speed.py), set-up time is
measured in separate fresh interpreters, and peak RSS is the worker's
own.  ``--trace 1`` runs the pass untraced for S/2 seconds, then a
fixed number of passes with per-layer tracing, and reports the
per-layer metrics per pass with the tracing overhead.

Human-readable lines go first; the last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.  The program
is read from ``src/`` of the checkout that holds this directory; all
scratch files live in ``.perfbench-work/`` there and are removed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_SPAWNS = 9
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import tuhf.cli; tuhf.cli.build_parser()"
SETUP_REF_CODE = (
    "import argparse, ctypes, dataclasses, decimal, email.parser, fractions, http.client,"
    " json, numpy, sqlite3, ssl, typing, unittest, xml.dom.minidom"
)
SETUP_REF_NOMINAL = 0.22  # seconds per reference spawn, quiet 2-vCPU x86-64 VM, Python 3.11
TRACE_PASSES = 2  # passes of the traced run, whatever the program's speed
TIME_LIMIT = 170.0  # seconds for the whole run, generation included

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


def spawn(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - t0


def measure_setup() -> float:
    """Normalized wall time of a fresh interpreter importing tuhf.cli and
    building its parser.  Each spawn is divided by the mean of the
    reference spawns just before and after it, which start the same
    interpreter and import numpy and a fixed set of standard-library
    modules, so that a slower process start or import cancels; the
    median ratio is scaled by SETUP_REF_NOMINAL.  numpy is in the
    reference because a busy second CPU slows loading it far more than
    pure-Python imports.  One unmeasured spawn of each first writes the
    bytecode."""
    spawn(SETUP_CODE)
    spawn(SETUP_REF_CODE)
    before = spawn(SETUP_REF_CODE)
    ratios = []
    for _ in range(SETUP_SPAWNS):
        took = spawn(SETUP_CODE)
        after = spawn(SETUP_REF_CODE)
        ratios.append(took / ((before + after) / 2))
        before = after
    return statistics.median(ratios) * SETUP_REF_NOMINAL


def run_worker(workdir: Path, tag: str, deadline: float, *, seconds: float = 0.0,
               min_passes: int = 1, passes: int | None = None, trace: bool = False) -> dict:
    job = {
        "src": str(SRC),
        "plan": str(workdir / "plan.json"),
        "workdir": str(workdir / "in"),
        "seconds": seconds,
        "min_passes": min_passes,
        "passes": passes,
        "trace": trace,
        "out": str(workdir / f"{tag}.json"),
        "spans": str(workdir / f"{tag}.spans"),
    }
    job_path = workdir / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path)],
        cwd=ROOT, check=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    result = json.loads(Path(job["out"]).read_text(encoding="utf-8"))
    result["norm"] = speed.normalize(result["commands"], result["refs"])
    return result


def by_kind(kinds: list[str], values: list[float]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for kind, value in zip(kinds, values):
        out.setdefault(kind, []).append(value)
    return out


def pass_mean(result: dict, per_pass: int, kind: str) -> float:
    """Mean normalized latency of ``kind`` within each pass, median over passes."""
    means = []
    for p in range(result["passes"]):
        lo, hi = p * per_pass, (p + 1) * per_pass
        cmds, norm = result["commands"][lo:hi], result["norm"][lo:hi]
        means.append(statistics.fmean(n for c, n in zip(cmds, norm) if c[0] == kind))
    return statistics.median(means)


def print_kinds(result: dict) -> None:
    kinds = [cmd[0] for cmd in result["commands"]]
    raw = by_kind(kinds, [cmd[1] for cmd in result["commands"]])
    norm = by_kind(kinds, result["norm"])
    for kind in sorted(raw):
        print(f"  {kind + '_ms':<44} {1000 * statistics.median(norm[kind]):14.4f} ms"
              f"   median of {len(raw[kind])}; wall {1000 * statistics.median(raw[kind]):.4f} ms")


def end_to_end(workload: str, result: dict, per_pass: int, setup_s: float) -> dict[str, float]:
    lat = result["norm"]
    # A fixed percentile keeps the tail comparable when a faster program
    # fits more passes into a run.
    p90 = statistics.quantiles(lat, n=10)[-1]
    primary = gen.PRIMARY_KIND[workload]
    print(f"  op_tail_ms is p90 of {len(lat)} commands, {sum(x > p90 for x in lat)} beyond it;"
          f" primary_cmd_ms is the mean `{primary}` per pass, median over passes")
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_median_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * p90,
        "primary_cmd_ms": 1000 * pass_mean(result, per_pass, primary),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def per_layer(workdir: Path, base: dict, traced: dict) -> dict[str, float]:
    """Per-layer figures per pass of the workload, so that they do not
    grow when a faster program fits more passes into the untraced run."""
    values = tracing.summarize(
        workdir / "traced.spans", [cmd[0] for cmd in traced["commands"]], traced["passes"]
    )
    untraced = sum(base["norm"]) / base["passes"]
    traced_s = sum(traced["norm"]) / traced["passes"]
    values["trace.untraced_s"] = untraced
    values["trace.traced_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced
    values["trace.overhead_ratio"] = (traced_s - untraced) / untraced
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT

    if not (SRC / "tuhf" / "cli.py").is_file():
        print(f"error: no tuhf sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # Set-up is timed before generation, whose file writes would slow the spawns.
    setup_s = 0.0 if args.trace else measure_setup()

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        (workdir / "in").mkdir()
        commands = gen.generate(args.workload, args.seed, workdir / "in")
        (workdir / "plan.json").write_text(json.dumps(commands), encoding="utf-8")
        print(f"workload {args.workload} seed {args.seed}: {len(commands)} commands per pass")

        if args.trace:
            base = run_worker(workdir, "base", deadline, seconds=args.seconds / 2,
                              min_passes=TRACE_PASSES)
            traced = run_worker(workdir, "traced", deadline, passes=TRACE_PASSES, trace=True)
            runs = [base, traced]
            print(f"  {base['passes']} passes untraced, then {TRACE_PASSES} passes traced")
            print_kinds(base)
            values = per_layer(workdir, base, traced)
            wanted = spec["per_layer"]
            if traced["digests"] != base["digests"]:
                traced["commands"].append(("trace", 0.0, "traced stdout differs from untraced", 0.0))
        else:
            result = run_worker(workdir, "run", deadline, seconds=args.seconds, min_passes=2)
            runs = [result]
            print(f"  {result['passes']} passes")
            print_kinds(result)
            values = end_to_end(args.workload, result, len(commands), setup_s)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass

    errors = [(cmd[0], cmd[2]) for run in runs for cmd in run["commands"] if cmd[2]]
    attempted = sum(len(run["commands"]) for run in runs)
    for kind, err in errors[:20]:
        print(f"  FAILED {kind}: {err}")
    print(f"  error_rate {len(errors) / attempted:.4f} ({len(errors)} of {attempted} commands)")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        print(f"  {m['name']:<44} {metrics[m['name']]['value']:14.4f} {m['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
