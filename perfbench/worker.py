"""One measuring process: runs a workload's pass back to back through
``tuhf.cli.main`` in-process, times each command from call to return,
checks each output against the planted expectation, and writes a JSON
result.  Started by ``run.py`` as a fresh interpreter, so its peak RSS
is the workload's.

Usage: python3 worker.py JOB.json   (the job file is written by run.py)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import speed

SPLIT_TOL = 1e-12


def _first_difference(got: str, want: str) -> str:
    g, w = got.splitlines(), want.splitlines()
    for n, (a, b) in enumerate(zip(g, w), 1):
        if a != b:
            return f"line {n}: got {a[:120]!r}, expected {b[:120]!r}"
    return f"got {len(g)} lines, expected {len(w)}"


def check(expect: dict, rc, out: str, err: str) -> str | None:
    """None when the output matches the planted expectation, else why not."""
    if rc != expect["rc"]:
        return f"exit code {rc}, expected {expect['rc']}: {err.strip()[-300:]}"
    if "text" in expect:
        if out != expect["text"]:
            return _first_difference(out, expect["text"])
    elif "sha256" in expect:
        if len(out) != expect["size"] or hashlib.sha256(out.encode()).hexdigest() != expect["sha256"]:
            return f"stdout ({len(out)} chars) does not match the expected {expect['size']} chars"
    elif "suites" in expect:
        lines = out.splitlines()
        if not lines or lines[-1] != "all suites passed":
            return "check all did not end with 'all suites passed'"
        bad = [line for line in lines[:-1] if " ok (" not in line]
        if bad:
            return f"suite line not ok: {bad[0][:200]}"
    elif "split" in expect:
        want = expect["split"]
        lines = out.splitlines()
        if len(lines) != 2 or not lines[0].startswith("phases "):
            return f"unexpected split output {out[:200]!r}"
        if lines[1] != want["pattern"]:
            return f"pattern {lines[1]!r}, expected {want['pattern']!r}"
        got = [tuple(map(float, cell.split(","))) for cell in lines[0].split()[1:]]
        if len(got) != len(want["phases"]):
            return f"{len(got)} phases, expected {len(want['phases'])}"
        for r, ((gr, gi), (wr, wi)) in enumerate(zip(got, want["phases"]), 1):
            if abs(gr - wr) > SPLIT_TOL or abs(gi - wi) > SPLIT_TOL:
                return f"phase of row {r} is {gr},{gi}, expected {wr},{wi}"
    return None


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    import tuhf
    import tuhf.cli

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.install(tuhf)
    cli = tuhf.cli
    commands = json.loads(Path(job["plan"]).read_text(encoding="utf-8"))
    os.chdir(job["workdir"])

    results = []  # (kind, latency in s, error or None, start) per executed command
    refs = []  # (time, reference seconds), sampled between commands
    digests: dict[int, str] = {}
    passes = 0
    start = time.perf_counter()
    while True:
        if job["passes"] is not None:
            if passes >= job["passes"]:
                break
        elif passes >= job["min_passes"] and time.perf_counter() - start >= job["seconds"]:
            break
        for idx, cmd in enumerate(commands):
            if not refs or time.perf_counter() - refs[-1][0] >= speed.REF_INTERVAL:
                refs.append((time.perf_counter(), speed.sample()))
            if tracer is not None:
                tracer.kind = cmd["kind"]
                tracer.command = len(results)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    rc = cli.main(cmd["argv"])
                except SystemExit as exc:  # argparse rejects its arguments
                    rc = exc.code
                except Exception as exc:  # a traceback counts as a failed command
                    rc = f"uncaught {type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
            text = out.getvalue()
            error = check(cmd["expect"], rc, text, err.getvalue())
            digest = hashlib.sha256(text.encode()).hexdigest()
            if error is None and digests.setdefault(idx, digest) != digest:
                error = "stdout differs from an earlier run of the same command"
            if "stdout_to" in cmd:
                Path(cmd["stdout_to"]).write_text(text, encoding="utf-8")
            if tracer is not None:
                tracer.counts["cli.stdout_bytes"] += len(text.encode())
            results.append((cmd["kind"], t1 - t0, error, t0))
        passes += 1

    refs.append((time.perf_counter(), speed.sample()))
    if tracer is not None:
        tracer.write(Path(job["spans"]))
    report = {
        "passes": passes,
        "commands": results,
        "digests": [digests.get(i) for i in range(len(commands))],
        "refs": refs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    Path(job["out"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
