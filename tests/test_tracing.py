"""The benchmark's per-layer tracer (perfbench/tracing.py) still installs
on the package and leaves the commands it wraps working."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# install() patches the package in place for good, so it runs in a
# process of its own
TRACED = """\
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tuhf
import tuhf.cli
import tracing

tracer = tracing.install(tuhf)
tower = sys.argv[3]
for argv in (["tower", "show", tower, "--levels", "3"], ["check", "all", tower, "--cases", "1"]):
    code = tuhf.cli.main(argv)
    print("exit", code)
print("spans", len(tracer.start))
"""


def test_benchmark_tracer_installs_and_traced_commands_run(tmp_path):
    tower = tmp_path / "two.tower"
    tower.write_text("k1 4\ns1 2\nt1 2\ncycle alt 2 2\n")
    result = subprocess.run(
        [sys.executable, "-B", "-c", TRACED, str(ROOT / "src"), str(ROOT / "perfbench"), str(tower)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[:3] == ["level 1 k 4 s 2 t 2", "level 2 k 16 s 4 t 4", "level 3 k 64 s 8 t 8"]
    assert [line for line in lines if line.startswith("exit ")] == ["exit 0", "exit 0"]
    assert "all suites passed" in lines
    assert int(lines[-1].split()[1]) > 0


# A shift record written untraced, then one traced `factor` on it as
# command 0 of a one-pass trace.
TRACED_FACTOR = """\
import contextlib, io, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tuhf
import tuhf.cli
import tracing

tower, work = sys.argv[3], Path(sys.argv[4])
record = io.StringIO()
with contextlib.redirect_stdout(record):
    assert tuhf.cli.main(["shift", tower, "-p", "2", "--levels", "1..4"]) == 0
(work / "shift.auto").write_text(record.getvalue())
tracer = tracing.install(tuhf)
tracer.command, tracer.kind = 0, "factor"
print("exit", tuhf.cli.main(["factor", tower, "--auto", str(work / "shift.auto")]))
tracer.write(work / "trace.bin")
metrics = tracing.summarize(work / "trace.bin", ["factor"], 1)
print("self_s", metrics.get("automorphisms.factor_automorphism.self_s", 0.0))
"""


def test_traced_factor_times_factor_automorphism(tmp_path):
    # `factor` runs its walk inside the public factor_automorphism, which
    # the tracer wraps, so the walk's time is read under that name
    tower = tmp_path / "two.tower"
    tower.write_text("k1 4\ns1 2\nt1 2\ncycle alt 2 2\n")
    result = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_FACTOR, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tower), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[:3] == ["levels 1 2 interval s=4 t=1", "levels 2 3 interval s=4 t=1",
                         "levels 3 4 interval s=4 t=1"]
    assert "exit 0" in lines
    assert float(lines[-1].split()[1]) > 0


# One traced `shift` as command 0 of a one-pass trace; its records go to
# a buffer so the metrics are the last lines printed.
TRACED_SHIFT = """\
import contextlib, io, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tuhf
import tuhf.cli
import tracing

tower, work = sys.argv[3], Path(sys.argv[4])
tracer = tracing.install(tuhf)
tracer.command, tracer.kind = 0, "shift"
with contextlib.redirect_stdout(io.StringIO()):
    code = tuhf.cli.main(["shift", tower, "-p", "2", "--levels", "1..4"])
print("exit", code)
tracer.write(work / "trace.bin")
metrics = tracing.summarize(work / "trace.bin", ["shift"], 1)
for name in ("automorphisms.shift.built_elements", "automorphisms.shift.useful_ratio",
             "partitions.OrderedPartition.max_ground"):
    print(name, metrics.get(name, 0))
"""


def test_traced_shift_counts_every_partition_it_builds(tmp_path):
    # shift's actions are composites, built unchecked through _trusted;
    # every build passes through __post_init__, where the tracer counts
    # it, so the three levels' 16 + 64 + 256 elements are all read
    tower = tmp_path / "two.tower"
    tower.write_text("k1 4\ns1 2\nt1 2\ncycle alt 2 2\n")
    result = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_SHIFT, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tower), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "exit 0"
    metrics = {name: float(value) for name, value in map(str.split, lines[1:])}
    assert metrics == {
        "automorphisms.shift.built_elements": 336,
        "automorphisms.shift.useful_ratio": 1.0,
        "partitions.OrderedPartition.max_ground": 256,
    }
