"""Machine-speed normalization.

The benchmark runs on shared machines whose speed drifts by tens of
percent within minutes.  Between commands the worker times a fixed
slice of pure-Python work (``sample()``); a command's latency is then
scaled by REF_NOMINAL over the median reference time sampled near it.
A normalized figure reads as the latency on a quiet machine on which
one reference run takes REF_NOMINAL seconds.  Raw wall times are
printed next to the normalized ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_NOMINAL = 0.00065  # seconds per reference run, quiet 2-vCPU x86-64 VM, Python 3.11
REF_INTERVAL = 0.1  # seconds between reference samples
REF_REPEAT = 3  # reference runs per sample; the sample is their median
REF_WINDOW = 0.5  # seconds either side of a command whose samples count


def reference() -> int:
    """Work like the CLI's own: building tuples of ints, formatting them
    as text and multiplying big integers."""
    blocks = tuple(tuple(a * 256 + b for b in range(1, 17)) for a in range(128))
    text = ";".join(",".join(map(str, b)) for b in blocks)
    x = 1
    for _ in range(400):
        x *= 30
    return len(text) + len(str(x))


def sample() -> float:
    """Median time of a few reference runs: the machine's current speed."""
    times = []
    for _ in range(REF_REPEAT):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(refs: list, times: list, at: float) -> float:
    """REF_NOMINAL over the median reference sample within REF_WINDOW of
    ``at`` (at least the three nearest); ``times`` are the samples' times."""
    lo = bisect.bisect_left(times, at - REF_WINDOW)
    hi = bisect.bisect_right(times, at + REF_WINDOW)
    window = [r for _, r in refs[lo:hi]]
    if len(window) < 3:
        window = [r for _, r in sorted(refs, key=lambda tr: abs(tr[0] - at))[:3]]
    return REF_NOMINAL / statistics.median(window)


def normalize(commands: list, refs: list) -> list[float]:
    """Normalized latency of each (kind, latency, error, start) command."""
    times = [t for t, _ in refs]
    return [latency * factor(refs, times, start + latency / 2)
            for _, latency, _, start in commands]
