"""Per-layer tracing applied from outside the ``tuhf`` package.

``install()`` replaces every public function of the nine ``tuhf``
modules with a wrapper that records a span (name, start, end, parent,
command index), in every ``tuhf`` namespace that bound the function --
``from .embeddings import alternating`` binds ``alternating`` separately
in ``towers`` and ``automorphisms``.  ``OrderedPartition`` construction,
a few ``TowerSpec`` methods and each ``checks.SUITES`` entry get spans
too.  ``TowerSpec.descriptor_at`` runs millions of times per
``tower show`` and is only counted.  Spans stay in memory until
``write()``; ``summarize()`` turns a written trace into per-layer
metrics, where a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import itertools
import json
import time
import types
from array import array
from collections import Counter
from pathlib import Path

MODULES = (
    "cli", "checks", "automorphisms", "gelfand", "towers",
    "embeddings", "partitions", "matrices", "supernatural",
)
TOWER_METHODS = ("level_dims", "level_dim", "composite", "embedding", "supernatural_pair")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # One entry per span, in start order; arrays keep a million spans small.
        self.nid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cmd = array("i")
        self.stack = [-1]
        self.active: Counter = Counter()  # open spans per name
        self.counts: Counter = Counter()
        self.tickers: dict = {}  # name -> itertools.count().__next__ of a count-only wrapper
        self.max_ground = 0
        self.kind = ""  # kind of the command being run
        self.command = -1  # index of the command being run

    def wrap(self, name: str, fn, probe=None):
        nid = len(self.names)
        self.names.append(name)
        nids, starts, ends, parents, cmds = self.nid, self.start, self.end, self.parent, self.cmd
        stack, active = self.stack, self.active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            nids.append(nid)
            parents.append(stack[-1])
            cmds.append(self.command)
            stack.append(idx)
            active[name] += 1
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                active[name] -= 1
            if probe is not None:
                probe(self, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def count_only(self, name: str, fn):
        tick = itertools.count().__next__
        self.tickers[name] = tick

        def counted(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def write(self, path: Path) -> None:
        """Dump the spans and counters gathered so far: a JSON header line,
        then the five span arrays as raw machine values."""
        counts = dict(self.counts)
        for name, tick in self.tickers.items():
            counts[name + ".calls"] = tick()  # the calls so far
        counts["partitions.OrderedPartition.max_ground"] = self.max_ground
        head = {"names": self.names, "counts": counts, "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for arr in (self.nid, self.start, self.end, self.parent, self.cmd):
                arr.tofile(fh)


# -- counters taken at the same boundaries as the spans ----------------------


def _partition_built(tr: Tracer, args, _result) -> None:
    p = args[0]
    n = len(p.blocks) * len(p.blocks[0])
    tr.counts["partitions.OrderedPartition.elements"] += n
    tr.counts[f"{tr.kind}:partition_elements"] += n
    if tr.active["gelfand.projection_chain"]:
        tr.counts["gelfand.projection_chain.materialized_elements"] += n
    tr.max_ground = max(tr.max_ground, n)


def _alternating_built(tr: Tracer, _args, result) -> None:
    tr.counts["embeddings.alternating.elements"] += result.k_to


def _partition_formatted(tr: Tracer, _args, result) -> None:
    tr.counts["partitions.format_partition.bytes"] += len(result)


def _records_formatted(tr: Tracer, args, _result) -> None:
    tr.counts[f"{tr.kind}:recorded_elements"] += sum(d.action.ground_size for d in args[0])


def _chain_read(tr: Tracer, _args, result) -> None:
    tr.counts["gelfand.projection_chain.chain_entries"] += len(result)


PROBES = {
    "embeddings.alternating": _alternating_built,
    "partitions.format_partition": _partition_formatted,
    "automorphisms.format_auto_data": _records_formatted,
    "gelfand.projection_chain": _chain_read,
}


def install(tuhf) -> Tracer:
    """Wrap the package's public functions in place; return the tracer."""
    tr = Tracer()
    modules = [getattr(tuhf, m) for m in MODULES]
    namespaces = modules + [tuhf]
    replaced = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                name = f"{short}.{attr}"
                replaced[obj] = tr.wrap(name, obj, PROBES.get(name))
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if isinstance(obj, types.FunctionType) and obj in replaced:
                setattr(ns, attr, replaced[obj])

    part = tuhf.partitions.OrderedPartition
    part.__post_init__ = tr.wrap(
        "partitions.OrderedPartition", part.__post_init__, _partition_built
    )
    spec = tuhf.towers.TowerSpec
    for method in TOWER_METHODS:
        setattr(spec, method, tr.wrap(f"towers.{method}", getattr(spec, method)))
    spec.descriptor_at = tr.count_only("towers.descriptor_at", spec.descriptor_at)
    suites = tuhf.checks.SUITES
    for name, fn in list(suites.items()):
        suites[name] = tr.wrap(f"checks.suite.{name}", fn)
    return tr


# -- turning a written trace into per-layer metrics --------------------------


def summarize(path: Path, kinds: list[str], passes: int) -> dict[str, float]:
    """Per-layer metrics from a trace file of ``passes`` passes of the
    workload; ``kinds[c]`` is command c's kind.  Counts, bytes and times
    are per pass; ratios and the largest ground are not divided."""
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        n = head["spans"]
        nid, start, end, parent, command = (array(t) for t in "iddii")
        for arr in (nid, start, end, parent, command):
            arr.fromfile(fh, n)
    names = head["names"]
    counts = Counter(head["counts"])
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]

    out: Counter = Counter()
    kind_time: Counter = Counter()  # cli.main duration per command kind
    kind_layer: Counter = Counter()  # (kind, module) -> self time
    for i in range(n):
        name = names[nid[i]]
        self_s = dur[i] - child[i]
        out[name + ".self_s"] += self_s
        out[name + ".calls"] += 1
        module = name.split(".", 1)[0]
        out[module + ".self_s"] += self_s
        kind = kinds[command[i]] if command[i] >= 0 else ""
        kind_layer[kind, module] += self_s
        if name == "cli.main":
            kind_time[kind] += dur[i]
        if name.startswith("checks.suite."):
            out[name + ".s"] += dur[i]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    max_ground = counts.pop("partitions.OrderedPartition.max_ground")
    out.update(counts)
    out["trace.spans"] = n
    out = Counter({name: value / passes for name, value in out.items()})
    out["partitions.OrderedPartition.max_ground"] = max_ground
    recorded = out["shift:recorded_elements"]
    built = out["shift:partition_elements"]
    out["automorphisms.shift.useful_elements"] = recorded
    out["automorphisms.shift.built_elements"] = built
    out["automorphisms.shift.useful_ratio"] = ratio(recorded, built)
    out["automorphisms.shift.partitions_embeddings_share"] = ratio(
        kind_layer["shift", "partitions"] + kind_layer["shift", "embeddings"],
        kind_time["shift"],
    )
    out["gelfand.projection_chain.useful_ratio"] = ratio(
        out["gelfand.projection_chain.chain_entries"],
        out["gelfand.projection_chain.materialized_elements"],
    )
    queries = out["towers.level_dims.calls"] + out["towers.level_dim.calls"]
    out["towers.level_queries"] = queries
    out["towers.steps_per_level_query"] = ratio(out["towers.descriptor_at.calls"], queries)
    return dict(out)
