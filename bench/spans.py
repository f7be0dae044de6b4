"""Span tracer for the benchmark's traced run.

The tracer replaces module attributes with timing wrappers, at the names
where callers look them up (`search.decompose`, not `products.decompose`,
because `search` imported the name).  Each wrapped call records a span:
name, start, end and the span that was open when it began.  Spans live in
compact arrays while the workload runs and are written out at the end.
Self time is a span's duration minus the durations of its child spans;
calls in one process never overlap, so children cover disjoint intervals.

Spans opened inside pool worker processes stay in those processes.  The
fc-resume-2proc traced pass therefore re-runs its 64-chunk plan serially
under a `bench.profile_plan` span to see each chunk.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

Hook = Callable[["Tracer", tuple, Any], None]


def _count_nonempty(tracer: "Tracer", args: tuple, result: Any) -> None:
    if result:
        tracer.counts["products.decompose.nonempty"] += 1


def _note_plan(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["search.plan.units"] += sum(len(chunk) for chunk in result)
    tracer.counts["search.plan.pair_cost"] += sum(
        unit["cost"] for chunk in result for unit in chunk
    )


def _note_run(tracer: "Tracer", args: tuple, result: Any) -> None:
    if result.completed:
        tracer.counts["search.candidates"] += result.candidates
        tracer.counts["search.records"] += len(result.records)


def _note_checkpoint(tracer: "Tracer", args: tuple, result: Any) -> None:
    size = os.path.getsize(args[0])
    tracer.counts["search.checkpoint_bytes"] = max(
        tracer.counts["search.checkpoint_bytes"], size
    )


# (module, attribute, span name, hook).  The module is the one whose
# attribute the callers read at call time.
LAYER_FUNCTIONS = (
    ("search", "run_chunked", "search.run_chunked", _note_run),
    ("search", "plan_chunks", "search.plan_chunks", _note_plan),
    ("search", "run_chunk", "search.run_chunk", None),
    ("search", "save_checkpoint", "search.save_checkpoint", _note_checkpoint),
    ("search", "load_checkpoint", "search.load_checkpoint", None),
    ("search", "merge_records", "search.merge_records", None),
    ("search", "verify_record", "search.verify_record", None),
    ("search", "decompose", "products.decompose", _count_nonempty),
    ("arith", "perfect_power_exponents", "arith.perfect_power_exponents", None),
    ("arith", "factorize", "arith.factorize", None),
    ("arith", "gcd_quality", "arith.gcd_quality", None),
    ("families", "is_standard", "families.is_standard", None),
    ("abc_check", "radical_sieve", "abc_check.radical_sieve", None),
    ("abc_check", "brute_force_scan", "abc_check.brute_force_scan", None),
    ("abc_check", "report", "abc_check.report", None),
    ("abc_check", "verify_abc_record", "abc_check.verify_abc_record", None),
    ("cli", "verify_log_lines", "cli.verify_log_lines", None),
)
# Generators are timed per item, not per call: the call only builds them.
LAYER_ITERATORS = (
    ("search", "enumerate_products", "products.enumerate_products"),
)


class Tracer:
    """Records spans for wrapped calls; restore() undoes every wrapper."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._patched: List[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, module: Any, attr: str, name: str, hook: Optional[Hook]) -> None:
        fn = getattr(module, attr)
        nid = self._id(name)
        names, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def wrap_iterator(self, module: Any, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        span, counts = self.span, self.counts

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            it = iter(fn(*args, **kwargs))
            while True:
                with span(name):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                counts[name + ".items"] += 1
                yield item

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def install(self, modules: Dict[str, Any]) -> None:
        for mod, attr, name, hook in LAYER_FUNCTIONS:
            self.wrap(modules[mod], attr, name, hook)
        for mod, attr, name in LAYER_ITERATORS:
            self.wrap_iterator(modules[mod], attr, name)

    def original(self, module: Any, attr: str) -> Any:
        """The unwrapped function behind a patched attribute."""
        for mod, name, fn in self._patched:
            if mod is module and name == attr:
                return fn
        return getattr(module, attr)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def write(self, path: str) -> None:
        """One JSON header line, then the name, start, end and parent arrays."""
        header = {
            "format": "fcspread-bench-spans",
            "names": self.names,
            "count": len(self.start),
            "clock": "perf_counter_ns",
            "arrays": [
                ["name_id", self.name_id.typecode, self.name_id.itemsize],
                ["start", self.start.typecode, self.start.itemsize],
                ["end", self.end.typecode, self.end.itemsize],
                ["parent", self.parent.typecode, self.parent.itemsize],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent):
                arr.tofile(fh)


def layer_metrics(tracer: Tracer, threads: int) -> Dict[str, float]:
    """Per-layer counts and seconds derived from the spans and hook counts."""
    n = len(tracer.start)
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0] * n
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += dur[i]
    k = len(tracer.names)
    calls, total, own = [0] * k, [0] * k, [0] * k
    for i, nid in enumerate(tracer.name_id):
        calls[nid] += 1
        total[nid] += dur[i]
        own[nid] += dur[i] - child[i]

    def ids(prefix: str) -> List[int]:
        return [j for j, name in enumerate(tracer.names)
                if name == prefix or name.startswith(prefix + ".")]

    def count(name: str) -> int:
        return sum(calls[j] for j in ids(name))

    def seconds(name: str) -> float:
        return sum(total[j] for j in ids(name)) / 1e9

    def self_seconds(name: str) -> float:
        return sum(own[j] for j in ids(name)) / 1e9

    names = tracer.names
    # Chunk balance: group run_chunk spans by the call that ran them and
    # take the group that spent the most chunk time.
    groups: Dict[int, List[int]] = {}
    for i, nid in enumerate(tracer.name_id):
        if names[nid] == "search.run_chunk":
            groups.setdefault(tracer.parent[i], []).append(dur[i])
    heaviest = max(groups.values(), key=sum, default=[])
    imbalance = max(heaviest) / (sum(heaviest) / len(heaviest)) if heaviest else 0.0

    # arith.factorize calls made on behalf of one abc triple.
    per_triple = {"abc_check.report", "abc_check.verify_abc_record"}
    triple_factorizations = 0
    for i, nid in enumerate(tracer.name_id):
        if names[nid] != "arith.factorize":
            continue
        p = tracer.parent[i]
        while p >= 0 and names[tracer.name_id[p]] not in per_triple:
            p = tracer.parent[p]
        triple_factorizations += p >= 0
    triples = count("abc_check.report") + count("abc_check.verify_abc_record")

    c = tracer.counts
    run_chunked_s = seconds("search.run_chunked")
    return {
        "search.run_chunked.s": run_chunked_s,
        "search.run_chunk.s": seconds("search.run_chunk"),
        "search.run_chunk.calls": count("search.run_chunk"),
        "search.scan_self_s": self_seconds("search.run_chunk"),
        "search.plan.units": c["search.plan.units"],
        "search.plan.pair_cost": c["search.plan.pair_cost"],
        "search.plan_chunks.s": seconds("search.plan_chunks"),
        "search.chunk_imbalance": imbalance,
        "search.pool_efficiency": (
            seconds("search.run_chunk") / (threads * run_chunked_s)
            if run_chunked_s else 0.0
        ),
        "search.save_checkpoint.calls": count("search.save_checkpoint"),
        "search.save_checkpoint.s": seconds("search.save_checkpoint"),
        "search.checkpoint_bytes": c["search.checkpoint_bytes"],
        "search.load_checkpoint.s": seconds("search.load_checkpoint"),
        "search.merge_records.s": seconds("search.merge_records"),
        "search.candidates": c["search.candidates"],
        "search.records": c["search.records"],
        "search.verify_record.calls": count("search.verify_record"),
        "search.verify_record.s": seconds("search.verify_record"),
        "products.decompose.calls": count("products.decompose"),
        "products.decompose.s": seconds("products.decompose"),
        "products.decompose.hit_ratio": (
            c["products.decompose.nonempty"] / count("products.decompose")
            if count("products.decompose") else 0.0
        ),
        "products.enumerate_products.items": c["products.enumerate_products.items"],
        "products.enumerate_products.s": seconds("products.enumerate_products"),
        "arith.perfect_power_exponents.calls": count("arith.perfect_power_exponents"),
        "arith.perfect_power_exponents.s": seconds("arith.perfect_power_exponents"),
        "arith.factorize.calls": count("arith.factorize"),
        "arith.factorize.s": seconds("arith.factorize"),
        "arith.gcd_quality.calls": count("arith.gcd_quality"),
        "abc_check.factorize_per_triple": (
            triple_factorizations / triples if triples else 0.0
        ),
        "abc_check.radical_sieve.s": seconds("abc_check.radical_sieve"),
        "abc_check.scan_self_s": self_seconds("abc_check.brute_force_scan"),
        "abc_check.report.calls": count("abc_check.report"),
        "abc_check.report.s": seconds("abc_check.report"),
        "abc_check.verify_abc_record.calls": count("abc_check.verify_abc_record"),
        "abc_check.verify_abc_record.s": seconds("abc_check.verify_abc_record"),
        "families.is_standard.calls": count("families.is_standard"),
        "families.is_standard.s": seconds("families.is_standard"),
        "cli.run.s": seconds("cli.run"),
        "cli.run.search.s": seconds("cli.run.search"),
        "cli.run.verify-log.s": seconds("cli.run.verify-log"),
        "cli.run.abc-scan.s": seconds("cli.run.abc-scan"),
        "cli.run.abc-check.s": seconds("cli.run.abc-check"),
        "cli.self_s": self_seconds("cli.run"),
        "cli.verify_log_lines.s": seconds("cli.verify_log_lines"),
    }
