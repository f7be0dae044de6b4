"""One pass of one workload, in a fresh interpreter.

Started by run.py with the checkout root as the first argument.  It imports
fcspread from `<root>/src`, writes the workload's inputs into its work
directory, then runs the timed section: every step of the workload, one
after another.  After the timed section it checks the outputs (the gate)
and prints one JSON object on stdout.

With --trace the layer functions are wrapped (see spans.py) for the timed
section, and the spans are written next to the result files.

The host's CPU speed drifts by up to 1.7x on shared machines, as other
tenants load the cores, and it changes from second to second.  A fixed
probe loop measures it (see SpeedProbe); the pass reports its times both
raw and scaled by PROBE_REF_NS / median probe time, that is, as seconds on
a CPU where the probe takes PROBE_REF_NS.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import signal
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

import workloads
from workloads import check
from spans import Tracer, layer_metrics

# The probe's time on an idle vCPU (Intel Xeon, Python 3.11.7); loaded
# periods on the same host measure 400-550 us.
PROBE_REF_NS = 300_000
PROBE_INTERVAL_S = 0.05
# Samples per burst; back-to-back bursts agree within about 2%.
PROBE_BURST = 40
# Probe operations resemble the workloads' (big-int arithmetic, gcd, hash
# lookups, calls), which a plain small-int loop tracks worse.
_PROBE_TABLE = {i**3 + 12345678901234567: i for i in range(512)}
_PROBE_MULT = 0x9E3779B97F4A7C15

_VERIFY_SUMMARY = re.compile(r"verify-log: (\d+) records checked, (\d+) problems")
_WRONG_DIGEST = "0" * 64


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def _probe_step(acc: int) -> int:
    return acc + 1


def probe() -> int:
    """Nanoseconds for a fixed pure-Python loop: the CPU speed right now."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(600):
        v = i**3 + 12345678901234567
        if v in _PROBE_TABLE:
            acc = _probe_step(acc)
        acc ^= _PROBE_MULT * (i + 3) % 1_000_000_007
        acc += math.gcd(v, 1 << 40)
    return time.perf_counter_ns() - t0


def speed(samples: List[int]) -> float:
    """Factor that scales measured seconds to seconds at PROBE_REF_NS."""
    return PROBE_REF_NS / statistics.median(samples)


class SpeedProbe:
    """Measures the CPU speed over the timed section it encloses.

    probe() runs PROBE_BURST times in a burst just before and just after
    the section.  If `inside`, a timer signal also runs it every
    PROBE_INTERVAL_S within the section, and those samples alone set the
    factor: they follow the second-to-second changes that two bursts miss.
    Otherwise a burst also runs between the workload's steps.  `busy_s` is
    the time the probe took within the section, which the pass takes off
    its wall and CPU times.

    Only a single-process, untraced pass samples inside.  While pool
    workers run, the probe would share a vCPU with them and read the
    program's own parallelism as a slower host; between steps no worker is
    alive.  In a traced pass a timer sample would land in whichever span is
    open.
    """

    def __init__(self, inside: bool) -> None:
        self.inside = inside
        self.bursts: List[int] = []
        self.samples: List[int] = []
        self.busy_ns = 0

    def _burst(self) -> int:
        batch = [probe() for _ in range(PROBE_BURST)]
        self.bursts += batch
        return sum(batch)

    def _sample(self, signum: int, frame: Any) -> None:
        ns = probe()
        self.samples.append(ns)
        self.busy_ns += ns

    def between_steps(self) -> None:
        if not self.inside:
            self.busy_ns += self._burst()

    def __enter__(self) -> "SpeedProbe":
        self._burst()
        if self.inside:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._burst()

    @property
    def busy_s(self) -> float:
        return self.busy_ns / 1e9

    @property
    def factor(self) -> float:
        return speed(self.samples or self.bursts)


def record_lines(path: str) -> List[str]:
    """The record section of a result log: every line after the header."""
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()[1:]


def record_digest(path: str) -> str:
    data = "".join(line + "\n" for line in record_lines(path))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def tamper_log(path: str) -> bool:
    """Change one digit in the first record line; False if there is none."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2:
        return False
    match = re.search(r"\d", lines[1])
    i = match.start()
    lines[1] = lines[1][:i] + str((int(lines[1][i]) + 1) % 10) + lines[1][i + 1:]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return True


def run_steps(wl: workloads.Workload, mods: Dict[str, Any], ops: List[Dict[str, Any]],
              tracer: Optional[Any], tamper: Optional[str],
              probes: SpeedProbe) -> List[Dict[str, Any]]:
    cli, search = mods["cli"], mods["search"]
    steps = []
    tampered = False
    for step in wl.steps:
        if steps:
            probes.between_steps()
        label = " ".join(step.argv) if step.argv else f"run_chunked {dict(step.call)}"
        span = tracer.span(f"cli.run.{step.kind}") if tracer and step.argv else (
            contextlib.nullcontext())
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if step.argv:
                rc = cli.run(list(step.argv))
            else:
                kwargs = dict(step.call)
                cfg = search.make_config(kwargs.pop("mode"), max_bits=kwargs.pop("max_bits"))
                result = search.run_chunked(cfg, **kwargs)
                rc = 0 if result.chunks_run == kwargs["max_chunks"] else 1
        seconds = time.perf_counter() - t0
        check(ops, f"exit code of {label}", rc == 0, f"got {rc}, expected 0")
        if step.verifies:
            m = _VERIFY_SUMMARY.search(err.getvalue())
            n_records = len([ln for ln in record_lines(step.verifies) if ln.strip()])
            check(
                ops,
                f"verify-log {step.verifies} reports no problems",
                bool(m) and int(m.group(2)) == 0 and int(m.group(1)) == n_records,
                m.group(0) if m else "no verify-log summary",
            )
        if tamper == "log" and not tampered and step.log:
            tampered = tamper_log(step.log)
        steps.append({"step": label, "exit_code": rc, "s": seconds})
    return steps


def check_outputs(wl: workloads.Workload, seed: int, index: int, pairs: Any,
                  pins: Dict[str, Dict[str, str]], ops: List[Dict[str, Any]],
                  tamper: Optional[str]) -> Dict[str, str]:
    """Pinned record digests, and the abc check records against the input."""
    digests = {step.log: record_digest(step.log) for step in wl.steps if step.log}
    expected = dict(pins.get(wl.name, {}))
    if (seed, index) != (workloads.DEFAULT_SEED, 0):
        expected.pop(workloads.ABC_LOG, None)
    if tamper == "digest":
        expected[sorted(expected)[0]] = _WRONG_DIGEST
    for log, digest in sorted(expected.items()):
        check(ops, f"record section of {log} matches its pin",
              digests.get(log) == digest, f"sha256 {digests.get(log)}")
    if pairs is not None:
        got = [(r["a"], r["b"], r["c"])
               for r in map(json.loads, record_lines(workloads.ABC_LOG))]
        check(ops, "abc check records cover the input pairs in order",
              got == [(a, b, a + b) for a, b in pairs],
              f"{len(got)} records for {len(pairs)} pairs")
    return digests


def profile_plan(wl: workloads.Workload, mods: Dict[str, Any], tracer: Any) -> None:
    """Run the first step's chunk plan serially, one run_chunk span per chunk."""
    search = mods["search"]
    call = dict(wl.steps[0].call)
    cfg = search.make_config(call["mode"], max_bits=call["max_bits"])
    plan = tracer.original(search, "plan_chunks")(cfg, call["n_chunks"])
    with tracer.span("bench.profile_plan"):
        for units in plan:
            search.run_chunk(cfg.semantic_dict(), units)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS_PATH")
    parser.add_argument("--tamper", choices=("log", "digest"))
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import numpy
    import mpmath
    from fcspread import abc_check, arith, cli, families, search

    mods = {"abc_check": abc_check, "arith": arith, "cli": cli,
            "families": families, "search": search}
    with open(os.path.join(os.path.dirname(__file__), "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(args.workdir)
    os.chdir(args.workdir)
    pairs = workloads.write_inputs(wl, args.seed, args.pass_index)
    ready = time.monotonic()
    result: Dict[str, Any] = {
        "ready": ready,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "mpmath": mpmath.__version__},
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(mods)
    ops: List[Dict[str, Any]] = []
    with SpeedProbe(inside=wl.threads == 1 and tracer is None) as probes:
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        steps = run_steps(wl, mods, ops, tracer, args.tamper, probes)
        wall = time.perf_counter() - t0 - probes.busy_s
        cpu = _cpu_seconds() - cpu0 - probes.busy_s
    factor = probes.factor
    result.update(wall_s=wall * factor, cpu_s=cpu * factor, wall_raw_s=wall,
                  cpu_raw_s=cpu, speed=factor,
                  probes=len(probes.samples or probes.bursts),
                  peak_rss_mb=_peak_rss_mb(), steps=steps)
    result["digests"] = check_outputs(wl, args.seed, args.pass_index, pairs, pins,
                                      ops, args.tamper)
    result["inputs_sha256"] = hashlib.sha256(repr(pairs).encode()).hexdigest()
    result["log_bytes"] = sum(os.path.getsize(s.log) for s in wl.steps if s.log)
    if tracer is not None:
        if wl.threads > 1:
            # Chunk spans recorded in pool workers never reach this process.
            profile_plan(wl, mods, tracer)
        tracer.restore()
        result["layers"] = layer_metrics(tracer, wl.threads)
        result["layers"]["cli.log_bytes"] = result["log_bytes"]
        tracer.write(args.trace)
    result["ops"] = ops
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
