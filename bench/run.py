"""fcspread benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload fc-pairs --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

Each pass of a workload runs in a fresh interpreter (bench/child.py) as a
closed loop of one caller: the workload's commands run one after another,
with at most two worker processes.  An untraced run (--trace 0) repeats
passes until --seconds have gone by and reports the medians of

    wall_s       wall seconds of the workload's commands
    cpu_s        user + system CPU seconds of the pass and its children
    setup_s      interpreter start until the timed section begins (import
                 of fcspread with numpy and mpmath, input generation), in
                 SETUP_PAIRS set-up-only interpreters
    peak_rss_mb  the larger of self and children ru_maxrss

The host's speed drifts with other tenants' load, so the times are scaled
to a reference host.  wall_s and cpu_s are scaled by a CPU probe loop run
over each timed section (see child.py).  setup_s is scaled by the time of a
baseline interpreter that only imports numpy and mpmath, started right
after each set-up-only one: start-up also waits on the page cache and on
memory, which the CPU probe does not see.  The unscaled times and the
speed factor are printed and stored next to them.

A traced run (--trace 1) makes one untraced pass and two traced passes and
reports the per-layer metrics of spans.py.  Counts must repeat exactly
between the two traced passes.

Every command and every output check is an operation of the gate; the
error rate is failed / attempted operations, and any failure makes the
exit code 1.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The full result, with quartiles,
samples, every gate operation and the machine facts, goes to
bench/results/<workload>-seed<seed>-trace<t>.json; the spans of the last
traced run of a workload go to bench/results/<workload>-traced-pass<k>.spans.

--tamper log|digest breaks one log line or one pinned digest, to show that
the gate catches it (see selfcheck.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SETUP_PAIRS = 9
# The part of set-up that the checkout does not control, and its time on an
# idle vCPU (Intel Xeon, Python 3.11.7): setup_s is given as seconds on a
# host where the baseline takes BASELINE_REF_S.
BASELINE_CODE = "import numpy, mpmath"
BASELINE_REF_S = 0.13
TRACED_PASSES = 2
CHILD_TIMEOUT_S = 100
# A fixed hash seed keeps set and dict layouts, and so timings, the same
# from pass to pass.
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")
# Per-layer units whose values must repeat exactly between traced passes.
EXACT_UNITS = {"count", "bytes", "hit/call", "count/triple"}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or BENCHMARK.json)."""


def load_spec() -> Dict[str, Any]:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fcspread" / "__init__.py").is_file():
        raise BenchError(f"no fcspread sources under {ROOT / 'src'}")
    try:
        with open(spec_path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {spec_path}: {exc}") from None


def spawn_child(workdir: Path, workload: str, seed: int, *extra: str) -> Tuple[Dict[str, Any], float]:
    """Run child.py once; returns its JSON result and the spawn time."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(ROOT),
           "--workload", workload, "--seed", str(seed), "--workdir", str(workdir), *extra]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=CHILD_ENV,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        # The child's own pool workers are gone when it exits normally; this
        # ends whatever is left of its process group on any other path.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited with {proc.returncode}: {' '.join(extra)}")
    return json.loads(lines[-1]), spawned


def baseline_seconds() -> float:
    """Wall seconds of one baseline interpreter, started like a child."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", BASELINE_CODE], env=CHILD_ENV,
                   check=True, timeout=CHILD_TIMEOUT_S)
    return time.monotonic() - t0


def stats(samples: List[float]) -> Dict[str, Any]:
    if all(v == samples[0] for v in samples):
        # Exact counts stay integers.
        q1 = median = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        median = statistics.median(samples)
    return {"median": median, "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def machine_facts(versions: Dict[str, str]) -> Dict[str, Any]:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fcspread").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "mpmath": versions.get("mpmath"),
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


class Run:
    """One invocation for one workload: passes, gate operations, metrics."""

    def __init__(self, workload: str, seed: int, tamper: str | None) -> None:
        self.workload = workload
        self.seed = seed
        self.tamper = ("--tamper", tamper) if tamper else ()
        self.ops: List[Dict[str, Any]] = []
        self.passes: List[Dict[str, Any]] = []
        self.setup: List[float] = []
        self.baseline: List[float] = []
        self.children = 0
        self.workdir = BENCH_DIR / "work" / f"{workload}-{os.getpid()}"

    def child(self, *extra: str) -> Dict[str, Any] | None:
        """One child interpreter; a crash counts as one failed operation."""
        self.children += 1
        workdir = self.workdir / f"child{self.children}"
        try:
            res, spawned = spawn_child(workdir, self.workload, self.seed, *extra)
        except (RuntimeError, ValueError) as exc:
            workloads.check(self.ops, f"child {' '.join(extra)} completes", False,
                            str(exc))
            return None
        res["setup_raw_s"] = res["ready"] - spawned
        self.ops.extend(res.get("ops", []))
        return res

    def timed_pass(self, index: int, *extra: str) -> Dict[str, Any] | None:
        """One timed pass on the inputs of pass `index` of this seed."""
        res = self.child("--pass-index", str(index), *self.tamper, *extra)
        if res is not None:
            self.passes.append(res)
        return res

    def measure_setup(self) -> None:
        """SETUP_PAIRS set-up-only children, each followed by a baseline."""
        for _ in range(SETUP_PAIRS):
            res = self.child("--setup-only")
            if res is None:
                break
            try:
                base = baseline_seconds()
            except (OSError, subprocess.SubprocessError) as exc:
                workloads.check(self.ops, "baseline interpreter completes", False,
                                str(exc))
                break
            self.setup.append(res["setup_raw_s"])
            self.baseline.append(base)

    def check_determinism(self) -> None:
        """Passes that got the same inputs must write the same records."""
        first: Dict[str, Dict[str, str]] = {}
        same = [first.setdefault(p["inputs_sha256"], p["digests"]) == p["digests"]
                for p in self.passes]
        workloads.check(self.ops, "record sections repeat for repeated inputs",
                        all(same), f"{len(same)} passes, {len(first)} input sets")

    @property
    def failed(self) -> int:
        return sum(not op["ok"] for op in self.ops)


def untraced(run: Run, seconds: float) -> Dict[str, Dict[str, Any]]:
    start = time.monotonic()
    while not run.passes or time.monotonic() - start < seconds:
        if run.timed_pass(len(run.passes)) is None:
            break
    run.measure_setup()
    run.check_determinism()
    metrics = {name: stats([p[name] for p in run.passes]) if run.passes else None
               for name in ("wall_s", "cpu_s", "peak_rss_mb", "wall_raw_s",
                            "cpu_raw_s", "speed")}
    if run.setup:
        metrics["setup_s"] = stats([BASELINE_REF_S * t / base
                                    for t, base in zip(run.setup, run.baseline)])
        metrics["setup_raw_s"] = stats(run.setup)
        metrics["baseline_raw_s"] = stats(run.baseline)
    return metrics


def traced(run: Run, units: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    # Every pass of a traced run gets the same inputs, so counts can repeat.
    base = run.timed_pass(0)
    layers = []
    for k in range(TRACED_PASSES):
        spans = BENCH_DIR / "results" / f"{run.workload}-traced-pass{k}.spans"
        res = run.timed_pass(0, "--trace", str(spans))
        if res is not None:
            layers.append(dict(res["layers"], wall_s=res["wall_s"]))
    run.check_determinism()
    if base is None or len(layers) < TRACED_PASSES:
        return {}
    for name, unit in units.items():
        if unit in EXACT_UNITS and name in layers[0]:
            values = [layer[name] for layer in layers]
            workloads.check(run.ops, f"{name} repeats across traced passes",
                            all(v == values[0] for v in values), str(values))
    metrics = {name: stats([layer[name] for layer in layers])
               for name in layers[0] if name != "wall_s"}
    metrics["trace_overhead_s"] = stats(
        [layer["wall_s"] - base["wall_s"] for layer in layers])
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tamper: str | None, spec: Dict[str, Any]) -> Dict[str, Any]:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    run = Run(name, seed, tamper)
    try:
        metrics = traced(run, units) if trace else untraced(run, seconds)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        try:
            run.workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for metric in units:
        workloads.check(run.ops, f"metric {metric} measured",
                        metrics.get(metric) is not None)
    reported = {m: dict(metrics[m], unit=units[m]) for m in units if metrics.get(m)}
    # Unscaled times and the speed factor, for the record only.
    unscaled = {m: dict(v, unit="x" if m == "speed" else "s")
                for m, v in metrics.items() if m not in units and v}
    attempted = len(run.ops)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tamper": tamper,
        "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": machine_facts(run.passes[0]["versions"] if run.passes else {}),
        "attempted": attempted,
        "failed": run.failed,
        "error_rate": run.failed / attempted,
        "metrics": reported,
        "unscaled": unscaled,
        "failures": [op for op in run.ops if not op["ok"]],
        "ops": run.ops,
        "passes": [{k: v for k, v in p.items() if k != "ops"} for p in run.passes],
    }
    tag = f"-tamper-{tamper}" if tamper else ""
    out = results_dir / f"{name}-seed{seed}-trace{int(trace)}{tag}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for metric, m in list(reported.items()) + list(unscaled.items()):
        print(f"{name} {metric} = {m['median']!r} {m['unit']} "
              f"(median of {m['n']}; q1 {m['q1']!r}, q3 {m['q3']!r})")
    print(f"{name} error_rate = {result['error_rate']!r} ratio "
          f"({run.failed} failed of {attempted} operations)")
    for op in result["failures"]:
        print(f"{name} FAILED: {op['op']}: {op['detail']}")
    print(f"{name} result file: {out.relative_to(ROOT)}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", choices=("log", "digest"))
    args = parser.parse_args()
    try:
        spec = load_spec()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, seconds, bool(args.trace), args.tamper, spec)
               for n in names]
    prefix = len(names) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{m}" if prefix else m): {"value": v["median"], "unit": v["unit"]}
            for r in results for m, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
