"""The four benchmark workloads, the inputs they are built from, and the gate.

Every workload is a fixed list of steps, run one after another by a single
caller.  A step is either a `fcspread.cli.run` argv or, where the command
line has no equivalent, a direct `search.run_chunked` call.  Only
`abc-radicals` depends on the seed: each pass of a run draws a fresh set of
pairs from (seed, pass index).  The cost of factoring 600 random 64-bit
numbers varies by about 10% from set to set, so one run reports the median
over several sets.  The search workloads are fixed configurations, so their
record sections can be pinned (see pins.json).

This module imports nothing from fcspread, so the orchestrator can read the
workload table without paying for numpy and mpmath.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

# The seed used when --seed is not given; the abc-radicals check log is
# pinned for the first pass of this seed only.
DEFAULT_SEED = 0

ABC_PAIRS = 200
ABC_PAIR_BITS = 64
ABC_INPUT = "pairs.txt"
ABC_LOG = "check.log"


@dataclass(frozen=True)
class Step:
    """One command of a workload.

    `argv` is passed to `cli.run`; an empty `argv` means a direct
    `search.run_chunked(**call)` call.  `log` names the result log the step
    writes, `verifies` the log a `verify-log` step re-checks.
    """

    argv: Tuple[str, ...] = ()
    call: Optional[Tuple[Tuple[str, object], ...]] = None
    log: Optional[str] = None
    verifies: Optional[str] = None

    @property
    def kind(self) -> str:
        """Span suffix for `cli.run.<kind>`; 'run_chunked' for a direct call."""
        if not self.argv:
            return "run_chunked"
        if self.argv[0] == "abc":
            return "abc-" + self.argv[1]
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    steps: Tuple[Step, ...]


def _search(mode: str, bits: int, log: str, *extra: str, threads: int = 1,
            chunks: int = 16) -> Step:
    argv = ("search", mode, "--max-bits", str(bits), "--threads", str(threads),
            "--chunks", str(chunks)) + extra + ("--output", log)
    return Step(argv=argv, log=log)


def _verify(log: str) -> Step:
    return Step(argv=("verify-log", log), verifies=log)


_PRODUCT_SEARCHES = (
    ("gbtz", 31, ()),
    ("nonmaxgcd3", 30, ()),
    ("fp", 34, ()),
    ("maxgcd-spread1", 36, ()),
    ("pillai", 20, ("--difference", "1", "--max-spread", "2")),
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fc-pairs",
            1,
            (_search("fc", 35, "fc35.log"), _verify("fc35.log")),
        ),
        Workload(
            "product-targets",
            1,
            tuple(
                step
                for mode, bits, extra in _PRODUCT_SEARCHES
                for step in (_search(mode, bits, f"{mode}{bits}.log", *extra),
                             _verify(f"{mode}{bits}.log"))
            ),
        ),
        Workload(
            "fc-resume-2proc",
            2,
            (
                Step(call=(("mode", "fermat-catalan"), ("max_bits", 34),
                           ("n_chunks", 64), ("threads", 2),
                           ("checkpoint_path", "fc34.ckpt"), ("max_chunks", 32))),
                _search("fc", 34, "fc34.log", "--checkpoint", "fc34.ckpt",
                        "--resume", threads=2, chunks=64),
                _verify("fc34.log"),
            ),
        ),
        Workload(
            "abc-radicals",
            1,
            (
                Step(argv=("abc", "scan", "--limit", "1000000", "--output",
                           "scan.log"), log="scan.log"),
                Step(argv=("abc", "check", "--classic", "1/10", "--input",
                           ABC_INPUT, "--output", ABC_LOG), log=ABC_LOG),
                _verify(ABC_LOG),
            ),
        ),
    )
}


def abc_pairs(seed: int, index: int) -> List[Tuple[int, int]]:
    """ABC_PAIRS distinct coprime pairs a < b below 2**ABC_PAIR_BITS."""
    rng = random.Random(f"abc-radicals/{seed}/{index}")
    seen = set()
    pairs = []
    while len(pairs) < ABC_PAIRS:
        a, b = sorted(rng.randrange(1, 1 << ABC_PAIR_BITS) for _ in range(2))
        if a < b and math.gcd(a, b) == 1 and (a, b) not in seen:
            seen.add((a, b))
            pairs.append((a, b))
    return pairs


def write_inputs(workload: Workload, seed: int,
                 index: int) -> Optional[List[Tuple[int, int]]]:
    """Write the inputs of pass `index` into the current directory."""
    if workload.name != "abc-radicals":
        return None
    pairs = abc_pairs(seed, index)
    with open(ABC_INPUT, "w", encoding="utf-8") as fh:
        fh.writelines(f"{a} {b}\n" for a, b in pairs)
    return pairs


def check(ops: List[Dict[str, Any]], name: str, ok: bool, detail: str = "") -> None:
    """Append one gate operation (a command or an output check) to `ops`."""
    ops.append({"op": name, "ok": bool(ok), "detail": detail})
