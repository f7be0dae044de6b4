"""Shows that the benchmark's gate catches broken output.

    python3 bench/selfcheck.py

Runs one pass of fc-resume-2proc through run.py twice: once with one digit
of a result-log record changed before verify-log reads it (--tamper log),
once with a wrong pinned digest (--tamper digest).  Each run must report a
failed operation and exit nonzero; the tampered log must also fail
verify-log, not only the digest check.  Exits 0 when the gate holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOAD = "fc-resume-2proc"


def tampered_run(kind: str) -> list:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", WORKLOAD, "--seconds", "0",
         "--tamper", kind],
        capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else {}
    failures = [ln for ln in lines if " FAILED: " in ln]
    print(f"--tamper {kind}: exit {proc.returncode}, "
          f"{summary.get('failed')} of {summary.get('attempted')} operations failed")
    for line in failures:
        print("  " + line)
    caught = proc.returncode != 0 and summary.get("failed", 0) >= 1 and not summary.get("correct")
    return failures if caught else []


def main() -> int:
    log_failures = tampered_run("log")
    digest_failures = tampered_run("digest")
    ok = bool(digest_failures) and any("verify-log" in f for f in log_failures)
    print("gate self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
