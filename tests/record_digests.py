"""Check the record sections of the committed search configs against their digests.

Each entry of record_digests.json names a mode, its config overrides, the
chunk counts it runs at, its record count and the sha256 of its record
section as a result log writes it: one canonical JSON line per record,
after the header.  The merged records do not depend on the chunk count, so
every count of an entry must give the same section.  Entries marked slow
take seconds to minutes each; the Tier-1 test runs the others.

    python tests/record_digests.py    # every entry; exit 1 on a mismatch
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "record_digests.json")


def load(slow: bool = True) -> List[Dict[str, Any]]:
    """The corpus entries, without the slow ones unless `slow`."""
    with open(CORPUS, encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    return [e for e in entries if slow or not e["slow"]]


def entry_id(entry: Dict[str, Any]) -> str:
    extra = ",".join(f"{k}={v}" for k, v in sorted(entry["overrides"].items()))
    return f"{entry['mode']}[{extra}]"


def record_section(entry: Dict[str, Any], n_chunks: int) -> Tuple[int, str]:
    """(record count, sha256 of the record section) of one run of `entry`."""
    from fcspread import search

    cfg = search.make_config(entry["mode"], **entry["overrides"])
    result = search.run_chunked(cfg, n_chunks=n_chunks)
    assert result.completed
    h = hashlib.sha256()
    for rec in result.records:
        h.update((search.canon_json(rec) + "\n").encode())
    return len(result.records), h.hexdigest()


def mismatches(entry: Dict[str, Any]) -> List[str]:
    """One line for each chunk count whose section differs from the entry's."""
    want = (entry["records"], entry["sha256"])
    out = []
    for n_chunks in entry["chunks"]:
        got = record_section(entry, n_chunks)
        if got != want:
            out.append(f"{entry_id(entry)} at {n_chunks} chunks: {got[0]} records, "
                       f"sha256 {got[1]}; want {want[0]}, {want[1]}")
    return out


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    failed = 0
    for entry in load():
        start = time.perf_counter()
        problems = mismatches(entry)
        print(f"{'FAIL' if problems else 'ok  '} {entry_id(entry)} "
              f"({time.perf_counter() - start:.2f} s)", flush=True)
        for line in problems:
            print("     " + line, flush=True)
        failed += bool(problems)
    print(f"{failed} of the entries failed" if failed else "every entry matches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
