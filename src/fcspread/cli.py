"""Command line front end.

Every run emits a result log plus exactly one manifest.  The result log is
line-delimited JSON: first a header object with the log format version, the
resolved configuration and its digest, then one canonically serialized
record per line.  The record section carries no timestamps and is sorted
canonically, so reruns with the same configuration and package version are
byte-identical.  Timing, paths and totals live in the manifest, written to
<output>.manifest.json when --output is given and to stderr otherwise.

Exit codes: 0 run completed and matched expectations, 1 completed but found
something unexpected (a counterexample, a catalog mismatch, a failed
verification), 2 usage or configuration error, 3 runtime failure.

`run` may be called any number of times in one process; the calls share one
parser, built on the first call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import traceback
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__, abc_check, arith, families, products, search
from .search import (FORMAT_VERSION, CheckpointMismatch, SearchConfig, _atomic_write,
                     _sha256, canon_json)

RESULT_LOG_FORMAT = "fcspread-result-log"
MANIFEST_FORMAT = "fcspread-manifest"

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    """Bad flags, bad config file, or inconsistent run setup."""


# ---------------------------------------------------------------------------
# Small parsing helpers


def _parse_range(text: str) -> Tuple[int, int]:
    """"N" or "A..B" as an inclusive integer range."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"expected N or A..B, got {text!r}") from None
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    return lo, hi


def _parse_coeffs(text: str) -> Tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"expected A,B,C coefficients, got {text!r}")
    try:
        a, b, c = (int(p) for p in parts)
    except ValueError:
        raise UsageError(f"non-integer coefficient in {text!r}") from None
    return a, b, c


def _load_config_file(path: Optional[str]) -> Dict[str, Any]:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    return data


def _merge_options(
    args: argparse.Namespace,
    keys: Sequence[str],
    fixed: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Options of --config and flags: defaults (downstream) < config file < flags.

    A file key outside `keys` is refused, except `format` and the keys of
    `fixed` (what the positional arguments decide, e.g. a search's mode)
    when they agree with it: a log header's config is a natural config file.
    """
    file_cfg = _load_config_file(args.config)
    fixed = fixed or {}
    for key, val in file_cfg.items():
        if key in fixed:
            if val != fixed[key]:
                raise UsageError(f"config {key} {val!r} does not match {fixed[key]!r}")
        elif key != "format" and key not in keys:
            raise UsageError(f"unknown config key {key}")
    merged: Dict[str, Any] = {}
    for key in keys:
        if key in file_cfg:
            merged[key] = file_cfg[key]
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _int_option(merged: Dict[str, Any], key: str, default: int) -> int:
    value = merged.get(key, default)
    if type(value) is not int:  # a bool, float or string is refused, not coerced
        raise UsageError(f"{key} must be an integer")
    return value


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ---------------------------------------------------------------------------
# Result log and manifest emission


def _write_log(
    output: Optional[str], header: Dict[str, Any], records: Sequence[Dict[str, Any]]
) -> None:
    lines = [canon_json(header)]
    lines.extend(canon_json(rec) for rec in records)
    data = "\n".join(lines) + "\n"
    if output:
        _atomic_write(output, data)
    else:
        sys.stdout.write(data)


def _emit(
    args: argparse.Namespace,
    subcommand: str,
    params: Dict[str, Any],
    records: Sequence[Dict[str, Any]],
    exit_code: int = EXIT_OK,
    /,
    *,
    log: bool = True,
    **counts: int,
) -> int:
    """Write the result log and the manifest of one run; return exit_code.

    The manifest totals count the records; `counts` overrides any of
    chunks, candidates, records and errors (positional-only parameters keep
    the name `records` free for that).  `output`, `input`, `checkpoint` and
    `started` are read from args.
    """
    output = getattr(args, "output", None)
    header = {
        "format": RESULT_LOG_FORMAT,
        "version": FORMAT_VERSION,
        "subcommand": subcommand,
        "config": params,
        "config_digest": _sha256(params),
    }
    if log:
        _write_log(output, header, records)
    n = len(records)
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": FORMAT_VERSION,
        "package_version": __version__,
        "subcommand": subcommand,
        "config": params,
        "config_digest": header["config_digest"],
        "input": getattr(args, "input", None),
        "output": output,
        "checkpoint": getattr(args, "checkpoint", None),
        "started": args.started,
        "finished": _now(),
        "totals": {"chunks": 0, "candidates": n, "records": n, "errors": 0, **counts},
        "exit_code": exit_code,
    }
    if output:
        _atomic_write(output + ".manifest.json", canon_json(manifest) + "\n")
    else:
        sys.stderr.write(canon_json(manifest) + "\n")
    return exit_code


# ---------------------------------------------------------------------------
# Record builders: each command writes its records with one of these, and
# verify-log calls the same one again to rebuild a record and compare


def identity_record(sol: families.KnownSolution) -> Dict[str, Any]:
    (x, dx), (y, dy), (z, dz) = sol.terms
    return {
        "kind": "identity",
        "sign": sol.sign,
        "source": sol.source,
        "x": x,
        "y": y,
        "z": z,
        "x_factors": list(dx.factors),
        "y_factors": list(dy.factors),
        "z_factors": list(dz.factors),
        "weight": str(sol.weight()),
        "checks": search.jsonify(sol.checks),
    }


_CATALOGS = {"fc": families.fermat_catalan_catalog, "degree3": families.degree3_catalog}


def _catalog_records(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The records of `catalog`: the entries whose terms are at most 2^max_bits."""
    max_bits = params["max_bits"]
    return [identity_record(sol) for sol in _CATALOGS[params["catalog"]]()
            if max_bits is None or max(v for v, _ in sol.terms) <= 1 << max_bits]


# The generator of each `gen` family and the params it takes, in order, with
# their defaults.
_GEN_FAMILIES = {
    "standard": (families.gen_standard, {"v": 1, "w": 2, "n": 3}),
    "maxgcd-trivial": (families.gen_maxgcd_trivial, {"x": 2, "p": 5}),
    "pythagorean": (families.gen_pythagorean, {"a": 2, "n": 4, "m": 5}),
    "counterexample": (families.gen_counterexample_family,
                       {"a": 2, "alpha": 2, "extra_degree": 100}),
}


def _gen_record(params: Dict[str, Any]) -> Dict[str, Any]:
    """The record of `gen` for params {"family": name, and that family's params}."""
    gen, keys = _GEN_FAMILIES[params["family"]]
    res = gen(*(params[k] for k in keys))
    if isinstance(res, families.IdentityFailure):
        return {"kind": "identity-failure", "family": params["family"],
                "params": dict(res.params), "lhs": res.lhs, "rhs": res.rhs,
                "reason": res.reason}
    return identity_record(res)


def decomposition_record(dec: products.ProductDecomposition) -> Dict[str, Any]:
    return {
        "kind": "decomposition",
        "value": dec.value,
        "factors": list(dec.factors),
        "base": dec.base,
        "spread": dec.spread,
        "degree": dec.degree,
        "weight": str(dec.weight),
    }


def _verify_decomposition(rec: Dict[str, Any], params: Dict[str, Any]) -> List[str]:
    """Rebuild a decompose record from its factors and compare.

    decompose writes the record only where params' value, degree range and
    spread cap admit it.
    """
    dec = products.analyze([int(f) for f in rec["factors"]])
    lo, hi = params["degree"]
    fits = (dec.value == params["value"] and lo <= dec.degree <= hi
            and dec.spread <= params["max_spread"])
    return search._compare(rec, decomposition_record(dec) if fits else None,
                           "decompose writes no record for these factors")


def _arith_record(kind: str, n: int) -> Dict[str, Any]:
    if kind == "factorization":
        return {"kind": kind, "n": n, "factors": [[p, e] for p, e in arith.factorize(n)]}
    return {"kind": "radical", "n": n, "radical": arith.radical(n)}


def _verify_factorization(rec: Dict[str, Any], params: Dict[str, Any]) -> List[str]:
    """Check a factor record as a certificate, far cheaper than factoring n.

    Its primes must increase strictly and their powers multiply to params' n.
    """
    n = params["n"]
    factors = [[int(p), int(e)] for p, e in rec["factors"]]
    primes = [p for p, _ in factors]
    problems = search._compare(rec, {"kind": "factorization", "n": n, "factors": factors})
    if primes != sorted(set(primes)) or not all(map(arith.is_prime, primes)):
        problems.append("factors are not strictly increasing primes")
    elif not (all(1 <= e <= n.bit_length() for _, e in factors)
              and math.prod(p**e for p, e in factors) == n):
        problems.append(f"factors do not multiply to {n}")
    return problems


# ---------------------------------------------------------------------------
# Subcommand handlers


def _search_mode(name: str) -> str:
    """The mode `search <name>` runs: fc is fermat-catalan."""
    return "fermat-catalan" if name == "fc" else name


def _cmd_search(args: argparse.Namespace) -> int:
    mode = _search_mode(args.mode)
    keys = [f.name for f in dataclasses.fields(SearchConfig) if f.name != "mode"]
    overrides = _merge_options(args, keys, {"mode": mode})
    for key in ("degree", "n_range", "m_range"):
        if isinstance(overrides.get(key), str):
            overrides[key] = _parse_range(overrides[key])
    if isinstance(overrides.get("coeffs"), str):
        overrides["coeffs"] = _parse_coeffs(overrides["coeffs"])
    try:
        cfg = search.make_config(mode, **overrides)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from None
    threads = args.threads if args.threads is not None else os.cpu_count() or 1
    n_chunks = args.chunks if args.chunks is not None else max(16, 4 * threads)
    if threads < 1 or n_chunks < 1:
        raise UsageError("--threads and --chunks must be >= 1")
    if args.resume and not args.checkpoint:
        raise UsageError("--resume needs --checkpoint")
    result = search.run_chunked(
        cfg,
        n_chunks=n_chunks,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        threads=threads,
    )
    ok, summary = search.expectation_report(cfg, result.records)
    sys.stderr.write(
        f"search {args.mode}: {len(result.records)} records from "
        f"{result.chunks_run}/{result.chunks_total} chunks; {summary}\n"
    )
    return _emit(
        args,
        f"search {args.mode}",
        cfg.semantic_dict(),
        result.records,
        EXIT_OK if ok else EXIT_FINDINGS,
        chunks=result.chunks_run,
        candidates=result.candidates,
    )


def _decomposition_key(rec: Dict[str, Any]) -> Tuple:
    return rec["degree"], tuple(rec["factors"])


def _cmd_decompose(args: argparse.Namespace) -> int:
    merged = _merge_options(args, ("degree", "max_spread"), {"value": args.value})
    if "degree" not in merged:
        raise UsageError("decompose needs --degree N or A..B")
    degree = merged["degree"]
    if isinstance(degree, str):
        degree = _parse_range(degree)
    elif type(degree) is int:
        degree = (degree, degree)
    if not (isinstance(degree, (list, tuple)) and len(degree) == 2
            and all(type(d) is int for d in degree) and degree[0] <= degree[1]):
        raise UsageError("degree must be N, \"A..B\" or [A, B] with A <= B")
    max_spread = _int_option(merged, "max_spread", 0)
    params = {
        "value": args.value,
        "degree": list(degree),
        "max_spread": max_spread,
    }
    records = []
    try:
        for d in range(degree[0], degree[1] + 1):
            for dec in products.decompose(args.value, d, max_spread):
                records.append(decomposition_record(dec))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    records.sort(key=_decomposition_key)
    sys.stderr.write(f"decompose {args.value}: {len(records)} decompositions\n")
    return _emit(args, "decompose", params, records)


def _cmd_gen(args: argparse.Namespace) -> int:
    _merge_options(args, ())  # reads no config key, so refuses any
    family = args.family
    params = {"family": family, **{k: getattr(args, k) for k in _GEN_FAMILIES[family][1]}}
    try:
        record = _gen_record(params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    fails = record["kind"] == "identity-failure"
    sys.stderr.write(f"gen {family}: {'identity fails' if fails else 'ok'}\n")
    return _emit(args, f"gen {family}", params, [record],
                 EXIT_FINDINGS if fails else EXIT_OK)


def _cmd_catalog(args: argparse.Namespace) -> int:
    _merge_options(args, ())  # reads no config key, so refuses any
    if args.max_bits is not None and args.max_bits < 0:
        raise UsageError("max_bits must be >= 0")
    params: Dict[str, Any] = {"catalog": args.which, "max_bits": args.max_bits}
    records = _catalog_records(params)
    sys.stderr.write(f"catalog {args.which}: {len(records)} entries\n")
    return _emit(args, f"catalog {args.which}", params, records,
                 candidates=len(_CATALOGS[args.which]()))


def _parse_classic(specs: Optional[Sequence[str]]) -> List[Tuple[str, str]]:
    pairs: List[Tuple[str, str]] = []
    for spec in specs or ():
        parts = spec.split(",")
        if len(parts) == 1:
            pairs.append((parts[0], "1"))
        elif len(parts) == 2:
            pairs.append((parts[0], parts[1]))
        else:
            raise UsageError(f"expected EPS or EPS,C, got {spec!r}")
    return pairs


def _cmd_abc_check(args: argparse.Namespace) -> int:
    merged = _merge_options(args, ("classic",))
    try:
        classic = _parse_classic(args.classic) or [
            (str(e), str(c)) for e, c in merged.get("classic", [])
        ]
        if any(Fraction(e) <= 0 or Fraction(c) <= 0 for e, c in classic):
            raise ValueError
    except (TypeError, ValueError, ZeroDivisionError):
        raise UsageError("classic takes pairs of positive rationals EPS, C") from None
    params = {"classic": [[e, c] for e, c in classic]}
    if args.input and args.input != "-":
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read input: {exc}") from None
    else:
        text = sys.stdin.read()
    parsed = abc_check.parse_triples(text)
    records = [abc_check.abc_record("abc-check", t.a, t.b, params)
               for t in parsed.triples]
    failures = sum(not rec["explicit_pass"] for rec in records)
    for err in parsed.errors:
        sys.stderr.write(f"abc check: {err}\n")
    if failures:
        exit_code = EXIT_FINDINGS
    elif parsed.errors:
        exit_code = EXIT_USAGE
    else:
        exit_code = EXIT_OK
    sys.stderr.write(
        f"abc check: {len(records)} triples, {failures} explicit failures, "
        f"{len(parsed.errors)} parse errors\n"
    )
    return _emit(
        args, "abc check", params, records, exit_code, errors=len(parsed.errors)
    )


def _cmd_abc_scan(args: argparse.Namespace) -> int:
    limit = _int_option(_merge_options(args, ("limit",)), "limit", 10**5)
    try:
        violations = abc_check.brute_force_scan(limit, args.memory_budget)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    records = [abc_check.abc_record("abc-scan", t.a, t.b, {"limit": limit})
               for t in violations]
    sys.stderr.write(f"abc scan: {len(records)} violations up to {limit}\n")
    return _emit(
        args,
        "abc scan",
        {"limit": limit},
        records,
        EXIT_FINDINGS if records else EXIT_OK,
    )


def _cmd_abc_filter(args: argparse.Namespace) -> int:
    merged = _merge_options(args, ("limit", "eps", "q_bound"))
    limit = _int_option(merged, "limit", 1000)
    eps = str(merged.get("eps", "1/10"))
    q_bound = str(merged.get("q_bound", "1"))
    params = {"limit": limit, "eps": eps, "q_bound": q_bound}
    try:
        pairs = abc_check.excess_pairs(limit, q_bound, eps)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc)) from None
    records = [dict(p, kind="abc-filter") for p in pairs]
    sys.stderr.write(f"abc filter: {len(records)} pairs up to {limit}\n")
    return _emit(args, "abc filter", params, records)


def _cmd_factor(args: argparse.Namespace) -> int:
    _merge_options(args, (), {"n": args.n})  # reads no config key
    kind = "factorization" if args.op == "factor" else "radical"
    if args.n < 1:
        raise UsageError("n must be >= 1")
    return _emit(args, args.op, {"n": args.n}, [_arith_record(kind, args.n)])


_ABC_KINDS = {"abc check": "abc-check", "abc scan": "abc-scan", "abc filter": "abc-filter"}


def _record_check(
    sub: str, config: Dict[str, Any], search_cfg: Optional[SearchConfig]
) -> Tuple[Callable[[int, Dict[str, Any]], List[str]],
           Optional[Callable[[Dict[str, Any]], Tuple]], Optional[int]]:
    """(check, key, size) of the records of a `sub` log.

    check(i, rec) lists the problems of the i-th record.  A search, abc or
    decompose record is rebuilt from its identity; a catalog, gen or radical
    log is a function of its config, so its whole section is rebuilt; a
    factor record is checked as a certificate.  key is the one key of a
    sorted log, which names and orders its records; size is the record
    count that the config decides.
    """
    if search_cfg is not None:
        return (lambda i, rec: search.verify_record(rec, search_cfg),
                search._record_sort_key, None)
    if sub in _ABC_KINDS:
        kind = _ABC_KINDS[sub]

        def by_c(rec: Dict[str, Any]) -> Tuple:
            return rec["c"], rec["a"]

        return (lambda i, rec: abc_check.verify_abc_record(rec, config, kind),
                None if kind == "abc-check" else by_c, None)
    if sub == "decompose":
        return (lambda i, rec: _verify_decomposition(rec, config),
                _decomposition_key, None)
    if sub == "factor":
        return lambda i, rec: _verify_factorization(rec, config), None, 1
    cmd, _, name = sub.partition(" ")
    if cmd == "catalog" and name == config["catalog"]:
        section = _catalog_records(config)
    elif cmd == "gen" and name == config["family"]:
        section = [_gen_record(config)]
    elif sub == "radical":
        section = [_arith_record("radical", config["n"])]
    else:
        raise ValueError(f"unknown subcommand {sub!r} for config {config!r}")
    return (lambda i, rec: search._compare(rec, section[i]) if i < len(section) else [],
            None, len(section))


def verify_log_lines(lines: Sequence[str]) -> Tuple[int, List[str]]:
    """Re-verify a result log; returns (records_checked, problems).

    Each record is rebuilt by the function that wrote it and compared field
    by field (search._compare); see _record_check for what each log kind
    rebuilds from.  A sorted log's keys must strictly increase: each record
    once, in order.
    """
    problems: List[str] = []
    if not lines:
        return 0, ["empty log"]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return 0, [f"header is not valid JSON: {exc}"]
    if not isinstance(header, dict):
        return 0, ["header: not a JSON object"]
    if header.get("format") != RESULT_LOG_FORMAT:
        return 0, [f"not a result log (format {header.get('format')!r})"]
    if header.get("version") != FORMAT_VERSION:
        return 0, [f"unsupported log version {header.get('version')!r}"]
    sub = header.get("subcommand", "")
    config = header.get("config", {})
    if not isinstance(sub, str):
        return 0, [f"header: bad subcommand {sub!r}"]
    search_cfg: Optional[SearchConfig] = None
    if sub.startswith("search "):
        try:
            search_cfg = SearchConfig.from_dict(config)
        except Exception as exc:  # the header comes from disk, treat as hostile
            return 0, [f"header: invalid search config: {type(exc).__name__}: {exc}"]
        if _search_mode(sub.partition(" ")[2]) != search_cfg.mode:
            return 0, [f"header: subcommand {sub!r} does not run mode {search_cfg.mode!r}"]
        if search_cfg.digest() != header.get("config_digest"):
            problems.append("config digest does not match the config")
    elif _sha256(config) != header.get("config_digest"):
        problems.append("config digest does not match the config")
    try:
        check, key, size = _record_check(sub, config, search_cfg)
    except Exception as exc:  # the header comes from disk, treat as hostile
        return 0, problems + [f"header: cannot rebuild records: {type(exc).__name__}: {exc}"]
    checked = 0
    last: Optional[Tuple] = None
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: not valid JSON: {exc}")
            continue
        checked += 1
        try:
            probs = check(checked - 1, rec)
            if key is not None:
                here = key(rec)
                if last is not None and here <= last:
                    probs.append("record repeats an earlier record" if here == last
                                 else "record sorts before the record above it")
                last = here
        except Exception as exc:  # records come from disk, treat as hostile
            probs = [f"verification raised {type(exc).__name__}: {exc}"]
        problems.extend(f"line {lineno}: {p}" for p in probs)
    if size is not None and checked != size:
        problems.append(f"the log holds {checked} records where its config gives {size}")
    return checked, problems


def _cmd_verify_log(args: argparse.Namespace) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read log: {exc}") from None
    checked, problems = verify_log_lines(lines)
    for p in problems:
        sys.stdout.write(f"{args.input}: {p}\n")
    sys.stderr.write(
        f"verify-log: {checked} records checked, {len(problems)} problems\n"
    )
    return _emit(
        args,
        "verify-log",
        {"log": args.input},
        [],
        EXIT_FINDINGS if problems else EXIT_OK,
        log=False,
        candidates=checked,
        records=checked,
        errors=len(problems),
    )


# ---------------------------------------------------------------------------
# Parser assembly


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", metavar="PATH", help="result log path (default stdout)")
    p.add_argument("--config", metavar="PATH", help="JSON config file")


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-bits", dest="max_bits", type=int, metavar="N",
                   help="search ceiling 2^N")
    p.add_argument("--threads", type=int, metavar="N",
                   help="worker processes, at most one per chunk to run "
                   "(default: hardware)")
    p.add_argument("--chunks", type=int, metavar="N",
                   help="chunk count for the work plan")
    p.add_argument("--checkpoint", metavar="PATH", help="checkpoint file")
    p.add_argument("--resume", action="store_true",
                   help="resume from the checkpoint file")
    p.add_argument("--sign", choices=("plus", "minus", "both"))
    p.add_argument("--f-bound", dest="f_bound", metavar="RAT",
                   help="weight bound, e.g. 1 or 41/42")
    p.add_argument("--f-strict", dest="f_strict", action="store_true",
                   default=None, help="require weight strictly under the bound")
    p.add_argument("--m-bound", dest="m_bound", metavar="RAT",
                   help="spread^2/base bound")
    p.add_argument("--min-exp", dest="min_exp", type=int, metavar="N")
    p.add_argument("--max-exp", dest="max_exp", type=int, metavar="N")
    p.add_argument("--min-exp-cap", dest="min_exp_cap", type=int, metavar="N",
                   help="cap when minimizing the smallest exponent")
    p.add_argument("--degree", metavar="N|A..B", help="product degree range")
    p.add_argument("--max-spread", dest="max_spread", type=int, metavar="N")
    p.add_argument("--difference", type=int, metavar="B",
                   help="gap for near-power searches")
    p.add_argument("--n-range", dest="n_range", metavar="A..B")
    p.add_argument("--m-range", dest="m_range", metavar="A..B")
    p.add_argument("--coeffs", metavar="A,B,C",
                   help="equation coefficients for fc searches")
    _add_common(p)


@functools.cache  # parse_args leaves a parser as it was, so every run shares one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcspread",
        description="Exhaustive searches and exact checks for power-sum "
        "equations over products of bounded spread.",
    )
    sub = parser.add_subparsers(dest="command")

    p_search = sub.add_parser("search", help="run an exhaustive search mode")
    p_search.add_argument("mode", choices=("fc",) + search.MODES)
    _add_search_flags(p_search)
    p_search.set_defaults(handler=_cmd_search)

    p_dec = sub.add_parser("decompose", help="bounded-spread decompositions of N")
    p_dec.add_argument("value", type=int)
    p_dec.add_argument("--degree", metavar="N|A..B")
    p_dec.add_argument("--max-spread", dest="max_spread", type=int, metavar="N")
    _add_common(p_dec)
    p_dec.set_defaults(handler=_cmd_decompose)

    p_gen = sub.add_parser("gen", help="generate a parametric family member")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    for family, (_, defaults) in _GEN_FAMILIES.items():
        g = gen_sub.add_parser(family)
        for key, default in defaults.items():
            g.add_argument("--" + key.replace("_", "-"), dest=key, type=int,
                           default=default)
        _add_common(g)
    p_gen.set_defaults(handler=_cmd_gen)

    p_cat = sub.add_parser("catalog", help="print a known-solution catalog")
    p_cat.add_argument("which", choices=("fc", "degree3"))
    p_cat.add_argument("--max-bits", dest="max_bits", type=int, metavar="N")
    _add_common(p_cat)
    p_cat.set_defaults(handler=_cmd_catalog)

    p_abc = sub.add_parser("abc", help="radical inequality checks")
    abc_sub = p_abc.add_subparsers(dest="abc_command", required=True)
    a_chk = abc_sub.add_parser("check")
    a_chk.add_argument("--input", metavar="PATH", help="triple file ('-' for stdin)")
    a_chk.add_argument("--classic", action="append", metavar="EPS[,C]",
                       help="also check c < C rad^(1+EPS); repeatable")
    _add_common(a_chk)
    a_chk.set_defaults(handler=_cmd_abc_check)
    a_scn = abc_sub.add_parser("scan")
    a_scn.add_argument("--limit", type=int, metavar="N")
    a_scn.add_argument("--memory-budget", dest="memory_budget", type=int, metavar="BYTES")
    _add_common(a_scn)
    a_scn.set_defaults(handler=_cmd_abc_scan)
    a_flt = abc_sub.add_parser("filter")
    a_flt.add_argument("--limit", type=int, metavar="N")
    a_flt.add_argument("--eps", metavar="RAT")
    a_flt.add_argument("--q-bound", dest="q_bound", metavar="RAT")
    _add_common(a_flt)
    a_flt.set_defaults(handler=_cmd_abc_filter)

    p_ver = sub.add_parser("verify-log", help="recompute every record in a log")
    p_ver.add_argument("input", metavar="PATH")
    p_ver.set_defaults(handler=_cmd_verify_log)

    for op, what in (("factor", "prime factorization"), ("radical", "radical")):
        p_op = sub.add_parser(op, help=f"{what} of n")
        p_op.add_argument("n", type=int)
        _add_common(p_op)
        p_op.set_defaults(handler=_cmd_factor, op=op)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return EXIT_USAGE if code not in (0, "0") else EXIT_OK
    if not getattr(args, "handler", None):
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    args.started = _now()
    try:
        return args.handler(args)
    except (UsageError, CheckpointMismatch) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except MemoryError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        sys.stderr.write("interrupted\n")
        return EXIT_RUNTIME
    except Exception:
        traceback.print_exc()
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
