"""Chunked, resumable counterexample searches.

Search strategy
---------------
Every mode but pillai asks one question: does P +/- Q, for perfect powers
(P, Q) = (x**n, y**m) below the bound M, hit a target?  One generator,
`_pairs`, walks the power pairs of one relation -- coprime, non-maxgcd
(neither power divides the other) or maxgcd (x = w*y) -- over one cached
table of x**e per exponent, `_powers`; the modes differ only in the target
they test P +/- Q against:

* fermat-catalan: the target is a perfect power or 1.  Triples with two
  literal 1s come from the fcwild unit, those with one from the fcone unit
  of an exponent e, the others from the pair unit (x**e1 and y**e2) of two
  exponents e1 <= e2.  The literal 1 is the power table of exponent 0,
  whose one base is 1, so an fcone unit is the pair unit (e, 0), walked by
  the same coprime `_pairs` scan, and fcwild is the single pair (1, 1).
  Every pair goes to one solver, `_fc_try_pair`, which tries each slot
  layout of the two known terms.  One rule, `_fc_pair_needed`, plans every
  fcone and pair unit: a unit is scanned only if it can carry the two
  lightest terms of an admissible assignment, the wildcard 1 weighing 0,
  i.e. some allowed third exponent e3 <= e1 completes an admissible
  weight.  Under the default strict bound 1 this drops cube x cube
  (1/3 + 1/3 + 1/3 is not below 1) and every unit with a square, whose
  third term would be a square too (1/2 + 1/2 is not below 1).  The
  planned units reach every triple that `_fc_candidate` accepts, under any
  bound.  The solver and its block keep read one table of the six slot
  layouts, `_fc_layouts`, whose third term is (a P + b Q) / c.  While
  max(A + B, C) * M <= 2**63 a pair or fcone unit walks int64 numpy blocks
  of at most 2**14 cells and keeps a cell when some |a P + b Q| / c is 1,
  in the sorted power table or a square (`_maybe_usable`, a superset of
  the exact test); only those are checked for coprimality and passed to
  the exact `_fc_try_pair`.  Larger bounds run the scalar `_pairs` loop.
* product-target modes (gbtz, nonmaxgcd3, fp, maxgcd-spread1) and survey
  (both orders of each pair, one record per (n, m, d) cell) fix the third
  term to be a bounded-spread product.  The plan, the scan and
  `verify_record` read one rule: `_PRODUCT_MODES` gives each mode's pair
  relation and least witness spread, `_degree_caps` each exponent pair's
  (degree, spread cap) list, the cap exact from the weight inequality so
  that `decompose` is called with the largest admissible spread and nothing
  more.  Units with an empty list are not planned (survey cells are, and
  report 0), and a record that no unit can give fails verification
  (`_scan_caps`, which `_product_record` reads).  For the coprime and
  non-maxgcd relations with M <= 2**62, `_pairs` walks the same int64
  blocks and keeps a cell only if x**n + y**m (sign plus) or |x**n - y**m|
  (minus) has, for some (degree d, spread cap s) of the unit, a divisor
  in a window one wider on each side than [root - s, root], root its
  integer d-th root, which holds the smallest factor of every qualifying
  decomposition
  (`_maybe_product`, a superset of the exact test).  The
  relation test and `decompose` see only those survivors.  The maxgcd
  relation and larger bounds run the scalar `_pairs` loop.  Power bases
  start at 2 (the literal 1 belongs to the fermat-catalan wildcard only),
  except in the maxgcd relation, whose rows are the multiples x = w*y of
  each y >= 1: they parametrize exactly the maxgcd pairs, so `_pairs`
  tests no relation on them.
* pillai joins the bounded-spread products with themselves: a unit is a
  value range of Z, and `_run_pillai_unit` indexes once every product
  with value in [Z range low - B, Z range high] and pairs each Z with the
  witnesses of Z - B.  The index is bounded before any chunk runs
  (`_check_memory`).

Each record is a pure function of its identity, built by one function per
mode that the scan calls on every hit and `verify_record` on a stored
record's identity, reporting each field that differs; each returns None
where the search writes no record: `_fc_candidate` from
the values, `_product_record` from (sign, p, q, z, d) and `_pillai_record`
from the two witnesses.  Chunking partitions the (exponent pair, base
sub-range) space and pillai's range of Z: every unit but fcwild carries a
range that `plan_chunks` splits, survey cells included.  Records with one
key are equal whichever chunk wrote them (survey cells join their
solutions), so the final record set is byte-identical no matter the chunk
plan, thread count or completion order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import chain, product as iterproduct
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from . import arith, families
from .products import (
    ProductDecomposition,
    SpreadConstraints,
    analyze,
    decompose,
    enumerate_products,
)

FORMAT_VERSION = 2

MODES = (
    "fermat-catalan",
    "gbtz",
    "nonmaxgcd3",
    "fp",
    "maxgcd-spread1",
    "pillai",
    "survey",
)

_MODE_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "fermat-catalan": {"max_bits": 34, "sign": "plus", "degree": None},
    "gbtz": {"max_bits": 30, "sign": "both", "degree": (3, 10)},
    "nonmaxgcd3": {"max_bits": 28, "sign": "both", "degree": (3, 3)},
    "fp": {"max_bits": 30, "sign": "both", "degree": (4, 21)},
    "maxgcd-spread1": {"max_bits": 30, "sign": "both", "degree": (5, 10)},
    "pillai": {
        "max_bits": 20,
        "sign": "plus",
        "degree": None,
        "max_spread": 0,
        "f_bound": Fraction(41, 42),
        "f_strict": False,
    },
    "survey": {"max_bits": 24, "sign": "both", "degree": (3, 6)},
}

# The fields each mode reads.  The digest covers only these; any other field
# must keep its mode default (`_MODE_DEFAULTS`, else the dataclass default).
_MODE_FIELDS: Dict[str, Tuple[str, ...]] = {
    mode: ("max_bits",) + tuple(fields.split()) for mode, fields in {
        "fermat-catalan": "min_exp max_exp min_exp_cap f_bound f_strict coeffs",
        "gbtz": "sign min_exp max_exp degree max_spread f_bound f_strict",
        "nonmaxgcd3": "sign min_exp max_exp degree max_spread f_bound f_strict",
        "fp": "sign degree max_spread f_bound f_strict",
        "maxgcd-spread1": "sign degree max_spread",
        "pillai": "degree max_spread f_bound f_strict m_bound difference",
        "survey": "sign degree n_range m_range max_spread f_bound f_strict",
    }.items()}


@dataclass(frozen=True)
class SearchConfig:
    """Resolved search configuration; the fields its mode reads feed the digest."""

    mode: str
    max_bits: int
    sign: str = "both"
    min_exp: int = 2
    max_exp: int = 113
    min_exp_cap: int = 113
    degree: Optional[Tuple[int, int]] = None
    n_range: Optional[Tuple[int, int]] = None
    m_range: Optional[Tuple[int, int]] = None
    max_spread: Optional[int] = None
    f_bound: Fraction = Fraction(1)
    f_strict: bool = True
    m_bound: Optional[Fraction] = None
    difference: Optional[int] = None
    coeffs: Tuple[int, int, int] = (1, 1, 1)

    @cached_property  # read for every scanned pair
    def max_value(self) -> int:
        return 1 << self.max_bits

    def __post_init__(self) -> None:
        """Refuse an invalid config, then fold each alias into the value it means.

        Folding here, not in `make_config`, gives one search one digest
        however the config was built: each mode in `_DEGREE_FLOOR` scans
        degrees from its floor up, and maxgcd-spread1 caps the spread at 1.
        """
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        reads, defaults = ("mode",) + _MODE_FIELDS[self.mode], _MODE_DEFAULTS[self.mode]
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.default is not None and value is None:  # a file's null is no default
                raise ValueError(f"{f.name} must not be null")
            if f.name not in reads and value != defaults.get(f.name, f.default):
                raise ValueError(f"{self.mode} mode does not use {f.name}")
        # a bool or a float can equal an int and still change the digest
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if value is not None and not all(
                    isinstance(v, int) and not isinstance(v, bool)
                    for v in (value if isinstance(value, tuple) else [value])):
                raise ValueError(f"{name} must hold integers")
        if not isinstance(self.f_strict, bool):
            raise ValueError("f_strict must be true or false")
        if not 1 <= self.max_bits <= 128:
            raise ValueError("max_bits must be in 1..128")
        if self.sign not in ("plus", "minus", "both"):
            raise ValueError(f"bad sign {self.sign!r}")
        if not 2 <= self.min_exp <= self.max_exp:
            raise ValueError("need 2 <= min_exp <= max_exp")
        for name in ("degree", "n_range", "m_range"):
            rng = getattr(self, name)
            if rng is not None and not (len(rng) == 2 and 1 <= rng[0] <= rng[1]):
                raise ValueError(f"bad {name} range {rng}")
        if self.mode == "nonmaxgcd3" and self.degree != (3, 3):
            raise ValueError("nonmaxgcd3 mode takes degree 3 only")
        if self.max_spread is not None and self.max_spread < 0:
            raise ValueError("max_spread must be >= 0")
        if len(self.coeffs) != 3 or any(c < 1 for c in self.coeffs):
            raise ValueError("coeffs must be three positive integers")
        if self.mode == "pillai" and (self.difference is None or self.difference < 1):
            raise ValueError("pillai mode needs a positive difference")
        if self.mode == "survey" and (self.n_range is None or self.m_range is None):
            raise ValueError("survey mode needs n_range and m_range")
        floor = _DEGREE_FLOOR.get(self.mode)
        if floor is not None:
            lo, hi = self.degree
            if hi < floor:
                raise ValueError(f"{self.mode} mode scans degrees {floor} and up")
            object.__setattr__(self, "degree", (max(floor, lo), hi))
        if self.mode == "maxgcd-spread1" and self.max_spread is not None and (
                self.max_spread >= 1):
            object.__setattr__(self, "max_spread", None)

    def semantic_dict(self) -> Dict[str, Any]:
        """The mode, the format and the fields the mode reads."""
        d = {f: jsonify(getattr(self, f)) for f in ("mode",) + _MODE_FIELDS[self.mode]}
        d["format"] = FORMAT_VERSION
        return d

    def digest(self) -> str:
        return _sha256(self.semantic_dict())

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SearchConfig":
        return make_config(
            d["mode"],
            **{k: v for k, v in d.items() if k not in ("format", "mode")},
        )


# The least degree each product mode scans; a lower `degree` low end aliases it.
# (nonmaxgcd3 takes degree (3, 3) only, so it has no alias.)
_DEGREE_FLOOR = {"gbtz": 3, "fp": 4, "maxgcd-spread1": 2}

# The integer fields, and those holding a tuple of integers.
_INT_FIELDS = ("max_bits", "min_exp", "max_exp", "min_exp_cap", "max_spread",
               "difference", "degree", "n_range", "m_range", "coeffs")


def make_config(mode: str, **overrides: Any) -> SearchConfig:
    """Build a SearchConfig from mode defaults plus keyword overrides.

    None overrides fall back to the mode default, so CLI plumbing can pass
    absent flags straight through.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    values: Dict[str, Any] = dict(_MODE_DEFAULTS[mode])
    for k, v in overrides.items():
        if v is not None or k not in values:
            values[k] = v
    values.pop("mode", None)
    for key in ("f_bound", "m_bound"):
        if values.get(key) is not None:
            values[key] = Fraction(values[key])
    for key in ("degree", "n_range", "m_range", "coeffs"):
        if values.get(key) is not None:
            values[key] = tuple(values[key])
    return SearchConfig(mode=mode, **values)


def jsonify(value: Any) -> Any:
    """Fractions as strings and tuples as lists, recursively, for the log format."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


def canon_json(obj: Any) -> str:
    """Canonical JSON used for digests and byte-deterministic logs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(obj: Any) -> str:
    """sha256 of canon_json(obj); a list is fed item by item, never built whole."""
    h = hashlib.sha256()
    if isinstance(obj, (list, tuple)):
        h.update(b"[")
        for i, item in enumerate(obj):
            if i:
                h.update(b",")
            h.update(canon_json(item).encode())
        h.update(b"]")
    else:
        h.update(canon_json(obj).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Power tables and the pair scan


@lru_cache(maxsize=128)
def _powers(M: int, e: int) -> Tuple[int, ...]:
    """x**e for every base x >= 0 with x**e <= M, indexed by the base.

    e == 0 gives (1, 1), the table of the literal 1, whose one base is 1.
    """
    return tuple(x**e for x in range((arith.iroot(M, e)[0] if e else 1) + 1))


@lru_cache(maxsize=8)
def _power_value_set(bound: int) -> frozenset:
    """Values x**e <= bound with x >= 2, e >= 3: the powers `_usable_power` looks up.

    Deliberately wider than any configured exponent window: candidates that
    pass are re-derived exactly (and range-filtered) before recording.
    """
    return frozenset(
        v for e in range(3, bound.bit_length()) for v in _powers(bound, e)[2:]
    )


def _max_base(M: int, e: int) -> int:
    """Largest x with x**e <= M (0 when even 2**e exceeds M)."""
    r = arith.iroot(M, e)[0]
    return r if r >= 2 else 0


def _usable_power(t: int, M: int, power_set: frozenset) -> bool:
    """Quick filter: t is 1, or t <= M and t is a perfect power."""
    if t == 1:
        return True
    if t > M:
        return False
    r = math.isqrt(t)
    return r * r == t or t in power_set


# Guard and block size of the int64 pair prefilter.  A keep forms a*P + b*Q,
# exact modulo 2**64, and runs only where each |value| <= _INT64_BOUND (so
# M <= 2**62, as `_maybe_usable` and `_maybe_product` need): only a*M + b*M
# = 2**63 at P = Q = M = 2**k can wrap, and no relation admits two even
# bases.  Blocks of 2**14 cells keep the temporaries near 1 MB.
_INT64_BOUND = 1 << 63
_PREFILTER_CELLS = 1 << 14

Keep = Callable[[np.ndarray, np.ndarray], np.ndarray]


@lru_cache(maxsize=128)
def _powers_i64(M: int, e: int) -> np.ndarray:
    return np.array(_powers(M, e), dtype=np.int64)


@lru_cache(maxsize=8)
def _usable_table_i64(M: int) -> np.ndarray:
    """Sorted int64 copy of `_power_value_set(M)` plus the wildcard 1."""
    return np.array(sorted(_power_value_set(M) | {1}), dtype=np.int64)


def _maybe_usable(t: np.ndarray, M: int, table: np.ndarray) -> np.ndarray:
    """Vector prefilter: True wherever `_usable_power(t, M, ...)` may hold.

    Sound for int64 t and M <= 2**62: 1 and the powers of exponent >= 3 are
    found by exact search in `table`; a square t = k*k <= 2**62 has
    |sqrt(float(t)) - k| < 2**-20, so the truncated root r is k - 1 or k and
    one of (r-1)**2, r**2, (r+1)**2 (each < 2**63) equals t.  Values < 1
    are rejected, which `_fc_try_pair` never tests.
    """
    ok = (t >= 1) & (t <= M)
    t = np.where(ok, t, 1)
    idx = np.searchsorted(table, t)
    hit = table[np.minimum(idx, len(table) - 1)] == t
    r = np.sqrt(t.astype(np.float64)).astype(np.int64)
    for k in (r - 1, r, r + 1):
        hit |= k * k == t
    return ok & hit


def _maybe_product(t: np.ndarray, M: int,
                   caps: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Vector prefilter: True wherever some `decompose(t, d, s)` of `caps` may hit.

    `decompose` finds the smallest factor b of a qualifying decomposition in
    [max(1, root - s), root], root = floor(t**(1/d)), and t % b == 0.  For
    int64 1 <= t <= 2**62 and d >= 3 the float root t**(1/d) is below 2**21
    and off by far less than 1 (float(t) and the exponent 1/d each carry a
    relative error near 2**-53, magnified at most ln(2**62) < 43 times), so
    its floor r is root - 1, root or root + 1, and the s + 3 bases from
    lo = max(1, r - s - 1) up cover that range.  Keeping t when one of them
    divides t can therefore only let extra values through.
    """
    ok = (t >= 1) & (t <= M)
    t = np.where(ok, t, 1)
    tf = t.astype(np.float64)
    hit = np.zeros(t.shape, dtype=bool)
    for d, s in caps:
        if arith.iroot(M, d)[0] <= s + 1:
            return ok  # lo = 1 for every t <= M, and 1 divides everything
        b = np.maximum(np.power(tf, 1.0 / d).astype(np.int64) - s - 1, 1)
        for _ in range(s + 3):
            hit |= np.fmod(t, b) == 0
            b += 1
    return ok & hit


def _prefiltered_cells(M: int, n: int, m: int, lo: int, hi: int, keep: Keep,
                       same: bool, first: int) -> Iterator[Tuple[int, int]]:
    """Bases x in [lo, hi], y >= first where `keep` holds for (x**n, y**m).

    The cells come in blocks of at most `_PREFILTER_CELLS`, row by row; with
    `same` the scan is the triangle y < x.  `keep(P, Q)` maps the int64
    column of x**n and row of y**m to the bool block of cells to keep, True
    wherever the caller's exact test may hold.
    """
    pn, pm = _powers_i64(M, n), _powers_i64(M, m)
    cols = max(1, min(len(pm) - first, _PREFILTER_CELLS))
    rows = max(1, _PREFILTER_CELLS // cols)
    for x0 in range(lo, hi + 1, rows):
        x1 = min(x0 + rows, hi + 1)
        P = pn[x0:x1, None]
        yend = x1 - 1 if same else len(pm)  # same: y < x <= x1 - 1
        for y0 in range(first, yend, cols):
            rows_i, cols_j = np.nonzero(keep(P, pm[None, y0:min(y0 + cols, yend)]))
            for i, j in zip(rows_i.tolist(), cols_j.tolist()):
                if not same or y0 + j < x0 + i:  # a block can reach past y < x
                    yield x0 + i, y0 + j


def _pairs(M: int, relation: str, n: int, m: int, lo: int, hi: int,
           ordered: bool = False,
           keep: Optional[Keep] = None) -> Iterator[Tuple[int, int]]:
    """Yield (P, Q) for the power pairs P = x**n, Q = y**m <= M.

    relation "coprime" (gcd(x, y) == 1) and "nonmaxgcd" (neither power
    divides the other) run x over [lo, hi] and y from the first base of the
    m table: 2, or 1 for m == 0, the literal 1 (`_powers`).  "maxgcd" runs
    y over [lo, hi] and x = w*y for w >= 1, which for n == m is exactly the
    pairs whose smaller power divides the larger.  Each pair comes once with
    P >= Q, unless `ordered`: then every (x**n, y**m) comes as it is.  Both
    bounds must lie in the base range of the table they index.

    With a block predicate `keep` the coprime and nonmaxgcd relations visit
    only the cells of `_prefiltered_cells`; the maxgcd relation takes none.
    Without one, the scalar walk is the path past the int64 bound.
    """
    pn, pm = _powers(M, n), _powers(M, m)
    first = 1 if m == 0 else 2
    # With one exponent and no order, (x, y) and (y, x) give the same pair.
    same = n == m and not ordered
    rows: Iterable[Tuple[int, Iterable[int]]]
    if relation == "maxgcd":
        rows = ((x, (y,)) for y in range(lo, hi + 1) for x in range(y, len(pn), y))
    elif keep is not None:
        rows = ((x, (y,)) for x, y in _prefiltered_cells(M, n, m, lo, hi, keep,
                                                         same, first))
    else:
        rows = ((x, range(first, x if same else len(pm))) for x in range(lo, hi + 1))
    coprime, nonmax = relation == "coprime", relation == "nonmaxgcd"
    for x, ys in rows:
        P = pn[x]
        for y in ys:
            Q = pm[y]
            if coprime:
                if math.gcd(x, y) != 1:
                    continue
            elif nonmax and (P % Q if P > Q else Q % P) == 0:
                continue
            yield (P, Q) if ordered or P >= Q else (Q, P)


# ---------------------------------------------------------------------------
# Weight bookkeeping


def _weight_ok(cfg: SearchConfig, w: Fraction) -> bool:
    return w < cfg.f_bound if cfg.f_strict else w <= cfg.f_bound


def _spread_cap(n: int, m: int, d: int, f_bound: Fraction, strict: bool) -> int:
    """Largest spread s >= 0 with 1/n + 1/m + (1+s)/d under the bound.

    Returns -1 when not even s = 0 qualifies.
    """
    rem = f_bound - Fraction(1, n) - Fraction(1, m)
    limit = d * rem - 1
    if strict:
        cap = math.ceil(limit) - 1
    else:
        cap = math.floor(limit)
    return max(cap, -1)


# Pair relation and least witness spread of each product mode.
_PRODUCT_MODES: Dict[str, Tuple[str, int]] = {
    "gbtz": ("coprime", 0),
    "nonmaxgcd3": ("nonmaxgcd", 1),
    "fp": ("nonmaxgcd", 0),
    "maxgcd-spread1": ("maxgcd", 0),
    "survey": ("nonmaxgcd", 0),
}


def _degree_caps(cfg: SearchConfig, unit: Dict[str, Any]) -> List[Tuple[int, int]]:
    """(degree, spread cap) for each product degree a unit tests P +/- Q at.

    A degree whose cap is below the mode's least witness spread is dropped.
    """
    n, m = unit["e1"], unit["e2"]
    if cfg.mode == "survey":
        degrees = [unit["d"]] if unit["d"] > 2 else []
    elif cfg.mode in ("fp", "maxgcd-spread1"):
        degrees = [n]
    else:
        degrees = range(cfg.degree[0], min(n, m, cfg.degree[1]) + 1)
    floor_s = _PRODUCT_MODES[cfg.mode][1]
    caps = []
    for d in degrees:
        cap = 1 if cfg.mode == "maxgcd-spread1" else _spread_cap(
            n, m, d, cfg.f_bound, cfg.f_strict)
        if cfg.max_spread is not None:
            cap = min(cap, cfg.max_spread)
        if cap >= floor_s:
            caps.append((d, cap))
    return caps


# ---------------------------------------------------------------------------
# Records


def _record_sort_key(rec: Dict[str, Any]) -> Tuple:
    if rec["mode"] == "survey":
        return (tuple(rec["cell"]),)
    if "values" in rec:
        vs = sorted(rec["values"], reverse=True)
        return (vs[0], vs[1], vs[2], rec["sign"])
    if rec["mode"] == "pillai":
        return (
            rec["z"],
            rec["x"],
            tuple(rec["z_witness"]),
            tuple(rec["x_witness"]),
        )
    return _solution_sort_key(rec)


def _solution_sort_key(sol: Dict[str, Any]) -> Tuple:
    return (
        max(sol["p"], sol["z"]),
        min(sol["p"], sol["z"]),
        sol["q"],
        sol["sign"],
        sol["d"],
    )


def _record_key(rec: Dict[str, Any]) -> Tuple:
    if rec["mode"] == "survey":
        return ("survey", tuple(rec["cell"]))
    if "values" in rec:
        return ("fc", tuple(rec["values"]), tuple(rec["coeffs"]))
    if rec["mode"] == "pillai":
        return (
            "pillai",
            rec["x"],
            rec["z"],
            tuple(rec["x_witness"]),
            tuple(rec["z_witness"]),
        )
    return (rec["mode"], rec["sign"], rec["p"], rec["q"], rec["z"], rec["d"])


def _merge_into(acc: Dict[Tuple, Dict[str, Any]],
                rec: Optional[Dict[str, Any]]) -> None:
    """Add a record to `acc`; a survey cell collects the solutions of its copies.

    None, a builder's 'no record', adds nothing.
    """
    if rec is None:
        return
    cur = acc.setdefault(_record_key(rec), rec)
    if cur is not rec and rec["mode"] == "survey":
        sols = {_solution_sort_key(s): s for s in cur["solutions"] + rec["solutions"]}
        cur["solutions"] = [sols[k] for k in sorted(sols)]
        cur["count"] = len(sols)


# ---------------------------------------------------------------------------
# fermat-catalan mode


def _fc_pair_needed(cfg: SearchConfig, e1: int, e2: int) -> bool:
    """Whether the plan keeps the pair unit (e1 <= e2), or fcone e1 if e2 == 0.

    The rule keeps a unit for every triple `_fc_candidate` accepts.  Take
    such a triple and an admissible assignment A of it; the wildcard 1
    weighs 0.  Raise each power term's exponent to its largest
    representation in range: the weight can only fall.  If the smallest
    exponent now exceeds min_exp_cap, the term that held A's smallest (at
    most the cap) was raised, so put that one back; the weight is still at
    most A's, so the assignment is admissible.  Two 1s go to fcwild.
    Otherwise let the two lightest terms carry e_a and e_b, with e_a >= e_b
    or e_b = 0 for a 1, and the heaviest the smallest exponent e_c.  The
    unit (e_b, e_a), or fcone e_a when e_b = 0, visits the triple through
    those two terms, which are coprime, and `_fc_try_pair` solves for the
    third; records depend only on the values.  It passes this test: its e1
    is e_b, or e_a when e_b = 0, so min_exp <= e_c <= e3 = min(e1, max_exp,
    min_exp_cap), the lightest allowed third exponent, and 1/e1 + 1/e2 +
    1/e3 (0 for e2 = 0) is at most the weight of the assignment.
    """
    e3 = min(e1, cfg.max_exp, cfg.min_exp_cap)
    # the weight as one Fraction: the plan asks this for every unit
    num, den = (e2 * (e1 + e3) + e1 * e3, e1 * e2 * e3) if e2 else (e1 + e3, e1 * e3)
    return e3 >= cfg.min_exp and _weight_ok(cfg, Fraction(num, den))


def _fc_reps(cfg: SearchConfig, v: int) -> Optional[List[Tuple[int, int]]]:
    """Representations of a term value within the configured exponent range.

    [] marks the wildcard value 1; None marks 'not usable as a term'.
    """
    if v == 1:
        return []
    reps = [
        (b, e)
        for b, e in arith.perfect_power_exponents(v)
        if cfg.min_exp <= e <= cfg.max_exp
    ]
    return reps or None


def _fc_candidate(cfg: SearchConfig, vx: int, vy: int,
                  vz: int) -> Optional[Dict[str, Any]]:
    """The record of the slot triple A vx + B vy = C vz; None if it is none."""
    A, B, C = cfg.coeffs
    M = cfg.max_value
    if not (1 <= vx <= M and 1 <= vy <= M and 1 <= vz <= M):
        return None
    if A * vx + B * vy != C * vz:
        return None
    if vx == 1 and vy == 1 and vz == 1:
        return None  # all-wildcard triples carry no exponent content
    if math.gcd(vx, vy) != 1 or math.gcd(vx, vz) != 1 or math.gcd(vy, vz) != 1:
        return None
    slot_reps = []
    for v in (vx, vy, vz):
        reps = _fc_reps(cfg, v)
        if reps is None:
            return None
        slot_reps.append(reps)
    best: Optional[Tuple[Fraction, Tuple[int, ...]]] = None
    for combo in iterproduct(*[[e for _, e in reps] or [0] for reps in slot_reps]):
        w = sum((Fraction(1, e) for e in combo if e), Fraction(0))
        if not _weight_ok(cfg, w):
            continue
        nonwild = [e for e in combo if e]
        if nonwild and min(nonwild) > cfg.min_exp_cap:
            continue
        if best is None or (w, combo) < best:
            best = (w, combo)
    if best is None:
        return None
    weight, assignment = best
    if A == B and vx > vy:
        vx, vy = vy, vx
        slot_reps[0], slot_reps[1] = slot_reps[1], slot_reps[0]
        assignment = (assignment[1], assignment[0], assignment[2])
    return {
        "mode": cfg.mode,
        "sign": "plus",
        "values": [vx, vy, vz],
        "coeffs": list(cfg.coeffs),
        "reps": [[[b, e] for b, e in reps] for reps in slot_reps],
        "assignment": list(assignment),
        "weight": str(weight),
    }


@lru_cache(maxsize=16)
def _fc_layouts(coeffs: Tuple[int, int, int]) -> Tuple[Tuple[Any, ...], ...]:
    """The placings (a, b, c, slots) of term values P, Q in A vx + B vy = C vz.

    The third value is t = (a P + b Q) / c; (vx, vy, vz) is (P, Q, t) at `slots`.
    """
    A, B, C = coeffs
    return ((A, B, C, (0, 1, 2)), (C, -A, B, (1, 2, 0)), (C, -B, A, (2, 1, 0)),
            (B, A, C, (1, 0, 2)), (-A, C, B, (0, 2, 1)), (-B, C, A, (2, 0, 1)))


def _fc_try_pair(cfg: SearchConfig, P: int, Q: int, power_set: frozenset,
                 acc: Dict[Tuple, Dict[str, Any]]) -> None:
    """Solve A vx + B vy = C vz for the slot left over by the term values P, Q.

    Each layout of `_fc_layouts` whose third value is a positive integer
    passing `_usable_power` is tried; layouts that give one triple, as
    (P, Q) and (Q, P) do when A == B, merge under `_record_key`.
    """
    M = cfg.max_value
    for a, b, c, slots in _fc_layouts(cfg.coeffs):
        num = a * P + b * Q
        if num > 0 and num % c == 0 and _usable_power(num // c, M, power_set):
            vals = (P, Q, num // c)
            _merge_into(acc, _fc_candidate(cfg, *(vals[i] for i in slots)))


def _fc_keep(cfg: SearchConfig) -> Optional[Keep]:
    """Keep cells where a third value of `_fc_layouts` may pass `_usable_power`.

    A form and its negative test one |a P + b Q| <= max(A + B, C) * M, so
    (1, 1, 1) tests P + Q and |P - Q| only.  None past the int64 bound.
    """
    A, B, C = cfg.coeffs
    M = cfg.max_value
    if max(A + B, C) * M > _INT64_BOUND:
        return None
    table = _usable_table_i64(M)
    forms = dict.fromkeys((a, b, c) if a > 0 else (-a, -b, c)
                          for a, b, c, _ in _fc_layouts(cfg.coeffs))

    def keep(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        hit = False
        for a, b, c in forms:
            t = np.abs(a * P + b * Q)
            if c == 1:
                hit = hit | _maybe_usable(t, M, table)
            else:  # only the multiples of c, tested as their quotients
                t, r = np.divmod(t, c)
                kept = np.zeros(t.shape, dtype=bool)
                kept[r == 0] = _maybe_usable(t[r == 0], M, table)
                hit = hit | kept
        return hit

    return keep


def _run_fc_pair_unit(cfg: SearchConfig, unit: Dict[str, Any],
                      acc: Dict[Tuple, Dict[str, Any]]) -> None:
    """Pair and fcone units: `_fc_try_pair` on the coprime cells `_fc_keep` keeps.

    An fcone unit has e2 == 0, so its second term is the literal 1.
    """
    M = cfg.max_value
    power_set = _power_value_set(M)
    for P, Q in _pairs(M, "coprime", unit["e1"], unit["e2"], unit["xlo"],
                       unit["xhi"], keep=_fc_keep(cfg)):
        _fc_try_pair(cfg, P, Q, power_set, acc)


# ---------------------------------------------------------------------------
# product-target modes


@lru_cache(maxsize=16)
def _scan_caps(cfg: SearchConfig) -> Dict[int, Dict[Tuple[int, int], int]]:
    """Degree -> {(e1, e2): spread cap} of the planned units (-1: bare survey cell)."""
    caps: Dict[int, Dict[Tuple[int, int], int]] = {}
    for unit in _mode_units(cfg):
        if cfg.mode == "survey":
            caps.setdefault(unit["d"], {})[unit["e1"], unit["e2"]] = -1
        for d, cap in _degree_caps(cfg, unit):
            caps.setdefault(d, {})[unit["e1"], unit["e2"]] = cap
    return caps


def _related(relation: str, P: int, Q: int) -> bool:
    g = math.gcd(P, Q)
    return {"coprime": g == 1, "nonmaxgcd": g != min(P, Q),
            "maxgcd": g == min(P, Q)}[relation]


def _product_record(cfg: SearchConfig, sign: str, P: int, Q: int, Z: int, d: int,
                    cell: Optional[Tuple[int, int]] = None) -> Optional[Dict[str, Any]]:
    """The record the scan writes for P +/- Q = Z at degree d; None if it writes none.

    Its assignments are every (n, m) with P = x**n and Q = y**m, bases the
    scan walks (>= 2, or >= 1 in the maxgcd relation), whose unit the plan
    scans at degree d and whose own spread cap admits a witness.  Its
    witnesses are those of all its assignments.  A survey solution (`cell`
    given) takes only its cell's (n, m), in that order.
    """
    relation, floor_s = _PRODUCT_MODES[cfg.mode]
    if (sign not in _signs(cfg) or Z != (P + Q if sign == "plus" else P - Q)
            or Z < 1 or max(P, Q, Z) > cfg.max_value
            or min(P, Q) < (1 if relation == "maxgcd" else 2)
            or not (cell or P >= Q) or not _related(relation, P, Q)):
        return None
    units = _scan_caps(cfg).get(d, {})
    if cell:
        units = {cell: units[cell]} if cell in units else {}
    top = max((max(nm) for nm in units), default=0)
    # the exponents e <= top with P = x**e, and with Q = y**e (1 = 1**e for all e)
    ep, eq = ({e for e in range(1, top + 1) if arith.iroot(v, e)[1]} for v in (P, Q))
    caps = {(n, m): cap for (e1, e2), cap in units.items()
            for n, m in ([(e1, e2)] if cell else [(e1, e2), (e2, e1)])
            if cap >= 0 and n in ep and m in eq}
    if not caps:
        return None
    # decompose is complete, so the witnesses under a smaller cap are those
    # of the largest cap with spread at most the smaller one
    wits = [w for w in decompose(Z, d, max(caps.values())) if w.spread >= floor_s]
    if not wits:
        return None
    least = min(w.spread for w in wits)
    assignments = sorted([n, m] for (n, m), cap in caps.items() if cap >= least)
    weight = (min(Fraction(1, a) + Fraction(1, b) for a, b in assignments)
              + Fraction(1 + least, d))
    n, m = assignments[0]
    x, y = arith.iroot(P, n)[0], arith.iroot(Q, m)[0]
    g = math.gcd(P, Q)
    witnesses = sorted(list(w.factors) for w in wits)
    rec: Dict[str, Any] = {
        "sign": sign,
        "p": P,
        "q": Q,
        "z": Z,
        "d": d,
        "assignments": assignments,
        "witnesses": witnesses,
        "witness": witnesses[0],
        "weight": str(weight),
        "gcd": g,
        # rad(gcd(x**n, y**m)) == rad(gcd(x, y)): factor the gcd of the bases
        "gcd_quality": str(Fraction(g, arith.radical(math.gcd(x, y)))),
        "maxgcd": g == min(P, Q),
        "coprime": g == 1,
    }
    if cfg.mode == "maxgcd-spread1":
        st = families.is_standard(x, y, n, Z, sign)
        rec["standard"] = list(st) if st else False
    if not cell:
        rec["mode"] = cfg.mode
    return rec


def _signs(cfg: SearchConfig) -> Tuple[str, ...]:
    return ("plus", "minus") if cfg.sign == "both" else (cfg.sign,)


def _run_product_unit(cfg: SearchConfig, unit: Dict[str, Any],
                      acc: Dict[Tuple, Dict[str, Any]]) -> None:
    """Test x**n +/- y**m against bounded-spread products of the unit's degrees.

    A (Z, d) with a witness of at least the mode's least spread goes to
    `_product_record`; a survey solution joins its cell's record.
    """
    n, m = unit["e1"], unit["e2"]
    survey = cfg.mode == "survey"
    if survey:  # every cell is reported, empty ones included
        cell = [n, m, unit["d"]]
        acc.setdefault(("survey", tuple(cell)),
                       {"mode": "survey", "cell": cell, "count": 0, "solutions": []})
    caps = _degree_caps(cfg, unit)
    if not caps:
        return
    M = cfg.max_value
    relation, floor_s = _PRODUCT_MODES[cfg.mode]
    signs = _signs(cfg)

    def keep(P: np.ndarray, Q: np.ndarray) -> np.ndarray:  # the configured signs
        return reduce(np.logical_or, (_maybe_product(
            P + Q if sign == "plus" else np.abs(P - Q), M, caps) for sign in signs))

    for P, Q in _pairs(M, relation, n, m, unit["xlo"], unit["xhi"], ordered=survey,
                       keep=keep if relation != "maxgcd" and 2 * M <= _INT64_BOUND
                       else None):
        for sign in signs:
            Z = P + Q if sign == "plus" else P - Q
            if not 1 <= Z <= M:
                continue
            for d, cap in caps:
                wits = decompose(Z, d, cap)  # almost always empty: skip any() then
                if not (wits and any(w.spread >= floor_s for w in wits)):
                    continue
                if survey:
                    _merge_into(acc, {"mode": "survey", "cell": cell, "count": 1,
                                      "solutions": [_product_record(
                                          cfg, sign, P, Q, Z, d, (n, m))]})
                else:
                    _merge_into(acc, _product_record(cfg, sign, P, Q, Z, d))


def _pillai_record(cfg: SearchConfig, xdec: ProductDecomposition,
                   zdec: ProductDecomposition) -> Optional[Dict[str, Any]]:
    """The record the scan writes for witnesses of X and Z; None if it writes none."""
    cons = _pillai_constraints(cfg)
    (lo, hi), s_cap = cons.degree_range(), cons.max_spread
    w = xdec.weight + zdec.weight
    if (zdec.value - xdec.value != cfg.difference or zdec.value > cfg.max_value
            or not _weight_ok(cfg, w)):
        return None
    for dec in (xdec, zdec):
        if not (lo <= dec.degree <= hi and dec.spread <= s_cap) or (
                cfg.m_bound is not None and dec.spread_sq_over_base() > cfg.m_bound):
            return None
    return {
        "mode": "pillai",
        "sign": "plus",
        "difference": cfg.difference,
        "x": xdec.value,
        "z": zdec.value,
        "x_witness": list(xdec.factors),
        "z_witness": list(zdec.factors),
        "weight": str(w),
    }


def _pillai_constraints(cfg: SearchConfig) -> SpreadConstraints:
    return SpreadConstraints(degree=cfg.degree or (2, cfg.max_bits),
                             max_spread=cfg.max_spread or 0,
                             max_spread_sq_over_base=cfg.m_bound)


def _run_pillai_unit(cfg: SearchConfig, unit: Dict[str, Any],
                     acc: Dict[Tuple, Dict[str, Any]]) -> None:
    """pillai units: Z in [xlo, xhi], joined by value with X = Z - B.

    Every product of the config's degrees, spread cap and s^2/b bound with
    value in [max(1, xlo - B), xhi] is indexed once, as value -> factor
    tuples; `enumerate_products` returns every decomposition of each such
    value, so each Z and each X = Z - B of the range has all its witnesses.
    """
    zlo, B = unit["xlo"], cfg.difference
    index: Dict[int, List[Tuple[int, ...]]] = {}
    for dec in enumerate_products(_pillai_constraints(cfg), unit["xhi"],
                                  max(1, zlo - B)):
        index.setdefault(dec.value, []).append(dec.factors)
    for Z, zfs in index.items():
        if Z < zlo or Z - B not in index:
            continue
        for xf, zf in iterproduct(index[Z - B], zfs):
            _merge_into(acc, _pillai_record(cfg, analyze(xf), analyze(zf)))


# Bytes per pillai index entry, over-estimated (208-271 measured at degrees
# 1-3 on CPython 3.11): the dict slot and value key, a one-item list, and a
# tuple of d factors at 8 + 32 bytes each.
_PILLAI_ENTRY_BYTES = (200, 40)


def _pillai_index_bytes(cfg: SearchConfig, unit: Dict[str, Any], limit: int) -> int:
    """A bound on the bytes of the index a pillai unit builds, from class counts.

    Per degree d, `enumerate_products` visits the bases b from the d-th
    root of the lowest value minus s to the d-th root of xhi, and a (d, b)
    class is b and d - 1 nondecreasing factors in [b, b + s]: at most
    C(d - 1 + s, s) tuples, all of them when b**d and (b + s)**d both lie
    in the value range.  If that bound passes `limit`, the at most 2s + 1
    other bases of each degree are counted exactly instead, without
    building a tuple, by a recursion over the next factor memoized on
    (factor, slots left, product left); the count then ignores only the
    s^2/b bound, and stops once the total passes `limit`.
    """
    cons = _pillai_constraints(cfg)
    s, (lo, hi) = cons.max_spread, cons.degree_range()
    vlo, vhi = max(1, unit["xlo"] - cfg.difference), unit["xhi"]
    per_entry, per_factor = _PILLAI_ENTRY_BYTES
    degrees = [(d, max(1, arith.iroot(vlo, d)[0] - s), arith.iroot(vhi, d)[0],
                per_entry + per_factor * d) for d in range(lo, hi + 1)]
    loose = sum(max(0, top - bottom + 1) * math.comb(d - 1 + s, s) * size
                for d, bottom, top, size in degrees)
    if loose <= limit:
        return loose

    @lru_cache(maxsize=None)
    def tails(f: int, high: int, slots: int, q: int) -> int:
        """Nondecreasing `slots`-tuples in [f, high] with product <= q."""
        if slots == 0:
            return int(q >= 1)
        if f == 1:  # k 1s in one step: at most q.bit_length() factors >= 2 follow
            return sum(tails(2, high, slots - k, q)
                       for k in range(max(0, slots - q.bit_length()), slots + 1))
        n = 0
        for g in range(f, high + 1):
            if g**slots > q:
                break
            n += tails(g, high, slots - 1, q // g)
        return n

    total = 0
    for d, bottom, top, size in degrees:
        inner_lo = arith.iroot(vlo - 1, d)[0] + 1 if vlo > 1 else 1
        inner_hi = top - s  # b**d >= vlo and (b + s)**d <= vhi in between
        entries = max(0, inner_hi - inner_lo + 1) * math.comb(d - 1 + s, s)
        for b in chain(range(bottom, min(inner_lo, top + 1)),
                       range(max(inner_hi + 1, inner_lo), top + 1)):
            entries += (tails(b, b + s, d - 1, vhi // b)
                        - tails(b, b + s, d - 1, (vlo - 1) // b))
        total += entries * size
        if total > limit:
            break
    return total


def _check_memory(cfg: SearchConfig, plan: List[List[Dict[str, Any]]],
                  threads: int, budget: int = 4 << 30) -> None:
    """Refuse a plan whose pillai indexes would not fit the budget.

    A unit's index lives while the unit runs and up to `threads` chunks run
    at once, so each unit gets that share of the budget.
    """
    share = budget // max(1, min(threads, len(plan)))
    for unit in (u for g in plan for u in g if u["kind"] == "pillai"):
        est = _pillai_index_bytes(cfg, unit, share)
        if est > share:
            raise MemoryError(
                f"the pillai product index for z in [{unit['xlo']}, {unit['xhi']}] "
                f"needs at least {est} bytes, over its share {share} of the "
                f"{budget}-byte budget; more --chunks make each range smaller"
            )


_UNIT_RUNNERS = {
    "fcpair": _run_fc_pair_unit,
    "fcone": _run_fc_pair_unit,  # the pairs (x**e, 1)
    "fcwild": lambda cfg, unit, acc: _fc_try_pair(  # the pair (1, 1)
        cfg, 1, 1, _power_value_set(cfg.max_value), acc),
    "product": _run_product_unit,
    "pillai": _run_pillai_unit,
}


# ---------------------------------------------------------------------------
# Planning and chunked execution


def _mode_units(cfg: SearchConfig) -> List[Dict[str, Any]]:
    """The deterministic unit list covering the whole search space."""
    M = cfg.max_value
    units: List[Dict[str, Any]] = []
    if cfg.mode == "fermat-catalan":
        units.append({"kind": "fcwild", "e1": 0, "e2": 0, "xlo": 0, "xhi": 0,
                      "cost": 1})
        top = min(cfg.max_exp, cfg.max_bits)  # 2**e <= M for every e <= max_bits
        for e1 in range(cfg.min_exp, top + 1):
            xhi = _max_base(M, e1)
            for e2 in chain((0,), range(e1, top + 1)):  # e2 = 0: fcone
                if _fc_pair_needed(cfg, e1, e2):
                    n2 = _max_base(M, e2) - 1 if e2 else 1
                    units.append({"kind": "fcpair" if e2 else "fcone",
                                  "e1": e1, "e2": e2, "xlo": 2, "xhi": xhi,
                                  "cost": (xhi - 1) * n2})
    elif cfg.mode == "pillai":
        # one value range of Z; plan_chunks splits it like a base range
        units.append({"kind": "pillai", "e1": 0, "e2": 0, "xlo": 1, "xhi": M,
                      "cost": M})
    else:
        # One unit per (e1, e2[, d]) cell, over the bases from the relation's
        # first to the max base; a unit whose degrees admit no product scans
        # none.  Its cost is the cells that range spans, halved on the
        # e1 == e2 triangle of an unordered scan.  A unit of cost 0 is not
        # planned, except that every survey cell is, so that it is reported.
        survey = cfg.mode == "survey"
        if cfg.mode in ("gbtz", "nonmaxgcd3"):
            lo, hi = max(3, cfg.min_exp), min(cfg.max_exp, cfg.max_bits)
            cells = [(n, m) for n in range(lo, hi + 1) for m in range(n, hi + 1)]
        elif survey:
            cells = list(iterproduct(*(range(lo, hi + 1) for lo, hi in (
                cfg.n_range, cfg.m_range, cfg.degree))))
        else:  # fp and maxgcd-spread1 take both powers to the degree
            cells = [(n, n) for n in range(cfg.degree[0], cfg.degree[1] + 1)]
        first = 1 if _PRODUCT_MODES[cfg.mode][0] == "maxgcd" else 2
        for cell in cells:
            unit = dict(zip(("e1", "e2", "d"), cell), kind="product", xlo=first, xhi=0)
            if _degree_caps(cfg, unit):
                unit["xhi"] = _max_base(M, cell[0])
            cost = (max(0, unit["xhi"] - first + 1)
                    * max(0, _max_base(M, cell[1]) - first + 1))
            if cell[0] == cell[1] and not survey:
                cost //= 2
            if cost or survey:
                units.append(dict(unit, cost=cost))
    return units


def _unit_order_key(u: Dict[str, Any]) -> Tuple:
    return (u["kind"], u["e1"], u.get("e2", 0), u.get("d", 0), u["xlo"])


def plan_chunks(cfg: SearchConfig, n_chunks: int) -> List[List[Dict[str, Any]]]:
    """Deterministic chunk plan: a list of unit lists covering the search.

    The costliest piece is split on its base sub-range, or set aside if it
    does not split, until n_chunks pieces exist or none splits; then the
    pieces are packed into n_chunks balanced groups.
    """
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")

    def entry(u: Dict[str, Any]) -> Tuple[Tuple, Dict[str, Any]]:
        # Unique per piece (split halves differ in xlo), so dicts never compare.
        return (-u["cost"],) + _unit_order_key(u), u

    heap = [entry(u) for u in _mode_units(cfg)]
    heapq.heapify(heap)
    whole: List[Dict[str, Any]] = []  # pieces that do not split
    # a plan with no units is one empty group
    while heap and len(heap) + len(whole) < n_chunks:
        head = heap[0][1]
        if head["xhi"] <= head["xlo"]:
            # fcwild has no base range (xlo == xhi == 0); one base does not split
            whole.append(heapq.heappop(heap)[1])
            continue
        mid = (head["xlo"] + head["xhi"]) // 2
        left = dict(head, xhi=mid, cost=head["cost"] // 2)
        right = dict(head, xlo=mid + 1, cost=head["cost"] - head["cost"] // 2)
        heapq.heapreplace(heap, entry(left))
        heapq.heappush(heap, entry(right))
    pieces = sorted(whole + [u for _, u in heap], key=_unit_order_key)
    groups: List[List[Dict[str, Any]]] = [
        [] for _ in range(min(n_chunks, max(len(pieces), 1)))
    ]
    loads = [(0, g) for g in range(len(groups))]  # least load, then lowest g
    order = sorted(range(len(pieces)), key=lambda i: (-pieces[i]["cost"], i))
    for i in order:
        load, g = loads[0]
        groups[g].append(pieces[i])
        heapq.heapreplace(loads, (load + max(pieces[i]["cost"], 1), g))
    for g in groups:
        g.sort(key=_unit_order_key)
    return groups


def run_chunk(cfg_dict: Dict[str, Any],
              units: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Run one chunk; a pure function of (config, units), process-safe."""
    cfg = SearchConfig.from_dict(cfg_dict)
    acc: Dict[Tuple, Dict[str, Any]] = {}
    for unit in units:
        _UNIT_RUNNERS[unit["kind"]](cfg, unit, acc)
    return sorted(acc.values(), key=_record_sort_key)


def _run_chunk_task(args: Tuple[int, Dict[str, Any], List[Dict[str, Any]]]):
    idx, cfg_dict, units = args
    return idx, run_chunk(cfg_dict, units)


CHECKPOINT_FORMAT = "fcspread-checkpoint"


class CheckpointMismatch(ValueError):
    """Checkpoint file does not fit this run, or does not hold a valid state."""


def _atomic_write(path: str, data: str) -> None:
    """Write through a temporary file, so that `path` never holds a partial file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(data)
    os.replace(tmp, path)


def save_checkpoint(path: str, state: Dict[str, Any]) -> None:
    _atomic_write(path, canon_json(state))


def load_checkpoint(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            state = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise CheckpointMismatch(f"cannot read checkpoint {path}: {exc}") from None
    if (
        not isinstance(state, dict)
        or state.get("format") != CHECKPOINT_FORMAT
        or state.get("version") != FORMAT_VERSION
    ):
        raise CheckpointMismatch(f"unrecognized checkpoint format in {path}")
    for key, kind in (("config_digest", str), ("plan_digest", str),
                      ("n_chunks", int), ("done", dict), ("done_sha256", dict)):
        if not isinstance(state.get(key), kind):
            raise CheckpointMismatch(f"checkpoint {path} lacks a valid {key!r}")
    if state["n_chunks"] < 1:
        raise CheckpointMismatch(f"checkpoint {path} lacks a valid 'n_chunks'")
    return state


def _check_done(state: Dict[str, Any], n_plan: int, cfg: SearchConfig) -> None:
    """Refuse chunks outside the plan, unverified records and altered record lists."""
    chunk_ids = {str(i) for i in range(n_plan)}
    for key, records in state["done"].items():
        if key not in chunk_ids or not isinstance(records, list):
            raise CheckpointMismatch(f"checkpoint chunk {key!r} does not fit the plan")
        for rec in records:
            try:
                problems = verify_record(rec, cfg)
            except Exception as exc:  # the checkpoint comes from disk
                problems = [f"verification raised {type(exc).__name__}: {exc}"]
            if problems:
                raise CheckpointMismatch(
                    f"checkpoint chunk {key} holds a record that fails "
                    f"verification: {problems[0]}"
                )
        if state["done_sha256"].get(key) != _sha256(records):
            raise CheckpointMismatch(f"checkpoint chunk {key} fails its sha256")


@dataclass
class RunResult:
    records: List[Dict[str, Any]]
    chunks_total: int
    chunks_run: int
    completed: bool
    config: SearchConfig
    candidates: int = 0  # per-chunk records before the dedup merge


def merge_records(
    chunk_results: Sequence[Sequence[Dict[str, Any]]]
) -> List[Dict[str, Any]]:
    acc: Dict[Tuple, Dict[str, Any]] = {}
    for records in chunk_results:
        for rec in records:
            _merge_into(acc, json.loads(canon_json(rec)))
    return sorted(acc.values(), key=_record_sort_key)


def run_chunked(
    cfg: SearchConfig,
    n_chunks: int = 1,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    threads: int = 1,
    max_chunks: Optional[int] = None,
) -> RunResult:
    """Run a search over a deterministic chunk plan with checkpointing.

    `max_chunks` bounds how many pending chunks run in this call (used to
    exercise interruption); the merged record list after completion is
    independent of n_chunks, threads and interruptions in between.
    """
    digest = cfg.digest()
    state: Dict[str, Any] = {
        "format": CHECKPOINT_FORMAT,
        "version": FORMAT_VERSION,
        "config_digest": digest,
        "config": cfg.semantic_dict(),
        "n_chunks": n_chunks,
        "done": {},
        "done_sha256": {},
    }
    if resume:
        if not checkpoint_path:
            raise ValueError("resume requires a checkpoint path")
        state = load_checkpoint(checkpoint_path)
        if state["config_digest"] != digest:
            raise CheckpointMismatch(
                "checkpoint config digest mismatch: "
                f"{state['config_digest']} != {digest}"
            )
        n_chunks = state["n_chunks"]
    plan = plan_chunks(cfg, n_chunks)
    _check_memory(cfg, plan, threads)
    plan_digest = _sha256(plan)
    if resume:
        if state["plan_digest"] != plan_digest:
            raise CheckpointMismatch(
                "checkpoint plan digest mismatch: "
                f"{state['plan_digest']} != {plan_digest}"
            )
        _check_done(state, len(plan), cfg)
    state["plan_digest"] = plan_digest
    done: Dict[str, List[Dict[str, Any]]] = state["done"]
    pending = [i for i in range(len(plan)) if str(i) not in done]
    to_run = pending if max_chunks is None else pending[:max_chunks]
    cfg_dict = cfg.semantic_dict()

    def note(idx: int, records: List[Dict[str, Any]]) -> None:
        done[str(idx)] = records
        state["done_sha256"][str(idx)] = _sha256(records)
        if checkpoint_path:
            save_checkpoint(checkpoint_path, state)

    if threads > 1 and len(to_run) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for idx, records in pool.map(
                _run_chunk_task, [(i, cfg_dict, plan[i]) for i in to_run]
            ):
                note(idx, records)
    else:
        for i in to_run:
            note(i, run_chunk(cfg_dict, plan[i]))
    completed = len(done) == len(plan)
    records = (
        merge_records([done[k] for k in sorted(done, key=int)]) if completed else []
    )
    return RunResult(
        records=records,
        chunks_total=len(plan),
        chunks_run=len(to_run),
        completed=completed,
        config=cfg,
        candidates=sum(len(v) for v in done.values()),
    )


# ---------------------------------------------------------------------------
# Record verification (shared by tests and the log verifier)


def verify_record(rec: Dict[str, Any], cfg: SearchConfig) -> List[str]:
    """Rebuild a record from its identity and compare; returns a list of problems.

    The identity is the values of an fc record, the two witnesses of a
    pillai record and (sign, p, q, z, d) of a product record or survey
    solution.  Its integers pass through int(), so that a stored 1.0 or
    true differs from the rebuilt 1; a field missing from `rec` raises.
    """
    mode = rec.get("mode")
    if mode != cfg.mode:
        return [f"record mode {mode!r} does not match the config mode {cfg.mode!r}"]
    if mode == "survey":
        n, m, d = (int(v) for v in rec["cell"])
        if (n, m) not in _scan_caps(cfg).get(d, {}):
            return ["cell outside the survey ranges"]
        sols = rec["solutions"]
        problems = [] if len(sols) == rec["count"] else ["count != len(solutions)"]
        keys = [_solution_sort_key(sol) for sol in sols]
        if keys != sorted(set(keys)):
            problems.append("solutions repeat or are out of order")
        problems += _compare({k: v for k, v in rec.items() if k != "count"},
                             {"mode": mode, "cell": [n, m, d], "solutions": sols})
        for sol in sols:
            problems.extend(f"cell {rec['cell']}: {p}"
                            for p in _verify_product(sol, cfg, d, (n, m)))
        return problems
    if mode == "fermat-catalan":
        return _compare(rec, _fc_candidate(cfg, *(int(v) for v in rec["values"])))
    if mode == "pillai":
        xdec, zdec = (analyze([int(f) for f in rec[k]])
                      for k in ("x_witness", "z_witness"))
        return _compare(rec, _pillai_record(cfg, xdec, zdec))
    return _verify_product(rec, cfg, int(rec["d"]))


def _verify_product(rec: Dict[str, Any], cfg: SearchConfig, d: int,
                    cell: Optional[Tuple[int, int]] = None) -> List[str]:
    P, Q, Z = (int(rec[k]) for k in ("p", "q", "z"))
    relation = _PRODUCT_MODES[cfg.mode][0]
    if not _related(relation, P, Q):
        return [f"{cfg.mode} requires {relation} pairs"]
    if cell is None:
        scanned = _scan_caps(cfg).get(d, {})
        unscanned = [f"assignment ({n},{m}) at degree {d} is not scanned"
                     for n, m in rec["assignments"]
                     if (min(n, m), max(n, m)) not in scanned]
        if unscanned:
            return unscanned
    return _compare(rec, _product_record(cfg, rec["sign"], P, Q, Z, d, cell))


def _compare(rec: Dict[str, Any], built: Optional[Dict[str, Any]],
             absent: str = "the search writes no record for this identity") -> List[str]:
    """The fields of `rec` that differ from the rebuilt record `built`.

    `built` is None where the writer writes no record; `absent` says why.
    """
    if built is None:
        return [absent]
    if canon_json(rec) == canon_json(built):
        return []
    return [f"stored {k} wrong" for k in sorted(set(rec) | set(built))
            if k not in built or canon_json(rec[k]) != canon_json(built[k])]


# ---------------------------------------------------------------------------
# Expected findings per mode (drives exit codes)


def expected_fc_triples(cfg: SearchConfig) -> List[Tuple[int, int, int]]:
    """Catalog triples findable under this config (plain coefficients)."""
    out = []
    for sol in families.fermat_catalan_catalog():
        vals = [v for v, _ in sol.terms]
        if _fc_candidate(cfg, *vals):
            a, b = sorted(vals[:2])
            out.append((a, b, vals[2]))
    return sorted(out)


def expected_degree3_triples(cfg: SearchConfig) -> List[Tuple[int, int, int]]:
    triples = (tuple(v for v, _ in sol.terms) for sol in families.degree3_catalog())
    return sorted(t for t in triples if max(t) <= cfg.max_value)


def expectation_report(cfg: SearchConfig,
                       records: List[Dict[str, Any]]) -> Tuple[bool, str]:
    """(expectation met, human summary) for a completed run."""
    if cfg.mode == "fermat-catalan" and cfg.coeffs != (1, 1, 1):
        return True, f"{len(records)} records (no catalog for coefficients)"
    if cfg.mode in ("fermat-catalan", "nonmaxgcd3"):
        if cfg.mode == "fermat-catalan":
            found = sorted(tuple(r["values"]) for r in records)
            want = expected_fc_triples(cfg)
        else:
            found = sorted({(r["p"], r["q"], r["z"]) for r in records})
            want = expected_degree3_triples(cfg)
        ok = found == want
        return ok, (
            f"found {len(found)} solutions, catalog predicts {len(want)}"
            + ("" if ok else " (MISMATCH)")
        )
    if cfg.mode in ("gbtz", "fp"):
        ok = not records
        return ok, f"{len(records)} counterexample records (expected 0)"
    if cfg.mode == "maxgcd-spread1":
        bad = [r for r in records if not r.get("standard")]
        ok = not bad
        return ok, (
            f"{len(records)} records, {len(bad)} non-standard "
            "(expected all standard)"
        )
    return True, f"{len(records)} records"
