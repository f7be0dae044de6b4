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
  max(A + B, C) * M <= 2**63 the pair and fcone units of a chunk walk two
  streams of int64 cells, and each keep runs once per 2**14 of them: a
  cell stays when some |a P + b Q| / c is 1, a square or cube by its
  rounded float root or, in units with e3 >= 5 (`_fc_e3`), a power of a
  prime exponent >= 5 in a sifted set (`_usable_i64`, exact).  Only those
  are checked for coprimality and go to `_fc_try_pair`; larger bounds run
  the scalar loop.
  A pair unit (3, e2) whose third term must be a cube (`_fc_cube_unit`)
  runs as a cube unit over a range of y, a kind the product modes share:
  its `_pairs` rows are the sides x of x**3 +/- w**3 = y**e2 (`_cube_cells`,
  by `arith.cube_splits`, after a residue sieve mod 7 and 9), primitive
  ones under the coprime relation, from divisors that hold each prime
  p != 3 of y**e2 whole or not at all; by Euler, (3, 3) has none and is
  not planned.  A chunk's fc units run in one loop, `_run_fc_units`: both
  streams and fcwild's (1, 1) feed one `_fc_try_pair`.
* product-target modes (gbtz, nonmaxgcd3, fp, maxgcd-spread1) and survey
  (both orders of each pair, one record per (n, m, d) cell) fix the third
  term to be a bounded-spread product.  Each mode's row of `_MODES` gives
  its pair relation, least witness spread and any spread ceiling; one
  cached pass over the mode's cells, `_product_plan`, gives the rest that
  the plan, the scan and `verify_record` read.  Each cell gets its
  (degree, spread cap) list, the cap the ceiling or else exact from the
  weight inequality and cut to max_spread, so that `decompose` is called
  with the largest admissible spread and nothing more; a degree whose cap
  is below the least witness spread is dropped.  A cell with an empty list
  is not planned (a survey cell is, and reports 0), and a record that no
  planned cell can give fails verification.  For the coprime and
  non-maxgcd relations with M <= 2**62, a degree whose table costs at most
  the cells the plan tests at it gets, once per run, the values <= M with
  a decomposition of its largest cap (`_product_table`).  A unit whose
  degrees all have one walks the int64 blocks and keeps a cell only if
  x**n + y**m (sign plus) or |x**n - y**m| (minus) is in one, so the
  relation test and `decompose` see only true hits.  Under these two
  relations, in a mode whose least spread is 0, a unit (3, e2) whose one
  (degree, cap) is (3, 0) asks whether x**3 +/- y**e2 is a cube: it is a
  cube unit, like fc's, and its `_pairs` rows are its `_cube_cells`, save
  (3, 3), which has no y and no unit but survey's empty cell.  The maxgcd
  relation, larger bounds and units with an untabled degree run the
  scalar `_pairs` loop; there, a unit with two or more degrees d whose
  witnesses' primes are at most B_d = iroot(M, d) + cap <= 2**11 calls
  `decompose` at them only for a Z with no prime above their largest B_d
  (`arith.smooth`, a gcd with the product of those primes).  Power bases
  start at 2 (the literal 1 belongs to the fermat-catalan wildcard only),
  except in the maxgcd relation, whose rows are the multiples x = w*y of
  each y >= 1: they parametrize exactly the maxgcd pairs, so `_pairs`
  tests no relation on them.
* pillai joins the bounded-spread products with themselves: every record
  has a witness of a heavy degree, which `_product_plan` tables, past 2**62
  too.  A unit is a value range of Z, and `_run_pillai_units` takes each
  tabled value of [Z range low - B, Z range high] as Z and as Z - B.

Each record is a pure function of its identity, built by one function per
mode that the scan calls on every hit and `verify_record` on a stored
record's identity, reporting each field that differs: `_fc_candidate`
from the values, `_product_record` from (sign, p, q, z, d) and
`_pillai_record` from the two witnesses, each None where the search writes
no record, and `_survey_record` from a cell and its solutions, each kept
once, in order.  A plan holds the units of one mode, and `run_chunk` hands
a chunk to that mode's one runner: `_run_fc_units`, `_run_pillai_units`
or `_run_product_units`.  Chunking partitions the (exponent pair, base
sub-range) space and pillai's range of Z: every unit but fcwild carries a
range that `plan_chunks` splits, survey cells included.  Records with one
key are equal whichever chunk wrote them (a survey cell's copies join in
one `_survey_record`), so the final record set is byte-identical no matter
the chunk plan, thread count or completion order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import math
import os
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import chain, product as iterproduct
from operator import itemgetter
from typing import (Any, Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from . import arith, families
from .products import (
    ProductDecomposition,
    analyze,
    decompose,
    enumerate_products,  # unused here; the traced bench wraps search.enumerate_products
    product_values,
)

FORMAT_VERSION = 2

# The bytes a search plan, its tables and the abc sieve tables may take.
MEMORY_BUDGET = 4 << 30

# JSON-ready dicts: a plan unit, a record, and a chunk's records by `_record_sort_key`.
Unit = Dict[str, Any]
Record = Dict[str, Any]
Acc = Dict[Tuple, Record]


class _Mode(NamedTuple):
    """A search mode: the fields it reads, its defaults and how it scans.

    The digest covers `fields`; any other field keeps its mode default
    (`defaults`, else the dataclass default).  A product mode pairs powers by
    `relation`, from degree `degree_floor` up, with witnesses of spread at
    least `min_spread` and at most `spread_ceiling` (else the weight cap).
    """

    reads: str
    defaults: Dict[str, Any]
    relation: Optional[str] = None
    min_spread: int = 0
    degree_floor: Optional[int] = None
    spread_ceiling: Optional[int] = None

    @property
    def fields(self) -> Tuple[str, ...]:
        return ("mode", "max_bits") + tuple(self.reads.split())

    @property
    def first_base(self) -> int:  # maxgcd rows x = w*y start at y = 1
        return 1 if self.relation == "maxgcd" else 2


_MODES: Dict[str, _Mode] = {
    "fermat-catalan": _Mode("min_exp max_exp min_exp_cap f_bound f_strict coeffs",
                            {"max_bits": 34, "sign": "plus", "degree": None}),
    "gbtz": _Mode("sign min_exp max_exp degree max_spread f_bound f_strict",
                  {"max_bits": 30, "sign": "both", "degree": (3, 10)},
                  "coprime", degree_floor=3),
    # nonmaxgcd3 takes degree (3, 3) only, so it has no degree floor
    "nonmaxgcd3": _Mode("sign min_exp max_exp degree max_spread f_bound f_strict",
                        {"max_bits": 28, "sign": "both", "degree": (3, 3)},
                        "nonmaxgcd", min_spread=1),
    "fp": _Mode("sign degree max_spread f_bound f_strict",
                {"max_bits": 30, "sign": "both", "degree": (4, 21)},
                "nonmaxgcd", degree_floor=4),
    "maxgcd-spread1": _Mode("sign degree max_spread",
                            {"max_bits": 30, "sign": "both", "degree": (5, 10)},
                            "maxgcd", degree_floor=2, spread_ceiling=1),
    "pillai": _Mode("degree max_spread f_bound f_strict m_bound difference",
                    {"max_bits": 20, "sign": "plus", "degree": None, "max_spread": 0,
                     "f_bound": Fraction(41, 42), "f_strict": False}),
    "survey": _Mode("sign degree n_range m_range max_spread f_bound f_strict",
                    {"max_bits": 24, "sign": "both", "degree": (3, 6)}, "nonmaxgcd"),
}

MODES = tuple(_MODES)


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
        however the config was built: a mode with a degree floor in `_MODES`
        scans degrees from its floor up, one with a spread ceiling caps the
        spread there, and pillai reads no spread cap as cap 0.
        """
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        row = _MODES[self.mode]
        reads = row.fields
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.default is not None and value is None:  # a file's null is no default
                raise ValueError(f"{f.name} must not be null")
            if f.name not in reads and value != row.defaults.get(f.name, f.default):
                raise ValueError(f"{self.mode} mode does not use {f.name}")
        # a bool or a float can equal an int and still change the digest
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if value is not None and not all(
                    isinstance(v, int) and not isinstance(v, bool)
                    for v in (value if isinstance(value, tuple) else [value])):
                raise ValueError(f"{name} must hold integers")
        # make_config has turned an int or a fraction string into a Fraction
        for name in ("f_bound", "m_bound"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, Fraction):
                raise ValueError(f"{name} must be a Fraction, not {value!r}")
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
        if row.relation is not None and self.degree is None:
            raise ValueError(f"{self.mode} mode needs a degree range")
        if self.mode == "nonmaxgcd3" and self.degree != (3, 3):
            raise ValueError("nonmaxgcd3 mode takes degree 3 only")
        if self.max_spread is not None and self.max_spread < 0:
            raise ValueError("max_spread must be >= 0")
        if len(self.coeffs) != 3 or any(c < 1 for c in self.coeffs):
            raise ValueError("coeffs must be three positive integers")
        if self.mode == "pillai" and (self.difference is None or self.difference < 1):
            raise ValueError("pillai mode needs a positive difference")
        if self.mode == "pillai" and self.degree is None and self.max_bits < 2:
            raise ValueError("pillai's default degrees 2..max_bits need max_bits >= 2")
        if self.mode == "survey" and (self.n_range is None or self.m_range is None):
            raise ValueError("survey mode needs n_range and m_range")
        floor, ceiling = row.degree_floor, row.spread_ceiling
        if floor is not None:
            lo, hi = self.degree
            if hi < floor:
                raise ValueError(f"{self.mode} mode scans degrees {floor} and up")
            object.__setattr__(self, "degree", (max(floor, lo), hi))
        if ceiling is not None and self.max_spread is not None and (
                self.max_spread >= ceiling):
            object.__setattr__(self, "max_spread", None)
        if self.mode == "pillai" and self.max_spread is None:  # no cap reads as 0
            object.__setattr__(self, "max_spread", 0)

    def semantic_dict(self) -> Dict[str, Any]:
        """The mode, the format and the fields the mode reads."""
        d = {f: jsonify(getattr(self, f)) for f in _MODES[self.mode].fields}
        d["format"] = FORMAT_VERSION
        return d

    def digest(self) -> str:
        return _sha256(self.semantic_dict())

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SearchConfig":
        """The config of a `semantic_dict`, whose format must be the one read here."""
        fmt = d.get("format")
        if type(fmt) is not int or fmt != FORMAT_VERSION:  # True == 1, 2.0 == 2
            raise ValueError(f"config format {fmt!r} is not {FORMAT_VERSION}")
        return make_config(
            d["mode"],
            **{k: v for k, v in d.items() if k not in ("format", "mode")},
        )


# The integer fields, and those holding a tuple of integers.
_INT_FIELDS = ("max_bits", "min_exp", "max_exp", "min_exp_cap", "max_spread",
               "difference", "degree", "n_range", "m_range", "coeffs")


def make_config(mode: str, **overrides: Any) -> SearchConfig:
    """Build a SearchConfig from mode defaults plus keyword overrides."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    values: Dict[str, Any] = dict(_MODES[mode].defaults, **overrides)
    for key in ("f_bound", "m_bound"):
        # a float is a binary value: 1.2 would be just under 6/5
        if isinstance(values.get(key), (bool, float)):
            raise ValueError(f"{key} must be an integer or a fraction string, "
                             f"not {values[key]!r}")
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
    """Values x**p <= bound, x >= 2, p prime >= 5: with squares and cubes, every power.

    Wider than any exponent window: `_fc_candidate` re-derives every hit.
    """
    return frozenset(v for p in range(5, bound.bit_length()) if arith.is_prime(p)
                     for v in _powers(bound, p)[2:])


def _max_base(M: int, e: int) -> int:
    """Largest x with x**e <= M (0 when even 2**e exceeds M)."""
    r = arith.iroot(M, e)[0]
    return r if r >= 2 else 0


def _usable_power(t: int, M: int, power_set: frozenset) -> bool:
    """Exact test: t is 1, or 1 < t <= M and t is a square, a cube or in `power_set`.

    A cube is 0 or +/-1 modulo 7 and 9, which 6 in 7 other values are not.
    """
    if not 1 < t <= M:
        return t == 1
    return (math.isqrt(t) ** 2 == t or t in power_set
            or (t % 7 in (0, 1, 6) and t % 9 in (0, 1, 8) and arith.iroot(t, 3)[1]))


# Guard and block size of the int64 pair prefilter.  A keep forms a*P + b*Q,
# exact modulo 2**64, and runs only where each |value| <= _INT64_BOUND (so
# M <= 2**62, as `_usable_i64` and `_product_table` need): only a*M + b*M
# = 2**63 at P = Q = M = 2**k can wrap, and no relation admits two even
# bases.  Blocks of 2**14 cells keep the temporaries near 1 MB.
_INT64_BOUND = 1 << 63
_PREFILTER_CELLS = 1 << 14

Keep = Callable[[np.ndarray, np.ndarray], np.ndarray]
Member = Callable[[np.ndarray], np.ndarray]


@lru_cache(maxsize=128)
def _powers_i64(M: int, e: int) -> np.ndarray:
    return np.array(_powers(M, e), dtype=np.int64)


def _sifted_member(values: np.ndarray) -> Member:
    """Exact membership in the sorted `values`, with 16-32 sifting slots each.

    A value's slot is its low bits.  The slot only sifts: `np.searchsorted`
    decides each t whose slot holds a value, so membership is exact.
    """
    mask = (1 << (len(values).bit_length() + 4)) - 1
    slots = np.zeros(mask + 1, dtype=bool)
    slots[np.asarray(values & mask, dtype=np.int64)] = True  # dtype object too

    def member(t: np.ndarray) -> np.ndarray:
        hit = slots[np.asarray(t & mask, dtype=np.int64)]  # True at every value; t < 0 too
        sub = t[hit]
        hit[hit] = values[np.minimum(np.searchsorted(values, sub), len(values) - 1)] == sub
        return hit

    return member


def _usable_i64(t: np.ndarray, M: int, member: Optional[Member]) -> np.ndarray:
    """Vector `_usable_power` for int64 t and M <= 2**62, `member` sifting its set.

    Exact, for no set if `member` is None.  t outside [1, M] is masked to 1,
    so the float roots see t <= 2**62 and are at most 2**31.  float64(t), the
    correctly rounded sqrt and the few-ulp libm cbrt keep each within a
    relative 2**-50, so within 2**-19 < 1/2 of the true root: a square or cube
    of k rounds to k.  Rounded roots are at most 2**31 and 1664511, so k*k <=
    2**62 and k**3 < 2**63 cannot wrap, and the exact products decide.
    """
    ok = (t >= 1) & (t <= M)
    t = np.where(ok, t, 1)
    f = t.astype(np.float64)
    k = np.rint(np.sqrt(f)).astype(np.int64)
    c = np.rint(np.cbrt(f)).astype(np.int64)
    hit = (k * k == t) | (c * c * c == t)
    return ok & (hit | member(t) if member else hit)


@lru_cache(maxsize=128)  # pillai tables each degree up to max_bits <= 128 by default
def _product_values(M: int, d: int, s: int) -> np.ndarray:
    """`product_values(M, d, s)`, built once per worker: pillai joins these
    values, the other product modes sift them (`_product_table`)."""
    return product_values(M, d, s)


@lru_cache(maxsize=128)
def _product_table(M: int, d: int, s: int) -> Member:
    """Exact membership in `_product_values(M, d, s)` (`_sifted_member`)."""
    return _sifted_member(_product_values(M, d, s))


def _capped_sum(terms: Iterable[int], cap: int) -> int:
    """min(sum(terms), cap) for terms >= 0, reading no term past the cap."""
    total = 0
    for t in terms:
        total += t
        if total >= cap:
            return cap
    return total


def _table_states(M: int, d: int, s: int, limit: Optional[int] = None) -> int:
    """A bound on each level of `product_values(M, d, s)`: the multisets of d factors
    in [b, b + s] of least factor b and product <= M, over the bases b.  Loose:
    C(d - 1 + s, s) for each of the iroot(M, d) bases.  With a `limit`, their
    count, or limit + 1 once it passes the limit: all of them for a base
    with (b + s)**d <= M, and for the at most s others a recursion over the
    next factor, memoized on (factor, slots left, product left), each sum
    saturating at limit + 1 (a saturated part saturates the whole).
    """
    top, full = arith.iroot(M, d)[0], math.comb(d - 1 + s, s)
    if limit is None:
        return top * full
    cap = limit + 1

    @lru_cache(maxsize=None)
    def tails(f: int, high: int, slots: int, q: int) -> int:
        """Nondecreasing `slots`-tuples in [f, high] with product <= q, up to cap."""
        if f == 1:  # k 1s in one step: at most q.bit_length() factors >= 2 follow
            return _capped_sum((tails(2, high, slots - k, q)
                                for k in range(max(0, slots - q.bit_length()), slots + 1)), cap)
        return int(q >= 1) if slots == 0 else _capped_sum((  # g**slots <= q
            tails(g, high, slots - 1, q // g)
            for g in range(f, min(high, arith.iroot(q, slots)[0]) + 1)), cap)

    inner = max(0, top - s)  # (b + s)**d <= M exactly for b <= top - s
    return _capped_sum(chain((inner * full,), (tails(b, b + s, d - 1, M // b)
                                               for b in range(inner + 1, top + 1))), cap)


Span = Tuple[int, int, int, int]  # a unit's (n, m, lo, hi): x in [lo, hi] of x**n, y**m


def _blocks(M: int, spans: Iterable[Span],
            ordered: bool) -> Iterator[Tuple[Span, int, int, int, int, bool]]:
    """The cells of each span as blocks (span, x0, x1, y0, y1, same) of at most
    `_PREFILTER_CELLS`, row by row: x in [x0, x1), y in [y0, y1) and, with
    `same` (n == m and not `ordered`, where (x, y) and (y, x) give one pair),
    y < x.  y starts at the first base of the m table: 2, or 1 for m == 0,
    the literal 1 (`_powers`).
    """
    for span in spans:
        n, m, lo, hi = span
        first, top, same = 1 if m == 0 else 2, len(_powers(M, m)), n == m and not ordered
        cols = max(1, min(top - first, _PREFILTER_CELLS))
        rows = max(1, _PREFILTER_CELLS // cols)
        for x0 in range(lo, hi + 1, rows):
            x1 = min(x0 + rows, hi + 1)
            yend = x1 - 1 if same else top  # same: y < x <= x1 - 1
            for y0 in range(first, yend, cols):
                yield span, x0, x1, y0, min(y0 + cols, yend), same


def _prefiltered_cells(M: int, spans: Iterable[Span], keep: Keep,
                       ordered: bool = False) -> Iterator[Tuple[Span, int, int]]:
    """The cells (span, x, y) of `_blocks` where `keep` holds for (x**n, y**m).

    The blocks of all the spans fill one stream of two int64 buffers of
    `_PREFILTER_CELLS` cells, the powers x**n and y**m of each cell, and
    `keep(P, Q)` maps the buffered cells to the bool array of those to keep,
    True wherever the caller's exact test may hold.  A block never splits:
    the buffers go to `keep` when the next one does not fit, so small units
    share one call.
    """
    P, Q = np.empty((2, _PREFILTER_CELLS), dtype=np.int64)
    # the buffered blocks, as (offset, span, x0, y0, cols, same)
    batch: List[Tuple[int, Span, int, int, int, bool]] = []

    def flush(end: int) -> Iterator[Tuple[Span, int, int]]:
        starts = [b[0] for b in batch]
        for h in np.flatnonzero(keep(P[:end], Q[:end])).tolist():
            start, span, x0, y0, cols, same = batch[bisect_right(starts, h) - 1]
            i, j = divmod(h - start, cols)
            if not same or y0 + j < x0 + i:  # a block can reach past y < x
                yield span, x0 + i, y0 + j
        batch.clear()

    end = 0
    for span, x0, x1, y0, y1, same in _blocks(M, spans, ordered):
        size = (x1 - x0) * (y1 - y0)
        if end + size > _PREFILTER_CELLS:
            yield from flush(end)
            end = 0
        cells = slice(end, end + size)  # x1 - x0 rows of y1 - y0 cells
        P[cells].reshape(x1 - x0, -1)[...] = _powers_i64(M, span[0])[x0:x1, None]
        Q[cells].reshape(x1 - x0, -1)[...] = _powers_i64(M, span[1])[y0:y1]
        batch.append((end, span, x0, y0, y1 - y0, same))
        end += size
    yield from flush(end)


_span = itemgetter("e1", "e2", "xlo", "xhi")  # a unit's Span


def _cube_cells(M: int, units: List[Unit], primitive: bool) -> Iterator[Tuple[int, int, int]]:
    """The cells (x, y, e2) of the cube units `units`, gcd(x, y) = 1 if `primitive`.

    Per y in a unit's [xlo, xhi], the cells (x, y) of unit (3, e2) where
    x**3 + y**e2 or |x**3 - y**e2| may be a cube: x in [2, max base] a side
    of a split of y**e2 (`arith.power_cube_splits`, which sieves y first),
    each x once.  Complete: if x**3 + y**e2 = w**3, w >= 1, then y**e2 =
    w**3 - x**3 is a difference of cubes with x its smaller side; if
    x**3 - y**e2 = w**3, a difference with x its larger side; and if
    y**e2 - x**3 = w**3, a sum x**3 + w**3.  A prime of x divides y exactly
    when it divides w, as y**e2 = +/-x**3 +/- w**3, so gcd(x, y) = 1 exactly
    when the split is primitive: then its a +/- b holds each prime p != 3 of
    y**e2 whole or not at all, and 3 to one less than y**e2 does.  A split
    of gcd g is g times a primitive split of y**e2 / g**3: if p**k and p**e
    exactly divide g and y**e2, its a +/- b holds p k or e - 2k times (3: k
    if e = 3k, e - 2k - 1 if e - 3k >= 2); `arith.cube_splits` tries only those.
    Unit (3, 3) has none: x**3 + y**3 = w**3 has no positive solution (Euler).
    """
    xhi = _max_base(M, 3)
    for e2, y in ((u["e2"], y) for u in units for y in range(u["xlo"], u["xhi"] + 1)):
        for x in {x for split in arith.power_cube_splits(y, e2, primitive) for x in split}:
            if 2 <= x <= xhi:
                yield x, y, e2


def _pairs(M: int, relation: str, units: Sequence[Unit], ordered: bool = False,
           keep: Optional[Keep] = None) -> Iterator[Tuple[int, int]]:
    """Yield (P, Q) for the power pairs P = x**n, Q = y**m <= M of each unit (n, m).

    A unit's rows of cells (x, y) come from one source: a cube unit's
    `_cube_cells`, of primitive splits alone under "coprime"; under
    "maxgcd", the multiples x = w*y of each y in [xlo, xhi], w >= 1, which
    for n == m are exactly the pairs whose smaller power divides the larger
    (the plan makes no cube unit there); else the `_blocks` cells, x in
    [xlo, xhi].  All but the multiples are tested for the relation:
    "coprime" (gcd(x, y) == 1) or "nonmaxgcd" (neither power divides the
    other).  Each pair comes once with P >= Q, unless `ordered`: then every
    (x**n, y**m) comes as it is.  Both bounds must lie in the base range of
    the table they index.

    With a block predicate `keep`, the `_blocks` cells of all the units form
    one stream, `_prefiltered_cells`, and only kept cells are visited; the
    cube cells, already a complete filter of those where P + Q or |P - Q|
    may be a cube, skip it.  Without one, the scalar walk is the path past
    the int64 bound.
    """
    spans = [_span(u) for u in units if u["kind"] != "cube"]
    cubes = [u for u in units if u["kind"] == "cube"]
    rows: Iterable[Tuple[int, int, int, Iterable[int]]]  # (n, m, x, its ys)
    if relation == "maxgcd":
        rows = ((n, m, x, (y,)) for n, m, lo, hi in spans for y in range(lo, hi + 1)
                for x in range(y, len(_powers(M, n)), y))
    elif keep is not None:
        rows = ((n, m, x, (y,))
                for (n, m, _, _), x, y in _prefiltered_cells(M, spans, keep, ordered))
    else:
        rows = ((n, m, x, range(y0, min(x, y1) if same else y1))
                for (n, m, _, _), x0, x1, y0, y1, same in _blocks(M, spans, ordered)
                for x in range(x0, x1))
    coprime, nonmax = relation == "coprime", relation == "nonmaxgcd"
    if cubes:  # a call without cube units pays no `_cube_cells` setup
        rows = chain(rows, ((3, m, x, (y,)) for x, y, m in _cube_cells(M, cubes, coprime)))
    for n, m, x, ys in rows:
        P, pm = _powers(M, n)[x], _powers(M, m)
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

    Returns -1 when not even s = 0 qualifies.  With f_bound = p/q the test
    (1+s)/d < p/q - 1/n - 1/m reads (1+s) q n m < d (p n m - q (n + m)).
    """
    p, q = f_bound.numerator, f_bound.denominator
    num, den = d * (p * n * m - q * (n + m)), q * n * m
    return max(-(-num // den) - 2 if strict else num // den - 1, -1)


# ---------------------------------------------------------------------------
# Records


def _record_sort_key(rec: Record) -> Tuple:
    """The key that names a record and orders the records of one search.

    Two records of one search share it only when they are one record: an fc
    record's values in slot order follow its largest-first values, and a
    product record's z is p + q or p - q by its sign.
    """
    if rec["mode"] == "survey":
        return (tuple(rec["cell"]),)
    if "values" in rec:
        return (*sorted(rec["values"], reverse=True), rec["sign"], tuple(rec["values"]))
    if rec["mode"] == "pillai":
        return rec["z"], rec["x"], tuple(rec["z_witness"]), tuple(rec["x_witness"])
    return _solution_sort_key(rec)


def _solution_sort_key(sol: Record) -> Tuple:
    return (max(sol["p"], sol["z"]), min(sol["p"], sol["z"]), sol["q"], sol["sign"],
            sol["d"])


def _survey_record(cell: Sequence[int], solutions: Iterable[Record]) -> Record:
    """The record of a survey cell: its solutions, each once, by `_solution_sort_key`."""
    sols = {_solution_sort_key(s): s for s in solutions}
    return {"mode": "survey", "cell": list(cell), "count": len(sols),
            "solutions": [sols[k] for k in sorted(sols)]}


def _merge_into(acc: Acc, rec: Optional[Record]) -> None:
    """Add a record to `acc`; a survey cell joins its copies' solutions in a new record.

    None, a builder's 'no record', adds nothing.
    """
    if rec is None:
        return
    key = _record_sort_key(rec)
    cur = acc.setdefault(key, rec)
    if cur is not rec and rec["mode"] == "survey":
        acc[key] = _survey_record(cur["cell"], cur["solutions"] + rec["solutions"])


# ---------------------------------------------------------------------------
# fermat-catalan mode


def _fc_e3(cfg: SearchConfig, e1: int) -> int:
    """The largest third exponent a unit of lighter exponent e1 needs (`_fc_pair_needed`)."""
    return min(e1, cfg.max_exp, cfg.min_exp_cap)


def _fc_pair_needed(cfg: SearchConfig, e1: int, e2: int, e3: int = 0) -> bool:
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
    1/e3 (0 for e2 = 0) is at most the weight of the assignment.  So the
    third term of a triple at its unit is a power of exponent e_c <= e3.

    Unit (3, e2) runs as a cube unit (`_fc_cube_unit`) when the coefficients are
    (1, 1, 1), e3 = 3 and no square third term is admissible (e3 = 2 fails),
    so a triple this proof gives it has e_c = 3: its third term is a cube.
    A walk of its cells would also meet triples with another unit in this
    proof: 33**8 + 1549034**2 = 15613**3, through the square, has (3, 8).
    """
    e3 = e3 or _fc_e3(cfg, e1)
    # the weight as one Fraction: the plan asks this for every unit
    num, den = (e2 * (e1 + e3) + e1 * e3, e1 * e2 * e3) if e2 else (e1 + e3, e1 * e3)
    return e3 >= cfg.min_exp and _weight_ok(cfg, Fraction(num, den))


def _fc_cube_unit(cfg: SearchConfig, e1: int, e2: int) -> bool:
    """Whether the planned pair unit (e1, e2) runs as a cube unit (`_fc_pair_needed`)."""
    return (cfg.coeffs == (1, 1, 1) and e2 >= 3 and e1 == _fc_e3(cfg, e1) == 3
            and not _fc_pair_needed(cfg, e1, e2, 2))


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
                  vz: int) -> Optional[Record]:
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
                 acc: Acc) -> None:
    """Solve A vx + B vy = C vz for the slot left over by the term values P, Q.

    Each layout of `_fc_layouts` whose third value passes `_usable_power`
    (1, or a power <= M: a square, a cube or in `power_set`) is tried; layouts
    giving one triple, as (P, Q) and (Q, P) do when A == B, merge by `_record_sort_key`.
    """
    M = cfg.max_value
    for a, b, c, slots in _fc_layouts(cfg.coeffs):
        num = a * P + b * Q
        if num > 0 and num % c == 0 and _usable_power(num // c, M, power_set):
            vals = (P, Q, num // c)
            _merge_into(acc, _fc_candidate(cfg, *(vals[i] for i in slots)))


@lru_cache(maxsize=16)
def _fc_keep(cfg: SearchConfig, full: bool) -> Optional[Keep]:
    """Keep exactly the cells where a third value of `_fc_layouts` passes
    `_usable_power`, with the prime-power set if `full`, else with none.

    Without the set it is sound for the units with e3 <= 4 (`_fc_e3`): a
    dropped cell's triple has an owner unit (`_fc_pair_needed`), whose cell
    of the two lightest terms leaves a third term of exponent e_c <= e3, a
    square or a cube if e3 <= 4 (a 4th power is a square): either keep holds
    it.  A form and its negative test one |a P + b Q| <= max(A + B, C) * M, so
    (1, 1, 1) tests P + Q and |P - Q| only, by `_usable_i64`.  None past the
    int64 bound.  Built once per config, shared by its units.
    """
    A, B, C = cfg.coeffs
    M = cfg.max_value
    if max(A + B, C) * M > _INT64_BOUND:
        return None
    member = (_sifted_member(np.array(sorted(_power_value_set(M)), dtype=np.int64))
              if full else None)
    forms = dict.fromkeys((a, b, c) if a > 0 else (-a, -b, c)
                          for a, b, c, _ in _fc_layouts(cfg.coeffs))

    def keep(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        hit = False
        for a, b, c in forms:
            t = np.abs(a * P + b * Q)
            if c > 1:  # the multiples of c as their quotients, the others as 0
                t = np.where(t % c == 0, t // c, 0)
            hit = hit | _usable_i64(t, M, member)
        return hit

    return keep


def _run_fc_units(cfg: SearchConfig, units: List[Unit], acc: Acc) -> None:
    """fc units: `_fc_try_pair` on every cell of the chunk.

    The fcpair, fcone (e2 == 0, the literal 1) and cube units walk two
    coprime `_pairs` streams, so `_fc_keep` runs once per block of cells,
    not once per unit: the units with e3 <= 4 (`_fc_e3`), the cube units
    among them, keep and solve without the prime-power set, the others and
    fcwild's (1, 1) with it.
    """
    M = cfg.max_value
    wild = ((1, 1) for u in units if u["kind"] == "fcwild")
    for full, cells in ((False, ()), (True, wild)):
        power_set = _power_value_set(M) if full else frozenset()
        walked = [u for u in units if u["kind"] != "fcwild"
                  and (_fc_e3(cfg, u["e1"]) > 4) == full]
        for P, Q in chain(_pairs(M, "coprime", walked, keep=_fc_keep(cfg, full)), cells):
            _fc_try_pair(cfg, P, Q, power_set, acc)


# ---------------------------------------------------------------------------
# product-target modes


class _ProductPlan(NamedTuple):
    """A config's planned product units and its cells' caps.

    A cell is (e1, e2), (e1, e2, d) in survey and () in pillai.
    """

    units: List[Unit]
    caps: Dict[Tuple[int, ...], List[Tuple[int, int]]]  # cell -> [(degree, cap)]
    by_degree: Dict[int, Dict[Tuple[int, int], int]]  # degree -> {(e1, e2): cap}
    tables: Dict[int, Tuple[int, int]]  # tabled degree -> (largest cap, build bound)
    roots: Dict[int, int]  # planned degree d -> iroot(M, d)


@lru_cache(maxsize=16)
def _product_plan(cfg: SearchConfig) -> _ProductPlan:
    """One pass over the product cells of a config (none for fc).

    A unit spans the bases from the relation's first to the max base, none
    when no degree is left, and costs the cells that range spans, halved on
    the e1 == e2 triangle of an unordered scan.  Under the coprime or
    non-maxgcd relation, in a mode whose least spread is 0, a unit with
    e1 = 3 whose one (degree, cap) is (3, 0) asks whether x**3 +/- y**e2 is
    a cube: it runs as a cube unit, over the bases y of its second power
    (none for (3, 3)), at a cost of one per y, and its cells are those of
    `_cube_cells`.  A degree d is tabled when its build bound (`_table_states`)
    is at most the cells the planned units test at d; past that, walking
    them costs less.

    pillai plans no unit here.  Its one cell, (), gives each degree d the
    largest spread c <= max_spread with (1 + c)/d + 1/hi under the bound,
    as the partner witness weighs at least 1/hi, or drops d.  Two witnesses
    of degrees d with 2/d over the bound weigh at least 2/max(dx, dz), over
    it too, so the other degrees, the heavy ones, are tabled.
    """
    row, M = _MODES[cfg.mode], cfg.max_value
    survey, first = cfg.mode == "survey", row.first_base
    plan = _ProductPlan([], {}, {}, {}, {})
    if cfg.mode == "pillai":
        (lo, hi), s = _pillai_degrees(cfg), cfg.max_spread
        # the partner's 1/hi is the 1/n + 1/m of two exponents 2 hi
        caps = [(d, min(_spread_cap(2 * hi, 2 * hi, d, cfg.f_bound, cfg.f_strict), s))
                for d in range(lo, hi + 1)]
        plan.caps[()] = [(d, cap) for d, cap in caps if cap >= 0]
        plan.tables.update((d, (cap, _table_states(M, d, cap))) for d, cap in plan.caps[()]
                           if _weight_ok(cfg, Fraction(2, d)))
        return plan
    cells: Iterable[Tuple[Tuple[int, ...], Iterable[int]]]  # (cell, its degrees)
    if survey:
        cells = (((n, m, d), [d] if d > 2 else []) for n, m, d in iterproduct(
            *(range(lo, hi + 1) for lo, hi in (cfg.n_range, cfg.m_range, cfg.degree))))
    elif cfg.mode in ("fp", "maxgcd-spread1"):  # both powers to the degree
        cells = (((n, n), [n]) for n in range(cfg.degree[0], cfg.degree[1] + 1))
    elif cfg.mode in ("gbtz", "nonmaxgcd3"):
        lo, hi = max(3, cfg.min_exp), min(cfg.max_exp, cfg.max_bits)
        cells = (((n, m), range(cfg.degree[0], min(n, cfg.degree[1]) + 1))
                 for n in range(lo, hi + 1) for m in range(n, hi + 1))
    else:
        cells = ()
    cost_at: Dict[int, int] = {}  # degree -> the cells the planned units test at it
    for cell, degrees in cells:
        n, m = cell[:2]
        caps = []
        for d in degrees:
            cap = row.spread_ceiling if row.spread_ceiling is not None else _spread_cap(
                n, m, d, cfg.f_bound, cfg.f_strict)
            if cfg.max_spread is not None:
                cap = min(cap, cfg.max_spread)
            if cap >= row.min_spread:
                caps.append((d, cap))
        yhi = _max_base(M, m)
        if (n == 3 and caps == [(3, 0)] and row.min_spread == 0
                and row.relation != "maxgcd"):  # tests no table at d = 3
            xhi = yhi if m != 3 else 0  # (3, 3) has no cube cell (`_cube_cells`)
            kind, cost, tested = "cube", max(0, xhi - first + 1), 0
        else:
            xhi = _max_base(M, n) if caps else 0
            cost = max(0, xhi - first + 1) * max(0, yhi - first + 1)
            if n == m and not survey:
                cost //= 2
            kind, tested = "product", cost
        if not (cost or survey):
            continue
        plan.units.append(dict(zip(("e1", "e2", "d"), cell), kind=kind,
                               xlo=first, xhi=xhi, cost=cost))
        plan.caps[cell] = caps
        for d, cap in caps:
            plan.by_degree.setdefault(d, {})[n, m] = cap
            cost_at[d] = cost_at.get(d, 0) + tested
    plan.roots.update((d, arith.iroot(M, d)[0]) for d in plan.by_degree)
    if row.relation != "maxgcd" and 2 * M <= _INT64_BOUND:
        for d, at_d in plan.by_degree.items():
            s = max(at_d.values())
            bound = _table_states(M, d, s)
            if bound <= cost_at[d]:
                plan.tables[d] = (s, bound)
    return plan


def _related(relation: str, P: int, Q: int) -> bool:
    g = math.gcd(P, Q)
    return {"coprime": g == 1, "nonmaxgcd": g != min(P, Q),
            "maxgcd": g == min(P, Q)}[relation]


def _product_record(cfg: SearchConfig, sign: str, P: int, Q: int, Z: int, d: int,
                    cell: Optional[Tuple[int, int]] = None) -> Optional[Record]:
    """The record the scan writes for P +/- Q = Z at degree d; None if it writes none.

    Its assignments are every (n, m) with P = x**n and Q = y**m, bases the
    scan walks (from the mode's `first_base` up), whose unit the plan
    scans at degree d and whose own spread cap admits a witness.  Its
    witnesses are those of all its assignments.  A survey solution (`cell`
    given) takes only its cell's (n, m), in that order.
    """
    row = _MODES[cfg.mode]
    if (sign not in _signs(cfg) or Z != (P + Q if sign == "plus" else P - Q)
            or Z < 1 or max(P, Q, Z) > cfg.max_value or min(P, Q) < row.first_base
            or not (cell or P >= Q) or not _related(row.relation, P, Q)):
        return None
    units = _product_plan(cfg).by_degree.get(d, {})
    if cell:
        units = {cell: units[cell]} if cell in units else {}
    top = max((max(nm) for nm in units), default=0)
    # the exponents e <= top with P = x**e, and with Q = y**e (1 = 1**e for all e)
    ep, eq = ({e for e in range(1, top + 1) if arith.iroot(v, e)[1]} for v in (P, Q))
    caps = {(n, m): cap for (e1, e2), cap in units.items()
            for n, m in ([(e1, e2)] if cell else [(e1, e2), (e2, e1)])
            if n in ep and m in eq}
    if not caps:
        return None
    # decompose is complete, so the witnesses under a smaller cap are those
    # of the largest cap with spread at most the smaller one
    wits = [w for w in decompose(Z, d, max(caps.values())) if w.spread >= row.min_spread]
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
    rec: Record = {
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


def _run_product_units(cfg: SearchConfig, units: List[Unit], acc: Acc) -> None:
    """Test x**n +/- y**m against bounded-spread products of each unit's degrees.

    A (Z, d) with a witness of at least the mode's least spread goes to
    `_product_record`; a survey unit adds its cell's `_survey_record`, an
    empty one too.  If all of a unit's degrees are tabled (`_product_plan`),
    only the cells whose P + Q or |P - Q| (the configured signs) is in one
    of their tables reach `decompose`.
    Otherwise every cell does, save that a unit with two or more degrees d
    whose witnesses' primes are at most B_d <= 2**11 skips those degrees
    for a Z with a prime above their largest B_d, found by one
    `arith.smooth` test.  Each unit walks its own `_pairs` stream, as its
    keep reads its own tables; a cube unit, whose cells skip the keep,
    reads none.
    """
    M, row, plan = cfg.max_value, _MODES[cfg.mode], _product_plan(cfg)
    signs, survey = _signs(cfg), cfg.mode == "survey"
    for unit in units:
        n, m = unit["e1"], unit["e2"]
        cell = (n, m, unit["d"]) if survey else (n, m)
        caps = plan.caps[cell]
        tables = ([_product_table(M, d, plan.tables[d][0]) for d, _ in caps]
                  if unit["kind"] != "cube" and all(d in plan.tables for d, _ in caps)
                  else [])

        # A degree-d witness of spread <= cap has least factor b <= iroot(Z, d)
        # <= iroot(M, d), so every factor, and so every prime of Z, is at most
        # B_d = iroot(M, d) + cap.  A Z with a prime above the largest sieved
        # B_d has no witness at the sieved degrees.  Up to 2**11 the smooth
        # test, a gcd with the ~2.9 kbit product of the primes to B, costs
        # about one `decompose` call; larger bounds measured slower.
        sieved = [] if tables else [(d, cap) for d, cap in caps
                                    if plan.roots[d] + cap <= 1 << 11]
        bound = max(plan.roots[d] + cap for d, cap in sieved) if len(sieved) > 1 else 0
        rough = [dc for dc in caps if dc not in sieved]

        def keep(P: np.ndarray, Q: np.ndarray) -> np.ndarray:  # the configured signs
            ts = [P + Q if sign == "plus" else np.abs(P - Q) for sign in signs]
            return reduce(np.logical_or, (member(t) for t in ts for member in tables))

        sols: List[Record] = []  # a survey cell's
        cells = _pairs(M, row.relation, [unit], ordered=survey,
                       keep=keep if tables else None) if caps else ()
        for P, Q in cells:
            for sign in signs:
                Z = P + Q if sign == "plus" else P - Q
                if not 1 <= Z <= M:
                    continue
                for d, cap in rough if bound and not arith.smooth(Z, bound) else caps:
                    wits = decompose(Z, d, cap)  # almost always empty: skip any() then
                    if not (wits and any(w.spread >= row.min_spread for w in wits)):
                        continue
                    if survey:
                        sols.append(_product_record(cfg, sign, P, Q, Z, d, (n, m)))
                    else:
                        _merge_into(acc, _product_record(cfg, sign, P, Q, Z, d))
        if survey:
            _merge_into(acc, _survey_record(cell, sols))


def _pillai_record(cfg: SearchConfig, xdec: ProductDecomposition,
                   zdec: ProductDecomposition) -> Optional[Record]:
    """The record the scan writes for witnesses of X and Z; None if it writes none."""
    (lo, hi), s_cap = _pillai_degrees(cfg), cfg.max_spread
    w = xdec.weight + zdec.weight
    if (zdec.value - xdec.value != cfg.difference or zdec.value > cfg.max_value
            or not _weight_ok(cfg, w)):
        return None
    for dec in (xdec, zdec):
        if not (lo <= dec.degree <= hi and dec.spread <= s_cap) or (
                cfg.m_bound is not None and dec.spread_sq_over_base() > cfg.m_bound):
            return None
    return {"mode": "pillai", "sign": "plus", "difference": cfg.difference,
            "x": xdec.value, "z": zdec.value, "x_witness": list(xdec.factors),
            "z_witness": list(zdec.factors), "weight": str(w)}


def _pillai_degrees(cfg: SearchConfig) -> Tuple[int, int]:
    return cfg.degree or (2, cfg.max_bits)


def _run_pillai_units(cfg: SearchConfig, units: List[Unit], acc: Acc) -> None:
    """pillai units: Z in [xlo, xhi], joined with X = Z - B through the tables.

    Every record has a heavy witness (`_product_plan`), so X or Z is a
    tabled value v in [max(1, xlo - B), xhi].  A side's witnesses are
    `decompose`'s at the light degrees and at the tables holding it, at each
    degree's cap; v's are sought only if the other side has one.  Each pair
    goes to `_pillai_record`; a pair with both sides tabled joins from X.
    """
    B, M, plan = cfg.difference, cfg.max_value, _product_plan(cfg)
    light = [dc for dc in plan.caps[()] if dc[0] not in plan.tables]
    tables = [((d, c), _product_values(M, d, c)) for d, (c, _) in plan.tables.items()]
    for unit in units:
        zlo, zhi = unit["xlo"], unit["xhi"]
        held: Dict[int, Tuple[Tuple[int, int], ...]] = {}  # value -> its tables' (d, cap)
        for dc, values in tables:
            i, j = np.searchsorted(values, [max(1, zlo - B), zhi + 1])
            for v in values[i:j].tolist():
                held[v] = held.get(v, ()) + (dc,)

        def witnesses(v: int) -> List[ProductDecomposition]:
            return [w for d, c in chain(light, held.get(v, ())) for w in decompose(v, d, c)]

        for v in held:
            for other, X, Z in ((v - B, v - B, v), (v + B, v, v + B)):
                if (zlo <= Z <= zhi and X >= 1 and (X == v or X not in held)
                        and (light or other in held)):
                    ows = witnesses(other)
                    vws = witnesses(v) if ows else []
                    xws, zws = (vws, ows) if X == v else (ows, vws)
                    for xdec, zdec in iterproduct(xws, zws):
                        _merge_into(acc, _pillai_record(cfg, xdec, zdec))


# Bytes per value of the fc prime-power set, over-estimated: a build of
# `_power_value_set` peaks near 103 per value at 2**100 and 2**110 on CPython
# 3.11 (the int, its `_powers` slot and the set's table as it grows).
_POWER_SET_BYTES = 128

# Bytes per `_powers` entry, over-estimated: its tuple slot, the int (<= 48
# as allocated up to 2**128, CPython 3.11) and its `_powers_i64` copy.
_POWER_ENTRY_BYTES = 64

# Bytes per product table state (`_table_states`), over-estimated: a build
# peaks near 89 per state, even at spread 0, and a table keeps <= 40 per
# value (8, and 16-32 sifted slots).  pillai adds a chunk's dict of its
# tabled values, and Python ints past 2**62: whole runs peaked at 118-172
# per state on int64 (2**20-2**40) and 161-218 past 2**62 (2**66, 2**70).
_TABLE_STATE_BYTES, _JOIN_STATE_BYTES = 96, 256


def _check_memory(cfg: SearchConfig, plan: List[List[Unit]],
                  threads: int) -> None:
    """Refuse a plan whose fc power set, product tables or power tables would not fit.

    A worker keeps the tables it builds: fc's `_power_value_set`, bounded by
    the count of x**p over the primes p >= 5 (2**35 and the like count
    twice); the product tables of `_product_plan`, by their `_table_states`,
    counted exactly up to the share for a table whose loose bound passes
    it; and the `_powers` table, iroot(M, e) + 1 entries, of each exponent
    of a planned unit.  Up to `threads` chunks run at once, so each worker
    gets that share.
    """
    share, M = MEMORY_BUDGET // max(1, min(threads, len(plan))), cfg.max_value
    if cfg.mode == "fermat-catalan":
        what, est = "fc prime-power set needs", _POWER_SET_BYTES * sum(
            arith.iroot(M, p)[0] - 1 for p in range(5, M.bit_length()) if arith.is_prime(p))
        need = f"about {est}"
    else:
        per = _JOIN_STATE_BYTES if cfg.mode == "pillai" else _TABLE_STATE_BYTES
        limit = share // per  # a count past it is over the share: limit + 1 says so
        counts = [bound if per * bound <= share else _table_states(M, d, cap, limit)
                  for d, (cap, bound) in _product_plan(cfg).tables.items()]
        what, est = "product value tables need", per * sum(counts)
        need = f"more than {per * limit}" if max(counts, default=0) > limit else f"about {est}"
    exps = {e for g in plan for u in g if u["e1"]  # fcwild and pillai index none
            and u["xlo"] <= u["xhi"] for e in (u["e1"], u["e2"])}
    powers = _POWER_ENTRY_BYTES * sum(arith.iroot(M, e)[0] + 1 if e else 2 for e in exps)
    if est + powers > share:
        raise MemoryError(f"the {what} {need} bytes per worker and the power tables "
                          f"about {powers} more, over its share {share} of {MEMORY_BUDGET} "
                          "bytes; fewer --threads or a smaller --max-bits need less")


# ---------------------------------------------------------------------------
# Planning and chunked execution


def _mode_units(cfg: SearchConfig) -> List[Unit]:
    """The deterministic unit list covering the whole search space."""
    M = cfg.max_value
    units: List[Unit] = []
    if cfg.mode == "fermat-catalan":
        units.append({"kind": "fcwild", "e1": 0, "e2": 0, "xlo": 0, "xhi": 0,
                      "cost": 1})
        top = min(cfg.max_exp, cfg.max_bits)  # 2**e <= M for every e <= max_bits
        for e1 in range(cfg.min_exp, top + 1):
            xhi = _max_base(M, e1)
            for e2 in chain((0,), range(e1, top + 1)):  # e2 = 0: fcone
                if _fc_pair_needed(cfg, e1, e2) and not (  # no cube cell (`_cube_cells`)
                        e2 == 3 and _fc_cube_unit(cfg, e1, e2)):
                    n2 = _max_base(M, e2) - 1 if e2 else 1
                    units.append({"kind": "fcpair" if e2 else "fcone",
                                  "e1": e1, "e2": e2, "xlo": 2, "xhi": xhi,
                                  "cost": (xhi - 1) * n2})
                    if _fc_cube_unit(cfg, e1, e2):  # a range of y, cost 1 each
                        units[-1].update(kind="cube", xhi=n2 + 1, cost=n2)
    elif cfg.mode == "pillai":
        # one value range of Z; plan_chunks splits it like a base range
        units.append({"kind": "pillai", "e1": 0, "e2": 0, "xlo": 1, "xhi": M,
                      "cost": M})
    else:  # one unit per planned product cell; the plan is shared, so copy
        units = [dict(u) for u in _product_plan(cfg).units]
    return units


def _unit_order_key(u: Unit) -> Tuple:
    return (u["kind"], u["e1"], u.get("e2", 0), u.get("d", 0), u["xlo"])


# A plan holds about 1 KB per piece: its dict, heap entry and group slot.
_PIECE_BYTES = 1 << 10


def plan_chunks(cfg: SearchConfig, n_chunks: int) -> List[List[Unit]]:
    """Deterministic chunk plan: a list of unit lists covering the search.

    The costliest piece is split on its base sub-range, or set aside if it
    does not split, until n_chunks pieces exist or none splits; then the
    pieces are packed into n_chunks balanced groups.  A piece spans at
    least one base, so a plan whose pieces could pass a 4 GB budget is
    refused before any split.
    """
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    units = _mode_units(cfg)
    pieces = min(n_chunks, sum(max(1, u["xhi"] - u["xlo"] + 1) for u in units))
    if pieces * _PIECE_BYTES > MEMORY_BUDGET:
        raise MemoryError(f"a plan of {n_chunks} chunks splits into up to {pieces} "
                          f"pieces, about {pieces * _PIECE_BYTES} bytes, over the "
                          f"{MEMORY_BUDGET}-byte budget; fewer --chunks make a "
                          "smaller plan")

    def entry(u: Unit) -> Tuple[Tuple, Unit]:
        # Unique per piece (split halves differ in xlo), so dicts never compare.
        return (-u["cost"],) + _unit_order_key(u), u

    heap = [entry(u) for u in units]
    heapq.heapify(heap)
    whole: List[Unit] = []  # pieces that do not split
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
    groups: List[List[Unit]] = [
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


def run_chunk(cfg_dict: Dict[str, Any], units: List[Unit]) -> List[Record]:
    """Run one chunk; a pure function of (config, units), process-safe."""
    cfg = SearchConfig.from_dict(cfg_dict)
    acc: Acc = {}
    run = {"fermat-catalan": _run_fc_units, "pillai": _run_pillai_units}.get(
        cfg.mode, _run_product_units)
    run(cfg, units, acc)
    return [acc[k] for k in sorted(acc)]


def _run_chunk_task(args: Tuple[int, Dict[str, Any], List[Unit]]):
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
    if isinstance(state["n_chunks"], bool) or state["n_chunks"] < 1:  # True is an int
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
    records: List[Record]
    chunks_total: int
    chunks_run: int
    completed: bool
    config: SearchConfig
    candidates: int = 0  # per-chunk records before the dedup merge


def merge_records(chunk_results: Sequence[Sequence[Record]]) -> List[Record]:
    acc: Acc = {}
    for records in chunk_results:
        for rec in records:
            _merge_into(acc, rec)
    return [acc[k] for k in sorted(acc)]


def run_chunked(cfg: SearchConfig, n_chunks: int = 1,
                checkpoint_path: Optional[str] = None, resume: bool = False,
                threads: int = 1, max_chunks: Optional[int] = None) -> RunResult:
    """Run a search over a deterministic chunk plan with checkpointing.

    `max_chunks` bounds how many pending chunks run in this call (used to
    exercise interruption); the merged record list after completion is
    independent of n_chunks, threads and interruptions in between.
    """
    digest = cfg.digest()
    state: Dict[str, Any] = {"format": CHECKPOINT_FORMAT, "version": FORMAT_VERSION,
                             "config_digest": digest, "config": cfg.semantic_dict(),
                             "n_chunks": n_chunks, "done": {}, "done_sha256": {}}
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
    # the tables of earlier runs in this process, which _check_memory does not count
    for table in (_powers, _powers_i64, _power_value_set, _product_values,
                  _product_table, _fc_keep):
        table.cache_clear()
    plan_digest = _sha256(plan)
    if resume:
        if state["plan_digest"] != plan_digest:
            raise CheckpointMismatch(
                "checkpoint plan digest mismatch: "
                f"{state['plan_digest']} != {plan_digest}"
            )
        _check_done(state, len(plan), cfg)
    state["plan_digest"] = plan_digest
    done: Dict[str, List[Record]] = state["done"]
    pending = [i for i in range(len(plan)) if str(i) not in done]
    to_run = pending if max_chunks is None else pending[:max_chunks]
    cfg_dict = cfg.semantic_dict()

    def note(idx: int, records: List[Record]) -> None:
        done[str(idx)] = records
        if checkpoint_path:
            state["done_sha256"][str(idx)] = _sha256(records)
            save_checkpoint(checkpoint_path, state)

    if threads > 1 and len(to_run) > 1:
        # the fork start method forks every worker at the first submit
        with ProcessPoolExecutor(max_workers=min(threads, len(to_run))) as pool:
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
    return RunResult(records=records, chunks_total=len(plan), chunks_run=len(to_run),
                     completed=completed, config=cfg,
                     candidates=sum(len(v) for v in done.values()))


# ---------------------------------------------------------------------------
# Record verification (shared by tests and the log verifier)


def verify_record(rec: Record, cfg: SearchConfig) -> List[str]:
    """Rebuild a record from its identity and compare; returns a list of problems.

    The identity is the values of an fc record, the witnesses of a pillai
    record, (sign, p, q, z, d) of a product record or a survey solution and
    the cell and solutions of a survey record.  Integers pass through int(),
    so a stored 1.0 or true differs from the rebuilt 1; a missing field raises.
    """
    mode = rec.get("mode")
    if mode != cfg.mode:
        return [f"record mode {mode!r} does not match the config mode {cfg.mode!r}"]
    if mode == "survey":
        n, m, d = (int(v) for v in rec["cell"])
        if (n, m, d) not in _product_plan(cfg).caps:
            return ["cell outside the survey ranges"]
        problems = _compare(rec, _survey_record((n, m, d), rec["solutions"]))
        for sol in rec["solutions"]:
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


def _verify_product(rec: Record, cfg: SearchConfig, d: int,
                    cell: Optional[Tuple[int, int]] = None) -> List[str]:
    P, Q, Z = (int(rec[k]) for k in ("p", "q", "z"))
    relation = _MODES[cfg.mode].relation
    if not _related(relation, P, Q):
        return [f"{cfg.mode} requires {relation} pairs"]
    if cell is None:
        scanned = _product_plan(cfg).by_degree.get(d, {})
        unscanned = [f"assignment ({n},{m}) at degree {d} is not scanned"
                     for n, m in rec["assignments"]
                     if (min(n, m), max(n, m)) not in scanned]
        if unscanned:
            return unscanned
    return _compare(rec, _product_record(cfg, rec["sign"], P, Q, Z, d, cell))


def _compare(rec: Record, built: Optional[Record],
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
                       records: List[Record]) -> Tuple[bool, str]:
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
        return ok, (f"found {len(found)} solutions, catalog predicts {len(want)}"
                    + ("" if ok else " (MISMATCH)"))
    if cfg.mode in ("gbtz", "fp"):
        return not records, f"{len(records)} counterexample records (expected 0)"
    if cfg.mode == "maxgcd-spread1":
        bad = [r for r in records if not r.get("standard")]
        return not bad, (f"{len(records)} records, {len(bad)} non-standard "
                         "(expected all standard)")
    return True, f"{len(records)} records"
