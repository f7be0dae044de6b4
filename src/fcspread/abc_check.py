"""Exact checks of abc-style radical inequalities.

The headline inequality, c < max(rad(ab), rad(ac), rad(bc)) * rad(abc)^(7/8),
is decided without any floating point: both sides are raised to the 8th
power and compared as integers, so strictness survives exactly.  The classic
c < C * rad(abc)^(1+eps) form takes arbitrary positive rational parameters;
small-denominator parameters get the same exact integer treatment, anything
else is decided by escalating-precision evaluation that reports "borderline"
instead of guessing when the margin stays inside its own error bound.

The three sieve scans read one set of tables, rad(n), ln n and ln rad(n)
from a numpy radical sieve, refused over a memory budget before any is
built.  The explicit scan and the quality count walk the coprime splits a +
b = c <= limit through sound log-space prefilters (derived from the target
inequality, with a slack that can only over-include) that bound the smaller
radical of a and b, so each c visits only its few small-radical partners.
The excess pairs, of any gcd, take ln rad(abc) from the tables in one numpy
pass per c.  Every survivor is decided in exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import (Any, Callable, Dict, IO, Iterable, Iterator, List, Optional,
                    Tuple, Union)

import mpmath
import numpy as np

from . import arith, search
from .products import sorted_unique

RationalLike = Union[str, int, float, Fraction]

# Exact comparison is viable while rad**p stays a reasonable bigint; beyond
# this the escalating-precision path decides (or reports borderline).
_EXACT_DENOM_LIMIT = 64

_PRECISIONS = (120, 400, 1600)


@dataclass(frozen=True)
class AbcTriple:
    """A coprime split a + b = c with a <= b."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if not 1 <= self.a <= self.b:
            raise ValueError("need 1 <= a <= b")
        if self.a + self.b != self.c:
            raise ValueError(f"{self.a} + {self.b} != {self.c}")
        if math.gcd(self.a, self.b) != 1:
            raise ValueError(f"gcd({self.a}, {self.b}) != 1")

    @cached_property  # factoring is the cost of every check on the triple
    def radicals(self) -> Tuple[int, int, int]:
        """(rad(a), rad(b), rad(c)), pairwise coprime since gcd(a, b) = 1."""
        return arith.radical(self.a), arith.radical(self.b), arith.radical(self.c)

    @classmethod
    def of(cls, a: int, b: int, c: Optional[int] = None) -> "AbcTriple":
        if a > b:
            a, b = b, a
        return cls(a, b, a + b if c is None else c)


@dataclass
class ParseResult:
    triples: List[AbcTriple]
    errors: List[str]


def parse_triples(source: Union[str, IO[str], Iterable[str]]) -> ParseResult:
    """Read "a b" or "a b c" lines; '#' comments and blank lines allowed.

    Bad lines are reported with their line number and skipped; parsing
    continues so one typo does not void a large dataset.
    """
    lines: Iterable[str] = source.splitlines() if isinstance(source, str) else source
    triples: List[AbcTriple] = []
    errors: List[str] = []
    for lineno, raw in enumerate(lines, 1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) not in (2, 3) or not all(p.isdigit() for p in parts):
            errors.append(f"line {lineno}: malformed line {text!r}")
            continue
        nums = [int(p) for p in parts]
        a, b = sorted(nums[:2])
        c = nums[2] if len(nums) == 3 else a + b
        if a < 1:
            errors.append(f"line {lineno}: entries must be positive")
            continue
        if a + b != c:
            errors.append(f"line {lineno}: {a} + {b} != {c}")
            continue
        if math.gcd(a, b) != 1:
            errors.append(f"line {lineno}: gcd({a}, {b}) != 1")
            continue
        triples.append(AbcTriple(a, b, c))
    return ParseResult(triples, errors)


@dataclass
class AbcReport:
    """Radical data and check outcomes for one triple."""

    triple: AbcTriple
    rad_ab: int
    rad_ac: int
    rad_bc: int
    rad_abc: int
    explicit_pass: bool
    quality: Any  # mpmath.mpf
    classic: List[Dict[str, str]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        t = self.triple
        return {
            "a": t.a,
            "b": t.b,
            "c": t.c,
            "rad_ab": self.rad_ab,
            "rad_ac": self.rad_ac,
            "rad_bc": self.rad_bc,
            "rad_abc": self.rad_abc,
            "explicit_pass": self.explicit_pass,
            "quality": mpmath.nstr(self.quality, 20),
            "classic": self.classic,
        }


def check_explicit(t: AbcTriple) -> AbcReport:
    """Exact check of c < max(rad(ab), rad(ac), rad(bc)) * rad(abc)^(7/8)."""
    ra, rb, rc = t.radicals
    return AbcReport(t, ra * rb, ra * rc, rb * rc, ra * rb * rc,
                     _explicit_pass(t.c, ra, rb, rc), quality(t))


def _explicit_pass(c: int, ra: int, rb: int, rc: int) -> bool:
    """The explicit inequality in integers, both sides to the 8th power."""
    return c**8 < max(ra * rb, ra * rc, rb * rc) ** 8 * (ra * rb * rc) ** 7


def quality(t: AbcTriple) -> Any:
    """ln(c) / ln(rad(abc)) at 96 bits of working precision."""
    ra, rb, rc = t.radicals
    rad_abc = ra * rb * rc
    assert rad_abc >= 2, "rad 1 is impossible for a coprime triple with c >= 2"
    with mpmath.workprec(96):
        return mpmath.log(t.c) / mpmath.log(rad_abc)


def _compare_power(lhs: int, base: int, exponent: Fraction,
                   scale: Fraction) -> str:
    """Trichotomy for lhs vs scale * base**exponent: "lt", "gt" or "eq"/"borderline".

    Small-denominator exponents are decided exactly in integers; others by
    escalating precision, returning "borderline" when the margin never
    clears the error bound (which includes exact-equality cases).
    """
    p, q = exponent.numerator, exponent.denominator
    sn, sd = scale.numerator, scale.denominator
    if q <= _EXACT_DENOM_LIMIT:
        left = lhs**q * sd**q
        right = sn**q * base**p
        if left < right:
            return "lt"
        return "gt" if left > right else "eq"
    for prec in _PRECISIONS:
        with mpmath.workprec(prec):
            diff = (
                mpmath.log(lhs)
                - mpmath.log(sn)
                + mpmath.log(sd)
                - mpmath.mpf(p) / q * mpmath.log(base)
            )
            if abs(diff) > mpmath.mpf(2) ** (16 - prec):
                return "lt" if diff < 0 else "gt"
    return "borderline"


def check_classic(t: AbcTriple, eps: RationalLike, C: RationalLike = 1) -> str:
    """Verdict on c < C * rad(abc)^(1+eps): "pass", "fail" or "borderline".

    Decimal strings and Fractions are treated as exact rationals; floats are
    taken at their exact binary value (and usually go down the
    escalating-precision path).
    """
    epsF, CF = Fraction(eps), Fraction(C)
    if epsF <= 0 or CF <= 0:
        raise ValueError("eps and C must be positive")
    ra, rb, rc = t.radicals
    cmp = _compare_power(t.c, ra * rb * rc, 1 + epsF, CF)
    if cmp == "lt":
        return "pass"
    if cmp == "gt" or cmp == "eq":
        return "fail"  # the inequality is strict
    return "borderline"


def report(t: AbcTriple,
           classic_params: Iterable[Tuple[RationalLike, RationalLike]] = ()
           ) -> AbcReport:
    """Full report: explicit check, quality, classic checks per (eps, C)."""
    rep = check_explicit(t)
    for eps, C in classic_params:
        rep.classic.append(
            {"eps": str(Fraction(eps)), "C": str(Fraction(C)),
             "verdict": check_classic(t, eps, C)}
        )
    return rep


# ---------------------------------------------------------------------------
# Sieved brute-force scanning


def radical_sieve(limit: int, memory_budget: Optional[int] = None) -> np.ndarray:
    """rad(n) for n in 0..limit as int64 (rad(0) = 0, rad(1) = 1).

    The budget defaults to `search.MEMORY_BUDGET` as it stands at the call.

    Only the primes p <= isqrt(limit) are sieved: each multiplies rad over
    its multiples and `smooth` by its full power.  What is left of n after
    dividing out smooth(n) is 1 or the single prime factor of n above
    isqrt(limit), which completes rad(n).
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    est = (limit + 1) * 24  # rad, smooth and the quotient n // smooth(n)
    memory_budget = search.MEMORY_BUDGET if memory_budget is None else memory_budget
    if est > memory_budget:
        raise MemoryError(
            f"radical sieve to {limit} needs about {est} bytes, "
            f"over the budget of {memory_budget} bytes"
        )
    root = math.isqrt(limit)
    is_prime = np.ones(root + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    rad = np.ones(limit + 1, dtype=np.int64)
    rad[0] = 0
    smooth = np.ones(limit + 1, dtype=np.int64)
    for p in np.flatnonzero(is_prime).tolist():
        rad[p::p] *= p
        q = p
        while q <= limit:
            smooth[q::q] *= p
            q *= p
    np.floor_divide(np.arange(limit + 1, dtype=np.int64), smooth, out=smooth)
    rad *= smooth
    return rad


def _log_tables(rad: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """ln n and ln rad(n) for n < len(rad), 0 at n = 0, logged in place."""
    lg = np.arange(len(rad), dtype=np.float64)
    lgr = rad.astype(np.float64)
    for table in (lg, lgr):
        table[0] = 1.0
        np.log(table, out=table)
    return lg, lgr


# Float prefilters may only over-include; this slack dwarfs the rounding
# error of summing a handful of float64 logs.
_LOG_SLACK = 1e-9


def _partner_splits(
    lg: np.ndarray, lgr: np.ndarray, cs: np.ndarray, explicit: bool
) -> Iterator[Tuple[int, List[int]]]:
    """(c, ascending a <= c/2 whose split passes the log filter) for c in cs.

    lg and lgr are the log tables of n and rad(n).  The filter is the pair
    test of brute_force_scan when `explicit`, else that of
    count_high_quality.  A passing split's smaller lgr is at most the reach
    of c, so its smaller-radical term is a partner s < c with lgr[s] <=
    reach: the partners are drawn once, sorted by lgr, and each c visits
    the prefix up to its reach instead of every split.  The pair test sees
    exactly the floats the full walk gave it (float addition commutes), so
    the kept splits are the full walk's.

    Reach of the explicit test 15 (x + y) <= bound(c): min(x, y) <= bound(c)
    / 30.  Reach of the quality test x + y + lgr[c] < lg[c] + slack:
    min(x, y) < (lg[c] + slack - lgr[c]) / 2.  Both hold up to float
    rounding of order 1e-14, and each reach adds its own _LOG_SLACK on top
    of the slack inside the test, so it can only over-include.
    """
    if explicit:
        reach = (8.0 * lg[cs] - 7.0 * lgr[cs] + _LOG_SLACK) / 30.0 + _LOG_SLACK

        def keep(c: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
            return 15.0 * (x + y) <= 8.0 * lg[c] - 7.0 * lgr[c] + _LOG_SLACK
    else:
        reach = (lg[cs] + _LOG_SLACK - lgr[cs]) / 2.0 + _LOG_SLACK

        def keep(c: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
            return x + y + lgr[c] < lg[c] + _LOG_SLACK

    partners = np.flatnonzero(lgr[1:] <= reach.max(initial=0.0)) + 1
    partners = partners[np.argsort(lgr[partners], kind="stable")]
    partner_lgr = lgr[partners]
    for c, top in zip(cs.tolist(), reach.tolist()):
        s = partners[: np.searchsorted(partner_lgr, top, side="right")]
        s = s[s < c]
        s = s[keep(c, lgr[s], lgr[c - s])]
        yield c, sorted_unique(np.minimum(s, c - s)).tolist()


def _scan_tables(limit: int, memory_budget: Optional[int]) -> Tuple[np.ndarray, ...]:
    """rad(n), ln n and ln rad(n) for n <= limit; the budget is checked first."""
    est = (limit + 1) * 24  # the sieve plus two log tables
    memory_budget = search.MEMORY_BUDGET if memory_budget is None else memory_budget
    if est > memory_budget:
        raise MemoryError(f"scan tables to {limit} need about {est} bytes, "
                          f"over the budget of {memory_budget} bytes")
    rad = radical_sieve(limit, memory_budget)
    return (rad,) + _log_tables(rad)


def _coprime_splits(limit: int, memory_budget: Optional[int], explicit: bool
                    ) -> Iterator[Tuple[int, int, int, int, int, int]]:
    """(a, b, c, r(a), r(b), r(c)) for the coprime splits a + b = c <= limit
    that pass the log filter of _partner_splits, by c then a.

    Only the c with 2^j r(c)^k <= c^w are walked: (j, k, w) = (7, 15, 8)
    for the explicit test, (1, 1, 1) for the quality test.  The scan and
    the count each argue that every c they keep passes that mask.
    """
    if limit < 3:
        raise ValueError("limit must be >= 3")
    rad, lg, lgr = _scan_tables(limit, memory_budget)
    k, lead, w, slack = ((15.0, 7.0 * math.log(2.0), 8.0, _LOG_SLACK) if explicit
                         else (1.0, math.log(2.0), 1.0, 2 * _LOG_SLACK))
    block = 1 << 16  # keeps the c-mask temporaries small next to the tables
    cs = np.concatenate([
        np.flatnonzero(
            k * lgr[lo : lo + block] + lead <= w * lg[lo : lo + block] + slack
        ) + lo
        for lo in range(3, limit + 1, block)
    ])
    for c, splits in _partner_splits(lg, lgr, cs, explicit):
        for a in splits:
            b = c - a
            if math.gcd(a, b) == 1:
                yield a, b, c, int(rad[a]), int(rad[b]), int(rad[c])


def brute_force_scan(limit: int, memory_budget: Optional[int] = None) -> List[AbcTriple]:
    """All violations of the explicit inequality among a + b = c <= limit.

    A violation needs c^8 >= max_rad^8 * rad(abc)^7.  With r* = rad(*) and
    pairwise coprimality this forces both

        128 * r(c)^15 <= c^8          (since max_rad >= r(a) r(c) >= r(c)
                                       and rad(abc) >= 2 r(c) for c >= 3)
        (r(a) r(b))^15 * r(c)^7 <= c^8   (since max_rad >= r(a) r(b))

    so a log-space pass over c, then over the splits of c, leaves a tiny
    candidate set that is confirmed with exact integer arithmetic.  The
    second bound says r(a) r(b) <= B(c) = (c^8 / r(c)^7)^(1/15), hence
    min(r(a), r(b)) <= B(c)^(1/2): each c visits only its partners of
    small radical (r <= 26 at limit 10^6), not all c/2 splits.  In floats
    the split test is 15 (ln r(a) + ln r(b)) <= 8 ln c - 7 ln r(c) + slack,
    and the partner reach is that bound / 30 plus a slack of its own, so it
    can only over-include (argued in _partner_splits).
    """
    return [AbcTriple(a, b, c)
            for a, b, c, ra, rb, rc in _coprime_splits(limit, memory_budget, True)
            if not _explicit_pass(c, ra, rb, rc)]


def count_high_quality(limit: int, memory_budget: Optional[int] = None) -> int:
    """Number of coprime triples with quality > 1 (c > rad(abc)), c <= limit.

    r(a) r(b) r(c) < c gives min(r(a), r(b)) < (c / r(c))^(1/2), so the
    splits come from _partner_splits.  For c >= 3, r(b) >= 2 since b >= 2,
    so only c with 2 r(c) < c can count; that c-mask carries twice the
    slack of the pair test, so float rounding can only over-include.
    """
    return sum(1 for a, b, c, ra, rb, rc
               in _coprime_splits(limit, memory_budget, False) if ra * rb * rc < c)


# ---------------------------------------------------------------------------
# Radical-excess pairs without the coprimality assumption


def excess_pairs(limit: int, q_bound: RationalLike,
                 eps: RationalLike) -> List[Dict[str, Any]]:
    """Pairs a <= b (any gcd) with a+b <= limit, a+b > rad(ab(a+b))^(1+eps)
    and gcd(a,b)/rad(gcd(a,b)) <= q_bound.

    The radical of the product uses the union of prime supports, so shared
    primes are not double-counted (_rad_abc).  One numpy pass per c takes
    ln rad(abc) = lgr[a] + lgr[b] + lgr[c] - 2 lgr[g] over all its splits
    and drops those whose margin ln c - (1+eps) ln rad(abc) is below -slack.
    A qualifying pair has a margin above 0, so 1 + eps < ln c / ln 2, and
    its float margin errs by under 1e-12 for c < 10^9, far below the slack.
    _excess_record decides each survivor exactly.  Sorted by (c, a).
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    q_boundF, epsF = Fraction(q_bound), Fraction(eps)
    if epsF <= 0 or q_boundF <= 0:
        raise ValueError("eps and the gcd quality bound must be positive")
    rad, lg, lgr = _scan_tables(limit, None)
    radical = rad.tolist().__getitem__
    config = {"limit": limit, "q_bound": q_boundF, "eps": epsF}
    one_eps = 1.0 + float(epsF)
    out: List[Dict[str, Any]] = []
    for c in range(2, limit + 1):
        a = np.arange(1, c // 2 + 1)
        margin = lg[c] - one_eps * (lgr[a] + lgr[c - a] + lgr[c]
                                    - 2.0 * lgr[np.gcd(a, c)])
        for x in (np.flatnonzero(margin >= -_LOG_SLACK) + 1).tolist():
            rec = _excess_record(x, c - x, config, radical)
            if rec is not None:
                out.append(rec)
    return out


def _rad_abc(a: int, b: int, radical: Callable[[int], int]) -> int:
    """rad(a b c), c = a + b: a prime dividing two of a, b, c divides g =
    gcd(a, b) and all three, so r(a) r(b) r(c) counts it three times."""
    g = math.gcd(a, b)
    return radical(a) * radical(b) * radical(a + b) // radical(g) ** 2


def _excess_record(a: int, b: int, config: Dict[str, Any],
                   radical: Callable[[int], int]) -> Optional[Dict[str, Any]]:
    """The excess_pairs entry of a <= b under config's limit, q_bound and eps.

    None unless c <= limit, the gcd quality is at most q_bound and c >
    rad(abc)^(1+eps), decided in exact arithmetic.
    """
    c, g = a + b, math.gcd(a, b)
    if c > config["limit"]:
        return None
    gcd_quality = Fraction(g, radical(g))
    if gcd_quality > Fraction(config["q_bound"]):
        return None
    rad_abc = _rad_abc(a, b, radical)
    if _compare_power(c, rad_abc, 1 + Fraction(config["eps"]), Fraction(1)) != "gt":
        return None
    return {"a": a, "b": b, "c": c, "gcd": g, "gcd_over_rad": str(gcd_quality),
            "rad_abc": rad_abc}


# ---------------------------------------------------------------------------
# One record builder per abc log kind, shared by the commands and verify-log


def abc_record(kind: str, a: int, b: int,
               config: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The `kind` record its command writes for a + b under the log config.

    abc-check is the full report under config's classic pairs; abc-scan is
    the explicit check, None unless the triple violates it with c <= limit;
    abc-filter is the excess_pairs entry, None where that has none.
    """
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    if kind == "abc-filter":
        rec = _excess_record(a, b, config, arith.radical)
    elif kind == "abc-check":
        rec = report(AbcTriple(a, b, a + b), config["classic"]).to_dict()
    elif kind == "abc-scan":
        t = AbcTriple(a, b, a + b)
        rep = check_explicit(t) if t.c <= config["limit"] else None
        rec = None if rep is None or rep.explicit_pass else rep.to_dict()
    else:
        raise ValueError(f"unknown abc record kind {kind!r}")
    return None if rec is None else dict(rec, kind=kind)


_NO_RECORD = {
    "abc-scan": "scan records must be violations with c <= limit",
    "abc-filter": "filter records need c <= limit, gcd quality <= q_bound "
                  "and c > rad(abc)^(1+eps)",
}


def verify_abc_record(rec: Dict[str, Any], config: Dict[str, Any],
                      kind: Optional[str] = None) -> List[str]:
    """Rebuild one abc record from (a, b) and compare; returns the problems.

    `kind` is the record kind of the log, by default the record's own.
    """
    kind = kind or rec.get("kind")
    try:
        built = abc_record(kind, int(rec["a"]), int(rec["b"]), config)
    except ValueError as exc:
        return [f"invalid record: {exc}"]
    return search._compare(rec, built, _NO_RECORD.get(kind, ""))
