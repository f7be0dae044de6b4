"""Exact checks of abc-style radical inequalities.

The headline inequality, c < max(rad(ab), rad(ac), rad(bc)) * rad(abc)^(7/8),
is decided without any floating point: both sides are raised to the 8th
power and compared as integers, so strictness survives exactly.  The classic
c < C * rad(abc)^(1+eps) form takes arbitrary positive rational parameters;
small-denominator parameters get the same exact integer treatment, anything
else is decided by escalating-precision evaluation that reports "borderline"
instead of guessing when the margin stays inside its own error bound.

The brute-force scan walks every coprime split a + b = c <= limit.  A numpy
radical sieve plus two sound log-space prefilters (derived from the target
inequality itself, with a generous slack that can only over-include) shrink
the candidate set to a handful of pairs, each confirmed in exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Dict, IO, Iterable, List, Optional, Tuple, Union

import mpmath
import numpy as np

from . import arith

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
    rad_ab, rad_ac, rad_bc = ra * rb, ra * rc, rb * rc
    rad_abc = ra * rb * rc
    max_rad = max(rad_ab, rad_ac, rad_bc)
    passed = t.c**8 < max_rad**8 * rad_abc**7
    return AbcReport(
        triple=t,
        rad_ab=rad_ab,
        rad_ac=rad_ac,
        rad_bc=rad_bc,
        rad_abc=rad_abc,
        explicit_pass=passed,
        quality=quality(t),
    )


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


def radical_sieve(limit: int, memory_budget: int = 4 << 30) -> np.ndarray:
    """rad(n) for n in 0..limit as int64 (rad(0) = 0, rad(1) = 1)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    est = (limit + 1) * 8
    if est > memory_budget:
        raise MemoryError(
            f"radical sieve to {limit} needs about {est} bytes, "
            f"over the budget of {memory_budget} bytes"
        )
    rad = np.ones(limit + 1, dtype=np.int64)
    rad[0] = 0
    for p in range(2, limit + 1):
        if rad[p] == 1:  # untouched by any smaller prime, so p is prime
            rad[p::p] *= p
    return rad


def _log_tables(rad: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    n = len(rad)
    lg = np.zeros(n)
    lg[1:] = np.log(np.arange(1, n, dtype=np.float64))
    lgr = np.zeros(n)
    lgr[1:] = np.log(rad[1:].astype(np.float64))
    return lg, lgr


# Float prefilters may only over-include; this slack dwarfs the rounding
# error of summing a handful of float64 logs.
_LOG_SLACK = 1e-9


def brute_force_scan(limit: int, memory_budget: int = 4 << 30) -> List[AbcTriple]:
    """All violations of the explicit inequality among a + b = c <= limit.

    A violation needs c^8 >= max_rad^8 * rad(abc)^7.  With r* = rad(*) and
    pairwise coprimality this forces both

        128 * r(c)^15 <= c^8          (since max_rad >= r(a) r(c) >= r(c)
                                       and rad(abc) >= 2 r(c) for c >= 3)
        (r(a) r(b))^15 * r(c)^7 <= c^8   (since max_rad >= r(a) r(b))

    so a log-space pass over c, then over a, leaves a tiny candidate set
    that is confirmed with exact integer arithmetic.
    """
    if limit < 3:
        raise ValueError("limit must be >= 3")
    est = (limit + 1) * 24  # the sieve plus two log tables; checked before any is built
    if est > memory_budget:
        raise MemoryError(
            f"scan tables to {limit} need about {est} bytes, "
            f"over the budget of {memory_budget} bytes"
        )
    rad = radical_sieve(limit, memory_budget)
    lg, lgr = _log_tables(rad)
    ln2_7 = 7.0 * math.log(2.0)
    cs = np.arange(3, limit + 1)
    c_mask = 15.0 * lgr[3:] + ln2_7 <= 8.0 * lg[3:] + _LOG_SLACK
    out: List[AbcTriple] = []
    for c in cs[c_mask].tolist():
        half = c // 2
        bound = 8.0 * lg[c] - 7.0 * lgr[c] + _LOG_SLACK
        pair = 15.0 * (lgr[1 : half + 1] + lgr[c - 1 : c - half - 1 : -1])
        for a in np.nonzero(pair <= bound)[0].tolist():
            a += 1
            b = c - a
            if math.gcd(a, b) != 1:
                continue
            ra, rb, rc = int(rad[a]), int(rad[b]), int(rad[c])
            max_rad = max(ra * rb, ra * rc, rb * rc)
            if c**8 >= max_rad**8 * (ra * rb * rc) ** 7:
                out.append(AbcTriple(a, b, c))
    return out


def count_high_quality(limit: int, memory_budget: int = 4 << 30) -> int:
    """Number of coprime triples with quality > 1 (c > rad(abc)), c <= limit."""
    if limit < 3:
        raise ValueError("limit must be >= 3")
    rad = radical_sieve(limit, memory_budget)
    lg, lgr = _log_tables(rad)
    count = 0
    for c in range(3, limit + 1):
        half = c // 2
        pair = lgr[1 : half + 1] + lgr[c - 1 : c - half - 1 : -1] + lgr[c]
        for a in np.nonzero(pair < lg[c] + _LOG_SLACK)[0].tolist():
            a += 1
            b = c - a
            if (
                math.gcd(a, b) == 1
                and int(rad[a]) * int(rad[b]) * int(rad[c]) < c
            ):
                count += 1
    return count


# ---------------------------------------------------------------------------
# Radical-excess pairs without the coprimality assumption


def _merge_radicals(u: int, v: int) -> int:
    """rad(u*v) for squarefree u, v."""
    return u * v // math.gcd(u, v)


def excess_pairs(limit: int, q_bound: RationalLike,
                 eps: RationalLike) -> List[Dict[str, Any]]:
    """Pairs a <= b (any gcd) with a+b <= limit, a+b > rad(ab(a+b))^(1+eps)
    and gcd(a,b)/rad(gcd(a,b)) <= q_bound.

    The radical of the product uses the union of prime supports, so shared
    primes are not double-counted.  Sorted by (c, a).
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    q_boundF, epsF = Fraction(q_bound), Fraction(eps)
    if epsF <= 0 or q_boundF <= 0:
        raise ValueError("eps and the gcd quality bound must be positive")
    rad = radical_sieve(limit)
    eps_float = float(epsF)
    out: List[Dict[str, Any]] = []
    for c in range(2, limit + 1):
        lc = math.log(c)
        for a in range(1, c // 2 + 1):
            b = c - a
            g = math.gcd(a, b)
            if Fraction(g, int(rad[g])) > q_boundF:
                continue
            rad_abc = _merge_radicals(
                _merge_radicals(int(rad[a]), int(rad[b])), int(rad[c])
            )
            margin = lc - (1.0 + eps_float) * math.log(rad_abc)
            if margin < -_LOG_SLACK:
                continue
            if margin <= _LOG_SLACK:  # too close to call in floats
                cmp = _compare_power(c, rad_abc, 1 + epsF, Fraction(1))
                if cmp != "gt":
                    continue
            out.append(
                {
                    "a": a,
                    "b": b,
                    "c": c,
                    "gcd": g,
                    "gcd_over_rad": str(Fraction(g, int(rad[g]))),
                    "rad_abc": rad_abc,
                }
            )
    return out


# ---------------------------------------------------------------------------
# Record verification for result logs


def verify_abc_record(rec: Dict[str, Any], params: Dict[str, Any]) -> List[str]:
    """Re-derive one abc result-log record; returns a list of problems."""
    problems: List[str] = []

    def check(ok: bool, msg: str) -> None:
        if not ok:
            problems.append(msg)

    kind = rec.get("kind")
    if kind in ("abc-check", "abc-scan"):
        try:
            t = AbcTriple(rec["a"], rec["b"], rec["c"])
        except ValueError as exc:
            return [f"invalid triple: {exc}"]
        rep = check_explicit(t)
        check(rec["rad_ab"] == rep.rad_ab, "rad_ab mismatch")
        check(rec["rad_ac"] == rep.rad_ac, "rad_ac mismatch")
        check(rec["rad_bc"] == rep.rad_bc, "rad_bc mismatch")
        check(rec["rad_abc"] == rep.rad_abc, "rad_abc mismatch")
        check(rec["explicit_pass"] == rep.explicit_pass, "explicit verdict mismatch")
        if kind == "abc-scan":
            check(not rec["explicit_pass"], "scan records must be violations")
        check(
            rec["quality"] == mpmath.nstr(rep.quality, 20),
            "quality mismatch",
        )
        for entry in rec.get("classic", []):
            check(
                entry["verdict"] == check_classic(t, entry["eps"], entry["C"]),
                f"classic verdict mismatch at eps={entry['eps']}",
            )
        return problems
    if kind == "abc-filter":
        a, b, c, g = rec["a"], rec["b"], rec["c"], rec["gcd"]
        check(a + b == c and 1 <= a <= b, "pair shape wrong")
        check(math.gcd(a, b) == g, "stored gcd wrong")
        rad_g = arith.radical(g) if g > 1 else 1
        check(str(Fraction(g, rad_g)) == rec["gcd_over_rad"], "gcd quality wrong")
        check(Fraction(g, rad_g) <= Fraction(params["q_bound"]), "gcd quality over bound")
        rad_abc = arith.radical(a * b * c)
        check(rad_abc == rec["rad_abc"], "rad_abc mismatch")
        check(
            _compare_power(c, rad_abc, 1 + Fraction(params["eps"]), Fraction(1))
            == "gt",
            "excess inequality fails",
        )
        return problems
    return [f"unknown abc record kind {kind!r}"]
