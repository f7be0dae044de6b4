"""Products of bounded spread: decomposition, weights, enumeration.

A degree-d decomposition of X is a nondecreasing factor tuple
(x_1, ..., x_d) with product X; its base is min(x_i), its spread
max(x_i) - min(x_i).  A "spread <= s" search constraint never requires the
window endpoints to be attained; the recorded spread of each decomposition
is always the max-min of its own factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import mpmath

from . import arith


@dataclass(frozen=True)
class ProductDecomposition:
    """One concrete factorization with its derived statistics."""

    factors: Tuple[int, ...]
    value: int
    base: int
    spread: int
    degree: int

    @property
    def weight(self) -> Fraction:
        """This decomposition's term weight (1 + spread) / degree."""
        return Fraction(1 + self.spread, self.degree)

    def spread_sq_over_base(self) -> Fraction:
        return Fraction(self.spread * self.spread, self.base)


def analyze(factors: Sequence[int]) -> ProductDecomposition:
    """Build a ProductDecomposition from factors (any order, all >= 1)."""
    if not factors:
        raise ValueError("a product needs at least one factor")
    if any(f < 1 for f in factors):
        raise ValueError(f"factors must be positive integers: {factors!r}")
    fs = tuple(sorted(factors))
    return ProductDecomposition(
        factors=fs,
        value=math.prod(fs),
        base=fs[0],
        spread=fs[-1] - fs[0],
        degree=len(fs),
    )


def decompose(value: int, degree: int, max_spread: int) -> List[ProductDecomposition]:
    """All degree-`degree` decompositions of `value` with spread <= max_spread.

    Complete: returns every qualifying factor multiset, sorted
    lexicographically by factor tuple.  Empty list when none exists.
    """
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if max_spread < 0:
        raise ValueError(f"max_spread must be >= 0, got {max_spread}")
    root = arith.iroot(value, degree)[0]
    out: List[ProductDecomposition] = []
    # The smallest factor b satisfies b**d <= value <= (b+s)**d, hence
    # b lies in [root - s, root].
    for b in range(max(1, root - max_spread), root + 1):
        if value % b:
            continue
        if degree == 1:
            if b == value:
                out.append(ProductDecomposition((b,), value, b, 0, 1))
            continue
        hi = b + max_spread
        # Depth first over (least next factor, factors left, cofactor, factors
        # so far), on an explicit stack: a degree may pass the recursion limit.
        stack = [(b, degree - 1, value // b, (b,))]
        while stack:
            lo, slots, q, fs = stack.pop()
            if slots == 1:
                if lo <= q <= hi:
                    out.append(ProductDecomposition(fs + (q,), value, b, q - b, degree))
                continue
            for f in range(lo, hi + 1):
                if f > q:
                    break
                q2, rem = divmod(q, f)
                if rem:
                    continue
                if f ** (slots - 1) > q2:
                    break  # even the smallest allowed tail overshoots
                if hi ** (slots - 1) < q2:
                    continue  # tail cannot reach q2; a larger f might
                stack.append((f, slots - 1, q2, fs + (f,)))
    out.sort(key=lambda p: p.factors)
    return out


def fc_weight(terms: Iterable[Tuple[int, int]]) -> Fraction:
    """Exact Fermat-Catalan weight sum((1 + spread_i) / degree_i).

    `terms` is an iterable of (spread, degree) pairs, one per term; each
    term contributes with its own spread.
    """
    total = Fraction(0)
    for s, d in terms:
        if d < 1 or s < 0:
            raise ValueError(f"bad (spread, degree) term: {(s, d)}")
        total += Fraction(1 + s, d)
    return total


def spread_lemma_margin(p: ProductDecomposition) -> float:
    """Margin of the radical bound rad(X) <= e**(2s^2/b) * X**((s+1)/d).

    Returns 2s^2/b + ((s+1)/d) ln X - ln rad(X), which is >= 0 whenever
    s + 1 < d (the required precondition).  The sign is certified: the
    only exact-zero case (s = 0 with squarefree base) is returned as 0.0,
    otherwise precision is raised until the sign is unambiguous.
    """
    s, b, d, x = p.spread, p.base, p.degree, p.value
    if s + 1 >= d:
        raise ValueError(f"requires spread + 1 < degree, got s={s}, d={d}")
    rad = math.prod(
        {q for f in p.factors if f > 1 for q, _ in arith.factorize(f)}
    )
    if s == 0:
        # X = b**d exactly, so the margin reduces to ln(b) - ln(rad(b)).
        return 0.0 if b == rad else math.log(b) - math.log(rad)
    for prec in (120, 400, 1600):
        with mpmath.workprec(prec):
            margin = (
                mpmath.mpf(2 * s * s) / b
                + mpmath.mpf(s + 1) / d * mpmath.log(x)
                - mpmath.log(rad)
            )
            if abs(margin) > mpmath.mpf(2) ** (16 - prec):
                return float(margin)
    # e**(2s^2/b) is transcendental for s >= 1, so exact zero is impossible;
    # reaching here would mean an astronomically small but nonzero margin.
    return float(margin)


DegreeSpec = Union[int, Tuple[int, int]]


@dataclass(frozen=True)
class SpreadConstraints:
    """Constraint bundle for product enumeration.

    degree: a single degree or an inclusive (low, high) range.
    max_spread: spread cap s >= 0.
    max_spread_sq_over_base: optional exact bound on s^2 / b.
    """

    degree: DegreeSpec
    max_spread: int
    max_spread_sq_over_base: Optional[Fraction] = None

    def degree_range(self) -> Tuple[int, int]:
        if isinstance(self.degree, int):
            lo = hi = self.degree
        else:
            lo, hi = self.degree
        if lo < 1 or hi < lo:
            raise ValueError(f"bad degree range: {self.degree!r}")
        return lo, hi


def enumerate_products(
    constraints: SpreadConstraints, max_value: int, min_value: int = 1
) -> Iterator[ProductDecomposition]:
    """Stream the decompositions meeting `constraints`, min_value <= value <= max_value.

    Each qualifying decomposition is emitted exactly once, grouped by
    (degree, base) class and in nondecreasing value order within a class.

    Complete: every decomposition that `decompose(X, d, s)` returns for X in
    [min_value, max_value], d in the degree range and s the spread cap, and
    that meets the s^2/b bound, is emitted.  Its factors are nondecreasing
    in [b, b + s] with b = min, so b**d <= X <= max_value, which the base
    loop reaches, and (b + s)**d >= X >= min_value >= r**d with r the
    integer d-th root of min_value, so b >= r - s, where the base loop
    starts.  Within the class the walk, depth first on an explicit stack,
    tries every next factor in [previous, b + s] and cuts only prefixes
    that cannot complete in range: the `break` where even the smallest
    completion, all remaining factors equal to f, exceeds max_value
    (larger f exceed it too), and the skip where even the largest, all
    equal to b + s, stays below min_value.
    """
    if max_value < 1 or min_value < 1:
        raise ValueError("max_value and min_value must be >= 1")
    lo_d, hi_d = constraints.degree_range()
    s_cap = constraints.max_spread
    if s_cap < 0:
        raise ValueError("max_spread must be >= 0")
    m_bound = constraints.max_spread_sq_over_base
    for d in range(lo_d, hi_d + 1):
        b = max(1, arith.iroot(min_value, d)[0] - s_cap)
        while b**d <= max_value:
            hi = b + s_cap
            batch: List[ProductDecomposition] = []
            # (least next factor, factors left, product, factors so far)
            stack = [(b, d - 1, b, (b,))]
            while stack:
                lo, slots, prod, fs = stack.pop()
                if prod * hi**slots < min_value:
                    continue
                if slots == 0:
                    dec = ProductDecomposition(fs, prod, b, fs[-1] - b, d)
                    if m_bound is None or dec.spread_sq_over_base() <= m_bound:
                        batch.append(dec)
                    continue
                for f in range(lo, hi + 1):
                    if prod * f**slots > max_value:
                        break
                    stack.append((f, slots - 1, prod * f, fs + (f,)))
            batch.sort(key=lambda p: (p.value, p.factors))
            yield from batch
            b += 1
