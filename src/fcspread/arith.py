"""Exact integer arithmetic kernel.

Factorization, radicals, integer roots, perfect-power detection and
primality testing on plain Python ints.  Everything here is pure and
deterministic: a cofactor's splitting RNG is seeded from the cofactor, so
repeated calls agree bit for bit, and the factorization is unique anyway.
The intended workload stays far below 2**128: trial division to 10**4,
then Brent's variant of Pollard rho for about 2**12 steps, which finds
most factors below about 2**21, then ECM on Montgomery curves (Lenstra 1987,
Montgomery 1987), whose cost grows subexponentially in the bits of the
smallest prime factor p, where rho's grows as sqrt(p).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import takewhile
from typing import Dict, List, Optional, Set, Tuple


def _small_primes(limit: int) -> List[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i in range(limit + 1) if sieve[i]]


# 10**4 is comfortably past the point where rho beats further trial division.
_TRIAL_LIMIT = 10_000
SMALL_PRIMES = _small_primes(_TRIAL_LIMIT)
# gcd(n, _PRIMORIAL) is the product of the distinct trial primes dividing n.
_PRIMORIAL = math.prod(SMALL_PRIMES)

# psi_k (OEIS A014233) is the least odd composite that passes Miller-Rabin
# to each of the first k prime bases, so those k bases prove n < psi_k prime.
# psi_12 (~3.2e23 > 2**78) is 399165290221 * 798330580441; psi_13 is ~3.3e24.
_MR_PSI = (2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
           3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
           3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
           3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
           3_317_044_064_679_887_385_961_981)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Jim Sinclair's seven bases (2011) decide every n < 2**64, checked against
# the Feitsma-Galway list of base-2 strong pseudoprimes below 2**64: seven
# rounds where the prime bases take nine or twelve, from psi_7 up.
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
# Above the proven bound: 64 extra rounds, error probability < 4**-64.
_MR_EXTRA_ROUNDS = 64


def _miller_rabin_round(n: int, a: int, d: int, s: int) -> bool:
    """One strong-pseudoprime round; True means 'probably prime'."""
    a %= n
    if a in (0, 1, n - 1):
        return True
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test.

    Deterministic for all n below psi_13 (~3.3e24, covers 2**64), by the
    first k prime bases below psi_k, or Sinclair's seven bases from psi_7
    to 2**64 (a base that is 0 modulo n passes, as in every round); above
    that, the thirteen bases and Miller-Rabin with 64 deterministically
    seeded rounds, error < 2**-128.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    bases = (_MR_BASES_64 if _MR_PSI[6] <= n < 1 << 64  # else the k of the least psi_k > n
             else _MR_BASES[: bisect_right(_MR_PSI, n) + 1])
    if not all(_miller_rabin_round(n, a, d, s) for a in bases):
        return False
    if n < _MR_PSI[-1]:
        return True
    rng = random.Random(n)
    return all(
        _miller_rabin_round(n, rng.randrange(2, n - 1), d, s)
        for _ in range(_MR_EXTRA_ROUNDS)
    )


# Brent rho gives up once its cycle length passes this, after about 2**12
# squarings: it finds most prime factors p with sqrt(pi p / 2) < 2**11,
# that is below about 2**21, and ECM takes the larger ones.
_RHO_CYCLES = 1 << 10


def _rho(n: int, rng: random.Random) -> Optional[int]:
    """A factor 1 < g < n of composite odd n by Brent's cycle finding, or None
    once the cycle length passes `_RHO_CYCLES` or the cycle collapses onto n."""
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    x = ys = y
    while g == 1 and r <= _RHO_CYCLES:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n  # the sign leaves gcd(q, n) unchanged
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
    return g if 1 < g < n else None


# ECM on Montgomery curves (Montgomery 1987): stage 1 to B1, from _ECM_B1 up
# by 3/2 every _ECM_CURVES curves that find nothing, and stage 2 on the
# primes in (B1, 50 B1] by the standard continuation with _ECM_D.
_ECM_B1, _ECM_CURVES, _ECM_D = 120, 8, 210
# the j, 0 < j < D/2, prime to D: every prime q > 7 is m D +/- j for one of them
_ECM_J = tuple(j for j in range(1, _ECM_D // 2, 2) if math.gcd(j, _ECM_D) == 1)

Point = Tuple[int, int]  # (X : Z) on a Montgomery curve, x = X / Z


def _xdbl(p: Point, a24: int, n: int) -> Point:
    """2p on B y**2 = x**3 + A x**2 + x, a24 = (A + 2) / 4, modulo n."""
    s, d = (p[0] + p[1]) ** 2 % n, (p[0] - p[1]) ** 2 % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _xadd(p: Point, q: Point, diff: Point, n: int) -> Point:
    """p + q from p, q and p - q, modulo n."""
    u = (p[0] - p[1]) * (q[0] + q[1]) % n
    v = (p[0] + p[1]) * (q[0] - q[1]) % n
    return diff[1] * (u + v) ** 2 % n, diff[0] * (u - v) ** 2 % n


def _ladder(x: int, k: int, a24: int, n: int) -> Point:
    """k (x : 1) for k >= 1, by Montgomery's ladder.

    Each bit adds the two rungs, whose difference is (x : 1), and doubles
    one: `_xadd` and `_xdbl` inlined, as stage 1 spends its time here.
    """
    x0, z0 = x, 1
    x1, z1 = _xdbl((x, 1), a24, n)
    for bit in bin(k)[3:]:
        if bit == "1":  # double the upper rung: swap, double the lower, swap back
            x0, z0, x1, z1 = x1, z1, x0, z0
        u = (x0 - z0) * (x1 + z1) % n
        v = (x0 + z0) * (x1 - z1) % n
        x1, z1 = (u + v) ** 2 % n, x * (u - v) ** 2 % n
        s, d = (x0 + z0) ** 2 % n, (x0 - z0) ** 2 % n
        t = s - d
        x0, z0 = s * d % n, t * (d + a24 * t) % n
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
    return x0, z0


@lru_cache(maxsize=None)  # one entry per B1 reached, a handful in practice
def _ecm_plan(b1: int) -> Tuple[int, Tuple[Tuple[int, Tuple[int, ...]], ...]]:
    """(k, steps) for B1 = b1: stage 1 multiplies by k, the product of the
    prime powers <= b1; stage 2 visits each prime q = m D +/- j in (b1, 50 b1]
    once, as steps (m, indices of its j in `_ECM_J`), m ascending.
    """
    primes = _small_primes(50 * b1)
    k = 1
    for p in takewhile(lambda p: p <= b1, primes):
        pe = p
        while pe * p <= b1:
            pe *= p
        k *= pe
    index = {j: i for i, j in enumerate(_ECM_J)}
    steps: Dict[int, Set[int]] = {}
    for q in primes:
        if q > b1:
            m = (q + _ECM_D // 2) // _ECM_D
            steps.setdefault(m, set()).add(index[abs(q - m * _ECM_D)])
    return k, tuple((m, tuple(sorted(js))) for m, js in sorted(steps.items()))


def _ecm_curve(n: int, sigma: int, b1: int) -> int:
    """gcd(n, .) after stages 1 and 2 on the curve of Suyama's parametrisation by sigma.

    u = sigma**2 - 5, v = 4 sigma, start point x = u**3 / v**3 and
    a24 = (v - u)**3 (3 u + v) / (16 u**3 v); the group order is divisible
    by 12.  A prime p | n divides the result, which may be 1 or n, when the
    start point's order modulo p divides k (`_ecm_plan`), or k times a
    prime in (B1, 50 B1].
    """
    k, steps = _ecm_plan(b1)
    u, v = (sigma * sigma - 5) % n, 4 * sigma % n
    x, z = u * u * u % n, v * v * v % n
    den = 16 * x * v % n
    g = math.gcd(den * z, n)
    if g != 1:
        return g
    inv = pow(den * z, -1, n)  # one inversion: a24 and x / z
    a24 = (v - u) ** 3 * (3 * u + v) * z * inv % n
    q = _ladder(x * den * inv % n, k, a24, n)
    g = math.gcd(q[1], n)
    if g != 1:
        return g
    # Stage 2: j q for j odd < D/2, then D q, and m D q for m from 1.  A
    # prime m D +/- j of the order mod p makes m D q = -/+ j q, so p divides
    # X_m Z_j - X_j Z_m = (X_m - X_j)(Z_m + Z_j) - X_m Z_m + X_j Z_j.
    two = _xdbl(q, a24, n)
    odd = [q, _xadd(two, q, q, n)]  # j q for j = 1, 3, ..., D/2
    while len(odd) <= _ECM_D // 4:
        odd.append(_xadd(odd[-1], two, odd[-2], n))
    js = [(X, Z, X * Z % n) for X, Z in (odd[j // 2] for j in _ECM_J)]
    dq = _xdbl(odd[-1], a24, n)
    m, r0, r1 = 1, dq, _xdbl(dq, a24, n)
    acc = 1
    for sm, idx in steps:
        while m < sm:
            r0, r1 = r1, _xadd(r1, dq, r0, n)
            m += 1
        X, Z = r0
        XZ = X * Z % n
        for i in idx:
            Xj, Zj, XZj = js[i]
            acc = acc * ((X - Xj) * (Z + Zj) - XZ + XZj) % n
    return math.gcd(acc, n)


def _ecm(n: int, rng: random.Random) -> int:
    """A factor 1 < g < n of composite n by ECM, curve after curve from `rng`.

    B1 rises after every `_ECM_CURVES` curves that give 1.  A curve giving n
    found every prime's order smooth, so it does not count: were it to, a
    product of small primes would reach a B1 where every curve gives n.
    """
    b1, misses = _ECM_B1, 0
    while True:
        g = _ecm_curve(n, rng.randrange(6, n - 1), b1)
        if 1 < g < n:
            return g
        misses += g == 1
        if misses == _ECM_CURVES:
            b1, misses = b1 * 3 // 2, 0


def factorize(n: int) -> List[Tuple[int, int]]:
    """Prime factorization of n >= 1 as an ordered [(prime, exponent), ...].

    factorize(1) == [].  Division by the primes up to 10**4 that divide n,
    read off gcd(n, their product), then perfect-power splitting, and Brent
    rho with a step budget followed by ECM, on cofactors; both draw from one
    RNG seeded by the cofactor.
    """
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    found, primes = {}, []
    m, g = n, math.gcd(n, _PRIMORIAL)
    for p in SMALL_PRIMES:  # g is squarefree: past sqrt(g) it is 1 or a prime
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            primes.append(p)
    if g > 1:
        primes.append(g)
    for p in primes:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        found[p] = e
    stack = [(m, 1)] if m > 1 else []
    while stack:
        m, mult = stack.pop()
        # every prime factor of m exceeds the trial limit: below its square, m is prime
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(m):
            found[m] = found.get(m, 0) + mult
            continue
        # so m = r**e needs _TRIAL_LIMIT**e < m, and a power splits at a
        # prime exponent too.
        for e in takewhile(lambda e: _TRIAL_LIMIT**e < m, SMALL_PRIMES):
            r, exact = iroot(m, e)
            if exact:
                stack.append((r, mult * e))
                break
        else:
            rng = random.Random(m * 0x9E3779B97F4A7C15 + 1)
            d = _rho(m, rng) or _ecm(m, rng)
            stack += [(d, mult), (m // d, mult)]
    return sorted(found.items())


@lru_cache(maxsize=64)  # one entry per bound a search reads, a handful in practice
def _primes_product(bound: int) -> int:
    return math.prod(takewhile(lambda p: p <= bound, SMALL_PRIMES))


def smooth(n: int, bound: int) -> bool:
    """True when no prime factor of n >= 1 exceeds bound <= 10**4, by gcds alone.

    The simplest form of Bernstein's smooth-part test ("How to find smooth
    parts of integers", 2004): g = gcd(n, the product of the primes <= bound)
    holds each such prime of n once; after n //= g, gcd(n, g**2) again holds
    each one n still has, so the loop ends with n = 1 exactly when it was
    bound-smooth.
    """
    if n < 1 or bound > _TRIAL_LIMIT:
        raise ValueError(f"smooth expects n >= 1 and bound <= 10**4, got ({n}, {bound})")
    g = math.gcd(n, _primes_product(bound))
    while g > 1:
        n //= g
        g = math.gcd(n, g * g)
    return n == 1


def radical(n: int) -> int:
    """Product of the distinct primes dividing n; radical(1) == 1."""
    return math.prod(p for p, _ in factorize(n))


def gcd_quality(a: int, b: int) -> Tuple[int, Fraction]:
    """(g, g/rad(g)) for g = gcd(a, b), the ratio as an exact rational.

    The ratio is always a positive integer in lowest terms; it equals 1
    exactly when g is squarefree.
    """
    if a < 1 or b < 1:
        raise ValueError("gcd_quality expects positive integers")
    g = math.gcd(a, b)
    return g, Fraction(g, radical(g))


def iroot(n: int, k: int) -> Tuple[int, bool]:
    """(floor(n ** (1/k)), exact) for n >= 1, k >= 1, in exact arithmetic."""
    if n < 1 or k < 1:
        raise ValueError(f"iroot expects n >= 1 and k >= 1, got ({n}, {k})")
    if k == 1:
        return n, True
    if k == 2:
        r = math.isqrt(n)
        return r, r * r == n
    if n.bit_length() <= k:
        # 2**k > n means the root is 1.
        return 1, n == 1
    if n < (1 << 52):
        r = int(n ** (1.0 / k))
        while r**k > n:
            r -= 1
        while (r + 1) ** k <= n:
            r += 1
        return r, r**k == n
    # Integer Newton iteration from a one-bit-high initial guess.
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x, x**k == n


def cube_sieve(n: int) -> bool:
    """False only where n is no a**3 + b**3 and no a**3 - b**3 (exact, by residues).

    A cube is 0 or +/-1 modulo 7 and modulo 9, so a sum or difference of two
    is 0, +/-1 or +/-2 modulo each: never 3 or 4 mod 7, nor 3, 4, 5 or 6 mod 9.
    """
    return n % 7 not in (3, 4) and n % 9 not in (3, 4, 5, 6)


def power_cube_splits(y: int, e: int, primitive: bool) -> List[Tuple[int, int]]:
    """`cube_splits` of y**e, y >= 1: if `primitive`, a +/- b holds all or none of each prime
    p != 3 of y**e and one 3 fewer; [] without factoring y where `cube_sieve` fails."""
    sieved = cube_sieve(pow(y, e, 63))  # y**e modulo 63 = 7 * 9
    return cube_splits(y**e, [(p, k * e) for p, k in factorize(y)], primitive) if sieved else []


def cube_splits(n: int, factors: List[Tuple[int, int]], primitive: bool) -> List[Tuple[int, int]]:
    """Every (a, b), a, b >= 1, with a**3 + b**3 or a**3 - b**3 equal to n >= 1.

    `factors` is n's factorization; a sum comes in both orders; `primitive`
    keeps gcd(a, b) = 1 alone.  A divisor d of n with n <= d**3 <= 4n is a + b,
    one with d**3 < n is a - b, and fixes ab by n = d (d**2 -/+ 3ab); a, b
    solve a quadratic, in integers.  Coprime a, b make gcd(d, n / d) divide 3,
    with one 3 in n / d if 3 | d: d holds all or none of each p**e exactly
    dividing n, p != 3, and 3**(e - 1) (no split if e = 1).  A split of gcd g
    is g times a primitive one of n / g**3, so if p**k exactly divides g,
    v_p(d) is k or e - 2k, and v_3(d) k if e = 3k or e - 2k - 1 if e - 3k >= 2.
    """
    hi, divisors, out = iroot(4 * n, 3)[0], [1], []
    for p, e in factors:  # d * p**v for each v above (k = 0 alone if primitive)
        pv = set()  # no v of a k > 0 is one of k = 0, so primitive d give primitive splits
        for k in range(1 if primitive else e // 3 + 1):  # p**k exactly divides g
            if p != 3 or e - 3 * k != 1:  # n / g**3 holds p**(e - 3k)
                pv |= {p**k, p**(e - 2 * k)} if p != 3 else {3**(e - 2 * k - (e > 3 * k))}
        divisors = [m for d in divisors for q in pv if (m := d * q) <= hi]
    for d in divisors:
        sign = 1 if d**3 >= n else -1
        ab, r = divmod(sign * (d * d - n // d), 3)
        disc = d * d - 4 * sign * ab  # (a -/+ b)**2, >= 0 as ab rounds down
        s = math.isqrt(disc)
        if r == 0 and ab >= 1 and s * s == disc and (d + s) % 2 == 0:
            a, b = (d + s) // 2, sign * (d - s) // 2
            out += [(a, b), (b, a)] if sign > 0 and a != b else [(a, b)]
    return out


def perfect_power_exponents(n: int) -> List[Tuple[int, int]]:
    """All (base, exp) with exp >= 2 and base ** exp == n, exp ascending.

    Requires n >= 2; the value 1 is treated as a wildcard by callers, never
    as a perfect power here.  Returns [] when n is not a perfect power.
    """
    if n < 2:
        raise ValueError(f"perfect_power_exponents expects n >= 2, got {n}")
    out = []
    for e in range(2, n.bit_length() + 1):
        r, exact = iroot(n, e)
        if exact:
            out.append((r, e))
        if r <= 1:
            break
    return out
