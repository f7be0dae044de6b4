"""Exact integer kernel: factorization, radical, roots, perfect powers."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, product

import pytest

from fcspread import arith

M61 = 2**61 - 1  # Mersenne prime


def test_factorize_small():
    assert arith.factorize(720) == [(2, 4), (3, 2), (5, 1)]
    assert arith.factorize(1) == []
    assert arith.factorize(M61) == [(M61, 1)]


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        arith.factorize(0)


def test_factorize_recomposes():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randrange(2, 1 << 96)
        fac = arith.factorize(n)
        assert math.prod(p**e for p, e in fac) == n
        primes = [p for p, _ in fac]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        assert all(arith.is_prime(p) for p in primes)


def test_factorize_semiprimes_and_powers_past_the_trial_bound():
    # Factors just above the 10**4 trial bound and near 2**32 go to rho and
    # the perfect-power split; small factors come from the trial gcd.
    low = [p for p in range(10**4, 10**4 + 120) if arith.is_prime(p)]
    high = [p for p in range(2**32 - 200, 2**32 + 200) if arith.is_prime(p)]
    assert len(low) >= 5 and len(high) >= 5
    cases = [p * q for p in low[:3] + high[:3] for q in low[3:6] + high[3:6]]
    cases += [p**e for p in low[:2] + high[:2] for e in (2, 3, 5, 6, 7)]
    cases += [p**2 * q**3 for p, q in zip(low, high)]
    cases += [2**5 * 9973 * n for n in cases[:12]] + [(low[0] * high[0])**6]
    for n in cases:
        fac = arith.factorize(n)
        assert math.prod(p**e for p, e in fac) == n
        primes = [p for p, _ in fac]
        assert primes == sorted(set(primes)) and primes[-1] > 10**4
        assert all(arith.is_prime(p) for p in primes), n


def _next_prime(n):
    while not arith.is_prime(n):
        n += 1
    return n


def _check_factorization(n, fac):
    assert math.prod(p**e for p, e in fac) == n, n
    primes = [p for p, _ in fac]
    assert primes == sorted(set(primes)) and all(arith.is_prime(p) for p in primes), n


def _rho_gives_up(n):
    """True where Brent rho, seeded as in `factorize`, passes its budget on n."""
    return arith._rho(n, random.Random(n * 0x9E3779B97F4A7C15 + 1)) is None


def test_factorize_past_the_rho_budget():
    # cofactors p q, p**2 q and p**3 q with p, q of 27-33 and 40-48 bits:
    # rho gives up on p q (and on nearly all the others), and ECM splits them
    for bits in (27, 30, 33, 40, 44, 48):
        p = _next_prime((1 << (bits - 1)) + 987_654_321 % (1 << (bits - 3)))
        q = _next_prime(p + (1 << (bits - 2)) + 12_345)
        assert p.bit_length() == q.bit_length() == bits
        assert _rho_gives_up(p * q), (p, q)
        for n, want in ((p * q, [(p, 1), (q, 1)]), (p * p * q, [(p, 2), (q, 1)]),
                        (p**3 * q, [(p, 3), (q, 1)])):
            assert arith.factorize(n) == want, n
        assert arith.factorize(7 * p * q**2) == [(7, 1), (p, 1), (q, 2)]


def test_factorize_near_the_abc_and_test_bounds():
    # an abc c can reach 2**65; the recompose test draws below 2**96
    for top in (2**64, 2**65, 2**96):
        for n in range(top - 6, top + 7):
            _check_factorization(n, arith.factorize(n))
    assert arith.factorize(2**64 + 1) == [(274177, 1), (67280421310721, 1)]
    assert arith.factorize(2**65 - 1) == [(31, 1), (8191, 1), (145295143558111, 1)]


def test_ecm_next_curve_after_a_curve_giving_n():
    # n = p q, p and q of 24 bits: rho, seeded as in factorize, gives up, and
    # the first curve from the same RNG finds both orders smooth, so its gcd
    # is n itself; the second curve splits n
    p, q = 8388617, 8389019
    n = p * q
    rng = random.Random(n * 0x9E3779B97F4A7C15 + 1)
    assert arith._rho(n, rng) is None
    assert arith._ecm_curve(n, rng.randrange(6, n - 1), arith._ECM_B1) == n
    assert arith._ecm_curve(n, rng.randrange(6, n - 1), arith._ECM_B1) in (p, q)
    assert arith.factorize(n) == [(p, 1), (q, 1)]


def test_ecm_raises_b1_only_after_curves_that_find_nothing(monkeypatch):
    # for primes just past the trial bound nearly every curve finds both
    # orders smooth, and more so as B1 rises: only curves giving 1 raise B1
    p, q = 10007, 10009
    curves, longest = [], 0
    ecm_curve = arith._ecm_curve
    monkeypatch.setattr(arith, "_ecm_curve", lambda n, sigma, b1: curves.append(
        (b1, ecm_curve(n, sigma, b1))) or curves[-1][1])
    for seed in range(40):
        curves.clear()
        assert arith._ecm(p * q, random.Random(seed)) in (p, q)
        want, misses = arith._ECM_B1, 0
        for b1, g in curves:
            assert b1 == want
            misses += g == 1
            if misses == arith._ECM_CURVES:
                want, misses = want * 3 // 2, 0
        longest = max(longest, len(curves))
    # some runs took more than 8 curves, most of them giving n
    assert longest > arith._ECM_CURVES


def test_ecm_plan_covers_the_stage2_primes():
    for b1 in (arith._ECM_B1, 405):
        k, steps = arith._ecm_plan(b1)
        primes = {p for p in range(2, 50 * b1 + 1) if arith.is_prime(p)}
        assert k == math.prod(max(p**e for e in range(1, 10) if p**e <= b1)
                              for p in primes if p <= b1)
        pairs = [(m * arith._ECM_D - arith._ECM_J[i], m * arith._ECM_D + arith._ECM_J[i])
                 for m, idx in steps for i in idx]
        # each step tests a prime of (b1, 50 b1], and each such prime is tested
        assert all(set(pair) & primes for pair in pairs)
        assert {p for p in primes if p > b1} <= {q for pair in pairs for q in pair}
        assert [m for m, _ in steps] == sorted({m for m, _ in steps})


def test_factorize_deterministic():
    # randomized splitting inside must not leak into the output
    for n in (2**64 + 13, 8388617 * 8389019, 2**96 - 3, 550743468211 * 825621387523):
        assert arith.factorize(n) == arith.factorize(n)


def test_radical_values():
    assert arith.radical(720) == 30
    assert arith.radical(1) == 1
    assert 6436341 == 3**10 * 109
    assert arith.radical(6436341) == 327
    with pytest.raises(ValueError):
        arith.radical(0)


def test_radical_properties():
    rng = random.Random(102)
    for _ in range(400):
        n = rng.randrange(2, 10**6)
        r = arith.radical(n)
        assert n % r == 0
        assert arith.radical(r) == r
        m = rng.randrange(2, 10**4)
        if math.gcd(m, n) == 1:
            assert arith.radical(m * n) == arith.radical(m) * arith.radical(n)


def test_gcd_quality():
    assert arith.gcd_quality(12, 18) == (6, Fraction(1))
    assert arith.gcd_quality(16, 24) == (8, Fraction(4))
    assert arith.gcd_quality(7, 13) == (1, Fraction(1))


def test_gcd_quality_is_integer_ratio():
    rng = random.Random(103)
    for _ in range(200):
        a = rng.randrange(1, 10**9)
        b = rng.randrange(1, 10**9)
        g, ratio = arith.gcd_quality(a, b)
        assert g == math.gcd(a, b)
        assert ratio.denominator == 1 and ratio >= 1


def test_iroot_examples():
    assert arith.iroot(16384, 2) == (128, True)
    assert arith.iroot(17, 4) == (2, False)
    assert arith.iroot(2**80, 5) == (2**16, True)
    with pytest.raises(ValueError):
        arith.iroot(0, 2)
    with pytest.raises(ValueError):
        arith.iroot(5, 0)


def test_iroot_floor_property():
    rng = random.Random(104)
    for n in range(2, 2000):
        for k in range(2, 21):
            r, exact = arith.iroot(n, k)
            assert r**k <= n < (r + 1) ** k
            assert exact == (r**k == n)
    for _ in range(2000):
        n = rng.randrange(2, 1 << 120)
        k = rng.randrange(1, 40)
        r, exact = arith.iroot(n, k)
        assert r**k <= n < (r + 1) ** k
        assert exact == (r**k == n)


def test_perfect_power_exponents_examples():
    assert arith.perfect_power_exponents(64) == [(8, 2), (4, 3), (2, 6)]
    assert arith.perfect_power_exponents(512) == [(8, 3), (2, 9)]
    assert arith.perfect_power_exponents(30) == []
    with pytest.raises(ValueError):
        arith.perfect_power_exponents(1)


def test_perfect_power_exponents_vs_brute_table():
    limit = 10**5
    table = {}
    for e in range(2, limit.bit_length()):
        x = 2
        while x**e <= limit:
            table.setdefault(x**e, []).append((x, e))
            x += 1
    for n, pairs in table.items():
        assert arith.perfect_power_exponents(n) == sorted(pairs, key=lambda p: p[1])
    rng = random.Random(105)
    for _ in range(500):
        n = rng.randrange(2, limit)
        if n not in table:
            assert arith.perfect_power_exponents(n) == []


def _brute_cube_splits(n, cubes):
    """Every (a, b), a, b >= 1, with a**3 + b**3 == n or a**3 - b**3 == n.

    `cubes` maps a**3 to a at least up to the largest a a difference can
    have: a**3 - (a - 1)**3 = 3a(a - 1) + 1 <= n.
    """
    top = math.isqrt(n // 3) + 2
    return {(cubes[b**3 + n], b) for b in range(1, top) if b**3 + n in cubes} | {
        (cubes[n - b**3], b) for b in range(1, top) if n - b**3 in cubes}


def _of_gcd_1(splits, primitive):
    return {s for s in splits if not primitive or math.gcd(*s) == 1}


def test_cube_splits_against_brute_force():
    limit = 1 << 16
    want = {}
    for a in range(1, 150):
        for b in range(1, a + 1):
            for n, pair in ((a**3 + b**3, (a, b)), (a**3 + b**3, (b, a)),
                            (a**3 - b**3, (a, b))):
                if 1 <= n < limit:
                    want.setdefault(n, set()).add(pair)
    assert len(want) > 100 and any(len(v) > 2 for v in want.values())  # 1729
    for n in range(1, limit):
        for primitive in (False, True):  # primitive: the splits of gcd 1 alone
            got = arith.cube_splits(n, arith.factorize(n), primitive)
            assert len(got) == len(set(got)) and set(got) == _of_gcd_1(
                want.get(n, set()), primitive), (n, primitive)
    cubes = {a**3: a for a in range(1, math.isqrt(60**6 // 3) + 3)}
    hits = 0
    for y in range(2, 61):
        for e in range(3, 7):
            n, want = y**e, _brute_cube_splits(y**e, cubes)
            for primitive in (False, True):
                got = arith.cube_splits(n, [(p, k * e) for p, k in arith.factorize(y)], primitive)
                assert len(got) == len(set(got)), n
                assert set(got) == _of_gcd_1(want, primitive), n
            hits += bool(want)
    assert hits > 10, hits  # e.g. 2**3 + 2**3 = 2**4, 14**3 - 7**3 = 7**4


def test_cube_splits_in_both_modes_on_scaled_splits_powers_and_one_3():
    # the walk tries only the d = a +/- b whose exponents a split can have:
    # against the brute force on coprime a**3 +/- b**3 scaled by g**3, on
    # y**m and on n with v_3(n) = 1, which no split has (3 or 6 mod 9)
    rng, scaled, one_3 = random.Random(34), set(), set()
    while len(scaled) < 720:
        a, b = rng.randrange(1, 100), rng.randrange(1, 100)
        if math.gcd(a, b) == 1 and a != b:
            scaled |= {g**3 * abs(a**3 + s * b**3) for s in (1, -1) for g in (1, 2, 3, 6, 9, 10)}
            one_3 |= {3 * abs(a**3 + s * b**3) for s in (1, -1) if (a**3 + s * b**3) % 3}
    powers = {y**m for y in range(2, 300) for m in range(1, 9) if y**m <= 1 << 30}
    one_3 |= {3 * k for k in range(1, 3000) if k % 3}
    values = scaled | powers | one_3
    cubes = {a**3: a for a in range(1, math.isqrt(max(values) // 3) + 3)}
    found = Counter()
    for n in sorted(values):
        want, factors = _brute_cube_splits(n, cubes), arith.factorize(n)
        for primitive in (False, True):
            got = arith.cube_splits(n, factors, primitive)
            assert len(got) == len(set(got)), (n, primitive)
            assert set(got) == _of_gcd_1(want, primitive), (n, primitive)
        found["primitive"] += any(math.gcd(*s) == 1 for s in want)
        found["not primitive"] += any(math.gcd(*s) > 1 for s in want)
        found["one 3"] += n in one_3 and not want
    assert found["one 3"] == len(one_3) > 2000, found
    assert found["primitive"] > 100 and found["not primitive"] > 500, found
    # past the brute force's reach, y**m up to 299**8: the primitive splits
    # are the coprime ones of all splits, and each is a split
    for y, m in product(range(2, 300), range(1, 9)):
        if y**m > 1 << 30:
            factors = [(p, k * m) for p, k in arith.factorize(y)]
            every = arith.cube_splits(y**m, factors, False)
            assert all(y**m in (a**3 + b**3, a**3 - b**3) for a, b in every), (y, m)
            assert sorted(arith.cube_splits(y**m, factors, True)) == sorted(
                s for s in every if math.gcd(*s) == 1), (y, m)


def test_cube_sieve_drops_no_cube_split():
    # every a**3 +/- b**3 <= 10**6, a, b >= 1, passes the sieve
    limit = 10**6
    splits = {a**3 + b**3 for a in range(1, 101) for b in range(1, a + 1)} | {
        a**3 - b**3 for a in range(2, 600) for b in range(1, a)}
    splits = {n for n in splits if n <= limit}
    dropped = {n for n in range(1, limit + 1) if not arith.cube_sieve(n)}
    assert not splits & dropped and len(splits) > 1000
    # it reads n mod 63: 2 of 7 residues mod 7 and 4 of 9 mod 9 are no split
    assert sum(not arith.cube_sieve(r) for r in range(63)) == 63 - 5 * 5
    assert len(dropped) == sum(limit // 63 + (r <= limit % 63)
                               for r in range(1, 63) if not arith.cube_sieve(r))
    # on the fccube values y**e2: power_cube_splits sieves before it factors
    # y, and equals the exact cube_splits, which is [] wherever the sieve fails
    skipped = 0
    for y in range(1, 201):
        for e in range(4, 10):
            for primitive in (False, True):
                want = arith.cube_splits(y**e, arith.factorize(y**e), primitive)
                assert arith.power_cube_splits(y, e, primitive) == want, (y, e, primitive)
                assert arith.cube_sieve(y**e) or want == []
            skipped += not arith.cube_sieve(y**e)
    assert skipped > 300, skipped
    # unit (3, 4) skips 4/9 of its y
    assert sum(not arith.cube_sieve(y**4) for y in range(63)) == 28


PSI12 = 318_665_857_834_031_151_167_461  # a strong pseudoprime to bases 2..37


def test_psi12_is_composite(monkeypatch):
    assert not arith.is_prime(PSI12)
    assert arith.factorize(PSI12) == [(399165290221, 1), (798330580441, 1)]
    assert arith.radical(PSI12) == PSI12
    assert not arith.is_prime(3_317_044_064_679_887_385_961_981)  # psi_13
    # base 41 runs from psi_12 up only: M61 < 2**64 gets Sinclair's seven bases
    bases = []
    round_ = arith._miller_rabin_round
    monkeypatch.setattr(arith, "_miller_rabin_round",
                        lambda n, a, d, s: bases.append(a) or round_(n, a, d, s))
    assert arith.is_prime(M61) and bases == list(arith._MR_BASES_64)
    bases.clear()
    assert not arith.is_prime(PSI12) and bases == list(arith._MR_BASES)


def _is_prime_12_bases(n):
    """The twelve-base test: bases 2..37 below psi_12, and 41 from it up."""
    if n < 2:
        return False
    bases = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    if any(n % p == 0 for p in bases):
        return n in bases
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    return all(arith._miller_rabin_round(n, a, d, s) for a in bases + [41] * (n >= PSI12))


def test_is_prime_by_psi_k_matches_twelve_bases(monkeypatch):
    # each psi_k is a composite that passes the first k bases; below it, the
    # least such number (OEIS A014233), those k bases decide primality
    psi = arith._MR_PSI
    assert len(psi) == 13 and psi[11] == PSI12 and list(psi) == sorted(psi)
    for k, n in enumerate(psi, 1):
        d = n - 1
        s = (d & -d).bit_length() - 1
        assert all(arith._miller_rabin_round(n, a, d >> s, s) for a in arith._MR_BASES[:k])
        assert len(arith.factorize(n)) > 1 and not arith.is_prime(n), k
        for m in range(n - 40, min(n + 41, psi[-1])):  # the same rounds past psi_13
            assert arith.is_prime(m) == _is_prime_12_bases(m), m
    rng = random.Random(30)
    for _ in range(4000):
        n = rng.randrange(2, 1 << rng.randrange(2, 81))
        assert arith.is_prime(n) == _is_prime_12_bases(n), n
    primes = 0
    for _ in range(300):  # primes of 2..80 bits, each found by the twelve-base test
        n = rng.randrange(2, 1 << rng.randrange(2, 81))
        while not _is_prime_12_bases(n):
            n += 1
        assert arith.is_prime(n), n
        primes += n > psi[0]
    assert primes > 250
    # the number of bases is the k of the least psi_k above n, save from
    # psi_7 to 2**64, where it is Sinclair's seven
    below_psi7 = next(n for n in range(psi[6] - 2, 0, -2) if _is_prime_12_bases(n))
    bases = []
    round_ = arith._miller_rabin_round
    monkeypatch.setattr(arith, "_miller_rabin_round",
                        lambda n, a, d, s: bases.append(a) or round_(n, a, d, s))
    for want, n in [(arith._MR_BASES[:1], 2039), (arith._MR_BASES[:2], 2053),
                    (arith._MR_BASES[:3], 1373677), (arith._MR_BASES[:7], below_psi7),
                    (arith._MR_BASES_64, 2**61 - 1), (arith._MR_BASES_64, 2**64 - 59),
                    (arith._MR_BASES[:12], 2**64 + 13)]:
        bases.clear()
        assert arith.is_prime(n) and bases == list(want), n


def _chernick(k):
    """(6k + 1)(12k + 1)(18k + 1), a Carmichael number when all three are prime."""
    factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
    return math.prod(factors) if all(_is_prime_12_bases(f) for f in factors) else None


def test_is_prime_by_sinclair_bases_matches_the_prime_bases():
    # from psi_7 to 2**64 seven bases decide what nine or twelve prime bases did
    psi, rng = arith._MR_PSI, random.Random(31)
    values = [rng.randrange(1 << 40, 1 << rng.randrange(41, 65)) | 1 for _ in range(3000)]
    near = [p for p in range(2**32 - 400, 2**32) if _is_prime_12_bases(p)]
    values += [p * q for p in near for q in near if p <= q]  # semiprimes near 2**64
    values += [rng.choice(near) * rng.randrange(1 << 31, 1 << 32) for _ in range(200)]
    carmichael = [n for n in map(_chernick, range(6500, 40_000)) if n]
    assert len(carmichael) > 30 and psi[6] <= min(carmichael) and max(carmichael) < 2**64
    values += carmichael + [psi[6], psi[8], 2**64 - 59, 2**64 - 1]
    primes = 0
    for n in values:
        assert arith.is_prime(n) == _is_prime_12_bases(n), n
        primes += arith.is_prime(n)
    assert primes > 50
    # psi_9, a strong pseudoprime to bases 2..31, and psi_7 are composite
    assert not arith.is_prime(3_825_123_056_546_413_051) and not arith.is_prime(psi[6])
    assert not any(arith.is_prime(n) for n in carmichael)


def test_smooth_matches_factorize():
    rng = random.Random(11)
    bounds = [2, 3, 5, 10, 97, 2039, 2048, 9973] + [rng.randrange(2, 9974) for _ in range(40)]
    values = [1, 2**60, 3**40, 2**60 + 1, 9973**4, 9967 * 9973, 10007, 2 * 10007]
    values += [rng.randrange(1, 1 << 64) for _ in range(300)]
    small = arith.SMALL_PRIMES[:50]  # smooth values, to pass as often as fail
    values += [math.prod(rng.choices(small, k=rng.randrange(1, 20))) for _ in range(300)]
    top = {n: max((p for p, _ in arith.factorize(n)), default=1) for n in values}
    passed = 0
    for bound in bounds:
        # the primes at the bound and just past it, and their powers
        at = max(p for p in arith.SMALL_PRIMES if p <= bound)
        past = next(p for p in arith.SMALL_PRIMES + [10007] if p > bound)
        edge = {p**k: p for p in (at, past) for k in (1, 2, 5)}
        for n, p in chain(top.items(), edge.items()):
            assert arith.smooth(n, bound) == (p <= bound), (n, bound)
            passed += p <= bound
    assert passed > 5000
    for n, bound in [(0, 10), (-6, 10), (6, 10**4 + 1)]:
        with pytest.raises(ValueError):
            arith.smooth(n, bound)


def test_is_prime():
    assert arith.is_prime(113)
    assert not arith.is_prime(1)
    assert not arith.is_prime(0)
    assert arith.is_prime(M61)
    assert arith.is_prime(2) and arith.is_prime(3)
    assert not arith.is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 45):
        if sieve[i]:
            for j in range(i * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert arith.is_prime(n) == sieve[n], n
