"""Radical inequality checks: exact comparisons, sieve scans, filters."""

import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fcspread import abc_check, arith, search
from fcspread.abc_check import (
    AbcTriple,
    brute_force_scan,
    check_classic,
    check_explicit,
    count_high_quality,
    excess_pairs,
    parse_triples,
    quality,
    radical_sieve,
)


def test_triple_validation():
    t = AbcTriple(1, 8, 9)
    assert (t.a, t.b, t.c) == (1, 8, 9)
    assert AbcTriple.of(8, 1) == t
    assert AbcTriple.of(8, 1, 9) == t
    with pytest.raises(ValueError):
        AbcTriple(8, 1, 9)  # a > b
    with pytest.raises(ValueError):
        AbcTriple(1, 8, 10)  # bad sum
    with pytest.raises(ValueError):
        AbcTriple(2, 4, 6)  # not coprime
    with pytest.raises(ValueError):
        AbcTriple(0, 4, 4)


def test_parse_triples():
    text = "\n".join([
        "1 8 9",
        "# a full-line comment",
        "1 2  # trailing comment",
        "2 4",
        "",
        "bogus line",
        "3 4 8",
        "0 5",
        "8 1",
    ])
    res = parse_triples(text)
    assert [(t.a, t.b, t.c) for t in res.triples] == [
        (1, 8, 9), (1, 2, 3), (1, 8, 9),
    ]
    assert res.errors == [
        "line 4: gcd(2, 4) != 1",
        "line 6: malformed line 'bogus line'",
        "line 7: 3 + 4 != 8",
        "line 8: entries must be positive",
    ]


def test_check_explicit_examples():
    rep = check_explicit(AbcTriple(1, 8, 9))
    assert (rep.rad_ab, rep.rad_ac, rep.rad_bc, rep.rad_abc) == (2, 3, 6, 6)
    assert rep.explicit_pass  # 9^8 = 43046721 < 6^15 = 470184984576

    rep = check_explicit(AbcTriple(1, 1, 2))
    assert (rep.rad_ab, rep.rad_ac, rep.rad_bc, rep.rad_abc) == (1, 2, 2, 2)
    assert rep.explicit_pass  # 2^8 = 256 < 2^8 * 2^7

    # 6436341 = 3^10 * 109 and 6436343 = 23^5
    rep = check_explicit(AbcTriple(2, 6436341, 6436343))
    assert (rep.rad_ab, rep.rad_ac, rep.rad_bc, rep.rad_abc) == (
        654, 46, 7521, 15042,
    )
    assert rep.explicit_pass


def test_quality_values():
    assert float(quality(AbcTriple(1, 8, 9))) == pytest.approx(
        1.2262943855309168, abs=1e-12
    )
    assert float(quality(AbcTriple(1, 1, 2))) == 1.0
    assert float(quality(AbcTriple(1, 2, 3))) == pytest.approx(
        0.6131471927654584, abs=1e-12
    )
    assert float(quality(AbcTriple(2, 6436341, 6436343))) == pytest.approx(
        1.6299116841270482, abs=1e-12
    )
    rep = check_explicit(AbcTriple(2, 6436341, 6436343))
    assert rep.to_dict()["quality"] == "1.6299116841270481846"


def test_check_classic_exact_paths():
    t = AbcTriple(1, 8, 9)
    assert check_classic(t, "0.2") == "fail"  # 9^5 = 59049 > 6^6 = 46656
    assert check_classic(t, 1) == "pass"  # 9 < 36
    assert check_classic(t, Fraction(1, 3)) == "pass"  # 9^3 = 729 < 6^4 = 1296
    assert check_classic(AbcTriple(1, 2, 3), "0.1") == "pass"
    # exact equality counts as failing the strict inequality
    assert check_classic(t, 1, Fraction(1, 4)) == "fail"  # 9 == 36/4
    with pytest.raises(ValueError):
        check_classic(t, 0)
    with pytest.raises(ValueError):
        check_classic(t, "1/5", -1)


def test_check_classic_float_agrees_with_exact():
    # float 0.2 takes the escalating-precision path; verdicts must agree
    for t in (AbcTriple(1, 8, 9), AbcTriple(1, 2, 3), AbcTriple(3, 125, 128)):
        assert check_classic(t, 0.2) == check_classic(t, "0.2")
        assert check_classic(t, 0.75) == check_classic(t, "0.75")


def test_compare_power_trichotomy():
    F = Fraction
    # 2^200 vs (2^129)^(200/129): exact tie, denominator too large for the
    # integer path, never decidable by precision alone
    assert abc_check._compare_power(2**200, 2**129, F(200, 129), F(1)) == "borderline"
    assert abc_check._compare_power(2**200 + 1, 2**129, F(200, 129), F(1)) == "gt"
    assert abc_check._compare_power(2**200 - 1, 2**129, F(200, 129), F(1)) == "lt"
    assert abc_check._compare_power(9, 6, F(6, 5), F(1)) == "gt"
    assert abc_check._compare_power(9, 6, F(2, 1), F(1)) == "lt"
    assert abc_check._compare_power(9, 6, F(2, 1), F(1, 4)) == "eq"


def test_report_carries_classic_entries():
    rep = abc_check.report(AbcTriple(1, 8, 9), [("1/5", 1), (1, 1)])
    assert rep.classic == [
        {"eps": "1/5", "C": "1", "verdict": "fail"},
        {"eps": "1", "C": "1", "verdict": "pass"},
    ]
    d = rep.to_dict()
    assert set(d) == {
        "a", "b", "c", "rad_ab", "rad_ac", "rad_bc", "rad_abc",
        "explicit_pass", "quality", "classic",
    }


def test_explicit_agrees_with_high_precision_logs():
    rng = random.Random(20260814)
    checked = 0
    while checked < 2000:
        a = rng.randrange(1, 1 << 30)
        b = rng.randrange(a, 1 << 30)
        if math.gcd(a, b) != 1:
            continue
        t = AbcTriple(a, b, a + b)
        rep = check_explicit(t)
        max_rad = max(rep.rad_ab, rep.rad_ac, rep.rad_bc)
        with mpmath.workprec(256):
            s = 8 * mpmath.log(t.c) - (
                8 * mpmath.log(max_rad) + 7 * mpmath.log(rep.rad_abc)
            )
            if abs(s) > mpmath.mpf(2) ** -200:
                assert (s < 0) == rep.explicit_pass, (a, b)
        checked += 1


# ---------------------------------------------------------------------------
# sieve and scans


def test_radical_sieve_matches_arith():
    rad = radical_sieve(3000)
    assert rad[0] == 0 and rad[1] == 1
    for n in range(1, 3001):
        assert int(rad[n]) == arith.radical(n)


def test_radical_sieve_budget():
    with pytest.raises(MemoryError):
        radical_sieve(10**6, memory_budget=100)
    with pytest.raises(ValueError):
        radical_sieve(0)


@pytest.mark.parametrize("limit", [1, 2, 10, 600, 1000, 2**15, 10**5])
def test_small_radical_set_matches_the_sieve(limit):
    # at 2^15, limit^8 = 2^120 is an exact 15th power: R = 256 is a member;
    # at 600, R = 30 = 2 * 3 * 5 is itself a kernel the walk must reach
    bound = arith.iroot(limit**8, 15)[0]
    members, rad = abc_check.small_radical_set(limit, bound)
    sieve = radical_sieve(limit)
    want = np.flatnonzero(sieve[1:] <= bound) + 1
    assert members.dtype == rad.dtype == np.int64
    assert members.tolist() == want.tolist()
    assert rad.tolist() == sieve[want].tolist()
    assert limit != 2**15 or (bound, members[-1]) == (256, 2**15)
    assert limit != 600 or (bound, members[-1], rad[-1]) == (30, 600, 30)
    with pytest.raises(ValueError):
        abc_check.small_radical_set(0, 1)


@pytest.mark.parametrize("limit", [10, 100, 1000, 10**4, 10**5, 10**6])
def test_scan_over_t_matches_the_sieve_walk(monkeypatch, limit):
    # the scan over T gives the exact check the candidate splits that the
    # same walk over the sieve's tables of every n <= limit gives, and so
    # the same records
    seen = []
    walk = abc_check._coprime_splits

    def spy(*args):
        for split in walk(*args):
            seen.append(split)
            yield split

    monkeypatch.setattr(abc_check, "_coprime_splits", spy)
    stats = {}
    records = brute_force_scan(limit, stats=stats)
    rad, lg, lgr = abc_check._scan_tables(limit, None)
    full = list(walk(rad, lg, lgr, True))
    assert seen == full
    assert records == [AbcTriple(a, b, c) for a, b, c, ra, rb, rc in full
                       if not abc_check._explicit_pass(c, ra, rb, rc)]
    bound = arith.iroot(limit**8, 15)[0]
    assert stats == {"terms": int(np.count_nonzero(rad[1:] <= bound)),
                     "radical_bound": bound, "candidates": len(full)}
    assert limit != 10**6 or (stats["terms"], len(full)) == (17801, 6)


@pytest.mark.parametrize("block", [1, 5, 64])
def test_partner_join_blocks_of_any_size(monkeypatch, block):
    # a block never splits the pairs of one c: a c with more pairs than a
    # block gets a block of its own, and the splits do not change
    limit = 3000
    rad = radical_sieve(limit)
    lg, lgr = abc_check._log_tables(rad)
    bound = arith.iroot(limit**8, 15)[0]
    members = np.flatnonzero(rad[1:] <= bound) + 1
    cs = np.arange(3, limit + 1)
    runs = [(lg, lgr, cs, False), (lg, lgr, cs, True),
            (lg[members], lgr[members], members[members >= 3], True, members)]
    want = [list(abc_check._partner_splits(*run)) for run in runs]
    monkeypatch.setattr(abc_check, "_PAIR_BLOCK", block)
    assert [list(abc_check._partner_splits(*run)) for run in runs] == want
    assert sum(len(a) for _, a in want[0]) > 100


def test_scan_small_limits():
    assert brute_force_scan(3) == []
    assert brute_force_scan(10**5) == []
    with pytest.raises(ValueError):
        brute_force_scan(2)


def test_scan_matches_naive_exhaustive():
    limit = 800
    rad = radical_sieve(limit)
    naive = []
    for c in range(3, limit + 1):
        for a in range(1, c // 2 + 1):
            b = c - a
            if math.gcd(a, b) != 1:
                continue
            ra, rb, rc = int(rad[a]), int(rad[b]), int(rad[c])
            max_rad = max(ra * rb, ra * rc, rb * rc)
            if c**8 >= max_rad**8 * (ra * rb * rc) ** 7:
                naive.append((a, b, c))
    got = [(t.a, t.b, t.c) for t in brute_force_scan(limit)]
    assert got == naive == []


@pytest.mark.parametrize("explicit", [True, False], ids=["explicit", "quality"])
def test_partner_splits_match_full_split_filter(explicit):
    # the partner walk must keep exactly the splits that the log filter
    # keeps when it visits every a <= c/2, for every c, not only the ones
    # that survive a scan's c-mask
    limit = 30000
    rad = radical_sieve(limit)
    lg, lgr = abc_check._log_tables(rad)
    slack = abc_check._LOG_SLACK
    cs = np.arange(3, limit + 1)
    got = {c: a for c, a in abc_check._partner_splits(lg, lgr, cs, explicit)}
    assert list(got) == cs.tolist()
    kept = 0
    for c in range(3, limit + 1):
        half = c // 2
        x, y = lgr[1 : half + 1], lgr[c - 1 : c - half - 1 : -1]
        if explicit:
            ok = 15.0 * (x + y) <= 8.0 * lg[c] - 7.0 * lgr[c] + slack
        else:
            ok = x + y + lgr[c] < lg[c] + slack
        full = (np.nonzero(ok)[0] + 1).tolist()
        assert got[c] == full, c
        kept += len(full)
    assert kept > 100  # the filter is not vacuous at this limit


def test_scan_candidates_match_full_walk(monkeypatch):
    # brute_force_scan hands the partner walk exactly the c of its c-mask,
    # drawn from T, and gets the full walk's candidate pairs back
    limit = 150000
    seen, seen_cs = [], []
    walk = abc_check._partner_splits

    def spy(lg, lgr, cs, explicit, *members):
        seen_cs.extend(cs.tolist())
        for c, splits in walk(lg, lgr, cs, explicit, *members):
            seen.extend((c, a) for a in splits)
            yield c, splits

    monkeypatch.setattr(abc_check, "_partner_splits", spy)
    assert brute_force_scan(limit) == []
    lg, lgr = abc_check._log_tables(radical_sieve(limit))
    slack = abc_check._LOG_SLACK
    c_mask = 15.0 * lgr[3:] + 7.0 * math.log(2.0) <= 8.0 * lg[3:] + slack
    assert seen_cs == (np.nonzero(c_mask)[0] + 3).tolist()
    full = []
    for c in seen_cs:
        half = c // 2
        bound = 8.0 * lg[c] - 7.0 * lgr[c] + slack
        pair = 15.0 * (lgr[1 : half + 1] + lgr[c - 1 : c - half - 1 : -1])
        full.extend((c, a + 1) for a in np.nonzero(pair <= bound)[0].tolist())
    assert seen == full and len(full) > 1000


def test_scan_memory_budget(monkeypatch):
    # the scan builds T, never the sieve, and counts T's arrays as it grows:
    # T holds 81,121 members at 10^7, refused under budgets they exceed
    def no_sieve(*args):
        raise AssertionError("the scan built the sieve")

    monkeypatch.setattr(abc_check, "radical_sieve", no_sieve)
    need = 81121 * abc_check._MEMBER_BYTES
    stats = {}
    assert brute_force_scan(10**7, memory_budget=need, stats=stats) == []
    assert stats["terms"] == 81121
    with pytest.raises(MemoryError, match=f"over the budget of {need - 1} bytes"):
        brute_force_scan(10**7, memory_budget=need - 1)
    # refused before anything past the budget is built: under a budget of
    # 1 MB the scan allocates well under the 3.9 MB that T's arrays need
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="over the budget of 1000000 bytes"):
            brute_force_scan(10**7, memory_budget=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6


def test_count_memory_budget(monkeypatch):
    def no_sieve(*args):
        raise AssertionError("the sieve was built before the budget check")

    monkeypatch.setattr(abc_check, "radical_sieve", no_sieve)
    with pytest.raises(MemoryError, match="scan tables"):
        count_high_quality(10**6, memory_budget=10**7)


def test_scans_read_the_budget_at_call_time(monkeypatch):
    # the scans, the count and the sieve take the budget as it stands, as
    # excess_pairs does, not as it stood at import
    monkeypatch.setattr(search, "MEMORY_BUDGET", 1000)
    for scan in (brute_force_scan, count_high_quality, radical_sieve,
                 lambda limit: excess_pairs(limit, 1, "1/10")):
        with pytest.raises(MemoryError, match="over the budget of 1000 bytes"):
            scan(10**5)


def test_count_high_quality():
    assert count_high_quality(2000) == 40
    assert count_high_quality(20000) == 204
    # determinism
    assert count_high_quality(2000) == 40
    with pytest.raises(ValueError):
        count_high_quality(2)


def test_count_high_quality_matches_naive():
    limit = 500
    rad = radical_sieve(limit)
    naive = sum(
        1
        for c in range(3, limit + 1)
        for a in range(1, c // 2 + 1)
        if math.gcd(a, c - a) == 1
        and int(rad[a]) * int(rad[c - a]) * int(rad[c]) < c
    )
    assert count_high_quality(limit) == naive


# ---------------------------------------------------------------------------
# excess pairs (no coprimality requirement)


def test_excess_pairs_examples():
    got = excess_pairs(9, 1, "1/5")
    assert [(r["a"], r["b"], r["c"]) for r in got] == [
        (2, 2, 4), (1, 8, 9), (3, 6, 9),
    ]
    assert got[1] == {
        "a": 1, "b": 8, "c": 9, "gcd": 1, "gcd_over_rad": "1", "rad_abc": 6,
    }
    # (1, 2, 3) stays out: 3 < 6^(6/5)
    got = excess_pairs(20, 1, "1/5")
    assert (1, 2, 3) not in {(r["a"], r["b"], r["c"]) for r in got}
    assert (2, 16, 18) in {(r["a"], r["b"], r["c"]) for r in got}


def test_excess_pairs_gcd_quality_bound():
    # (4, 4, 8) has gcd 4 with 4/rad(4) = 2
    loose = excess_pairs(8, 2, "1/5")
    assert {(r["a"], r["b"]) for r in loose} == {(2, 2), (4, 4)}
    entry = [r for r in loose if r["a"] == 4][0]
    assert entry["gcd_over_rad"] == "2" and entry["rad_abc"] == 2
    tight = excess_pairs(8, 1, "1/5")
    assert {(r["a"], r["b"]) for r in tight} == {(2, 2)}
    with pytest.raises(ValueError):
        excess_pairs(1, 1, "1/5")
    with pytest.raises(ValueError):
        excess_pairs(10, 1, 0)


def test_excess_pairs_uses_union_radical():
    # rad(2 * 16 * 18) must be 6, not rad(2)*rad(16)*rad(18) = 24
    got = [r for r in excess_pairs(18, 1, "1/100") if (r["a"], r["b"]) == (2, 16)]
    assert got and got[0]["rad_abc"] == 6


def _excess_pairs_walk(limit, q_bound, eps):
    """excess_pairs as the plain walk over every split, with rad(abc) merged
    from the radicals of a, b and c."""
    rad = radical_sieve(limit).tolist()
    config = {"limit": limit, "q_bound": Fraction(q_bound), "eps": Fraction(eps)}

    def merge(u, v):  # rad(u v) for squarefree u, v
        return u * v // math.gcd(u, v)

    out = []
    for c in range(2, limit + 1):
        for a in range(1, c // 2 + 1):
            rad_abc = merge(merge(rad[a], rad[c - a]), rad[c])
            if math.log(c) - (1.0 + float(Fraction(eps))) * math.log(rad_abc) < -1e-9:
                continue
            rec = abc_check._excess_record(a, c - a, config, rad.__getitem__)
            if rec is not None:
                out.append(rec)
    return out


@pytest.mark.parametrize("q_bound, eps", [
    (1, "1/5"), (2, "1/7"), ("3/2", "1/100"),
    (1, "2/129"),  # a denominator past _EXACT_DENOM_LIMIT: the mpmath path
])
def test_excess_pairs_match_the_split_walk(q_bound, eps):
    got = excess_pairs(400, q_bound, eps)
    assert got == _excess_pairs_walk(400, q_bound, eps)
    assert len(got) > 100


def test_rad_abc_is_the_radical_of_the_product():
    rad = radical_sieve(600).tolist()
    for c in range(2, 601):
        for a in range(1, c // 2 + 1):
            want = arith.radical(a * (c - a) * c)
            assert abc_check._rad_abc(a, c - a, rad.__getitem__) == want, (a, c)


def test_excess_pairs_exact_boundary():
    # every returned pair must satisfy the inequality exactly, not only in
    # the float prefilter
    for rec in excess_pairs(300, 2, "1/7"):
        c, r = rec["c"], rec["rad_abc"]
        assert c**7 > r**8  # c > r^(1 + 1/7)


# ---------------------------------------------------------------------------
# record verification


def _check_record(t, classic):
    rec = abc_check.report(t, classic).to_dict()
    rec["kind"] = "abc-check"
    return rec


def test_verify_abc_record_round_trip():
    rec = _check_record(AbcTriple(1, 8, 9), [("1/5", 1)])
    config = {"classic": [["1/5", "1"]]}
    assert abc_check.verify_abc_record(rec, config) == []

    assert abc_check.verify_abc_record(dict(rec, rad_ab=4), config)
    assert abc_check.verify_abc_record(dict(rec, quality="2.0"), config)
    assert abc_check.verify_abc_record(dict(rec, explicit_pass=False), config)
    assert abc_check.verify_abc_record(dict(rec, a=2, b=7), config)
    bad_classic = dict(rec, classic=[{"eps": "1/5", "C": "1", "verdict": "pass"}])
    assert abc_check.verify_abc_record(bad_classic, config)
    assert abc_check.verify_abc_record(dict(rec, kind="mystery"), config)

    # a passing triple posing as a scan violation is flagged
    scan_rec = dict(rec, kind="abc-scan")
    assert "scan records must be violations" in "".join(
        abc_check.verify_abc_record(scan_rec, {"limit": 100})
    )


def test_radicals_factored_once_per_triple(monkeypatch):
    calls = []
    radical = arith.radical
    monkeypatch.setattr(arith, "radical", lambda n: calls.append(n) or radical(n))
    rec = _check_record(AbcTriple(5, 27, 32), [("1/10", 1)])
    assert sorted(calls) == [5, 27, 32]
    calls.clear()
    assert abc_check.verify_abc_record(rec, {"classic": [["1/10", "1"]]}) == []
    assert sorted(calls) == [5, 27, 32]


def test_verify_abc_filter_record():
    params = {"limit": 9, "eps": "1/5", "q_bound": "1"}
    rec = dict(excess_pairs(9, 1, "1/5")[1], kind="abc-filter")
    assert abc_check.verify_abc_record(rec, params) == []
    assert abc_check.verify_abc_record(dict(rec, gcd=3), params)
    assert abc_check.verify_abc_record(dict(rec, rad_abc=30), params)
    # same record fails under an eps it does not actually exceed
    assert abc_check.verify_abc_record(rec, {"limit": 9, "eps": "2", "q_bound": "1"})
