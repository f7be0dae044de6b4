"""End-to-end acceptance checks for the search engine, catalogs and abc scan.

Nine checks, each printing one summary line (run with ``pytest -s`` to see
them on success; on failure the line is part of the assertion message):

 1. the Fermat-Catalan search at 2**34 recovers exactly the five small
    catalog solutions within a 900 s budget,
 2. the degree-3 non-maxgcd search at 2**28 finds exactly the four known
    witness products within a 600 s budget,
 3. the coprime product-pair search at 2**30 (degrees 3..10) and the
    equal-exponent search at 2**30 (degrees 4..21) both come up empty,
 4. every maxgcd spread-1 record at 2**30 matches the standard family,
 5. the exact abc scan to 10**6 reports no violations within 300 s,
 6. the radical bound margin is nonnegative on 10**5 enumerated products
    with spread + 1 < degree and values up to 2**64,
 7. on the range where exhaustive classification of a + b = c is feasible,
    independent brute-force oracles agree exactly with every search mode
    (7b: and with the Fermat-Catalan exponent-pair plan under other
    weight bounds and exponent limits),
 8. the parametric families produce verified solutions (and the documented
    failure case fails in the expected way),
 9. chunked, threaded and interrupted-then-resumed runs emit byte-identical
    record sections.
"""

import itertools
import json
import math
import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from fcspread import cli, families, search
from fcspread.families import IdentityFailure, KnownSolution
from fcspread.products import SpreadConstraints, decompose, enumerate_products
from fcspread.products import spread_lemma_margin

THREADS = min(4, os.cpu_count() or 1)


def _line(tag, ok, detail):
    msg = f"acceptance {tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(msg)
    return msg


def _run_cli(tmp_path, argv, name):
    out = tmp_path / name
    code = cli.run(list(argv) + ["--output", str(out)])
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    records = [json.loads(ln) for ln in lines[1:]]
    return code, header, records


def test_01_fermat_catalan_search_recovers_catalog(tmp_path):
    t0 = time.monotonic()
    code, _, records = _run_cli(
        tmp_path,
        ["search", "fc", "--max-bits", "34", "--max-exp", "113",
         "--threads", str(THREADS), "--chunks", "16"],
        "fc34.jsonl",
    )
    dt = time.monotonic() - t0
    triples = sorted(tuple(r["values"]) for r in records)
    expected = [
        (1, 8, 9),            # 1 + 2^3 = 3^2
        (32, 49, 81),         # 2^5 + 7^2 = 3^4
        (128, 4913, 5041),    # 2^7 + 17^3 = 71^2
        (169, 343, 512),      # 13^2 + 7^3 = 2^9
        (243, 14641, 14884),  # 3^5 + 11^4 = 122^2
    ]
    ok = code == 0 and triples == expected and dt <= 900.0
    msg = _line("1", ok, f"five catalog solutions at 2^34 in {dt:.1f}s of 900s")
    assert triples == expected, msg
    assert code == 0, msg
    assert dt <= 900.0, msg


def test_02_degree3_nonmaxgcd_search_finds_known_witnesses(tmp_path):
    t0 = time.monotonic()
    code, _, records = _run_cli(
        tmp_path,
        ["search", "nonmaxgcd3", "--max-bits", "28", "--threads", str(THREADS)],
        "nm28.jsonl",
    )
    dt = time.monotonic() - t0
    wits = sorted(r["witness"] for r in records)
    expected = [[16, 16, 17], [64, 64, 65], [112, 112, 113], [567, 567, 568]]
    ok = code == 0 and len(records) == 4 and wits == expected and dt <= 600.0
    msg = _line("2", ok, f"four known witnesses at 2^28 in {dt:.1f}s of 600s")
    assert wits == expected, msg
    assert len(records) == 4, msg
    assert code == 0, msg
    assert dt <= 600.0, msg


def test_03_gbtz_and_fp_searches_empty_at_2_30():
    res_g = search.run_chunked(
        search.make_config("gbtz", max_bits=30), n_chunks=16, threads=THREADS
    )
    res_f = search.run_chunked(
        search.make_config("fp", max_bits=30), n_chunks=16, threads=THREADS
    )
    ok = res_g.records == [] and res_f.records == []
    msg = _line(
        "3",
        ok,
        f"gbtz records {len(res_g.records)}, fp records {len(res_f.records)}"
        " at 2^30, both expected empty",
    )
    assert res_g.records == [], msg
    assert res_f.records == [], msg


def test_04_maxgcd_spread1_records_all_standard():
    cfg = search.make_config("maxgcd-spread1", max_bits=30)
    res = search.run_chunked(cfg, n_chunks=16, threads=THREADS)
    flags = [bool(r["standard"]) for r in res.records]
    ok = len(res.records) == 8 and all(flags)
    msg = _line(
        "4", ok,
        f"{sum(flags)}/{len(res.records)} records standard at 2^30, degrees 5..10",
    )
    assert len(res.records) == 8, msg
    assert all(flags), msg


def test_05_abc_scan_to_one_million_clean(tmp_path):
    t0 = time.monotonic()
    code, _, records = _run_cli(
        tmp_path, ["abc", "scan", "--limit", "1000000"], "abc1e6.jsonl"
    )
    dt = time.monotonic() - t0
    ok = code == 0 and records == [] and dt <= 300.0
    msg = _line("5", ok, f"no violations below 10^6 in {dt:.1f}s of 300s")
    assert records == [], msg
    assert code == 0, msg
    assert dt <= 300.0, msg


def test_06_radical_bound_margin_nonnegative_in_bulk():
    bound = 2**64
    sample = []
    for d, quota in ((9, 6000), (8, 8500), (7, 15000), (6, 20000), (5, 25500)):
        cons = SpreadConstraints(degree=d, max_spread=2)
        got = list(itertools.islice(enumerate_products(cons, bound), quota))
        assert len(got) == quota
        sample.extend(got)
    cons = SpreadConstraints(degree=4, max_spread=2)
    sample.extend(
        itertools.islice(enumerate_products(cons, bound), 100000 - len(sample))
    )
    assert len(sample) == 100000
    assert all(p.spread + 1 < p.degree and p.value <= bound for p in sample)

    worst = math.inf
    failures = 0
    for p in sample:
        m = spread_lemma_margin(p)
        if m < worst:
            worst = m
        if m < 0.0:
            failures += 1
    biggest = max(p.value for p in sample)
    ok = failures == 0 and biggest > 2**63
    msg = _line(
        "6",
        ok,
        f"{failures} negative margins in 100000 products,"
        f" worst {worst:.6f}, largest value {biggest:.3e}",
    )
    assert failures == 0, msg
    assert biggest > 2**63, msg  # the sample really reaches the top of range


# --- check 7: independent oracles over an exhaustively classifiable range --

_M15 = 1 << 15


def _cap_oracle(n, m, d, f_bound, strict):
    # largest s >= 0 whose weight 1/n + 1/m + (1+s)/d stays admissible
    s = -1
    while True:
        w = Fraction(1, n) + Fraction(1, m) + Fraction(s + 2, d)
        if not (w < f_bound if strict else w <= f_bound):
            return s
        s += 1


def _base_cap(value, n):
    b = 1
    while (b + 1) ** n <= value:
        b += 1
    return b


def _power_exps(limit, lo):
    # value -> sorted exponents e >= lo with some x >= 2, x**e == value
    table = {}
    e = 2
    while 2**e <= limit:
        x = 2
        while x**e <= limit:
            table.setdefault(x**e, set()).add(e)
            x += 1
        e += 1
    return {
        v: sorted(x for x in es if x >= lo)
        for v, es in table.items()
        if any(x >= lo for x in es)
    }


def _verify_all(records, cfg):
    for rec in records:
        problems = search.verify_record(rec, cfg)
        assert problems == [], (rec, problems)


def _brute_fc(limit, f_bound=Fraction(1), strict=True, min_exp=2, max_exp=113,
              min_exp_cap=113, coeffs=(1, 1, 1)):
    """Classify every A a + B b = C c with a, b, c <= limit directly: all
    terms 1 or perfect powers x**e with min_exp <= e <= max_exp, pairwise
    coprime, not all 1, and some choice of one exponent per power term whose
    weight sum(1/e) is under f_bound and whose smallest exponent is at most
    min_exp_cap.  Every such triple has two terms among those values, and
    the third follows from the equation.  With A == B a triple is given with
    a <= b, as records are."""
    A, B, C = coeffs
    exps = {
        v: [e for e in es if e <= max_exp]
        for v, es in _power_exps(limit, max(2, min_exp)).items()
        if es[0] <= max_exp
    }
    exps[1] = [0]  # the wildcard
    found = set()
    for a, c in itertools.product(exps, repeat=2):
        b, r = divmod(C * c - A * a, B)
        if r or b not in exps or a == b == c == 1:
            continue
        if math.gcd(a, b) != 1 or math.gcd(a, c) != 1 or math.gcd(b, c) != 1:
            continue
        for combo in itertools.product(exps[a], exps[b], exps[c]):
            weight = sum(Fraction(1, e) for e in combo if e)
            under = weight < f_bound if strict else weight <= f_bound
            if under and min(e for e in combo if e) <= min_exp_cap:
                found.add((min(a, b), max(a, b), c) if A == B else (a, b, c))
                break
    return found


def _brute_pair_modes():
    """gbtz, nonmaxgcd3 and fp records at 2**15 from their definitions."""
    reps = _power_exps(_M15, 3)
    vals = sorted(reps)
    gbtz = {}
    nm3 = {}
    for i, q in enumerate(vals):
        for p in vals[i + 1 :]:
            for sign, z in (("plus", p + q), ("minus", p - q)):
                if z > _M15:
                    continue
                for n in reps[p]:
                    for m in reps[q]:
                        if math.gcd(p, q) == 1:
                            for d in range(3, min(n, m, 10) + 1):
                                cap = _cap_oracle(n, m, d, Fraction(1), True)
                                if cap >= 0 and decompose(z, d, cap):
                                    key = (sign, p, q, z, d)
                                    gbtz.setdefault(key, set()).add((n, m))
                        if math.gcd(p, q) != min(p, q) and min(n, m) >= 3:
                            cap = _cap_oracle(n, m, 3, Fraction(1), True)
                            if cap >= 1 and any(
                                w.spread >= 1 for w in decompose(z, 3, cap)
                            ):
                                key = (sign, p, q, z, 3)
                                nm3.setdefault(key, set()).add((n, m))
    fp = {}
    for n in range(4, 22):
        cap = _cap_oracle(n, n, n, Fraction(1), True)
        if cap < 0:
            continue
        for x in range(3, _base_cap(_M15, n) + 1):
            for y in range(2, x):
                p, q = x**n, y**n
                if math.gcd(p, q) == min(p, q):
                    continue
                for sign, z in (("plus", p + q), ("minus", p - q)):
                    if z <= _M15 and decompose(z, n, cap):
                        fp.setdefault((sign, p, q, z, n), set()).add((n, n))
    return gbtz, nm3, fp


def _brute_maxgcd():
    out = {}
    for n in range(5, 11):
        top = _base_cap(_M15, n)
        for y in range(1, top + 1):
            q = y**n
            for x in range(y, top + 1, y):
                p = x**n
                for sign in ("plus", "minus"):
                    if sign == "minus" and x == y:
                        continue
                    z = p + q if sign == "plus" else p - q
                    if z > _M15 or not decompose(z, n, 1):
                        continue
                    st = families.is_standard(x, y, n, z, sign)
                    out[(sign, p, q, z, n)] = list(st) if st else False
    return out


def _brute_pillai(difference):
    out = {}
    for z in range(2, _M15 + 1):
        zdecs = [w for d in range(2, 16) for w in decompose(z, d, 0)]
        if not zdecs:
            continue
        x = z - difference
        if x < 1:
            continue
        xdecs = [w for d in range(2, 16) for w in decompose(x, d, 0)]
        for zd in zdecs:
            for xd in xdecs:
                weight = Fraction(1, xd.degree) + Fraction(1, zd.degree)
                if weight <= Fraction(41, 42):
                    key = (x, z, tuple(xd.factors), tuple(zd.factors))
                    out[key] = str(weight)
    return out


def _brute_survey(n_range, m_range, d_range):
    counts = {}
    sols = {}
    for n in range(n_range[0], n_range[1] + 1):
        for m in range(m_range[0], m_range[1] + 1):
            for d in range(d_range[0], d_range[1] + 1):
                cell = (n, m, d)
                cur = set()
                cap = _cap_oracle(n, m, d, Fraction(1), True)
                if d > 2 and cap >= 0:
                    for x in range(2, _base_cap(_M15, n) + 1):
                        p = x**n
                        for y in range(2, _base_cap(_M15, m) + 1):
                            q = y**m
                            if p == q or math.gcd(p, q) == min(p, q):
                                continue
                            for sign, z in (("plus", p + q), ("minus", p - q)):
                                if 1 <= z <= _M15 and decompose(z, d, cap):
                                    cur.add((sign, p, q, z))
                counts[cell] = len(cur)
                sols[cell] = cur
    return counts, sols


def test_07_brute_force_oracles_match_every_mode():
    t0 = time.monotonic()

    # Fermat-Catalan: every a + b = c up to 20000, classified from scratch.
    fc_limit = 20000
    brute_fc = _brute_fc(fc_limit)
    cfg_fc = search.make_config("fermat-catalan", max_bits=15)
    res_fc = search.run_chunked(cfg_fc, n_chunks=8, threads=THREADS)
    _verify_all(res_fc.records, cfg_fc)
    engine_fc = {
        tuple(r["values"]) for r in res_fc.records if r["values"][2] <= fc_limit
    }
    assert engine_fc == brute_fc
    assert len({tuple(r["values"]) for r in res_fc.records}) == 5

    # Product-pair modes against definition-level reconstructions.
    brute_gbtz, brute_nm3, brute_fp = _brute_pair_modes()
    engine = {}
    for mode in ("gbtz", "nonmaxgcd3", "fp"):
        cfg = search.make_config(mode, max_bits=15)
        res = search.run_chunked(cfg, n_chunks=4, threads=THREADS)
        _verify_all(res.records, cfg)
        engine[mode] = {
            (r["sign"], r["p"], r["q"], r["z"], r["d"]): {
                tuple(a) for a in r["assignments"]
            }
            for r in res.records
        }
    assert engine["gbtz"] == brute_gbtz
    assert engine["nonmaxgcd3"] == brute_nm3
    assert engine["fp"] == brute_fp
    assert ("minus", 20736, 16384, 4352, 3) in brute_nm3  # non-vacuous

    cfg_mg = search.make_config("maxgcd-spread1", max_bits=15)
    res_mg = search.run_chunked(cfg_mg, n_chunks=4, threads=THREADS)
    _verify_all(res_mg.records, cfg_mg)
    engine_mg = {
        (r["sign"], r["p"], r["q"], r["z"], r["d"]): r["standard"]
        for r in res_mg.records
    }
    assert engine_mg == _brute_maxgcd()

    cfg_pi = search.make_config("pillai", max_bits=15, difference=1)
    res_pi = search.run_chunked(cfg_pi, n_chunks=4, threads=THREADS)
    _verify_all(res_pi.records, cfg_pi)
    engine_pi = {
        (r["x"], r["z"], tuple(r["x_witness"]), tuple(r["z_witness"])): r["weight"]
        for r in res_pi.records
    }
    brute_pi = _brute_pillai(1)
    assert engine_pi == brute_pi
    assert (8, 9, (2, 2, 2), (3, 3)) in brute_pi  # non-vacuous

    cfg_sv = search.make_config(
        "survey", max_bits=15, n_range=(3, 6), m_range=(3, 6), degree=(2, 6)
    )
    res_sv = search.run_chunked(cfg_sv, n_chunks=4, threads=THREADS)
    _verify_all(res_sv.records, cfg_sv)
    brute_counts, brute_sols = _brute_survey((3, 6), (3, 6), (2, 6))
    assert len(res_sv.records) == 80
    engine_counts = {tuple(r["cell"]): r["count"] for r in res_sv.records}
    engine_sols = {
        tuple(r["cell"]): {
            (s["sign"], s["p"], s["q"], s["z"]) for s in r["solutions"]
        }
        for r in res_sv.records
    }
    assert engine_counts == brute_counts
    assert engine_sols == brute_sols

    dt = time.monotonic() - t0
    n_rec = sum(
        len(x)
        for x in (engine_fc, engine["gbtz"], engine["nonmaxgcd3"], engine["fp"],
                  engine_mg, engine_pi)
    ) + sum(engine_counts.values())
    msg = _line(
        "7", True,
        f"all seven modes match brute-force classification at 2^15"
        f" ({n_rec} solutions cross-checked in {dt:.1f}s)",
    )
    assert msg


_FC_PLAN_CONFIGS = {
    "f9/10": dict(f_bound=Fraction(9, 10)),
    "f1": dict(),
    "f1-nonstrict": dict(f_strict=False),
    "f13/12-nonstrict": dict(f_bound=Fraction(13, 12), f_strict=False),
    "f5/4": dict(f_bound=Fraction(5, 4)),
    "min_exp4": dict(min_exp=4),
    "max_exp5": dict(max_exp=5),
    "min_exp_cap3": dict(min_exp_cap=3),
    "min_exp_cap4": dict(min_exp_cap=4),
    "min_exp_cap4-f5/4": dict(min_exp_cap=4, f_bound=Fraction(5, 4)),
    "min_exp3-cap3": dict(min_exp=3, min_exp_cap=3),
    "min_exp3-cap4": dict(min_exp=3, min_exp_cap=4),
    "min_exp4-cap4": dict(min_exp=4, min_exp_cap=4),
    "min_exp_cap2": dict(min_exp_cap=2),
    # two squares are admissible, yet the plan drops cube x cube: with the
    # third exponent capped at 2, 1/3 + 1/3 + 1/2 is over the bound
    "min_exp_cap2-f21/20": dict(min_exp_cap=2, f_bound=Fraction(21, 20),
                                f_strict=False),
    "min_exp_cap2-f5/4": dict(min_exp_cap=2, f_bound=Fraction(5, 4)),
    # coefficient triples: the keep of the units with e3 <= 4 rests on the
    # ownership proof for every triple
    "coeffs1,2,3": dict(coeffs=(1, 2, 3)),
    "coeffs1,2,3-f3/2": dict(coeffs=(1, 2, 3), f_bound=Fraction(3, 2)),
    "coeffs3,1,1": dict(coeffs=(3, 1, 1)),
    "coeffs3,1,1-cap4-f5/4": dict(coeffs=(3, 1, 1), min_exp_cap=4,
                                  f_bound=Fraction(5, 4)),
    "coeffs1,1,2": dict(coeffs=(1, 1, 2)),
    "coeffs1,1,2-cap2-f3/2": dict(coeffs=(1, 1, 2), min_exp_cap=2,
                                  f_bound=Fraction(3, 2)),
    # 89 * 2**5 + 14 * 3**5 = 2 * 5**5, three 5th powers and no square or
    # cube: only the prime-power set finds a third term, at owner (5, 5)
    "coeffs89,14,2": dict(coeffs=(89, 14, 2)),
}


@pytest.mark.parametrize("name", sorted(_FC_PLAN_CONFIGS))
def test_07b_fc_pair_plan_matches_brute_force(name):
    bits = 13
    cfg = search.make_config("fermat-catalan", max_bits=bits,
                             **_FC_PLAN_CONFIGS[name])
    brute = _brute_fc(2**bits, cfg.f_bound, cfg.f_strict, cfg.min_exp,
                      cfg.max_exp, cfg.min_exp_cap, cfg.coeffs)
    res = search.run_chunked(cfg, n_chunks=4)
    _verify_all(res.records, cfg)
    engine = {tuple(r["values"]) for r in res.records}
    # With min_exp >= 3 the range holds no triple (a coprime a + b = c with
    # every term a power of exponent >= 3 would be a Beal counterexample).
    nonempty = bool(brute) or cfg.min_exp > 2
    ok = engine == brute and nonempty
    msg = _line("7b", ok, f"{name}: engine {len(engine)} of {len(brute)} "
                "brute-force triples")
    assert engine == brute, msg
    assert nonempty, msg


def test_08_parametric_families_produce_verified_solutions():
    rng = random.Random(808)
    usable = [k for k in range(4, 15) if k % 3]
    produced = 0
    while produced < 100:
        n, m = rng.choice(usable), rng.choice(usable)
        if math.gcd(n, m) > 2:
            continue
        a = rng.randrange(2, 6)
        sol = families.gen_pythagorean(a, n, m)
        sol.verify()
        (vx, dx), (vy, dy), (vz, dz) = sol.terms
        assert vx + vy == vz
        for val, dec, k in ((vx, dx, n), (vy, dy, m), (vz, dz, 3)):
            assert dec.spread == 0 and dec.degree == k
            assert dec.base**k == val
        assert math.gcd(vx, vy) != min(vx, vy)
        assert sol.weight() == Fraction(1, n) + Fraction(1, m) + Fraction(1, 3)
        assert sol.weight() < 1
        produced += 1

    for w in range(1, 9):
        for n in range(1, 9):
            out = families.gen_standard(1, w, n)
            assert isinstance(out, KnownSolution), (w, n)
            out.verify()
            (vx, _), (vy, _), (vz, dz) = out.terms
            assert vx + vy == vz
            assert dz.spread <= 1
            x, y = w**n, w ** (n - 1)
            assert families.is_standard(x, y, n, vz) == (1, w)

    fail = families.gen_standard(2, 1, 3)
    assert isinstance(fail, IdentityFailure)
    assert (fail.lhs, fail.rhs) == (16, 12)
    assert fail.params == {"v": 2, "w": 1, "n": 3}

    msg = _line(
        "8", True,
        "100 random pythagorean-family solutions verified;"
        " standard family holds for v=1 (w, n <= 8) and fails at v=2 with"
        " lhs 16 != rhs 12",
    )
    assert msg


def test_09_chunked_and_resumed_runs_byte_identical(tmp_path):
    cfg = search.make_config("fermat-catalan", max_bits=14)

    def section(records):
        return "\n".join(search.canon_json(r) for r in records)

    one = search.run_chunked(cfg, n_chunks=1)
    many = search.run_chunked(cfg, n_chunks=16, threads=THREADS)
    ckpt = tmp_path / "resume.ckpt.json"
    part = search.run_chunked(
        cfg, n_chunks=16, checkpoint_path=str(ckpt), max_chunks=3
    )
    assert part.chunks_run == 3
    resumed = search.run_chunked(
        cfg, n_chunks=16, checkpoint_path=str(ckpt), resume=True
    )
    ok = (
        section(one.records)
        == section(many.records)
        == section(resumed.records)
        != ""
    )
    msg = _line(
        "9", ok,
        f"1-chunk, 16-chunk and interrupted-plus-resumed runs agree on"
        f" {len(one.records)} records byte for byte",
    )
    assert section(one.records) == section(many.records), msg
    assert section(one.records) == section(resumed.records), msg
    assert one.records, msg
