"""Search engine: the pair scan, all seven modes, chunking and checkpoints."""

import hashlib
import itertools
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from fcspread import arith, search
from fcspread.products import SpreadConstraints, decompose, enumerate_products
from fcspread.search import (
    CheckpointMismatch,
    SearchConfig,
    canon_json,
    make_config,
    run_chunked,
    verify_record,
)


def _records(cfg, **kw):
    res = run_chunked(cfg, **kw)
    assert res.completed
    return res.records


def _assert_all_verify(records, cfg):
    for rec in records:
        assert verify_record(rec, cfg) == [], rec


# ---------------------------------------------------------------------------
# pair scan


def test_power_value_set_against_comprehension():
    bound = 10**6
    want = {
        x**e
        for e in range(3, bound.bit_length())
        for x in range(2, int(round(bound ** (1 / e))) + 2)
        if x**e <= bound
    }
    assert search._power_value_set(bound) == want
    assert search._power_value_set(100) == {8, 16, 27, 32, 64, 81}


def _keep_all(P, Q):
    return np.ones(np.broadcast_shapes(P.shape, Q.shape), dtype=bool)


@pytest.mark.parametrize("ordered", [False, True])
@pytest.mark.parametrize("n, m", [(3, 3), (2, 2), (3, 4), (4, 3), (2, 5)])
@pytest.mark.parametrize("relation", ["coprime", "nonmaxgcd", "maxgcd"])
def test_pairs_against_brute_force(relation, n, m, ordered):
    M = 5000
    top = {e: max(b for b in range(1, M) if b**e <= M) for e in (n, m)}

    def related(x, y):
        P, Q = x**n, y**m
        if relation == "maxgcd":
            return x % y == 0
        if x < 2 or y < 2:
            return False
        if relation == "coprime":
            return math.gcd(x, y) == 1
        return max(P, Q) % min(P, Q) != 0

    want = set()
    for x in range(1, top[n] + 1):
        for y in range(1, top[m] + 1):
            if related(x, y):
                P, Q = x**n, y**m
                want.add((P, Q) if ordered or P >= Q else (Q, P))
    # the scanned base range split in two, as plan_chunks splits a unit
    lo, hi = (1, top[m]) if relation == "maxgcd" else (2, top[n])
    mid = (lo + hi) // 2
    # the int64 cell blocks, with a prefilter that keeps everything, visit
    # the same pairs as the scalar loop
    for keep in (None,) if relation == "maxgcd" else (None, _keep_all):
        got = list(search._pairs(M, relation, n, m, lo, mid, ordered, keep))
        got += search._pairs(M, relation, n, m, mid + 1, hi, ordered, keep)
        assert len(got) == len(set(got))
        assert set(got) == want
    assert want


def test_prefilter_keeps_every_usable_value():
    M = 1 << 16
    power_set = search._power_value_set(M)
    t = np.arange(1, M + 2, dtype=np.int64)
    kept = search._maybe_usable(t, M, search._usable_table_i64(M))
    usable = np.array([search._usable_power(v, M, power_set) for v in t.tolist()])
    assert usable.any() and not (usable & ~kept).any()

    # Near the int64 limit, against a few table powers of its own.
    M = 1 << 62
    powers = {b**e for e in range(3, 63)
              for b in (arith.iroot(M, e)[0], arith.iroot(M, e)[0] - 1) if b >= 2}
    table = np.array(sorted(powers | {1}), dtype=np.int64)
    values = {1, M, M + 1} | powers
    for k in range(2**31 - 40, 2**31 + 2):
        values |= {k * k - 1, k * k, k * k + 1, (k - 1) ** 2, (k + 1) ** 2}
    values = sorted(v for v in values if v < 2**63)
    kept = search._maybe_usable(np.array(values, dtype=np.int64), M, table)
    usable = np.array([search._usable_power(v, M, powers) for v in values])
    assert usable.sum() > 40 and not (usable & ~kept).any()
    assert not kept[values.index(M + 1)]
    assert not kept[values.index((2**31 - 1) ** 2 + 1)]


@pytest.mark.parametrize("cells", [1, 7, 40, 1 << 14])
@pytest.mark.parametrize("n, m", [(3, 3), (3, 4), (4, 3), (5, 5), (3, 0)])
def test_prefiltered_cells_cover_the_pair_scan(n, m, cells, monkeypatch):
    # With a prefilter that keeps everything, the blocks must tile the scan;
    # m = 0 is the column of the literal 1, the one base y = 1.
    monkeypatch.setattr(search, "_PREFILTER_CELLS", cells)
    M = 1 << 16
    hi = search._max_base(M, n)
    first, end = (1, 2) if m == 0 else (2, search._max_base(M, m) + 1)
    for lo_, hi_ in ((2, hi), (2, hi // 2), (hi // 2 + 1, hi)):
        got = [(x, y) for x, y in search._prefiltered_cells(M, n, m, lo_, hi_,
                                                             _keep_all, n == m, first)
               if y < x or n != m]
        want = [(x, y) for x in range(lo_, hi_ + 1)
                for y in range(first, x if n == m else end)]
        assert sorted(got) == want


# Coefficient triples the fc block keep is checked on; the last is past the
# int64 bound at 2**20 (max(A + B, C) * M = 2**64), so it runs the scalar loop.
FC_COEFFS = [(1, 1, 1), (1, 2, 3), (3, 1, 1), (1, 1, 2), (1, 7, 8), (2, 3, 5),
             (2**43, 2**43, 2**44)]


# Blocks of 7 cells cost a numpy pass each; two triples take them, one with
# c > 1.  The ids name the triple, but for the plain (1, 1, 1).
@pytest.mark.parametrize("coeffs, cells", [
    pytest.param(c, cells, id=("" if c == (1, 1, 1) else "%d,%d,%d-" % c) + str(cells))
    for c, cells in [(c, 1 << 14) for c in FC_COEFFS] + [((1, 1, 1), 7), ((1, 1, 2), 7)]])
def test_fc_pair_unit_prefilter_matches_scalar_loop(coeffs, cells, monkeypatch):
    monkeypatch.setattr(search, "_PREFILTER_CELLS", cells)
    # f_bound 3/2 keeps every exponent pair, (3, 3) included, and fcone 2
    cfg = make_config("fermat-catalan", max_bits=20, f_bound=Fraction(3, 2),
                      coeffs=coeffs)
    M = cfg.max_value
    A, B, C = coeffs
    assert (search._fc_keep(cfg) is None) == (max(A + B, C) * M > 2**63)
    power_set = search._power_value_set(M)
    units = search._mode_units(cfg)
    assert {(u["e1"], u["e2"]) for u in units if u["kind"] == "fcpair"} >= {
        (3, 3), (3, 4), (4, 4)}
    assert {u["e1"] for u in units if u["kind"] == "fcone"} >= {2, 3, 4}
    for kind in ("fcpair", "fcone"):
        fast, slow = {}, {}
        for u in (u for u in units if u["kind"] == kind):
            search._UNIT_RUNNERS[kind](cfg, u, fast)
            e1, e2, xlo, xhi = u["e1"], u["e2"], u["xlo"], u["xhi"]
            pairs = (search._pairs(M, "coprime", e1, e2, xlo, xhi) if e2
                     else ((x**e1, 1) for x in range(xlo, xhi + 1)))
            for P, Q in pairs:
                search._fc_try_pair(cfg, P, Q, power_set, slow)
        assert canon_json(sorted(fast.items())) == canon_json(sorted(slow.items()))
        assert len(fast) > (50 if kind == "fcpair" else 0), kind  # fcone: 8 + 1 = 9


@pytest.mark.parametrize("coeffs", FC_COEFFS[:-1], ids="%d,%d,%d".__mod__)
def test_fc_keep_holds_every_cell_with_a_record(coeffs):
    # Every coprime cell of every planned unit at a small bound: where
    # `_fc_try_pair` writes a record, the block keep keeps the cell.
    cfg = make_config("fermat-catalan", max_bits=14, f_bound=Fraction(2),
                      coeffs=coeffs)
    M = cfg.max_value
    keep, power_set = search._fc_keep(cfg), search._power_value_set(M)
    cells = with_record = 0
    for u in search._mode_units(cfg):
        if u["kind"] == "fcwild":
            continue
        pn, pm = search._powers(M, u["e1"]), search._powers(M, u["e2"])
        ys = range(1 if u["e2"] == 0 else 2, len(pm))
        kept = keep(np.array(pn, dtype=np.int64)[:, None],
                    np.array(pm, dtype=np.int64)[None, :])
        for x in range(u["xlo"], u["xhi"] + 1):
            for y in (y for y in ys if math.gcd(x, y) == 1):
                acc = {}
                search._fc_try_pair(cfg, max(pn[x], pm[y]), min(pn[x], pm[y]),
                                    power_set, acc)
                cells += 1
                with_record += bool(acc)
                assert kept[x, y] or not acc, (u, x, y, acc)
    assert cells > 10000 and with_record > 20, (cells, with_record)


def _fc_wild_reference(cfg, acc):
    """The fcwild unit as its three slot layouts, written out."""
    A, B, C = cfg.coeffs
    if (A + B) % C == 0:
        search._merge_into(acc, search._fc_candidate(cfg, 1, 1, (A + B) // C))
    if C - A > 0 and (C - A) % B == 0:
        search._merge_into(acc, search._fc_candidate(cfg, 1, (C - A) // B, 1))
    if C - B > 0 and (C - B) % A == 0:
        search._merge_into(acc, search._fc_candidate(cfg, (C - B) // A, 1, 1))


def test_fc_wild_unit_matches_the_three_layouts():
    found = 0
    for coeffs in itertools.product(range(1, 7), repeat=3):
        cfg = make_config("fermat-catalan", max_bits=8, coeffs=coeffs)
        unit, = (u for u in search._mode_units(cfg) if u["kind"] == "fcwild")
        fast, slow = {}, {}
        search._UNIT_RUNNERS["fcwild"](cfg, unit, fast)
        _fc_wild_reference(cfg, slow)
        assert canon_json(sorted(fast.items())) == canon_json(sorted(slow.items())), (
            coeffs)
        found += len(slow)
    assert found > 10


def test_product_prefilter_keeps_every_decomposable_value():
    M = 1 << 16
    t = np.arange(1, M + 2, dtype=np.int64)
    for d in range(3, 9):
        for s in range(0, 5):
            kept = search._maybe_product(t, M, [(d, s)])
            for v in t[~kept].tolist():
                assert v > M or not decompose(v, d, s), (v, d, s)
            assert not kept[-1]  # M + 1
            if d == 3:  # a cube root near 40 leaves few divisor candidates
                assert kept[:-1].mean() < 0.25, (d, s)

    # Near the int64 limit: powers, their neighbours and products b**(d-1)*(b+s).
    M = 1 << 62
    for d in range(3, 9):
        root = arith.iroot(M, d)[0]
        for s in range(0, 5):
            values = set()
            for k in range(root - 30, root + 2):
                values |= {k**d - 1, k**d, k**d + 1, k ** (d - 1) * (k + s)}
            values = sorted(v for v in values if 1 <= v < 2**63)
            kept = search._maybe_product(np.array(values, dtype=np.int64), M,
                                         [(d, s)])
            hits = [bool(v <= M and decompose(v, d, s)) for v in values]
            assert sum(hits) > 20
            assert all(k for k, h in zip(kept.tolist(), hits) if h), (d, s)
            assert not search._maybe_product(np.array([M + 1]), M, [(d, s)])[0]


def _scalar_product_unit(cfg, unit, acc):
    """`_run_product_unit` as the plain `_pairs` + `decompose` loop."""
    n, m = unit["e1"], unit["e2"]
    survey = cfg.mode == "survey"
    if survey:
        cell = [n, m, unit["d"]]
        acc.setdefault(("survey", tuple(cell)),
                       {"mode": "survey", "cell": cell, "count": 0, "solutions": []})
    caps = search._degree_caps(cfg, unit)
    M = cfg.max_value
    relation = "coprime" if cfg.mode == "gbtz" else "nonmaxgcd"
    floor_s = 1 if cfg.mode == "nonmaxgcd3" else 0
    for P, Q in search._pairs(M, relation, n, m, unit["xlo"], unit["xhi"],
                              ordered=survey):
        for sign in search._signs(cfg):
            Z = P + Q if sign == "plus" else P - Q
            if not 1 <= Z <= M:
                continue
            for d, cap in caps:
                if not [w for w in decompose(Z, d, cap) if w.spread >= floor_s]:
                    continue
                if survey:
                    sol = search._product_record(cfg, sign, P, Q, Z, d, (n, m))
                    search._merge_into(acc, {"mode": "survey", "cell": cell,
                                             "count": 1, "solutions": [sol]})
                else:
                    search._merge_into(
                        acc, search._product_record(cfg, sign, P, Q, Z, d))


@pytest.mark.parametrize("cells", [7, 1 << 14])
@pytest.mark.parametrize("mode, extra", [
    ("gbtz", {"max_bits": 20, "f_bound": Fraction(3, 2)}),
    ("nonmaxgcd3", {"max_bits": 24}),
    ("fp", {"max_bits": 24, "f_bound": Fraction(2)}),
    ("survey", {"max_bits": 18, "n_range": (3, 5), "m_range": (3, 5),
                "degree": (3, 5)}),
    ("gbtz", {"max_bits": 20, "f_bound": Fraction(2), "sign": "plus"}),
    ("gbtz", {"max_bits": 20, "f_bound": Fraction(2), "sign": "minus"}),
])
def test_product_unit_prefilter_matches_scalar_loop(mode, extra, cells,
                                                    monkeypatch):
    monkeypatch.setattr(search, "_PREFILTER_CELLS", cells)
    cfg = make_config(mode, **extra)
    units = search._mode_units(cfg)
    if mode == "survey":  # both n == m and n != m cells
        assert {u["e1"] == u["e2"] for u in units} == {True, False}
    fast, slow = {}, {}
    for u in units:
        search._run_product_unit(cfg, u, fast)
        _scalar_product_unit(cfg, u, slow)
    assert canon_json(sorted(fast.items())) == canon_json(sorted(slow.items()))
    found = [r for r in fast.values() if r.get("count", 1)]
    assert len(found) >= 2, mode


def test_search_gcd_quality_matches_full_factoring():
    cfg = make_config("maxgcd-spread1", max_bits=36)
    recs = _records(cfg)
    assert len(recs) > 5 and any(r["gcd_quality"] != "1" for r in recs)
    for rec in recs:
        g, quality = arith.gcd_quality(rec["p"], rec["q"])
        assert (rec["gcd"], rec["gcd_quality"]) == (g, str(quality))
    _assert_all_verify(recs, cfg)
    rec = next(r for r in recs if r["gcd_quality"] != "1")
    assert verify_record(dict(rec, gcd_quality="1"), cfg) == [
        "stored gcd_quality wrong"]


def test_fc_pair_needed_enumerates_third_exponents():
    def weight_ok(cfg, w):
        return w < cfg.f_bound if cfg.f_strict else w <= cfg.f_bound

    for f_bound in (Fraction(9, 10), Fraction(1), Fraction(21, 20),
                    Fraction(13, 12), Fraction(5, 4), Fraction(3, 2)):
        for strict in (True, False):
            for min_exp, max_exp, cap in ((2, 113, 113), (3, 113, 113),
                                          (4, 113, 113), (2, 5, 113),
                                          (2, 113, 3), (2, 113, 2),
                                          (2, 113, 1), (3, 7, 4)):
                cfg = make_config("fermat-catalan", max_bits=30, f_bound=f_bound,
                                  f_strict=strict, min_exp=min_exp,
                                  max_exp=max_exp, min_exp_cap=cap)
                for e1 in range(min_exp, min(max_exp, 12) + 1):
                    # e2 = 0: fcone e1, whose wildcard term weighs 0
                    for e2 in (0, *range(e1, min(max_exp, 12) + 1)):
                        pair = Fraction(1, e1) + (Fraction(1, e2) if e2 else 0)
                        third = any(
                            e3 <= cap and weight_ok(cfg, pair + Fraction(1, e3))
                            for e3 in range(max(2, min_exp), e1 + 1)
                        )
                        assert search._fc_pair_needed(cfg, e1, e2) == third, (
                            cfg, e1, e2)
    default = make_config("fermat-catalan")
    assert not search._fc_pair_needed(default, 3, 3)
    assert search._fc_pair_needed(default, 3, 4)
    # no square: fcone 2 and every (2, e2) would need a square third term
    assert not any(search._fc_pair_needed(default, 2, e2) for e2 in (0, *range(2, 35)))
    assert search._fc_pair_needed(default, 3, 0)


# ---------------------------------------------------------------------------
# config


def test_make_config_defaults_and_validation():
    cfg = make_config("fermat-catalan")
    assert (cfg.max_bits, cfg.sign) == (34, "plus")
    cfg = make_config("gbtz", max_bits=20)
    assert cfg.degree == (3, 10)
    with pytest.raises(ValueError):
        make_config("no-such-mode")
    with pytest.raises(ValueError):
        make_config("fermat-catalan", sign="sideways")
    with pytest.raises(ValueError):
        make_config("fermat-catalan", max_bits=0)
    with pytest.raises(ValueError):
        make_config("pillai")  # difference is required
    with pytest.raises(ValueError):
        make_config("survey")  # n_range/m_range required
    with pytest.raises(ValueError):
        make_config("gbtz", coeffs=(2, 1, 1))
    for shape in ({"n_range": (5,)}, {"n_range": (5, 3)}, {"m_range": (0, 3)},
                  {"m_range": (2, 3, 4)}):
        with pytest.raises(ValueError):
            make_config("survey", **dict({"n_range": (2, 3), "m_range": (2, 3)},
                                         **shape))
    with pytest.raises(ValueError):
        make_config("fermat-catalan", coeffs=(1, 2))
    # None stands for "not given" only where the dataclass default is None
    for name in ("f_bound", "f_strict", "min_exp", "max_exp", "min_exp_cap",
                 "coeffs"):
        with pytest.raises(ValueError, match=name):
            make_config("gbtz", **{name: None})
    for name in ("max_bits", "sign"):
        with pytest.raises(ValueError, match=name):
            SearchConfig(mode="gbtz", **dict({"max_bits": 20}, **{name: None}))
    assert make_config("gbtz", max_spread=None).max_spread is None
    # nonmaxgcd3 is the degree-3 mode; another degree range is refused
    assert make_config("nonmaxgcd3").degree == (3, 3)
    for degree in ((4, 6), (3, 5), (2, 3)):
        with pytest.raises(ValueError, match="degree"):
            make_config("nonmaxgcd3", degree=degree)


def test_config_round_trip_and_digest():
    cfg = make_config("fermat-catalan", max_bits=14, f_bound="41/42")
    again = SearchConfig.from_dict(cfg.semantic_dict())
    assert again == cfg
    assert again.digest() == cfg.digest()
    other = make_config("fermat-catalan", max_bits=15, f_bound="41/42")
    assert other.digest() != cfg.digest()
    # digests name result logs and checkpoints, so they must never drift
    assert make_config("fermat-catalan", max_bits=35).digest() == (
        "aebe0de369a7452faa5a0e86dd0c1d0c2b64507cf8961612bf6bf76f59c8a945")
    survey = make_config("survey", max_bits=22, n_range=(2, 5), m_range=(2, 5),
                         degree=(2, 5))
    assert survey.digest() == (
        "38452dd5e5d0d2ca57295f6c20fbb7b18efa8d3ee54e2853c16c892ca72b1739")


def test_aliased_configs_share_a_digest_and_a_plan():
    # maxgcd-spread1 caps the spread at 1 and fp scans degrees from 4 up, so
    # these values name the default search and take its digest and plan
    for mode, alias in (("maxgcd-spread1", {"max_spread": 5}),
                        ("fp", {"degree": (2, 21)})):
        cfg = make_config(mode, max_bits=24)
        same = make_config(mode, max_bits=24, **alias)
        assert same == cfg and same.digest() == cfg.digest()
        assert search.plan_chunks(same, 4) == search.plan_chunks(cfg, 4)
    assert make_config("maxgcd-spread1", max_bits=24).digest()[:12] == "84b9eba4d271"
    assert make_config("fp", max_bits=24).digest()[:12] == "7e71a20cc3c5"
    assert make_config("maxgcd-spread1", max_spread=0).max_spread == 0
    assert make_config("fp", degree=(3, 6)).degree == (4, 6)
    with pytest.raises(ValueError, match="fp mode scans degrees 4 and up"):
        make_config("fp", degree=(2, 3))
    # gbtz scans degrees from 3 up and maxgcd-spread1 n from 2 up, so a lower
    # low end names the same search; the default digests stay as they were
    for mode, alias, canonical, digest in (
            ("gbtz", (1, 10), (3, 10), "34fe219e7e02"),
            ("maxgcd-spread1", (1, 10), (2, 10), "7035b6407e76")):
        cfg = make_config(mode, max_bits=24, degree=canonical)
        same = make_config(mode, max_bits=24, degree=alias)
        assert same == cfg and same.digest()[:12] == digest
        assert search.plan_chunks(same, 4) == search.plan_chunks(cfg, 4)
    assert make_config("gbtz", max_bits=24).digest()[:12] == "34fe219e7e02"
    assert make_config("gbtz", degree=(2, 4)).degree == (3, 4)
    # a config built directly folds the same aliases
    assert SearchConfig(mode="gbtz", max_bits=24,
                        degree=(1, 10)).digest()[:12] == "34fe219e7e02"
    assert SearchConfig(mode="fp", max_bits=24,
                        degree=(2, 21)).digest()[:12] == "7e71a20cc3c5"
    with pytest.raises(ValueError, match="fp mode scans degrees 4 and up"):
        SearchConfig(mode="fp", max_bits=24, degree=(2, 3))
    with pytest.raises(ValueError, match="gbtz mode scans degrees 3 and up"):
        make_config("gbtz", degree=(1, 2))
    with pytest.raises(ValueError, match="maxgcd-spread1 mode scans degrees 2 and up"):
        make_config("maxgcd-spread1", degree=(1, 1))


# What each mode reads; every other field must keep its mode default.
_READS = {
    "fermat-catalan": "min_exp max_exp min_exp_cap f_bound f_strict coeffs",
    "gbtz": "sign min_exp max_exp degree max_spread f_bound f_strict",
    "nonmaxgcd3": "sign min_exp max_exp degree max_spread f_bound f_strict",
    "fp": "sign degree max_spread f_bound f_strict",
    "maxgcd-spread1": "sign degree max_spread",
    "pillai": "degree max_spread f_bound f_strict m_bound difference",
    "survey": "sign degree n_range m_range max_spread f_bound f_strict",
}
_REQUIRED = {"pillai": {"difference": 1},
             "survey": {"n_range": (2, 4), "m_range": (2, 4)}}
_AWAY = {"sign": "minus", "min_exp": 3, "max_exp": 50, "min_exp_cap": 5,
         "degree": (3, 4), "n_range": (2, 3), "m_range": (2, 3), "max_spread": 1,
         "f_bound": Fraction(1, 2), "f_strict": False, "m_bound": Fraction(1),
         "difference": 3, "coeffs": (1, 2, 3)}


@pytest.mark.parametrize("mode", search.MODES)
def test_config_holds_only_the_fields_its_mode_reads(mode):
    assert set(_AWAY) == set(SearchConfig.__dataclass_fields__) - {"mode", "max_bits"}
    reads = {"max_bits"} | set(_READS[mode].split())
    cfg = make_config(mode, **_REQUIRED.get(mode, {}))
    for name, value in _AWAY.items():
        if name in reads:
            continue
        assert getattr(cfg, name) != value, name
        with pytest.raises(ValueError, match=f"^{mode} mode does not use {name}$"):
            make_config(mode, **dict(_REQUIRED.get(mode, {}), **{name: value}))
    assert set(cfg.semantic_dict()) == {"mode", "format"} | reads
    again = SearchConfig.from_dict(cfg.semantic_dict())
    assert again == cfg and again.digest() == cfg.digest()


def test_spread_cap():
    # 1/3 + 1/3 + 1/3 = 1 is not strictly below 1, so no spread qualifies
    assert search._spread_cap(3, 3, 3, Fraction(1), True) == -1
    assert search._spread_cap(3, 3, 3, Fraction(1), False) == 0
    assert search._spread_cap(4, 14, 3, Fraction(1), True) == 1
    assert search._spread_cap(5, 5, 5, Fraction(1), True) == 1
    assert search._spread_cap(5, 5, 5, Fraction(1), False) == 2
    # exact check: every spread up to the cap satisfies the inequality
    for n, m, d in ((3, 4, 3), (4, 6, 4), (5, 7, 5), (9, 9, 8)):
        cap = search._spread_cap(n, m, d, Fraction(1), True)
        for s in range(0, cap + 1):
            assert Fraction(1, n) + Fraction(1, m) + Fraction(1 + s, d) < 1
        assert Fraction(1, n) + Fraction(1, m) + Fraction(2 + cap, d) >= 1


# ---------------------------------------------------------------------------
# fermat-catalan mode


FC_TRIPLES_14 = [
    (1, 8, 9),
    (32, 49, 81),
    (169, 343, 512),
    (128, 4913, 5041),
    (243, 14641, 14884),
]


def test_fc_small_bounds():
    cfg = make_config("fermat-catalan", max_bits=7)
    recs = _records(cfg)
    assert [tuple(r["values"]) for r in recs] == FC_TRIPLES_14[:2]
    _assert_all_verify(recs, cfg)

    cfg = make_config("fermat-catalan", max_bits=13)
    recs = _records(cfg)
    assert [tuple(r["values"]) for r in recs] == [
        (1, 8, 9), (32, 49, 81), (169, 343, 512), (128, 4913, 5041),
    ]


def test_fc_at_2_14():
    cfg = make_config("fermat-catalan", max_bits=14)
    recs = _records(cfg)
    assert [tuple(r["values"]) for r in recs] == FC_TRIPLES_14
    assert [r["weight"] for r in recs] == [
        "5/6", "19/20", "17/18", "41/42", "19/20",
    ]
    assert recs[0]["assignment"] == [0, 3, 2]
    assert recs[0]["reps"] == [[], [[2, 3]], [[3, 2]]]
    assert all(r["sign"] == "plus" and r["coeffs"] == [1, 1, 1] for r in recs)
    _assert_all_verify(recs, cfg)
    ok, msg = search.expectation_report(cfg, recs)
    assert ok, msg


def test_fc_monotone_in_bound():
    small = {tuple(r["values"]) for r in _records(make_config("fermat-catalan", max_bits=13))}
    large = {tuple(r["values"]) for r in _records(make_config("fermat-catalan", max_bits=14))}
    assert small <= large


def test_fc_expected_triples_helper():
    cfg = make_config("fermat-catalan", max_bits=14)
    assert search.expected_fc_triples(cfg) == sorted(FC_TRIPLES_14)
    cfg = make_config("fermat-catalan", max_bits=7)
    assert search.expected_fc_triples(cfg) == FC_TRIPLES_14[:2]


def test_fc_with_coefficients():
    # 3*1 + 1*1 = 1*4 exercises the general-coefficient wildcard path
    cfg = make_config("fermat-catalan", max_bits=8, coeffs=(3, 1, 1))
    recs = _records(cfg)
    assert any(r["values"] == [1, 1, 4] for r in recs)
    _assert_all_verify(recs, cfg)


# ---------------------------------------------------------------------------
# product-target modes


def test_nonmaxgcd3_at_2_24():
    cfg = make_config("nonmaxgcd3", max_bits=24)
    recs = _records(cfg)
    assert [(r["p"], r["q"], r["z"]) for r in recs] == [
        (20736, 16384, 4352),
        (331776, 65536, 266240),
        (1679616, 262144, 1417472),
    ]
    assert [r["witness"] for r in recs] == [
        [16, 16, 17], [64, 64, 65], [112, 112, 113],
    ]
    assert recs[0]["assignments"] == [[4, 14]]
    assert recs[1]["assignments"] == [[4, 16]]
    assert recs[2]["assignments"] == [[4, 18], [8, 6], [8, 9], [8, 18]]
    assert all(r["sign"] == "minus" and not r["maxgcd"] for r in recs)
    _assert_all_verify(recs, cfg)
    ok, msg = search.expectation_report(cfg, recs)
    assert ok, msg


def test_gbtz_empty_at_2_20():
    cfg = make_config("gbtz", max_bits=20)
    recs = _records(cfg)
    assert recs == []
    ok, _ = search.expectation_report(cfg, recs)
    assert ok


def test_fp_empty_at_2_24():
    cfg = make_config("fp", max_bits=24)
    recs = _records(cfg)
    assert recs == []
    ok, _ = search.expectation_report(cfg, recs)
    assert ok


def test_maxgcd_spread1_at_2_26():
    cfg = make_config("maxgcd-spread1", max_bits=26, degree=(5, 5))
    recs = _records(cfg)
    got = [(r["sign"], r["p"], r["q"], r["z"], tuple(r["witness"]), r["standard"])
           for r in recs]
    assert got == [
        ("plus", 1, 1, 2, (1, 1, 1, 1, 2), [1, 1]),
        ("minus", 32**5, 16**5, 32505856, (31, 32, 32, 32, 32), [1, 2]),
        ("plus", 32**5, 16**5, 34603008, (32, 32, 32, 32, 33), [1, 2]),
    ]
    assert all(r["maxgcd"] for r in recs)
    _assert_all_verify(recs, cfg)
    ok, msg = search.expectation_report(cfg, recs)
    assert ok, msg


# ---------------------------------------------------------------------------
# pillai and survey modes


def test_pillai_examples():
    recs = _records(make_config("pillai", difference=1, max_bits=10,
                                f_bound="9/10"))
    assert [(r["x"], r["z"]) for r in recs] == [(8, 9)]
    assert recs[0]["x_witness"] == [2, 2, 2]
    assert recs[0]["z_witness"] == [3, 3]
    assert recs[0]["weight"] == "5/6"

    recs = _records(make_config("pillai", difference=2, max_bits=10,
                                f_bound="9/10"))
    assert [(r["x"], r["z"]) for r in recs] == [(25, 27)]

    recs = _records(make_config("pillai", difference=1, max_bits=3,
                                f_bound="1/2"))
    assert recs == []


def _pillai_per_degree_reference(cfg):
    """The per-degree scan the join replaced: Z of each degree, decompose(Z - B)."""
    lo, hi = cfg.degree or (2, cfg.max_bits)
    s = cfg.max_spread or 0
    acc = {}
    for d in range(lo, hi + 1):
        cons = SpreadConstraints(degree=d, max_spread=s,
                                 max_spread_sq_over_base=cfg.m_bound)
        for zdec in enumerate_products(cons, cfg.max_value):
            X = zdec.value - cfg.difference
            if X < 1:
                continue
            for dx in range(lo, hi + 1):
                for xdec in decompose(X, dx, s):
                    rec = search._pillai_record(cfg, xdec, zdec)
                    if rec is not None:
                        search._merge_into(acc, rec)
    return sorted(acc.values(), key=search._record_sort_key)


@pytest.mark.parametrize("extra", [
    {"max_bits": 16},
    {"max_bits": 20},
    {"max_bits": 24},
    {"max_bits": 20, "max_spread": 0},
    {"max_bits": 20, "difference": 3},
    {"max_bits": 20, "degree": (2, 5)},
    {"max_bits": 20, "m_bound": "1/2"},
    {"max_bits": 14, "degree": (1, 6)},
    {"max_bits": 16, "max_spread": 1, "f_bound": 1, "f_strict": True},
])
def test_pillai_join_matches_per_degree_scan(extra):
    cfg = make_config("pillai", **dict({"difference": 1, "max_spread": 2}, **extra))
    want = _pillai_per_degree_reference(cfg)
    assert want
    for n_chunks in (1, 16):
        assert _records(cfg, n_chunks=n_chunks) == want


def test_pillai_plan_splits_the_value_range():
    cfg = make_config("pillai", difference=1, max_bits=20, max_spread=2)
    plan = search.plan_chunks(cfg, 16)
    pieces = sorted((u["xlo"], u["xhi"]) for g in plan for u in g)
    assert len(plan) == len(pieces) == 16
    assert pieces[0][0] == 1 and pieces[-1][1] == cfg.max_value
    assert all(a[1] + 1 == b[0] for a, b in zip(pieces, pieces[1:]))


def test_pillai_index_refused_up_front(monkeypatch):
    def no_index(*args, **kwargs):
        raise AssertionError("the index must not be built")

    monkeypatch.setattr(search, "enumerate_products", no_index)
    cfg = make_config("pillai", difference=1, degree=(1, 3), max_bits=40)
    with pytest.raises(MemoryError, match="--chunks"):
        run_chunked(cfg, n_chunks=16)


def test_check_memory_at_a_degree_past_the_recursion_limit():
    # the class bound passes the budget, so the classes are counted exactly
    cfg = make_config("pillai", difference=1, degree=(1000, 1000), max_bits=20,
                      max_spread=2)
    plan = search.plan_chunks(cfg, 16)
    assert search._pillai_index_bytes(cfg, plan[0][0], 1 << 80) > 4 << 30
    search._check_memory(cfg, plan, 1)


@pytest.mark.parametrize("extra", [
    {"max_bits": 20},
    {"max_bits": 16, "degree": (1, 6), "max_spread": 3},
    {"max_bits": 24, "m_bound": "1/2"},
    {"max_bits": 18, "difference": 5, "max_spread": 0},
    {"max_bits": 16, "max_spread": 8},
    {"max_bits": 18, "max_spread": 12, "degree": (16, 18)},
    {"max_bits": 20, "degree": (1000, 1000)},  # past the recursion limit
])
def test_pillai_index_bytes_count_the_index(extra):
    # the class bound covers every entry a unit indexes; asked for more
    # than it allows, the class counts are exact but for the s^2/b bound
    cfg = make_config("pillai", **dict({"difference": 1, "max_spread": 2}, **extra))
    per_entry, per_factor = search._PILLAI_ENTRY_BYTES
    for unit in (u for g in search.plan_chunks(cfg, 8) for u in g):
        real = sum(per_entry + per_factor * p.degree for p in enumerate_products(
            search._pillai_constraints(cfg), unit["xhi"],
            max(1, unit["xlo"] - cfg.difference)))
        loose = search._pillai_index_bytes(cfg, unit, 1 << 80)
        exact = search._pillai_index_bytes(cfg, unit, loose - 1)
        assert real <= exact <= loose
        assert exact == real or cfg.m_bound is not None


@pytest.mark.parametrize("obj", [
    [], [1], [{"b": 1, "a": [2, 3]}, "x"], [[], [[1, 2], [3]], [{}]],
    ((1, 2), [3]), {"k": [1, 2]}, "s", 7,
])
def test_sha256_equals_digest_of_canonical_json(obj):
    # lists are hashed item by item; the bytes must be those of canon_json
    assert search._sha256(obj) == hashlib.sha256(canon_json(obj).encode()).hexdigest()


def test_pillai_verify_and_api():
    cfg = make_config("pillai", difference=1, max_bits=10, f_bound="9/10")
    recs = _records(cfg)
    _assert_all_verify(recs, cfg)
    assert [(s["x"], s["z"]) for s in recs] == [(8, 9)]


def test_survey_small_grid():
    cfg = make_config("survey", max_bits=16, n_range=(3, 5), m_range=(3, 5),
                      degree=(2, 4))
    recs = _records(cfg)
    counts = {tuple(r["cell"]): r["count"] for r in recs}
    assert len(counts) == 27  # every cell reported, zeros included
    assert {k: v for k, v in counts.items() if v} == {
        (3, 4, 3): 1, (4, 3, 3): 1, (5, 3, 3): 1,
    }
    # degree-2 cells are vacuous, matching-degree cells were fully checked
    assert all(v == 0 for (n, m, d), v in counts.items() if d == 2)
    _assert_all_verify(recs, cfg)


def test_survey_cell_4_14_3():
    cfg = make_config("survey", max_bits=28, n_range=(4, 4), m_range=(14, 14),
                      degree=(3, 3))
    recs = _records(cfg)
    assert len(recs) == 1 and recs[0]["cell"] == [4, 14, 3]
    assert recs[0]["count"] >= 1
    sols = {(s["p"], s["q"], s["z"]) for s in recs[0]["solutions"]}
    assert (20736, 16384, 4352) in sols
    _assert_all_verify(recs, cfg)


# ---------------------------------------------------------------------------
# chunking, determinism, checkpointing


def test_chunk_plan_covers_and_balances():
    cfg = make_config("fermat-catalan", max_bits=13)
    for n_chunks in (1, 3, 16):
        plan = search.plan_chunks(cfg, n_chunks)
        assert 1 <= len(plan) <= n_chunks
        assert all(plan)
    with pytest.raises(ValueError):
        search.plan_chunks(cfg, 0)
    # Splitting goes on past one-base pieces until n_chunks pieces exist or
    # none splits: cells with a large n have one base, others many.
    cfg = make_config("survey", max_bits=26, n_range=(3, 26), m_range=(3, 3),
                      degree=(3, 3))
    for n_chunks in (16, 64, 256):
        pieces = [u for g in search.plan_chunks(cfg, n_chunks) for u in g]
        assert len(pieces) >= n_chunks or all(u["xhi"] <= u["xlo"] for u in pieces)
        assert search.plan_chunks(cfg, n_chunks) == _plan_chunks_resorting(
            cfg, n_chunks)
    assert len(pieces) == 201


def _plan_chunks_resorting(cfg, n_chunks):
    """plan_chunks as a plain loop that re-sorts every piece on each split."""
    pieces, whole = search._mode_units(cfg), []
    while pieces and len(pieces) + len(whole) < n_chunks:
        pieces.sort(key=lambda u: (-u["cost"],) + search._unit_order_key(u))
        head = pieces.pop(0)
        if head["xhi"] <= head["xlo"]:
            whole.append(head)
            continue
        mid = (head["xlo"] + head["xhi"]) // 2
        left = dict(head, xhi=mid, cost=head["cost"] // 2)
        right = dict(head, xlo=mid + 1, cost=head["cost"] - head["cost"] // 2)
        pieces += [left, right]
    pieces = sorted(pieces + whole, key=search._unit_order_key)
    groups = [[] for _ in range(min(n_chunks, max(len(pieces), 1)))]
    loads = [0] * len(groups)
    for i in sorted(range(len(pieces)), key=lambda i: (-pieces[i]["cost"], i)):
        g = loads.index(min(loads))
        groups[g].append(pieces[i])
        loads[g] += max(pieces[i]["cost"], 1)
    for g in groups:
        g.sort(key=search._unit_order_key)
    return groups


@pytest.mark.parametrize("mode", search.MODES)
def test_plan_chunks_matches_resorting_loop(mode):
    extra = {"pillai": {"difference": 1},
             "survey": {"n_range": (3, 6), "m_range": (3, 6)}}.get(mode, {})
    cfg = make_config(mode, **extra)
    for n_chunks in (1, 16, 64, 300):
        assert search.plan_chunks(cfg, n_chunks) == _plan_chunks_resorting(
            cfg, n_chunks)


@pytest.mark.parametrize("mode, extra", [
    ("gbtz", {"max_exp": 2}),
    ("fp", {"degree": (11, 21)}),  # 2^10 has no 11th power of a base >= 3
    ("maxgcd-spread1", {"degree": (11, 11)}),  # 2^10 has no 11th power of a base >= 2
    # nonmaxgcd3 wants spread >= 1, and max_spread allows only 0
    ("nonmaxgcd3", {"f_bound": Fraction(3, 2), "max_spread": 0}),
])
def test_zero_unit_plan_is_one_empty_group(mode, extra):
    cfg = make_config(mode, max_bits=10, **extra)
    assert search._mode_units(cfg) == []
    assert search.plan_chunks(cfg, 1) == search.plan_chunks(cfg, 16) == [[]]
    assert _records(cfg, n_chunks=16) == []


def test_records_independent_of_chunking_and_threads():
    cfg = make_config("fermat-catalan", max_bits=13)
    baseline = canon_json(_records(cfg, n_chunks=1))
    assert canon_json(_records(cfg, n_chunks=7)) == baseline
    assert canon_json(_records(cfg, n_chunks=16)) == baseline
    assert canon_json(_records(cfg, n_chunks=16, threads=2)) == baseline

    cfg = make_config("nonmaxgcd3", max_bits=22)
    assert canon_json(_records(cfg, n_chunks=1)) == canon_json(
        _records(cfg, n_chunks=9)
    )

    # survey cells split on their base ranges like every other product unit
    cfg = make_config("survey", max_bits=18, n_range=(3, 5), m_range=(3, 5),
                      degree=(3, 5))
    assert any(u["xlo"] > 2 for g in search.plan_chunks(cfg, 64) for u in g)
    baseline = canon_json(_records(cfg, n_chunks=1))
    assert canon_json(_records(cfg, n_chunks=64)) == baseline
    assert canon_json(_records(cfg, n_chunks=64, threads=2)) == baseline


def test_checkpoint_interrupt_and_resume(tmp_path):
    cfg = make_config("fermat-catalan", max_bits=13)
    baseline = canon_json(_records(cfg, n_chunks=8))
    ckpt = str(tmp_path / "run.ckpt")
    first = run_chunked(cfg, n_chunks=8, checkpoint_path=ckpt, max_chunks=3)
    assert not first.completed
    assert first.chunks_run == 3
    assert first.records == []
    state = search.load_checkpoint(ckpt)
    assert state["config_digest"] == cfg.digest()
    assert len(state["done"]) == 3

    second = run_chunked(cfg, checkpoint_path=ckpt, resume=True)
    assert second.completed
    assert second.chunks_run == second.chunks_total - 3
    assert canon_json(second.records) == baseline

    # resuming a finished run reruns nothing and returns the same records
    third = run_chunked(cfg, checkpoint_path=ckpt, resume=True)
    assert third.completed and third.chunks_run == 0
    assert canon_json(third.records) == baseline


def test_checkpoint_config_mismatch(tmp_path):
    ckpt = str(tmp_path / "run.ckpt")
    cfg = make_config("fermat-catalan", max_bits=13)
    run_chunked(cfg, n_chunks=4, checkpoint_path=ckpt, max_chunks=1)
    other = make_config("fermat-catalan", max_bits=14)
    with pytest.raises(CheckpointMismatch):
        run_chunked(other, checkpoint_path=ckpt, resume=True)
    with pytest.raises(ValueError):
        run_chunked(cfg, resume=True)  # no path given


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(CheckpointMismatch):
        search.load_checkpoint(str(path))
    cfg = make_config("fermat-catalan", max_bits=10)
    run_chunked(cfg, n_chunks=2, checkpoint_path=str(path), max_chunks=1)
    state = json.loads(path.read_text())
    broken = ["{not json", "[1, 2]", json.dumps(dict(state, n_chunks=0))] + [
        json.dumps({k: v for k, v in state.items() if k != key})
        for key in ("config_digest", "plan_digest", "n_chunks", "done", "done_sha256")
    ]
    for text in broken:
        path.write_text(text)
        with pytest.raises(CheckpointMismatch):
            search.load_checkpoint(str(path))


def test_checkpoint_binds_plan_and_verifies_records(tmp_path):
    cfg = make_config("fermat-catalan", max_bits=13)
    ckpt = tmp_path / "run.ckpt"
    run_chunked(cfg, n_chunks=4, checkpoint_path=str(ckpt), max_chunks=2)
    state = json.loads(ckpt.read_text())
    plan = search.plan_chunks(cfg, 4)
    assert state["plan_digest"] == hashlib.sha256(canon_json(plan).encode()).hexdigest()

    def refused(**changes):
        path = tmp_path / "tampered.ckpt"
        path.write_text(json.dumps(dict(state, **changes)))
        with pytest.raises(CheckpointMismatch):
            run_chunked(cfg, checkpoint_path=str(path), resume=True)

    fake = {"mode": "fermat-catalan", "sign": "plus", "values": [1, 2, 3],
            "coeffs": [1, 1, 1], "reps": [[], [], []], "assignment": [0, 0, 0],
            "weight": "0"}
    refused(done=dict(state["done"], **{"0": state["done"]["0"] + [fake]}))
    other = _records(make_config("nonmaxgcd3", max_bits=24))[0]
    refused(done=dict(state["done"], **{"0": [other]}))
    refused(done=dict(state["done"], **{"0": [{"mode": "fermat-catalan"}]}))
    refused(done=dict(state["done"], **{"4": []}))
    refused(plan_digest="0" * 64)
    assert run_chunked(cfg, checkpoint_path=str(ckpt), resume=True).completed

    # 32 + 49 = 81 loses its rep 9**2, and its chunk's sha256 is recomputed
    state = json.loads(ckpt.read_text())
    key, recs = next((k, json.loads(canon_json(v))) for k, v in state["done"].items()
                     if any(r["values"] == [32, 49, 81] for r in v))
    rec = next(r for r in recs if r["values"] == [32, 49, 81])
    assert rec["reps"][2] == [[9, 2], [3, 4]] and rec["assignment"][2] == 4
    rec["reps"][2] = [[3, 4]]
    refused(done=dict(state["done"], **{key: recs}),
            done_sha256=dict(state["done_sha256"], **{key: search._sha256(recs)}))


def test_checkpoint_refuses_records_outside_the_scan(tmp_path):
    cfg = make_config("maxgcd-spread1", max_bits=20)  # degrees 5..10
    ckpt = tmp_path / "run.ckpt"
    run_chunked(cfg, n_chunks=4, checkpoint_path=str(ckpt), max_chunks=2)
    state = json.loads(ckpt.read_text())
    # 8**3 - 4**3 = 448 = 7*8*8: a true degree-3 record, outside this scan
    injected = next(
        r for r in _records(make_config("maxgcd-spread1", max_bits=20,
                                        degree=(3, 4)))
        if (r["p"], r["q"], r["z"], r["d"]) == (512, 64, 448, 3))
    assert verify_record(injected, cfg)
    path = tmp_path / "tampered.ckpt"
    done = dict(state["done"], **{"0": state["done"]["0"] + [injected]})
    path.write_text(json.dumps(dict(state, done=done)))
    with pytest.raises(CheckpointMismatch, match="not scanned"):
        run_chunked(cfg, checkpoint_path=str(path), resume=True)
    resumed = run_chunked(cfg, checkpoint_path=str(ckpt), resume=True)
    assert resumed.completed and len(resumed.records) == 6


def test_checkpoint_binds_the_records_of_each_done_chunk(tmp_path):
    cfg = make_config("maxgcd-spread1", max_bits=20)
    ckpt = tmp_path / "run.ckpt"
    run_chunked(cfg, n_chunks=4, checkpoint_path=str(ckpt), max_chunks=2)
    state = json.loads(ckpt.read_text())
    # every record still verifies, but the larger done chunk has lost them all
    largest = max(state["done"], key=lambda k: len(state["done"][k]))
    assert state["done"][largest]
    path = tmp_path / "emptied.ckpt"
    done = dict(state["done"], **{largest: []})
    path.write_text(json.dumps(dict(state, done=done)))
    with pytest.raises(CheckpointMismatch, match="fails its sha256"):
        run_chunked(cfg, checkpoint_path=str(path), resume=True)
    resumed = run_chunked(cfg, checkpoint_path=str(ckpt), resume=True)
    assert resumed.completed and len(resumed.records) == 6


# Digests of record sections the bench does not pin: multi-assignment,
# multi-witness, survey, coefficient and pillai records.
@pytest.mark.parametrize("mode, extra, count, digest", [
    ("gbtz", {"max_bits": 20, "f_bound": Fraction(3)}, 56,
     "ba87ccae57bb41ade0343c3312361bcbe3a2ba9a03b45cadf49c6a2cc94d8aa5"),
    ("nonmaxgcd3", {"max_bits": 24, "f_bound": Fraction(5, 4), "max_spread": 3}, 9,
     "a52de58ee343b1ca649f176ac92d1863e045bac791bc6d3c8b32544c91c17a5b"),
    ("fp", {"max_bits": 24, "f_bound": Fraction(3)}, 44,
     "22e6c2078fc3886d09a0440a1b62848054b467e51c91612462cf982a265f04fd"),
    ("maxgcd-spread1", {"max_bits": 24, "degree": (2, 10)}, 160,
     "e637a59ac92be6bdd246506a81756892b8374947e9c34cc734d37455fb903b69"),
    ("survey", {"max_bits": 18, "n_range": (3, 5), "m_range": (3, 5),
                "degree": (2, 5), "f_bound": Fraction(3, 2)}, 36,
     "a524533b041c4e04c8ce01818b1b3918149921713fd54590ff73c094c9e6744e"),
    ("fermat-catalan", {"max_bits": 16, "coeffs": (1, 2, 3)}, 4,
     "e73809f3e006bb2608b66459ec173762ca0070ac9f92fef8d6efccf7f30eb21b"),
    ("fermat-catalan", {"max_bits": 13, "f_bound": Fraction(5, 4)}, 12,
     "a387d8c71dac775d4213d48f4b3070e052d671c94c26ee0877c50046e299f2ec"),
    ("pillai", {"max_bits": 16, "difference": 1, "max_spread": 2}, 789,
     "7bacb6500f75df1b890cbcc6d118d88b59149fa7e76fecfc196939a7f5490306"),
    ("fermat-catalan", {"max_bits": 16, "f_bound": Fraction(3, 2)}, 40,
     "49f00c395ab179b3827c4f7e22282db660bd5f5f03050625d890bcd6e415c072"),
    ("fermat-catalan", {"max_bits": 16, "f_bound": Fraction(3, 2),
                        "coeffs": (3, 1, 1)}, 49,
     "dd8f3f073fbcec0fab911a5dd8560bbcaa8e39a3c6f9778a18b130fa1698f50d"),
    ("fermat-catalan", {"max_bits": 16, "coeffs": (1, 7, 8)}, 5,
     "b43b9596ebf77215bb8275d4d11025867510fa9a5b4e69107ecea3a70f640c57"),
])
def test_record_sections_are_pinned(mode, extra, count, digest):
    cfg = make_config(mode, **extra)
    records = _records(cfg, n_chunks=4)
    assert (len(records), search._sha256(records)) == (count, digest)
    _assert_all_verify(records, cfg)


def test_run_result_candidates_vs_records():
    cfg = make_config("fermat-catalan", max_bits=13)
    res = run_chunked(cfg, n_chunks=16)
    assert res.completed and res.chunks_total == 16
    assert res.candidates >= len(res.records)


# ---------------------------------------------------------------------------
# record verification catches tampering


def test_verify_record_flags_tampering():
    cfg = make_config("fermat-catalan", max_bits=14)
    rec = json.loads(canon_json(_records(cfg)[0]))
    assert verify_record(rec, cfg) == []
    bad = dict(rec, values=[2, 8, 9])
    assert verify_record(bad, cfg)
    bad = dict(rec, weight="1/2")
    assert verify_record(bad, cfg)
    bad = dict(rec, assignment=[0, 0, 0])
    assert verify_record(bad, cfg)
    # a rep the assignment does not use: 81 = 9**2 = 3**4 keeps only 3**4
    rec = next(r for r in _records(cfg) if r["values"] == [32, 49, 81])
    assert verify_record(rec, cfg) == []
    bad = dict(rec, reps=rec["reps"][:2] + [[[3, 4]]])
    assert verify_record(bad, cfg) == ["stored reps wrong"]
    rec = next(r for r in _records(cfg) if r["values"] == [1, 8, 9])
    assert verify_record(dict(rec, values=[True, 8, 9]), cfg) == [
        "stored values wrong"]

    cfg = make_config("nonmaxgcd3", max_bits=24)
    rec = json.loads(canon_json(_records(cfg)[0]))
    assert verify_record(rec, cfg) == []
    assert verify_record(dict(rec, z=rec["z"] + 1), cfg)
    assert verify_record(dict(rec, witness=[1, 2, 3]), cfg)
    assert verify_record(dict(rec, gcd=7), cfg)
    assert verify_record(dict(rec, p=float(rec["p"])), cfg) == ["stored p wrong"]
    # 6**8 - 8**6 = 1417472 has four assignments
    cfg = make_config("nonmaxgcd3", max_bits=30)
    rec = next(r for r in _records(cfg) if len(r["assignments"]) > 1)
    assert verify_record(rec, cfg) == []
    bad = dict(rec, assignments=rec["assignments"][::-1])
    assert verify_record(bad, cfg) == ["stored assignments wrong"]
    # 12**4 - 2**14 = 4352 = 16*16*17 is found at 2**30, but 12**4 > 2**14
    rec = next(r for r in _records(cfg) if r["p"] == 20736 and r["q"] == 16384)
    assert verify_record(rec, make_config("nonmaxgcd3", max_bits=14)) == [
        "the search writes no record for this identity"]

    # a survey cell whose solutions are reversed, or one of them doubled
    cfg = make_config("survey", max_bits=18, n_range=(3, 5), m_range=(3, 5),
                      degree=(2, 5), f_bound=Fraction(3, 2))
    rec = next(r for r in _records(cfg) if r["count"] >= 2)
    assert verify_record(rec, cfg) == []
    sols = rec["solutions"]
    assert verify_record(dict(rec, solutions=sols[::-1]), cfg) == [
        "solutions repeat or are out of order"]
    assert verify_record(dict(rec, solutions=sols + sols[-1:], count=len(sols) + 1),
                         cfg) == ["solutions repeat or are out of order"]
    assert verify_record(dict(rec, cell=[float(v) for v in rec["cell"]]), cfg) == [
        "stored cell wrong"]

    # a pillai witness out of order, or of a degree below the range
    cfg = make_config("pillai", difference=1, max_bits=16, max_spread=2)
    rec = next(r for r in _records(cfg) if len(set(r["x_witness"])) > 1)
    assert verify_record(rec, cfg) == []
    assert verify_record(dict(rec, x_witness=rec["x_witness"][::-1]), cfg) == [
        "stored x_witness wrong"]
    assert verify_record(dict(rec, z_witness=[rec["z"]]), cfg) == [
        "the search writes no record for this identity"]


def test_fc_verify_accepts_exactly_the_reached_triples():
    # Under a bound above 1 an admissible triple can have a single term of
    # exponent >= 3; the plan reaches it through a square.  With other
    # coefficients it can also hold two literal 1s, e.g. 1 + 7 = 8.
    for extra in ({"max_bits": 13, "f_bound": Fraction(5, 4)},
                  {"max_bits": 13, "f_bound": Fraction(3, 2), "f_strict": False},
                  {"max_bits": 13, "f_bound": Fraction(3, 2), "coeffs": (3, 1, 1)},
                  {"max_bits": 13, "coeffs": (1, 7, 8)},
                  {"max_bits": 13, "coeffs": (2, 3, 5)},
                  {"max_bits": 13, "f_bound": Fraction(3, 2), "coeffs": (1, 1, 2)}):
        cfg = make_config("fermat-catalan", **extra)
        found = {tuple(r["values"]) for r in _records(cfg)}
        terms = sorted({1} | {x**e for e in range(2, 14) for x in range(2, 91)
                              if x**e <= cfg.max_value})
        A, B, C = cfg.coeffs
        built = [search._fc_candidate(cfg, a, b, (A * a + B * b) // C)
                 for a in terms for b in terms if (A * a + B * b) % C == 0]
        built = {tuple(r["values"]): r for r in built if r is not None}
        accepted = {v for v, r in built.items() if verify_record(r, cfg) == []}
        assert found == accepted == set(built), extra
        assert any(sum(e >= 3 for e in r["assignment"]) == 1
                   for r in built.values()), extra


def test_verify_record_refuses_records_outside_the_scan():
    def refused(records, cfg):
        for rec in records:
            problems = verify_record(rec, cfg)
            assert problems and "is not scanned" in problems[0], (rec, problems)

    # every record a product search writes passes under its own config
    for mode, extra in (
        ("gbtz", {"max_bits": 20, "f_bound": Fraction(3, 2)}),
        ("nonmaxgcd3", {"max_bits": 24, "f_bound": Fraction(5, 4),
                        "max_spread": 3}),
        ("fp", {"max_bits": 24, "f_bound": Fraction(3)}),
        ("maxgcd-spread1", {"max_bits": 30, "degree": (3, 4)}),
        # cells (n, m) with n > m whose mirror (m, n) is not scanned
        ("survey", {"max_bits": 18, "n_range": (4, 6), "m_range": (3, 4),
                    "degree": (2, 5), "f_bound": Fraction(3, 2)}),
    ):
        cfg = make_config(mode, **extra)
        recs = _records(cfg, n_chunks=4)
        assert len([r for r in recs if r.get("count", 1)]) >= 3, mode
        _assert_all_verify(recs, cfg)

    # maxgcd-spread1 records of degrees 3..4 under the default degrees 5..10
    low = _records(make_config("maxgcd-spread1", max_bits=30, degree=(3, 4)))
    assert len(low) == 24
    refused(low, make_config("maxgcd-spread1", max_bits=30))

    # fp records with n = 4 when the scan starts at n = 5
    fp = _records(make_config("fp", max_bits=24, f_bound=Fraction(3)))
    n4 = [r for r in fp if r["d"] == 4]
    assert len(n4) == 32
    refused(n4, make_config("fp", max_bits=24, f_bound=Fraction(3),
                            degree=(5, 21)))

    # gbtz products start at degree 3: 27 + 8 = 35 = 5*7 is not scanned
    cfg = make_config("gbtz", max_bits=20, f_bound=Fraction(3), degree=(2, 10))
    weight = Fraction(2, 3) + search.analyze([5, 7]).weight
    crafted = {"mode": "gbtz", "sign": "plus", "p": 27, "q": 8, "z": 35, "d": 2,
               "assignments": [[3, 3]], "witnesses": [[5, 7]], "witness": [5, 7],
               "weight": str(weight), "gcd": 1, "gcd_quality": "1",
               "maxgcd": False, "coprime": True}
    assert verify_record(crafted, cfg)[0] == (
        "assignment (3,3) at degree 2 is not scanned")

    # gbtz scans coprime pairs only
    for rec in _records(make_config("nonmaxgcd3", max_bits=24)):
        assert verify_record(dict(rec, mode="gbtz"),
                             make_config("gbtz", max_bits=24)) == [
            "gbtz requires coprime pairs"]

    # a survey cell outside the configured ranges
    cfg = make_config("survey", max_bits=18, n_range=(3, 4), m_range=(3, 4),
                      degree=(2, 6))
    cell = {"mode": "survey", "cell": [5, 5, 5], "count": 0, "solutions": []}
    assert verify_record(cell, cfg) == ["cell outside the survey ranges"]
    assert verify_record(dict(cell, cell=[4, 3, 2]), cfg) == []
