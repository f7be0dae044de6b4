"""Search engine: the pair scan, all seven modes, chunking and checkpoints."""

import hashlib
import importlib.util
import itertools
import json
import math
import os
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from fcspread import arith, families, search
from fcspread.products import (SpreadConstraints, decompose, enumerate_products,
                               product_values)
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
    primes = [p for p in range(5, bound.bit_length()) if arith.is_prime(p)]
    want = {x**p for p in primes for x in range(2, int(round(bound ** (1 / p))) + 2)
            if x**p <= bound}
    power_set = search._power_value_set(bound)
    assert power_set == want
    assert search._power_value_set(3000) == {32, 128, 243, 1024, 2048, 2187}
    # With squares and cubes it finds every perfect power of exponent >= 2.
    powers3 = {x**e for e in range(3, bound.bit_length())
               for x in range(2, int(round(bound ** (1 / e))) + 2) if x**e <= bound}
    squares = {x * x for x in range(1, 1001)}
    assert squares | {x**3 for x in range(1, 101)} | power_set == {1} | squares | powers3
    assert len(search._power_value_set(2**62)) < 10_000


def _keep_all(P, Q):
    return np.ones(np.broadcast_shapes(P.shape, Q.shape), dtype=bool)


def _unit(n, m, lo, hi, kind="product"):
    """A plan unit (n, m) over the bases [lo, hi], as `_pairs` takes it."""
    return {"kind": kind, "e1": n, "e2": m, "xlo": lo, "xhi": hi}


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
    # the same pairs as the scalar loop, the two halves apart or in one stream
    for keep in (None,) if relation == "maxgcd" else (None, _keep_all):
        got = list(search._pairs(M, relation, [_unit(n, m, lo, mid)], ordered, keep))
        got += search._pairs(M, relation, [_unit(n, m, mid + 1, hi)], ordered, keep)
        both = list(search._pairs(M, relation, [_unit(n, m, lo, mid),
                                                _unit(n, m, mid + 1, hi)], ordered, keep))
        assert len(got) == len(set(got)) and sorted(both) == sorted(got)
        assert set(got) == want
    assert want


def _usable_kept(values, M):
    power_set = search._power_value_set(M)
    member = search._sifted_member(np.array(sorted(power_set), dtype=np.int64))
    kept = search._usable_i64(np.array(values, dtype=np.int64), M, member)
    return kept, np.array([search._usable_power(v, M, power_set) for v in values])


def test_prefilter_keeps_every_usable_value():
    # The block keep is exact: it keeps a value iff `_usable_power` does.
    M = 1 << 20
    kept, usable = _usable_kept(list(range(-2, M + 3)), M)
    assert usable.sum() > 1000 and (kept == usable).all()

    # Near the int64 limit: the powers of the largest bases, each +/- 1.
    M = 1 << 62
    values = {M, M + 1, M + 2, 2**63 - 1, 3 * 2**61, 2**62 + 2**40 + 1}
    for e in (2, 3, 5, 7, 11):
        top = arith.iroot(M, e)[0]
        values |= {k**e + d for k in range(max(2, top - 3000), top + 2)
                   for d in (-1, 0, 1)}
    values = sorted(v for v in values if v < 2**63)
    kept, usable = _usable_kept(values, M)
    assert usable.sum() > 9000 and (kept == usable).all()
    assert not kept[values.index(M + 1)] and kept[values.index(M)]


@pytest.mark.parametrize("cells", [1, 7, 40, 1 << 14])
@pytest.mark.parametrize("n, m", [(3, 3), (3, 4), (4, 3), (5, 5), (3, 0)])
def test_prefiltered_cells_cover_the_pair_scan(n, m, cells, monkeypatch):
    # With a prefilter that keeps everything, the blocks must tile the scan;
    # m = 0 is the column of the literal 1, the one base y = 1.  The unit's
    # pieces are checked alone and in one stream with units of other (n, m),
    # an fcone and a triangle (n == m), so that buffers straddle units.
    monkeypatch.setattr(search, "_PREFILTER_CELLS", cells)
    M = 1 << 16

    def cells_of(span, ordered):
        n, m, lo, hi = span
        first, end = (1, 2) if m == 0 else (2, search._max_base(M, m) + 1)
        return [(span, x, y) for x in range(lo, hi + 1)
                for y in range(first, x if n == m and not ordered else end)]

    hi = search._max_base(M, n)
    pieces = [(n, m, 2, hi), (n, m, 2, hi // 2), (n, m, hi // 2 + 1, hi)]
    for span in pieces:
        got = list(search._prefiltered_cells(M, [span], _keep_all))
        assert sorted(got) == cells_of(span, False)
    others = [(2, 0, 2, 200), (4, 3, 2, 16), (3, 3, 5, 40), (5, 5, 2, 9), (4, 0, 3, 16)]
    spans = [others[0], pieces[1], others[1], others[2], pieces[2], others[3], others[4]]
    for ordered in (False, True):
        got = list(search._prefiltered_cells(M, spans, _keep_all, ordered))
        want = [cell for span in spans for cell in cells_of(span, ordered)]
        assert sorted(got) == sorted(want)


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
    assert (search._fc_keep(cfg, True) is None) == (max(A + B, C) * M > 2**63)
    power_set = search._power_value_set(M)
    units = search._mode_units(cfg)
    # units with e3 <= 4 and e3 >= 5 both, each solved with its own set
    assert {search._fc_e3(cfg, u["e1"]) > 4 for u in units if u["kind"] == "fcpair"} == {
        False, True}
    assert {(u["e1"], u["e2"]) for u in units if u["kind"] == "fcpair"} >= {
        (3, 3), (3, 4), (4, 4)}
    assert {u["e1"] for u in units if u["kind"] == "fcone"} >= {2, 3, 4}
    every = {}  # each unit alone, fcone and fcpair
    for kind in ("fcpair", "fcone"):
        fast, slow = {}, {}
        for u in (u for u in units if u["kind"] == kind):
            search._run_fc_units(cfg, [u], fast)
            e1, e2, xlo, xhi = u["e1"], u["e2"], u["xlo"], u["xhi"]
            pairs = (search._pairs(M, "coprime", [_unit(e1, e2, xlo, xhi)]) if e2
                     else ((x**e1, 1) for x in range(xlo, xhi + 1)))
            full = search._fc_e3(cfg, e1) > 4
            for P, Q in pairs:
                search._fc_try_pair(cfg, P, Q, power_set if full else frozenset(), slow)
        assert canon_json(sorted(fast.items())) == canon_json(sorted(slow.items()))
        assert len(fast) > (50 if kind == "fcpair" else 0), kind  # fcone: 8 + 1 = 9
        every.update(slow)
    # all the pair and fcone units at once, as a chunk runs them: one stream
    together = {}
    search._run_fc_units(
        cfg, [u for u in units if u["kind"] in ("fcone", "fcpair")], together)
    assert canon_json(sorted(together.items())) == canon_json(sorted(every.items()))


@pytest.mark.parametrize("coeffs", FC_COEFFS[:-1], ids="%d,%d,%d".__mod__)
def test_fc_keep_holds_every_cell_with_a_record(coeffs):
    # Every coprime cell of every planned unit at a small bound: where
    # `_fc_try_pair` writes a record, the full block keep keeps the cell;
    # on a unit with e3 <= 4, the roots-only keep keeps it when the record's
    # third term, the value left by the cell's two, has an exponent <= e3.
    cfg = make_config("fermat-catalan", max_bits=14, f_bound=Fraction(2),
                      coeffs=coeffs)
    M = cfg.max_value
    keep, power_set = search._fc_keep(cfg, True), search._power_value_set(M)
    roots = search._fc_keep(cfg, False)
    cells = with_record = by_roots = dropped = 0
    for u in search._mode_units(cfg):
        if u["kind"] == "fcwild":
            continue
        pn, pm = search._powers(M, u["e1"]), search._powers(M, u["e2"])
        ys = range(1 if u["e2"] == 0 else 2, len(pm))
        P, Q = np.array(pn, dtype=np.int64)[:, None], np.array(pm, dtype=np.int64)[None, :]
        kept, e3 = keep(P, Q), search._fc_e3(cfg, u["e1"])
        kept_by_roots = roots(P, Q) if e3 <= 4 else kept
        assert not (kept_by_roots & ~kept).any()
        dropped += (kept & ~kept_by_roots).sum()
        for x in range(u["xlo"], u["xhi"] + 1):
            for y in (y for y in ys if math.gcd(x, y) == 1):
                acc = {}
                search._fc_try_pair(cfg, max(pn[x], pm[y]), min(pn[x], pm[y]),
                                    power_set, acc)
                cells += 1
                with_record += bool(acc)
                assert kept[x, y] or not acc, (u, x, y, acc)
                for rec in acc.values():
                    third = list(zip(rec["values"], rec["reps"]))
                    for v in (pn[x], pm[y]):
                        third.remove(next(t for t in third if t[0] == v))
                    if any(e <= e3 for _, e in third[0][1]):
                        by_roots += 1
                        assert kept_by_roots[x, y], (u, x, y, rec)
    assert cells > 10000 and with_record > 20, (cells, with_record)
    assert by_roots > 20 and dropped > 0, (by_roots, dropped)


@pytest.mark.parametrize("mode, extra", [
    ("fermat-catalan", {"max_bits": 30}),
    ("gbtz", {"max_bits": 24, "f_bound": Fraction(2)}),
    ("pillai", {"max_bits": 18, "difference": 1, "max_spread": 2}),
    ("survey", {"max_bits": 24, "n_range": (3, 3), "m_range": (3, 3)})],
    ids=["fc", "gbtz", "pillai", "survey"])
def test_merge_records_changes_no_chunk_record(mode, extra):
    # merged records are JSON-native, and the chunk lists stay as they were:
    # a survey cell found in two chunks joins into a new record
    cfg = make_config(mode, **extra)
    chunks = [search.run_chunk(cfg.semantic_dict(), g) for g in search.plan_chunks(cfg, 8)]
    before = json.loads(canon_json(chunks))
    merged = search.merge_records(chunks)
    assert json.loads(canon_json(chunks)) == before == chunks
    assert json.loads(canon_json(merged)) == merged and merged
    if mode == "survey":
        cell = next(r for r in merged if r["cell"] == [3, 3, 4])
        assert cell["count"] == 4 and sum(r["cell"] == [3, 3, 4] and r["count"] > 0
                                          for c in chunks for r in c) == 2


@pytest.mark.parametrize("extra", [
    {"max_bits": 30}, {"max_bits": 36}, {"max_bits": 30, "min_exp": 3},
    {"max_bits": 30, "f_bound": Fraction(9, 10)},
    {"max_bits": 30, "f_strict": False}], ids=str)
def test_fc_cube_units_match_the_pair_walk(extra, monkeypatch):
    cfg = make_config("fermat-catalan", **extra)
    assert any(u["kind"] == "cube" for u in search._mode_units(cfg))
    cube = _records(cfg)
    # the cube units as the pair walk of their units (3, e2), over every x
    xhi, mode_units = search._max_base(cfg.max_value, 3), search._mode_units
    monkeypatch.setattr(search, "_mode_units", lambda cfg: [
        dict(u, kind="fcpair", xlo=2, xhi=xhi) if u["kind"] == "cube" else u
        for u in mode_units(cfg)])
    assert not any(u["kind"] == "cube" for u in search._mode_units(cfg))
    assert canon_json(cube) == canon_json(_records(cfg))


def test_fc_cube_cells_match_a_walk_of_their_units(monkeypatch):
    # every cell (x, y) of unit (3, e2) whose third term is a cube: x**3 + w**3
    # or |x**3 - w**3| is y**e2 for some w >= 1, coprime or not
    cfg = make_config("fermat-catalan", max_bits=30)
    M, xhi = cfg.max_value, search._max_base(cfg.max_value, 3)
    units = [u for u in search._mode_units(cfg) if u["kind"] == "cube"]
    assert {u["e2"] for u in units} >= {4, 5}
    cubes = {w**3 for w in range(1, arith.iroot(2 * M, 3)[0] + 1)}
    want = {(x, y, u["e2"]) for u in units for y in range(u["xlo"], u["xhi"] + 1)
            for x in range(2, xhi + 1)
            if {y**u["e2"] - x**3, x**3 - y**u["e2"], x**3 + y**u["e2"]} & cubes}
    got = list(search._cube_cells(M, units, False))
    assert len(got) == len(set(got)) and set(got) == want
    assert (14, 7, 4) in want  # 14**3 - 7**4 = 7**3, not coprime
    assert sum(math.gcd(x, y) > 1 for x, y, _ in want) > 10
    # the runner solves the coprime cells alone, P >= Q as `_pairs` gives them
    tried = []
    monkeypatch.setattr(search, "_fc_try_pair", lambda cfg, P, Q, *rest: tried.append((P, Q)))
    search._run_fc_units(cfg, units, {})
    assert sorted(tried) == sorted((max(x**3, y**e2), min(x**3, y**e2))
                                   for x, y, e2 in want if math.gcd(x, y) == 1)


def test_one_chunk_of_every_fc_kind_matches_its_units_alone():
    # run_chunk hands every fc unit kind to one runner, in any order
    cfg = make_config("fermat-catalan", max_bits=30)
    units, cfg_dict = search._mode_units(cfg), cfg.semantic_dict()
    assert {u["kind"] for u in units} == {"cube", "fcone", "fcpair", "fcwild"}
    alone = [search.run_chunk(cfg_dict, [u]) for u in units]
    assert {u["kind"] for u, recs in zip(units, alone) if recs} >= {"fcone", "fcpair"}
    want = canon_json(search.merge_records(alone))
    assert canon_json(search.run_chunk(cfg_dict, units)) == want
    assert canon_json(search.run_chunk(cfg_dict, units[::-1])) == want
    assert len(search.merge_records(alone)) == 5


@pytest.mark.parametrize("extra", [
    {"f_bound": Fraction(3, 2)}, {"min_exp_cap": 2}, {"coeffs": (1, 2, 3)}], ids=str)
def test_fc_cube_units_only_where_the_third_term_is_a_cube(extra):
    # a square or a scaled third term is admissible here
    cfg = make_config("fermat-catalan", max_bits=30, **extra)
    assert not any(u["kind"] == "cube" for u in search._mode_units(cfg))


SURVEY_30 = {"max_bits": 30, "n_range": (3, 6), "m_range": (3, 6)}


@pytest.mark.parametrize("mode, extra", [
    ("gbtz", {"max_bits": 24}), ("gbtz", {"max_bits": 31}),
    ("gbtz", {"max_bits": 28, "f_bound": Fraction(5, 4)}),
    ("gbtz", {"max_bits": 24, "f_strict": False}),  # (3, 3) at cap 0
    ("survey", SURVEY_30)], ids=str)
def test_product_cube_cells_match_a_walk_of_their_units(mode, extra, monkeypatch):
    # every cell (x, y) of a product cube unit (3, e2) whose P + Q or |P - Q|
    # is a cube, coprime or not, and the runner hands exactly those that meet
    # the relation to decompose, at the configured signs, P >= Q but in survey
    cfg = make_config(mode, **extra)
    M, xhi, survey = cfg.max_value, search._max_base(cfg.max_value, 3), mode == "survey"
    units = [u for u in search._mode_units(cfg) if u["kind"] == "cube"]
    assert units and all(u["e1"] == 3 and u["cost"] == u["xhi"] - 1 for u in units)
    cubes = {w**3 for w in range(1, arith.iroot(2 * M, 3)[0] + 1)}
    want = {(x, y, u["e2"]) for u in units for y in range(u["xlo"], u["xhi"] + 1)
            for x in range(2, xhi + 1)
            if {x**3 + y**u["e2"], abs(x**3 - y**u["e2"])} & cubes}
    got = list(search._cube_cells(M, units, False))
    assert len(got) == len(set(got)) and set(got) == want
    assert sum(math.gcd(x, y) > 1 for x, y, _ in want) > 2
    calls = []
    monkeypatch.setattr(search, "decompose", lambda Z, d, s: calls.append((Z, d, s)) or [])
    search._run_product_units(cfg, units, {})
    related = {"coprime": lambda P, Q: math.gcd(P, Q) == 1,
               "nonmaxgcd": lambda P, Q: P % Q != 0 and Q % P != 0}[
                   search._MODES[mode].relation]
    pairs = [(x**3, y**e2) for x, y, e2 in want if related(x**3, y**e2)]
    pairs = [(P, Q) if survey or P >= Q else (Q, P) for P, Q in pairs]
    assert sorted(calls) == sorted((Z, 3, 0) for P, Q in pairs for Z in (P + Q, P - Q)
                                   if 1 <= Z <= M)
    assert len(pairs) < len(want) or mode == "gbtz"


def test_survey_cube_cells_keep_their_solutions():
    cfg = make_config("survey", **SURVEY_30)
    units = {(u["e1"], u["e2"], u["d"]): u["kind"] for u in search._mode_units(cfg)}
    assert {c for c, kind in units.items() if kind == "cube"} == {(3, m, 3) for m in (4, 5, 6)}
    counts = {tuple(r["cell"]): r["count"] for r in _records(cfg, n_chunks=4)}
    assert (counts[3, 4, 3], counts[3, 5, 3], counts[3, 6, 3]) == (25, 7, 0)


def test_no_cube_unit_3_3_but_survey_keeps_its_empty_cell():
    # x**3 + y**3 = w**3 has no solution in positive integers (Euler), so gbtz
    # plans no unit (3, 3) where the bound would make it a cube unit
    cfg = make_config("gbtz", max_bits=30, f_strict=False)
    assert (3, 3) not in {(u["e1"], u["e2"]) for u in search._mode_units(cfg)}
    cfg = make_config("survey", max_bits=24, n_range=(3, 4), m_range=(3, 4),
                      degree=(3, 3), f_bound=Fraction(5, 4))
    units = {(u["e1"], u["e2"], u["d"]): u for u in search._mode_units(cfg)}
    assert units[3, 3, 3]["kind"] == "cube" and units[3, 3, 3]["cost"] == 0
    assert {tuple(r["cell"]): r["count"] for r in _records(cfg)}[3, 3, 3] == 0


@pytest.mark.parametrize("mode, extra, cubes", [
    ("gbtz", {"max_bits": 30}, {(3, m) for m in range(4, 31)}),
    # (3, 5): cap 1; (3, 3) has no cell (Euler), so it is no unit
    ("gbtz", {"max_bits": 30, "f_bound": Fraction(5, 4)}, {(3, 3), (3, 4)}),
    ("gbtz", {"max_bits": 30, "degree": (4, 10)}, set()),
    ("nonmaxgcd3", {"max_bits": 30}, set()),  # its least spread is 1
    ("fp", {"max_bits": 34}, set()),
    ("maxgcd-spread1", {"max_bits": 36}, set())], ids=str)
def test_product_cube_units_where_the_one_cap_is_degree_3_spread_0(mode, extra, cubes):
    cfg = make_config(mode, **extra)
    plan = search._product_plan(cfg)
    units = search._mode_units(cfg)
    assert {(u["e1"], u["e2"]) for u in units if u["kind"] == "cube"} == cubes - {(3, 3)}
    assert all(plan.caps[u["e1"], u["e2"]] == [(3, 0)] for u in units if u["kind"] == "cube")


def test_no_maxgcd_plan_has_a_cube_unit():
    # `_pairs` tests no relation on the maxgcd rows, which hold it by
    # construction, so a cube unit there would skip the test.  Unit (3, 3)
    # walks its rows instead and finds nothing: y**n (w**n +/- 1) is never a
    # positive n-th power for w >= 1, at spread 0 no record at all.
    for extra in ({}, {"degree": (2, 10), "max_spread": 0},
                  {"degree": (3, 6), "max_spread": 0}):
        cfg = make_config("maxgcd-spread1", max_bits=36, **extra)
        units = search._mode_units(cfg)
        assert units and all(u["kind"] == "product" for u in units), extra
    assert search._product_plan(cfg).caps[3, 3] == [(3, 0)]
    assert (3, 3) in {(u["e1"], u["e2"]) for u in units}
    assert _records(cfg, n_chunks=4) == []


@pytest.mark.parametrize("mode, extra", [
    ("gbtz", {"max_bits": 31}), ("survey", SURVEY_30),
    ("fermat-catalan", {"max_bits": 30}),
    ("fermat-catalan", {"max_bits": 36, "f_bound": Fraction(7, 6)})], ids=str)
def test_pairs_of_cube_units_are_their_related_cube_cells(mode, extra):
    # a cube unit's rows are its `_cube_cells`, through the one relation test
    # and orientation of `_pairs`, with no keep: for the mode's own relation
    # (fc's is coprime) and order, and for the other ones too
    cfg = make_config(mode, **extra)
    M, own = cfg.max_value, search._MODES[mode].relation or "coprime"
    units = [u for u in search._mode_units(cfg) if u["kind"] == "cube"]
    if extra.get("f_bound") == Fraction(7, 6):  # its one cube unit, (3, 3), is not planned
        assert units == []
        units = [{"kind": "cube", "e1": 3, "e2": 3, "xlo": 2, "xhi": search._max_base(M, 3)}]
    assert units
    cells = [(x**3, y**e2, math.gcd(x, y)) for x, y, e2 in search._cube_cells(M, units, False)]
    for relation, ordered in itertools.product(("coprime", "nonmaxgcd"), (False, True)):
        related = [(P, Q) for P, Q, g in cells
                   if (g == 1 if relation == "coprime" else P % Q != 0 and Q % P != 0)]
        want = sorted((P, Q) if ordered or P >= Q else (Q, P) for P, Q in related)
        for keep in (None, lambda P, Q: np.zeros(P.shape, dtype=bool)):
            assert sorted(search._pairs(M, relation, units, ordered, keep)) == want
        if relation == own and cells:  # the relation drops cells
            assert len(related) < len(cells), relation
    if extra.get("f_bound") == Fraction(7, 6):  # no x**3 +/- y**3 is a cube
        assert [(u["e1"], u["e2"]) for u in units] == [(3, 3)] and cells == []
    else:  # cells of either order, none coprime: x**3 +/- y**m = z**3, m >= 4,
        # has no known primitive solution (Beukers 2006)
        assert {P < Q for P, Q, _ in cells} == {False, True}
        assert all(g > 1 for _, _, g in cells)


@pytest.mark.parametrize("mode, extra", [
    ("fermat-catalan", {"max_bits": 30}), ("fermat-catalan", {"max_bits": 30, "min_exp": 3}),
    ("gbtz", {"max_bits": 30}), ("gbtz", {"max_bits": 28, "f_bound": Fraction(5, 4)}),
    ("survey", SURVEY_30)], ids=str)
def test_coprime_cube_cells_are_the_coprime_cells_of_all_splits(mode, extra, monkeypatch):
    # under the coprime relation `_pairs` walks the primitive splits alone:
    # they must give every coprime cell of the all-splits walk.  The plan's
    # own cube units have none (x**3 +/- w**3 = y**m, m >= 3, has no known
    # primitive solution), so the y from theirs up to the max base of x
    # are also walked with e2 = 1 and 2, where x**3 +/- w**3 = y or y**2
    # has many (2**3 + 1 = 3**2)
    cfg = make_config(mode, **extra)
    M = cfg.max_value
    units = [u for u in search._mode_units(cfg) if u["kind"] == "cube"]
    ys = {"xlo": min(u["xlo"] for u in units), "xhi": search._max_base(M, 3)}
    for e2 in (None, 1, 2):
        some = [dict(units[0], e2=e2, **ys)] if e2 else units
        every = list(search._cube_cells(M, some, False))
        coprime = list(search._cube_cells(M, some, True))
        want = {(x, y, m) for x, y, m in every if math.gcd(x, y) == 1}
        assert len(coprime) == len(set(coprime)) and set(coprime) == want, e2
        assert len(want) > 10 if e2 else not want, (e2, len(want))
        assert len(want) < len(every), e2  # and cells of gcd > 1 are dropped
        # `_pairs` takes the primitive splits under "coprime" only (not at
        # e2 = 1, whose power table would hold every base up to M)
        for relation in ("coprime", "nonmaxgcd") if e2 != 1 else ():
            related = [(x**3, y**m) for x, y, m in every
                       if search._related(relation, x**3, y**m)]
            modes, splits = set(), arith.power_cube_splits
            monkeypatch.setattr(arith, "power_cube_splits", lambda y, e, primitive: (
                modes.add(primitive) or splits(y, e, primitive)))
            assert sorted(search._pairs(M, relation, some)) == sorted(
                (max(P, Q), min(P, Q)) for P, Q in related), (e2, relation)
            assert modes == {relation == "coprime"}, (e2, relation)
            monkeypatch.undo()


def test_survey_unit_keys_each_solution_once(monkeypatch):
    # a unit gathers its cell's solutions by key and adds one record: no
    # merge re-keys and re-sorts a growing cell for each solution
    cfg = make_config("survey", max_bits=20, n_range=(2, 5), m_range=(2, 5),
                      degree=(2, 5), f_bound=Fraction(3, 2))
    calls, key = [], search._solution_sort_key
    monkeypatch.setattr(search, "_solution_sort_key", lambda sol: calls.append(1) or key(sol))
    records = search.run_chunk(cfg.semantic_dict(), search._mode_units(cfg))
    assert len(records) == 64 and max(r["count"] for r in records) > 300
    assert len(calls) == sum(r["count"] for r in records) == 1845
    monkeypatch.undo()
    assert records == _records(cfg, n_chunks=16)


def test_fc_at_2_44_finds_the_catalog():
    # Unit (3, 8) alone reaches 33**8 + 1549034**2 = 15613**3: its third
    # term for unit (3, 4), where 33**8 = 1089**4, is a square.
    cfg = make_config("fermat-catalan", max_bits=44)
    records = _records(cfg)
    want = sorted(tuple(sorted(v for v, _ in sol.terms))
                  for sol in families.fermat_catalan_catalog()
                  if max(v for v, _ in sol.terms) <= cfg.max_value)
    assert sorted(tuple(sorted(r["values"])) for r in records) == want
    assert len(want) == 7
    assert [33**8, 1549034**2, 15613**3] in [r["values"] for r in records]
    assert (3, 8) in {(u["e1"], u["e2"]) for u in search._mode_units(cfg)
                      if u["kind"] == "fcpair"}
    _assert_all_verify(records, cfg)


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
        search._run_fc_units(cfg, [unit], fast)
        _fc_wild_reference(cfg, slow)
        assert canon_json(sorted(fast.items())) == canon_json(sorted(slow.items())), (
            coeffs)
        found += len(slow)
    assert found > 10


def test_product_tables_hold_exactly_the_decomposable_values():
    for M in (1 << 16, 3**10 + 7):
        t = np.arange(-2, M + 3, dtype=np.int64)
        for d in range(3, 9):
            # decompose is complete, so decompose(v, d, s) is nonempty exactly
            # when decompose(v, d, 4) has a witness of spread <= s
            least = {v: min(w.spread for w in wits) for v in range(1, M + 1)
                     if (wits := decompose(v, d, 4))}
            for s in range(0, 5):
                want = sorted(v for v, spread in least.items() if spread <= s)
                values = product_values(M, d, s)
                assert values.dtype == np.int64 and values.tolist() == want, (M, d, s)
                member = search._product_table(M, d, s)
                assert np.flatnonzero(member(t)).tolist() == [v + 2 for v in want]

    # Near the int64 limit: powers, their neighbours and products b**(d-1)*(b+s).
    # (Degrees 3 and 4 at s = 4 would build over a million states each.)
    M = 1 << 62
    for d, spreads in ((4, (0, 1)), (5, range(5)), (6, range(5)), (7, range(5)),
                       (8, range(5))):
        root = arith.iroot(M, d)[0]
        for s in spreads:
            values = {M + 1}
            for k in range(root - 30, root + 2):
                values |= {k**d - 1, k**d, k**d + 1, k ** (d - 1) * (k + s)}
            values = sorted(v for v in values if 1 <= v < 2**63)
            hits = [bool(v <= M and decompose(v, d, s)) for v in values]
            assert sum(hits) > 20
            t = np.array(values, dtype=np.int64)
            assert search._product_table(M, d, s)(t).tolist() == hits, (d, s)
            assert np.isin(t, product_values(M, d, s)).tolist() == hits, (d, s)


def test_sifted_member_is_exact():
    # the slots only sift: membership equals a Python set's, on int64
    # tables and on an object table past 2**62
    for values in (product_values(1 << 40, 3, 1), product_values(1 << 62, 6, 2),
                   np.array([0, 5, 2**62], dtype=np.int64)):
        member, table = search._sifted_member(values), set(values.tolist())
        t = np.concatenate([values, values - 1, values + 1, -values, [0, -1, 2**62],
                            np.arange(-4, 5, dtype=np.int64) << 40]).astype(np.int64)
        assert member(t).tolist() == [v in table for v in t.tolist()]
    values = product_values(1 << 66, 5, 0)  # b**5, b <= 9410
    assert values.dtype == object
    member, table = search._sifted_member(values), set(values.tolist())
    # v + 2**64 shares v's low bits and is not in the table
    t = np.concatenate([values, values + 1, values + (1 << 64), -values,
                        np.array([0, -1, 2**62, 2**70], dtype=object)])
    assert member(t).tolist() == [v in table for v in t.tolist()]
    assert member(t).sum() == len(values)


def _scalar_product_unit(cfg, unit, acc):
    """`_run_product_units` on one unit as the plain `_pairs` + `decompose` loop.

    A cube unit walks every x against its range of y.
    """
    n, m = unit["e1"], unit["e2"]
    survey = cfg.mode == "survey"
    if survey:
        cell = [n, m, unit["d"]]
        search._merge_into(acc, {"mode": "survey", "cell": cell, "count": 0,
                                 "solutions": []})
    caps = search._product_plan(cfg).caps[tuple(cell) if survey else (n, m)]
    M = cfg.max_value
    relation = "coprime" if cfg.mode == "gbtz" else "nonmaxgcd"
    floor_s = 1 if cfg.mode == "nonmaxgcd3" else 0
    if unit["kind"] == "cube":  # its range is of y: walk (y**m, x**3) for every x
        pairs = ((Q, P) for P, Q in search._pairs(
            M, relation, [_unit(m, n, unit["xlo"], unit["xhi"])], ordered=True))
        pairs = ((P, Q) if survey or P >= Q else (Q, P) for P, Q in pairs)
    else:
        pairs = search._pairs(M, relation, [_unit(n, m, unit["xlo"], unit["xhi"])],
                              ordered=survey)
    for P, Q in pairs:
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
    ("fp", {"max_bits": 26, "f_bound": Fraction(2)}),
    ("survey", {"max_bits": 18, "n_range": (3, 5), "m_range": (3, 5),
                "degree": (3, 5)}),
    ("gbtz", {"max_bits": 20, "f_bound": Fraction(2), "sign": "plus"}),
    ("gbtz", {"max_bits": 20, "f_bound": Fraction(2), "sign": "minus"}),
    ("gbtz", {"max_bits": 24, "f_bound": Fraction(2)}),  # degrees 5..10 untabled
])
def test_product_unit_prefilter_matches_scalar_loop(mode, extra, cells,
                                                    monkeypatch):
    monkeypatch.setattr(search, "_PREFILTER_CELLS", cells)
    cfg = make_config(mode, **extra)
    units = search._mode_units(cfg)
    if mode == "survey":  # both n == m and n != m cells
        assert {u["e1"] == u["e2"] for u in units} == {True, False}
    filtered = Counter()  # units whose walk takes the table keep, and the others
    pairs = search._pairs

    def counted_pairs(M, relation, units, *args, keep=None, **kwargs):
        # a cube unit reads no table, so only the others count
        filtered[keep is not None] += sum(u["kind"] != "cube" for u in units)
        return pairs(M, relation, units, *args, keep=keep, **kwargs)

    fast, slow = {}, {}
    for u in units:
        monkeypatch.setattr(search, "_pairs", counted_pairs)
        search._run_product_units(cfg, [u], fast)
        monkeypatch.setattr(search, "_pairs", pairs)
        _scalar_product_unit(cfg, u, slow)
    assert canon_json(sorted(fast.items())) == canon_json(sorted(slow.items()))
    assert filtered[True], mode
    # a degree the cost rule leaves without a table makes its units walk
    plan = search._product_plan(cfg)
    assert bool(filtered[False]) == bool(set(plan.by_degree) - set(plan.tables))
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
                 "coeffs", "max_bits", "sign", "degree"):
        with pytest.raises(ValueError, match=name):
            make_config("gbtz", **{name: None})
    for name in ("max_bits", "sign"):
        with pytest.raises(ValueError, match=name):
            SearchConfig(mode="gbtz", **dict({"max_bits": 20}, **{name: None}))
    assert make_config("gbtz", max_spread=None).max_spread is None
    # a product mode built without a degree range is refused, not a TypeError later
    for mode, extra in (("gbtz", {}), ("fp", {}), ("maxgcd-spread1", {}),
                        ("survey", {"n_range": (3, 4), "m_range": (3, 4)})):
        with pytest.raises(ValueError, match=f"{mode} mode needs a degree range"):
            SearchConfig(mode=mode, max_bits=20, **extra)
    # pillai reads no spread cap as cap 0, so both builds are one search
    direct = SearchConfig(mode="pillai", max_bits=16, difference=1, sign="plus",
                          f_bound=Fraction(41, 42), f_strict=False, max_spread=None)
    assert direct.max_spread == 0
    assert direct.digest() == make_config("pillai", max_bits=16, difference=1).digest()
    # nonmaxgcd3 is the degree-3 mode; another degree range is refused
    assert make_config("nonmaxgcd3").degree == (3, 3)
    for degree in ((4, 6), (3, 5), (2, 3)):
        with pytest.raises(ValueError, match="degree"):
            make_config("nonmaxgcd3", degree=degree)


def test_from_dict_refuses_another_format():
    d = make_config("fermat-catalan", max_bits=14).semantic_dict()
    assert d["format"] == search.FORMAT_VERSION
    for fmt in ({"a": 1}, 2**70, 1, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="config format"):
            SearchConfig.from_dict(dict(d, format=fmt))
        with pytest.raises(ValueError, match="config format"):  # a foreign chunk
            search.run_chunk(dict(d, format=fmt), [])
    del d["format"]
    with pytest.raises(ValueError, match="config format None is not 2"):
        SearchConfig.from_dict(d)


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
    # every mode's default config and its 16-chunk plan, pinned the same way
    for mode, overrides, digest, plan_digest in (
            ("fermat-catalan", {},
             "5679b48ae10790b4ecfc9901c4dd2850c467cf8907a572ae0d57c70317f9718d",
             "291f6b33af59c5b37693284595aebc4424db4674edb91a130987cf2f2d25a164"),
            ("gbtz", {},
             "c882b4618d758a1a24d6be2312ae397f87f0f711fba54ef5ce88e33521a539f5",
             "cb2ed7f9b52d9e795e190880e5f4231ff839416f5b1c3cfce9823ee64f915914"),
            ("nonmaxgcd3", {},
             "7320bf1722ac52fa517c1f7f37850540d6d428fadb8d639c4dc3af9d46ed33b0",
             "734bcc31de05e5738d92a89b859b4c947a08bb39191902354fc21a6f453388a9"),
            ("fp", {},
             "6de9854642126bb8f21c9d502c90faa4f15c2a7e8dd2a0023c1e96548230ba93",
             "80afc59a83e1e30ecb84798619b7b8b257329f108767e888b7fed76953473525"),
            ("maxgcd-spread1", {},
             "12a8dc0a5f5101d8c2b5b8b48162418cdc12ba7b1eb14a541620a0b48edfd82b",
             "02c10f06722070e98619dcf2d680c6711e87d73a1d8225004a8c768814f1f7a4"),
            ("pillai", {"difference": 1},
             "cf82a6b94f2d1bef024447794ef4f410a13bde357503d6c85800286da2da3dc7",
             "a61d5a6028875e36f07c78caea6a5368a992bcc4e607c0bbe307bdcd5013c307"),
            ("survey", {"n_range": (3, 6), "m_range": (3, 6)},
             "48e915e426134a77386e1eb54a49bd2ecad7a2012ebef6ac550db9743353ef30",
             "3d370100b628c42eab78380b1a553e888f02d5dfa22dc6188180a1fdb61e361d"),
    ):
        cfg = make_config(mode, **overrides)
        assert cfg.digest() == digest, mode
        assert search._sha256(search.plan_chunks(cfg, 16)) == plan_digest, mode


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


def test_spread_cap_matches_fraction_formula():
    # the integer cap against ceil/floor of d (f_bound - 1/n - 1/m) - 1
    for f_bound in map(Fraction, ("1", "41/42", "9/10", "3/2", "5/4", "1/2",
                                  "2", "7/3")):
        for n in range(1, 30):
            for m in range(n, 30):
                rem = f_bound - Fraction(1, n) - Fraction(1, m)
                for d in range(1, 40):
                    limit = d * rem - 1
                    for strict, cap in ((True, math.ceil(limit) - 1),
                                        (False, math.floor(limit))):
                        assert search._spread_cap(n, m, d, f_bound, strict) == max(
                            cap, -1), (n, m, d, f_bound, strict)
                        assert search._spread_cap(m, n, d, f_bound, strict) == max(
                            cap, -1)


def test_product_plan_computes_each_cap_once(monkeypatch):
    # One cached pass gives every cap a run reads: planning, each chunk, the
    # table choice and verification call `_spread_cap` once per (cell, degree).
    cfg = make_config("gbtz", max_bits=24, f_bound=Fraction(2))
    calls = Counter()
    real = search._spread_cap

    def counted(n, m, d, f_bound, strict):
        calls[n, m, d] += 1
        return real(n, m, d, f_bound, strict)

    monkeypatch.setattr(search, "_spread_cap", counted)
    search._product_plan.cache_clear()
    records = _records(cfg, n_chunks=4)
    assert len(records) == 29
    _assert_all_verify(records, cfg)
    # gbtz cells n <= m in 3..24, each tested at the degrees 3..min(n, 10)
    want = [(n, m, d) for n in range(3, 25) for m in range(n, 25)
            for d in range(3, min(n, 10) + 1)]
    assert calls == Counter(want) and len(want) == len(set(want))
    # the planned cells: those with a degree whose cap admits a witness, less
    # the (n, n) cells with the one base 2, whose y < x triangle is empty
    caps = {}
    for n, m, d in want:
        cap = real(n, m, d, cfg.f_bound, cfg.f_strict)
        if cap >= 0 and (n < m or 3**n <= cfg.max_value):
            caps.setdefault((n, m), []).append((d, cap))
    assert search._product_plan(cfg).caps == caps


@pytest.mark.parametrize("mode, max_bits, tables", [
    ("gbtz", 31, {3: (1, 3870), 4: (2, 2150), 5: (3, 2555), 6: (4, 4410)}),
    ("fp", 34, {4: (0, 362), 5: (1, 555), 6: (2, 1050)}),
    ("nonmaxgcd3", 30, {3: (1, 3072)}),
    ("maxgcd-spread1", 36, {}),
])
def test_bench_product_configs_keep_their_table_choice(mode, max_bits, tables):
    # degree -> (largest cap, build bound) of the product-target workload's
    # configs, as the per-degree cost rule chose them before the plan pass
    cfg = make_config(mode, max_bits=max_bits)
    assert search._product_plan(cfg).tables == tables


def test_product_units_with_an_untabled_degree_walk_every_cell(monkeypatch):
    # A unit with a degree the cost rule leaves untabled walks every cell: it
    # hands decompose the Z values of the plain walk, once per (Z, d, cap),
    # less those of its sieved degrees (two or more with B_d = iroot(M, d) +
    # cap <= 2**11) where Z has a prime above their largest B_d, none of which
    # decomposes.  A unit whose degrees are all tabled hands it exactly those
    # of the cells with a Z in a table.
    cfg = make_config("gbtz", max_bits=18, f_bound=Fraction(2))
    M = cfg.max_value
    plan = search._product_plan(cfg)
    tabled = plan.tables
    assert set(tabled) == {3}
    for d, (s, bound) in tabled.items():
        assert bound == arith.iroot(M, d)[0] * math.comb(d - 1 + s, s)
    calls = []
    real = search.decompose
    monkeypatch.setattr(search, "decompose",
                        lambda Z, d, s: calls.append((Z, d, s)) or real(Z, d, s))
    # a hit's record decomposes Z again: count only the walk's calls
    monkeypatch.setattr(search, "_product_record", lambda *args: None)
    monkeypatch.setattr(search, "_merge_into", lambda acc, rec: None)
    kinds = {True: 0, False: 0}
    filtered = {"calls": 0, "want": 0}
    sieved_out = 0
    for unit in search._mode_units(cfg):
        caps = plan.caps[unit["e1"], unit["e2"]]
        walks = any(d not in tabled for d, _ in caps)
        kinds[walks] += 1
        cells = [[(Z, d, s) for Z in (P + Q, P - Q) if 1 <= Z <= M for d, s in caps]
                 for P, Q in search._pairs(M, "coprime", [_unit(unit["e1"], unit["e2"],
                                                               unit["xlo"], unit["xhi"])])]
        want = [c for cell in cells for c in cell]
        calls.clear()
        search._run_product_units(cfg, [unit], {})
        if walks:
            reach = {d: arith.iroot(M, d)[0] + s for d, s in caps}
            sieved = {d for d in reach if reach[d] <= 2**11}
            B = max(reach[d] for d in sieved) if len(sieved) > 1 else math.inf
            out = [d in sieved and max(p for p, _ in arith.factorize(Z) + [(1, 0)]) > B
                   for Z, d, _ in want]
            assert all(real(Z, d, s) == [] for (Z, d, s), o in zip(want, out) if o)
            assert sorted(calls) == sorted(c for c, o in zip(want, out) if not o), unit
            sieved_out += sum(out)
        else:
            kept = [c for cell in cells if any(real(Z, d, tabled[d][0])
                                               for Z, d, _ in cell) for c in cell]
            assert sorted(calls) == sorted(kept), unit
            filtered["calls"] += len(calls)
            filtered["want"] += len(want)
    assert kinds[True] > 10 and kinds[False] > 10
    assert filtered["calls"] < filtered["want"] / 20
    assert sieved_out > 1000, sieved_out


@pytest.mark.parametrize("n_chunks", [1, 16])
@pytest.mark.parametrize("mode, extra, sieves", [
    ("gbtz", {"max_bits": 18, "f_bound": Fraction(2)}, True),
    ("gbtz", {"max_bits": 24, "f_bound": Fraction(2)}, True),
    ("gbtz", {"max_bits": 31}, True),
    ("fp", {"max_bits": 34}, False),
    ("nonmaxgcd3", {"max_bits": 30}, False),  # one degree per unit: no sieve
    ("maxgcd-spread1", {"max_bits": 30}, False),
])
def test_smooth_sieve_keeps_the_record_section(mode, extra, sieves, n_chunks,
                                               monkeypatch):
    # the record section with the smooth test is the one of a test that
    # always passes, i.e. of `decompose` at every degree of every walked cell
    cfg = make_config(mode, **extra)
    tested = []
    real = arith.smooth
    monkeypatch.setattr(arith, "smooth", lambda n, b: tested.append(b) or real(n, b))
    sieved = canon_json(_records(cfg, n_chunks=n_chunks))
    assert bool(tested) == sieves and all(b <= 2**11 for b in tested)
    monkeypatch.setattr(arith, "smooth", lambda n, b: True)
    assert sieved == canon_json(_records(cfg, n_chunks=n_chunks))


def test_gbtz_2_31_decompose_calls(monkeypatch):
    # the product-target workload's gbtz step: its units with degrees 7..10
    # untabled made 26,144 calls before the smooth test skipped most of them
    calls = []
    real = search.decompose
    monkeypatch.setattr(search, "decompose",
                        lambda Z, d, s: calls.append(Z) or real(Z, d, s))
    assert _records(make_config("gbtz", max_bits=31), n_chunks=16) == []
    assert 0 < len(calls) < 5000, len(calls)


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
    # every degree tabled (2/1 passes), degree 2 tabled, and tables past 2**62
    {"max_bits": 14, "max_spread": 1, "f_bound": 2, "degree": (1, 5)},
    {"max_bits": 16, "f_bound": 1, "f_strict": False},
    {"max_bits": 66, "max_spread": 1, "degree": (6, 66)},
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
    def no_table(*args, **kwargs):
        raise AssertionError("no table may be built")

    # at f_bound 2 degree 1 is tabled, with cap 0: every integer up to 2**40
    monkeypatch.setattr(search, "product_values", no_table)
    cfg = make_config("pillai", difference=1, degree=(1, 3), max_bits=40, f_bound=2)
    tables = search._product_plan(cfg).tables
    assert tables == {1: (0, 2**40), 2: (0, 2**20), 3: (0, 10321)}
    # counted up to the share, the table of degree 1 alone passes it
    limit = search.MEMORY_BUDGET // search._JOIN_STATE_BYTES
    assert search._table_states(cfg.max_value, 1, 0, limit) == limit + 1 < 2**40
    with pytest.raises(MemoryError, match="product value tables need more than "
                       f"{search._JOIN_STATE_BYTES * limit} bytes"):
        run_chunked(cfg, n_chunks=16)


def test_product_tables_refused_up_front(monkeypatch):
    def no_chunk(*args, **kwargs):
        raise AssertionError("no chunk may run")

    cfg = make_config("gbtz", max_bits=24, f_bound=Fraction(2))
    tabled = search._product_plan(cfg).tables
    need = 96 * sum(bound for _, bound in tabled.values())
    assert set(tabled) == {3, 4}
    monkeypatch.setattr(search, "run_chunk", no_chunk)
    monkeypatch.setattr(search, "_run_chunk_task", no_chunk)
    for budget, threads in ((need - 1, 1), (2 * need - 1, 2)):
        monkeypatch.setattr(search, "MEMORY_BUDGET", budget)
        with pytest.raises(MemoryError, match="product value tables need about "
                           f"{need} bytes per worker.*fewer --threads"):
            run_chunked(cfg, n_chunks=4, threads=threads)
    monkeypatch.undo()
    monkeypatch.setattr(search, "MEMORY_BUDGET", 2 * need)
    assert len(_records(cfg, n_chunks=4, threads=1)) == 29
    # maxgcd pairs and fc build no table; pillai tables its degrees 3..16
    for other in (make_config("maxgcd-spread1", max_bits=24),
                  make_config("fermat-catalan", max_bits=24)):
        assert search._product_plan(other).tables == {}
    pillai = search._product_plan(make_config("pillai", max_bits=16, difference=1))
    assert pillai.caps[()] == [(d, 0) for d in range(2, 17)]
    assert set(pillai.tables) == set(range(3, 17))


def test_run_frees_the_tables_of_earlier_runs():
    # _check_memory counts only the tables of the run it checks, so a run
    # that passes it starts from empty tables, statistics included
    tables = (search._powers, search._powers_i64, search._power_value_set,
              search._product_values, search._product_table, search._fc_keep)
    pillai = make_config("pillai", difference=1, max_bits=16, max_spread=2)
    run_chunked(pillai)
    alone = [t.cache_info() for t in tables]
    assert alone[3].currsize and not alone[0].currsize
    for cfg in (make_config("gbtz", max_bits=24, f_bound=2),
                make_config("fermat-catalan", max_bits=20)):
        run_chunked(cfg)
        assert all(t.cache_info().currsize for t in tables[:2])
    run_chunked(pillai)
    assert [t.cache_info() for t in tables] == alone


def test_fc_power_set_refused_up_front(monkeypatch):
    def no_set(*args, **kwargs):
        raise AssertionError("the power set must not be built")

    monkeypatch.setattr(search, "_power_value_set", no_set)
    cfg = make_config("fermat-catalan", max_bits=128)
    M = cfg.max_value
    count = sum(arith.iroot(M, p)[0] - 1 for p in range(5, 129) if arith.is_prime(p))
    assert count == 51_183_089
    need = search._POWER_SET_BYTES * count
    with pytest.raises(MemoryError, match="fc prime-power set needs about "
                       f"{need} bytes per worker.*fewer --threads"):
        run_chunked(cfg, n_chunks=4)
    # 2**124 no longer fits one worker: its cube table alone has over 2**41 entries
    cfg = make_config("fermat-catalan", max_bits=124)
    plan = search.plan_chunks(cfg, 4)
    entries = 2_772_774_335_409
    assert arith.iroot(cfg.max_value, 3)[0] > 2**41
    with pytest.raises(MemoryError, match="fc prime-power set needs about [0-9]+ bytes "
                       "per worker and the power tables about "
                       f"{search._POWER_ENTRY_BYTES * entries} more"):
        search._check_memory(cfg, plan, 1)


def test_check_memory_counts_the_cube_table_of_cube_units(monkeypatch):
    # gbtz's only units with exponent 3 are cube units (3, m), and their rows
    # index `_powers(M, 3)`
    cfg = make_config("gbtz", max_bits=40)
    plan = search.plan_chunks(cfg, 4)
    units = [u for g in plan for u in g]
    assert {u["kind"] for u in units if 3 in (u["e1"], u["e2"])} == {"cube"}
    exps = {e for u in units for e in (u["e1"], u["e2"])}
    assert 3 in exps and all(u["xlo"] <= u["xhi"] for u in units)
    entries = sum(arith.iroot(cfg.max_value, e)[0] + 1 for e in exps)
    assert entries > arith.iroot(cfg.max_value, 3)[0] > 10000
    monkeypatch.setattr(search, "MEMORY_BUDGET", 1)
    with pytest.raises(MemoryError, match="the power tables about "
                       f"{search._POWER_ENTRY_BYTES * entries} more"):
        search._check_memory(cfg, plan, 1)


@pytest.mark.parametrize("mode, extra, entries", [
    # fcone 3 and the pair units (3, e2) index a 2**30-entry cube table
    ("fermat-catalan", {"max_bits": 90}, 1_079_981_064),
    # min_exp_cap 2 plans the square units too: a 2**31-entry square table
    ("fermat-catalan", {"max_bits": 62, "f_bound": "3/2", "min_exp_cap": 2},
     2_149_202_451),
    ("survey", {"max_bits": 62, "n_range": (2, 3), "m_range": (2, 3), "f_bound": 2},
     2_149_148_160),
])
def test_power_tables_refused_up_front(monkeypatch, mode, extra, entries):
    def no_table(*args, **kwargs):
        raise AssertionError("no power table may be built")

    monkeypatch.setattr(search, "_powers", no_table)
    cfg = make_config(mode, **extra)
    need = search._POWER_ENTRY_BYTES * entries
    with pytest.raises(MemoryError, match=f"the power tables about {need} more.*"
                       "fewer --threads"):
        run_chunked(cfg, n_chunks=16)


def test_check_memory_at_a_degree_past_the_recursion_limit(monkeypatch):
    # with a budget the loose bound passes, the table's states are counted
    # exactly, by a recursion that takes the 1s of base 1 in one step
    cfg = make_config("pillai", difference=1, degree=(1000, 1000), max_bits=20,
                      max_spread=2)
    plan = search.plan_chunks(cfg, 16)
    assert search._product_plan(cfg).tables == {1000: (2, 500_500)}
    exact = search._table_states(cfg.max_value, 1000, 2, limit=10**6)
    assert exact == sum(1 for a in range(21) for c in range(14) if 2**a * 3**c <= 2**20)
    monkeypatch.setattr(search, "MEMORY_BUDGET", search._JOIN_STATE_BYTES * exact)
    search._check_memory(cfg, plan, 1)
    monkeypatch.setattr(search, "MEMORY_BUDGET", search._JOIN_STATE_BYTES * exact - 1)
    with pytest.raises(MemoryError, match="product value tables"):
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
def test_table_states_count_the_walk(extra):
    # the exact count is the multisets of each base, those enumerate_products
    # yields, and no more than the loose bound; a table holds their values
    cfg = make_config("pillai", **dict({"difference": 1, "max_spread": 2}, **extra))
    M = cfg.max_value
    for d, (cap, loose) in search._product_plan(cfg).tables.items():
        exact = search._table_states(M, d, cap, limit=loose)
        real = sum(1 for _ in enumerate_products(SpreadConstraints(d, cap), M))
        assert len(product_values(M, d, cap)) <= exact == real <= loose
        assert loose == search._table_states(M, d, cap)
        # a limit below the count saturates the count at limit + 1
        assert search._table_states(M, d, cap, limit=real) == real
        for limit in (0, real // 3, real - 1):
            assert search._table_states(M, d, cap, limit=limit) == limit + 1


def test_check_memory_refuses_a_huge_table_count_fast(monkeypatch):
    # the exact count of this table stops at the share's limit: counted in
    # full it took tens of seconds (548,757,409 states)
    def no_chunk(*args, **kwargs):
        raise AssertionError("no chunk may run")

    cfg = make_config("pillai", difference=1, max_bits=60, degree=(10, 10),
                      max_spread=20, f_bound=3)
    limit = search.MEMORY_BUDGET // search._JOIN_STATE_BYTES
    M, (cap, loose) = cfg.max_value, search._product_plan(cfg).tables[10]
    assert cap == 20 and loose * search._JOIN_STATE_BYTES > search.MEMORY_BUDGET
    monkeypatch.setattr(search, "run_chunk", no_chunk)
    monkeypatch.setattr(search, "_run_chunk_task", no_chunk)
    start = time.perf_counter()
    assert search._table_states(M, 10, 20, limit) == limit + 1
    with pytest.raises(MemoryError, match="product value tables need more than "
                       f"{search._JOIN_STATE_BYTES * limit} bytes per worker"):
        run_chunked(cfg, n_chunks=16)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("extra, loose, count, sha", [
    ({"max_bits": 18, "max_spread": 12, "degree": (16, 18)}, 199_403_100, 1290,
     "273201ff8bc5525e694ca40d5a74b33d9a0a534e4edb69d18f94d2ebc47c3474"),
    ({"max_bits": 20, "max_spread": 2, "degree": (1000, 1000)}, 500_500, 4,
     "e214f51d527943be41683b15183dd853be5bb48540ae03b52aa1464462aa205b"),
])
def test_pillai_high_degree_runs_keep_their_records(extra, loose, count, sha):
    # the records of the per-chunk index the tables replaced; at spread 12
    # the loose bound passes the budget, and the exact count lets the run go on
    cfg = make_config("pillai", difference=1, **extra)
    assert sum(bound for _, bound in search._product_plan(cfg).tables.values()) == loose
    assert (search._JOIN_STATE_BYTES * loose > search.MEMORY_BUDGET) == (count == 1290)
    for n_chunks in (1, 16):
        records = _records(cfg, n_chunks=n_chunks)
        assert len(records) == count and search._sha256(records) == sha


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


def test_plan_size_refused_before_any_split(tmp_path, monkeypatch):
    # 10**12 chunks of pillai 2^40 would need about 1 PB of plan; the
    # refusal comes before the first piece is keyed, also on resume
    def no_split(*args):
        raise AssertionError("the plan was split before its size was checked")

    cfg = make_config("pillai", difference=1, max_bits=40)
    monkeypatch.setattr(search, "_unit_order_key", no_split)
    with pytest.raises(MemoryError, match="fewer --chunks"):
        run_chunked(cfg, n_chunks=10**12)
    ckpt = tmp_path / "run.ckpt"
    ckpt.write_text(canon_json({
        "format": search.CHECKPOINT_FORMAT, "version": search.FORMAT_VERSION,
        "config_digest": cfg.digest(), "config": cfg.semantic_dict(),
        "plan_digest": "0" * 64, "n_chunks": 10**12, "done": {},
        "done_sha256": {}}))
    with pytest.raises(MemoryError, match="fewer --chunks"):
        run_chunked(cfg, checkpoint_path=str(ckpt), resume=True)
    monkeypatch.undo()

    # pieces are bounded by the chunks and by the bases of the units
    small = make_config("fermat-catalan", max_bits=13)
    bases = sum(max(1, u["xhi"] - u["xlo"] + 1) for u in search._mode_units(small))
    for n_chunks, pieces in ((10**9, bases), (16, 16)):
        monkeypatch.setattr(search, "_PIECE_BYTES", (4 << 30) // pieces)
        search.plan_chunks(small, n_chunks)
        monkeypatch.setattr(search, "_PIECE_BYTES", (4 << 30) // pieces + 1)
        with pytest.raises(MemoryError):
            search.plan_chunks(small, n_chunks)
    monkeypatch.undo()
    assert search.plan_chunks(small, 10**9) == search.plan_chunks(small, bases)


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


@pytest.mark.parametrize("extra, count", [
    pytest.param(extra, count, id=str(extra)) for extra, count in [
        ({}, 5), ({"coeffs": (1, 2, 3)}, 9), ({"min_exp": 3}, 0),
        ({"f_bound": Fraction(3, 2)}, 213)]])
def test_fc_records_independent_of_the_chunk_plan(extra, count):
    # A chunk's fc pair and fcone units share one cell stream, so the chunk
    # plan decides which units fill each keep block; the records stay the same.
    cfg = make_config("fermat-catalan", max_bits=24, **extra)
    runs = {n: canon_json(_records(cfg, n_chunks=n)) for n in (1, 3, 16, 64)}
    assert len(set(runs.values())) == 1, extra
    assert len(json.loads(runs[1])) == count
    assert any(len([u for u in g if u["kind"] in ("fcone", "fcpair")]) > 1
               for g in search.plan_chunks(cfg, 16))


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


def test_pool_starts_no_more_workers_than_chunks_to_run(monkeypatch):
    # The fork start method starts every one of max_workers at the first
    # submit, so the pool is sized to the chunks that run.  No process starts.
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(search, "ProcessPoolExecutor", FakePool)
    cfg = make_config("fermat-catalan", max_bits=12)
    serial = _records(cfg)
    for threads, n_chunks, max_chunks in ((64, 2, None), (3, 8, None), (64, 8, 5)):
        res = run_chunked(cfg, n_chunks=n_chunks, threads=threads,
                          max_chunks=max_chunks)
        assert res.chunks_total == n_chunks
        assert res.records == (serial if max_chunks is None else [])
    assert sizes == [2, 3, 5]


def test_bench_span_names_resolve():
    # The traced bench run wraps these names; a rename must fail here too.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(mod, attr) for mod, attr, *_ in spans.LAYER_FUNCTIONS + spans.LAYER_ITERATORS]
    assert ("search", "decompose") in names and ("search", "enumerate_products") in names
    for mod, attr in names:
        target = getattr(importlib.import_module("fcspread." + mod), attr, None)
        assert callable(target), (mod, attr)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(CheckpointMismatch):
        search.load_checkpoint(str(path))
    cfg = make_config("fermat-catalan", max_bits=10)
    run_chunked(cfg, n_chunks=2, checkpoint_path=str(path), max_chunks=1)
    state = json.loads(path.read_text())
    broken = ["{not json", "[1, 2]"] + [
        json.dumps(dict(state, n_chunks=bad)) for bad in (0, True)] + [
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
    # product configs with records, against the bench's empty gbtz and fp logs
    ("gbtz", {"max_bits": 24, "f_bound": Fraction(2)}, 29,
     "6e56cfdb685436f4bff03e819ed6352dfc20cd50452d11525fbcae649e27d8fe"),
    ("survey", {"max_bits": 26, "n_range": (3, 6), "m_range": (3, 6),
                "degree": (3, 6)}, 64,
     "c747d5995d712b110bc5631d00ba96687ac13a2faa8a5311319649d0438f4136"),
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
        "stored solutions wrong"]
    assert verify_record(dict(rec, solutions=sols + sols[-1:], count=len(sols) + 1),
                         cfg) == ["stored count wrong", "stored solutions wrong"]
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
