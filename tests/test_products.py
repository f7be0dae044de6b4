"""Product decompositions, spread bookkeeping, weights and enumeration."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from fcspread import products
from fcspread.products import SpreadConstraints, analyze, decompose, fc_weight


def test_analyze_examples():
    p = analyze([2, 3])
    assert (p.base, p.spread, p.degree, p.value) == (2, 1, 2, 6)
    p = analyze([1, 1, 2, 3])
    assert (p.base, p.spread, p.degree, p.value) == (1, 2, 4, 6)
    p = analyze([5, 5, 5])
    assert (p.base, p.spread, p.degree, p.value) == (5, 0, 3, 125)
    assert p.weight == Fraction(1, 3)


def test_analyze_sorts_and_rejects():
    assert analyze([3, 1, 2]).factors == (1, 2, 3)
    with pytest.raises(ValueError):
        analyze([])
    with pytest.raises(ValueError):
        analyze([4, 0])


def test_decompose_examples():
    assert [d.factors for d in decompose(4352, 3, 1)] == [(16, 16, 17)]
    assert [d.factors for d in decompose(266240, 3, 1)] == [(64, 64, 65)]
    assert decompose(30, 3, 0) == []
    assert [d.factors for d in decompose(576, 3, 1)] == [(8, 8, 9)]
    # degrees past the recursion limit
    assert [d.factors for d in decompose(1, 1000, 0)] == [(1,) * 1000]
    assert [d.factors for d in decompose(6, 1000, 2)] == [(1,) * 998 + (2, 3)]


def _brute_decompose(value, degree, max_spread):
    found = set()
    r = round(value ** (1 / degree))
    for base in range(max(1, r - max_spread - 2), r + 3):
        for tail in itertools.combinations_with_replacement(
            range(base, base + max_spread + 1), degree - 1
        ):
            factors = (base,) + tail
            if math.prod(factors) == value:
                found.add(factors)
    return sorted(found)


def test_decompose_matches_brute_force():
    for value in range(1, 10**4):
        for degree in (2, 3, 4):
            for spread in (0, 1, 3):
                got = sorted(d.factors for d in decompose(value, degree, spread))
                assert got == _brute_decompose(value, degree, spread), (
                    value, degree, spread,
                )


def test_decompose_large_sample():
    rng = random.Random(201)
    for _ in range(300):
        value = rng.randrange(10**4, 10**8)
        degree = rng.randrange(2, 5)
        spread = rng.randrange(0, 4)
        got = sorted(d.factors for d in decompose(value, degree, spread))
        assert got == _brute_decompose(value, degree, spread)


def test_fc_weight_examples():
    assert fc_weight([(0, 2), (0, 3), (0, 7)]) == Fraction(41, 42)
    assert fc_weight([(0, 4), (0, 14), (1, 3)]) == Fraction(83, 84)
    assert fc_weight([(2, 2), (0, 5), (0, 5)]) == Fraction(19, 10)
    with pytest.raises(ValueError):
        fc_weight([(0, 0)])


def test_fc_weight_properties():
    rng = random.Random(202)
    for _ in range(200):
        terms = [(rng.randrange(0, 5), rng.randrange(1, 30)) for _ in range(3)]
        w = fc_weight(terms)
        shuffled = terms[:]
        rng.shuffle(shuffled)
        assert fc_weight(shuffled) == w
        s, d = terms[0]
        heavier = [(s, d + 1)] + terms[1:]
        assert fc_weight(heavier) < w  # strictly decreasing in each degree


def test_spread_lemma_margin_examples():
    assert products.spread_lemma_margin(analyze([2] * 6)) == pytest.approx(0.0, abs=1e-12)
    m = products.spread_lemma_margin(analyze([8, 8, 9]))
    assert m == pytest.approx(0.25 + (2 / 3) * math.log(576) - math.log(6), abs=1e-9)
    assert m == pytest.approx(2.70, abs=0.01)
    m = products.spread_lemma_margin(analyze([3, 3, 3, 4]))
    assert m == pytest.approx(2 / 3 + 0.5 * math.log(108) - math.log(6), abs=1e-9)
    assert m == pytest.approx(1.22, abs=0.01)


def test_spread_lemma_margin_precondition():
    # needs spread + 1 < degree
    with pytest.raises(ValueError):
        products.spread_lemma_margin(analyze([2, 3]))
    with pytest.raises(ValueError):
        products.spread_lemma_margin(analyze([2, 3, 4]))


def test_enumerate_products_examples():
    got = {
        d.factors
        for d in products.enumerate_products(
            SpreadConstraints(degree=2, max_spread=1), 10
        )
    }
    assert got == {(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)}
    got = {
        d.factors
        for d in products.enumerate_products(
            SpreadConstraints(degree=3, max_spread=0), 30
        )
    }
    assert got == {(1, 1, 1), (2, 2, 2), (3, 3, 3)}
    # s^2/b <= 1/2 forces base >= 8 for spread-2 pairs
    got = [
        d
        for d in products.enumerate_products(
            SpreadConstraints(
                degree=2, max_spread=2, max_spread_sq_over_base=Fraction(1, 2)
            ),
            200,
        )
        if d.spread == 2
    ]
    assert got and all(d.base >= 8 for d in got)


def test_enumerate_products_round_trip():
    cons = SpreadConstraints(degree=(2, 4), max_spread=2)
    seen = set()
    for p in products.enumerate_products(cons, 3000):
        assert p.factors not in seen  # exactly once
        seen.add(p.factors)
        assert p.value <= 3000 and p.spread <= 2
        assert p.factors in {d.factors for d in decompose(p.value, p.degree, p.spread)}
    assert len(seen) > 100


@pytest.mark.parametrize("vlo, vhi, degrees", [
    pytest.param(vlo, vhi, degrees, id=f"{vlo}-{vhi}" + ("" if degrees == (1, 5) else
                                                          f"-degree{degrees[0]}"))
    for vlo, vhi, degrees in [(1, 3000, (1, 5)), (700, 3000, (1, 5)),
                              (2000, 2100, (1, 5)), (4096, 4096, (1, 5)),
                              (1, 100, (1000, 1000))]])
@pytest.mark.parametrize("s, m_bound", [(0, None), (2, None), (3, Fraction(1, 2))])
def test_enumerate_products_window_equals_decompose(vlo, vhi, degrees, s, m_bound):
    # every decomposition decompose returns for a value in the window, and
    # only those, comes out of the enumerator with that lower bound; degree
    # 1000 is past the recursion limit, its products mostly 1s
    cons = SpreadConstraints(degree=degrees, max_spread=s,
                             max_spread_sq_over_base=m_bound)
    got = [p.factors for p in products.enumerate_products(cons, vhi, vlo)]
    want = {
        p.factors
        for x in range(vlo, vhi + 1)
        for d in range(degrees[0], degrees[1] + 1)
        for p in decompose(x, d, s)
        if m_bound is None or p.spread_sq_over_base() <= m_bound
    }
    assert len(got) == len(set(got)) and set(got) == want


def test_enumerate_products_value_order_within_base_class():
    cons = SpreadConstraints(degree=2, max_spread=1)
    by_base = {}
    for p in products.enumerate_products(cons, 500):
        by_base.setdefault(p.base, []).append(p.value)
    for values in by_base.values():
        assert values == sorted(values)
