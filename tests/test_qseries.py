"""QSeries and ZPiSeries on ints, against QYSeries over RatFunc constants.

The reference for every operation is the y-free QYSeries on the integer grid
whose coefficients are RatFunc.const values: the same truncation rules, on
the RatFunc engine.
"""

import json
from fractions import Fraction
from math import gcd

import pytest

from superjacobi.qseries import QSeries, ZPiSeries
from superjacobi.ratfunc import RatFunc
from superjacobi.series import QYSeries

from conftest import qseries_of

F = Fraction


def rand_pair(rng):
    """A QYSeries over RatFunc constants and the same series as a QSeries:
    mixed denominators, a negative valuation in about half the draws, a
    truncation between 1 and 14, and now and then a gap or no terms."""
    trunc = rng.randint(1, 14)
    vmin = rng.choice([0, 0, -1, -3])
    terms = {}
    for _ in range(rng.randint(0, 9)):
        c = F(rng.choice([-7, -3, -1, 1, 2, 5, 9, 12]),
              rng.choice([1, 2, 3, 4, 6, 35, 720]))
        terms[rng.randint(vmin, trunc - 1)] = RatFunc.const(c)
    ref = QYSeries(1, F(0), terms, trunc)
    return ref, qseries_of(ref)


def assert_same(got: QSeries, want: QYSeries):
    assert got.to_dict() == want.to_dict()
    assert got == qseries_of(want)


def test_operations_match_the_ratfunc_reference(rng):
    for _ in range(300):
        ya, qa = rand_pair(rng)
        yb, qb = rand_pair(rng)
        assert_same(qa + qb, ya + yb)
        assert_same(qa - qb, ya - yb)
        assert_same(-qa, -ya)
        assert_same(qa * qb, ya * yb)
        assert_same(qa.q_log_deriv(), ya.q_log_deriv())
        for c in (3, -2, 0, F(5, 6), F(-35, 4)):
            assert_same(qa.scale(c), ya.scale(c))
        assert qa.same_visible(qb) == ya.same_visible(yb)
        assert qa.same_visible(qa + qb.scale(0)) == ya.same_visible(ya + yb.scale(0))
        assert qa.is_zero() == ya.is_zero()
        assert qa.valuation() == ya.valuation()
        for e in range(-4, qa.trunc + 2):
            assert qa.coeff(e) == ya.coeff(e).const_value()
            assert type(qa.coeff(e)) is Fraction


def test_results_are_reduced_by_one_gcd(rng):
    for _ in range(200):
        _, qa = rand_pair(rng)
        _, qb = rand_pair(rng)
        for s in (qa, qa + qb, qa * qb, qa.scale(F(6, 35)), qa.q_log_deriv()):
            assert s.den > 0
            assert gcd(s.den, *s.nums.values()) == 1
            assert all(s.nums.values()) and all(e < s.trunc for e in s.nums)
    s = QSeries({0: -4, 1: 6, 9: 1}, 8, 5)        # q^9 is past the truncation
    assert (s.nums, s.den, s.trunc) == ({0: -2, 1: 3}, 4, 5)
    assert QSeries({2: 0}, 6, 5) == QSeries.zero(5)
    assert QSeries.zero(5).den == 1
    for den in (0, -2):
        with pytest.raises(ValueError, match="den must be >= 1"):
            QSeries({0: 1}, den, 5)


def test_one_and_zero():
    assert_same(QSeries.one(6), QYSeries.one(6))
    assert_same(QSeries.zero(6), QYSeries.zero(6))
    assert QSeries.one(0).is_zero()


def test_to_dict_is_the_y_free_qyseries_json(rng):
    for _ in range(100):
        ya, qa = rand_pair(rng)
        assert (json.dumps(qa.to_dict(), sort_keys=True, indent=2)
                == json.dumps(ya.to_dict(), sort_keys=True, indent=2))
    d = QSeries({-1: 3, 2: -4}, 6, 4).to_dict()
    assert d == {"qDenom": 1, "yPrefactor": "0/1", "truncation": 4,
                 "terms": [{"qExp": -1, "num": [[0, "1/2"]], "den": [[0, "1/1"]]},
                           {"qExp": 2, "num": [[0, "-2/3"]], "den": [[0, "1/1"]]}]}


def test_same_visible_compares_below_the_joint_truncation():
    a = QSeries.from_fractions({0: F(1, 2), 1: F(1, 3)}, 2)    # den 6
    b = QSeries.from_fractions({0: F(1, 2)}, 1)                # den 2
    assert a.same_visible(b) and b.same_visible(a)
    assert not a.same_visible(b.scale(2))
    assert a != b


def _diff_by_fractions(a: ZPiSeries, b: ZPiSeries) -> list:
    """diff_exponents with every coefficient read as a Fraction."""
    zt, qt = min(a.ztrunc, b.ztrunc), min(a.qtrunc, b.qtrunc)
    out = []
    for z, p in sorted(set(a.terms) | set(b.terms)):
        if z >= zt:
            continue
        ca, cb = a.coeff(z, p), b.coeff(z, p)
        for e in sorted(ca.nums.keys() | cb.nums.keys()):
            if e < qt and ca.coeff(e) != cb.coeff(e):
                out.append((z, p, e))
    return out


def test_diff_exponents_matches_a_fraction_comparison(rng):
    for _ in range(100):
        keys = [(rng.randint(-2, 4), rng.randint(-1, 3)) for _ in range(4)]
        a = ZPiSeries({k: rand_pair(rng)[1] for k in keys}, 4, 10)
        b = ZPiSeries({k: rand_pair(rng)[1] for k in keys[:2]}, 3, 8)
        # a shares some coefficients with b, scaled to other denominators
        c = a + b.scale(F(7, 3)) - b.scale(F(7, 3))
        for x, y in ((a, b), (b, a), (a, c), (c, a)):
            assert x.diff_exponents(y) == _diff_by_fractions(x, y)
        assert not a.diff_exponents(a)
