import random
from fractions import Fraction
from math import comb, gcd

import pytest

from superjacobi.ratfunc import RatFunc

from conftest import rand_ratfunc, ratfunc_from_pairs


def F(n, d=1):
    return Fraction(n, d)


# -- reference: the general quotient form N/D reduced by a polynomial gcd ----

def _pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _padd(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _pdivmod(a, b):
    db = max(b)
    q, r = {}, dict(a)
    while r and max(r) >= db:
        dr = max(r)
        c = r[dr] / b[db]
        q[dr - db] = c
        r = _padd(r, {dr - db + e: -c * v for e, v in b.items()})
    return q, r


def _pgcd(a, b):
    while b:
        a, b = b, _pdivmod(a, b)[1]
    lead = a[max(a)]
    return {e: c / lead for e, c in a.items()}


def _content(p):
    num, den = 0, 1
    for c in p.values():
        num = gcd(num, abs(c.numerator))
        den = den * c.denominator // gcd(den, c.denominator)
    return Fraction(num, den)


def _canonicalize(num, den):
    """Canonical N/D: no common factor, D integral of content 1 with positive
    leading coefficient and nonzero constant term, N Laurent."""
    num = {e: c for e, c in num.items() if c}
    if not num:
        return {}, {0: F(1)}
    dv = min(den)
    den = {e - dv: c for e, c in den.items()}
    num = {e - dv: c for e, c in num.items()}
    if max(den) > 0:
        nv = min(num)
        nshift = {e - nv: c for e, c in num.items()}
        g = _pgcd(nshift, den)
        if max(g) > 0:
            nshift = _pdivmod(nshift, g)[0]
            den = _pdivmod(den, g)[0]
        num = {e + nv: c for e, c in nshift.items()}
    cont = _content(den)
    if den[max(den)] < 0:
        cont = -cont
    return ({e: c / cont for e, c in num.items()},
            {e: c / cont for e, c in den.items()})


def _pairs(num, den):
    def fmt(p):
        return [[e, f"{c.numerator}/{c.denominator}"] for e, c in sorted(p.items())]
    return fmt(num), fmt(den)


def _is_unit(r):
    """True when r = c * y^s * (y-1)^k / (y-1)^p."""
    if r.is_zero():
        return False
    v = min(r.num)
    p = {e - v: c for e, c in r.num.items()}
    while max(p) > 0:
        p, rem = _pdivmod(p, {1: F(1), 0: F(-1)})
        if rem:
            return False
    return True


def _ym1(k):
    """(y-1)^k expanded."""
    return {i: F((-1) ** (k - i) * comb(k, i)) for i in range(k + 1)}


def _rand_ring_pair(rng):
    """Random (num, den) of the ring, num often sharing (y-1) factors with den."""
    num = {e: F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for e in range(-2, 3)}
    num = _pmul(num, _ym1(rng.randint(0, 2)))
    c = F(rng.choice([1, -1, 2, -6]), rng.choice([1, 5]))
    den = _pmul({rng.randint(-2, 2): c}, _ym1(rng.randint(0, 3)))
    return num, den


def _deriv(p):
    return {e - 1: c * e for e, c in p.items() if e}


def test_canonical_zero():
    z = RatFunc({})
    assert z.is_zero()
    assert z.num == {} and z.den == {0: 1}


def test_reduction_common_factor():
    # (y^2 - 1)/(y - 1) reduces to y + 1
    r = RatFunc({2: F(1), 0: F(-1)}, {1: F(1), 0: F(-1)})
    assert r.den == {0: 1}
    assert r.num == {1: F(1), 0: F(1)}


def test_denominator_constant_term_normalized():
    # y/(y^2 - y) = 1/(y - 1); denominator gets nonzero constant term
    r = RatFunc({1: F(1)}, {2: F(1), 1: F(-1)})
    assert r.den.get(0) is not None and r.den[0] != 0
    assert r == RatFunc({0: F(1)}, {1: F(1), 0: F(-1)})


def test_content_and_sign_normalization():
    # 1/(-2y + 2) -> denominator content 1, positive leading coefficient
    r = RatFunc({0: F(1)}, {1: F(-2), 0: F(2)})
    assert r.den == {1: F(1), 0: F(-1)}
    assert r.num == {0: F(-1, 2)}


def test_field_axioms_random(rng):
    for _ in range(200):
        a = rand_ratfunc(rng, rational=True)
        b = rand_ratfunc(rng, rational=True)
        c = rand_ratfunc(rng, rational=True)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if _is_unit(a):
            assert a * a.inverse() == RatFunc.one()
        elif not a.is_zero():
            with pytest.raises(ValueError):
                a.inverse()


def test_inverse_of_one_minus_yinv():
    r = RatFunc({0: F(1), -1: F(-1)})          # 1 - 1/y
    inv = r.inverse()
    assert inv * r == RatFunc.one()
    # canonical form y/(y-1)
    assert inv.num == {1: F(1)} and inv.den == {1: F(1), 0: F(-1)}


def test_deriv_quotient_rule(rng):
    for _ in range(50):
        a = rand_ratfunc(rng, rational=True)
        b = rand_ratfunc(rng, rational=True)
        assert (a * b).deriv() == a.deriv() * b + a * b.deriv()


def test_serialization_roundtrip(rng):
    for _ in range(20):
        r = rand_ratfunc(rng, rational=True)
        num, den = r.to_pairs()
        assert ratfunc_from_pairs(num, den) == r


def test_to_pairs_matches_general_gcd_reference(rng):
    # the canonical form printed in JSON is that of the general quotient
    # N/D reduced by a polynomial gcd, through every arithmetic operation
    for _ in range(150):
        na, da = _rand_ring_pair(rng)
        nb, db = _rand_ring_pair(rng)
        a, b = RatFunc(na, da), RatFunc(nb, db)
        assert a.to_pairs() == _pairs(*_canonicalize(na, da))
        assert (a + b).to_pairs() == _pairs(*_canonicalize(
            _padd(_pmul(na, db), _pmul(nb, da)), _pmul(da, db)))
        assert (a * b).to_pairs() == _pairs(*_canonicalize(
            _pmul(na, nb), _pmul(da, db)))
        assert a.deriv().to_pairs() == _pairs(*_canonicalize(
            _padd(_pmul(_deriv(na), da),
                  {e: -c for e, c in _pmul(na, _deriv(da)).items()}),
            _pmul(da, da)))


def test_inverse_of_units_and_non_units(rng):
    for _ in range(50):
        c = F(rng.choice([1, -2, 3]), rng.choice([1, 7]))
        s, k, p = rng.randint(-3, 3), rng.randint(0, 3), rng.randint(0, 3)
        a = RatFunc(_pmul({s: c}, _ym1(k)), _ym1(p))
        assert _is_unit(a)
        assert a * a.inverse() == RatFunc.one()
        for other in ({0: F(1), 1: F(1)}, {0: F(1), 1: F(1), 2: F(1)}):
            b = a * RatFunc(other)                 # times 1 + y, 1 + y + y^2
            assert not _is_unit(b)
            with pytest.raises(ValueError):
                b.inverse()


def test_denominator_outside_the_ring_rejected():
    with pytest.raises(ValueError):
        RatFunc({0: F(1)}, {0: F(1), 1: F(1)})          # 1/(1 + y)
    with pytest.raises(ValueError):
        RatFunc({0: F(1)}, {0: F(1), 2: F(-1)})         # 1/(1 - y^2)
