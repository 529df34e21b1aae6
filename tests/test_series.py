import json
from fractions import Fraction

import pytest

from superjacobi.errors import IncompatiblePrefactor, NotAUnit
from superjacobi.qseries import QSeries
from superjacobi.ratfunc import RatFunc
from superjacobi.series import QYSeries, ZPiSeries, mul_binomial

from conftest import (eval_series, qseries_of, rand_series, rand_unit,
                      series_from_dict)

F = Fraction


def poly(**kw):
    """poly(e0=c0, e1=c1, ...) with keys like m2 for -2."""
    d = {}
    for k, v in kw.items():
        e = int(k[1:]) * (-1 if k[0] == "m" else 1)
        d[e] = F(v)
    return RatFunc(d)


def qs(terms, trunc, qden=1, ypref=F(0)):
    return QYSeries(qden, ypref, terms, trunc)


# -- add ------------------------------------------------------------------

def test_add_cancellation():
    a = qs({0: RatFunc.one(), 1: RatFunc.one()}, 6)
    b = qs({0: RatFunc.one(), 1: RatFunc.const(-1)}, 6)
    s = a + b
    assert s.terms == {0: RatFunc.const(2)}


def test_add_grid_unification():
    a = qs({1: RatFunc.one()}, 6, qden=2)       # q^{1/2} to order q^3
    b = qs({1: RatFunc.one()}, 3, qden=1)       # q to order q^3
    s = a + b
    assert s.qden == 2
    assert s.terms == {1: RatFunc.one(), 2: RatFunc.one()}
    assert s.trunc == 6


def test_add_incompatible_prefactor():
    a = QYSeries(1, F(1, 3), {0: RatFunc.one()}, 4)
    b = QYSeries(1, F(2, 3), {0: RatFunc.one()}, 4)
    with pytest.raises(IncompatiblePrefactor):
        a + b


def test_add_integer_prefactor_fold():
    a = QYSeries(1, F(4, 3), {0: RatFunc.one()}, 4)
    b = QYSeries(1, F(1, 3), {0: RatFunc.one()}, 4)
    s = a + b
    assert s.ypref == F(1, 3)
    assert s.terms[0] == poly(p0=1, p1=1)


# -- mul ------------------------------------------------------------------

def test_mul_telescoping():
    one = QYSeries.one(5)
    geo = qs({e: RatFunc.one() for e in range(5)}, 5)
    prod = mul_binomial(geo, 1, 0, -1)       # (1-q) * (1+q+...+q^4)
    assert prod.terms == {0: RatFunc.one()}


def test_mul_field_inverse_coefficient():
    r = poly(p0=1, m1=-1)                     # 1 - y^{-1}
    a = qs({0: r}, 4)
    b = qs({0: r.inverse()}, 4)
    assert (a * b).terms == {0: RatFunc.one()}


def _naive_product(a: QYSeries, b: QYSeries) -> tuple[dict, int]:
    """Brute-force double loop over the terms, same truncation rule."""
    tr = min(a.trunc + b.valuation(), b.trunc + a.valuation())
    acc = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            if ea + eb < tr:
                cur = acc.get(ea + eb, RatFunc.zero())
                acc[ea + eb] = cur + ca * cb
    return {e: c for e, c in acc.items() if not c.is_zero()}, tr


def _rand_constant_series(rng, trunc, qden=1, vmin=0, ypref=F(0)) -> QYSeries:
    """y-free coefficients with mixed denominators; valuation vmin."""
    def const():
        return RatFunc.const(F(rng.choice([-7, -3, -1, 1, 2, 5, 9]),
                               rng.choice([1, 2, 3, 4, 6, 35])))
    terms = {rng.randint(vmin, trunc - 1): const() for _ in range(8)}
    terms[vmin] = const()
    return QYSeries(qden, ypref, terms, trunc)


def test_mul_matches_naive_convolution(rng):
    def check(a, b):
        prod = a * b
        acc, tr = _naive_product(a, b)
        assert prod.terms == acc and prod.trunc == tr
        assert prod.ypref == a.ypref + b.ypref

    for _ in range(30):
        a = rand_series(rng, trunc=12, nterms=8)
        b = rand_series(rng, trunc=12, nterms=8)
        check(a, b)
    # constants on grid 3 with nonzero y-prefactors
    for _ in range(30):
        a = _rand_constant_series(rng, trunc=12, qden=3, vmin=-4, ypref=F(1, 3))
        b = _rand_constant_series(rng, trunc=10, qden=3, vmin=-2, ypref=F(-5, 2))
        check(a, b)
    # mixed: a y-free operand times a bivariate one, in both orders
    for _ in range(30):
        a = _rand_constant_series(rng, trunc=12, vmin=-3)
        b = rand_series(rng, trunc=12, nterms=8, ypref=F(1, 2))
        check(a, b)
        check(b, a)
    # y-free on the integer grid: QSeries.__mul__, convolved in ints, against
    # the naive convolution of RatFunc constants; mixed denominators and
    # negative valuations
    for _ in range(30):
        a = _rand_constant_series(rng, trunc=12, vmin=-4)
        b = _rand_constant_series(rng, trunc=10, vmin=-2)
        acc, tr = _naive_product(a, b)
        assert qseries_of(a) * qseries_of(b) == qseries_of(qs(acc, tr))


def test_mul_truncation_respects_valuations():
    a = qs({2: RatFunc.one()}, 5)             # q^2 + O(q^5)
    b = qs({3: RatFunc.one()}, 7)             # q^3 + O(q^7)
    assert (a * b).trunc == min(5 + 3, 7 + 2)


# -- invert ---------------------------------------------------------------

def test_invert_geometric():
    a = mul_binomial(QYSeries.one(4), 1, 0, -1)    # 1 - q, T=4
    inv = a.invert()
    assert inv.terms == {e: RatFunc.one() for e in range(4)}


def test_invert_with_y():
    # 1 - q^{1/2} y on grid 2, three stored half-steps
    a = QYSeries(2, F(0), {0: RatFunc.one(), 1: poly(p1=-1)}, 3)
    inv = a.invert()
    assert inv.terms == {0: RatFunc.one(), 1: poly(p1=1), 2: poly(p2=1)}


def test_invert_zero_raises():
    with pytest.raises(NotAUnit):
        QYSeries.zero(5).invert()


def test_invert_non_unit_leading_coefficient_raises():
    # 1 + y is not a unit of Q[y, 1/y, 1/(y-1)]
    with pytest.raises(NotAUnit):
        qs({1: poly(p0=1, p1=1), 2: RatFunc.one()}, 6).invert()
    # (y - 1)/y is one
    u = qs({1: poly(p0=1, m1=-1), 2: RatFunc.one()}, 6)
    assert (u * u.invert()).same_visible(QYSeries.one(4))


def test_invert_two_sided(rng):
    for _ in range(40):
        u = rand_unit(rng, trunc=10)
        inv = u.invert()
        prod = u * inv
        assert prod.terms == {0: RatFunc.one()}
        assert (inv * u).terms == {0: RatFunc.one()}


# -- q log deriv ------------------------------------------------------------

def test_qlogderiv_monomial():
    a = qs({0: RatFunc.one(), 1: RatFunc.const(-24)}, 9)
    d = a.q_log_deriv()
    assert d.terms == {1: RatFunc.const(-24)}


def test_qlogderiv_fractional():
    a = QYSeries(3, F(0), {1: RatFunc.one()}, 9)       # q^{1/3}
    d = a.q_log_deriv()
    assert d.terms == {1: RatFunc.const(F(1, 3))}


def test_qlogderiv_leibniz(rng):
    for _ in range(40):
        f = rand_series(rng, trunc=9, nterms=6)
        g = rand_series(rng, trunc=9, nterms=6)
        lhs = (f * g).q_log_deriv()
        rhs = f.q_log_deriv() * g + f * g.q_log_deriv()
        assert lhs.same_visible(rhs)


# -- y log deriv ------------------------------------------------------------

def _ylogderiv_independent(f: QYSeries) -> QYSeries:
    """y d/dy recomputed directly from the term dicts (test-side oracle)."""
    terms = {}
    for e, r in f.terms.items():
        num = {s: c * (F(s) + f.ypref) for s, c in r.num.items()}
        piece = RatFunc(num, dict(r.den))
        dd = {s - 1: c * s for s, c in r.den.items() if s}
        if dd:
            piece = piece - RatFunc(dict(r.num), dict(r.den)) * \
                RatFunc(dd, dict(r.den)).mul_monomial(1)
        if not piece.is_zero():
            terms[e] = piece
    return QYSeries(f.qden, f.ypref, terms, f.trunc)


def test_ylogderiv_against_independent_route(rng):
    for _ in range(40):
        f = rand_series(rng, trunc=9, nterms=5, ypref=F(1, 3), rational=True)
        # RatFunc.y_log_deriv term by term, plus the prefactor's ypref
        terms = {e: c.y_log_deriv() + c.scale(f.ypref)
                 for e, c in f.terms.items()}
        d = QYSeries(f.qden, f.ypref, terms, f.trunc)
        assert d.same_visible(_ylogderiv_independent(f))


# -- eval ---------------------------------------------------------------------

def test_eval_homomorphism(rng):
    import cmath
    q = 0.11 + 0.07j
    y = cmath.exp(0.4j) * 1.2
    for _ in range(100):
        # support bounded well below the truncation: the product loses nothing
        f = QYSeries(1, F(0), rand_series(rng, trunc=4, nterms=4).terms, 20)
        g = QYSeries(1, F(0), rand_series(rng, trunc=4, nterms=4).terms, 20)
        lhs = eval_series(f * g, q, y)
        rhs = eval_series(f, q, y) * eval_series(g, q, y)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_canonical_uniqueness(rng):
    for _ in range(60):
        f = rand_series(rng, trunc=9, nterms=6)
        g = rand_series(rng, trunc=9, nterms=6)
        diff = f - g
        assert diff.is_zero() == (f.terms == g.terms)


def test_serialization_roundtrip(rng):
    for _ in range(20):
        f = rand_series(rng, trunc=9, nterms=5, ypref=F(1, 6), rational=True)
        assert series_from_dict(json.loads(json.dumps(f.to_dict()))) == f


def test_from_json_rejects_denominator_outside_the_ring():
    d = qs({0: poly(p0=1)}, 3).to_dict()
    d["terms"][0]["den"] = [[0, "1/1"], [1, "1/1"]]            # 1 + y
    with pytest.raises(ValueError):
        series_from_dict(d)


def test_json_schema_fields():
    f = QYSeries(6, F(1, 2), {2: poly(p1=1, m1=F(1, 3))}, 12)
    d = f.to_dict()
    assert d["qDenom"] == 6 and d["yPrefactor"] == "1/2" and d["truncation"] == 12
    assert d["terms"][0]["qExp"] == 2
    assert ["1/1", "1/3"] == sorted(v for _, v in d["terms"][0]["num"])


# -- ZPiSeries ------------------------------------------------------------------

def test_zp_zderiv_power_rule():
    s = ZPiSeries({(-1, 0): QSeries.one(5)}, 10, 5)
    d = s.z_deriv()
    assert set(d.terms) == {(-2, 0)}
    assert d.terms[(-2, 0)] == -QSeries.one(5)


def test_zp_pi_grading_additive():
    a = ZPiSeries({(1, 2): QSeries.one(5)}, 10, 5)
    b = ZPiSeries({(2, 3): QSeries.one(5)}, 10, 5)
    p = a * b
    assert set(p.terms) == {(3, 5)}


def test_zp_exponent_bookkeeping():
    a = ZPiSeries({(-2, 0): QSeries.one(5)}, 10, 5)
    g4 = QSeries.one(5).scale(F(1, 240))
    b = ZPiSeries({(2, 4): g4}, 10, 5)
    p = a * b
    assert set(p.terms) == {(0, 4)}
    assert p.terms[(0, 4)] == g4
