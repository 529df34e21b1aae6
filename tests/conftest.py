import cmath
import random
from fractions import Fraction
from math import comb

import pytest

from superjacobi.qseries import QSeries
from superjacobi.ratfunc import RatFunc, _make
from superjacobi.series import QYSeries


def ratfunc_from_pairs(num: list, den: list) -> RatFunc:
    """The inverse of ``RatFunc.to_pairs``."""
    return RatFunc({int(e): Fraction(s) for e, s in num},
                   {int(e): Fraction(s) for e, s in den})


def series_from_dict(d: dict) -> QYSeries:
    """The inverse of ``QYSeries.to_dict``."""
    terms = {int(t["qExp"]): ratfunc_from_pairs(t["num"], t["den"])
             for t in d["terms"]}
    return QYSeries(int(d["qDenom"]), Fraction(d["yPrefactor"]), terms,
                    int(d["truncation"]))


def as_ratfunc(term) -> RatFunc:
    """An integer (N, p) pair of ``characters.RowSeries`` as the RatFunc
    N/(y-1)^p, taken as it stands, so a pair the row route left unreduced
    compares unequal to its canonical RatFunc."""
    num, pole = term
    return _make({y: Fraction(c) for y, c in num.items()}, pole)


def as_qyseries(s) -> QYSeries:
    """A ``characters.RowSeries`` as the QYSeries with the same terms, each
    converted by ``as_ratfunc``."""
    terms = {e: as_ratfunc(t) for e, t in s.terms.items()}
    return QYSeries(s.qden, s.ypref, terms, s.trunc)


def qseries_of(s: QYSeries) -> QSeries:
    """A y-free QYSeries on the integer grid as a QSeries."""
    assert s.qden == 1 and s.ypref == 0
    return QSeries.from_fractions({e: c.const_value() for e, c in s.terms.items()},
                                  s.trunc)


def rand_ratfunc(rng: random.Random, ymin=-2, ymax=3, rational=False) -> RatFunc:
    num = {e: Fraction(rng.randint(-4, 4)) for e in range(ymin, ymax)}
    r = RatFunc(num)
    if rational and rng.random() < 0.5:
        # c * y^s * (y-1)^e, a denominator of Q[y, 1/y, 1/(y-1)]
        e, s = rng.randint(1, 2), rng.randint(-1, 1)
        c = Fraction(rng.choice([1, -1, 2, -3]))
        den = {s + i: c * (-1) ** (e - i) * comb(e, i) for i in range(e + 1)}
        r = RatFunc(dict(num), den)
    return r


def rand_series(rng: random.Random, trunc=10, qden=1, nterms=6, vmin=0,
                ymin=-2, ymax=3, ypref=Fraction(0), rational=False) -> QYSeries:
    terms = {}
    for _ in range(nterms):
        e = rng.randint(vmin, trunc - 1)
        terms[e] = rand_ratfunc(rng, ymin, ymax, rational)
    return QYSeries(qden, ypref, terms, trunc)


def rand_unit(rng: random.Random, trunc=10, qden=1) -> QYSeries:
    s = rand_series(rng, trunc, qden, nterms=5, vmin=1)
    one = {0: RatFunc.const(rng.choice([1, -1, 2, Fraction(1, 2)]))}
    one.update(s.terms)
    return QYSeries(qden, Fraction(0), one, trunc)


def eval_series(s: QYSeries, q: complex, y: complex,
                tau: complex | None = None) -> complex:
    """The truncated sum of N_e(y)/(y-1)^p q^(e/qden) y^ypref at complex
    (q, y), with no tail bound and no pole guard; q^r is exp(2 pi i tau r)
    when tau is given, else the principal power."""
    total = 0j
    for e, c in s.terms.items():
        r = e / s.qden
        qr = cmath.exp(2j * cmath.pi * tau * r) if tau is not None else q ** r
        num = sum(complex(v) * y ** k for k, v in c.num.items())
        total += num / (y - 1) ** c.pole * qr
    return total * y ** float(s.ypref)


@pytest.fixture
def rng():
    return random.Random(20240817)
