"""Rational functions in Q[y, 1/y, 1/(y-1)] over the exact rationals.

A :class:`RatFunc` is N/(y-1)^p where N is a Laurent polynomial (finite dict
exponent -> Fraction, exponents may be negative) and p >= 0 is an int.  No
CLI job builds one.  Its users are :class:`~superjacobi.series.QYSeries`,
``characters.RowSeries.coeff`` and ``leading`` (which hand a coefficient to
the demo and the tests), and the tests' reference routes for the characters
and for xi, whose only denominators are the q^0 product factors
(1 - y^{+-1}) and the pole -1/(x-1).  The canonical form is:

* p = 0 or N(1) != 0, so N and (y-1)^p share no factor; reduction is exact
  synthetic division by (y-1),
* zero is represented as N = {} with p = 0.

``den`` is the expansion of (y-1)^p: monic, integer coefficients of content
1 and a nonzero constant term, the canonical denominator of the quotient
N/D printed in JSON.

The tests' reference route for xi uses the same class for rational
functions of x (``to_str`` takes the variable's name).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

Poly = dict[int, Fraction]

_ZERO = Fraction(0)


def _trim(p: Poly) -> Poly:
    return {e: c for e, c in p.items() if c}


def _padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, _ZERO) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    if len(a) == 1:
        (ea, ca), = a.items()
        return {ea + eb: ca * cb for eb, cb in b.items()}
    if len(b) == 1:
        (eb, cb), = b.items()
        return {ea + eb: ca * cb for ea, ca in a.items()}
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, _ZERO) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _pscale(a: Poly, c: Fraction) -> Poly:
    if not c:
        return {}
    return {e: v * c for e, v in a.items()}


def _deg(a: Poly) -> int:
    return max(a.keys())


def _val(a: Poly) -> int:
    return min(a.keys())


def _ym1_power(p: int) -> Poly:
    """(y-1)^p expanded."""
    return {e: Fraction((-1) ** (p - e) * comb(p, e)) for e in range(p + 1)}


def _div_ym1(a: Poly) -> Poly:
    """a / (y-1) for a nonzero Laurent polynomial with a(1) = 0."""
    out: Poly = {}
    carry = _ZERO
    for e in range(_deg(a), _val(a), -1):
        carry += a.get(e, _ZERO)
        if carry:
            out[e - 1] = carry
    return out


def _reduced(num: Poly, pole: int) -> tuple[Poly, int]:
    """Cancel the (y-1) factors that num shares with (y-1)^pole."""
    if not num:
        return {}, 0
    while pole and not sum(num.values()):
        num = _div_ym1(num)
        pole -= 1
    return num, pole


def _make(num: Poly, pole: int) -> "RatFunc":
    """A RatFunc from an already canonical (num, pole)."""
    r = RatFunc.__new__(RatFunc)
    r.num = num
    r.pole = pole
    return r


class RatFunc:
    """Element of Q[y, 1/y, 1/(y-1)] in canonical reduced form."""

    __slots__ = ("num", "pole")

    def __init__(self, num: Poly, den: Poly | None = None):
        """num/den; den must be c * y^s * (y-1)^p, else ValueError."""
        num = _trim(num)
        pole = 0
        if den is not None:
            den = _trim(den)
            if not den:
                raise ZeroDivisionError("zero denominator")
            s = _val(den)
            den = {e - s: c for e, c in den.items()}
            while _deg(den) and not sum(den.values()):
                den = _div_ym1(den)
                pole += 1
            if _deg(den):
                raise ValueError("denominator is not c * y^s * (y-1)^p: "
                                 "outside Q[y, 1/y, 1/(y-1)]")
            c = 1 / Fraction(den[0])
            if s or c != 1:
                num = {e - s: v * c for e, v in num.items()}
        self.num, self.pole = _reduced(num, pole)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c) -> "RatFunc":
        c = Fraction(c)
        return _make({0: c} if c else {}, 0)

    @classmethod
    def monomial(cls, c, e: int) -> "RatFunc":
        c = Fraction(c)
        return _make({e: c} if c else {}, 0)

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls.const(0)

    @classmethod
    def one(cls) -> "RatFunc":
        return cls.const(1)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_const(self) -> bool:
        return not self.pole and (not self.num or set(self.num) == {0})

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not a constant")
        return self.num.get(0, _ZERO)

    @property
    def den(self) -> Poly:
        """The denominator (y-1)^pole, expanded."""
        return _ym1_power(self.pole)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b = (self, other) if self.pole >= other.pole else (other, self)
        nb = b.num
        if a.pole > b.pole:
            nb = _pmul(nb, _ym1_power(a.pole - b.pole))
        return _make(*_reduced(_padd(a.num, nb), a.pole))

    def __neg__(self) -> "RatFunc":
        return _make({e: -c for e, c in self.num.items()}, self.pole)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.is_zero() or other.is_zero():
            return RatFunc.zero()
        return _make(*_reduced(_pmul(self.num, other.num),
                               self.pole + other.pole))

    def scale(self, c) -> "RatFunc":
        c = Fraction(c)
        if not c:
            return RatFunc.zero()
        return _make(_pscale(self.num, c), self.pole)

    def mul_monomial(self, e: int) -> "RatFunc":
        """Multiply by y^e (unit; stays canonical)."""
        if self.is_zero() or e == 0:
            return self
        return _make({k + e: c for k, c in self.num.items()}, self.pole)

    def inverse(self) -> "RatFunc":
        """Defined on the units c * y^s * (y-1)^k; ValueError otherwise."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other.inverse()

    def deriv(self) -> "RatFunc":
        """d/dy: (N'(y-1) - pN) / (y-1)^{p+1}."""
        dn = {e - 1: c * e for e, c in self.num.items() if e}
        if not self.pole:
            return _make(dn, 0)
        n = _padd(_pmul(dn, _ym1_power(1)),
                  _pscale(self.num, Fraction(-self.pole)))
        return _make(*_reduced(n, self.pole + 1))

    def y_log_deriv(self) -> "RatFunc":
        """y d/dy."""
        return self.deriv().mul_monomial(1)

    # -- structure ---------------------------------------------------------

    def num_min_exp(self) -> int:
        return _val(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.pole == other.pole

    def __hash__(self):
        return hash((tuple(sorted(self.num.items())), self.pole))

    # -- display -----------------------------------------------------------

    def _poly_str(self, p: Poly, var: str) -> str:
        if not p:
            return "0"
        bits = []
        for e in sorted(p, reverse=True):
            c = p[e]
            if e == 0:
                bits.append(f"{c}")
            elif e == 1:
                bits.append(f"{c}*{var}" if c != 1 else var)
            else:
                bits.append(f"{c}*{var}^{e}" if c != 1 else f"{var}^{e}")
        return " + ".join(bits).replace("+ -", "- ")

    def to_str(self, var: str = "y") -> str:
        ns = self._poly_str(self.num, var)
        if not self.pole:
            return ns
        return f"({ns})/({self._poly_str(self.den, var)})"

    def __repr__(self):
        return f"RatFunc({self.to_str()})"

    # -- serialization -----------------------------------------------------

    def to_pairs(self) -> tuple[list, list]:
        num = [[e, f"{c.numerator}/{c.denominator}"] for e, c in sorted(self.num.items())]
        den = [[e, f"{c.numerator}/{c.denominator}"] for e, c in sorted(self.den.items())]
        return num, den
