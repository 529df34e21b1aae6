"""Exact truncated Puiseux/Laurent series in q with coefficients in y.

:class:`QYSeries` is a series in q on the exponent grid (1/qden)Z, with
coefficients in Q[y, 1/y, 1/(y-1)] (:class:`~superjacobi.ratfunc.RatFunc`)
and a single global fractional y-power prefactor.  It is the tests'
reference engine for ``characters.RowSeries``; no module imports it, the
package does not export it, and it stays here for the benchmark's tracer.
Truncation is tracked per series and propagated pessimistically; arithmetic
never reads past it.  y-free series live in :mod:`superjacobi.qseries`, on
ints; ``ZPiSeries`` is bound here from there.

All values are immutable by convention; operations return new objects.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import IncompatiblePrefactor, NotAUnit
# ZPiSeries is not used here: it is bound so that series.ZPiSeries still
# resolves
from .qseries import ZPiSeries  # noqa: F401
from .ratfunc import RatFunc


class QYSeries:
    """Truncated series  y^ypref * sum_e  c_e(y) q^(e/qden),  e < trunc.

    ``terms`` maps the scaled integer exponent e to a nonzero RatFunc; stored
    exponents are < ``trunc``; exponents may be negative but are finitely many
    (Laurent/Puiseux with finite principal part).
    """

    __slots__ = ("qden", "ypref", "terms", "trunc")

    def __init__(self, qden: int, ypref: Fraction, terms: dict[int, RatFunc],
                 trunc: int):
        if qden < 1:
            raise ValueError("qden must be >= 1")
        self.qden = qden
        self.ypref = Fraction(ypref)
        self.terms = {e: c for e, c in terms.items() if e < trunc and not c.is_zero()}
        self.trunc = trunc

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc: int, qden: int = 1) -> "QYSeries":
        return cls(qden, Fraction(0), {}, trunc)

    @classmethod
    def one(cls, trunc: int, qden: int = 1) -> "QYSeries":
        return cls(qden, Fraction(0), {0: RatFunc.one()}, trunc)

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self) -> int:
        """Scaled valuation; equals trunc for a series with no visible terms."""
        return min(self.terms) if self.terms else self.trunc

    def leading(self) -> tuple[Fraction, RatFunc]:
        if not self.terms:
            raise NotAUnit("series has no terms below its truncation")
        e = min(self.terms)
        return Fraction(e, self.qden), self.terms[e]

    def coeff(self, qexp) -> RatFunc:
        e = Fraction(qexp) * self.qden
        if e.denominator != 1:
            return RatFunc.zero()
        return self.terms.get(int(e), RatFunc.zero())

    def rescale_grid(self, qden: int) -> "QYSeries":
        if qden == self.qden:
            return self
        if qden % self.qden:
            raise ValueError("grid refinement must be a multiple")
        f = qden // self.qden
        return QYSeries(qden, self.ypref,
                        {e * f: c for e, c in self.terms.items()},
                        self.trunc * f)

    @staticmethod
    def _unify(a: "QYSeries", b: "QYSeries") -> tuple["QYSeries", "QYSeries"]:
        a, b = QYSeries._unify_grid_only(a, b)
        d = a.qden
        diff = a.ypref - b.ypref
        if diff.denominator != 1:
            raise IncompatiblePrefactor(
                f"y-prefactors differ by non-integer {diff}")
        m = int(diff)
        if m > 0:
            a = QYSeries(d, b.ypref,
                         {e: c.mul_monomial(m) for e, c in a.terms.items()},
                         a.trunc)
        elif m < 0:
            b = QYSeries(d, a.ypref,
                         {e: c.mul_monomial(-m) for e, c in b.terms.items()},
                         b.trunc)
        return a, b

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "QYSeries") -> "QYSeries":
        a, b = self._unify(self, other)
        trunc = min(a.trunc, b.trunc)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            s = terms.get(e)
            terms[e] = c if s is None else s + c
        return QYSeries(a.qden, a.ypref, terms, trunc)

    def __neg__(self) -> "QYSeries":
        return QYSeries(self.qden, self.ypref,
                        {e: -c for e, c in self.terms.items()}, self.trunc)

    def __sub__(self, other: "QYSeries") -> "QYSeries":
        return self + (-other)

    def __mul__(self, other: "QYSeries") -> "QYSeries":
        a, b = self._unify_grid_only(self, other)
        trunc = min(a.trunc + b.valuation(), b.trunc + a.valuation())
        terms: dict[int, RatFunc] = {}
        bitems = sorted(b.terms.items())
        for ea, ca in sorted(a.terms.items()):
            for eb, cb in bitems:
                e = ea + eb
                if e >= trunc:
                    break
                p = ca * cb
                s = terms.get(e)
                terms[e] = p if s is None else s + p
        return QYSeries(a.qden, a.ypref + b.ypref, terms, trunc)

    @staticmethod
    def _unify_grid_only(a, b):
        d = lcm(a.qden, b.qden)
        return a.rescale_grid(d), b.rescale_grid(d)

    def scale(self, c) -> "QYSeries":
        r = c if isinstance(c, RatFunc) else RatFunc.const(c)
        if r.is_zero():
            return QYSeries.zero(self.trunc, self.qden)
        return QYSeries(self.qden, self.ypref,
                        {e: v * r for e, v in self.terms.items()}, self.trunc)

    def shift(self, qexp, yexp: Fraction = Fraction(0)) -> "QYSeries":
        """Multiply by the monomial q^qexp * y^yexp (grid refined as needed)."""
        q = Fraction(qexp)
        d = lcm(self.qden, q.denominator)
        s = self.rescale_grid(d)
        off = int(q * d)
        return QYSeries(d, s.ypref + Fraction(yexp),
                        {e + off: c for e, c in s.terms.items()},
                        s.trunc + off)

    def invert(self) -> "QYSeries":
        """Multiplicative inverse to the propagated truncation order.

        For input with valuation v and truncation T, the result is exact to
        scaled order T - 2v.
        """
        if not self.terms:
            raise NotAUnit("cannot invert a series with empty term map")
        v = min(self.terms)
        try:
            c0inv = self.terms[v].inverse()
        except ValueError:
            raise NotAUnit("lowest coefficient is not a unit of "
                           "Q[y, 1/y, 1/(y-1)]") from None
        n = self.trunc - v          # usable length of the unit part
        # unit part u = 1 + g with g[e] for 1 <= e < n
        g = {e - v: c * c0inv for e, c in self.terms.items() if e != v}
        inv: dict[int, RatFunc] = {0: RatFunc.one()}
        for e in range(1, n):
            s = None
            for k, c in g.items():
                if k <= e:
                    prev = inv.get(e - k)
                    if prev is not None:
                        t = c * prev
                        s = t if s is None else s + t
            if s is not None and not s.is_zero():
                inv[e] = -s
        terms = {e - v: c * c0inv for e, c in inv.items()}
        return QYSeries(self.qden, -self.ypref, terms, self.trunc - 2 * v)

    # -- calculus ----------------------------------------------------------

    def q_log_deriv(self) -> "QYSeries":
        """q d/dq acting on true fractional exponents."""
        return QYSeries(self.qden, self.ypref,
                        {e: c.scale(Fraction(e, self.qden))
                         for e, c in self.terms.items()},
                        self.trunc)

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Canonical-form equality of the visible parts (grids unified)."""
        if not isinstance(other, QYSeries):
            return NotImplemented
        try:
            a, b = self._unify(self, other)
        except IncompatiblePrefactor:
            return False
        return a.terms == b.terms and a.trunc == b.trunc

    def same_visible(self, other: "QYSeries") -> bool:
        """Equality of stored terms below the joint truncation."""
        a, b = self._unify(self, other)
        t = min(a.trunc, b.trunc)
        ta = {e: c for e, c in a.terms.items() if e < t}
        tb = {e: c for e, c in b.terms.items() if e < t}
        return ta == tb

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        items = []
        for e in sorted(self.terms):
            num, den = self.terms[e].to_pairs()
            items.append({"qExp": e, "num": num, "den": den})
        p = self.ypref
        return {"qDenom": self.qden,
                "yPrefactor": f"{p.numerator}/{p.denominator}",
                "truncation": self.trunc,
                "terms": items}

    def __repr__(self):
        bits = []
        for e in sorted(self.terms)[:8]:
            bits.append(f"({self.terms[e].to_str()})*q^({Fraction(e, self.qden)})")
        more = " + ..." if len(self.terms) > 8 else ""
        pref = f"y^({self.ypref}) * " if self.ypref else ""
        body = " + ".join(bits) if bits else "0"
        return f"QYSeries[{pref}{body}{more} + O(q^({Fraction(self.trunc, self.qden)}))]"


# -- binomial factors on RatFunc coefficients ----------------------------------
# The RatFunc reference that the integer-row kernel characters._product
# is tested against.

def mul_binomial(s: QYSeries, a_scaled: int, yexp: int, sign: int = -1) -> QYSeries:
    """Multiply by (1 + sign * q^(a/qden) * y^yexp) with a_scaled > 0."""
    if a_scaled <= 0:
        raise ValueError("binomial factor needs a positive q-exponent")
    terms = dict(s.terms)
    for e, c in s.terms.items():
        ee = e + a_scaled
        if ee >= s.trunc:
            continue
        t = c.mul_monomial(yexp).scale(sign)
        cur = terms.get(ee)
        terms[ee] = t if cur is None else cur + t
    return QYSeries(s.qden, s.ypref, terms, s.trunc)


def div_binomial(s: QYSeries, a_scaled: int, yexp: int, sign: int = -1) -> QYSeries:
    """Divide by (1 + sign * q^(a/qden) * y^yexp): forward recurrence."""
    if a_scaled <= 0:
        raise ValueError("binomial factor needs a positive q-exponent")
    out: dict[int, RatFunc] = {}
    for e in range(min(s.terms, default=s.trunc), s.trunc):
        c = s.terms.get(e, RatFunc.zero())
        prev = out.get(e - a_scaled)
        if prev is not None:
            c = c - prev.mul_monomial(yexp).scale(sign)
        if not c.is_zero():
            out[e] = c
    return QYSeries(s.qden, s.ypref, out, s.trunc)
