"""Exact truncated Puiseux/Laurent series engines.

Two layers:

* :class:`QYSeries` -- series in q on the exponent grid (1/qden)Z, with
  coefficients in Q[y, 1/y, 1/(y-1)] (:class:`~superjacobi.ratfunc.RatFunc`)
  and a single global fractional y-power prefactor.  Truncation is tracked
  per series and propagated pessimistically; arithmetic never reads past it.
  A product of two y-free series is convolved in Python ints over one common
  denominator.

* :class:`ZPiSeries` -- Laurent series in a formal variable z, graded by
  powers of the formal symbol pi-hat (standing for 2*pi*i), with truncated
  rational q-series coefficients.  No floating transcendental constant ever
  enters an exact computation.

All values are immutable by convention; operations return new objects.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import IncompatiblePrefactor, NotAUnit
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
        if _y_free(a) and _y_free(b):
            return QYSeries(a.qden, a.ypref + b.ypref,
                            _mul_constants(a.terms, b.terms, trunc), trunc)
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


# -- y-free products in Python ints ---------------------------------------------

def _y_free(s: QYSeries) -> bool:
    """True when every coefficient is a constant; stops at the first that is not."""
    return all(c.is_const() for c in s.terms.values())


def _integer_numerators(terms: dict[int, RatFunc]) -> tuple[dict[int, int], int]:
    """Constant coefficients as integer numerators over one common denominator."""
    vals = {e: c.const_value() for e, c in terms.items()}
    den = lcm(*(v.denominator for v in vals.values()))
    return {e: v.numerator * (den // v.denominator) for e, v in vals.items()}, den


def _mul_constants(ta: dict[int, RatFunc], tb: dict[int, RatFunc],
                   trunc: int) -> dict[int, RatFunc]:
    """Truncated product of two y-free term maps, convolved in Python ints."""
    na, da = _integer_numerators(ta)
    nb, db = _integer_numerators(tb)
    acc: dict[int, int] = {}
    bitems = sorted(nb.items())
    for ea, x in sorted(na.items()):
        for eb, y in bitems:
            e = ea + eb
            if e >= trunc:
                break
            acc[e] = acc.get(e, 0) + x * y
    den = da * db
    return {e: RatFunc.const(Fraction(n, den)) for e, n in acc.items() if n}


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


class ZPiSeries:
    """Laurent series in z graded by powers of the formal symbol pi-hat.

    ``terms`` maps (z_exp, pi_exp) to a y-free QYSeries on the integer grid.
    ``ztrunc`` is the first unknown z-exponent; ``qtrunc`` the common q-order.
    """

    __slots__ = ("terms", "ztrunc", "qtrunc")

    def __init__(self, terms: dict[tuple[int, int], QYSeries], ztrunc: int,
                 qtrunc: int):
        self.terms = {k: v for k, v in terms.items()
                      if k[0] < ztrunc and not v.is_zero()}
        self.ztrunc = ztrunc
        self.qtrunc = qtrunc

    def z_valuation(self) -> int:
        return min((z for z, _ in self.terms), default=self.ztrunc)

    def __add__(self, other: "ZPiSeries") -> "ZPiSeries":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            cur = terms.get(k)
            terms[k] = v if cur is None else cur + v
        return ZPiSeries(terms, min(self.ztrunc, other.ztrunc),
                         min(self.qtrunc, other.qtrunc))

    def __neg__(self) -> "ZPiSeries":
        return ZPiSeries({k: -v for k, v in self.terms.items()},
                         self.ztrunc, self.qtrunc)

    def __sub__(self, other: "ZPiSeries") -> "ZPiSeries":
        return self + (-other)

    def __mul__(self, other: "ZPiSeries") -> "ZPiSeries":
        zt = min(self.ztrunc + other.z_valuation(),
                 other.ztrunc + self.z_valuation())
        terms: dict[tuple[int, int], QYSeries] = {}
        for (za, pa), ca in self.terms.items():
            for (zb, pb), cb in other.terms.items():
                z = za + zb
                if z >= zt:
                    continue
                key = (z, pa + pb)
                p = ca * cb
                cur = terms.get(key)
                terms[key] = p if cur is None else cur + p
        return ZPiSeries(terms, zt, min(self.qtrunc, other.qtrunc))

    def scale(self, c) -> "ZPiSeries":
        return ZPiSeries({k: v.scale(c) for k, v in self.terms.items()},
                         self.ztrunc, self.qtrunc)

    def pi_shift(self, n: int) -> "ZPiSeries":
        """Multiply by pi-hat^n (pure grading shift)."""
        return ZPiSeries({(z, p + n): v for (z, p), v in self.terms.items()},
                         self.ztrunc, self.qtrunc)

    def z_deriv(self) -> "ZPiSeries":
        """d/dz: lowers the z-exponent by one, multiplies by the old exponent."""
        terms = {}
        for (z, p), v in self.terms.items():
            if z == 0:
                continue
            terms[(z - 1, p)] = v.scale(z)
        return ZPiSeries(terms, self.ztrunc - 1, self.qtrunc)

    def q_log_deriv(self) -> "ZPiSeries":
        return ZPiSeries({k: v.q_log_deriv() for k, v in self.terms.items()},
                         self.ztrunc, self.qtrunc)

    def coeff(self, zexp: int, piexp: int) -> QYSeries:
        return self.terms.get((zexp, piexp), QYSeries.zero(self.qtrunc))

    def diff_exponents(self, other: "ZPiSeries") -> list[tuple[int, int, int]]:
        """Exponent triples (z, pi, q) where the two series provably differ.

        Only z-exponents below both z-truncations and q-exponents below both
        q-truncations are compared.
        """
        zt = min(self.ztrunc, other.ztrunc)
        qt = min(self.qtrunc, other.qtrunc)
        out = []
        keys = set(self.terms) | set(other.terms)
        for (z, p) in sorted(keys):
            if z >= zt:
                continue
            a = self.terms.get((z, p))
            b = other.terms.get((z, p))
            za = a.terms if a is not None else {}
            zb = b.terms if b is not None else {}
            for e in sorted(set(za) | set(zb)):
                if e >= qt:
                    continue
                if za.get(e) != zb.get(e):
                    out.append((z, p, e))
        return out

    def __repr__(self):
        keys = sorted(self.terms)[:6]
        bits = [f"z^{z}*pi^{p}*[{self.terms[(z, p)]!r}]" for z, p in keys]
        return "ZPiSeries[" + " + ".join(bits) + (" + ..." if len(self.terms) > 6 else "") + "]"
