"""Truncated q-series with rational coefficients, on Python ints.

Two layers, both y-free:

* :class:`QSeries` -- a series  sum_e (n_e / d) q^e,  e < trunc,  on the
  integer grid, stored as int numerators n_e over one positive denominator
  d.  Each result is reduced by one gcd over d and all the n_e, so equal
  series have equal numerators and denominators.  Truncation is propagated
  as for :class:`~superjacobi.series.QYSeries`.

* :class:`ZPiSeries` -- Laurent series in a formal variable z, graded by
  powers of the formal symbol pi-hat (standing for 2*pi*i), with QSeries
  coefficients.  No floating transcendental constant ever enters an exact
  computation.

All values are immutable by convention; operations return new objects.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class QSeries:
    """Truncated series  sum_e (nums[e] / den) q^e,  e < trunc.

    ``nums`` maps the exponent e to a nonzero int; stored exponents are
    < ``trunc`` and may be negative.  ``den`` > 0 shares no factor with
    every numerator at once.
    """

    __slots__ = ("nums", "den", "trunc")

    def __init__(self, nums: dict[int, int], den: int, trunc: int):
        if den < 1:
            raise ValueError("den must be >= 1")
        nums = {e: n for e, n in nums.items() if e < trunc and n}
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {e: n // g for e, n in nums.items()}
            den //= g
        self.nums = nums
        self.den = den
        self.trunc = trunc

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "QSeries":
        return cls({}, 1, trunc)

    @classmethod
    def one(cls, trunc: int) -> "QSeries":
        return cls({0: 1}, 1, trunc)

    @classmethod
    def from_fractions(cls, coeffs: dict[int, Fraction], trunc: int) -> "QSeries":
        """The series with rational coefficients ``coeffs`` (exponent ->
        Fraction), over the least common denominator."""
        den = lcm(*(c.denominator for c in coeffs.values()))
        return cls({e: c.numerator * (den // c.denominator)
                    for e, c in coeffs.items()}, den, trunc)

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def valuation(self) -> int:
        """Lowest stored exponent; equals trunc for a series with no terms."""
        return min(self.nums) if self.nums else self.trunc

    def coeff(self, e: int) -> Fraction:
        return Fraction(self.nums.get(e, 0), self.den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        nums = {e: n * fa for e, n in self.nums.items()}
        for e, n in other.nums.items():
            nums[e] = nums.get(e, 0) + n * fb
        return QSeries(nums, den, min(self.trunc, other.trunc))

    def __neg__(self) -> "QSeries":
        return QSeries({e: -n for e, n in self.nums.items()}, self.den,
                       self.trunc)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other: "QSeries") -> "QSeries":
        trunc = min(self.trunc + other.valuation(),
                    other.trunc + self.valuation())
        acc: dict[int, int] = {}
        bitems = sorted(other.nums.items())
        for ea, x in sorted(self.nums.items()):
            for eb, y in bitems:
                e = ea + eb
                if e >= trunc:
                    break
                acc[e] = acc.get(e, 0) + x * y
        return QSeries(acc, self.den * other.den, trunc)

    def scale(self, c) -> "QSeries":
        """The series times the int or Fraction c."""
        c = Fraction(c)
        return QSeries({e: n * c.numerator for e, n in self.nums.items()},
                       self.den * c.denominator, self.trunc)

    # -- calculus ----------------------------------------------------------

    def q_log_deriv(self) -> "QSeries":
        """q d/dq."""
        return QSeries({e: n * e for e, n in self.nums.items()}, self.den,
                       self.trunc)

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Equality of the stored terms and the truncation."""
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.nums == other.nums and self.den == other.den
                and self.trunc == other.trunc)

    def same_visible(self, other: "QSeries") -> bool:
        """Equality of the terms below the joint truncation, compared by
        cross-multiplying the numerators."""
        t = min(self.trunc, other.trunc)
        na, da, nb, db = self.nums, self.den, other.nums, other.den
        return all(na.get(e, 0) * db == nb.get(e, 0) * da
                   for e in na.keys() | nb.keys() if e < t)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """The JSON form of :meth:`QYSeries.to_dict
        <superjacobi.series.QYSeries.to_dict>` for a y-free series: grid 1,
        no y-prefactor, each coefficient a constant over denominator 1."""
        d = self.den
        items = []
        for e in sorted(self.nums):
            n = self.nums[e]
            g = gcd(n, d)
            items.append({"qExp": e, "num": [[0, f"{n // g}/{d // g}"]],
                          "den": [[0, "1/1"]]})
        return {"qDenom": 1, "yPrefactor": "0/1", "truncation": self.trunc,
                "terms": items}

    def __repr__(self):
        bits = [f"({self.coeff(e)})*q^{e}" for e in sorted(self.nums)[:8]]
        more = " + ..." if len(self.nums) > 8 else ""
        body = " + ".join(bits) if bits else "0"
        return f"QSeries[{body}{more} + O(q^{self.trunc})]"


class ZPiSeries:
    """Laurent series in z graded by powers of the formal symbol pi-hat.

    ``terms`` maps (z_exp, pi_exp) to a QSeries.
    ``ztrunc`` is the first unknown z-exponent; ``qtrunc`` the common q-order.
    """

    __slots__ = ("terms", "ztrunc", "qtrunc")

    def __init__(self, terms: dict[tuple[int, int], QSeries], ztrunc: int,
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
        terms: dict[tuple[int, int], QSeries] = {}
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

    def coeff(self, zexp: int, piexp: int) -> QSeries:
        return self.terms.get((zexp, piexp), QSeries.zero(self.qtrunc))

    def diff_exponents(self, other: "ZPiSeries") -> list[tuple[int, int, int]]:
        """Exponent triples (z, pi, q) where the two series provably differ.

        Only z-exponents below both z-truncations and q-exponents below both
        q-truncations are compared; coefficients n_a/d_a and n_b/d_b are
        compared as n_a d_b against n_b d_a.
        """
        zt = min(self.ztrunc, other.ztrunc)
        qt = min(self.qtrunc, other.qtrunc)
        zero = QSeries.zero(qt)
        out = []
        keys = set(self.terms) | set(other.terms)
        for (z, p) in sorted(keys):
            if z >= zt:
                continue
            a = self.terms.get((z, p), zero)
            b = other.terms.get((z, p), zero)
            na, da, nb, db = a.nums, a.den, b.nums, b.den
            for e in sorted(na.keys() | nb.keys()):
                if e >= qt:
                    continue
                if na.get(e, 0) * db != nb.get(e, 0) * da:
                    out.append((z, p, e))
        return out

    def __repr__(self):
        keys = sorted(self.terms)[:6]
        bits = [f"z^{z}*pi^{p}*[{self.terms[(z, p)]!r}]" for z, p in keys]
        return "ZPiSeries[" + " + ".join(bits) + (" + ..." if len(self.terms) > 6 else "") + "]"
