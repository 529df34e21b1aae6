"""N=2 minimal-model spectrum and graded superdimensions.

The level-u family (u >= 2, central charge c(u) = 3 - 6/u) has u(u-1)/2
irreducible modules labeled by integer pairs (j, k) with j >= 0, k >= 1,
j + k < u.  The character of (j, k) is

    q^{jk/u} y^{(j-k+1)/u} P_{j,k}^{(u)} / P_{1/2,1/2}^{(2)}

with the infinite product

    P_{j,k}^{(u)} = prod_{n>=1}
        (1-q^{u(n-1)+j+k}) (1-q^{un-j-k}) (1-q^{un})^2
      / [(1-q^{un-j} y) (1-q^{u(n-1)+j} y^{-1}) (1-q^{un-k} y^{-1}) (1-q^{u(n-1)+k} y)].

Zero-q-exponent factors (only (1 - y^{+-1}), from j = 0 or shifted labels)
are kept as exact coefficients in Q[y, 1/y, 1/(y-1)]; a generic label with
j + k = u would contribute (1 - q^0) = 0 and is rejected.  The normalized
character carries an extra y^{c/6}.

Spectral flow (the lattice part of the Jacobi action) acts on a normalized
character as multiplication by q^{c m^2/6} y^{c m/3} followed by y -> q^m y.
It is computed exactly at the level of product factors: each (1 - q^a y^s)
maps to (1 - q^{a+ms} y^s), and factors driven to negative exponents are
flipped via (1 - q^{-r} w) = -q^{-r} w (1 - q^r w^{-1}), which contributes an
exact monomial, so no series is resummed.

Both the character and its flow are one product of binomial factors
(_quotient_factors): those of (u, j, k), then those of the generic label
(2, 1/2, 1/2) with their side flipped, applied one at a time to the series 1.
Every intermediate coefficient is an integer Laurent polynomial in y, so
_apply_factors works on integer rows and builds one RatFunc per output term;
the q^0 factors form the one rational constant, applied once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadLevel, NegativeExponent, VanishingFactor
from .ratfunc import RatFunc
from .series import QYSeries


@dataclass(frozen=True)
class ModuleLabel:
    u: int
    j: Fraction
    k: Fraction
    generic: bool = False

    def __post_init__(self):
        if self.u < 2:
            raise BadLevel("u must be >= 2")
        object.__setattr__(self, "j", Fraction(self.j))
        object.__setattr__(self, "k", Fraction(self.k))
        if not self.generic:
            if self.j.denominator != 1 or self.k.denominator != 1:
                raise BadLevel("spectrum labels need integer j, k")
            if not (self.j >= 0 and self.k >= 1 and self.j + self.k < self.u):
                raise BadLevel(
                    f"(j, k) = ({self.j}, {self.k}) not in the level-{self.u} spectrum")

    def key(self):
        return (self.u, self.j, self.k)


@dataclass
class CharacterSeries:
    label: ModuleLabel
    series: QYSeries
    normalized: bool


def central_charge(u: int) -> Fraction:
    if u < 2:
        raise BadLevel("u must be >= 2")
    return Fraction(3) - Fraction(6, u)


def spectrum(u: int) -> list[ModuleLabel]:
    if u < 2:
        raise BadLevel("u must be >= 2")
    return [ModuleLabel(u, Fraction(j), Fraction(k))
            for j in range(u) for k in range(1, u) if j + k < u]


# -- product factors -----------------------------------------------------------

def _p_factors(u: int, j: Fraction, k: Fraction, qmax: Fraction):
    """Yield (a, yexp, side) for every factor of P_{j,k}^{(u)} with q-exponent
    a < qmax; side is +1 for numerator factors, -1 for denominator ones.

    Raises NegativeExponent if any factor exponent is negative, and
    VanishingFactor for the factor (1 - q^0) of a generic label with
    j + k = u * n, which makes the product zero.
    """
    n = 1
    while True:
        exps = [
            (u * (n - 1) + j + k, 0, +1),
            (u * n - j - k, 0, +1),
            (Fraction(u * n), 0, +1),
            (Fraction(u * n), 0, +1),
            (u * n - j, 1, -1),
            (u * (n - 1) + j, -1, -1),
            (u * n - k, -1, -1),
            (u * (n - 1) + k, 1, -1),
        ]
        negative = [a for a, _, _ in exps if a < 0]
        if negative:
            raise NegativeExponent(f"factor exponent {negative[0]} < 0 for "
                                   f"(u, j, k) = ({u}, {j}, {k})")
        emitted = False
        for a, yexp, side in exps:
            if a == 0 and yexp == 0:
                raise VanishingFactor(
                    f"factor (1 - q^0) = 0 for (u, j, k) = ({u}, {j}, {k})")
            if a < qmax:
                emitted = True
                yield a, yexp, side
        if not emitted and u * (n - 1) >= qmax:
            return
        n += 1


def _apply_factors(series: QYSeries, factors, qden: int) -> QYSeries:
    """Multiply/divide binomial factors (1 - q^a y^s) into a series whose
    coefficients are integer Laurent polynomials in y.

    The work runs on integer rows {e: {yexp: int}}: a numerator factor is one
    descending-e pass, a denominator factor the forward recurrence.  q^0
    factors are exact constants y^s (y-1)^{+-1}, folded into one RatFunc and
    applied once at the end, so only one RatFunc is built per output term.
    Raises ValueError on a coefficient that is not an integer Laurent
    polynomial.
    """
    trunc = series.trunc
    rows: dict[int, dict[int, int]] = {}
    for e, c in series.terms.items():
        if not c.is_poly() or any(v.denominator != 1 for v in c.num.values()):
            raise ValueError(
                "coefficient is not an integer Laurent polynomial in y")
        rows[e] = {y: int(v) for y, v in c.num.items()}
    const = RatFunc.one()
    for a, yexp, side in factors:
        a_scaled = Fraction(a) * qden
        if a_scaled.denominator != 1:
            raise ValueError("factor exponent off the grid")
        a_scaled = int(a_scaled)
        if a_scaled == 0:
            f = RatFunc({0: Fraction(1), yexp: Fraction(-1)})
            const = const * f if side > 0 else const * f.inverse()
        elif side > 0:
            # row e feeds row e + a, which a descending pass has already read
            for e in sorted(rows, reverse=True):
                if e + a_scaled < trunc:
                    _add_shifted(rows.setdefault(e + a_scaled, {}), rows[e],
                                 yexp, -1)
        elif rows:
            # out[e] = in[e] + y^s out[e - a], ascending
            for e in range(min(rows) + a_scaled, trunc):
                prev = rows.get(e - a_scaled)
                if prev:
                    _add_shifted(rows.setdefault(e, {}), prev, yexp, 1)
    terms = {}
    for e, row in rows.items():
        if row:
            terms[e] = RatFunc({y: Fraction(v) for y, v in row.items()})
    out = QYSeries(series.qden, series.ypref, terms, trunc)
    if not (const.is_const() and const.const_value() == 1):
        out = out.scale(const)
    return out


def _add_shifted(target: dict[int, int], row: dict[int, int], yexp: int,
                 sign: int) -> None:
    """target += sign * y^yexp * row, on integer rows without zero entries."""
    for y, v in row.items():
        y += yexp
        w = target.get(y, 0) + sign * v
        if w:
            target[y] = w
        else:
            del target[y]


def p_product(label: ModuleLabel, q_order: Fraction,
              qden: int | None = None) -> QYSeries:
    """P_{j,k}^{(u)} exact to q^q_order, on the grid 1/qden (default 2u)."""
    u, j, k = label.u, label.j, label.k
    qden = qden if qden is not None else 2 * u
    return _apply_factors(_one(q_order, qden), _p_factors(u, j, k, q_order),
                          qden)


def _one(q_order: Fraction, qden: int) -> QYSeries:
    """The series 1, exact to q^q_order on the grid 1/qden."""
    tr = Fraction(q_order) * qden
    if tr.denominator != 1:
        raise ValueError("q_order not on the grid")
    return QYSeries.one(int(tr), qden)


_GENERIC_DENOM = (2, Fraction(1, 2), Fraction(1, 2))


def character(label: ModuleLabel, q_order: Fraction,
              normalized: bool = False) -> CharacterSeries:
    """The graded superdimension of L_u(j, k), exact to q^q_order.

    Grid is 1/(2u); the leading q-exponent is jk/u and the y-prefactor is
    (j - k + 1)/u, plus c(u)/6 when normalized.
    """
    u, j, k = label.u, label.j, label.k
    qden = 2 * u
    q_order = Fraction(q_order)
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    factors, _, _, _ = _quotient_factors(u, j, k, 0, q_order)
    ser = _apply_factors(_one(q_order, qden), factors, qden)
    ypref = Fraction(j - k + 1, 1) / u
    if normalized:
        ypref += central_charge(u) / 6
    ser = ser.shift(Fraction(j * k, 1) / u, ypref)
    return CharacterSeries(label, ser, normalized)


# -- spectral flow --------------------------------------------------------------

def _flowed_factors(u: int, j: Fraction, k: Fraction, m: int, qmax: Fraction):
    """Factors of P_{j,k}^{(u)}(q, q^m y) with q-exponent below qmax, flips
    applied.

    Returns (factors, sign, q_shift, y_shift): the flipped-monomial prefactor
    is sign * q^{q_shift} y^{y_shift}.
    """
    sign = 1
    q_shift = Fraction(0)
    y_shift = 0
    factors = []
    # a shifted exponent a + m * yexp with |yexp| <= 1 is below qmax only if
    # a < qmax + |m|; every flipped factor has a < |m|
    for a, yexp, side in _p_factors(u, j, k, qmax + abs(m)):
        a += m * yexp
        if a < 0:
            # (1 - q^a y^s) = -q^a y^s (1 - q^{-a} y^{-s})
            sign = -sign
            q_shift += side * a
            y_shift += side * yexp
            a, yexp = -a, -yexp
        if a < qmax:
            factors.append((a, yexp, side))
    return factors, sign, q_shift, y_shift


def _quotient_factors(u: int, j: Fraction, k: Fraction, m: int,
                      qmax: Fraction):
    """Factors of P_{j,k}^{(u)} / P_{1/2,1/2}^{(2)} at y -> q^m y: those of
    (u, j, k), then those of _GENERIC_DENOM with their side flipped.

    Returns (factors, sign, q_shift, y_shift) as _flowed_factors does, for
    the quotient; m = 0 gives the character's factors and the prefactor 1.
    """
    num, sg_n, qs_n, ys_n = _flowed_factors(u, j, k, m, qmax)
    den, sg_d, qs_d, ys_d = _flowed_factors(*_GENERIC_DENOM, m, qmax)
    factors = num + [(a, yexp, -side) for a, yexp, side in den]
    # the denominator's sign inverts itself
    return factors, sg_n * sg_d, qs_n - qs_d, ys_n - ys_d


def spectral_flow_transform(c: CharacterSeries, m: int,
                            q_order: Fraction | None = None) -> QYSeries:
    """q^{c m^2/6} y^{c m/3} * chi(q, q^m y) for a normalized character.

    Exact to the input's q-order (or q_order if given); computed from the
    transformed product factors, so no series resummation is involved.
    """
    if not c.normalized:
        raise ValueError("spectral flow is defined on normalized characters")
    lab = c.label
    u, j, k = lab.u, lab.j, lab.k
    cc = central_charge(u)
    qden = 2 * u
    if q_order is None:
        q_order = Fraction(c.series.trunc, qden)
    q_order = Fraction(q_order)

    factors, sign, q_shift, y_shift = _quotient_factors(u, j, k, m, q_order)
    ser = _apply_factors(_one(q_order, qden), factors, qden)

    ypref = Fraction(j - k + 1, 1) / u + cc / 6
    qpref = (Fraction(j * k, 1) / u           # original q-prefactor
             + m * ypref                      # y-prefactor hit by y -> q^m y
             + cc * m * m / 6                 # transform factor
             + q_shift)                       # flip monomials
    ytot = ypref + Fraction(cc * m, 3) + y_shift
    ser = ser.shift(qpref, ytot)
    if sign < 0:
        ser = ser.scale(-1)
    return ser


@dataclass
class FlowMatch:
    source: ModuleLabel
    m: int
    target: ModuleLabel
    const: Fraction
    q_shift: Fraction
    y_shift: Fraction

    def to_dict(self) -> dict:
        return {"source": [int(self.source.j), int(self.source.k)],
                "m": self.m,
                "target": [int(self.target.j), int(self.target.k)],
                "const": str(self.const),
                "qShift": str(self.q_shift),
                "yShift": str(self.y_shift)}


def _monomial_ratio(a: QYSeries, b: QYSeries):
    """If a == const * q^dq * y^dy * b for a single rational const, return
    (const, dq, dy); else None.  Compares the visible windows."""
    if a.is_zero() or b.is_zero():
        return None
    aa, bb = QYSeries._unify_grid_only(a, b)
    d = aa.qden
    ea, eb = min(aa.terms), min(bb.terms)
    dq = ea - eb
    window = min(aa.trunc, bb.trunc + dq)
    ca, cb = aa.terms[ea], bb.terms[eb]
    # leading coefficients must agree up to const * y^s0 for one (const, s0)
    if ca.pole != cb.pole:
        return None
    s0 = ca.num_min_exp() - cb.num_min_exp()
    cb0 = cb.mul_monomial(s0)
    sa = sorted(ca.num.items())
    sb = sorted(cb0.num.items())
    if [e for e, _ in sa] != [e for e, _ in sb]:
        return None
    const = sa[0][1] / sb[0][1]
    for e in range(min(ea, eb + dq), window):
        x = aa.terms.get(e, RatFunc.zero())
        y = bb.terms.get(e - dq, RatFunc.zero()).mul_monomial(s0).scale(const)
        if x != y:
            return None
    return const, Fraction(dq, d), aa.ypref - bb.ypref + s0


def find_flow_matches(u: int, m: int, q_order: Fraction) -> list[FlowMatch]:
    """Match the m-flow of every normalized level-u character against the
    normalized spectrum, up to a single monomial constant."""
    labels = spectrum(u)
    chars = {lab.key(): character(lab, q_order, normalized=True) for lab in labels}
    out = []
    for lab in labels:
        flowed = spectral_flow_transform(chars[lab.key()], m)
        hit = None
        for cand in labels:
            r = _monomial_ratio(flowed, chars[cand.key()].series)
            if r is not None:
                hit = FlowMatch(lab, m, cand, r[0], r[1], r[2])
                break
        if hit is None:
            raise ValueError(f"no spectral-flow match for {lab} at m={m}")
        out.append(hit)
    return out
