"""N=2 minimal-model characters and their spectral flow, exact over Q(y).

The labels, the product P_{j,k}^{(u)} and the walk over its factors live in
``labels``; this module multiplies the factors out into exact series.

Zero-q-exponent factors (only (1 - y^{+-1}), from j = 0 or shifted labels)
are kept as exact coefficients in Q[y, 1/y, 1/(y-1)].

Spectral flow (the lattice part of the Jacobi action) acts on a normalized
character as multiplication by q^{c m^2/6} y^{c m/3} followed by y -> q^m y.
It is computed exactly at the level of product factors: each (1 - q^a y^s)
maps to (1 - q^{a+ms} y^s), and factors driven to negative exponents are
flipped via (1 - q^{-r} w) = -q^{-r} w (1 - q^r w^{-1}), which contributes an
exact monomial, so no series is resummed.

Both the character and its flow come from labels._quotient_factors.  Every
intermediate coefficient is an integer Laurent polynomial in y, so _product
multiplies the factors out on integer rows, starting from the row of 1, and
builds one RatFunc per output term; the q^0 factors form the one rational
constant, applied once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# central_charge and _GENERIC_DENOM are not used here: they are bound so that
# every label name still resolves as characters.<name>
from .labels import (_GENERIC_DENOM, ModuleLabel, _p_factors,  # noqa: F401
                     _quotient_factors, central_charge, spectrum)
from .ratfunc import RatFunc
from .series import QYSeries


@dataclass
class CharacterSeries:
    label: ModuleLabel
    series: QYSeries
    normalized: bool


def _product(factors, q_order: Fraction, qden: int) -> QYSeries:
    """The product of binomial factors (1 - q^a y^s)^side, exact to
    q^q_order on the grid 1/qden.

    The work runs on integer rows {e: {yexp: int}}, starting from the row of
    1: a numerator factor is one descending-e pass, a denominator factor the
    forward recurrence.  q^0 factors are exact constants y^s (y-1)^{+-1},
    folded into one RatFunc and applied once at the end, so only one RatFunc
    is built per output term.
    """
    trunc = Fraction(q_order) * qden
    if trunc.denominator != 1:
        raise ValueError("q_order not on the grid")
    trunc = int(trunc)
    rows: dict[int, dict[int, int]] = {0: {0: 1}}
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
        else:
            # out[e] = in[e] + y^s out[e - a], ascending
            for e in range(a_scaled, trunc):
                prev = rows.get(e - a_scaled)
                if prev:
                    _add_shifted(rows.setdefault(e, {}), prev, yexp, 1)
    terms = {e: RatFunc({y: Fraction(v) for y, v in row.items()})
             for e, row in rows.items() if row}
    out = QYSeries(qden, Fraction(0), terms, trunc)
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
    return _product(_p_factors(u, j, k, q_order), q_order, qden)


def character(label: ModuleLabel, q_order: Fraction,
              normalized: bool = False) -> CharacterSeries:
    """The graded superdimension of L_u(j, k), exact to q^q_order.

    The leading q-exponent is jk/u and the y-prefactor is (j - k + 1)/u,
    plus c(u)/6 when normalized.  The grid is 1/(2u), refined when jk/u is
    off it, as for some generic labels.
    """
    q_order = Fraction(q_order)
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    return CharacterSeries(label, _flowed(label, 0, q_order, normalized),
                           normalized)


# -- spectral flow --------------------------------------------------------------

def _flowed(label: ModuleLabel, m: int, q_order: Fraction,
            normalized: bool) -> QYSeries:
    """q^{c m^2/6} y^{c m/3} * chi(q, q^m y), exact to q^q_order, from the
    product factors at y -> q^m y; m = 0 gives the character itself."""
    factors, sign, qpref, ypref = _quotient_factors(
        label.u, label.j, label.k, m, q_order, normalized)
    ser = _product(factors, q_order, 2 * label.u).shift(qpref, ypref)
    return ser.scale(-1) if sign < 0 else ser


def spectral_flow_transform(c: CharacterSeries, m: int,
                            q_order: Fraction | None = None) -> QYSeries:
    """q^{c m^2/6} y^{c m/3} * chi(q, q^m y) for a normalized character.

    Exact to the input's q-order (or q_order if given); computed from the
    transformed product factors, so no series resummation is involved.
    """
    if not c.normalized:
        raise ValueError("spectral flow is defined on normalized characters")
    if q_order is None:
        q_order = Fraction(c.series.trunc, c.series.qden)
    return _flowed(c.label, m, Fraction(q_order), True)


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
    (const, dq, dy); else None.  Compares the visible windows, from the
    leading terms, whose lowest y-terms give const and y^s0."""
    if a.is_zero() or b.is_zero():
        return None
    aa, bb = QYSeries._unify_grid_only(a, b)
    ea, eb = min(aa.terms), min(bb.terms)
    dq = ea - eb
    ca, cb = aa.terms[ea], bb.terms[eb]
    na, nb = ca.num_min_exp(), cb.num_min_exp()
    s0, const = na - nb, ca.num[na] / cb.num[nb]
    for e in range(ea, min(aa.trunc, bb.trunc + dq)):
        x = aa.terms.get(e, RatFunc.zero())
        y = bb.terms.get(e - dq, RatFunc.zero()).mul_monomial(s0).scale(const)
        if x != y:
            return None
    return const, Fraction(dq, aa.qden), aa.ypref - bb.ypref + s0


def find_flow_matches(u: int, m: int, q_order: Fraction) -> list[FlowMatch]:
    """Match the m-flow of every normalized level-u character against the
    normalized spectrum, up to a single monomial constant.  The match must be
    unique on the visible window, else ValueError (the CLI exits 2)."""
    labels = spectrum(u)
    chars = {lab: character(lab, q_order, normalized=True) for lab in labels}
    out = []
    for lab in labels:
        flowed = spectral_flow_transform(chars[lab], m)
        hits = [FlowMatch(lab, m, cand, *r) for cand in labels
                if (r := _monomial_ratio(flowed, chars[cand].series))]
        if len(hits) != 1:
            raise ValueError(
                f"{len(hits)} labels match the spectral flow of "
                f"({lab.j}, {lab.k}) at u={u}, m={m} to q^{q_order}; "
                f"a match must be unique")
        out.append(hits[0])
    return out
