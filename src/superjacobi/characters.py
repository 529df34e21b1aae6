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
coefficient is an integer Laurent polynomial in y over a power of (y - 1),
so the work runs on integer rows from the factor walk to the printed JSON:
_product multiplies the factors out, starting from the row of 1, and the q^0
factors form one integral constant N/(y-1)^p; _series applies the sign, that
constant and the prefactor, and puts each term in canonical form once.
``RowSeries.coeff`` and ``leading`` hand out those canonical (N, p) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .labels import ModuleLabel, _p_factors, _quotient_factors, spectrum

Row = dict[int, int]


def _ym1_power(p: int) -> Row:
    """(y-1)^p expanded."""
    return {e: (-1) ** (p - e) * comb(p, e) for e in range(p + 1)}


def _mul_rows(a: Row, b: Row) -> Row:
    """a * b on integer rows."""
    out: Row = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _reduced(num: Row, pole: int) -> tuple[Row, int]:
    """num/(y-1)^pole, num nonzero, in canonical form: pole = 0 or
    num(1) != 0, cancelling one (y-1) at a time by synthetic division."""
    while pole and not sum(num.values()):
        out: Row = {}
        carry = 0
        for e in range(max(num), min(num), -1):
            carry += num.get(e, 0)
            if carry:
                out[e - 1] = carry
        num, pole = out, pole - 1
    return num, pole


@dataclass
class RowSeries:
    """Truncated series  y^ypref * sum_e  N_e(y)/(y-1)^p_e q^(e/qden),  e < trunc.

    ``terms`` maps the scaled exponent e to (N_e, p_e): N_e a nonzero integer
    Laurent polynomial {yexp: int} and p_e >= 0, in canonical form (p_e = 0
    or N_e(1) != 0), so equal coefficients have equal terms.
    """

    qden: int
    ypref: Fraction
    terms: dict[int, tuple[Row, int]]
    trunc: int

    def coeff(self, qexp) -> tuple[Row, int]:
        """The canonical (N, p) at q^qexp; ({}, 0) where there is no term,
        as off the grid (a Fraction keys the dict as the equal int)."""
        return self.terms.get(Fraction(qexp) * self.qden, ({}, 0))

    def leading(self) -> tuple[Fraction, tuple[Row, int]]:
        """(lowest visible q-exponent, its coefficient as (N, p))."""
        e0 = min(self.terms)
        return Fraction(e0, self.qden), self.terms[e0]

    def to_dict(self) -> dict:
        items = []
        for e in sorted(self.terms):
            num, pole = self.terms[e]
            items.append({
                "qExp": e,
                "num": [[y, f"{c}/1"] for y, c in sorted(num.items())],
                "den": [[y, f"{c}/1"] for y, c in _ym1_power(pole).items()]})
        p = self.ypref
        return {"qDenom": self.qden,
                "yPrefactor": f"{p.numerator}/{p.denominator}",
                "truncation": self.trunc,
                "terms": items}


@dataclass
class CharacterSeries:
    label: ModuleLabel
    series: RowSeries
    normalized: bool


def _product(factors, q_order: Fraction, qden: int):
    """The product of binomial factors (1 - q^a y^s)^side, exact to
    q^q_order on the grid 1/qden, as (rows, trunc, (N, p)).

    The work runs on integer rows {e: {yexp: int}}, starting from the row of
    1: a numerator factor is one descending-e pass, a denominator factor the
    forward recurrence.  The q^0 factors multiply to the constant N/(y-1)^p,
    N an integer Laurent polynomial and p >= 0, since 1 - y = -(y-1) and
    1 - 1/y = (y-1)/y; any other q^0 factor is a ValueError.
    """
    trunc = Fraction(q_order) * qden
    if trunc.denominator != 1:
        raise ValueError("q_order not on the grid")
    trunc = int(trunc)
    rows: dict[int, dict[int, int]] = {0: {0: 1}}
    sign, yshift, pole = 1, 0, 0
    for a, yexp, side in factors:
        a_scaled = Fraction(a) * qden
        if a_scaled.denominator != 1:
            raise ValueError("factor exponent off the grid")
        a_scaled = int(a_scaled)
        if a_scaled == 0:
            if yexp == 1:
                sign = -sign
            elif yexp == -1:
                yshift -= side
            else:
                raise ValueError(f"q^0 factor (1 - y^{yexp}) is not "
                                 "1 - y or 1 - 1/y")
            pole -= side
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
    const = {yshift + e: sign * c
             for e, c in _ym1_power(max(0, -pole)).items()}
    return {e: row for e, row in rows.items() if row}, trunc, \
        (const, max(0, pole))


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


def _series(factors, q_order: Fraction, qden: int, sign: int = 1,
            qpref: Fraction = Fraction(0),
            ypref: Fraction = Fraction(0)) -> RowSeries:
    """sign * q^qpref * y^ypref * prod (1 - q^a y^s)^side, exact to q^q_order
    on the grid 1/qden (refined when qpref is off it), each term reduced once."""
    rows, trunc, (const, pole) = _product(factors, q_order, qden)
    if sign < 0:
        const = {y: -c for y, c in const.items()}
    d = lcm(qden, qpref.denominator)
    f = d // qden
    off = int(qpref * d)
    terms = {e * f + off: _reduced(_mul_rows(row, const), pole)
             for e, row in rows.items()}
    return RowSeries(d, ypref, terms, trunc * f + off)


def _grid(label: ModuleLabel) -> int:
    """lcm(2u, den j, den k), which is 2u for every spectrum label."""
    return lcm(2 * label.u, label.j.denominator, label.k.denominator)


def p_product(label: ModuleLabel, q_order: Fraction,
              qden: int | None = None) -> RowSeries:
    """P_{j,k}^{(u)} exact to q^q_order, on the grid 1/qden (default _grid)."""
    u, j, k = label.u, label.j, label.k
    qden = qden if qden is not None else _grid(label)
    return _series(_p_factors(u, j, k, q_order), q_order, qden)


def character(label: ModuleLabel, q_order: Fraction,
              normalized: bool = False) -> CharacterSeries:
    """The graded superdimension of L_u(j, k), exact to q^q_order.

    The leading q-exponent is jk/u and the y-prefactor is (j - k + 1)/u,
    plus c(u)/6 when normalized.  The grid is 1/lcm(2u, den j, den k),
    refined when jk/u is off it, as for some generic labels.
    """
    q_order = Fraction(q_order)
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    return CharacterSeries(label, _flowed(label, 0, q_order, normalized),
                           normalized)


# -- spectral flow --------------------------------------------------------------

def _flowed(label: ModuleLabel, m: int, q_order: Fraction,
            normalized: bool) -> RowSeries:
    """q^{c m^2/6} y^{c m/3} * chi(q, q^m y), exact to q^q_order, from the
    product factors at y -> q^m y; m = 0 gives the character itself."""
    factors, sign, qpref, ypref = _quotient_factors(
        label.u, label.j, label.k, m, q_order, normalized)
    return _series(factors, q_order, _grid(label), sign, qpref, ypref)


def spectral_flow_transform(c: CharacterSeries, m: int,
                            q_order: Fraction | None = None) -> RowSeries:
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


def _on_grid(s: RowSeries, d: int) -> tuple[dict, int]:
    """The terms and truncation of s on the finer grid 1/d."""
    f = d // s.qden
    if f == 1:
        return s.terms, s.trunc
    return {e * f: t for e, t in s.terms.items()}, s.trunc * f


def _monomial_ratio(a: RowSeries, b: RowSeries):
    """If a == const * q^dq * y^dy * b for a single rational const, return
    (const, dq, dy); else None.  Compares the visible windows, from the
    leading terms, whose lowest y-terms ca y^ya and cb y^yb give const =
    ca/cb and y^s0; on canonical terms that is N_a(y) cb = N_b(y) y^s0 ca
    with equal poles, checked on integers."""
    if not a.terms or not b.terms:
        return None
    d = lcm(a.qden, b.qden)
    (ta, tra), (tb, trb) = _on_grid(a, d), _on_grid(b, d)
    ea, eb = min(ta), min(tb)
    dq = ea - eb
    na, nb = ta[ea][0], tb[eb][0]
    ya, yb = min(na), min(nb)
    s0, ca, cb = ya - yb, na[ya], nb[yb]
    for e in range(ea, min(tra, trb + dq)):
        x, y = ta.get(e), tb.get(e - dq)
        if x is None or y is None:
            if x is not y:
                return None
            continue
        (nx, px), (ny, py) = x, y
        if px != py or len(nx) != len(ny) or any(
                nx.get(k + s0, 0) * cb != c * ca for k, c in ny.items()):
            return None
    return Fraction(ca, cb), Fraction(dq, d), a.ypref - b.ypref + s0


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
