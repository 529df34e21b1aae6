import random
from fractions import Fraction
from math import lcm

import pytest

from superjacobi import characters
from superjacobi.characters import (ModuleLabel, RowSeries,
                                    _monomial_ratio, _p_factors, _product,
                                    _quotient_factors, _series, character,
                                    find_flow_matches, p_product,
                                    spectral_flow_transform, spectrum)
from superjacobi.errors import BadLevel
from superjacobi.labels import _GENERIC_DENOM, central_charge
from superjacobi.ratfunc import RatFunc
from superjacobi.series import QYSeries, div_binomial, mul_binomial

from conftest import as_qyseries, as_ratfunc

F = Fraction


def test_central_charge():
    assert central_charge(2) == 0
    assert central_charge(3) == 1
    assert central_charge(4) == F(3, 2)
    with pytest.raises(BadLevel):
        central_charge(1)


def test_spectrum_counts():
    assert [(int(l.j), int(l.k)) for l in spectrum(2)] == [(0, 1)]
    assert [(int(l.j), int(l.k)) for l in spectrum(3)] == [(0, 1), (0, 2), (1, 1)]
    for u in range(2, 13):
        assert len(spectrum(u)) == u * (u - 1) // 2
    with pytest.raises(BadLevel):
        spectrum(1)


def test_label_validation():
    with pytest.raises(BadLevel):
        ModuleLabel(3, 1, 2)         # j + k = 3, not < 3
    with pytest.raises(BadLevel):
        ModuleLabel(3, F(1, 2), 1)   # non-integer without generic flag
    ModuleLabel(2, F(1, 2), F(1, 2), generic=True)


def test_p_factor_families():
    # u=2, j=k=1/2 at n=1: denominators (1-q^{3/2}y)(1-q^{1/2}/y)(1-q^{3/2}/y)(1-q^{1/2}y)
    fac = [(a, s) for a, s, side in _p_factors(2, F(1, 2), F(1, 2), F(2))
           if side < 0]
    assert sorted(fac[:4]) == [(F(1, 2), -1), (F(1, 2), 1),
                               (F(3, 2), -1), (F(3, 2), 1)]
    # u=3, j=k=1 at n=1: numerator (1-q^2)(1-q)(1-q^3)^2
    nums = [a for a, s, side in _p_factors(3, F(1), F(1), F(4)) if side > 0]
    assert sorted(nums)[:4] == [1, 2, 3, 3]


# -- the integer-row kernel against the RatFunc binomial fold ------------------

def _product_reference(factors, trunc: int, qden: int) -> QYSeries:
    """One mul_binomial/div_binomial per factor on RatFunc coefficients,
    started from the series 1; q^0 factors fold into one exact constant
    applied at the end."""
    const = RatFunc.one()
    out = QYSeries.one(trunc, qden)
    for a, yexp, side in factors:
        a_scaled = int(F(a) * qden)
        if a_scaled == 0:
            f = RatFunc({0: F(1), yexp: F(-1)})
            const = const * (f if side > 0 else f.inverse())
        elif side > 0:
            out = mul_binomial(out, a_scaled, yexp, -1)
        else:
            out = div_binomial(out, a_scaled, yexp, -1)
    if not (const.is_const() and const.const_value() == 1):
        out = out.scale(const)
    return out


def _random_kernel_case(rng: random.Random):
    """A grid, a scaled order and factors with yexp in {-1, 0, 1} that include
    q^0 factors on both sides and exponents at trunc - 1 and at or past trunc."""
    qden = rng.choice([1, 2, 6])
    trunc = rng.randint(6, 24)
    scaled = [(0, rng.choice([-1, 1]), +1), (0, rng.choice([-1, 1]), -1),
              (trunc - 1, rng.choice([-1, 0, 1]), rng.choice([-1, 1])),
              (trunc + rng.randint(0, 2), rng.choice([-1, 0, 1]),
               rng.choice([-1, 1]))]
    for _ in range(rng.randint(4, 10)):
        scaled.append((rng.randint(1, trunc - 1), rng.choice([-1, 0, 1]),
                       rng.choice([-1, 1])))
    rng.shuffle(scaled)
    return [(F(a, qden), yexp, side) for a, yexp, side in scaled], trunc, qden


@pytest.mark.parametrize("seed", range(12))
def test_apply_factors_matches_binomial_fold(seed):
    factors, trunc, qden = _random_kernel_case(random.Random(seed))
    got = as_qyseries(_series(factors, F(trunc, qden), qden))
    ref = _product_reference(factors, trunc, qden)
    assert got.terms == ref.terms
    assert (got.trunc, got.qden, got.ypref) == (ref.trunc, ref.qden, ref.ypref)


@pytest.mark.parametrize("seed", range(4))
def test_surplus_numerator_q0_factors_match_binomial_fold(seed):
    # more numerator than denominator q^0 factors leave (y-1)^k in the
    # constant's numerator, which multiplies every row
    rng = random.Random(seed)
    factors, trunc, qden = _random_kernel_case(rng)
    factors += [(F(0), rng.choice([-1, 1]), +1) for _ in range(2)]
    got = as_qyseries(_series(factors, F(trunc, qden), qden))
    assert got == _product_reference(factors, trunc, qden)


@pytest.mark.parametrize("yexp", [0, 2, -3])
@pytest.mark.parametrize("side", [1, -1])
def test_other_q0_factor_rejected(yexp, side):
    # the q^0 constant stays integral over a power of (y - 1) only for the
    # factors 1 - y and 1 - 1/y
    with pytest.raises(ValueError, match=r"q\^0 factor"):
        _product([(F(0), yexp, side)], F(2), 2)


# -- the row route against the RatFunc route it replaced ----------------------

def _ratfunc_route(factors, q_order, qden, sign=1, qpref=F(0), ypref=F(0)):
    """The binomial fold on RatFunc coefficients, then the prefactor shift and
    the sign as whole-series operations."""
    ser = _product_reference(factors, int(q_order * qden), qden)
    ser = ser.shift(qpref, ypref)
    return ser.scale(-1) if sign < 0 else ser


def _monomial_ratio_reference(a: QYSeries, b: QYSeries):
    """_monomial_ratio on RatFunc terms, compared term by term."""
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
    return const, F(dq, aa.qden), aa.ypref - bb.ypref + s0


def _character_cases(rng: random.Random):
    """Three spectrum labels and one generic label at each u = 2..8, with
    orders and normalizations drawn from rng; the generic j, k lie on a grid
    1/d with d | 2u and j + k < u, so jk/u may refine the character's grid."""
    for u in range(2, 9):
        labels = spectrum(u)
        for lab in rng.sample(labels, min(3, len(labels))):
            yield lab, F(rng.choice([8, 20])), rng.random() < 0.5
        d = rng.choice([d for d in range(1, 2 * u + 1) if 2 * u % d == 0])
        j = F(rng.randint(0, u * d - 2), d)
        k = F(rng.randint(1, int((u - j) * d) - 1), d)
        yield (ModuleLabel(u, j, k, generic=True), F(rng.choice([3, 8])),
               rng.random() < 0.5)


@pytest.mark.parametrize("seed", range(3))
def test_character_rows_print_as_the_ratfunc_route(seed):
    for lab, q_order, normalized in _character_cases(random.Random(seed)):
        factors, sign, qpref, ypref = _quotient_factors(
            lab.u, lab.j, lab.k, 0, q_order, normalized)
        ref = _ratfunc_route(factors, q_order, 2 * lab.u, sign, qpref, ypref)
        got = character(lab, q_order, normalized).series
        assert got.to_dict() == ref.to_dict(), (lab, q_order, normalized)


@pytest.mark.parametrize("u", range(2, 8))
def test_flow_rows_and_ratios_match_the_ratfunc_route(u):
    m = random.Random(u).choice([1, -1, 2, -2, 3])
    labels = spectrum(u)
    chars = {lab: character(lab, F(9), normalized=True) for lab in labels}
    want = []
    for lab in labels:
        flowed = spectral_flow_transform(chars[lab], m)
        q_order = F(chars[lab].series.trunc, chars[lab].series.qden)
        factors, sign, qpref, ypref = _quotient_factors(
            u, lab.j, lab.k, m, q_order, True)
        ref = _ratfunc_route(factors, q_order, 2 * u, sign, qpref, ypref)
        assert flowed.to_dict() == ref.to_dict(), lab
        for cand in labels:
            r = _monomial_ratio(flowed, chars[cand].series)
            assert r == _monomial_ratio_reference(
                ref, as_qyseries(chars[cand].series)), (lab, cand)
            if r:
                want.append((lab, cand, *r))
    assert [(mt.source, mt.target, mt.const, mt.q_shift, mt.y_shift)
            for mt in find_flow_matches(u, m, F(9))] == want


@pytest.mark.parametrize("u, j, k", [(3, F(1, 5), F(1, 5)),
                                     (4, F(2, 7), F(3, 5)),
                                     (5, F(1, 3), F(1, 3))])
@pytest.mark.parametrize("normalized", [False, True])
def test_generic_labels_off_the_2u_grid(u, j, k, normalized):
    # the default grid is lcm(2u, den j, den k), which is 2u whenever both
    # denominators divide 2u
    lab, q_order = ModuleLabel(u, j, k, generic=True), F(2)
    qden = lcm(2 * u, j.denominator, k.denominator)
    factors, sign, qpref, ypref = _quotient_factors(u, j, k, 0, q_order,
                                                    normalized)
    ref = _ratfunc_route(factors, q_order, qden, sign, qpref, ypref)
    assert character(lab, q_order, normalized).series.to_dict() == \
        ref.to_dict()
    assert p_product(lab, q_order).to_dict() == \
        _ratfunc_route(_p_factors(u, j, k, q_order), q_order, qden).to_dict()


def _with_term(s: RowSeries, e: int, num: dict, pole: int) -> RowSeries:
    return RowSeries(s.qden, s.ypref, {**s.terms, e: (num, pole)}, s.trunc)


@pytest.mark.parametrize("change", ["coefficient", "pole", "leading constant",
                                    "dropped term"])
def test_monomial_ratio_refuses_a_changed_term(change):
    # a true flow match, then one term of the flowed series changed; the
    # flow of (1, 1) has terms with a pole, which keep a pole + 1 canonical
    match = next(mt for mt in find_flow_matches(4, 1, F(9))
                 if mt.source == ModuleLabel(4, 1, 1))
    b = character(match.target, F(9), normalized=True).series
    a = spectral_flow_transform(
        character(match.source, F(9), normalized=True), 1)
    assert _monomial_ratio(a, b) == (match.const, match.q_shift,
                                     match.y_shift)
    lead = min(a.terms)
    e = next(e for e in sorted(a.terms) if e > lead and a.terms[e][1])
    num, pole = a.terms[e]
    if change == "coefficient":
        y0 = min(num)
        bad = _with_term(a, e, {**num, y0: 2 * num[y0]}, pole)
    elif change == "pole":
        bad = _with_term(a, e, num, pole + 1)
    elif change == "dropped term":
        bad = RowSeries(a.qden, a.ypref,
                        {k: t for k, t in a.terms.items() if k != e}, a.trunc)
    else:
        num, pole = a.terms[lead]
        bad = _with_term(a, lead, {y: 2 * c for y, c in num.items()}, pole)
    assert _monomial_ratio(bad, b) is None
    assert _monomial_ratio_reference(as_qyseries(bad), as_qyseries(b)) is None


# -- independent oracle: log of each factor, exponential via the ODE recurrence

def _log_one_minus(a_scaled: int, yexp: int, trunc: int, qden: int) -> QYSeries:
    terms = {}
    r = 1
    while r * a_scaled < trunc:
        terms[r * a_scaled] = RatFunc.monomial(F(-1, r), yexp * r)
        r += 1
    return QYSeries(qden, F(0), terms, trunc)


def _exp_ode(a: QYSeries) -> QYSeries:
    """exp of a series with positive valuation, via b_e = (1/e) sum k a_k b_{e-k}."""
    assert a.is_zero() or min(a.terms) >= 1
    trunc = a.trunc
    b = {0: RatFunc.one()}
    for e in range(1, trunc):
        acc = RatFunc.zero()
        for k, ak in a.terms.items():
            if 1 <= k <= e and (e - k) in b:
                acc = acc + ak.scale(k) * b[e - k]
        if not acc.is_zero():
            b[e] = acc.scale(F(1, e))
    return QYSeries(a.qden, F(0), b, trunc)


def log_exp_oracle(label: ModuleLabel, q_order: F) -> QYSeries:
    """P product recomputed as exp(sum of factor logarithms); q^0 factors
    (exact rational functions) multiply in unchanged."""
    u = label.u
    qden = 2 * u
    tr = int(F(q_order) * qden)
    logsum = QYSeries.zero(tr, qden)
    const = RatFunc.one()
    for a, yexp, side in _p_factors(u, label.j, label.k, F(q_order)):
        a_scaled = int(F(a) * qden)
        if a_scaled == 0:
            f = RatFunc({0: F(1), yexp: F(-1)})
            const = const * (f if side > 0 else f.inverse())
        else:
            piece = _log_one_minus(a_scaled, yexp, tr, qden)
            logsum = logsum + (piece if side > 0 else -piece)
    out = _exp_ode(logsum)
    if not (const.is_const() and const.const_value() == 1):
        out = out.scale(const)
    return out


def test_product_matches_log_exp_oracle_311():
    lab = ModuleLabel(3, 1, 1)
    assert as_qyseries(p_product(lab, F(10))).same_visible(
        log_exp_oracle(lab, F(10)))


@pytest.mark.parametrize("u", [2, 3, 4])
def test_product_matches_log_exp_oracle_all(u):
    for lab in spectrum(u):
        assert as_qyseries(p_product(lab, F(8))).same_visible(
            log_exp_oracle(lab, F(8)))


# -- reference routes: numerator times the inverted denominator series ---------

@pytest.mark.parametrize("q_order", [F(8), F(20)])
def test_character_matches_inversion_route(q_order):
    generic = ModuleLabel(*_GENERIC_DENOM, generic=True)
    for u in range(2, 7):
        den_inv = as_qyseries(p_product(generic, q_order, 2 * u)).invert()
        for lab in spectrum(u):
            quotient = as_qyseries(p_product(lab, q_order)) * den_inv
            for normalized in (False, True):
                got = as_qyseries(character(lab, q_order, normalized).series)
                ypref = F(lab.j - lab.k + 1) / u
                if normalized:
                    ypref += central_charge(u) / 6
                ref = quotient.shift(F(lab.j * lab.k) / u, ypref)
                assert got.terms == ref.terms
                assert (got.trunc, got.qden, got.ypref) == \
                    (ref.trunc, ref.qden, ref.ypref)


def _flowed_factors_reference(u, j, k, m, qmax):
    """Factors of P_{j,k}^{(u)}(q, q^m y), flips applied, from their own
    8-factor table and stop rule: (factors, sign, q_shift, y_shift)."""
    sign, q_shift, y_shift = 1, F(0), 0
    factors = []
    n = 1
    while True:
        raw = [
            (u * (n - 1) + j + k, 0, +1), (u * n - j - k, 0, +1),
            (F(u * n), 0, +1), (F(u * n), 0, +1),
            (u * n - j, 1, -1), (u * (n - 1) + j, -1, -1),
            (u * n - k, -1, -1), (u * (n - 1) + k, 1, -1),
        ]
        emitted = False
        for a, yexp, side in raw:
            a2 = a + m * yexp
            if a2 < 0:
                sign = -sign
                q_shift += a2 if side > 0 else -a2
                y_shift += yexp if side > 0 else -yexp
                a2, yexp = -a2, -yexp
            if a2 < qmax:
                emitted = True
                factors.append((a2, yexp, side))
        if not emitted and u * (n - 1) - abs(m) >= qmax:
            return factors, sign, q_shift, y_shift
        n += 1


def _flow_by_inversion(label: ModuleLabel, m: int, q_order: F) -> QYSeries:
    u, j, k = label.u, label.j, label.k
    cc = central_charge(u)
    qden = 2 * u
    fac_n, sg_n, qs_n, ys_n = _flowed_factors_reference(u, j, k, m, q_order)
    fac_d, sg_d, qs_d, ys_d = _flowed_factors_reference(*_GENERIC_DENOM, m,
                                                        q_order)
    ser = (as_qyseries(_series(fac_n, q_order, qden))
           * as_qyseries(_series(fac_d, q_order, qden)).invert())
    ypref = F(j - k + 1) / u + cc / 6
    qpref = F(j * k) / u + m * ypref + cc * m * m / 6 + qs_n - qs_d
    ser = ser.shift(qpref, ypref + F(cc * m, 3) + ys_n - ys_d)
    return ser.scale(sg_n * sg_d)


@pytest.mark.parametrize("m", [1, -1, 2, -2, 3])
def test_flow_matches_inversion_route(m):
    for u in range(2, 6):
        for lab in spectrum(u):
            ch = character(lab, F(8), normalized=True)
            got = as_qyseries(spectral_flow_transform(ch, m))
            # the flow keeps the character's order, its prefactor included
            ref = _flow_by_inversion(lab, m, F(ch.series.trunc, 2 * u))
            assert got.terms == ref.terms
            assert (got.trunc, got.qden, got.ypref) == \
                (ref.trunc, ref.qden, ref.ypref)


def test_flowed_factors_without_flow_are_the_product_factors():
    # the one walk at m = 0: the label's factors in _p_factors order, then
    # the generic denominator's with their side flipped, and the bare prefactor
    for u in range(2, 9):
        cc = central_charge(u)
        for lab in spectrum(u):
            j, k = lab.j, lab.k
            for qmax in (F(1, 2), F(3), F(17, 2)):
                want = list(_p_factors(u, j, k, qmax)) + [
                    (a, s, -side)
                    for a, s, side in _p_factors(*_GENERIC_DENOM, qmax)]
                for normalized in (False, True):
                    factors, sign, qpref, ypref = _quotient_factors(
                        u, j, k, 0, qmax, normalized)
                    assert factors == want
                    assert sign == 1
                    assert qpref == F(j * k) / u
                    assert ypref == F(j - k + 1) / u + (cc / 6 if normalized
                                                        else 0)


def test_float_factors_prefactor_is_the_walks():
    from superjacobi.jacobi import _float_factors
    for u in range(2, 7):
        for lab in spectrum(u):
            _, _, qpref, ypref = _quotient_factors(u, lab.j, lab.k, 0, F(5),
                                                   True)
            qf, yf, _ = _float_factors(u, lab.j, lab.k, F(5))
            assert (qf, yf) == (float(qpref), float(ypref))


# -- truncation claims: the result at order T is a prefix of the one at 2T ----

def _assert_prefix(short: QYSeries, long: QYSeries):
    assert (short.qden, short.ypref) == (long.qden, long.ypref)
    assert long.trunc >= short.trunc
    assert short.terms == {e: c for e, c in long.terms.items()
                           if e < short.trunc}


@pytest.mark.parametrize("u", range(2, 7))
def test_character_is_prefix_of_double_order(u):
    for lab in spectrum(u):
        for normalized in (False, True):
            _assert_prefix(character(lab, F(6), normalized).series,
                           character(lab, F(12), normalized).series)


@pytest.mark.parametrize("m", [1, -1, 2, -2, 3])
def test_flow_is_prefix_of_double_order(m):
    for u in range(2, 7):
        for lab in spectrum(u):
            _assert_prefix(
                spectral_flow_transform(character(lab, F(6), True), m),
                spectral_flow_transform(character(lab, F(12), True), m))


@pytest.mark.parametrize("q_order", [F(0), F(-1)])
def test_nonpositive_order_rejected(q_order):
    with pytest.raises(ValueError, match="q_order must be >= 1"):
        character(ModuleLabel(3, 1, 1), q_order)
    with pytest.raises(ValueError, match="q_order must be >= 1"):
        find_flow_matches(3, 1, q_order)


def test_flow_rejects_off_grid_order():
    ch = character(ModuleLabel(3, 1, 1), F(4), normalized=True)
    with pytest.raises(ValueError, match="q_order not on the grid"):
        spectral_flow_transform(ch, 1, F(20, 7))


def test_flow_default_order_is_read_on_the_characters_grid():
    # q^{1/9} refines the grid to 1/18: the character stops at q^{28/9}, off
    # the 1/6 grid the flow is built on
    ch = character(ModuleLabel(3, F(1, 3), 1, generic=True), F(3),
                   normalized=True)
    assert (ch.series.qden, ch.series.trunc) == (18, 56)
    with pytest.raises(ValueError, match="q_order not on the grid"):
        spectral_flow_transform(ch, 0)


# -- P from Kronecker's sum, which reads no factor table -----------------------

def _kronecker_sum(u: int, j: int, k: int, trunc: int) -> dict:
    """sum_{n in Z} q^{jn} y^{-n} / (1 - q^{un+k} y) through q^(trunc-1), as
    RowSeries terms {e: (row, pole)} on the grid 1.

    For n >= 0 the term expands in q^{un+k} y: q^{jn + r(un+k)} y^{r-n},
    r >= 0.  For n = -m < 0 the exponent un + k is negative, so it expands in
    the inverse, 1/(1 - w) = -w^{-1}/(1 - w^{-1}): -q^{r(um-k) - jm} y^{m-r},
    r >= 1.  For j = 0 the q^0 terms y^{-n}, n >= 0, sum to y/(y - 1).
    """
    rows: dict[int, dict[int, int]] = {}

    def add(e: int, yexp: int, c: int) -> None:
        row = rows.setdefault(e, {})
        row[yexp] = row.get(yexp, 0) + c

    for n in range(trunc):
        for r in range(0 if j else 1, trunc):
            if (e := j * n + r * (u * n + k)) >= trunc:
                break
            add(e, r - n, 1)
    for m in range(1, trunc):
        for r in range(1, trunc):
            if (e := r * (u * m - k) - j * m) >= trunc:
                break
            add(e, m - r, -1)
    terms = {e: ({y: c for y, c in row.items() if c}, 0)
             for e, row in rows.items() if any(row.values())}
    if j == 0:
        assert 0 not in terms
        terms[0] = ({1: 1}, 1)
    return terms


def _kronecker_mismatches(trunc: int = 24) -> list:
    """The labels at u = 2..8 whose p_product differs from Kronecker's sum."""
    return [lab for u in range(2, 9) for lab in spectrum(u)
            if p_product(lab, F(trunc), 1).terms
            != _kronecker_sum(u, int(lab.j), int(lab.k), trunc)]


def test_p_product_is_kroneckers_sum():
    # P^(u)_{j,k} = (Q;Q)^2 (AB;Q)(Q/AB;Q) / [(A;Q)(Q/A;Q)(B;Q)(Q/B;Q)] with
    # A = q^j/y, B = q^k y, Q = q^u is Ramanujan's 1psi1 sum
    assert sum(len(spectrum(u)) for u in range(2, 9)) == 84
    assert _kronecker_mismatches() == []


def test_kroneckers_sum_catches_a_dropped_p_factor(monkeypatch):
    # (Q;Q) in place of (Q;Q)^2: the flow y -> q^m y cannot see a y-free
    # factor, but Kronecker's sum does
    def one_fewer_q_power(u, j, k, qmax):
        seen = set()
        for a, yexp, side in _p_factors(u, j, k, qmax):
            if (yexp, side) == (0, 1) and a % u == 0 and a not in seen:
                seen.add(a)
                continue
            yield a, yexp, side

    monkeypatch.setattr(characters, "_p_factors", one_fewer_q_power)
    assert len(_kronecker_mismatches()) == 84


def test_character_leading_u3():
    ch = character(ModuleLabel(3, 1, 1), F(4))
    e0, c0 = ch.series.leading()
    assert e0 == F(1, 3)
    assert as_ratfunc(c0) == RatFunc.one()
    assert ch.series.ypref == F(1, 3)


def test_character_u2_q0_rational():
    ch = character(ModuleLabel(2, 0, 1), F(5))
    c0 = ch.series.coeff(0)
    assert as_ratfunc(c0) == RatFunc({0: F(1), -1: F(-1)}).inverse()


def test_normalized_prefactor():
    ch = character(ModuleLabel(3, 1, 1), F(3), normalized=True)
    assert ch.series.ypref == F(1, 3) + F(1, 6)


def test_leading_exponent_invariant():
    for u in range(2, 7):
        for lab in spectrum(u):
            ch = character(lab, F(3))
            e0, _ = ch.series.leading()
            assert e0 == F(lab.j * lab.k, 1) / u


def test_flow_m0_identity():
    ch = character(ModuleLabel(3, 1, 1), F(6), normalized=True)
    assert as_qyseries(spectral_flow_transform(ch, 0)).same_visible(
        as_qyseries(ch.series))


def test_flow_u2_no_prefactor():
    # c = 0: the transform carries no q^{cm^2/6} y^{cm/3} prefactor; the match
    # constant against the (single) spectrum character is the pure monomial
    # q^{m/2} forced by the factor flips.
    for m in (1, -1):
        (match,) = find_flow_matches(2, m, F(8))
        assert (int(match.target.j), int(match.target.k)) == (0, 1)
        assert match.q_shift == F(m, 2)
        assert match.y_shift == 0


def test_p_product_negative_exponent():
    from superjacobi.errors import NegativeExponent
    bad = ModuleLabel(3, F(-1), F(1), generic=True)
    with pytest.raises(NegativeExponent):
        p_product(bad, F(5))


@pytest.mark.parametrize("j, k", [(1, 2), (F(1, 2), F(5, 2))])
def test_vanishing_factor_rejected(j, k):
    # j + k = u makes the factor (1 - q^{u-j-k}) = (1 - q^0) = 0; the exact
    # path and the probe's float factors both refuse the label
    from superjacobi.errors import VanishingFactor
    from superjacobi.jacobi import _float_factors
    bad = ModuleLabel(3, F(j), F(k), generic=True)
    with pytest.raises(VanishingFactor, match=r"\(1 - q\^0\)"):
        character(bad, F(3))
    with pytest.raises(VanishingFactor):
        _float_factors(3, bad.j, bad.k, F(3))


@pytest.mark.parametrize("u", [3, 4, 5])
@pytest.mark.parametrize("m", [1, -1])
def test_flow_matches_exist(u, m):
    matches = find_flow_matches(u, m, F(8))
    assert len(matches) == len(spectrum(u))
    for mt in matches:
        assert mt.const.denominator == 1 and abs(mt.const) == 1
        assert mt.q_shift == F(m, 2)
    # the match map is a permutation of the spectrum
    targets = {(mt.target.j, mt.target.k) for mt in matches}
    assert len(targets) == len(matches)


def test_u2_character_theta_quotient_oracle():
    """Independent oracle: the u=2 character equals
    -i q^{1/8} y^{1/2} theta4(alpha|tau) / theta1(alpha|tau).

    This closed form is what makes the S/shear non-closure of the span a
    theorem (theta4 maps to theta2/theta3-type quotients with different zero
    divisors), so it is pinned here against mpmath's independent thetas.
    """
    mp = pytest.importorskip("mpmath")
    from superjacobi.jacobi import ModularPoint, eval_character_value
    lab = ModuleLabel(2, 0, 1)
    for tau, al in [(1j, 0.23 + 0.11j), (0.2 + 0.9j, 0.31 + 0.07j),
                    (-0.1 + 1.3j, 0.17 + 0.21j)]:
        v = eval_character_value(lab, ModularPoint(tau, al), F(30))
        nome = mp.e ** (1j * mp.pi * tau)
        th4 = mp.jtheta(4, mp.pi * al, nome)
        th1 = mp.jtheta(1, mp.pi * al, nome)
        w = -1j * mp.e ** (2j * mp.pi * tau / 8) * mp.e ** (1j * mp.pi * al) * th4 / th1
        assert abs(complex(w) - v) < 1e-13


def test_flow_inverse_composition():
    fw = {(m.source.j, m.source.k): m for m in find_flow_matches(3, 1, F(8))}
    bw = {(m.source.j, m.source.k): m for m in find_flow_matches(3, -1, F(8))}
    for src, m1 in fw.items():
        tgt = (m1.target.j, m1.target.k)
        m2 = bw[tgt]
        assert (m2.target.j, m2.target.k) == src
        assert m1.const * m2.const == 1
        assert m1.q_shift + m2.q_shift == 0


@pytest.mark.parametrize("u", range(2, 9))
def test_low_order_flow_is_unique_or_refused(u):
    # a short window can fit several targets; the call must then refuse
    # rather than keep the first.  The order-9 match is unique, and a match
    # on a longer window is also one on this window, so it is the match at
    # every higher order too.
    refused = 0
    for m in (1, -1, 2, -2, 3):
        want = [mt.to_dict() for mt in find_flow_matches(u, m, F(9))]
        for order in range(1, 5):
            try:
                got = find_flow_matches(u, m, F(order))
            except ValueError as exc:
                assert f"at u={u}, m={m} to q^{order}; " in str(exc)
                assert "a match must be unique" in str(exc)
                refused += 1
            else:
                assert [mt.to_dict() for mt in got] == want, (m, order)
    assert refused or u == 2
