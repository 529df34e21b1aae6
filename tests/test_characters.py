import random
from collections import Counter
from fractions import Fraction

import pytest

from superjacobi.characters import (_GENERIC_DENOM, ModuleLabel,
                                    _apply_factors, _flowed_factors,
                                    _p_factors, central_charge, character,
                                    find_flow_matches, p_product,
                                    spectral_flow_transform, spectrum)
from superjacobi.errors import BadLevel
from superjacobi.ratfunc import RatFunc
from superjacobi.series import QYSeries, div_binomial, mul_binomial

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

def _apply_factors_reference(series: QYSeries, factors, qden: int) -> QYSeries:
    """One mul_binomial/div_binomial per factor on RatFunc coefficients; q^0
    factors fold into one exact constant applied at the end."""
    const = RatFunc.one()
    out = series
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
    """An integer Laurent series with negative valuation and a nonzero
    y-prefactor, and factors with yexp in {-1, 0, 1} that include q^0 factors
    on both sides and exponents at trunc - 1 and at or past trunc."""
    qden = rng.choice([1, 2, 6])
    trunc = rng.randint(6, 24)
    val = -rng.randint(1, 3)
    terms = {val: RatFunc({rng.randint(-2, 2): F(rng.choice([-2, -1, 1, 3]))})}
    for e in range(val + 1, trunc):
        if rng.random() < 0.4:
            ys = rng.sample(range(-2, 3), rng.randint(1, 3))
            terms[e] = RatFunc({y: F(rng.randint(-3, 3)) for y in ys})
    series = QYSeries(qden, F(rng.choice([-5, -1, 1, 2]), 3), terms, trunc)
    scaled = [(0, rng.choice([-1, 1]), +1), (0, rng.choice([-1, 1]), -1),
              (trunc - 1, rng.choice([-1, 0, 1]), rng.choice([-1, 1])),
              (trunc + rng.randint(0, 2), rng.choice([-1, 0, 1]),
               rng.choice([-1, 1]))]
    for _ in range(rng.randint(4, 10)):
        scaled.append((rng.randint(1, trunc - 1), rng.choice([-1, 0, 1]),
                       rng.choice([-1, 1])))
    rng.shuffle(scaled)
    return series, [(F(a, qden), yexp, side) for a, yexp, side in scaled], qden


@pytest.mark.parametrize("seed", range(12))
def test_apply_factors_matches_binomial_fold(seed):
    series, factors, qden = _random_kernel_case(random.Random(seed))
    got = _apply_factors(series, factors, qden)
    ref = _apply_factors_reference(series, factors, qden)
    assert got.terms == ref.terms
    assert (got.trunc, got.qden, got.ypref) == (ref.trunc, ref.qden, ref.ypref)


@pytest.mark.parametrize("coeff", [RatFunc.const(F(1, 2)),
                                   RatFunc({0: F(1)}, {0: F(1), 1: F(-1)})])
def test_apply_factors_rejects_non_integer_coefficients(coeff):
    series = QYSeries(2, F(0), {0: RatFunc.one(), 1: coeff}, 6)
    with pytest.raises(ValueError):
        _apply_factors(series, [(F(1, 2), 1, -1)], 2)


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
    assert p_product(lab, F(10)).same_visible(log_exp_oracle(lab, F(10)))


@pytest.mark.parametrize("u", [2, 3, 4])
def test_product_matches_log_exp_oracle_all(u):
    for lab in spectrum(u):
        assert p_product(lab, F(8)).same_visible(log_exp_oracle(lab, F(8)))


# -- reference routes: numerator times the inverted denominator series ---------

@pytest.mark.parametrize("q_order", [F(8), F(20)])
def test_character_matches_inversion_route(q_order):
    generic = ModuleLabel(*_GENERIC_DENOM, generic=True)
    for u in range(2, 7):
        den_inv = p_product(generic, q_order, 2 * u).invert()
        for lab in spectrum(u):
            quotient = p_product(lab, q_order) * den_inv
            for normalized in (False, True):
                got = character(lab, q_order, normalized).series
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
    one = QYSeries.one(int(q_order * qden), qden)
    fac_n, sg_n, qs_n, ys_n = _flowed_factors_reference(u, j, k, m, q_order)
    fac_d, sg_d, qs_d, ys_d = _flowed_factors_reference(*_GENERIC_DENOM, m,
                                                        q_order)
    ser = (_apply_factors(one, fac_n, qden)
           * _apply_factors(one, fac_d, qden).invert())
    ypref = F(j - k + 1) / u + cc / 6
    qpref = F(j * k) / u + m * ypref + cc * m * m / 6 + qs_n - qs_d
    ser = ser.shift(qpref, ypref + F(cc * m, 3) + ys_n - ys_d)
    return ser.scale(sg_n * sg_d)


@pytest.mark.parametrize("m", [1, -1, 2, -2, 3])
def test_flow_matches_inversion_route(m):
    for u in range(2, 6):
        for lab in spectrum(u):
            ch = character(lab, F(8), normalized=True)
            got = spectral_flow_transform(ch, m)
            # the flow keeps the character's order, its prefactor included
            ref = _flow_by_inversion(lab, m, F(ch.series.trunc, 2 * u))
            assert got.terms == ref.terms
            assert (got.trunc, got.qden, got.ypref) == \
                (ref.trunc, ref.qden, ref.ypref)


def test_flowed_factors_without_flow_are_the_product_factors():
    labels = [(lab.u, lab.j, lab.k) for u in range(2, 7) for lab in spectrum(u)]
    for u, j, k in labels + [_GENERIC_DENOM]:
        for qmax in (F(1, 2), F(3), F(17, 2)):
            factors, sign, q_shift, y_shift = _flowed_factors(u, j, k, 0, qmax)
            assert Counter(factors) == Counter(_p_factors(u, j, k, qmax))
            assert (sign, q_shift, y_shift) == (1, 0, 0)


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


def test_character_leading_u3():
    ch = character(ModuleLabel(3, 1, 1), F(4))
    e0, c0 = ch.series.leading()
    assert e0 == F(1, 3)
    assert c0 == RatFunc.one()
    assert ch.series.ypref == F(1, 3)


def test_character_u2_q0_rational():
    ch = character(ModuleLabel(2, 0, 1), F(5))
    c0 = ch.series.coeff(0)
    assert c0 == RatFunc({0: F(1), -1: F(-1)}).inverse()


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
    assert spectral_flow_transform(ch, 0).same_visible(ch.series)


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
