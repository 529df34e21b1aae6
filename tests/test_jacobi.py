import cmath
import math
import random
from fractions import Fraction

import pytest

from superjacobi.characters import (ModuleLabel, _quotient_factors,
                                    central_charge, spectrum)
from superjacobi.errors import PoleProximity, TailBoundExceeded
from superjacobi.jacobi import (TAU_BOX, JacobiGroupElement, ModularPoint,
                                S_ELEMENT, T_SHEAR, act_on_point, compose,
                                coset_span_test, eval_character_value,
                                eval_normalized_character, inverse,
                                jacobi_normalized, multiplier,
                                multiplier_cocycle_defect, sample_points,
                                span_invariance_test)

F = Fraction


def rand_element(rng: random.Random) -> JacobiGroupElement:
    g = JacobiGroupElement.identity()
    for _ in range(rng.randint(1, 6)):
        step = rng.choice([S_ELEMENT, T_SHEAR,
                           JacobiGroupElement.modular(1, -1, 0, 1)])
        h = compose(g, step)
        if max(abs(v) for v in h.matrix) <= 5:
            g = h
    return JacobiGroupElement(*g.matrix, rng.randint(-5, 5), rng.randint(-5, 5))


def test_compose_example():
    g = compose(JacobiGroupElement.lattice(1, 0), S_ELEMENT)
    assert g.matrix == (0, -1, 1, 0)
    assert g.vector == (0, -1)


def test_identity_and_inverse():
    rng = random.Random(3)
    e = JacobiGroupElement.identity()
    for _ in range(50):
        g = rand_element(rng)
        assert compose(g, e) == g and compose(e, g) == g
        assert compose(g, inverse(g)) == e
        assert compose(inverse(g), g) == e


def test_associativity_sweep():
    rng = random.Random(5)
    for _ in range(100):
        g, h, k = (rand_element(rng) for _ in range(3))
        assert compose(compose(g, h), k) == compose(g, compose(h, k))


def test_act_on_point_examples():
    p = ModularPoint(1j, 0.3)
    q = act_on_point(S_ELEMENT, p)
    assert abs(q.tau - 1j) < 1e-15
    assert abs(q.alpha - (-0.3j)) < 1e-15
    r = act_on_point(JacobiGroupElement.lattice(1, 0), ModularPoint(0.2 + 1.1j, 0.4))
    assert abs(r.alpha - (0.4 + 0.2 + 1.1j)) < 1e-15


def test_action_axiom_sweep():
    rng = random.Random(9)
    for _ in range(100):
        g, h = rand_element(rng), rand_element(rng)
        p = ModularPoint(complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.4)),
                         complex(rng.uniform(0, 0.5), rng.uniform(0, 0.3)))
        a = act_on_point(compose(g, h), p)
        b = act_on_point(g, act_on_point(h, p))
        assert abs(a.tau - b.tau) < 1e-12
        assert abs(a.alpha - b.alpha) < 1e-12


def test_multiplier_examples():
    p = ModularPoint(1j, 0.23 + 0.08j)
    for g in (S_ELEMENT, T_SHEAR, JacobiGroupElement.lattice(2, -1)):
        assert abs(multiplier(g, p, F(0)) - 1) < 1e-15
    assert abs(multiplier(S_ELEMENT, ModularPoint(1j, 0.0), F(5, 2)) - 1) < 1e-15
    v = multiplier(JacobiGroupElement.lattice(1, 0), ModularPoint(1j, 0.0), F(1))
    assert abs(v - math.exp(-math.pi / 3)) < 1e-15


def test_multiplier_cocycle_projective():
    pts = sample_points(8, 13)
    pairs = [(S_ELEMENT, T_SHEAR),
             (JacobiGroupElement.lattice(1, 0), S_ELEMENT),
             (JacobiGroupElement.lattice(1, 2), JacobiGroupElement.lattice(-2, 1)),
             (compose(S_ELEMENT, T_SHEAR), JacobiGroupElement.lattice(0, 1))]
    for g, h in pairs:
        assert multiplier_cocycle_defect(g, h, pts, F(3, 2)) < 1e-8


def test_eval_character_pole_guard():
    lab = ModuleLabel(2, 0, 1)
    with pytest.raises(PoleProximity):
        eval_normalized_character(lab, ModularPoint(1j, 0.0), F(10))
    v, _ = eval_normalized_character(lab, ModularPoint(1j, 0.21), F(10))
    assert abs(v) > 0


def test_eval_truncation_stability():
    lab = ModuleLabel(3, 1, 1)
    p = ModularPoint(1j, 0.21 + 0.1j)
    v10, _ = eval_normalized_character(lab, p, F(10))
    v16, _ = eval_normalized_character(lab, p, F(16))
    assert abs(v10 - v16) < 1e-10


def test_eval_fractional_power_consistency():
    # q^{1/3} resolved via tau equals the principal cube root at tau = i
    from superjacobi.series import QYSeries
    from superjacobi.ratfunc import RatFunc
    s = QYSeries(3, F(0), {1: RatFunc.one()}, 9)
    q = cmath.exp(-2 * math.pi)
    via_tau = s.eval_numeric(q, 1.0, tau=1j)
    assert abs(via_tau - q ** (1 / 3)) < 1e-15


def test_series_and_product_evaluation_agree():
    for lab in (ModuleLabel(2, 0, 1), ModuleLabel(3, 0, 2), ModuleLabel(3, 1, 1)):
        for alpha in (0.21, 0.13 + 0.19j, 0.37 + 0.05j):
            p = ModularPoint(1j, alpha)
            a, _ = eval_normalized_character(lab, p, F(14))
            b = eval_character_value(lab, p, F(14))
            assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def _eval_character_value_per_call(label, p, q_order):
    """The product loop with the factor list rebuilt in Fractions on every
    call, as the probe ran before the float list was cached."""
    u, j, k = label.u, label.j, label.k

    def qp(x):
        return cmath.exp(2j * cmath.pi * p.tau * float(x))

    def yp(s):
        return cmath.exp(2j * cmath.pi * p.alpha * float(s))

    val = qp(F(j * k, 1) / u) * yp(F(j - k + 1, 1) / u + central_charge(u) / 6)
    factors, _, _, _ = _quotient_factors(u, j, k, 0, F(q_order))
    for a, yexp, side in factors:
        f = 1.0 - qp(a) * yp(yexp)
        if abs(f) < 1e-12:
            raise PoleProximity(f"factor (1 - q^{a} y^{yexp}) within pole guard")
        val = val * f if side > 0 else val / f
    return val


def _outcome(fn, *args):
    """The bits of a complex value, or the message of the pole guard."""
    try:
        v = fn(*args)
    except PoleProximity as exc:
        return str(exc)
    return v.real.hex(), v.imag.hex()


def test_eval_character_value_bit_identical_to_per_call_loop():
    pts = sample_points(4) + sample_points(4, tau_box=TAU_BOX)
    pts += [act_on_point(JacobiGroupElement.lattice(m, n), p)
            for m, n in ((1, 0), (-1, 1)) for p in pts[::2]]
    poles = [ModularPoint(1j, 0.0), ModularPoint(1j, 0.5j)]
    for u in range(2, 6):
        for lab in spectrum(u):
            for q_order in (F(8), F(14)):
                for p in pts + poles:
                    assert _outcome(eval_character_value, lab, p, q_order) == \
                        _outcome(_eval_character_value_per_call, lab, p,
                                 q_order)


def test_tail_bound_guard_fires_at_shifted_alpha():
    # series evaluation at alpha + tau sits outside the reliable regime and
    # the reported tail bound must say so
    lab = ModuleLabel(3, 1, 1)
    p = ModularPoint(1j, 0.2 + 1.0j)   # alpha with Im = Im tau
    with pytest.raises(TailBoundExceeded):
        eval_normalized_character(lab, p, F(10), tol=1e-6)


@pytest.mark.parametrize("u", [2, 3])
@pytest.mark.parametrize("gname,g", [("x10", JacobiGroupElement.lattice(1, 0)),
                                     ("x01", JacobiGroupElement.lattice(0, 1))])
def test_span_invariance_lattice(u, gname, g):
    rep = span_invariance_test(u, g, q_order=F(14))
    assert rep.residual < 1e-6
    assert rep.matrix_discrepancy < 1e-6
    assert rep.condition < 1e8


def test_span_report_shape():
    rep = span_invariance_test(2, JacobiGroupElement.lattice(1, 0))
    d = rep.to_dict()
    assert d["u"] == 2 and len(d["matrix"]) == 1
    # entries serialized as re/im pairs
    assert len(d["matrix"][0][0]) == 2


@pytest.mark.parametrize("q_order", [F(0), F(-1)])
def test_span_test_rejects_nonpositive_order(q_order):
    with pytest.raises(ValueError, match="q_order must be >= 1"):
        span_invariance_test(3, JacobiGroupElement.lattice(1, 0),
                             q_order=q_order)


def test_ill_conditioned_samples_rejected():
    from superjacobi.errors import IllConditioned
    p = ModularPoint(1j, 0.2 + 0.1j)
    dup = [p] * 18
    with pytest.raises(IllConditioned):
        span_invariance_test(3, S_ELEMENT, samples=dup, q_order=F(10))


def test_lattice_mixing_matches_formal_flow():
    """Cross-module consistency: the fitted mixing matrix for (1,0) at u=3 is,
    up to the entrywise factor q^{1/2}|_{tau=i} = e^{-pi}, the signed
    permutation found by the formal spectral-flow matcher."""
    from superjacobi.characters import find_flow_matches, spectrum
    u = 3
    labels = [(lab.j, lab.k) for lab in spectrum(u)]
    rep = span_invariance_test(u, JacobiGroupElement.lattice(1, 0),
                               q_order=F(14))
    M = rep.matrix
    expected = {}
    for mt in find_flow_matches(u, 1, F(9)):
        i = labels.index((mt.source.j, mt.source.k))
        j = labels.index((mt.target.j, mt.target.k))
        assert mt.q_shift == F(1, 2) and mt.y_shift == 0
        expected[(i, j)] = float(mt.const) * math.exp(-math.pi)
    for i in range(len(labels)):
        for j in range(len(labels)):
            want = expected.get((i, j), 0.0)
            assert abs(M[i][j] - want) < 1e-10


# -- Jacobi normalisation, tau sampling and the coset span --------------------

X10 = JacobiGroupElement.lattice(1, 0)
X01 = JacobiGroupElement.lattice(0, 1)
T2 = compose(T_SHEAR, T_SHEAR)
STS = compose(S_ELEMENT, compose(T_SHEAR, S_ELEMENT))


def test_sample_points_tau_box():
    assert all(p.tau == 1j for p in sample_points(12))
    (re_lo, re_hi), (im_lo, im_hi) = TAU_BOX
    pts = sample_points(40, 3, TAU_BOX)
    assert [p.alpha for p in pts] == [p.alpha for p in sample_points(40, 3)]
    assert all(re_lo <= p.tau.real <= re_hi and im_lo <= p.tau.imag <= im_hi
               for p in pts)
    assert len({p.tau for p in pts}) == 40


def test_report_records_sampled_tau():
    assert span_invariance_test(2, X10).samples["tau"] == [0.0, 1.0]
    rep = span_invariance_test(2, X10, tau_box=TAU_BOX)
    (re_lo, re_hi), (im_lo, im_hi) = rep.samples["tau"]
    assert TAU_BOX[0][0] <= re_lo < re_hi <= TAU_BOX[0][1]
    assert TAU_BOX[1][0] <= im_lo < im_hi <= TAU_BOX[1][1]


def test_u2_theta_closed_form():
    """chi(2, 0, 1) = -i q^{1/8} y^{1/2} theta4(pi alpha|tau)/theta1(pi alpha|tau)
    with theta nome e^{i pi tau}, and phi = -i theta4/theta1."""
    mpmath = pytest.importorskip("mpmath")
    lab = ModuleLabel(2, 0, 1)
    rng = random.Random(17)
    for _ in range(12):
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.3))
        alpha = complex(rng.uniform(0.1, 0.4), rng.uniform(0.0, 0.3))
        nome = mpmath.exp(1j * mpmath.pi * tau)
        z = mpmath.pi * alpha
        ratio = complex(-1j * mpmath.jtheta(4, z, nome)
                        / mpmath.jtheta(1, z, nome))
        chi = ratio * cmath.exp(2j * cmath.pi * (tau / 8 + alpha / 2))
        p = ModularPoint(tau, alpha)
        got = eval_character_value(lab, p)
        assert abs(got - chi) < 1e-12 * abs(chi)
        phi = jacobi_normalized(lab, p)
        assert abs(phi - ratio) < 1e-12 * abs(ratio)


@pytest.mark.parametrize("u", [2, 3])
def test_coset_span_shape(u):
    rep = coset_span_test(u, S_ELEMENT)
    assert len(rep.matrix) == 3 * u * (u - 1) // 2
    assert rep.condition < 1e8


@pytest.mark.parametrize("u", [2, 3])
def test_coset_span_of_chi_does_not_close(u):
    """Negative control: without the q^{-1/8} y^{-1/2} normalisation the
    three-sector span does not close once tau is sampled."""
    worst = max(coset_span_test(u, g, family=eval_character_value).residual
                for g in (X10, X01, S_ELEMENT, T_SHEAR))
    assert worst > 1e-2


@pytest.mark.parametrize("u", [2, 3])
def test_phi_alone_closes_under_gamma0_2_only(u):
    """Negative control: the single sector of phi is closed under
    Gamma^0(2) x| Z^2 (generated by x10, x01, T^2 and STS) but not under S
    or T, which move it to another coset."""
    for g in (X10, X01, T2, STS):
        rep = span_invariance_test(u, g, family=jacobi_normalized,
                                   tau_box=TAU_BOX)
        assert rep.residual < 1e-12
    for g in (S_ELEMENT, T_SHEAR):
        rep = span_invariance_test(u, g, family=jacobi_normalized,
                                   tau_box=TAU_BOX)
        assert rep.residual > 1e-2
