import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from superjacobi import jacobi
from superjacobi.characters import (ModuleLabel, _quotient_factors,
                                    central_charge, character, spectrum)
from superjacobi.errors import (IllConditioned, PoleProximity,
                               TailBoundExceeded)
from superjacobi.jacobi import (GAMMA0_2_COSETS, IDENTITY, TAU_BOX,
                                JacobiGroupElement, ModularPoint, S_ELEMENT,
                                T_SHEAR, _fit, _sample_matrices,
                                act_on_point, compose,
                                coset_span_test, eval_character_value,
                                eval_normalized_character, inverse,
                                jacobi_normalized, multiplier,
                                multiplier_cocycle_defect, sample_points,
                                span_invariance_test)

from conftest import eval_series

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


def test_series_and_product_evaluation_agree():
    for lab in (ModuleLabel(2, 0, 1), ModuleLabel(3, 0, 2), ModuleLabel(3, 1, 1)):
        s = character(lab, 14, normalized=True).series
        for alpha in (0.21, 0.13 + 0.19j, 0.37 + 0.05j):
            p = ModularPoint(1j, alpha)
            q = cmath.exp(2j * cmath.pi * p.tau)
            y = cmath.exp(2j * cmath.pi * p.alpha)
            a = eval_series(s, q, y, tau=p.tau)
            b = eval_character_value(lab, p, F(14))
            assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_eval_below_first_order_raises():
    lab = ModuleLabel(3, 1, 1)
    p = ModularPoint(1j, 0.2)
    for q_order in (F(0), F(-3), F(1, 2)):
        with pytest.raises(ValueError, match="q_order must be >= 1"):
            eval_character_value(lab, p, q_order)
        with pytest.raises(ValueError, match="q_order must be >= 1"):
            jacobi_normalized(lab, p, q_order)
        with pytest.raises(ValueError, match="q_order must be >= 1"):
            eval_normalized_character(lab, p, q_order)


def _eval_character_value_per_call(label, p, q_order):
    """The product loop with the factor list rebuilt in Fractions on every
    call, as the probe ran before the float list was cached."""
    u, j, k = label.u, label.j, label.k

    def qp(x):
        return cmath.exp(2j * cmath.pi * p.tau * float(x))

    def yp(s):
        return cmath.exp(2j * cmath.pi * p.alpha * float(s))

    val = qp(F(j * k, 1) / u) * yp(F(j - k + 1, 1) / u + central_charge(u) / 6)
    factors, _, _, _ = _quotient_factors(u, j, k, 0, F(q_order), True)
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


# relative rounding of the float products: |v(T) - v(2T)| reaches 5.7e-16
# |v| at points where the tail bound is 1e-18 to 5e-16
ROUNDING = 1e-15


def test_tail_bound_is_sound():
    base = sample_points(20) + sample_points(20, tau_box=TAU_BOX)
    moves = (IDENTITY, S_ELEMENT, T_SHEAR, JacobiGroupElement.lattice(1, 0),
             compose(S_ELEMENT, T_SHEAR))
    pts = [act_on_point(g, p) for g in moves for p in base]
    checked = 0
    for u in range(2, 6):
        for lab in spectrum(u):
            for q_order in (F(8), F(14)):
                for p in pts:
                    v, tail = eval_normalized_character(lab, p, q_order)
                    v2 = eval_character_value(lab, p, 2 * q_order)
                    err = abs(v - v2)
                    assert err <= (tail + ROUNDING) * min(abs(v), abs(v2)), \
                        (lab, q_order, p, err, tail)
                    checked += 1
    assert checked == 8000


def test_tail_bound_guard_fires():
    lab = ModuleLabel(3, 0, 1)
    p = ModularPoint(0.3j, 0.2)
    v, tail = eval_normalized_character(lab, p, F(4))
    assert v == eval_character_value(lab, p, F(4))
    assert 3e-3 < tail < 3.2e-3
    with pytest.raises(TailBoundExceeded, match="tail bound 3.086e-03 exceeds"):
        eval_normalized_character(lab, p, F(4), tol=1e-6)
    # the product converges at lattice-shifted alpha
    _, tail = eval_normalized_character(ModuleLabel(3, 1, 1),
                                        ModularPoint(1j, 0.2 + 1.0j), F(10))
    assert tail < 1e-24


def test_tail_bound_infinite_where_an_omitted_factor_is_not_small():
    # at tau = i, alpha = 0.2 + 1.5i the first omitted factor (1 - q y^{-1})
    # of (2, 0, 1) at order 1 has |q y^{-1}| = e^{pi} > 1
    lab = ModuleLabel(2, 0, 1)
    _, tail = eval_normalized_character(lab, ModularPoint(1j, 0.2 + 1.5j), F(1))
    assert tail == math.inf


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
    # at u = 5 the ten characters are nearly dependent on the default samples
    # at tau = i (condition 5.9e10)
    with pytest.raises(IllConditioned, match=r"condition .* > 1e8"):
        span_invariance_test(5, S_ELEMENT)


_FOUR_GENS = pytest.mark.parametrize(
    "g", [S_ELEMENT, T_SHEAR, JacobiGroupElement.lattice(1, 0),
          JacobiGroupElement.lattice(0, 1)], ids=["S", "T", "x10", "x01"])
# (family, cosets, tau_box): chi at tau = i, and the three-sector phi span
_SPANS = pytest.mark.parametrize(
    "span", [(eval_character_value, (IDENTITY,), None),
             (jacobi_normalized, GAMMA0_2_COSETS, TAU_BOX)],
    ids=["chi", "phi-cosets"])


def probe_matrices(u, g, family=eval_character_value, cosets=(IDENTITY,),
                   tau_box=None):
    """The (V, W) of the probe's first sample set."""
    count = max(3 * len(spectrum(u)) * len(cosets), 9)
    return _sample_matrices(u, g, sample_points(2 * count, 7, tau_box)[:count],
                            F(14), central_charge(u), family, cosets)


@pytest.mark.parametrize("u", [2, 3, 4])
@_FOUR_GENS
def test_back_substitution_matches_general_solve(u, g):
    # the fit solves R X = Q^H W by back substitution; on numpy's own Q and R
    # a general LU solve gives the same X to rounding, also at u = 4 S, whose
    # samples have condition 3.8e5
    V, W = probe_matrices(u, g)
    Q, R = np.linalg.qr(np.array(V))
    B = Q.conj().T @ np.array(W)
    X = np.array(jacobi._back_substitute(R.tolist(), B.tolist()))
    ref = np.linalg.solve(R, B)
    assert np.max(np.abs(X - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("u", [2, 3, 4])
@_FOUR_GENS
@_SPANS
def test_fit_matches_lstsq(u, g, span):
    # Householder least squares is backward stable with perturbations of
    # order m n eps (Higham, Accuracy and Stability of Numerical Algorithms,
    # 2002, thm. 20.3), so to first order each column of M^T lies within
    # m n kappa eps of the exact solution, relative; two such solvers agree
    # to twice that, and so do their condition numbers
    family, cosets, tau_box = span
    V, W = probe_matrices(u, g, family, cosets, tau_box)
    M, _, cond = _fit(V, W)
    A, B = np.array(V), np.array(W)
    ref = np.linalg.lstsq(A, B, rcond=None)[0]
    kappa = np.linalg.cond(A)
    m, n = A.shape
    bound = 2 * m * n * kappa * np.finfo(float).eps
    err = np.linalg.norm(np.array(M).T - ref, axis=0)
    assert np.all(err <= bound * np.linalg.norm(ref, axis=0))
    assert abs(cond - kappa) <= bound * kappa


def _random_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def _sv_cases():
    rng = np.random.default_rng(20)
    deficient = _random_complex(rng, 12, 6)
    deficient[:, 5] = deficient[:, 0] - 2j * deficient[:, 3]
    # columns scaled from 1 to 1e-12: condition about 1e12
    graded = _random_complex(rng, 8, 8) * np.logspace(0, -12, 8)
    return {"square": _random_complex(rng, 8, 8),
            "tall": _random_complex(rng, 20, 7),
            "rank-deficient": deficient, "graded": graded}


_SV_CASES = _sv_cases()


@pytest.mark.parametrize("name", list(_SV_CASES))
def test_singular_values_match_svd(name):
    # both methods are backward stable, so by Weyl's inequality each singular
    # value moves by at most max(m, n) eps sigma_max to first order
    A = _SV_CASES[name]
    got = sorted(jacobi._singular_values(A.tolist()), reverse=True)
    ref = np.linalg.svd(A, compute_uv=False)
    bound = max(A.shape) * np.finfo(float).eps * ref[0]
    assert np.max(np.abs(np.array(got) - ref)) <= bound
    if name == "graded":
        assert 1e11 < got[0] / got[-1] < 1e13


def test_overflowing_samples_stop_at_the_sweep_cap(monkeypatch):
    # finite values near 1e200 overflow the Householder norms, so R holds
    # nan and no rotation ever settles: the sweep cap refuses the samples
    def no_solve(R, B):
        raise AssertionError("an overflowed factorization reached the solve")

    monkeypatch.setattr(jacobi, "_back_substitute", no_solve)

    def family(lab, p, q_order):
        return 1e200 * eval_character_value(lab, p, q_order)

    with pytest.raises(IllConditioned, match="did not converge in 60"):
        span_invariance_test(3, JacobiGroupElement.lattice(1, 0),
                             family=family)


@pytest.mark.parametrize("column", ["equal", "zero"])
def test_singular_samples_never_reach_the_solve(monkeypatch, column):
    # a family that gives two labels the same value, or one label the value
    # 0, makes the sample matrix singular: the condition guard refuses it
    def no_solve(R, B):
        raise AssertionError("a singular sample matrix reached the solve")

    monkeypatch.setattr(jacobi, "_back_substitute", no_solve)
    first, second, _ = spectrum(3)

    def family(lab, p, q_order):
        if lab == second:
            return (eval_character_value(first, p, q_order)
                    if column == "equal" else 0j)
        return eval_character_value(lab, p, q_order)

    with pytest.raises(IllConditioned, match=r"condition .* > 1e8"):
        span_invariance_test(3, JacobiGroupElement.lattice(1, 0),
                             family=family)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_samples_never_reach_the_factorization(monkeypatch, value):
    # a family value of nan or inf is refused before the QR factorization,
    # whose norms and condition number it would turn into nan
    def no_factorization(V, W):
        raise AssertionError("a non-finite sample reached the factorization")

    monkeypatch.setattr(jacobi, "_householder", no_factorization)
    first = spectrum(3)[0]

    def family(lab, p, q_order):
        if lab == first:
            return value
        return eval_character_value(lab, p, q_order)

    with pytest.raises(IllConditioned, match="not finite; the condition guard"):
        span_invariance_test(3, JacobiGroupElement.lattice(1, 0),
                             family=family)


def test_nan_condition_never_reaches_the_solve(monkeypatch):
    # cond > 1e8 is False for nan, so the guard is written as a refusal of
    # anything that is not <= 1e8
    def no_solve(R, B):
        raise AssertionError("a nan condition reached the solve")

    monkeypatch.setattr(jacobi, "_back_substitute", no_solve)
    monkeypatch.setattr(jacobi, "_singular_values",
                        lambda R: [math.nan] * len(R))
    with pytest.raises(IllConditioned, match="condition nan > 1e8"):
        span_invariance_test(3, JacobiGroupElement.lattice(1, 0))


@pytest.mark.parametrize("tau, alpha", [
    (complex(0, math.inf), 0.2), (complex(math.nan, 1), 0.2),
    (1j, complex(math.nan, 0)), (1j, complex(0, math.inf))],
    ids=["tau-inf", "tau-nan", "alpha-nan", "alpha-inf"])
def test_modular_point_rejects_non_finite(tau, alpha):
    with pytest.raises(ValueError, match="must be finite"):
        ModularPoint(tau, alpha)


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
    worst = max(span_invariance_test(u, g, family=eval_character_value,
                                     cosets=GAMMA0_2_COSETS,
                                     tau_box=TAU_BOX).residual
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
