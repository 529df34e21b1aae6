"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 9 checks the Jacobi-form claim: weight 0, index c/6, for
SL2(Z) x| Z^2.  It is stated on phi = q^{-1/8} y^{-1/2} chi, where chi is the
normalized character and q^{1/8} y^{1/2} the prefactor of the generic
denominator that character() drops, and on the three-sector span
{phi, phi|T, phi|S}, one sector per coset of Gamma^0(2) in SL2(Z).  Tau is
sampled, so a factor that depends on tau cannot pass as a constant.
test_criterion_9_lattice_and_cocycle asserts the lattice generators on chi at
tau = i and on phi with tau sampled, the disjoint-sample agreement and the
projective-cocycle consistency.  test_criterion_9_full asserts all four
generators on the coset span, and keeps as an asserted fact that the span of
chi alone does not close under S and T (its residual table is printed).
"""

import cmath
import random
import time
from fractions import Fraction

import pytest

from superjacobi import characters, elliptic, jacobi, ramanujan, superalgebra
from superjacobi.numtheory import eisenstein_e, eisenstein_ghat
from superjacobi.ratfunc import RatFunc
from superjacobi.series import QYSeries

from conftest import eval_series, rand_series, rand_unit
from test_characters import log_exp_oracle

F = Fraction


def report(num: int, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num}: {tag} {detail}")


def below(x: float, spec: str = ".1e", bound: float = 1e-12) -> str:
    """x as '< bound' when it is, else x in the format spec: a value at
    rounding level prints the same whatever order the arithmetic ran in."""
    return f"< {bound:.0e}" if x < bound else format(x, spec)


def test_criterion_1_ramanujan_odes():
    t0 = time.time()
    idts = ramanujan.ramanujan_triple(100)
    elapsed = time.time() - t0
    zero = all(i.residual().is_zero() for i in idts)
    ok = zero and elapsed < 10.0
    report(1, ok, f"(three identities through q^100, exact residual 0, "
                  f"{elapsed:.2f}s)")
    assert zero
    assert elapsed < 10.0


def test_criterion_2_wp_pde():
    rep = elliptic.wp_pde_check(6, 40)
    covers_z8 = rep.orders["zWindow"] > 8
    idt = ramanujan.extract_ode_family(1, 6, 40)
    lhs_e, rhs_e = ramanujan.e_variable_form(idt)
    e2 = eisenstein_e(1, 40)
    e4 = eisenstein_e(2, 40)
    verbatim = (lhs_e.same_visible(e2.q_log_deriv())
                and rhs_e.same_visible((e2 * e2 - e4).scale(F(1, 12))))
    ok = rep.passed and covers_z8 and verbatim
    report(2, ok, f"(exact through z window {rep.orders['zWindow']}, q^40; "
                  f"z^0 component is the E2 identity verbatim)")
    assert rep.passed and covers_z8 and verbatim


def test_criterion_3_xi_shift():
    rep = elliptic.xi_shift_check(81)
    deep_enough = rep.orders["comparedThrough"] >= 40
    ok = rep.passed and deep_enough
    report(3, ok, f"(xi(qx) = xi(x) + 1 exact through q^"
                  f"{rep.orders['comparedThrough']})")
    assert ok


def test_criterion_4_xi_zetabar():
    rep = elliptic.xi_zetabar_check(8, 30)
    texp = elliptic.xi_t_expansion(8, 30)
    rederived = all(
        texp.coeff(2 * k - 1, 2 * k - 1).same_visible(eisenstein_ghat(k, 30))
        for k in range(1, 5))
    ok = rep.passed and rederived
    report(4, ok, "(t-order 8, q-order 30; E_2k q-expansions re-derived for k <= 4)")
    assert ok


def test_criterion_5_numeric_quasi_periodicity():
    rng = random.Random(2024)
    worst_z, worst_w = 0.0, 0.0
    for _ in range(20):
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.5))
        t = complex(rng.uniform(0.05, 0.55), rng.uniform(0.02, 0.45))
        p = elliptic.LatticePoint(t, tau)
        z0 = elliptic.eval_zetabar(p)
        worst_z = max(worst_z,
                      abs(elliptic.eval_zetabar(elliptic.LatticePoint(t + tau, tau)) - z0 - 1),
                      abs(elliptic.eval_zetabar(elliptic.LatticePoint(t + 1, tau)) - z0))
        w0 = elliptic.eval_wp(p)
        worst_w = max(worst_w,
                      abs(elliptic.eval_wp(elliptic.LatticePoint(t + tau, tau)) - w0),
                      abs(elliptic.eval_wp(elliptic.LatticePoint(t + 1, tau)) - w0))
    ok = worst_z < 1e-9 and worst_w < 1e-8
    report(5, ok, f"(20 samples; zeta-bar defect {worst_z:.2e} < 1e-9, "
                  f"wp defect {worst_w:.2e} < 1e-8)")
    assert ok


def test_criterion_6_superalgebra():
    sweep = superalgebra.super_jacobi_check(6)
    vir_ok = superalgebra.virasoro_map_check(6, naive=False).passed
    naive = superalgebra.virasoro_map_check(6, naive=True)
    failing = dict(naive.violations)
    naive_ok = (not naive.passed and (2, -2) in failing and
                failing[(2, -2)] == superalgebra.SuperLinComb.of(
                    (F(-1, 2), superalgebra.C)))
    real = superalgebra.realization_bracket_check(5)
    cocycle = {(pair, m): c for pair, m, n, c in real.central_kernel}
    cocycle_ok = all(
        cocycle.get(("LJ", m), F(0)) == F(m * m + m, 6)
        and cocycle.get(("JJ", m), F(0)) == F(m, 3)
        and cocycle.get(("HQ", m), F(0)) == F(m * m - m, 6)
        for m in range(-5, 6) if m != 0)
    ok = sweep.passed and vir_ok and naive_ok and real.passed and cocycle_ok
    report(6, ok, f"(jacobi sweep {sweep.checked} triples clean; virasoro "
                  f"corrected passes, naive off by C/2 at (2,-2); realization "
                  f"matches with cocycle values (m^2+m)/6, m/3, (m^2-m)/6)")
    assert ok


def test_criterion_7_characters():
    counts = all(len(characters.spectrum(u)) == u * (u - 1) // 2
                 for u in range(2, 13))
    leading = True
    for u in range(2, 7):
        for lab in characters.spectrum(u):
            e0, _ = characters.character(lab, F(3)).series.leading()
            if e0 != F(lab.j * lab.k, 1) / u:
                leading = False
    oracle = True
    for u in range(2, 5):
        for lab in characters.spectrum(u):
            if not characters.p_product(lab, F(8)).same_visible(
                    log_exp_oracle(lab, F(8))):
                oracle = False
    ok = counts and leading and oracle
    report(7, ok, "(spectrum counts u<=12; leading exponents jk/u u<=6; "
                  "log-exp oracle u<=4 through q^8)")
    assert ok


def test_criterion_8_spectral_flow():
    lines = []
    ok = True
    for u in (3, 4):
        for m in (1, -1):
            matches = characters.find_flow_matches(u, m, F(8))
            if len(matches) != len(characters.spectrum(u)):
                ok = False
            for mt in matches:
                lines.append(f"    u={u} m={m}: ({mt.source.j},{mt.source.k})"
                             f" -> ({mt.target.j},{mt.target.k})"
                             f"  constant {mt.const} * q^{mt.q_shift}")
    report(8, ok, "(every m = +-1 flow matches a normalized character up to a "
                  "single monomial constant; permutations recorded below)")
    for ln in lines:
        print(ln)
    assert ok


_GENS = [("x10", jacobi.JacobiGroupElement.lattice(1, 0)),
         ("x01", jacobi.JacobiGroupElement.lattice(0, 1)),
         ("S", jacobi.S_ELEMENT),
         ("T", jacobi.T_SHEAR)]


def test_criterion_9_lattice_and_cocycle():
    t0 = time.time()
    ok = True
    details = []
    # chi at tau = i, then phi with tau sampled: at tau = i a tau-dependent
    # factor of chi would be absorbed into the mixing matrix
    for tag, opts in (("", {}),
                      (" phi, tau sampled", {"family": jacobi.jacobi_normalized,
                                             "tau_box": jacobi.TAU_BOX})):
        for u in (2, 3):
            for name, g in _GENS[:2]:
                rep = jacobi.span_invariance_test(u, g, q_order=F(14),
                                                  tol=1e-6, **opts)
                good = rep.residual < 1e-6 and rep.matrix_discrepancy < 1e-6
                ok = ok and good
                details.append(f"u={u} {name}{tag}: res {below(rep.residual)}")
    pts = jacobi.sample_points(8, 5)
    for g, h in [(jacobi.S_ELEMENT, jacobi.T_SHEAR),
                 (jacobi.JacobiGroupElement.lattice(1, 0), jacobi.S_ELEMENT),
                 (jacobi.T_SHEAR, jacobi.JacobiGroupElement.lattice(2, -1))]:
        d = jacobi.multiplier_cocycle_defect(g, h, pts, F(1))
        ok = ok and d < 1e-8
    elapsed = time.time() - t0
    report(9, ok, f"(lattice part: {'; '.join(details)}; disjoint sample sets "
                  f"agree; projective cocycle consistent to 1e-8; {elapsed:.1f}s)")
    assert ok


def test_criterion_9_full():
    """All four generators at tolerance 1e-6, on the Jacobi-normalised
    three-sector span, with tau sampled.

    The span of the normalized characters chi alone is not closed under S
    and T: for the one-dimensional u=2 family,
    chi = -i q^{1/8} y^{1/2} theta4(pi alpha|tau)/theta1(pi alpha|tau), whose
    S-image is a theta2/theta1 quotient and whose T-image is a theta3/theta1
    quotient, and no mixing matrix relates those to chi.  That finding stays
    an asserted fact: the single-sector probe at tau = i prints its rows and
    must measure a residual >= 1e-2 for S and T at u = 2 and 3.

    The criterion holds on phi = q^{-1/8} y^{-1/2} chi, the weight-0
    index-c/6 normalisation, and on the span {phi, phi|T, phi|S} of
    dimension 3 u(u-1)/2: S and T permute the three cosets of Gamma^0(2) in
    SL2(Z) (for u=2, the theta4, theta3 and theta2 sectors).  With tau
    sampled in [-0.3, 0.3] + i[0.9, 1.3], both the residual and the
    discrepancy of the matrices fitted on disjoint sample sets must be below
    1e-6 for x10, x01, S and T at u = 2 and 3, within 60 s in total.
    """
    t0 = time.time()
    single_rows, coset_rows = [], []
    single, coset = {}, {}
    for u in (2, 3):
        for name, g in _GENS:
            rep = jacobi.span_invariance_test(u, g, q_order=F(14), tol=1e-6)
            single_rows.append(
                f"    u={u} gen={name}: residual {below(rep.residual, '.3e')}, "
                f"matrix discrepancy {below(rep.matrix_discrepancy, '.3e')}")
            single[(u, name)] = rep.residual
    for u in (2, 3):
        for name, g in _GENS:
            rep = jacobi.coset_span_test(u, g, q_order=F(14), tol=1e-6)
            coset_rows.append(
                f"    u={u} gen={name}: residual {below(rep.residual, '.3e')}, "
                f"matrix discrepancy {below(rep.matrix_discrepancy, '.3e')}, "
                f"condition {rep.condition:.1e}")
            coset[(u, name)] = rep
    elapsed = time.time() - t0
    bad = {k: (r.residual, r.matrix_discrepancy) for k, r in coset.items()
           if not (r.residual < 1e-6 and r.matrix_discrepancy < 1e-6)}
    closed_single = {k: v for k, v in single.items()
                     if k[1] in ("S", "T") and v < 1e-2}
    ok = not bad and not closed_single and elapsed < 60.0
    report(9, ok, f"(full generator set at tolerance 1e-6 on the span of "
                  f"phi, phi|T, phi|S with tau sampled, {elapsed:.1f}s; "
                  f"per-generator results below)")
    print("  span of chi alone, tau = i (S and T must stay open):")
    for row in single_rows:
        print(row)
    print("  span of phi, phi|T, phi|S, tau sampled:")
    for row in coset_rows:
        print(row)
    assert elapsed < 60.0
    assert not closed_single, (
        "the single-sector span of chi closes under S or T, against the "
        "theta4/theta1 closed form: "
        + ", ".join(f"u={u} {name}: {v:.3e}"
                    for (u, name), v in closed_single.items()))
    assert not bad, (
        "coset-span residual or matrix discrepancy exceeds 1e-6: "
        + ", ".join(f"u={u} {name}: residual {r:.3e}, discrepancy {d:.3e}"
                    for (u, name), (r, d) in bad.items()))


def test_criterion_10_series_property_suites():
    rng = random.Random(424242)
    cases = 0
    for _ in range(100):
        a = rand_series(rng, trunc=9, nterms=5)
        b = rand_series(rng, trunc=9, nterms=5)
        c = rand_series(rng, trunc=9, nterms=5)
        assert ((a + b) + c).same_visible(a + (b + c))
        assert (a * b).same_visible(b * a)
        assert ((a * b) * c).same_visible(a * (b * c))
        assert (a * (b + c)).same_visible(a * b + a * c)
        cases += 1
    for _ in range(100):
        u = rand_unit(rng, trunc=9)
        assert (u * u.invert()).terms == {0: RatFunc.one()}
        cases += 1
    for _ in range(100):
        f = rand_series(rng, trunc=9, nterms=5)
        g = rand_series(rng, trunc=9, nterms=5)
        assert (f * g).q_log_deriv().same_visible(
            f.q_log_deriv() * g + f * g.q_log_deriv())
        cases += 1
    q, y = 0.09 + 0.05j, cmath.exp(0.3j) * 1.1
    for _ in range(100):
        f = QYSeries(1, F(0), rand_series(rng, trunc=4, nterms=4).terms, 18)
        g = QYSeries(1, F(0), rand_series(rng, trunc=4, nterms=4).terms, 18)
        lhs = eval_series(f * g, q, y)
        rhs = eval_series(f, q, y) * eval_series(g, q, y)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        cases += 1
    for _ in range(100):
        f = rand_series(rng, trunc=9, nterms=5)
        g = rand_series(rng, trunc=9, nterms=5)
        assert (f - g).is_zero() == (f.terms == g.terms)
        cases += 1
    report(10, True, f"({cases} randomized cases, seed 424242, zero failures)")
    assert cases == 500
