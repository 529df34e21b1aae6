from fractions import Fraction

import pytest

from superjacobi.elliptic import wp_pde_sides, wp_series, zetabar_series
from superjacobi.errors import OutOfRange
from superjacobi.numtheory import eisenstein_e
from superjacobi.qseries import QSeries
from superjacobi.ramanujan import (OdeIdentity, e_variable_form,
                                   extract_ode_families, extract_ode_family,
                                   ramanujan_triple)

F = Fraction


def test_triple_exact():
    for idt in ramanujan_triple(60):
        assert idt.holds()
        assert idt.first_failure_order() is None


def test_e2_order_q_coefficient():
    idt = ramanujan_triple(5)[0]
    assert idt.lhs.coeff(1) == -24
    # RHS at q^1: (2*(-24) - 240)/12 = -24
    assert idt.rhs.coeff(1) == F(-48 - 240, 12)


def test_negative_control_wrong_constant():
    T = 10
    e2 = eisenstein_e(1, T)
    e4 = eisenstein_e(2, T)
    wrong = (e2 * e2 - e4).scale(F(1, 6))
    resid = e2.q_log_deriv() - wrong
    assert not resid.is_zero()
    assert resid.valuation() == 1


def test_extract_family_exact():
    for k in (1, 2, 3, 4):
        idt = extract_ode_family(k, 7, 60)
        assert idt.holds(), f"k={k}"
        assert idt.source_z_exponent == 2 * k - 2


def test_extract_family_deeper():
    for k in (5, 6):
        assert extract_ode_family(k, 8, 40).holds()


@pytest.mark.parametrize("z_order, q_order", [(6, 40), (7, 60), (8, 40), (5, 13)])
def test_extract_matches_direct_transport_product(z_order, q_order):
    # reference: the transport term as the product zeta-bar * d_z wp itself
    lhs_full, rhs_full = wp_pde_sides(z_order, q_order)
    wp = wp_series(z_order, q_order)
    transport = zetabar_series(z_order, q_order) * wp.z_deriv()
    tau_part = wp.q_log_deriv().pi_shift(1)
    ks = list(range(1, z_order))
    assert 2 * ks[-1] - 2 < min(lhs_full.ztrunc, rhs_full.ztrunc)
    for k, batch in zip(ks, extract_ode_families(ks, z_order, q_order)):
        idt = extract_ode_family(k, z_order, q_order)
        zexp, pexp = 2 * k - 2, 2 * k + 1
        lhs = tau_part.coeff(zexp, pexp)
        rhs = rhs_full.coeff(zexp, pexp) - transport.coeff(zexp, pexp)
        for got in (idt, batch):
            assert got.lhs == lhs and got.rhs == rhs
            assert got.holds(), f"k={k}"


def test_truncation_prefix_property():
    # a result at order T is a prefix of the same result at 2T
    T = 20
    for lo, hi in zip(wp_pde_sides(6, T), wp_pde_sides(6, 2 * T)):
        assert lo.ztrunc == hi.ztrunc
        for key in set(lo.terms) | set(hi.terms):
            assert lo.coeff(*key).trunc == T
            assert lo.coeff(*key).same_visible(hi.coeff(*key)), key
    prod = eisenstein_e(1, T) * eisenstein_e(2, T)
    assert prod.trunc == T
    assert prod.same_visible(eisenstein_e(1, 2 * T) * eisenstein_e(2, 2 * T))
    for lo, hi in zip(ramanujan_triple(T), ramanujan_triple(2 * T)):
        for a, b in ((lo.lhs, hi.lhs), (lo.rhs, hi.rhs)):
            assert a.trunc == T + 1
            assert a.same_visible(b)


def test_extract_out_of_range():
    with pytest.raises(OutOfRange, match=r"window \[0, 10\) at z_order=6"):
        extract_ode_family(6, 6, 10)
    with pytest.raises(OutOfRange, match="k=0"):
        extract_ode_family(0, 6, 10)


@pytest.mark.parametrize("z_order", range(2, 9))
def test_extract_window_is_the_propagated_truncation(z_order):
    # k = z_order - 1 is the last member the PDE at z_order proves: it is the
    # identity read at z_order + 1, and k = z_order lies outside the window
    top = extract_ode_family(z_order - 1, z_order, 12)
    ref = extract_ode_family(z_order - 1, z_order + 1, 12)
    for got, want in ((top.lhs, ref.lhs), (top.rhs, ref.rhs)):
        assert got == want
    assert top.holds()
    with pytest.raises(OutOfRange, match=f"window \\[0, {2 * z_order - 2}\\)"):
        extract_ode_family(z_order, z_order, 12)


def test_normalization_consistency():
    # rewriting k=1..3 in E-variables reproduces the classical displays
    T = 40
    e = {k: eisenstein_e(k, T) for k in (1, 2, 3)}
    displays = {
        1: (e[1] * e[1] - e[2]).scale(F(1, 12)),
        2: (e[1] * e[2] - e[3]).scale(F(1, 3)),
        3: (e[1] * e[3] - e[2] * e[2]).scale(F(1, 2)),
    }
    for k in (1, 2, 3):
        idt = extract_ode_family(k, 6, T)
        lhs_e, rhs_e = e_variable_form(idt)
        assert lhs_e.same_visible(e[k].q_log_deriv())
        assert rhs_e.same_visible(displays[k])


def test_failed_identity_reports_its_first_failure_order():
    lhs = QSeries.from_fractions({0: F(1), 3: F(2)}, 6)
    idt = OdeIdentity(1, lhs, QSeries.one(6), 0)
    assert idt.to_dict() == {"k": 1, "holds": False, "firstFailureOrder": 3}
