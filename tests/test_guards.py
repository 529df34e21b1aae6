"""The integer checks of the library types, and the input guards that no
other test or grid point fires, as (call, exception, message) tables."""

import math
from fractions import Fraction as F

import pytest

from superjacobi import (characters, elliptic, jacobi, labels, numtheory,
                         ramanujan, superalgebra)
from superjacobi.errors import BadLevel, IllConditioned


def _flow_of_unnormalized():
    chi = characters.character(labels.ModuleLabel(3, 1, 1), 2)
    return characters.spectral_flow_transform(chi, 1)


def _ratio_on_two_grids():
    a = characters.character(labels.ModuleLabel(3, 1, 1), 2, normalized=True)
    b = characters.character(labels.ModuleLabel(4, 1, 1), 2, normalized=True)
    return characters._monomial_ratio(a.series, b.series)


# the integer-moded maths refuses non-integer data where it is constructed
NON_INTEGER = {
    "BasisElt float index": (lambda: superalgebra.BasisElt("L", 1.5),
                             ValueError, "needs an int index"),
    "BasisElt Fraction index": (lambda: superalgebra.BasisElt("L", F(1, 2)),
                                ValueError, "needs an int index"),
    "BasisElt str index": (lambda: superalgebra.BasisElt("L", "1"),
                           ValueError, "needs an int index"),
    "BasisElt bool index": (lambda: superalgebra.BasisElt("L", True),
                            ValueError, "needs an int index"),
    "ModuleLabel float u": (lambda: labels.ModuleLabel(3.0, 1, 1),
                            BadLevel, "u must be an int"),
    "ModuleLabel float j": (
        lambda: labels.ModuleLabel(3, 0.1, F(1, 5), generic=True),
        BadLevel, "j must be an int or a Fraction, not 0.1"),
    "ModuleLabel float k": (
        lambda: labels.ModuleLabel(3, F(1, 10), 0.2, generic=True),
        BadLevel, "k must be an int or a Fraction, not 0.2"),
    "ModuleLabel bool j": (lambda: labels.ModuleLabel(3, True, 1),
                           BadLevel, "j must be an int or a Fraction"),
    "ModuleLabel str k": (lambda: labels.ModuleLabel(3, 1, "1"),
                          BadLevel, "k must be an int or a Fraction"),
    "central_charge float u": (lambda: labels.central_charge(3.5),
                               BadLevel, "u must be an int"),
    "spectrum float u": (lambda: labels.spectrum(3.5),
                         BadLevel, "u must be an int"),
    "JacobiGroupElement float entry": (
        lambda: jacobi.JacobiGroupElement(1.0, 0, 0, 1),
        ValueError, "must be ints"),
}

GUARDS = {
    "determinant": (lambda: jacobi.JacobiGroupElement(1, 1, 1, 1),
                    ValueError, "determinant 1"),
    "ModularPoint Im tau": (lambda: jacobi.ModularPoint(-1j, 0.1),
                            ValueError, r"Im\(tau\) must be positive"),
    "LatticePoint Im tau": (lambda: elliptic.LatticePoint(0.2, -1j),
                            ValueError, r"Im\(tau\) must be positive"),
    "C with an index": (lambda: superalgebra.BasisElt("C", 1),
                        ValueError, "C carries no index"),
    "L without an index": (lambda: superalgebra.BasisElt("L"),
                           ValueError, "L needs an"),
    "realization of C": (lambda: superalgebra.realization(superalgebra.C),
                         ValueError, "no realization for C"),
    "flow of an unnormalized character": (
        _flow_of_unnormalized, ValueError, "normalized characters"),
    "factor off the grid": (
        lambda: characters.p_product(
            labels.ModuleLabel(3, F(1, 2), F(1, 2), generic=True), 4,
            qden=1),
        ValueError, "factor exponent off the grid"),
    "monomial ratio on two grids": (_ratio_on_two_grids, ValueError,
                                    "grids 1/6 and 1/8"),
    "wp_series z_order": (lambda: elliptic.wp_series(0, 5),
                          ValueError, "z_order must be >= 1"),
    "zetabar_series z_order": (lambda: elliptic.zetabar_series(0, 5),
                               ValueError, "z_order must be >= 1"),
    "xi_zetabar_check t_order": (lambda: elliptic.xi_zetabar_check(1, 5),
                                 ValueError, "t_order must be >= 2"),
    "bernoulli index": (lambda: numtheory.bernoulli(-1),
                        ValueError, "n must be nonnegative"),
    "ramanujan_triple q_order": (lambda: ramanujan.ramanujan_triple(0),
                                 ValueError, "q_order must be >= 1"),
    # a NaN column never orthogonalizes, so the sweep cap ends the loop
    "svd of a NaN column": (lambda: jacobi._svd([[math.nan, 1.0],
                                                 [1.0, 2.0]]),
                            IllConditioned, "did not converge in 60"),
}


@pytest.mark.parametrize("call, exc, message", NON_INTEGER.values(),
                         ids=NON_INTEGER.keys())
def test_non_integer_input_is_refused(call, exc, message):
    with pytest.raises(exc, match=message):
        call()


@pytest.mark.parametrize("call, exc, message", GUARDS.values(),
                         ids=GUARDS.keys())
def test_guard_fires(call, exc, message):
    with pytest.raises(exc, match=message):
        call()
