"""The Jacobi group action and the span-invariance probe.

The probe fits a constant mixing matrix M with

    M v(p) ~ multiplier(g, p) v(g . p)

over low-discrepancy samples at tau = i and reports the least-squares
residual.  The lattice generators close at machine precision.  The S and
shear generators do not close on this family -- the probe is a measurement,
and it reports honest percent-level residuals there (for the one-dimensional
u=2 family the character is a theta4/theta1 quotient whose S-image is a
theta2/theta1 quotient, so no constant can relate them).

The Jacobi normalisation phi = q^{-1/8} y^{-1/2} chi and the three-sector
span {phi, phi|T, phi|S} close under all four generators, with tau sampled.
"""
from fractions import Fraction

from superjacobi.jacobi import (JacobiGroupElement, ModularPoint, S_ELEMENT,
                                T_SHEAR, act_on_point, compose,
                                coset_span_test, multiplier,
                                multiplier_cocycle_defect, sample_points,
                                span_invariance_test)


def below(x):
    """x against the 1e-12 rounding bound, so rounding-level values print
    the same whatever order the arithmetic ran in."""
    return f"{'< 1e-12':>9s}" if x < 1e-12 else f"{x:9.3e}"


# group law and action
g = compose(JacobiGroupElement.lattice(1, 0), S_ELEMENT)
print("(I,(1,0)) * (S,0) =", g.matrix, g.vector)
p = ModularPoint(1j, 0.3)
print("S . (i, 0.3) =", act_on_point(S_ELEMENT, p))
print("index-1/6 lattice multiplier at (i, 0):",
      multiplier(JacobiGroupElement.lattice(1, 0), ModularPoint(1j, 0.0),
                 Fraction(1)))

# the multiplier composes projectively (constant phase defect only)
pts = sample_points(8, 3)
d = multiplier_cocycle_defect(S_ELEMENT, T_SHEAR, pts, Fraction(3, 2))
print("cocycle defect (S, T):", f"{d:.2e}")

print("\nspan probe, truncation q^14, tau = i:")
gens = [("(1,0)", JacobiGroupElement.lattice(1, 0)),
        ("(0,1)", JacobiGroupElement.lattice(0, 1)),
        ("S", S_ELEMENT), ("shear", T_SHEAR)]
for u in (2, 3):
    for name, g in gens:
        rep = span_invariance_test(u, g, q_order=Fraction(14))
        print(f"   u={u} {name:6s} residual {below(rep.residual)}   "
              f"matrix discrepancy {below(rep.matrix_discrepancy)}")

print("\nspan of phi, phi|T, phi|S, tau sampled in [-0.3, 0.3] + i[0.9, 1.3]:")
for u in (2, 3):
    for name, g in gens:
        rep = coset_span_test(u, g, q_order=Fraction(14))
        print(f"   u={u} {name:6s} residual {below(rep.residual)}   "
              f"matrix discrepancy {below(rep.matrix_discrepancy)}")
