"""The Weierstrass functions as formal z / pi-hat / q series.

pi-hat is a formal grading symbol standing for 2*pi*i, so the differential
identities below are checked by exact coefficient comparison, not numerically.
"""
from superjacobi.elliptic import (wp_pde_check, wp_pde_sides, wp_series,
                                  zetabar_series)

K, T = 6, 30
wp = wp_series(K, T)
zb = zetabar_series(K, T)

print("wp term structure (z-exponent, pi-exponent):")
for (z, p) in sorted(wp.terms)[:5]:
    lead = wp.terms[(z, p)].coeff(0)
    print(f"   z^{z} pi^{p}, q^0 coefficient {lead}")

print("zeta-bar term structure:")
for (z, p) in sorted(zb.terms)[:4]:
    lead = zb.terms[(z, p)].coeff(0)
    print(f"   z^{z} pi^{p}, q^0 coefficient {lead}")

# d/dz(-pi zeta-bar) = -wp, exactly, including the pi-grading
lhs = zb.pi_shift(1).z_deriv().scale(-1)
print("d/dz(-pi zeta-bar) == -wp:", not lhs.diff_exponents(wp.scale(-1)))

# The tau-derivative PDE, coefficientwise
rep = wp_pde_check(K, T)
print(f"wp PDE exact (z window {rep.orders['zWindow']}, q^{T}):", rep.passed)

# Its z^0 component carries the E2 identity; inspect the raw series
lhs_side, rhs_side = wp_pde_sides(K, T)
c = lhs_side.coeff(0, 3)
print("z^0 pi^3 component, first coefficients:",
      [c.coeff(n) for n in range(4)])
