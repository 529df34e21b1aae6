"""The partial-fraction form of zeta-bar and its two defining properties.

xi(x, q) has the rational q^0 coefficient -1/2 - 1/(x-1) and Laurent
polynomial coefficients sum_{m|j} (x^m - x^{-m}) at q^j.  It gains exactly +1
under x -> qx, and its expansion at x = e^{2 pi i t} reproduces zeta-bar --
re-deriving every Eisenstein expansion from divisor sums on the way.
"""
from _laurent import laurent, over_pole
from superjacobi.elliptic import (LatticePoint, eval_wp, eval_zetabar,
                                  eval_zetabar_zseries, xi_series,
                                  xi_shift_check, xi_zetabar_check)

# xi = r/(x-1) + sum_j q^j N_j(x), with N_0 = -1/2 a constant
rows, r = xi_series(6)
n0 = rows[0][0]
print("xi q^0 coefficient:", over_pole({1: n0, 0: r - n0}, 1, "x"))
for j in (1, 2, 3, 4):
    print(f"xi q^{j} coefficient:", laurent(rows[j], "x"))

print("shift xi(qx) = xi + 1:", xi_shift_check(41).passed)
print("t-expansion equals zeta-bar (t^8, q^30):", xi_zetabar_check(8, 30).passed)

# numerics: the same partial fractions evaluated as complex sums
tau = 0.31 + 1.07j
t = 0.2 + 0.1j
z0 = eval_zetabar(LatticePoint(t, tau))
z1 = eval_zetabar(LatticePoint(t + tau, tau))
z2 = eval_zetabar(LatticePoint(t + 1, tau))
print("zeta-bar(t+tau) - zeta-bar(t) - 1 =", abs(z1 - z0 - 1))
print("zeta-bar(t+1)  - zeta-bar(t)     =", abs(z2 - z0))

w0 = eval_wp(LatticePoint(t, tau))
w1 = eval_wp(LatticePoint(t + tau, tau))
print("wp(t+tau) - wp(t) =", abs(w1 - w0))

# the sums run at the reduced point in q^n, so a large Im tau, where they
# converge fastest, evaluates as well
tau = 10j
w0 = eval_wp(LatticePoint(t, tau))
w1 = eval_wp(LatticePoint(t + tau, tau))
print("wp(t+tau) - wp(t) at Im tau = 10:", abs(w1 - w0))

# near t = 0 the z-series route (Eisenstein coefficients at pi -> 2*pi*i)
# agrees with the partial fraction sum
p = LatticePoint(0.06 + 0.03j, 1j)
print("two zeta-bar routes differ by:",
      abs(eval_zetabar(p) - eval_zetabar_zseries(p, 8, 30)))
