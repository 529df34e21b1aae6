"""Eisenstein series and Ramanujan's differential equations.

Everything here is exact rational arithmetic: no floating point enters until
a value is printed.
"""
from superjacobi.numtheory import bernoulli, divisor_sum, eisenstein_e, eisenstein_ghat
from superjacobi.ramanujan import e_variable_form, extract_ode_families, ramanujan_triple

# Bernoulli numbers from long division of x by (e^x - 1)
print("B_0..B_12:", [bernoulli(n) for n in range(13)])

# sigma_{2k-1} feeds the Eisenstein expansions
print("sigma_1(1..6):", [divisor_sum(n, 1) for n in range(1, 7)])

for k in (1, 2, 3):
    e = eisenstein_e(k, 6)
    coeffs = [e.coeff(n) for n in range(6)]
    print(f"E_{2*k} =", coeffs, "...")

# ghat_{2k} = -B_{2k}/(2k)! E_{2k} carries the 2*pi*i powers formally
g2 = eisenstein_ghat(1, 5)
print("ghat_2 =", [g2.coeff(n) for n in range(5)], "...")

# The three classical identities hold with exact zero residual.
for idt in ramanujan_triple(60):
    print(f"q dE_{2*idt.k}/dq identity through q^60:",
          "residual zero" if idt.holds() else "FAILS")

# The same identities drop out of the Weierstrass PDE by equating
# z-coefficients; k = 1, 2, 3 reproduce E2, E4, E6 after rescaling.
for idt in extract_ode_families((1, 2, 3, 4), 7, 40):
    status = "exact" if idt.holds() else "FAILS"
    print(f"z^{idt.source_z_exponent} coefficient of the wp PDE: {status}")
    if idt.k <= 3:
        lhs_e, _ = e_variable_form(idt)
        want = eisenstein_e(idt.k, 40).q_log_deriv()
        print("   rescaled lhs == q dE/dq:", lhs_e.same_visible(want))
