"""The W(1|1) superalgebra: brackets, Jacobi identity, Virasoro embedding,
and the vector-field realization."""
from superjacobi.superalgebra import (C, H, J, L, Q, bracket,
                                      realization_bracket_check,
                                      super_jacobi_check, virasoro_map_check)

print("[L2, L-1] =", bracket(L(2), L(-1)))
print("[L2, J-2] =", bracket(L(2), J(-2)))
print("[J1, J-1] =", bracket(J(1), J(-1)))
print("[H1, Q-1] =", bracket(H(1), Q(-1)))
print("[H2, Q-2] =", bracket(H(2), Q(-2)))
print("[H1, H-1] =", bracket(H(1), H(-1)))

rep = super_jacobi_check(4)
print(f"graded Jacobi identity, {rep.checked} triples:", rep.passed)

print("corrected Virasoro map L_n -> L_n - (n+1)/2 J_n:",
      virasoro_map_check(6, naive=False).passed)
naive = virasoro_map_check(6, naive=True)
bad = dict(naive.violations)[(2, -2)]
print("naive map fails at (2,-2); missing central term:", bad.scale(-1))

# the realization on C[z, 1/z] (x) /\[theta] matches the table; the central
# extension shows up exactly as the kernel on the m + n = 0 relations
rep = realization_bracket_check(4)
print("vector-field realization matches:", rep.passed)
vals = {(p, m): c for p, m, n, c in rep.central_kernel}
print("cocycle samples: [L,J] m=2 ->", vals.get(("LJ", 2)),
      " [J,J] m=1 ->", vals.get(("JJ", 1)),
      " [H,Q] m=-2 ->", vals.get(("HQ", -2)))
