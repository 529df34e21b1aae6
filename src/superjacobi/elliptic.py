"""Weierstrass wp and zeta-bar as formal z/pi-hat/q-series, the function
xi(x, q) in partial-fraction form, their mutual consistency checks, and
complex numerical evaluation.

Conventions (pi-hat is the formal symbol for 2*pi*i):

    wp       = z^-2 + sum_{k>=1} (2k-1) z^{2k-2} pi^{2k} ghat_{2k}
    zeta-bar = -pi^-1 z^-1 + sum_{k>=1} pi^{2k-1} z^{2k-1} ghat_{2k}

so that -pi * zeta-bar = z^-1 - sum z^{2k-1} G_{2k} and d/dz of that equals
-wp exactly.  zeta-bar is 1-periodic and gains +1 under z -> z + tau.

The partial-fraction form implemented here is

    xi(x, q) = -1/2 - 1/(x-1) - sum_{n != 0} (1/(q^n x - 1) - 1/(q^n - 1)),

whose q^0 coefficient is -1/2 - 1/(x-1) and whose q^j coefficient (j >= 1)
is sum_{m | j} (x^m - x^{-m}).  This is the sign under which xi equals
zeta-bar at x = e^{2 pi i t} and satisfies xi(qx, q) = xi(x, q) + 1; the
opposite overall sign satisfies neither.

The numerical evaluators sum these partial fractions at the reduced point,
in q^n, up to a count set by a proved tail bound (see _reduced).

wp and zeta-bar have rational q-series coefficients (QSeries, on ints).  xi
has coefficients in x: xi_series gives them as integer rows N_j(x) plus the
residue r = -1 of the one simple pole r/(x-1), and both xi checks expand that
pole in closed form, so no job here builds a rational function of x.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .errors import PolePoint
from .numtheory import bernoulli, divisors, eisenstein_ghat
from .qseries import QSeries, ZPiSeries

# -- formal series ------------------------------------------------------------

def wp_series(z_order: int, q_order: int) -> ZPiSeries:
    """wp to z-exponent 2*z_order - 2 inclusive; first unknown is 2*z_order."""
    if z_order < 1:
        raise ValueError("z_order must be >= 1")
    terms = {(-2, 0): QSeries.one(q_order)}
    for k in range(1, z_order + 1):
        g = eisenstein_ghat(k, q_order).scale(2 * k - 1)
        terms[(2 * k - 2, 2 * k)] = g
    return ZPiSeries(terms, 2 * z_order, q_order)


def zetabar_series(z_order: int, q_order: int) -> ZPiSeries:
    """zeta-bar to z-exponent 2*z_order - 1 inclusive."""
    if z_order < 1:
        raise ValueError("z_order must be >= 1")
    terms = {(-1, -1): -QSeries.one(q_order)}
    for k in range(1, z_order + 1):
        terms[(2 * k - 1, 2 * k - 1)] = eisenstein_ghat(k, q_order)
    return ZPiSeries(terms, 2 * z_order + 1, q_order)


@dataclass
class CheckReport:
    check: str
    orders: dict
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {"check": self.check, "orders": self.orders,
                "passed": self.passed,
                "failures": [list(f) for f in self.failures]}


def _ghat_zpi(k: int, q_order: int) -> ZPiSeries:
    """G_{2k} as a ZPiSeries: pi-hat^{2k} * ghat_{2k} at z^0."""
    return ZPiSeries({(0, 2 * k): eisenstein_ghat(k, q_order)}, 10 ** 9, q_order)


def _pde_parts(z_order: int, q_order: int) -> tuple[ZPiSeries, ZPiSeries, ZPiSeries]:
    """The three parts of the tau-derivative PDE for wp, from one build of wp:
    (d_tau wp, zeta-bar * d_z wp, RHS) with d_tau = pi-hat * (q d/dq) and

    RHS = pi-hat^-1 (2 wp^2 - 6 G_2 wp + 3 G_2^2 - 15 G_4).

    The RHS coefficients are the ones consistent with the G_2-inclusive wp
    normalization used here; the z^0 component is then exactly the E_2
    Ramanujan identity (see the extract_ode_family docstring).
    """
    wp = wp_series(z_order, q_order)
    zb = zetabar_series(z_order, q_order)
    g2 = _ghat_zpi(1, q_order)
    g4 = _ghat_zpi(2, q_order)
    rhs = (wp * wp).scale(2) - (g2 * wp).scale(6) + (g2 * g2).scale(3) - g4.scale(15)
    return wp.q_log_deriv().pi_shift(1), zb * wp.z_deriv(), rhs.pi_shift(-1)


def wp_pde_sides(z_order: int, q_order: int) -> tuple[ZPiSeries, ZPiSeries]:
    """Both sides of the wp PDE: d_tau wp + zeta-bar * d_z wp, and the RHS."""
    tau, transport, rhs = _pde_parts(z_order, q_order)
    return tau + transport, rhs


def wp_pde_check(z_order: int, q_order: int) -> CheckReport:
    """Coefficientwise comparison of the two PDE sides.

    The provable z-window after truncation propagation is 2*z_order - 2
    (exclusive), i.e. the identity is certified for the z^{2k-2} components
    with k <= z_order - 1.
    """
    if z_order < 2:
        raise ValueError("z_order must be >= 2 for a nonempty window")
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    lhs, rhs = wp_pde_sides(z_order, q_order)
    failures = lhs.diff_exponents(rhs)
    window = min(lhs.ztrunc, rhs.ztrunc)
    return CheckReport("wp-pde",
                       {"zOrder": z_order, "qOrder": q_order,
                        "zWindow": window},
                       failures)


# -- xi: partial fractions ----------------------------------------------------

def xi_series(q_order: int) -> tuple[dict[int, dict], int]:
    """xi(x, q) to q^q_order as (rows, r), meaning

        xi = r/(x-1) + sum_{j < q_order} q^j N_j(x),

    with r = -1 the residue of the one simple pole, N_0 = -1/2 and, for
    j >= 1, the integer Laurent polynomial N_j = sum_{m | j} (x^m - x^{-m}).
    rows[j] is N_j as {x-exponent: coefficient}."""
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    rows = {0: {0: Fraction(-1, 2)}}
    for j in range(1, q_order):
        rows[j] = {s: c for m in divisors(j) for s, c in ((m, 1), (-m, -1))}
    return rows, -1


def _add_to_row(rows: dict[int, dict], e: int, s: int, c) -> None:
    """Add c at (e, s) of a map e -> {s: coefficient}, dropping a sum of 0."""
    row = rows.setdefault(e, {})
    v = row[s] + c if s in row else c
    if v:
        row[s] = v
    else:
        row.pop(s, None)


def xi_shift_check(q_order: int, offset: Fraction = Fraction(1)) -> CheckReport:
    """Verify xi(qx, q) = xi(x, q) + offset from the truncated data.

    Forms the difference xi(qx) - xi(x) - offset as one map q^e -> {x^s: c}
    and reports its nonzero entries.  The substitution turns the q^0 pole
    term into a q-series via -1/(qx - 1) = sum_{m>=0} q^m x^m.  The map
    covers q^e for 1 <= e <= (T-1)//2 as Laurent polynomials, and q^0 after
    expanding xi's pole in descending powers of x, r/(x-1) = r sum_{t>=1}
    x^-t, through x^{-(T-1)}; terms of xi(qx) outside that window are not
    built.  A correct run passes only for offset = 1.
    """
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    rows, r = xi_series(q_order)
    T, half = q_order, (q_order - 1) // 2
    diff: dict[int, dict[int, Fraction]] = {}
    # xi(qx), source q^0: -1/2 - 1/(qx-1) = -1/2 + sum_{m>=0} q^m x^m
    _add_to_row(diff, 0, 0, Fraction(-1, 2))
    for m in range(half + 1):
        _add_to_row(diff, m, m, 1)
    # sources q^j: c x^s gives c q^(j+s) x^s in xi(qx), and -c q^j x^s
    for j in range(1, T):
        for s, c in rows[j].items():
            if j + s <= half:
                _add_to_row(diff, j + s, s, c)
            if j <= half:
                _add_to_row(diff, j, s, -c)
    # q^0: minus xi's q^0 term N_0 + r sum_{t>=1} x^-t, and minus the offset
    for s, c in rows[0].items():
        _add_to_row(diff, 0, s, -c)
    _add_to_row(diff, 0, 0, -offset)
    for t in range(1, T):
        _add_to_row(diff, 0, -t, -r)
    failures = [(e, s) for e in (*range(1, half + 1), 0)
                for s in sorted(diff.get(e, ()), reverse=True)]
    return CheckReport("xi-shift", {"qOrder": q_order, "comparedThrough": half,
                                    "offset": str(offset)}, failures)


def xi_t_expansion(t_order: int, q_order: int) -> ZPiSeries:
    """Expand xi_series(q_order) at x = e^{2 pi i t} in powers of t, pi-hat
    graded.

    At x = e^w with w = pi-hat t, each row N_j gives N_j(e^w) = sum_r
    (sum_s c_s s^r) w^r / r!, and the pole with residue res gives
    res/(e^w - 1) = res w^-1 sum_n B_n w^n / n! at q^0.
    """
    rows, res = xi_series(q_order)
    out: dict[int, dict[int, Fraction]] = {}
    for n in range(t_order + 2):
        _add_to_row(out, n - 1, 0, res * bernoulli(n) / factorial(n))
    for j, row in rows.items():
        for r in range(t_order + 1):
            power_sum = sum(c * s ** r for s, c in row.items())
            _add_to_row(out, r, j, Fraction(power_sum, factorial(r)))
    zterms = {(r, r): QSeries.from_fractions(row, q_order)
              for r, row in out.items()}
    return ZPiSeries(zterms, t_order + 1, q_order)


def xi_zetabar_check(t_order: int, q_order: int) -> CheckReport:
    """Coefficientwise equality of the t-expansion of xi with zeta-bar.

    This re-derives every Eisenstein q-expansion with 2k - 1 <= t_order from
    the partial-fraction coefficients of xi_series, which xi_shift_check reads.
    """
    if t_order < 2:
        raise ValueError("t_order must be >= 2")
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    lhs = xi_t_expansion(t_order, q_order)
    half_k = (t_order + 1) // 2
    rhs = zetabar_series(half_k, q_order)
    window = min(lhs.ztrunc, 2 * half_k)
    failures = [f for f in lhs.diff_exponents(rhs) if f[0] < window]
    return CheckReport("xi-zetabar", {"tOrder": t_order, "qOrder": q_order,
                                      "tWindow": window}, failures)


# -- numerics ------------------------------------------------------------------

@dataclass(frozen=True)
class LatticePoint:
    t: complex
    tau: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.t) and cmath.isfinite(self.tau)):
            raise ValueError(f"t = {self.t} and tau = {self.tau} must be finite")
        if self.tau.imag <= 0:
            raise ValueError("Im(tau) must be positive")


_TAIL_TOL = 1e-16       # proved bound on the omitted terms of the sum over n
_MAX_TAIL_TERMS = 10 ** 6


def _reduced(p: LatticePoint) -> tuple:
    """(flip, k, x, q, q x, q/x, N) at the reduced point, for the sums over n.

    tau - round(Re tau) is exact; t moves by k = round(Im t / Im tau) periods,
    then by round(Re t), and to -t if flip (zeta-bar is odd, wp even).  Then
    0 <= Im t <= Im tau / 2, so |q| <= a = |q/x| <= |q|^(1/2) and each
    omitted w = q^n x^+-1 has |w| <= |q|^(n-1) a.  Two w per n, a geometric
    sum and |1 - w|^-2 <= 4 for |w| <= 1/2 bound the terms n > N by
    8 |q|^N a / (1 - |q|) when that is <= 1.  N is the least count that puts
    this bound at or below _TAIL_TOL.

    The tail guard runs first, on the count at Im t = Im tau / 2.  The
    reduction is refused from 2^50 periods on: below that k is exact, and
    the rounding of Im t / Im tau and of k Im tau moves the reduced Im t at
    most 3 Im tau / 16 past the strip; the tail bound needs only Im t >= 0,
    and there N exceeds the guarded count by
    at most one, and the lattice points +-tau + n stay more than Im tau / 4
    (> 1e-8 past the guard) from the reduced t: |t| is the distance to the
    lattice that the pole guard reads.
    """
    b = p.tau.imag
    tol = _TAIL_TOL * -math.expm1(-2 * math.pi * b)     # 1e-16 (1 - |q|)
    # tol is 0 only where Im tau underflows it, far below the guard
    c = math.log(8 / tol) / (2 * math.pi) if tol else math.inf
    if c / b - 0.5 > _MAX_TAIL_TERMS:
        raise ValueError(f"tail guard: {c / b - 0.5:.4g} partial-fraction terms "
                         f"needed at Im tau = {b:.3g}, more than {_MAX_TAIL_TERMS}")
    a = p.t.imag / b
    if not abs(a) < 2 ** 50:
        raise ValueError(f"t = {p.t} is too many periods from 0 to reduce "
                         f"at tau = {p.tau}")
    tau = p.tau - round(p.tau.real)
    k = round(a)
    t = p.t - k * tau
    t -= round(t.real)
    if abs(t) < 1e-8:
        raise PolePoint("t is within 1e-8 of a lattice point")
    flip = t.imag < 0
    if flip:
        t = -t
    n = (c - (b - t.imag)) / b
    e = [cmath.exp(2j * cmath.pi * s) for s in (t, tau, tau + t, tau - t)]
    return (flip, k, *e, max(0, math.ceil(n)))


def eval_zetabar(p: LatticePoint) -> complex:
    """zeta-bar(t, tau) by partial sums of the partial-fraction form.

    The n and -n terms pair to q^n x/(1 - q^n x) - q^n x^-1/(1 - q^n x^-1),
    n = 1..N at the reduced point (_reduced); the omitted pairs are at most
    8 |q|^N |q/x| / (1 - |q|) <= 1e-16 in absolute value.
    """
    flip, k, x, q, wx, wi, N = _reduced(p)
    total = -0.5 + 1.0 / (1.0 - x)
    for _ in range(N):
        total += wx / (1.0 - wx) - wi / (1.0 - wi)
        wx *= q
        wi *= q
    return (-total if flip else total) + k


def eval_wp(p: LatticePoint) -> complex:
    """wp(t, tau) = 2 pi i * d/dt zeta-bar, differentiated termwise.

    x d/dx takes each partial fraction of xi to w/(1 - w)^2 over w = x and
    q^n x^+-1, n = 1..N (_reduced); the omitted terms, hence the error in
    wp / (2 pi i)^2, are at most 8 |q|^N |q/x| / (1 - |q|) <= 1e-16.
    """
    _, _, x, q, wx, wi, N = _reduced(p)
    total = x / (1.0 - x) ** 2
    for _ in range(N):
        total += wx / (1.0 - wx) ** 2 + wi / (1.0 - wi) ** 2
        wx *= q
        wi *= q
    return (2j * cmath.pi) ** 2 * total


def eval_zetabar_zseries(p: LatticePoint, z_order: int, q_order: int) -> complex:
    """Independent route: evaluate the z-series of zeta-bar at pi-hat = 2 pi i.

    Each q-series coefficient is summed as c_e e^(2 pi i tau e) in
    ascending e.  Used to cross-check the partial-fraction evaluation near
    t = 0, so only t in the disc |t| < min(1, Im tau)/2 is accepted: every
    nonzero lattice point m tau + n has modulus at least min(1, Im tau).
    """
    if abs(p.t) < 1e-8:
        raise PolePoint("t is within 1e-8 of 0")
    radius = min(1.0, p.tau.imag) / 2
    if not abs(p.t) < radius:
        raise ValueError(f"|t| = {abs(p.t):.4g} is outside the disc "
                         f"|t| < min(1, Im tau)/2 = {radius:.4g}")
    zb = zetabar_series(z_order, q_order)
    pihat = 2j * cmath.pi
    total = 0j
    for (zexp, piexp), coeff in zb.terms.items():
        val = 0j
        for e, n in sorted(coeff.nums.items()):
            val += complex(Fraction(n, coeff.den)) * cmath.exp(pihat * p.tau * e)
        total += val * (p.t ** zexp) * (pihat ** piexp)
    return total
