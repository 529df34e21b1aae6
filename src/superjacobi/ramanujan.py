"""Ramanujan's differential equations for Eisenstein series, both the three
classical displays and the infinite family obtained by equating z-coefficients
of the wp PDE.

All identities are stored and verified in the ghat variables (pi-hat-free,
rational); translation to E-variables is a presentation layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import OutOfRange
from .numtheory import bernoulli, eisenstein_e
from .qseries import QSeries
from .elliptic import _pde_parts


@dataclass
class OdeIdentity:
    """lhs == rhs as exact rational q-series with a shared truncation."""
    k: int
    lhs: QSeries
    rhs: QSeries
    source_z_exponent: int

    def residual(self) -> QSeries:
        return self.lhs - self.rhs

    def holds(self) -> bool:
        return self.residual().is_zero()

    def first_failure_order(self):
        r = self.residual()
        return None if r.is_zero() else r.valuation()

    def to_dict(self) -> dict:
        d = {"k": self.k, "holds": self.holds()}
        f = self.first_failure_order()
        if f is not None:
            d["firstFailureOrder"] = f
        return d


def ramanujan_triple(q_order: int) -> list[OdeIdentity]:
    """The three classical identities, each verified exactly through q_order:

        q dE2/dq = (E2^2 - E4)/12
        q dE4/dq = (E2 E4 - E6)/3
        q dE6/dq = (E2 E6 - E4^2)/2
    """
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    T = q_order + 1
    e2, e4, e6 = eisenstein_e(1, T), eisenstein_e(2, T), eisenstein_e(3, T)
    out = [
        OdeIdentity(1, e2.q_log_deriv(), (e2 * e2 - e4).scale(Fraction(1, 12)), 0),
        OdeIdentity(2, e4.q_log_deriv(), (e2 * e4 - e6).scale(Fraction(1, 3)), 2),
        OdeIdentity(3, e6.q_log_deriv(), (e2 * e6 - e4 * e4).scale(Fraction(1, 2)), 4),
    ]
    return out


def extract_ode_family(k: int, z_order: int, q_order: int) -> OdeIdentity:
    """Identity from the z^{2k-2} coefficient of the wp PDE.

    lhs is the pure d_tau part, (2k-1) q d/dq ghat_{2k}; rhs collects the
    transport and right-hand-side terms.  Exact for every k in the window the
    PDE's parts carry, 2k - 2 below their z-truncation 2*z_order - 2, that
    is 1 <= k <= z_order - 1; any other k raises OutOfRange.  k = 1, 2, 3
    reproduce the classical E2, E4, E6 identities up to the ghat
    normalizations (k = 3 uses E8 = E4^2 implicitly through ghat_8).
    """
    return extract_ode_families([k], z_order, q_order)[0]


def extract_ode_families(ks, z_order: int, q_order: int) -> list[OdeIdentity]:
    """:func:`extract_ode_family` for each k in ``ks``, from one build of the
    PDE's parts: the d_tau part, the transport zeta-bar * d_z wp and the
    right-hand side (:func:`~superjacobi.elliptic._pde_parts`).
    """
    tau, transport, rhs_full = _pde_parts(z_order, q_order)
    window = min(tau.ztrunc, transport.ztrunc, rhs_full.ztrunc)
    out = []
    for k in ks:
        zexp = 2 * k - 2
        pexp = 2 * k + 1
        if k < 1 or zexp >= window:
            raise OutOfRange(f"k={k}: z-exponent {zexp} outside the provable "
                             f"window [0, {window}) at z_order={z_order}")
        rhs = rhs_full.coeff(zexp, pexp) - transport.coeff(zexp, pexp)
        out.append(OdeIdentity(k, tau.coeff(zexp, pexp), rhs, zexp))
    return out


def e_variable_form(identity: OdeIdentity) -> tuple[QSeries, QSeries]:
    """Rescale an extracted identity into E-variables.

    Divides both sides by (2k-1) * (-B_{2k}/(2k)!), turning the lhs into
    q dE_{2k}/dq; for k <= 3 the rhs then equals the displayed classical
    right-hand side as a series.
    """
    k = identity.k
    c = Fraction(2 * k - 1) * (-bernoulli(2 * k) / factorial(2 * k))
    s = 1 / c
    return identity.lhs.scale(s), identity.rhs.scale(s)
