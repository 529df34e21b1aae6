"""The group SL2(Z) x| Z^2, its weight-0 index-(c/6) action on functions of
(tau, alpha), numerical evaluation of normalized characters, and the
span-invariance probe with least-squares mixing-matrix fitting.

Group law: (A, x) * (A', x') = (A A', x A' + x'), with x a row vector (m, n).
Every element decomposes as (A, x) = (A, 0) * (I, x); acting on a point means
applying the lattice shift first and the fractional-linear map second:

    (I, (m, n)):  (tau, alpha) -> (tau, alpha + m tau + n)
    (A, 0):       (tau, alpha) -> ((a tau + b)/(c tau + d), alpha/(c tau + d))

The multiplier is the product of the two exponential factors

    exp(2 pi i (cc/6) [m^2 tau + 2 m alpha + 2 n])          at the base point
    exp(2 pi i (cc/6) [-c alpha'^2 / (c tau' + d)])          at the shifted point

for index cc/6.

The span-invariance test is a numerical probe of whether a span of functions
is preserved: it fits a constant mixing matrix M with
M v(p) ~ multiplier * v(g . p) by least squares over deterministic samples
(alpha on the segment from 0.1 + 0.3i to 0.4; tau pinned at i by default, or
sampled in an opt-in box such as TAU_BOX = [-0.3, 0.3] + i[0.9, 1.3]) and
reports the residual.  The fit runs in plain Python: Householder QR of the
sample matrix, its condition number from the one-sided Jacobi singular values
of R, and back substitution on R.

On the normalized characters chi at tau = i the lattice generators pass at
machine precision and S and the shear T do not close: for u = 2,
chi = -i q^{1/8} y^{1/2} theta4(pi alpha|tau)/theta1(pi alpha|tau), and S, T
send theta4 to theta2, theta3.  The lattice pass itself rests on the pinned
tau: chi carries the factor q^{1/8} y^{1/2}, the prefactor of the generic
denominator label (2, 1/2, 1/2) dropped by character(), which is constant at
fixed tau; with tau sampled the x10 residual of chi is of order 0.1-1.

The index-c/6 Jacobi normalisation is phi = q^{-1/8} y^{-1/2} chi
(jacobi_normalized).  With tau sampled, the span of phi is closed under
Gamma^0(2) x| Z^2 (b even), and the three-sector span {phi, phi|T, phi|S},
one sector per coset of Gamma^0(2) in SL2(Z) (coset_span_test, dimension
3 u(u-1)/2), is closed under S, T and the lattice at machine precision.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import IllConditioned, PoleProximity, TailBoundExceeded
from .labels import ModuleLabel, _quotient_factors, central_charge, spectrum


@dataclass(frozen=True)
class JacobiGroupElement:
    a: int
    b: int
    c: int
    d: int
    m: int = 0
    n: int = 0

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("matrix must have determinant 1")

    @classmethod
    def identity(cls) -> "JacobiGroupElement":
        return cls(1, 0, 0, 1, 0, 0)

    @classmethod
    def modular(cls, a, b, c, d) -> "JacobiGroupElement":
        return cls(a, b, c, d, 0, 0)

    @classmethod
    def lattice(cls, m, n) -> "JacobiGroupElement":
        return cls(1, 0, 0, 1, m, n)

    @property
    def matrix(self):
        return (self.a, self.b, self.c, self.d)

    @property
    def vector(self):
        return (self.m, self.n)


IDENTITY = JacobiGroupElement.identity()
S_ELEMENT = JacobiGroupElement.modular(0, -1, 1, 0)
T_SHEAR = JacobiGroupElement.modular(1, 1, 0, 1)
# Right-coset representatives of Gamma^0(2) (b even) in SL2(Z).
GAMMA0_2_COSETS = (IDENTITY, T_SHEAR, S_ELEMENT)


def compose(g: JacobiGroupElement, h: JacobiGroupElement) -> JacobiGroupElement:
    """(A, x) * (A', x') = (A A', x A' + x')."""
    a = g.a * h.a + g.b * h.c
    b = g.a * h.b + g.b * h.d
    c = g.c * h.a + g.d * h.c
    d = g.c * h.b + g.d * h.d
    m = g.m * h.a + g.n * h.c + h.m
    n = g.m * h.b + g.n * h.d + h.n
    return JacobiGroupElement(a, b, c, d, m, n)


def inverse(g: JacobiGroupElement) -> JacobiGroupElement:
    """(A, x)^-1 = (A^-1, -x A^-1)."""
    ai, bi, ci, di = g.d, -g.b, -g.c, g.a
    m = -(g.m * ai + g.n * ci)
    n = -(g.m * bi + g.n * di)
    return JacobiGroupElement(ai, bi, ci, di, m, n)


@dataclass(frozen=True)
class ModularPoint:
    tau: complex
    alpha: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.tau) and cmath.isfinite(self.alpha)):
            raise ValueError(f"tau = {self.tau} and alpha = {self.alpha} "
                             "must be finite")
        if self.tau.imag <= 0:
            raise ValueError("Im(tau) must be positive")


def act_on_point(g: JacobiGroupElement, p: ModularPoint) -> ModularPoint:
    """Lattice shift, then fractional-linear map."""
    alpha = p.alpha + g.m * p.tau + g.n
    tau = p.tau
    den = g.c * tau + g.d
    return ModularPoint((g.a * tau + g.b) / den, alpha / den)


def multiplier(g: JacobiGroupElement, p: ModularPoint, cc: Fraction) -> complex:
    """Product of the lattice and modular exponential factors at index cc/6."""
    t = float(cc) / 6.0
    tau, alpha = p.tau, p.alpha
    m, n = g.m, g.n
    lat = cmath.exp(2j * cmath.pi * t * (m * m * tau + 2 * m * alpha + 2 * n))
    alpha1 = alpha + m * tau + n
    den = g.c * tau + g.d
    mod = cmath.exp(2j * cmath.pi * t * (-g.c * alpha1 * alpha1 / den))
    return lat * mod


# -- numerical character evaluation ---------------------------------------------

def eval_character_value(label: ModuleLabel, p: ModularPoint,
                         q_order: Fraction = Fraction(14)) -> complex:
    """Value of the normalized character through the convergent product.

    Multiplies every product factor with q-exponent below q_order, so the
    result is meaningful wherever the product converges, lattice-shifted
    alpha included.  Used by the span-invariance probe;
    eval_normalized_character bounds what the omitted factors change.
    """
    u, j, k, q_order = label.u, label.j, label.k, Fraction(q_order)
    qexp, yexp0, factors = _float_factors(u, j, k, q_order)
    tq = 2j * cmath.pi * p.tau
    ty = 2j * cmath.pi * p.alpha
    val = cmath.exp(tq * qexp) * cmath.exp(ty * yexp0)
    for i, (af, sf, side) in enumerate(factors):
        f = 1.0 - cmath.exp(tq * af) * cmath.exp(ty * sf)
        if abs(f) < 1e-12:
            a, yexp, _ = _quotient_factors(u, j, k, 0, q_order, True)[0][i]
            raise PoleProximity(f"factor (1 - q^{a} y^{yexp}) within pole guard")
        val = val * f if side > 0 else val / f
    return val


@functools.lru_cache(maxsize=256)
def _float_factors(u: int, j: Fraction, k: Fraction, q_order: Fraction):
    """The prefactor exponents and product factors of eval_character_value
    with float exponents, built once per (u, j, k, q_order).

    Returns (qpref, ypref, factors) from the m = 0, normalized walk of
    _quotient_factors: its exact prefactor q^{jk/u} y^{(j-k+1)/u + c/6} as
    floats, and each factor (float(a), float(yexp), side) in its order.
    """
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    factors, _, qpref, ypref = _quotient_factors(u, j, k, 0, q_order, True)
    return (float(qpref), float(ypref),
            tuple((float(a), float(yexp), side) for a, yexp, side in factors))


def eval_normalized_character(label: ModuleLabel, p: ModularPoint,
                              q_order: Fraction, tol: float | None = None
                              ) -> tuple[complex, float]:
    """eval_character_value(label, p, q_order) and a proved bound tail with
    |chi(p) - value| <= tail |value|.

    An omitted factor (1 - x)^{+-1}, |x| = |q|^a |y|^s, is 1 + a_n with
    |a_n| <= b = |x| (numerator) or |x|/(1 - |x|) (denominator).  Along a
    factor row a steps by u or 2, so the row sums to at most b/(1 - |q|^2)
    of its first omitted factor, which has q_order <= a < q_order + u; and
    |prod (1 + a_n) - 1| <= exp(sum |a_n|) - 1 (Ahlfors, Complex Analysis,
    ch. 5).  tail is inf when some |x| >= 1.  Raises TailBoundExceeded when
    tol is given and tail exceeds it.
    """
    q_order = Fraction(q_order)
    qa = math.exp(-2 * math.pi * p.tau.imag)
    ya = math.exp(-2 * math.pi * p.alpha.imag)
    _, _, factors = _float_factors(label.u, label.j, label.k,
                                   q_order + label.u)
    # a and q_order sit on coarse grids, so float order is exact order
    xs = [(qa ** a * ya ** s, side) for a, s, side in factors
          if a >= float(q_order)]
    tail = math.inf
    if all(x < 1.0 for x, _ in xs):
        total = sum(x if side > 0 else x / (1.0 - x) for x, side in xs)
        total /= 1.0 - qa * qa
        tail = math.expm1(total) if total < 700.0 else math.inf
    if tol is not None and tail > tol:
        raise TailBoundExceeded(
            f"tail bound {tail:.3e} exceeds {tol:.3e} at tau = {p.tau}, "
            f"alpha = {p.alpha}")
    return eval_character_value(label, p, q_order), tail


def jacobi_normalized(label: ModuleLabel, p: ModularPoint,
                      q_order: Fraction = Fraction(14)) -> complex:
    """phi = q^{-1/8} y^{-1/2} chi, the index-c/6 Jacobi normalisation of the
    normalized character chi.

    q^{1/8} y^{1/2} is the prefactor q^{jk/u} y^{(j-k+1)/u} of the generic
    denominator label (2, 1/2, 1/2), which character() drops when it divides
    by P^{(2)}.  At u = 2, phi = -i theta4(pi alpha|tau)/theta1(pi alpha|tau).
    """
    pref = cmath.exp(-2j * cmath.pi * (p.tau / 8 + p.alpha / 2))
    return pref * eval_character_value(label, p, q_order)


# -- span-invariance probe --------------------------------------------------------

@dataclass
class MixingReport:
    element: JacobiGroupElement
    u: int
    matrix: list
    residual: float
    matrix_discrepancy: float
    condition: float
    samples: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "element": {"matrix": list(self.element.matrix),
                        "vector": list(self.element.vector)},
            "u": self.u,
            "matrix": [[[z.real, z.imag] for z in row] for row in self.matrix],
            "residual": self.residual,
            "matrixDiscrepancy": self.matrix_discrepancy,
            "condition": self.condition,
            "samples": self.samples,
        }


_GOLDEN = 0.6180339887498949
_FRAC_SQRT2 = 0.41421356237309515
_FRAC_SQRT3 = 0.7320508075688772

# Opt-in tau box for the probe: (Re tau range, Im tau range).
TAU_BOX = ((-0.3, 0.3), (0.9, 1.3))


def sample_points(count: int, seed: int = 7,
                  tau_box: tuple | None = None) -> list[ModularPoint]:
    """Deterministic samples: alpha = 0.1 + 0.3 f1 + 0.3i f2 with f1, f2 the
    Kronecker sequences in g = (sqrt 5 - 1)/2 and g^2; tau = i, or, given
    tau_box = ((re_lo, re_hi), (im_lo, im_hi)), tau in that box via Kronecker
    sequences in sqrt 2 and sqrt 3.

    Since g^2 = 1 - g, f2 = 1 - f1: every alpha lies on the segment from
    0.1 + 0.3i to 0.4, not in the box [0.1, 0.4] x [0, 0.3]i.  The probe
    still fits, as the families are holomorphic in alpha; the values are kept
    so that stored probe results stay reproducible."""
    pts = []
    for i in range(count):
        f1 = ((seed + i + 1) * _GOLDEN) % 1.0
        f2 = ((seed + i + 1) * _GOLDEN * _GOLDEN) % 1.0
        alpha = complex(0.1 + 0.3 * f1, 0.3 * f2)
        tau = 1j
        if tau_box is not None:
            (re_lo, re_hi), (im_lo, im_hi) = tau_box
            f3 = ((seed + i + 1) * _FRAC_SQRT2) % 1.0
            f4 = ((seed + i + 1) * _FRAC_SQRT3) % 1.0
            tau = complex(re_lo + (re_hi - re_lo) * f3,
                          im_lo + (im_hi - im_lo) * f4)
        pts.append(ModularPoint(tau, alpha))
    return pts


def _tau_extent(pts: list[ModularPoint]) -> list:
    """[Re tau, Im tau] when every sample shares one tau, else the sampled
    box [[re_lo, re_hi], [im_lo, im_hi]]."""
    re = [p.tau.real for p in pts]
    im = [p.tau.imag for p in pts]
    if min(re) == max(re) and min(im) == max(im):
        return [re[0], im[0]]
    return [[min(re), max(re)], [min(im), max(im)]]


def _sector_row(labels, p, q_order, cc, family, cosets) -> list[complex]:
    """[(f_lab | h)(p) for h in cosets for lab in labels], with the slash
    action (f | h)(p) = multiplier(h, p) f(h . p)."""
    row = []
    for h in cosets:
        mult = multiplier(h, p, cc)
        hp = act_on_point(h, p)
        row.extend(mult * family(lab, hp, q_order) for lab in labels)
    return row


def _sample_matrices(u, g, pts, q_order, cc, family, cosets):
    """(V, W) as lists of rows: row i of V is v(p_i), row i of W is
    mult(g, p_i) v(g . p_i)."""
    labels = spectrum(u)
    V = [_sector_row(labels, p, q_order, cc, family, cosets) for p in pts]

    def transformed_row(p):
        mult = multiplier(g, p, cc)
        return [mult * v for v in _sector_row(labels, act_on_point(g, p),
                                              q_order, cc, family, cosets)]

    W = [transformed_row(p) for p in pts]
    return V, W


def _abs2(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _householder(V, W):
    """(R, B): the n x n upper-triangular factor R of V = QR and the first n
    rows B of Q^H W, for V of m >= n rows (lists of rows).  Each Householder
    reflection is applied to the trailing columns of V and to W as it is
    formed, so Q is never built (Golub-Van Loan, Matrix Computations,
    sec. 5.2)."""
    n = len(V[0])
    cols = [list(c) for c in zip(*V)]
    rhs = [list(c) for c in zip(*W)]
    for k in range(n):
        x = cols[k]
        norm = math.sqrt(sum(_abs2(z) for z in x[k:]))
        if norm == 0.0:
            continue
        # reflect x[k:] onto alpha e_1, alpha = -norm x_k/|x_k|, so that
        # x_k - alpha adds two numbers of the same phase
        x0 = x[k]
        r0 = abs(x0)
        alpha = -norm * (x0 / r0) if r0 else complex(-norm)
        v = x[k:]
        v[0] = x0 - alpha
        inv = 1.0 / (norm * (norm + r0))  # 2 / (v^H v)
        x[k] = alpha
        for c in cols[k + 1:] + rhs:
            tail = c[k:]
            s = inv * sum(vi.conjugate() * ci for vi, ci in zip(v, tail))
            c[k:] = [ci - s * vi for ci, vi in zip(tail, v)]
    R = [[cols[j][i] if j >= i else 0j for j in range(n)] for i in range(n)]
    B = [[c[i] for c in rhs] for i in range(n)]
    return R, B


# One-sided Jacobi converges quadratically, in a few sweeps at these sizes;
# the cap ends the loop on a nan column, whose rotations never settle.
_JACOBI_SWEEPS = 60


def _singular_values(A) -> list[float]:
    """The singular values of A (a list of rows) by one-sided Jacobi: plane
    rotations orthogonalize the columns until every pair has cosine at most
    n eps, and the column norms are then the singular values (Hestenes 1958;
    Demmel-Veselic, SIAM J. Matrix Anal. Appl. 13 (1992)).  Within a sweep
    the squared norms are updated with each rotation and re-summed at the
    start of the next."""
    cols = [list(c) for c in zip(*A)]
    n = len(cols)
    tol = n * math.ulp(1.0)
    for _ in range(_JACOBI_SWEEPS):
        norms = [sum(_abs2(z) for z in c) for c in cols]
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                a, b = norms[p], norms[q]
                gamma = sum(x.conjugate() * y
                            for x, y in zip(cols[p], cols[q]))
                g = abs(gamma)
                if g <= tol * math.sqrt(a * b):
                    continue
                rotated = True
                # rotate column p against e^{-i arg gamma} column q, with
                # t = tan theta the smaller root of t^2 + 2 zeta t - 1 = 0
                zeta = (b - a) / (2.0 * g)
                t = math.copysign(1.0, zeta) / (abs(zeta)
                                                 + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                phase = gamma.conjugate() / g
                cp = cols[p]
                cq = [phase * y for y in cols[q]]
                cols[p] = [c * x - s * y for x, y in zip(cp, cq)]
                cols[q] = [s * x + c * y for x, y in zip(cp, cq)]
                # the rotated pair's Gram matrix is diag(a - t g, b + t g)
                norms[p] = max(a - t * g, 0.0)
                norms[q] = b + t * g
        if not rotated:
            return [math.sqrt(a) for a in norms]
    raise IllConditioned(f"singular values did not converge in "
                         f"{_JACOBI_SWEEPS} Jacobi sweeps")


def _back_substitute(R, B):
    """X with R X = B, for upper-triangular R with a nonzero diagonal (lists
    of rows): one row operation per row of R, from the last up (Golub-Van
    Loan, Matrix Computations, sec. 5.3)."""
    n = len(R)
    X = [None] * n
    for i in range(n - 1, -1, -1):
        Ri, d = R[i], R[i][i]
        X[i] = [(b - sum(Ri[l] * X[l][c] for l in range(i + 1, n))) / d
                for c, b in enumerate(B[i])]
    return X


def _fit(V, W):
    """The least-squares M with V M^T ~ W, its worst relative residual and
    the condition number of V; IllConditioned when that exceeds 1e8 or is
    NaN, or when a sample value is not finite, before any solve.

    Householder QR of V carries W along; the condition number is the ratio
    of the extreme singular values of R (inf when the smallest is 0), and
    back substitution on R gives M^T."""
    for row in V + W:
        for z in row:
            if not cmath.isfinite(z):
                raise IllConditioned(
                    f"sample value {z} is not finite; the condition guard "
                    "refuses it")
    R, B = _householder(V, W)
    sv = _singular_values(R)
    lo, hi = min(sv), max(sv)
    cond = math.inf if lo == 0.0 else hi / lo
    if not cond <= 1e8:
        raise IllConditioned(f"sample matrix condition {cond:.3e} > 1e8")
    Mt = _back_substitute(R, B)
    M = [list(c) for c in zip(*Mt)]
    scale = max(abs(z) for row in W for z in row)
    worst = max(abs(sum(a * b for a, b in zip(v, m)) - w)
                for v, wrow in zip(V, W) for m, w in zip(M, wrow))
    return M, worst / max(scale, 1e-300), cond


def span_invariance_test(u: int, g: JacobiGroupElement,
                         q_order: Fraction = Fraction(14),
                         tol: float = 1e-6,
                         seed: int = 7,
                         family=None,
                         cosets: tuple = (IDENTITY,),
                         tau_box: tuple | None = None) -> MixingReport:
    """Fit the constant mixing matrix M with M v(p) ~ mult(g, p) v(g.p).

    v(p) lists (f | h)(p) for every coset representative h and every label of
    the level-u spectrum, with f = family (eval_character_value, the
    normalized character, by default; jacobi_normalized for phi).  Samples
    pin tau = i unless tau_box is given.  Runs the fit on two disjoint sample sets and reports the
    entrywise matrix discrepancy along with the worst relative residual.
    """
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    family = family or eval_character_value
    dim = len(spectrum(u)) * len(cosets)
    count = max(3 * dim, 9)
    samples = sample_points(2 * count, seed, tau_box)
    cc = central_charge(u)
    first, second = samples[:count], samples[count:]
    M1, r1, c1 = _fit(*_sample_matrices(u, g, first, q_order, cc, family,
                                        cosets))
    M2, r2, c2 = _fit(*_sample_matrices(u, g, second, q_order, cc, family,
                                        cosets))
    disc = max(abs(a - b) for x, y in zip(M1, M2) for a, b in zip(x, y))
    return MixingReport(
        element=g, u=u,
        matrix=[list(row) for row in M1],
        residual=max(r1, r2),
        matrix_discrepancy=disc,
        condition=max(c1, c2),
        samples={"count": 2 * count, "seed": seed,
                 "tau": _tau_extent(samples),
                 "qOrder": str(q_order), "tolerance": tol},
    )


def coset_span_test(u: int, g: JacobiGroupElement,
                    q_order: Fraction = Fraction(14), tol: float = 1e-6,
                    seed: int = 7) -> MixingReport:
    """The probe on the three-sector span {phi, phi|T, phi|S} of
    jacobi_normalized (dimension 3 u(u-1)/2), one sector per coset of
    Gamma^0(2) in SL2(Z), with tau sampled in TAU_BOX."""
    return span_invariance_test(u, g, q_order=q_order, tol=tol, seed=seed,
                                family=jacobi_normalized,
                                cosets=GAMMA0_2_COSETS, tau_box=TAU_BOX)


def multiplier_cocycle_defect(g: JacobiGroupElement, h: JacobiGroupElement,
                              pts: list[ModularPoint], cc: Fraction) -> float:
    """Max deviation of multiplier(gh, p) / [multiplier(g, h.p) multiplier(h, p)]
    from a sample-independent constant (the projective phase)."""
    gh = compose(g, h)
    ratios = []
    for p in pts:
        lhs = multiplier(gh, p, cc)
        rhs = multiplier(g, act_on_point(h, p), cc) * multiplier(h, p, cc)
        ratios.append(lhs / rhs)
    base = ratios[0]
    return max(abs(r / base - 1.0) for r in ratios)
